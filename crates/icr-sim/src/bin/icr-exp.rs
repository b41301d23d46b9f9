//! `icr-exp` — regenerate any table or figure of the ICR paper.
//!
//! Usage:
//!
//! ```text
//! icr-exp <experiment> [--insts N] [--seed S] [--threads T] [--json PATH]
//!                      [--scheme NAME[,NAME…]] [--spark] [--stats]
//!
//! experiments: table1, fig1..fig17, sens, victim, extensions, vuln,
//!              isa, isa-audit, spill, all
//! ```
//!
//! `--json PATH` writes the machine-readable result to `PATH`, where `-`
//! means stdout — the same convention `icr-run` and `icr-campaign` use;
//! `table1` is text only and rejects it.
//! `vuln` prints the full analytic vulnerability profile (per-scheme
//! one-shot outcome probabilities, FIT and MTTF from the `icr-vuln`
//! ledger) rather than a figure; with `--json` it emits the
//! machine-readable `VulnReport`. `audit` runs the full scheme × app
//! matrix — the ten paper presets plus two L2-spill descriptors — under
//! the lockstep reference-model checker (`icr-check`), diffing the
//! dL1's complete observable state after every access, and exits
//! non-zero (panic) on the first divergence. `--scheme` (accepted by
//! `audit`, `isa-audit` and `vuln`; any named preset, comma-separated)
//! replaces that default matrix. `spill` compares the descriptor's
//! L2-spill placement tier against dL1-only replication; like `isa` it
//! stays out of `all`, whose JSON bytes are pinned. `all --json` emits
//! one JSON array holding every figure object.
//!
//! Every cell is executed through the shared engine, so `all` computes
//! each distinct configuration exactly once even though many figures
//! name the same cells; `--stats` prints the cache counters to stderr
//! afterwards. Invalid command-line input exits with code 2 and a
//! diagnostic; runtime failures (e.g. an unwritable `--json` path) exit
//! with 1 — the same contract as `icr-run` and `icr-campaign`.

use icr_core::Scheme;
use icr_sim::audit::{run_audit, AuditSpec};
use icr_sim::engine::Engine;
use icr_sim::experiment::{self, ExpOptions, FigureRunner};
use icr_sim::json::write_output;
use icr_sim::vuln::{run_vuln, VulnSpec};
use icr_sim::FigureResult;
use icr_trace::apps::{APP_NAMES, ISA_APP_NAMES};
use std::process::ExitCode;

/// Prints a diagnostic plus the usage text and returns the
/// invalid-invocation exit code (2, in the `getopt` tradition —
/// distinct from runtime failures, which exit 1).
fn fail_usage(diagnostic: &str) -> ExitCode {
    eprintln!("error: {diagnostic}");
    eprintln!(
        "usage: icr-exp <experiment> [--insts N] [--seed S] [--threads T] [--json PATH] [--scheme NAME[,NAME…]] [--spark] [--stats]\n\
         \x20      --json PATH    write JSON to PATH ('-' = stdout; not table1)\n\
         \x20      --scheme NAMES restrict audit/isa-audit/vuln to these schemes\n\
         experiments: table1 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9\n\
         \x20            fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17 sens victim models hints dupcache stability scrub window dram exposure vuln audit sdc isa isa-audit spill all"
    );
    ExitCode::from(2)
}

/// The default lockstep-audit scheme matrix: the ten paper presets plus
/// two spill descriptors, so every audit run exercises the L2 replica
/// region's reference model too.
fn audit_schemes() -> Vec<Scheme> {
    let mut schemes = Scheme::all_paper_schemes();
    schemes.push(Scheme::ICR_P_PS_S_L2);
    schemes.push(Scheme::ICR_ECC_PS_S_L2);
    schemes
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(which) = args.first() else {
        return fail_usage("expected an experiment name");
    };
    let mut opts = ExpOptions::default();
    let mut json: Option<String> = None;
    let mut schemes: Option<Vec<Scheme>> = None;
    let mut spark = false;
    let mut stats = false;
    let mut i = 1;
    macro_rules! take_value {
        ($flag:expr) => {{
            let Some(v) = args.get(i + 1) else {
                return fail_usage(&format!("{} requires a value", $flag));
            };
            i += 2;
            v
        }};
    }
    macro_rules! take_parsed {
        ($flag:expr, $what:expr) => {{
            let v = take_value!($flag);
            match v.parse() {
                Ok(n) => n,
                Err(_) => return fail_usage(&format!("{} expects {}, got {v:?}", $flag, $what)),
            }
        }};
    }
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = Some(take_value!("--json").clone()),
            "--scheme" => {
                let v = take_value!("--scheme");
                let mut parsed = Vec::new();
                for name in v.split(',') {
                    match name.parse::<Scheme>() {
                        Ok(s) => parsed.push(s),
                        Err(e) => return fail_usage(&e.to_string()),
                    }
                }
                schemes = Some(parsed);
            }
            "--spark" => {
                spark = true;
                i += 1;
            }
            "--stats" => {
                stats = true;
                i += 1;
            }
            "--insts" => opts.instructions = take_parsed!("--insts", "a positive integer"),
            "--seed" => opts.seed = take_parsed!("--seed", "an unsigned integer"),
            "--threads" => opts.threads = take_parsed!("--threads", "an unsigned integer"),
            other => return fail_usage(&format!("unknown option {other:?}")),
        }
    }
    if opts.instructions == 0 {
        return fail_usage("--insts must be at least 1");
    }
    if schemes.as_ref().is_some_and(|s| s.is_empty()) {
        return fail_usage("--scheme must name at least one scheme");
    }
    if schemes.is_some() && !matches!(which.as_str(), "audit" | "isa-audit" | "vuln") {
        return fail_usage("--scheme only applies to audit, isa-audit and vuln");
    }
    if json.is_some() && which == "table1" {
        return fail_usage("--json does not apply to table1");
    }

    let emit = |fig: FigureResult| {
        if let Some(path) = &json {
            return write_json(&fig.to_json(), path);
        }
        print!("{fig}");
        if spark {
            print!("{}", fig.sparklines());
        }
        ExitCode::SUCCESS
    };
    let code = match which.as_str() {
        "table1" => {
            print!("{}", experiment::table1());
            ExitCode::SUCCESS
        }
        "audit" | "isa-audit" | "vuln" => {
            let (heading, default_schemes, apps) = match which.as_str() {
                "audit" => (
                    "Lockstep reference-model audit",
                    audit_schemes(),
                    APP_NAMES.as_slice(),
                ),
                "isa-audit" => (
                    "Lockstep reference-model audit over ISA kernels",
                    Scheme::all_paper_schemes(),
                    ISA_APP_NAMES.as_slice(),
                ),
                _ => (
                    "Analytic vulnerability profile",
                    Scheme::all_paper_schemes(),
                    APP_NAMES.as_slice(),
                ),
            };
            let schemes = schemes.unwrap_or(default_schemes);
            let apps = apps.iter().map(|s| s.to_string()).collect();
            let (doc, table) = if which == "vuln" {
                let mut spec = VulnSpec::new(schemes, apps, opts.instructions, opts.seed);
                spec.threads = opts.threads;
                let report = run_vuln(&spec);
                // `to_json` already ends with a newline; trim it so the
                // shared writer appends exactly one.
                let doc = report.to_json().trim_end_matches('\n').to_owned();
                (doc, report.summary_table())
            } else {
                let mut spec = AuditSpec::new(schemes, apps, opts.instructions, opts.seed);
                spec.threads = opts.threads;
                // Panics with a labelled divergence report on any mismatch.
                let report = run_audit(&spec);
                (report.to_json(), report.summary_table())
            };
            if let Some(path) = &json {
                write_json(&doc, path)
            } else {
                println!(
                    "{heading} ({} insts/app, seed {})",
                    opts.instructions, opts.seed
                );
                print!("{table}");
                ExitCode::SUCCESS
            }
        }
        "all" => {
            if json.is_none() {
                print!("{}", experiment::table1());
            }
            let figs = experiment::all_figures(&opts);
            if let Some(path) = &json {
                // One well-formed JSON document, not one object per figure.
                let body = figs
                    .iter()
                    .map(|f| f.to_json())
                    .collect::<Vec<_>>()
                    .join(",\n");
                write_json(&format!("[\n{body}\n]"), path)
            } else {
                for fig in figs {
                    println!();
                    emit(fig);
                }
                ExitCode::SUCCESS
            }
        }
        // Single figures: everything `all` runs, plus the two matrices
        // kept out of it. `vuln` is matched above as the full report.
        name => {
            let extra: [FigureRunner; 2] = [
                ("isa", experiment::isa_matrix),
                ("spill", experiment::spill_matrix),
            ];
            let runner = experiment::figure_runners()
                .into_iter()
                .chain(extra)
                .find(|(id, _)| *id == name);
            let Some((_, run)) = runner else {
                return fail_usage(&format!("unknown experiment {name:?}"));
            };
            emit(run(&opts))
        }
    };
    if stats {
        eprintln!("engine: {:?}", Engine::global().stats());
    }
    code
}

/// Writes `doc` through the shared hardened writer. A failure is a
/// runtime error (exit 1), as in `icr-campaign`.
fn write_json(doc: &str, path: &str) -> ExitCode {
    match write_output(doc, path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
