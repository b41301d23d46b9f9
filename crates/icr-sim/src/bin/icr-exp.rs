//! `icr-exp` — regenerate any table or figure of the ICR paper.
//!
//! ```text
//! icr-exp <experiment> [--insts N] [--seed S] [--threads T] [--json PATH]
//!                      [--scheme NAME[,NAME…]] [--spark] [--stats]
//! ```
//!
//! The usage text (`icr-exp` with no arguments) lists every experiment
//! id: each runner of `experiment::figure_runners()` plus this binary's
//! own `table1`, `audit`, `isa-audit`, `isa`, `spill` and `all`.
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
//! with 1 — the contract `icr_sim::cli` gives all three binaries.

use icr_core::Scheme;
use icr_sim::audit::{run_audit, AuditSpec};
use icr_sim::cli::{self, Usage};
use icr_sim::engine::Engine;
use icr_sim::experiment::{self, ExpOptions, FigureRunner};
use icr_sim::vuln::{run_vuln, VulnSpec};
use icr_sim::FigureResult;
use icr_trace::apps::{APP_NAMES, ISA_APP_NAMES};
use std::process::ExitCode;

/// The usage text; its experiment list is every figure runner plus the
/// commands this binary handles itself.
fn usage() -> String {
    let experiments: Vec<&str> = ["table1"]
        .into_iter()
        .chain(experiment::figure_runners().into_iter().map(|(id, _)| id))
        .chain(["audit", "isa-audit", "isa", "spill", "all"])
        .collect();
    format!(
        "usage: icr-exp <experiment> [--insts N] [--seed S] [--threads T] [--json PATH] [--scheme NAME[,NAME…]] [--spark] [--stats]\n\
         \x20      --json PATH    write JSON to PATH ('-' = stdout; not table1)\n\
         \x20      --scheme NAMES restrict audit/isa-audit/vuln to these schemes\n\
         experiments: {}",
        experiments.join(" ")
    )
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
    run(std::env::args().skip(1)).unwrap_or_else(|e| cli::usage_error(&usage(), e))
}

fn run(mut args: impl Iterator<Item = String>) -> Result<ExitCode, Usage> {
    let which = args
        .next()
        .ok_or_else(|| Usage("expected an experiment name".into()))?;
    let mut opts = ExpOptions::default();
    let mut json: Option<String> = None;
    let mut schemes: Option<Vec<Scheme>> = None;
    let mut spark = false;
    let mut stats = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = Some(cli::value(&mut args, "--json")?),
            "--scheme" => schemes = Some(cli::names(&mut args, "--scheme")?),
            "--spark" => spark = true,
            "--stats" => stats = true,
            "--insts" => opts.instructions = cli::count(&mut args, "--insts")?,
            "--seed" => opts.seed = cli::parsed(&mut args, "--seed", "an unsigned integer")?,
            "--threads" => {
                opts.threads = cli::parsed(&mut args, "--threads", "an unsigned integer")?
            }
            other => return Err(cli::unknown_option(other)),
        }
    }
    if schemes.is_some() && !matches!(which.as_str(), "audit" | "isa-audit" | "vuln") {
        return Err(Usage(
            "--scheme only applies to audit, isa-audit and vuln".into(),
        ));
    }
    if json.is_some() && which == "table1" {
        return Err(Usage("--json does not apply to table1".into()));
    }

    let emit = |fig: FigureResult| {
        if let Some(path) = &json {
            return cli::write_json(&fig.to_json(), path);
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
                (report.to_json(), report.summary_table())
            } else {
                let mut spec = AuditSpec::new(schemes, apps, opts.instructions, opts.seed);
                spec.threads = opts.threads;
                // Panics with a labelled divergence report on any mismatch.
                let report = run_audit(&spec);
                (report.to_json(), report.summary_table())
            };
            if let Some(path) = &json {
                cli::write_json(&doc, path)
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
                cli::write_json(&format!("[\n{body}\n]"), path)
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
            let Some((_, figure)) = runner else {
                return Err(Usage(format!("unknown experiment {name:?}")));
            };
            emit(figure(&opts))
        }
    };
    if stats {
        eprintln!("engine: {:?}", Engine::global().stats());
    }
    Ok(code)
}
