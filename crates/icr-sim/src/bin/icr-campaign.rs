//! `icr-campaign` — deterministic parallel Monte-Carlo fault-injection
//! campaign over a (scheme × app) matrix, with optional sharded
//! checkpointing so a killed run resumes to byte-identical output.
//!
//! ```text
//! icr-campaign [options]
//! icr-campaign merge [options] DIR...
//!
//! options:
//!   --schemes a,b,c   comma-separated schemes       (default basep,baseecc,icr-p-ps-s,icr-ecc-ps-s)
//!   --apps a,b,c      comma-separated workloads     (default gzip,gcc,mcf)
//!   --trials N        trials per (scheme × app) cell (default 100)
//!   --batch N         trials per cell per in-memory shard, the early-stop
//!                     check granularity             (default 50)
//!   --seed S          master seed                   (default 42)
//!   --insts N         instructions per trial        (default 20000)
//!   --model M         direct|adjacent|column|random (default random)
//!   --fault P         per-cycle fault probability   (default auto: 8/insts)
//!   --ci-width W      stop a cell once its Wilson 95% interval is narrower
//!   --threads N       worker threads                (default all cores)
//!   --no-oracle       disable the silent-corruption oracle shadow
//!   --importance      importance-sample the injection sites: tilt strikes
//!                     toward dirty-parity lines (per-cell proposal from a
//!                     fault-free exposure profile) and report weighted,
//!                     unbiased estimates next to the raw counts
//!   --checkpoint DIR  run sharded: persist one digest-verified checkpoint
//!                     per completed shard into DIR (see --shard-size)
//!   --resume          skip shards DIR already holds verified checkpoints
//!                     for; corrupt files are quarantined and re-run
//!   --shard-size N    trials per shard per cell     (default: --batch)
//!   --worker I/N      run only shards s with s % N == I — worker I of an
//!                     N-way fan-out (requires --checkpoint; workers may
//!                     share a directory or each use their own)
//!   --json PATH       write the JSON report to PATH, '-' = stdout
//!                     (default stdout — same convention as icr-run/icr-exp)
//!   --quiet           suppress progress output
//! ```
//!
//! `icr-campaign merge` takes the same spec options plus one or more
//! checkpoint directories and replays the union of their verified
//! shard checkpoints — strictly restore-only, executing no trial —
//! into the report a single-process run of the spec would have
//! written, byte for byte. Missing shards, spec-fingerprint
//! mismatches and conflicting duplicates are runtime errors; merge
//! never modifies the input directories.
//!
//! Every run goes through one shard loop. Without `--checkpoint` the
//! shards stay in memory, `--batch` trials per cell each, and the report
//! has no `sharding` section; with it, each finished shard is persisted.
//! The JSON report is a pure function of the options: no timestamps, no
//! host data, bit-identical across runs, thread counts, and — in
//! checkpoint mode — across any sequence of kills and resumes. Progress
//! and timing go to stderr only, one streaming line per completed shard.
//!
//! SIGINT in checkpoint mode triggers a graceful drain: the in-flight
//! shard finishes, its checkpoint is flushed, and the report is written
//! with `"complete": false` so partial results are explicit. Without
//! `--checkpoint`, SIGINT kills the run: a plain report has no
//! `complete` marker to flag partial results. Invalid command-line
//! input, a populated checkpoint directory without `--resume` included,
//! exits with code 2 and a diagnostic; runtime failures (e.g. an
//! unwritable checkpoint directory) exit with 1 — the contract
//! `icr_sim::cli` gives all three binaries.

use icr_core::Scheme;
use icr_sim::cli::{self, Usage};
use icr_sim::{
    merge_sharded_campaign, run_sharded_campaign_observed, CampaignSpec, ShardEvent,
    ShardedCampaignSpec,
};
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const USAGE: &str = "\
usage: icr-campaign [--schemes a,b,c] [--apps a,b,c] [--trials N]
                    [--batch N] [--seed S] [--insts N] [--model M]
                    [--fault P] [--ci-width W] [--threads N]
                    [--no-oracle] [--importance] [--checkpoint DIR]
                    [--resume] [--shard-size N] [--worker I/N]
                    [--json PATH] [--quiet]
       icr-campaign merge [spec options] DIR...
schemes: basep baseecc baseecc-spec icr-{p,ecc}-{ps,pp}[-l2]-{s,ls}
models:  direct adjacent column random
apps:    gzip vpr gcc mcf parser mesa vortex art (+ bzip2 twolf crafty gap,
      execution-driven isa:{bubble,qsort,matmul,chase,strsearch,lz,checksum})";

/// Installs a SIGINT handler that only sets a flag (the async-signal-safe
/// minimum); the shard loop polls it between shards and drains. On
/// non-Unix targets the flag simply never fires.
fn install_sigint_flag() -> &'static AtomicBool {
    static STOP: AtomicBool = AtomicBool::new(false);
    #[cfg(unix)]
    {
        extern "C" fn on_sigint(_signum: i32) {
            STOP.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        // SAFETY: `on_sigint` is async-signal-safe (a single relaxed-free
        // atomic store) and stays alive for the process lifetime.
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    }
    &STOP
}

fn main() -> ExitCode {
    run(std::env::args().skip(1)).unwrap_or_else(|e| cli::usage_error(USAGE, e))
}

fn run(args: impl Iterator<Item = String>) -> Result<ExitCode, Usage> {
    let mut args = args.peekable();
    // `icr-campaign merge [spec options] DIR...` — same spec vocabulary,
    // positional checkpoint directories, restore-only.
    let merge_mode = args.next_if_eq("merge").is_some();

    let mut spec = CampaignSpec::new(
        vec![
            Scheme::BASE_P,
            Scheme::BASE_ECC,
            Scheme::ICR_P_PS_S,
            Scheme::ICR_ECC_PS_S,
        ],
        vec!["gzip".into(), "gcc".into(), "mcf".into()],
        100,
        42,
    );
    let mut json_path: Option<String> = None;
    let mut quiet = false;
    let mut checkpoint_dir: Option<String> = None;
    let mut resume = false;
    let mut shard_size: Option<u64> = None;
    let mut worker: Option<(u64, u64)> = None;
    let mut merge_dirs: Vec<PathBuf> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--schemes" => spec.schemes = cli::names(&mut args, "--schemes")?,
            "--apps" => spec.apps = cli::names(&mut args, "--apps")?,
            "--trials" => spec.trials_per_cell = cli::count(&mut args, "--trials")?,
            "--batch" => spec.batch = cli::count(&mut args, "--batch")?,
            "--seed" => spec.master_seed = cli::parsed(&mut args, "--seed", "an unsigned integer")?,
            "--insts" => spec.instructions = cli::count(&mut args, "--insts")?,
            "--model" => spec.model = cli::name(&mut args, "--model")?,
            "--fault" => spec.p_per_cycle = cli::probability(&mut args, "--fault")?,
            "--ci-width" => {
                let w: f64 = cli::parsed(&mut args, "--ci-width", "a width in (0, 1]")?;
                if !(w > 0.0 && w <= 1.0) {
                    return Err(Usage("--ci-width must be in (0, 1]".into()));
                }
                spec.target_ci_width = Some(w);
            }
            "--threads" => {
                spec.threads = cli::parsed(&mut args, "--threads", "an unsigned integer")?
            }
            "--no-oracle" => spec.oracle = false,
            "--importance" => spec.importance = true,
            "--checkpoint" => checkpoint_dir = Some(cli::value(&mut args, "--checkpoint")?),
            "--resume" => resume = true,
            "--shard-size" => shard_size = Some(cli::count(&mut args, "--shard-size")?),
            "--worker" => {
                let v = cli::value(&mut args, "--worker")?;
                let parsed = v.split_once('/').and_then(|(idx, total)| {
                    Some((idx.parse::<u64>().ok()?, total.parse::<u64>().ok()?))
                });
                let Some((idx, total)) = parsed else {
                    return Err(Usage(format!("--worker expects I/N (e.g. 0/4), got {v:?}")));
                };
                worker = Some((idx, total));
            }
            "--json" => json_path = Some(cli::value(&mut args, "--json")?),
            "--quiet" => quiet = true,
            dir if merge_mode && !dir.starts_with('-') => merge_dirs.push(PathBuf::from(dir)),
            other => return Err(cli::unknown_option(other)),
        }
    }

    if resume && checkpoint_dir.is_none() {
        return Err(Usage("--resume requires --checkpoint DIR".into()));
    }
    // Merge has no checkpoint directory of its own but must agree with
    // the workers on the shard partition, so it accepts --shard-size.
    if shard_size.is_some() && checkpoint_dir.is_none() && !merge_mode {
        return Err(Usage("--shard-size requires --checkpoint DIR".into()));
    }
    if worker.is_some() && checkpoint_dir.is_none() {
        return Err(Usage("--worker requires --checkpoint DIR".into()));
    }
    let shard_size = shard_size.unwrap_or(spec.batch);
    let mut sspec = ShardedCampaignSpec::new(spec, shard_size);
    sspec.worker = worker;
    sspec.validate().map_err(Usage)?;
    if merge_mode {
        if checkpoint_dir.is_some() || resume || worker.is_some() {
            return Err(Usage(
                "merge takes checkpoint directories as positional arguments; \
                 --checkpoint, --resume and --worker do not apply"
                    .into(),
            ));
        }
        if merge_dirs.is_empty() {
            return Err(Usage(
                "merge needs at least one checkpoint directory".into(),
            ));
        }
    }
    let spec = &sspec.base;
    cli::check_apps(&spec.apps)?;

    let total_trials_max =
        spec.trials_per_cell * spec.schemes.len() as u64 * spec.apps.len() as u64;
    if !quiet {
        cli::eprint(format_args!(
            "campaign: {} schemes × {} apps × {} trials (≤ {} total), model {}, seed {}, p/cycle {:.2e}\n",
            spec.schemes.len(),
            spec.apps.len(),
            spec.trials_per_cell,
            total_trials_max,
            spec.model.name(),
            spec.master_seed,
            spec.effective_p(),
        ));
    }

    if merge_mode {
        return Ok(run_merge(&sspec, &merge_dirs, json_path, quiet));
    }
    run_shards(&sspec, checkpoint_dir.as_deref(), resume, json_path, quiet)
}

/// `icr-campaign merge` — replay worker checkpoint directories into the
/// single-process report, restore-only.
fn run_merge(
    sspec: &ShardedCampaignSpec,
    dirs: &[PathBuf],
    json_path: Option<String>,
    quiet: bool,
) -> ExitCode {
    if !quiet {
        cli::eprint(format_args!(
            "merging {} checkpoint directories: {} shards of {} trials/cell (spec fingerprint {:#018x})\n",
            dirs.len(),
            sspec.shards_total(),
            sspec.shard_size,
            sspec.fingerprint(),
        ));
    }
    let report = match merge_sharded_campaign(sspec, dirs) {
        Ok(r) => r,
        Err(e) => {
            cli::eprint(format_args!("error: {e}\n"));
            return ExitCode::FAILURE;
        }
    };
    if !quiet {
        let executed: u64 = report.report.cells.iter().map(|c| c.trials).sum();
        cli::eprint(format_args!(
            "merged: {executed} trials restored from {} of {} shards\n\n",
            report.shards_done, report.shards_total,
        ));
        cli::eprint(report.report.summary_table());
    }
    write_report(&report.to_json(), json_path.as_deref(), quiet)
}

/// Runs the campaign's shard loop: checkpointed into `dir` when given
/// (the service mode, with the SIGINT drain), otherwise in memory with
/// `--batch` trials per shard, writing the plain report.
fn run_shards(
    sspec: &ShardedCampaignSpec,
    dir: Option<&str>,
    resume: bool,
    json_path: Option<String>,
    quiet: bool,
) -> Result<ExitCode, Usage> {
    let worker = sspec.worker;
    // Only a checkpointed run can drain: a plain report has no
    // `complete` marker, so ^C keeps its default meaning there.
    let never = AtomicBool::new(false);
    let stop = if dir.is_some() {
        install_sigint_flag()
    } else {
        &never
    };
    if let Some(dir) = dir.filter(|_| !quiet) {
        let worker_note = match worker {
            Some((idx, total)) => format!(", worker {idx}/{total}"),
            None => String::new(),
        };
        cli::eprint(format_args!(
            "checkpointing to {dir}: {} shards of {} trials/cell{}{worker_note} (spec fingerprint {:#018x})\n",
            sspec.shards_total(),
            sspec.shard_size,
            if resume { ", resuming" } else { "" },
            sspec.fingerprint(),
        ));
    }

    let started = Instant::now();
    let result = run_sharded_campaign_observed(sspec, dir.map(Path::new), resume, stop, |e| {
        match e {
            // Quarantine diagnostics always print: silently re-running a
            // corrupt checkpoint's shard would hide data damage.
            ShardEvent::Quarantined {
                shard,
                quarantined_to,
                reason,
            } => cli::eprint(format_args!(
                "  shard {shard}: checkpoint failed verification ({reason}); \
                 quarantined to {}; shard will re-run\n",
                quarantined_to.display()
            )),
            ShardEvent::ShardDone(p) => {
                if !quiet {
                    let secs = started.elapsed().as_secs_f64();
                    cli::eprint(format_args!(
                        "  shard {:>4}/{:<4} {} {:>8} trials total, {:>3} cells active  ({:.0} trials/s)\n",
                        p.shard + 1,
                        p.shards_total,
                        if p.resumed { "resumed " } else { "ran     " },
                        p.trials_done,
                        p.cells_active,
                        p.trials_done as f64 / secs.max(1e-9),
                    ));
                }
            }
        }
    });

    let report = match result {
        Ok(r) => r,
        // A populated directory without --resume is an invocation
        // error; anything else is a runtime failure.
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => return Err(Usage(e.to_string())),
        Err(e) => {
            cli::eprint(format_args!("error: {e}\n"));
            return Ok(ExitCode::FAILURE);
        }
    };

    let secs = started.elapsed().as_secs_f64();
    // A worker's slice is done when every shard it owns is accounted
    // for; its report still carries `complete: false` because the other
    // workers' shards are not in it.
    let owned_shards = (0..sspec.shards_total())
        .filter(|&s| sspec.owns_shard(s))
        .count() as u64;
    let slice_done = report.complete || (worker.is_some() && report.shards_done == owned_shards);
    if !quiet {
        let executed: u64 = report.report.cells.iter().map(|c| c.trials).sum();
        cli::eprint(format_args!(
            "{}: {executed} trials accounted ({} of {} shards, {} resumed{}) in {secs:.2}s\n\n",
            if slice_done { "done" } else { "interrupted" },
            report.shards_done,
            report.shards_total,
            report.shards_resumed,
            if report.quarantined > 0 {
                format!(", {} quarantined", report.quarantined)
            } else {
                String::new()
            },
        ));
        cli::eprint(report.report.summary_table());
    }
    if !report.complete {
        if slice_done {
            cli::eprint(
                "worker slice finished: checkpoints are flushed; \
                 run `icr-campaign merge` over every worker's directory \
                 to assemble the full report \
                 (a worker's own JSON carries \"complete\": false)\n",
            );
        } else if let Some(dir) = dir {
            cli::eprint(format_args!(
                "campaign drained after SIGINT: checkpoints are flushed; \
                 re-run with --checkpoint {dir} --resume to finish \
                 (JSON carries \"complete\": false)\n"
            ));
        }
    }

    let json = if dir.is_some() {
        report.to_json()
    } else {
        report.report.to_json()
    };
    Ok(write_report(&json, json_path.as_deref(), quiet))
}

/// Writes the final JSON report (default stdout) and, unless `quiet`,
/// says where a file went.
fn write_report(json: &str, json_path: Option<&str>, quiet: bool) -> ExitCode {
    let path = json_path.unwrap_or("-");
    let code = cli::write_json(json, path);
    if code == ExitCode::SUCCESS && !quiet && path != "-" {
        cli::eprint(format_args!("\nJSON report written to {path}\n"));
    }
    code
}
