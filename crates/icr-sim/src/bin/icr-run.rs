//! `icr-run` — run one simulation and print the full report.
//!
//! ```text
//! icr-run <app> <scheme> [options]
//!
//! schemes: basep, baseecc, baseecc-spec, and the descriptor presets
//!          icr-{p,ecc}-{ps,pp}[-l2]-{s,ls} (the `-l2` variants spill
//!          replicas that find no dead dL1 block into the L2 region)
//!
//! options:
//!   --insts N          instructions to simulate      (default 200000)
//!   --seed S           workload seed                 (default 42)
//!   --window W         decay window in cycles        (default 1000)
//!   --victim P         dead-only|dead-first|replica-first|replica-only
//!   --keep             leave replicas on primary eviction (§5.6)
//!   --write-through N  write-through dL1 with an N-entry buffer (§5.8)
//!   --fault P          random-model fault probability per cycle
//!   --scrub I          scrub 16 lines every I cycles
//!   --check            diff every dL1 access against the icr-check
//!                      reference model (fault-free runs only)
//!   --json PATH        emit the result as JSON to PATH ('-' = stdout)
//!   --trace-out PATH   save the workload trace this run consumed in the
//!                      icr-trace disk format (.icrt)
//!   --trace-in PATH    replay a saved .icrt trace instead of generating
//!                      or interpreting the workload; the file's app,
//!                      seed and length must match the command line (an
//!                      isa:* kernel's file may be shorter than --insts)
//! ```
//!
//! Invalid command-line input exits with code 2 and a diagnostic;
//! runtime failures (e.g. an unreadable trace file) exit with 1 — the
//! contract `icr_sim::cli` gives all three binaries.

use icr_core::{DataL1Config, DecayConfig, Scheme, WritePolicy};
use icr_fault::ErrorModel;
use icr_sim::cli::{self, Usage};
use icr_sim::{run_sim, CheckMode, FaultConfig, ScrubConfig, SimConfig, SimResult};
use std::fmt;
use std::process::ExitCode;

const USAGE: &str = "\
usage: icr-run <app> <scheme> [--insts N] [--seed S] [--window W]
                 [--victim P] [--keep] [--write-through N]
                 [--fault P] [--scrub I] [--check] [--json PATH]
                 [--trace-out PATH] [--trace-in PATH]
apps: gzip vpr gcc mcf parser mesa vortex art (+ bzip2 twolf crafty gap,
      execution-driven isa:{bubble,qsort,matmul,chase,strsearch,lz,checksum})
schemes: basep baseecc baseecc-spec icr-{p,ecc}-{ps,pp}[-l2]-{s,ls}";

fn main() -> ExitCode {
    run(std::env::args().skip(1)).unwrap_or_else(|e| cli::usage_error(USAGE, e))
}

fn run(mut args: impl Iterator<Item = String>) -> Result<ExitCode, Usage> {
    let (Some(app), Some(scheme)) = (args.next(), args.next()) else {
        return Err(Usage("expected <app> and <scheme>".into()));
    };
    cli::check_apps(&[&app])?;
    let scheme: Scheme = cli::parse_name(&scheme)?;

    let mut cfg = SimConfig::builder(&app, DataL1Config::paper_default(scheme)).build();
    let mut fault_p: Option<f64> = None;
    let mut json: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut trace_in: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--insts" => cfg.instructions = cli::count(&mut args, "--insts")?,
            "--seed" => cfg.seed = cli::parsed(&mut args, "--seed", "an unsigned integer")?,
            "--window" => {
                cfg.dl1.decay = DecayConfig {
                    window: cli::parsed(&mut args, "--window", "a cycle count")?,
                }
            }
            "--victim" => cfg.dl1.victim = cli::name(&mut args, "--victim")?,
            "--keep" => cfg.dl1.keep_replicas_on_evict = true,
            "--write-through" => {
                cfg.dl1.write_policy = WritePolicy::WriteThrough {
                    buffer_entries: cli::parsed(
                        &mut args,
                        "--write-through",
                        "a buffer entry count",
                    )?,
                }
            }
            "--fault" => fault_p = Some(cli::probability(&mut args, "--fault")?),
            "--scrub" => {
                cfg.scrub = Some(ScrubConfig {
                    interval: cli::parsed(&mut args, "--scrub", "an interval in cycles")?,
                    lines_per_step: 16,
                })
            }
            "--check" => cfg.check = CheckMode::Lockstep,
            "--json" => json = Some(cli::value(&mut args, "--json")?),
            "--trace-out" => trace_out = Some(cli::value(&mut args, "--trace-out")?),
            "--trace-in" => trace_in = Some(cli::value(&mut args, "--trace-in")?),
            other => return Err(cli::unknown_option(other)),
        }
    }
    // Built after parsing, so the injector seed follows the final
    // `--seed` wherever it appears on the command line.
    cfg.fault = fault_p.map(|p| FaultConfig {
        model: ErrorModel::Random,
        p_per_cycle: p,
        seed: cfg.seed.wrapping_add(1),
        max_faults: None,
    });
    cfg.validate().map_err(Usage)?;
    let (instructions, seed) = (cfg.instructions, cfg.seed);

    if let Some(path) = &trace_in {
        let stored = match icr_trace::disk::read_trace(std::path::Path::new(path)) {
            Ok(stored) => stored,
            Err(e) => {
                cli::eprint(format_args!("--trace-in {path}: {e}\n"));
                return Ok(ExitCode::FAILURE);
            }
        };
        // The trace file carries its identity; refuse a silent mismatch
        // rather than simulate app A under app B's label.
        if stored.app != app || stored.seed != seed {
            cli::eprint(format_args!(
                "--trace-in {path}: trace is for app {:?} seed {}, \
                 but the command line says app {app:?} seed {seed}\n",
                stored.app, stored.seed
            ));
            return Ok(ExitCode::FAILURE);
        }
        // Nor simulate a trace of another length under this `--insts`.
        // A synthetic trace is exactly its budget long; only an `isa:*`
        // kernel may retire to completion before the budget runs out.
        let held = stored.insts.len() as u64;
        if held > instructions || (held < instructions && !app.starts_with("isa:")) {
            cli::eprint(format_args!(
                "--trace-in {path}: trace holds {held} instructions, \
                 but the command line says --insts {instructions}\n"
            ));
            return Ok(ExitCode::FAILURE);
        }
        icr_trace::store::global().insert(&app, seed, instructions, stored.insts.into());
    }

    let r = run_sim(&cfg);

    if let Some(path) = &trace_out {
        // run_sim resolved (and memoised) the trace; fetch the same
        // slice back from the store and persist it.
        let trace = icr_trace::store::global().get(&app, seed, instructions);
        if let Err(e) = icr_trace::disk::write_trace(std::path::Path::new(path), &app, seed, &trace)
        {
            cli::eprint(format_args!("--trace-out {path}: {e}\n"));
            return Ok(ExitCode::FAILURE);
        }
    }

    if let Some(path) = &json {
        return Ok(cli::write_json(&r.to_json(), path));
    }

    Ok(cli::print(fmt::from_fn(|f| {
        text_report(f, &r, scheme, instructions, seed)
    })))
}

/// The text report: the run's counters, section by section (the
/// sections of `SimResult::to_json`, plus the L2 spill region's for a
/// spilling scheme).
fn text_report(
    f: &mut fmt::Formatter<'_>,
    r: &SimResult,
    scheme: Scheme,
    instructions: u64,
    seed: u64,
) -> fmt::Result {
    let (p, i, e) = (&r.pipeline, &r.icr, &r.energy_counts);
    writeln!(
        f,
        "== {} on {} ({} instructions, seed {seed}) ==",
        r.scheme, r.app, instructions
    )?;
    writeln!(f, "\n-- core --")?;
    writeln!(f, "cycles               : {}", p.cycles)?;
    writeln!(f, "IPC                  : {:.3}", p.ipc())?;
    writeln!(
        f,
        "branch mispredicts   : {} ({:.2}%)",
        p.mispredicts,
        100.0 * p.mispredict_rate()
    )?;
    writeln!(
        f,
        "mean load latency    : {:.2} cycles",
        p.mean_load_latency()
    )?;
    writeln!(f, "\n-- dL1 --")?;
    writeln!(
        f,
        "accesses             : {} ({} loads, {} stores)",
        i.cache.accesses(),
        i.cache.read_accesses,
        i.cache.write_accesses
    )?;
    writeln!(f, "miss rate            : {:.2}%", 100.0 * i.miss_rate())?;
    writeln!(f, "writebacks           : {}", i.writebacks)?;
    writeln!(f, "\n-- replication --")?;
    writeln!(f, "attempts             : {}", i.replication_attempts)?;
    writeln!(
        f,
        "ability              : {:.2}%",
        100.0 * i.replication_ability()
    )?;
    writeln!(f, "replicas created     : {}", i.replicas_created)?;
    writeln!(f, "replica updates      : {}", i.replica_updates)?;
    writeln!(f, "replica evictions    : {}", i.replica_evictions)?;
    writeln!(
        f,
        "loads with replica   : {:.2}%",
        100.0 * i.loads_with_replica()
    )?;
    writeln!(f, "misses served by repl: {}", i.misses_served_by_replica)?;
    if scheme.spills_to_l2() {
        writeln!(f, "\n-- L2 spill region --")?;
        writeln!(f, "spills created       : {}", i.spills_created)?;
        writeln!(f, "spill updates        : {}", i.spill_updates)?;
        writeln!(f, "spill invalidations  : {}", i.spill_invalidations)?;
        writeln!(f, "region evictions     : {}", i.spill_evictions)?;
        writeln!(f, "misses served by spi : {}", i.misses_served_by_spill)?;
        writeln!(f, "healed from spill    : {}", i.errors_recovered_spill)?;
    }
    writeln!(f, "\n-- reliability --")?;
    writeln!(f, "faults injected      : {}", r.faults_injected)?;
    writeln!(f, "errors detected      : {}", i.errors_detected)?;
    writeln!(f, "corrected by ECC     : {}", i.errors_corrected_ecc)?;
    writeln!(f, "healed from replica  : {}", i.errors_recovered_replica)?;
    writeln!(f, "refetched from L2    : {}", i.errors_recovered_l2)?;
    writeln!(f, "scrub heals          : {}", i.scrub_heals)?;
    writeln!(
        f,
        "unrecoverable loads  : {} ({:.4}% of loads)",
        i.unrecoverable_loads,
        100.0 * i.unrecoverable_load_fraction()
    )?;
    writeln!(
        f,
        "avg vulnerable words : {:.1} / 2048",
        r.avg_vulnerable_words
    )?;
    writeln!(f, "\n-- memory system --")?;
    writeln!(
        f,
        "L2 accesses          : {} (miss rate {:.2}%)",
        r.l2.accesses(),
        100.0 * r.l2.miss_rate()
    )?;
    writeln!(
        f,
        "L1I miss rate        : {:.2}%",
        100.0 * r.l1i.miss_rate()
    )?;
    writeln!(
        f,
        "memory reads/writes  : {} / {}",
        r.memory_reads, r.memory_writes
    )?;
    writeln!(f, "\n-- energy inputs --")?;
    writeln!(f, "L1 reads/writes      : {} / {}", e.l1_reads, e.l1_writes)?;
    writeln!(f, "parity / ECC ops     : {} / {}", e.parity_ops, e.ecc_ops)?;
    writeln!(f, "L2 accesses (energy) : {}", e.l2_accesses)?;
    Ok(())
}
