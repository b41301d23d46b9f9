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
use icr_sim::{run_sim, CheckMode, FaultConfig, ScrubConfig, SimConfig};
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
                eprintln!("--trace-in {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        // The trace file carries its identity; refuse a silent mismatch
        // rather than simulate app A under app B's label.
        if stored.app != app || stored.seed != seed {
            eprintln!(
                "--trace-in {path}: trace is for app {:?} seed {}, \
                 but the command line says app {app:?} seed {seed}",
                stored.app, stored.seed
            );
            return Ok(ExitCode::FAILURE);
        }
        // Nor simulate a trace of another length under this `--insts`.
        // A synthetic trace is exactly its budget long; only an `isa:*`
        // kernel may retire to completion before the budget runs out.
        let held = stored.insts.len() as u64;
        if held > instructions || (held < instructions && !app.starts_with("isa:")) {
            eprintln!(
                "--trace-in {path}: trace holds {held} instructions, \
                 but the command line says --insts {instructions}"
            );
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
            eprintln!("--trace-out {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    }

    if let Some(path) = &json {
        return Ok(cli::write_json(&r.to_json(), path));
    }

    println!(
        "== {} on {} ({} instructions, seed {seed}) ==",
        r.scheme, r.app, instructions
    );
    println!();
    println!("-- core --");
    println!("cycles               : {}", r.pipeline.cycles);
    println!("IPC                  : {:.3}", r.pipeline.ipc());
    println!(
        "branch mispredicts   : {} ({:.2}%)",
        r.pipeline.mispredicts,
        100.0 * r.pipeline.mispredict_rate()
    );
    println!(
        "mean load latency    : {:.2} cycles",
        r.pipeline.mean_load_latency()
    );
    println!();
    println!("-- dL1 --");
    println!(
        "accesses             : {} ({} loads, {} stores)",
        r.icr.cache.accesses(),
        r.icr.cache.read_accesses,
        r.icr.cache.write_accesses
    );
    println!("miss rate            : {:.2}%", 100.0 * r.icr.miss_rate());
    println!("writebacks           : {}", r.icr.writebacks);
    println!();
    println!("-- replication --");
    println!("attempts             : {}", r.icr.replication_attempts);
    println!(
        "ability              : {:.2}%",
        100.0 * r.icr.replication_ability()
    );
    println!("replicas created     : {}", r.icr.replicas_created);
    println!("replica updates      : {}", r.icr.replica_updates);
    println!("replica evictions    : {}", r.icr.replica_evictions);
    println!(
        "loads with replica   : {:.2}%",
        100.0 * r.icr.loads_with_replica()
    );
    println!("misses served by repl: {}", r.icr.misses_served_by_replica);
    if scheme.spills_to_l2() {
        println!();
        println!("-- L2 spill region --");
        println!("spills created       : {}", r.icr.spills_created);
        println!("spill updates        : {}", r.icr.spill_updates);
        println!("spill invalidations  : {}", r.icr.spill_invalidations);
        println!("region evictions     : {}", r.icr.spill_evictions);
        println!("misses served by spi : {}", r.icr.misses_served_by_spill);
        println!("healed from spill    : {}", r.icr.errors_recovered_spill);
    }
    println!();
    println!("-- reliability --");
    println!("faults injected      : {}", r.faults_injected);
    println!("errors detected      : {}", r.icr.errors_detected);
    println!("corrected by ECC     : {}", r.icr.errors_corrected_ecc);
    println!("healed from replica  : {}", r.icr.errors_recovered_replica);
    println!("refetched from L2    : {}", r.icr.errors_recovered_l2);
    println!("scrub heals          : {}", r.icr.scrub_heals);
    println!(
        "unrecoverable loads  : {} ({:.4}% of loads)",
        r.icr.unrecoverable_loads,
        100.0 * r.icr.unrecoverable_load_fraction()
    );
    println!(
        "avg vulnerable words : {:.1} / 2048",
        r.avg_vulnerable_words
    );
    println!();
    println!("-- memory system --");
    println!(
        "L2 accesses          : {} (miss rate {:.2}%)",
        r.l2.accesses(),
        100.0 * r.l2.miss_rate()
    );
    println!("L1I miss rate        : {:.2}%", 100.0 * r.l1i.miss_rate());
    println!(
        "memory reads/writes  : {} / {}",
        r.memory_reads, r.memory_writes
    );
    println!();
    println!("-- energy inputs --");
    println!(
        "L1 reads/writes      : {} / {}",
        r.energy_counts.l1_reads, r.energy_counts.l1_writes
    );
    println!(
        "parity / ECC ops     : {} / {}",
        r.energy_counts.parity_ops, r.energy_counts.ecc_ops
    );
    println!("L2 accesses (energy) : {}", r.energy_counts.l2_accesses);
    Ok(ExitCode::SUCCESS)
}
