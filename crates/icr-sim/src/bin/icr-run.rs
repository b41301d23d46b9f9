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
//! same contract as `icr-campaign` and `icr-exp`.

use icr_core::{DataL1Config, DecayConfig, Scheme, VictimPolicy, WritePolicy};
use icr_fault::ErrorModel;
use icr_sim::json::write_output;
use icr_sim::{run_sim, CheckMode, FaultConfig, ScrubConfig, SimConfig};
use std::process::ExitCode;

fn parse_victim(name: &str) -> Option<VictimPolicy> {
    Some(match name {
        "dead-only" => VictimPolicy::DeadOnly,
        "dead-first" => VictimPolicy::DeadFirst,
        "replica-first" => VictimPolicy::ReplicaFirst,
        "replica-only" => VictimPolicy::ReplicaOnly,
        _ => return None,
    })
}

/// Prints a diagnostic plus the usage text and returns the
/// invalid-invocation exit code (2, in the `getopt` tradition —
/// distinct from runtime failures, which exit 1).
fn fail_usage(diagnostic: &str) -> ExitCode {
    eprintln!("error: {diagnostic}");
    eprintln!(
        "usage: icr-run <app> <scheme> [--insts N] [--seed S] [--window W]\n\
         \x20                [--victim P] [--keep] [--write-through N]\n\
         \x20                [--fault P] [--scrub I] [--check] [--json PATH]\n\
         \x20                [--trace-out PATH] [--trace-in PATH]\n\
         apps: gzip vpr gcc mcf parser mesa vortex art (+ bzip2 twolf crafty gap,\n\
         \x20     execution-driven isa:{{bubble,qsort,matmul,chase,strsearch,lz,checksum}})\n\
         schemes: basep baseecc baseecc-spec icr-{{p,ecc}}-{{ps,pp}}[-l2]-{{s,ls}}"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        return fail_usage("expected <app> and <scheme>");
    }
    let app = args[0].clone();
    // Resolve the workload through the store — the same authority the
    // simulator asks at run time — so execution-driven `isa:*` kernels
    // validate once their source is installed, and a bad name exits 2
    // here instead of aborting (exit 101) deep inside the run.
    icr_isa::install();
    if !icr_trace::store::global().resolvable(&app) {
        return fail_usage(&format!("unknown app {app:?}"));
    }
    let scheme = match args[1].parse::<Scheme>() {
        Ok(s) => s,
        Err(e) => return fail_usage(&e.to_string()),
    };

    let mut dl1 = DataL1Config::paper_default(scheme);
    let mut instructions = 200_000u64;
    let mut seed = 42u64;
    let mut fault_p: Option<f64> = None;
    let mut scrub: Option<ScrubConfig> = None;
    let mut check = false;
    let mut json: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut trace_in: Option<String> = None;

    let mut i = 2;
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
            "--insts" => instructions = take_parsed!("--insts", "a positive integer"),
            "--seed" => seed = take_parsed!("--seed", "an unsigned integer"),
            "--window" => {
                dl1.decay = DecayConfig {
                    window: take_parsed!("--window", "a cycle count"),
                }
            }
            "--victim" => {
                let v = take_value!("--victim");
                let Some(p) = parse_victim(v) else {
                    return fail_usage(&format!("unknown victim policy {v:?}"));
                };
                dl1.victim = p;
            }
            "--keep" => {
                dl1.keep_replicas_on_evict = true;
                i += 1;
            }
            "--write-through" => {
                dl1.write_policy = WritePolicy::WriteThrough {
                    buffer_entries: take_parsed!("--write-through", "a buffer entry count"),
                }
            }
            "--fault" => {
                let p: f64 = take_parsed!("--fault", "a probability");
                if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                    return fail_usage("--fault must be a probability in [0, 1]");
                }
                fault_p = Some(p);
            }
            "--scrub" => {
                scrub = Some(ScrubConfig {
                    interval: take_parsed!("--scrub", "an interval in cycles"),
                    lines_per_step: 16,
                });
            }
            "--check" => {
                check = true;
                i += 1;
            }
            "--json" => {
                json = Some(take_value!("--json").clone());
            }
            "--trace-out" => {
                trace_out = Some(take_value!("--trace-out").clone());
            }
            "--trace-in" => {
                trace_in = Some(take_value!("--trace-in").clone());
            }
            other => return fail_usage(&format!("unknown option {other:?}")),
        }
    }
    if instructions == 0 {
        return fail_usage("--insts must be at least 1");
    }

    if let Some(path) = &trace_in {
        let stored = match icr_trace::disk::read_trace(std::path::Path::new(path)) {
            Ok(stored) => stored,
            Err(e) => {
                eprintln!("--trace-in {path}: {e}");
                return ExitCode::FAILURE;
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
            return ExitCode::FAILURE;
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
            return ExitCode::FAILURE;
        }
        icr_trace::store::global().insert(&app, seed, instructions, stored.insts.into());
    }

    let mut builder = SimConfig::builder(&app, dl1)
        .instructions(instructions)
        .seed(seed);
    // Built after parsing, so the injector seed follows the final
    // `--seed` wherever it appears on the command line.
    if let Some(p) = fault_p {
        builder = builder.fault(FaultConfig {
            model: ErrorModel::Random,
            p_per_cycle: p,
            seed: seed.wrapping_add(1),
            max_faults: None,
        });
    }
    if let Some(scrub) = scrub {
        builder = builder.scrub(scrub);
    }
    if check {
        builder = builder.check(CheckMode::Lockstep);
    }
    let r = run_sim(&builder.build());

    if let Some(path) = &trace_out {
        // run_sim resolved (and memoised) the trace; fetch the same
        // slice back from the store and persist it.
        let trace = icr_trace::store::global().get(&app, seed, instructions);
        if let Err(e) = icr_trace::disk::write_trace(std::path::Path::new(path), &app, seed, &trace)
        {
            eprintln!("--trace-out {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = &json {
        if let Err(e) = write_output(&r.to_json(), path) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
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
    ExitCode::SUCCESS
}
