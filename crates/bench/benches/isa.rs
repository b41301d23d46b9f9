//! Interpret-vs-replay benchmark for the execution-driven ISA kernels:
//! time one cold interpretation of each kernel against one replay of its
//! saved `.icrt` trace, and record the total replay/interpret time
//! ratio (`value`) plus one row per kernel to `BENCH_isa.json` at the
//! repository root.
//!
//! ```text
//! make bench-isa           # or: cargo bench -p icr-bench --bench isa
//! ```
//!
//! Replay is the whole point of the on-disk trace cache: the second and
//! later simulations of a kernel should pay a decode-and-validate pass,
//! not a full RV32IM interpretation. The bench asserts that the total
//! replay time beats the total interpret time, so the cache earning its
//! keep is checked every time this target runs — alongside the recorded
//! numbers, which make the margin visible in review.
//!
//! Not a criterion target: the interesting quantities are single cold
//! passes over each kernel, measured as the best of three.

use icr_bench::{best_of, finish, Record, ScratchDir};
use icr_sim::json::{count, number, obj, text};
use icr_trace::disk;

const SEED: u64 = 42;

fn main() {
    let scratch = ScratchDir::new("isa").expect("bench scratch dir");

    let mut rows = Vec::new();
    let mut total_interp = 0.0f64;
    let mut total_replay = 0.0f64;
    for name in icr_isa::kernels::kernel_names() {
        let (interp_s, (trace, retired, _)) = best_of(3, || icr_isa::run_kernel(name, SEED));

        let file = scratch.path().join(name.replace("isa:", "") + ".icrt");
        disk::write_trace(&file, name, SEED, &trace).expect("trace writes");

        let (replay_s, stored) = best_of(3, || disk::read_trace(&file).expect("trace replays"));
        assert_eq!(stored.insts, trace, "{name}: replay must be exact");

        let bytes = std::fs::metadata(&file).expect("trace file").len();
        println!(
            "{name:<14} {retired:>7} insts  interpret {:>8.3}ms  replay {:>8.3}ms  ({bytes} bytes, {:.2} B/inst)",
            interp_s * 1e3,
            replay_s * 1e3,
            bytes as f64 / retired.max(1) as f64
        );
        total_interp += interp_s;
        total_replay += replay_s;
        rows.push(obj([
            ("app", text(name)),
            ("retired", count(retired)),
            ("interpret_s", number(interp_s)),
            ("replay_s", number(replay_s)),
            ("trace_bytes", count(bytes)),
        ]));
    }

    println!(
        "total: interpret {:.3}ms, replay {:.3}ms ({:.1}x)",
        total_interp * 1e3,
        total_replay * 1e3,
        total_interp / total_replay.max(1e-12)
    );

    let record = Record {
        bench: "isa",
        metric: "replay_to_interpret_time",
        value: total_replay / total_interp,
        unit: "x",
        params: obj([("seed", count(SEED))]),
        rows,
    };
    assert!(
        total_replay < total_interp,
        "replaying stored traces ({total_replay:.4}s) must beat re-interpreting \
         ({total_interp:.4}s) — the disk cache is not earning its keep"
    );
    finish(record, |_| Ok(()));
}
