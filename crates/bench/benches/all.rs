//! Full-matrix benchmark: regenerate every figure cold (empty run cache
//! and workload store) through the figure-granularity pipeline, and
//! record the total wall-clock (`value`, `total_cold_s`) plus one row
//! per figure to `BENCH_all.json` at the repository root.
//!
//! ```text
//! make bench-all           # or: cargo bench -p icr-bench --bench all
//! make bench-all-gate      # the same run, gated first
//! ```
//!
//! The file is tracked: each PR refreshes it, and its `history` carries
//! the cold-time trajectory forward. With `ICR_BENCH_GATE` set, the run
//! compares its total with the committed `value`, fails if it is more
//! than [`icr_bench::GATE_PCT`] percent slower, and writes nothing either
//! way, so a passing gate cannot move its own baseline. This is the CI
//! regression gate.
//!
//! Not a criterion target: the interesting quantity is one *cold* pass,
//! which repeated iterations would erase (every iteration after the
//! first would be served by the run cache). Per-figure times are
//! measured inside the pipelined scheduler, so a figure whose cells
//! were memoized by an earlier figure is credited with its warm
//! (near-zero) cost — exactly what the end-to-end `icr-exp all` run
//! pays.

use icr_bench::{check, cold_time_gate, finish, Record};
use icr_sim::exec::Pool;
use icr_sim::experiment::{figure_runners, ExpOptions};
use icr_sim::json::{count, number, obj, text};
use std::time::Instant;

fn main() {
    let opts = ExpOptions {
        instructions: 200_000,
        seed: 42,
        threads: 0,
    };
    let runners = figure_runners();
    let ids: Vec<&'static str> = runners.iter().map(|(id, _)| *id).collect();
    let mut elapsed = vec![0.0f64; runners.len()];

    let t = Instant::now();
    let results = Pool::new(opts.threads).run_observed(
        runners,
        |(_, f)| f(&opts),
        |p| elapsed[p.index] = p.elapsed.as_secs_f64(),
    );
    let total_s = t.elapsed().as_secs_f64();
    assert_eq!(results.len(), ids.len());

    let mut slowest: Vec<(&str, f64)> = ids.iter().copied().zip(elapsed.iter().copied()).collect();
    slowest.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top: Vec<String> = slowest
        .iter()
        .take(3)
        .map(|(id, s)| format!("{id} {s:.2}s"))
        .collect();
    println!(
        "all figures cold in {total_s:.2}s (slowest: {})",
        top.join(", ")
    );

    if std::env::var_os("ICR_BENCH_GATE").is_some() {
        check("all", |baseline| cold_time_gate(total_s, baseline));
        return;
    }
    finish(Record {
        bench: "all",
        metric: "total_cold_s",
        value: total_s,
        unit: "s",
        params: obj([
            ("instructions", count(opts.instructions)),
            ("threads", count(Pool::new(opts.threads).threads() as u64)),
        ]),
        rows: ids
            .iter()
            .zip(&elapsed)
            .map(|(id, s)| obj([("id", text(id)), ("cold_s", number(*s))]))
            .collect(),
    });
}
