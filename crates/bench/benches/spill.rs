//! dL1-only vs L2-spill placement benchmark: time one cold simulation
//! of each app under `ICR-P-PS (S)` and under its `ICR-P-PS-L2 (S)`
//! spill descriptor, and record the total spill/dL1-only time ratio
//! (`value`) plus one row per app — wall times and the spill-region
//! counters — to `BENCH_spill.json` at the repository root.
//!
//! ```text
//! make bench-spill         # or: cargo bench -p icr-bench --bench spill
//! ```
//!
//! `make verify` runs it as `bench-spill-check`, with `ICR_BENCH_OUT`
//! pointing under `target/` and every assertion unchanged, so a
//! verification pass leaves the tracked file alone.
//!
//! The spill tier buys replica coverage for blocks the dL1 has no dead
//! way for, at the cost of region bookkeeping on replication, writeback
//! and eviction. This bench makes both sides of that trade visible in
//! review: the recorded rows carry the region counters (the coverage
//! side) next to the per-app seconds (the cost side), and two
//! assertions keep the trade honest — the region must actually cycle
//! replicas through its lifecycle (created, then updated / promoted /
//! invalidated), and the bookkeeping must not blow up the simulation
//! (total spill wall time under 2x dL1-only). Fault-free serve counts
//! (`misses_served_by_spill`) are recorded but not asserted: on the
//! synthetic traces spilled blocks are almost always promoted into a
//! dL1 dead way or invalidated by a writeback before their primary is
//! re-missed, exactly like the dL1 replicas' own victim path.
//!
//! Not a criterion target: single cold passes, measured as the best of
//! three.

use icr_bench::{best_of, finish, Record};
use icr_core::{DataL1Config, Scheme};
use icr_sim::json::{count, number, obj, text};
use icr_sim::{run_sim, SimConfig, SimResult};

const SEED: u64 = 42;
const INSTRUCTIONS: u64 = 100_000;
const APPS: [&str; 3] = ["gzip", "vpr", "mcf"];

fn time_cell(scheme: Scheme, app: &str) -> (f64, SimResult) {
    let cfg = SimConfig::paper(app, DataL1Config::paper_default(scheme), INSTRUCTIONS, SEED);
    best_of(3, || run_sim(&cfg))
}

fn main() {
    let mut rows = Vec::new();
    let mut total_dl1 = 0.0f64;
    let mut total_spill = 0.0f64;
    let mut spills_created = 0u64;
    let mut lifecycle = 0u64;
    for app in APPS {
        let (dl1_s, _) = time_cell(Scheme::ICR_P_PS_S, app);
        let (spill_s, SimResult { icr, .. }) = time_cell(Scheme::ICR_P_PS_S_L2, app);
        println!(
            "{app:<8} dL1-only {:>8.3}ms  spill {:>8.3}ms  \
             (spills {}, served {}, invalidated {}, evicted {})",
            dl1_s * 1e3,
            spill_s * 1e3,
            icr.spills_created,
            icr.misses_served_by_spill,
            icr.spill_invalidations,
            icr.spill_evictions,
        );
        total_dl1 += dl1_s;
        total_spill += spill_s;
        spills_created += icr.spills_created;
        lifecycle += icr.spill_updates
            + icr.spill_invalidations
            + icr.spill_evictions
            + icr.misses_served_by_spill;
        rows.push(obj([
            ("app", text(app)),
            ("dl1_only_s", number(dl1_s)),
            ("spill_s", number(spill_s)),
            ("spills_created", count(icr.spills_created)),
            ("spill_updates", count(icr.spill_updates)),
            ("spill_invalidations", count(icr.spill_invalidations)),
            ("spill_evictions", count(icr.spill_evictions)),
            ("misses_served_by_spill", count(icr.misses_served_by_spill)),
        ]));
    }

    println!(
        "total: dL1-only {:.3}ms, spill {:.3}ms ({:.2}x)",
        total_dl1 * 1e3,
        total_spill * 1e3,
        total_spill / total_dl1.max(1e-12)
    );

    let record = Record {
        bench: "spill",
        metric: "spill_to_dl1_only_time",
        value: total_spill / total_dl1,
        unit: "x",
        params: obj([("seed", count(SEED)), ("instructions", count(INSTRUCTIONS))]),
        rows,
    };
    assert!(
        spills_created > 0 && lifecycle > 0,
        "the L2 replica region must see traffic (spilled {spills_created}, \
         lifecycle events {lifecycle}) — otherwise the placement tier is dead code"
    );
    assert!(
        total_spill < 2.0 * total_dl1,
        "spill-region bookkeeping ({total_spill:.4}s) must stay under 2x the \
         dL1-only run ({total_dl1:.4}s)"
    );
    finish(record, |_| Ok(()));
}
