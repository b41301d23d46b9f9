//! dL1-only vs L2-spill placement benchmark: time one cold simulation
//! of each app under `ICR-P-PS (S)` and under its `ICR-P-PS-L2 (S)`
//! spill descriptor, and record both — wall time plus the spill-region
//! counters — to `BENCH_spill.json` at the repository root.
//!
//! ```text
//! make bench-spill         # or: cargo bench -p icr-bench --bench spill
//! ```
//!
//! `ICR_BENCH_OUT=PATH` writes the record to `PATH` instead, with every
//! assertion unchanged; `make verify` runs it that way so a verification
//! pass leaves the tracked file alone.
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
//! Not a criterion target: single cold passes measured with plain
//! [`Instant`], file format mirroring `BENCH_isa.json` (label from
//! `ICR_BENCH_LABEL` or the git short hash).

use icr_core::{DataL1Config, Scheme};
use icr_sim::json::{esc, num};
use icr_sim::{run_sim, SimConfig};
use std::time::Instant;

fn label() -> String {
    if let Ok(l) = std::env::var("ICR_BENCH_LABEL") {
        return l;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "local".into())
}

const SEED: u64 = 42;
const INSTRUCTIONS: u64 = 100_000;
const APPS: [&str; 3] = ["gzip", "vpr", "mcf"];

/// Runs `f` three times and returns (best wall-clock seconds, last
/// result): the minimum is the standard noise-resistant estimate for a
/// short single-pass measurement.
fn best_of_3<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..3 {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("ran at least once"))
}

fn time_cell(scheme: Scheme, app: &str) -> (f64, icr_sim::SimResult) {
    let cfg = SimConfig::paper(app, DataL1Config::paper_default(scheme), INSTRUCTIONS, SEED);
    best_of_3(|| run_sim(&cfg))
}

fn main() {
    let path = std::env::var("ICR_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_spill.json").to_string()
    });

    let mut rows = Vec::new();
    let mut total_dl1 = 0.0f64;
    let mut total_spill = 0.0f64;
    let mut spills_created = 0u64;
    let mut lifecycle = 0u64;
    for app in APPS {
        let (dl1_s, _) = time_cell(Scheme::ICR_P_PS_S, app);
        let (spill_s, r) = time_cell(Scheme::ICR_P_PS_S_L2, app);
        println!(
            "{app:<8} dL1-only {:>8.3}ms  spill {:>8.3}ms  \
             (spills {}, served {}, invalidated {}, evicted {})",
            dl1_s * 1e3,
            spill_s * 1e3,
            r.icr.spills_created,
            r.icr.misses_served_by_spill,
            r.icr.spill_invalidations,
            r.icr.spill_evictions,
        );
        total_dl1 += dl1_s;
        total_spill += spill_s;
        spills_created += r.icr.spills_created;
        lifecycle += r.icr.spill_updates
            + r.icr.spill_invalidations
            + r.icr.spill_evictions
            + r.icr.misses_served_by_spill;
        rows.push(format!(
            "{{\"app\":{},\"dl1_only_s\":{},\"spill_s\":{},\"spills_created\":{},\
             \"spill_updates\":{},\"spill_invalidations\":{},\"spill_evictions\":{},\
             \"misses_served_by_spill\":{}}}",
            esc(app),
            num(dl1_s),
            num(spill_s),
            r.icr.spills_created,
            r.icr.spill_updates,
            r.icr.spill_invalidations,
            r.icr.spill_evictions,
            r.icr.misses_served_by_spill,
        ));
    }

    let json = format!(
        "{{\"bench\":\"spill\",\"label\":{},\"seed\":{SEED},\"instructions\":{INSTRUCTIONS},\
         \"total_dl1_only_s\":{},\"total_spill_s\":{},\"apps\":[{}]}}",
        esc(&label()),
        num(total_dl1),
        num(total_spill),
        rows.join(","),
    );
    std::fs::write(&path, format!("{json}\n")).expect("write the spill record");
    println!(
        "total: dL1-only {:.3}ms, spill {:.3}ms ({:.2}x) -> {path}",
        total_dl1 * 1e3,
        total_spill * 1e3,
        total_spill / total_dl1.max(1e-12)
    );

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
}
