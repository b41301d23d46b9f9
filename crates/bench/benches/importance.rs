//! Trials-to-target benchmark for importance-sampled fault injection:
//! run the same campaign matrix to the same Wilson 95% CI width twice —
//! uniform injection vs the exposure-tilted proposal — and record the
//! overall trial ratio (`value`, `overall_speedup`) plus the trials
//! each cell needed in `BENCH_importance.json` at the repository root.
//!
//! ```text
//! make bench-importance    # or: cargo bench -p icr-bench --bench importance
//! ```
//!
//! The bench runs at a *physical* per-cycle fault probability
//! ([`P_PER_CYCLE`], of order one arrival per several runs) rather than
//! the campaign default that compresses every arrival into the first
//! cycles. In that regime the uniform leg spends most trials delivering
//! no fault at all, while the importance leg forces each trial's
//! arrival from the exact conditional-on-delivery distribution
//! (likelihood ratio 1) and tilts the strike toward strike-worthy
//! lines. The estimator must earn its complexity: the bench asserts the
//! importance leg reaches the target width in at least
//! [`SPEEDUP_GATE`]× fewer trials on at least half the cells. The
//! matrix is parity schemes only — an ECC cell's failure probability is
//! driven by double strikes the single-fault model never injects, its
//! weights are ≡ 1, and it would dilute the comparison without testing
//! anything.
//!
//! Not a criterion target, for the same reason as the campaign bench:
//! the execution engine memoizes completed cells process-wide, so each
//! repetition uses fresh master seeds and the per-cell trial counts are
//! summed across repetitions before the speedup is formed.

use icr_bench::{finish, Record};
use icr_core::Scheme;
use icr_sim::json::{count, number, obj, text};
use icr_sim::{run_campaign, CampaignSpec};

const REPS: u64 = 3;
const TRIAL_CAP: u64 = 2_500;
const BATCH: u64 = 20;
const INSTRUCTIONS: u64 = 3_000;
/// Physical per-cycle arrival probability: the fault-free runs here
/// take ~12k cycles, so a trial delivers its fault with probability
/// `1 - (1-p)^C ≈ 0.26` — the regime forced injection is for.
const P_PER_CYCLE: f64 = 2.5e-5;
const TARGET_CI_WIDTH: f64 = 0.06;
const SPEEDUP_GATE: f64 = 3.0;

/// One campaign per (leg, repetition): both legs of a repetition share
/// a master seed (same workloads, same estimand — the importance leg
/// changes only where and when each fault lands, and weighs the
/// difference), and repetitions use fresh seeds so the memoizing
/// engine executes every leg cold.
fn spec(master_seed: u64, importance: bool) -> CampaignSpec {
    let mut spec = CampaignSpec::new(
        vec![Scheme::ICR_P_PS_S, Scheme::ICR_P_PS_LS],
        vec!["gzip".into(), "gcc".into()],
        TRIAL_CAP,
        master_seed,
    );
    spec.instructions = INSTRUCTIONS;
    spec.batch = BATCH;
    spec.p_per_cycle = P_PER_CYCLE;
    spec.target_ci_width = Some(TARGET_CI_WIDTH);
    spec.importance = importance;
    spec
}

fn main() {
    // Per-cell trial totals across repetitions, cells in report order.
    let mut cell_names: Vec<String> = Vec::new();
    let mut uniform_trials: Vec<u64> = Vec::new();
    let mut importance_trials: Vec<u64> = Vec::new();

    for rep in 0..REPS {
        let seed = 1_000 + rep;
        let uni = run_campaign(&spec(seed, false)).expect("uniform leg");
        let imp = run_campaign(&spec(seed, true)).expect("importance leg");
        assert_eq!(uni.cells.len(), imp.cells.len());
        if rep == 0 {
            for c in &uni.cells {
                cell_names.push(format!("{} × {}", c.scheme.name(), c.app));
            }
            uniform_trials = vec![0; uni.cells.len()];
            importance_trials = vec![0; imp.cells.len()];
        }
        for (i, (u, w)) in uni.cells.iter().zip(&imp.cells).enumerate() {
            assert_eq!((u.scheme, &u.app), (w.scheme, &w.app));
            assert!(
                u.stopped_early && w.stopped_early,
                "{}: raise TRIAL_CAP — a leg hit the cap before the target width",
                cell_names[i]
            );
            uniform_trials[i] += u.trials;
            importance_trials[i] += w.trials;
        }
    }

    let mut rows = Vec::new();
    let mut winners = 0usize;
    println!(
        "trials to a {TARGET_CI_WIDTH} Wilson width ({INSTRUCTIONS} insts, \
         batch {BATCH}, summed over {REPS} seeds):"
    );
    for (i, name) in cell_names.iter().enumerate() {
        let speedup = uniform_trials[i] as f64 / importance_trials[i] as f64;
        if speedup >= SPEEDUP_GATE {
            winners += 1;
        }
        println!(
            "  {name:<24} uniform {:>6}  importance {:>6}  ({speedup:.2}x)",
            uniform_trials[i], importance_trials[i]
        );
        rows.push(obj([
            ("cell", text(name)),
            ("uniform_trials", count(uniform_trials[i])),
            ("importance_trials", count(importance_trials[i])),
            ("speedup", number(speedup)),
        ]));
    }
    let total_speedup: f64 =
        uniform_trials.iter().sum::<u64>() as f64 / importance_trials.iter().sum::<u64>() as f64;
    println!(
        "  overall: {total_speedup:.2}x fewer trials, {winners}/{} cells ≥ {SPEEDUP_GATE}x",
        cell_names.len()
    );

    let record = Record {
        bench: "importance",
        metric: "overall_speedup",
        value: total_speedup,
        unit: "x",
        params: obj([
            ("target_ci_width", number(TARGET_CI_WIDTH)),
            ("instructions", count(INSTRUCTIONS)),
            ("batch", count(BATCH)),
            ("reps", count(REPS)),
            ("speedup_gate", number(SPEEDUP_GATE)),
        ]),
        rows,
    };
    assert!(
        winners * 2 >= cell_names.len(),
        "importance sampling reached the target width {SPEEDUP_GATE}x faster on only \
         {winners} of {} cells — the proposal is not earning its weights",
        cell_names.len()
    );
    finish(record);
}
