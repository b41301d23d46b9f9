//! Checkpoint-overhead benchmark for the sharded campaign service:
//! time the same campaign shape through the sharded runner with
//! checkpointing off (in-memory only) and on (one digest-verified file
//! per shard), plus a pure resume pass over the completed checkpoint
//! set, and record the overhead (`value`, `checkpoint_overhead_pct`)
//! plus one row per leg to `BENCH_campaign.json` at the repository
//! root; the checkpointed row also carries its `trials_per_s`.
//!
//! ```text
//! make bench-campaign      # or: cargo bench -p icr-bench --bench campaign
//! ```
//!
//! Crash safety must be close to free or nobody leaves it on, so the
//! bench asserts the checkpointing leg stays within 5% of the
//! in-memory leg — the durability budget is checked every time this
//! target runs, with the recorded numbers making the margin visible in
//! review.
//!
//! Not a criterion target: the execution engine memoizes completed
//! cells process-wide, so repeated iterations of one campaign would
//! time the cache, not the work. Instead each repetition uses a fresh
//! master seed per leg (cold by construction), the legs of one
//! repetition run back to back so host noise hits them alike, and each
//! leg's best-of-3 minimum is recorded.

use icr_bench::{finish, Record, ScratchDir};
use icr_core::Scheme;
use icr_sim::json::{count, number, obj, text};
use icr_sim::{run_sharded_campaign, CampaignSpec, ShardedCampaignSpec};
use std::time::Instant;

const REPS: usize = 3;
const TRIALS_PER_CELL: u64 = 300;
const SHARD_SIZE: u64 = 50;
const INSTRUCTIONS: u64 = 20_000;
const OVERHEAD_LIMIT_PCT: f64 = 5.0;

/// One campaign shape per (leg, repetition), distinguished only by the
/// master seed: every leg must execute cold, and the engine memoizes on
/// the full configuration — seed included — so distinct seeds are what
/// keep the second leg from replaying the first leg's cache.
fn spec(master_seed: u64) -> ShardedCampaignSpec {
    let mut base = CampaignSpec::new(
        vec![Scheme::BASE_P, Scheme::ICR_P_PS_S],
        vec!["gzip".into(), "gcc".into()],
        TRIALS_PER_CELL,
        master_seed,
    );
    base.instructions = INSTRUCTIONS;
    ShardedCampaignSpec::new(base, SHARD_SIZE)
}

fn main() {
    let scratch = ScratchDir::new("campaign").expect("bench scratch dir");

    let total_trials =
        TRIALS_PER_CELL * spec(0).base.schemes.len() as u64 * spec(0).base.apps.len() as u64;
    let mut plain_s = f64::INFINITY;
    let mut ckpt_s = f64::INFINITY;
    let mut resume_s = f64::INFINITY;

    for rep in 0..REPS as u64 {
        // Leg 1: the sharded runner with no checkpoint directory — all
        // the shard machinery, none of the I/O. This is the baseline the
        // durability cost is measured against.
        let t = Instant::now();
        let report = run_sharded_campaign(&spec(1_000 + rep), None, false).expect("in-memory leg");
        plain_s = plain_s.min(t.elapsed().as_secs_f64());
        assert!(report.complete);

        // Leg 2: identical shape, one digest-verified checkpoint file
        // (write + fsync + rename + dir fsync) per completed shard.
        let dir = scratch.path().join(format!("rep{rep}"));
        let t = Instant::now();
        let report =
            run_sharded_campaign(&spec(2_000 + rep), Some(&dir), false).expect("checkpointed leg");
        ckpt_s = ckpt_s.min(t.elapsed().as_secs_f64());
        assert!(report.complete);
        let shards = report.shards_done;

        // Leg 3: resume over the finished set — every shard read back,
        // digest-verified, and skipped. The crash-recovery fast path.
        let t = Instant::now();
        let report =
            run_sharded_campaign(&spec(2_000 + rep), Some(&dir), true).expect("resume leg");
        resume_s = resume_s.min(t.elapsed().as_secs_f64());
        assert!(report.complete && report.shards_resumed == shards && report.quarantined == 0);
    }

    let overhead_pct = (ckpt_s - plain_s) / plain_s * 100.0;
    let trials_per_s = total_trials as f64 / ckpt_s;
    println!(
        "{total_trials} trials × {INSTRUCTIONS} insts, shards of {SHARD_SIZE}/cell (best of {REPS}):"
    );
    println!("  in-memory    {:>8.3}s", plain_s);
    println!(
        "  checkpointed {:>8.3}s  ({overhead_pct:+.2}% — {trials_per_s:.0} trials/s)",
        ckpt_s
    );
    println!(
        "  resume       {:>8.3}s  (all shards verified + skipped)",
        resume_s
    );

    let record = Record {
        bench: "campaign",
        metric: "checkpoint_overhead_pct",
        value: overhead_pct,
        unit: "%",
        params: obj([
            ("trials", count(total_trials)),
            ("instructions", count(INSTRUCTIONS)),
            ("shard_size", count(SHARD_SIZE)),
        ]),
        rows: vec![
            obj([("leg", text("in_memory")), ("wall_s", number(plain_s))]),
            obj([
                ("leg", text("checkpointed")),
                ("wall_s", number(ckpt_s)),
                ("trials_per_s", number(trials_per_s)),
            ]),
            obj([("leg", text("resume")), ("wall_s", number(resume_s))]),
        ],
    };
    assert!(
        overhead_pct < OVERHEAD_LIMIT_PCT,
        "checkpointing cost {overhead_pct:.2}% of campaign wall time — over the \
         {OVERHEAD_LIMIT_PCT}% durability budget (in-memory {plain_s:.3}s vs \
         checkpointed {ckpt_s:.3}s)"
    );
    assert!(
        resume_s < plain_s,
        "resuming a finished campaign ({resume_s:.3}s) must beat re-running it \
         ({plain_s:.3}s) — checkpoint verification is not earning its keep"
    );
    finish(record);
}
