//! Determinism gates: the same configuration and seed must produce
//! bit-identical results regardless of how many times the run repeats or
//! how many worker threads execute it. Every number the repo reports
//! depends on these invariants.

use icr::core::{DataL1Config, Scheme};
use icr::fault::ErrorModel;
use icr::sim::campaign::{run_campaign, CampaignSpec};
use icr::sim::exec::Pool;
use icr::sim::{run_sim, FaultConfig, SimConfig};

/// A faulty ICR run, debug-formatted: `SimResult` carries every counter
/// the simulator produces, so equal strings mean equal runs.
fn faulty_run(seed: u64) -> String {
    let cfg = SimConfig::builder("gcc", DataL1Config::paper_default(Scheme::ICR_P_PS_S))
        .instructions(20_000)
        .seed(seed)
        .fault(FaultConfig {
            model: ErrorModel::Random,
            p_per_cycle: 1e-4,
            seed: seed ^ 0xD1CE,
            max_faults: None,
        })
        .build();
    format!("{:?}", run_sim(&cfg))
}

#[test]
fn same_config_and_seed_reproduce_the_simulation_exactly() {
    let first = faulty_run(7);
    assert_eq!(first, faulty_run(7), "repeat run diverged");
    assert_ne!(first, faulty_run(8), "seed must actually matter");
}

#[test]
fn parallel_map_is_thread_count_invariant() {
    let items: Vec<u64> = (0..257).collect();
    let expect: Vec<u64> = items.iter().map(|x| x.wrapping_mul(0x9E37) ^ 11).collect();
    for workers in [1, 2, 3, 8] {
        let got = Pool::new(workers).run(items.clone(), |x| x.wrapping_mul(0x9E37) ^ 11);
        assert_eq!(got, expect, "workers={workers} permuted or lost results");
    }
}

/// The campaign acceptance gate: one spec, one master seed → one JSON
/// report, whether it runs on 1 thread, 2 threads, or every core, and
/// however often it is repeated.
#[test]
fn campaign_report_is_bit_identical_across_thread_counts() {
    let mut spec = CampaignSpec::new(
        vec![Scheme::BASE_P, Scheme::ICR_P_PS_S],
        vec!["gzip".into(), "mcf".into()],
        8,
        0xC0FFEE,
    );
    spec.instructions = 4_000;
    spec.batch = 4;

    let json_of = |threads: usize| {
        let mut s = spec.clone();
        s.threads = threads;
        run_campaign(&s).expect("campaign runs").to_json()
    };

    let single = json_of(1);
    assert_eq!(single, json_of(1), "repeat run diverged");
    assert_eq!(single, json_of(2), "2 threads diverged from 1");
    assert_eq!(single, json_of(0), "all cores diverged from 1");
}

/// Early stopping must not break thread-count invariance: stop decisions
/// happen at batch boundaries on merged tallies, which are identical
/// whatever the interleaving.
#[test]
fn early_stopped_campaign_is_still_thread_count_invariant() {
    let mut spec = CampaignSpec::new(vec![Scheme::BASE_ECC], vec!["gzip".into()], 24, 9);
    spec.instructions = 4_000;
    spec.batch = 6;
    spec.target_ci_width = Some(0.9);

    let json_of = |threads: usize| {
        let mut s = spec.clone();
        s.threads = threads;
        run_campaign(&s).expect("campaign runs").to_json()
    };
    let single = json_of(1);
    assert_eq!(single, json_of(2));
    assert_eq!(single, json_of(0));
}
