//! Byte-level pin of the plain (in-memory) campaign report. Plain
//! campaigns run through the same shard loop as checkpointed ones, with
//! the batch size as the shard size; these digests were recorded from
//! the earlier batch-round engine, so a uniform report — with and
//! without early stopping — must keep exactly those bytes.
//!
//! The checkpoint fingerprint is pinned here too: checkpoint headers
//! carry it, so a value that moves orphans every existing checkpoint.
//! So are the layouts only importance sampling and fan-out produce: an
//! importance-sampled plain report, and one worker's checkpointed
//! report (with its `"worker"` member and `"complete": false`) and
//! shard file.
//!
//! Regenerate (only when a change *deliberately* alters campaign output)
//! with:
//!
//! ```text
//! cargo test -p icr-sim --test golden_campaign --release -- \
//!     --ignored record_golden_campaign_digests --nocapture
//! ```

use icr_core::Scheme;
use icr_sim::checkpoint::{fnv1a64, ShardCheckpoint};
use icr_sim::{run_campaign, run_sharded_campaign, CampaignSpec, ShardedCampaignSpec};

/// A small uniform campaign: 2 schemes × 2 apps, 12 trials per cell in
/// batches of 4, short enough for debug-mode tier-1.
fn spec(target_ci_width: Option<f64>) -> CampaignSpec {
    let mut spec = CampaignSpec::new(
        vec![Scheme::BASE_P, Scheme::ICR_P_PS_S],
        vec!["gzip".into(), "mcf".into()],
        12,
        42,
    );
    spec.instructions = 3_000;
    spec.batch = 4;
    spec.target_ci_width = target_ci_width;
    spec
}

/// The early-stopping width: wide enough that some cells stop before
/// their budget, narrow enough that others do not.
const CI_WIDTH: f64 = 0.5;

fn report_json(target_ci_width: Option<f64>) -> String {
    run_campaign(&spec(target_ci_width))
        .expect("campaign runs")
        .to_json()
}

/// Recorded from the batch-round engine. If these move, plain uniform
/// campaign bytes moved.
const GOLDEN_PLAIN: u64 = 0x1c31_7ba3_fcae_cac8; // 2292 bytes, 0 stopped early
const GOLDEN_EARLY_STOP: u64 = 0xbdb1_ff83_f0bc_9d8f; // 2197 bytes, 3 stopped early

/// Recorded before the reports shared one JSON printer.
const GOLDEN_IMPORTANCE: u64 = 0x025f_a695_6868_0a15; // 3740 bytes
const GOLDEN_WORKER: u64 = 0x1873_e30c_9597_1430; // 3628 bytes
const GOLDEN_WORKER_SHARD: u64 = 0x911f_2791_8e13_990a; // 921 bytes

/// The uniform spec with importance-sampled injection sites.
fn importance_spec() -> CampaignSpec {
    let mut spec = spec(None);
    spec.importance = true;
    spec
}

/// The layouts only importance sampling and fan-out produce, each by
/// name: the plain report of [`importance_spec`], and worker 1 of a
/// 2-way fan-out over it in shards of 4 (it owns shard 1 of 3),
/// checkpointed into a scratch directory: the worker's report and the
/// bytes of its one shard file.
fn side_documents() -> [(&'static str, String); 3] {
    let plain = run_campaign(&importance_spec()).expect("campaign runs");
    let dir = std::env::temp_dir().join(format!("icr_golden_worker_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let sspec = ShardedCampaignSpec::new(importance_spec(), 4).with_worker(1, 2);
    let worker = run_sharded_campaign(&sspec, Some(&dir), false).expect("worker runs");
    let shard = std::fs::read_to_string(dir.join(ShardCheckpoint::file_name(1)))
        .expect("the worker wrote shard 1");
    std::fs::remove_dir_all(&dir).ok();
    [
        ("GOLDEN_IMPORTANCE", plain.to_json()),
        ("GOLDEN_WORKER", worker.to_json()),
        ("GOLDEN_WORKER_SHARD", shard),
    ]
}

/// The uniform and the importance-sampled sharded spec whose
/// fingerprints are pinned.
fn fingerprint_specs() -> [(&'static str, ShardedCampaignSpec); 2] {
    let mut importance = spec(Some(CI_WIDTH));
    importance.importance = true;
    [
        ("GOLDEN_FP_UNIFORM", ShardedCampaignSpec::new(spec(None), 4)),
        (
            "GOLDEN_FP_IMPORTANCE",
            ShardedCampaignSpec::new(importance, 4),
        ),
    ]
}

/// Recorded before the fingerprint destructured `CampaignSpec`.
const GOLDEN_FP_UNIFORM: u64 = 0x963f_303b_5e6f_b20c;
const GOLDEN_FP_IMPORTANCE: u64 = 0xe520_327c_952b_d677;

#[test]
#[ignore = "fixture recorder, run explicitly with --ignored"]
fn record_golden_campaign_digests() {
    for (name, spec) in fingerprint_specs() {
        println!("const {name}: u64 = {:#018x};", spec.fingerprint());
    }
    for (name, width) in [
        ("GOLDEN_PLAIN", None),
        ("GOLDEN_EARLY_STOP", Some(CI_WIDTH)),
    ] {
        let doc = report_json(width);
        println!(
            "const {name}: u64 = {:#018x}; // {} bytes, {} stopped early",
            fnv1a64(doc.as_bytes()),
            doc.len(),
            doc.matches("\"stopped_early\": true").count()
        );
    }
    for (name, doc) in side_documents() {
        println!(
            "const {name}: u64 = {:#018x}; // {} bytes",
            fnv1a64(doc.as_bytes()),
            doc.len()
        );
    }
}

#[test]
fn plain_campaign_report_bytes_are_pinned() {
    assert_eq!(
        fnv1a64(report_json(None).as_bytes()),
        GOLDEN_PLAIN,
        "the uniform plain campaign report changed"
    );
}

#[test]
fn early_stopped_campaign_report_bytes_are_pinned() {
    let doc = report_json(Some(CI_WIDTH));
    assert!(
        doc.contains("\"stopped_early\": true") && doc.contains("\"stopped_early\": false"),
        "the pin must cover both stopped and full-budget cells:\n{doc}"
    );
    assert_eq!(
        fnv1a64(doc.as_bytes()),
        GOLDEN_EARLY_STOP,
        "the early-stopped plain campaign report changed"
    );
}

#[test]
fn side_document_bytes_are_pinned() {
    let docs = side_documents();
    let [(_, plain), (_, worker), _] = &docs;
    assert!(
        plain.contains("\"importance\": {"),
        "weighted cells:\n{plain}"
    );
    assert!(
        worker.contains("\"worker\": [1, 2]") && worker.contains("\"complete\": false"),
        "the pin must cover a worker's partial report:\n{worker}"
    );
    let pinned = [GOLDEN_IMPORTANCE, GOLDEN_WORKER, GOLDEN_WORKER_SHARD];
    for ((name, doc), want) in docs.iter().zip(pinned) {
        assert_eq!(fnv1a64(doc.as_bytes()), want, "the {name} document changed");
    }
}

#[test]
fn checkpoint_fingerprints_are_pinned() {
    let pinned = [GOLDEN_FP_UNIFORM, GOLDEN_FP_IMPORTANCE];
    for ((name, spec), want) in fingerprint_specs().into_iter().zip(pinned) {
        assert_eq!(spec.fingerprint(), want, "{name} moved");
    }
}
