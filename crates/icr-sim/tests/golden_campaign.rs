//! Byte-level pin of the plain (in-memory) campaign report. Plain
//! campaigns run through the same shard loop as checkpointed ones, with
//! the batch size as the shard size; these digests were recorded from
//! the earlier batch-round engine, so a uniform report — with and
//! without early stopping — must keep exactly those bytes.
//!
//! Regenerate (only when a change *deliberately* alters campaign output)
//! with:
//!
//! ```text
//! cargo test -p icr-sim --test golden_campaign --release -- \
//!     --ignored record_golden_campaign_digests --nocapture
//! ```

use icr_core::Scheme;
use icr_sim::{run_campaign, CampaignSpec};

/// FNV-1a over the document bytes.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

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

#[test]
#[ignore = "fixture recorder, run explicitly with --ignored"]
fn record_golden_campaign_digests() {
    for (name, width) in [
        ("GOLDEN_PLAIN", None),
        ("GOLDEN_EARLY_STOP", Some(CI_WIDTH)),
    ] {
        let doc = report_json(width);
        println!(
            "const {name}: u64 = {:#018x}; // {} bytes, {} stopped early",
            fnv(doc.as_bytes()),
            doc.len(),
            doc.matches("\"stopped_early\": true").count()
        );
    }
}

#[test]
fn plain_campaign_report_bytes_are_pinned() {
    assert_eq!(
        fnv(report_json(None).as_bytes()),
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
        fnv(doc.as_bytes()),
        GOLDEN_EARLY_STOP,
        "the early-stopped plain campaign report changed"
    );
}
