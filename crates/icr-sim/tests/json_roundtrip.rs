//! Round-trip tests for `icr-sim::json`: serialize → parse →
//! re-serialize every report type and assert byte equality of the
//! canonical form. This is the guard on the "bit-identical JSON"
//! invariant the bench trajectory depends on: if number formatting,
//! string escaping, or member ordering ever became unstable, the second
//! serialization would not reproduce the first.
//!
//! The reports pretty-print, so the byte-equality bar sits at the
//! canonical compact form: `parse(doc).to_json()` must be a fixed point
//! of `parse ∘ to_json`, and parsing must lose nothing — every counter,
//! float token, and key survives verbatim. Every report also goes
//! through the one pretty printer, so `parse(doc).pretty()` must give
//! back the report itself, less its trailing newline.

use icr_core::{DataL1Config, Scheme};
use icr_sim::json::{parse, Value};
use icr_sim::{
    run_audit, run_campaign, run_sharded_campaign, run_sim, run_vuln, AuditSpec, CampaignSpec,
    ShardedCampaignSpec, SimConfig, VulnSpec,
};

/// Parses the pretty-printed report `doc`, asserts that the one printer
/// reproduces it and that canonical re-serialization is a byte-exact
/// fixed point, and returns the parsed value for structural checks.
fn roundtrip(doc: &str) -> Value {
    let v = canonical_roundtrip(doc);
    assert_eq!(
        v.pretty(),
        doc.trim_end_matches('\n'),
        "the report is not what Value::pretty prints"
    );
    v
}

/// Parses `doc`, asserts canonical re-serialization is a byte-exact
/// fixed point, and returns the parsed value.
fn canonical_roundtrip(doc: &str) -> Value {
    let v = parse(doc).unwrap_or_else(|e| panic!("emitted document failed to parse: {e}\n{doc}"));
    let canonical = v.to_json();
    let v2 = parse(&canonical)
        .unwrap_or_else(|e| panic!("canonical form failed to parse: {e}\n{canonical}"));
    assert_eq!(
        canonical,
        v2.to_json(),
        "canonical serialization must be a byte-exact fixed point"
    );
    assert_eq!(v, v2, "parse must be lossless over the canonical form");
    v
}

#[test]
fn sim_result_json_round_trips() {
    let r = run_sim(&SimConfig::paper(
        "gzip",
        DataL1Config::paper_default(Scheme::ICR_P_PS_S),
        2_000,
        5,
    ));
    let doc = r.to_json();
    let v = roundtrip(&doc);
    assert_eq!(v.get("app"), Some(&Value::Str("gzip".into())));
    assert!(v.get("replication").is_some(), "replication section kept");
    // Determinism end to end: a second run serializes to the same bytes.
    let again = run_sim(&SimConfig::paper(
        "gzip",
        DataL1Config::paper_default(Scheme::ICR_P_PS_S),
        2_000,
        5,
    ));
    assert_eq!(doc, again.to_json());
}

#[test]
fn audit_report_json_round_trips() {
    let spec = AuditSpec::new(vec![Scheme::ICR_P_PS_S], vec!["gzip".into()], 2_000, 5);
    let report = run_audit(&spec);
    let v = roundtrip(&report.to_json());
    let audit = v.get("audit").expect("audit section");
    assert_eq!(audit.get("instructions"), Some(&Value::Num("2000".into())));
    assert!(audit.get("total_accesses_checked").is_some());
}

#[test]
fn vuln_report_json_round_trips() {
    let spec = VulnSpec::new(vec![Scheme::BASE_P], vec!["gzip".into()], 2_000, 5);
    let report = run_vuln(&spec);
    let v = roundtrip(&report.to_json());
    assert!(v.get("vuln").is_some(), "vuln section kept");
}

#[test]
fn campaign_report_json_round_trips() {
    let mut spec = CampaignSpec::new(vec![Scheme::ICR_P_PS_S], vec!["gzip".into()], 20, 9);
    spec.instructions = 2_000;
    spec.batch = 10;
    spec.threads = 1;
    let report = run_campaign(&spec).expect("campaign runs");
    let v = roundtrip(&report.to_json());
    assert!(v.get("campaign").is_some(), "campaign section kept");
    // The tally fields the conservation audit feeds on survive parsing.
    let cells = v.get("cells").expect("cells array");
    let Value::Arr(cells) = cells else {
        panic!("cells is an array")
    };
    assert!(!cells.is_empty());
}

#[test]
fn sharded_worker_report_json_round_trips() {
    let mut spec = CampaignSpec::new(vec![Scheme::ICR_P_PS_S], vec!["gzip".into()], 20, 9);
    spec.instructions = 2_000;
    spec.threads = 1;
    spec.importance = true;
    let dir = std::env::temp_dir().join(format!("icr_json_roundtrip_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let sspec = ShardedCampaignSpec::new(spec, 5).with_worker(0, 2);
    let report = run_sharded_campaign(&sspec, Some(&dir), false).expect("worker runs");
    std::fs::remove_dir_all(&dir).ok();
    let v = roundtrip(&report.to_json());
    let sharding = v.get("sharding").expect("sharding section");
    assert_eq!(sharding.get("complete"), Some(&Value::Bool(false)));
}

/// Float tokens survive verbatim: the parser never converts through
/// `f64`, so a 17-significant-digit token — the shortest-round-trip
/// output of `json::number` — is reproduced byte for byte.
#[test]
fn number_tokens_survive_verbatim() {
    let doc = "{\"v\": [0.30670142616163165, -1.5e-3, 2820.1196859794295, 50000]}";
    let v = canonical_roundtrip(doc);
    assert_eq!(
        v.to_json(),
        "{\"v\":[0.30670142616163165,-1.5e-3,2820.1196859794295,50000]}"
    );
}
