//! CLI contract tests for `icr-run`: every class of invalid invocation
//! exits with code 2 and prints a diagnostic plus the usage text to
//! stderr; valid invocations exit 0; runtime failures exit 1 — the same
//! three-code contract as `icr-campaign` and `icr-exp`.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_icr-run");

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn icr-run")
}

/// Asserts the invocation is rejected as invalid: exit code 2, the
/// expected diagnostic fragment, and the usage text.
fn assert_usage_error(args: &[&str], diagnostic_fragment: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "args {args:?}: expected exit 2, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains(diagnostic_fragment),
        "args {args:?}: diagnostic {diagnostic_fragment:?} missing from stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("usage: icr-run"),
        "args {args:?}: usage text missing from stderr:\n{stderr}"
    );
}

#[test]
fn no_arguments_exits_2() {
    assert_usage_error(&[], "expected <app> and <scheme>");
}

#[test]
fn unknown_app_exits_2() {
    assert_usage_error(&["doom", "basep"], "unknown app \"doom\"");
}

#[test]
fn unknown_isa_kernel_exits_2() {
    // `isa:` names route through the same store lookup as synthetic
    // apps: a bad kernel name is an invocation error (exit 2), not an
    // abort deep inside the run.
    assert_usage_error(&["isa:doom", "basep"], "unknown app \"isa:doom\"");
}

#[test]
fn isa_kernel_run_exits_0() {
    let out = run(&["isa:bubble", "basep", "--insts", "500"]);
    assert!(out.status.success(), "isa kernel run failed: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("-- dL1 --"));
}

#[test]
fn unknown_scheme_exits_2() {
    assert_usage_error(&["gzip", "tmr"], "unknown scheme \"tmr\"");
}

#[test]
fn unknown_option_exits_2() {
    assert_usage_error(
        &["gzip", "basep", "--frobnicate"],
        "unknown option \"--frobnicate\"",
    );
}

#[test]
fn missing_value_exits_2() {
    assert_usage_error(&["gzip", "basep", "--seed"], "--seed requires a value");
}

#[test]
fn non_numeric_insts_exits_2() {
    assert_usage_error(
        &["gzip", "basep", "--insts", "abc"],
        "--insts expects a positive integer",
    );
}

#[test]
fn zero_insts_exits_2() {
    assert_usage_error(
        &["gzip", "basep", "--insts", "0"],
        "--insts must be at least 1",
    );
}

#[test]
fn unknown_victim_policy_exits_2() {
    assert_usage_error(
        &["gzip", "basep", "--victim", "oldest"],
        "unknown victim policy \"oldest\"",
    );
}

#[test]
fn out_of_range_fault_exits_2() {
    assert_usage_error(
        &["gzip", "basep", "--fault", "1.5"],
        "--fault must be a probability in [0, 1]",
    );
    assert_usage_error(
        &["gzip", "basep", "--fault", "NaN"],
        "--fault must be a probability in [0, 1]",
    );
}

#[test]
fn display_grammar_scheme_names_parse_too() {
    // The shared parser accepts the paper's display spelling as well as
    // the kebab CLI spelling.
    let out = run(&["gzip", "ICR-P-PS (S)", "--insts", "500"]);
    assert!(out.status.success(), "display-name run failed: {out:?}");
}

#[test]
fn spill_scheme_reports_its_region_counters() {
    let out = run(&["gzip", "icr-p-ps-l2-s", "--insts", "2000"]);
    assert!(out.status.success(), "spill run failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("-- L2 spill region --") && stdout.contains("spills created"),
        "spill section missing from report:\n{stdout}"
    );
}

#[test]
fn non_spill_scheme_omits_the_region_section() {
    let out = run(&["gzip", "icr-p-ps-s", "--insts", "2000"]);
    assert!(out.status.success(), "run failed: {out:?}");
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("L2 spill region"),
        "dL1-only scheme must not print the spill section"
    );
}

#[test]
fn valid_tiny_run_exits_0() {
    let out = run(&["gzip", "basep", "--insts", "500"]);
    assert!(out.status.success(), "valid run failed: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("-- dL1 --"));
}

#[test]
fn mismatched_trace_in_exits_1() {
    // A runtime failure (unreadable trace file), not an invocation error.
    let out = run(&["gzip", "basep", "--trace-in", "/nonexistent-dir/x.icrt"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "runtime failures must exit 1, not {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn trace_in_of_another_length_exits_1() {
    // A saved trace replays only under the budget it was recorded at:
    // shorter or longer than --insts, it would be simulated under a
    // label it does not match.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join(format!("icr_run_len_{}.icrt", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path");
    let saved = run(&["gzip", "basep", "--insts", "3000", "--trace-out", path]);
    assert!(saved.status.success(), "trace-out run failed: {saved:?}");
    for insts in ["200000", "2000"] {
        let out = run(&["gzip", "basep", "--insts", insts, "--trace-in", path]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "--insts {insts}: a 3000-instruction trace must be refused\nstderr: {stderr}"
        );
        assert!(
            stderr.contains("3000 instructions") && stderr.contains(&format!("--insts {insts}")),
            "--insts {insts}: diagnostic must name both counts:\n{stderr}"
        );
    }
    let replay = run(&["gzip", "basep", "--insts", "3000", "--trace-in", path]);
    assert!(
        replay.status.success(),
        "same-length replay failed: {replay:?}"
    );
    std::fs::remove_file(path).expect("remove saved trace");
}

#[test]
fn isa_trace_in_may_end_before_the_budget() {
    // An execution-driven kernel retires to completion (isa:qsort in
    // about 36k instructions), so its saved trace is legitimately shorter
    // than a larger budget and replays byte-identically under it.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join(format!("icr_run_isa_len_{}.icrt", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path");
    let common = ["isa:qsort", "basep", "--insts", "100000", "--json", "-"];
    let live = run(&[&common[..], &["--trace-out", path]].concat());
    assert!(live.status.success(), "trace-out run failed: {live:?}");
    let replay = run(&[&common[..], &["--trace-in", path]].concat());
    assert!(
        replay.status.success(),
        "shorter isa replay failed: {replay:?}"
    );
    assert_eq!(live.stdout, replay.stdout, "replay changed the report");
    std::fs::remove_file(path).expect("remove saved trace");
}

#[test]
fn unwritable_json_destination_exits_1() {
    let out = run(&[
        "gzip",
        "basep",
        "--insts",
        "500",
        "--json",
        "/nonexistent-dir/out.json",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "runtime failures must exit 1, not {:?}\nstderr: {stderr}",
        out.status.code(),
    );
    assert!(
        stderr.contains("cannot write /nonexistent-dir/out.json"),
        "diagnostic missing from stderr:\n{stderr}"
    );
}

#[test]
fn fault_and_seed_flags_commute() {
    // The injector seed derives from the workload seed, so it must not
    // depend on whether `--seed` comes before or after `--fault`.
    let common = ["gzip", "basep", "--insts", "20000", "--json", "-"];
    let fault_first = run(&[&common[..], &["--fault", "0.001", "--seed", "7"]].concat());
    let seed_first = run(&[&common[..], &["--seed", "7", "--fault", "0.001"]].concat());
    assert!(fault_first.status.success(), "run failed: {fault_first:?}");
    assert!(seed_first.status.success(), "run failed: {seed_first:?}");
    assert_eq!(
        String::from_utf8_lossy(&fault_first.stdout),
        String::from_utf8_lossy(&seed_first.stdout),
        "flag order changed the report"
    );
}

#[test]
fn check_with_fault_injection_exits_2() {
    // The lockstep reference model covers the fault-free semantics, so
    // the combination is an invalid invocation, not a mid-run abort.
    assert_usage_error(
        &[
            "gzip", "basep", "--insts", "2000", "--check", "--fault", "0.001",
        ],
        "lockstep auditing covers the fault-free semantics",
    );
}

#[test]
fn check_with_scrubbing_exits_2() {
    assert_usage_error(
        &[
            "gzip", "basep", "--insts", "2000", "--check", "--scrub", "100",
        ],
        "lockstep auditing covers the fault-free semantics",
    );
}

#[test]
fn zero_entry_write_buffer_exits_2() {
    assert_usage_error(
        &["gzip", "basep", "--write-through", "0"],
        "invalid dL1 config: write buffer needs at least one entry",
    );
}

#[test]
#[cfg(target_os = "linux")]
fn usage_error_exits_2_when_stderr_cannot_be_written() {
    // Every write to /dev/full fails, as a write to a pipe whose reader
    // has gone does (`icr-run … 2>&1 | head -1`): the diagnostic is
    // lost, but the exit code must still say "invalid input".
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let out = Command::new(BIN)
        .args(["gzip", "basep", "--frobnicate"])
        .stderr(full)
        .output()
        .expect("spawn icr-run");
    assert_eq!(
        out.status.code(),
        Some(2),
        "unwritable stderr changed the exit code"
    );
}
