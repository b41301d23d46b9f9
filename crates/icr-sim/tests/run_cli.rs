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
