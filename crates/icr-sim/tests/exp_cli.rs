//! CLI contract tests for `icr-exp`: every class of invalid invocation
//! exits with code 2 and prints a diagnostic plus the usage text to
//! stderr; valid invocations exit 0 — the same three-code contract as
//! `icr-run` and `icr-campaign`.

use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_icr-exp");

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn icr-exp")
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
        stderr.contains("usage: icr-exp"),
        "args {args:?}: usage text missing from stderr:\n{stderr}"
    );
}

#[test]
fn no_arguments_exits_2() {
    assert_usage_error(&[], "expected an experiment name");
}

#[test]
fn unknown_experiment_exits_2() {
    assert_usage_error(&["fig99"], "unknown experiment \"fig99\"");
}

#[test]
fn unknown_option_exits_2() {
    assert_usage_error(&["fig1", "--frobnicate"], "unknown option \"--frobnicate\"");
}

#[test]
fn missing_value_exits_2() {
    assert_usage_error(&["fig1", "--seed"], "--seed requires a value");
}

#[test]
fn non_numeric_insts_exits_2() {
    assert_usage_error(
        &["fig1", "--insts", "abc"],
        "--insts expects a positive integer",
    );
}

#[test]
fn zero_insts_exits_2() {
    assert_usage_error(&["fig1", "--insts", "0"], "--insts must be at least 1");
}

#[test]
fn unknown_scheme_exits_2() {
    assert_usage_error(&["audit", "--scheme", "tmr"], "unknown scheme \"tmr\"");
}

#[test]
fn scheme_on_a_figure_subcommand_exits_2() {
    assert_usage_error(
        &["fig1", "--scheme", "basep"],
        "--scheme only applies to audit, isa-audit and vuln",
    );
}

#[test]
fn empty_scheme_list_exits_2() {
    assert_usage_error(&["audit", "--scheme", " "], "unknown scheme");
}

#[test]
fn table1_exits_0() {
    let out = run(&["table1"]);
    assert!(out.status.success(), "table1 failed: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("16KB"));
}

#[test]
fn json_on_table1_exits_2() {
    // table1 is text only; accepting --json would exit 0 and write nothing.
    assert_usage_error(
        &["table1", "--json", "-"],
        "--json does not apply to table1",
    );
}

#[test]
fn audit_restricted_to_one_spill_scheme_exits_0() {
    // The lockstep audit over a single L2-spill descriptor: the checker
    // panics (non-zero exit) on any divergence, so success here is the
    // end-to-end proof the spill reference model agrees with the dL1.
    let out = run(&["audit", "--scheme", "icr-p-ps-l2-s", "--insts", "2000"]);
    assert!(out.status.success(), "spill audit failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("ICR-P-PS-L2 (S)"),
        "audit summary must name the audited scheme:\n{stdout}"
    );
}

#[test]
fn spill_figure_exits_0_with_json() {
    let out = run(&["spill", "--insts", "2000", "--json", "-"]);
    assert!(out.status.success(), "spill figure failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"id\": \"spill\"") || stdout.contains("\"spill\""),
        "spill figure JSON missing:\n{stdout}"
    );
}

#[test]
fn sdc_figure_exits_0_with_json() {
    let out = run(&["sdc", "--insts", "2000", "--json", "-"]);
    assert!(out.status.success(), "sdc figure failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"id\":\"sdc\""),
        "sdc figure JSON missing:\n{stdout}"
    );
}

#[test]
fn unwritable_json_destination_exits_1() {
    let out = run(&[
        "fig1",
        "--insts",
        "2000",
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

/// The write end of a pipe whose reader is already gone: every write to
/// it fails with a broken pipe, as `icr-exp … | head -1` does once
/// `head` has exited.
fn closed_pipe() -> std::io::PipeWriter {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    writer
}

fn run_to(args: &[&str], stdout: impl Into<Stdio>, stderr: impl Into<Stdio>) -> Output {
    Command::new(BIN)
        .args(args)
        .stdout(stdout)
        .stderr(stderr)
        .output()
        .expect("spawn icr-exp")
}

#[test]
fn figure_to_a_closed_pipe_exits_0() {
    let out = run_to(&["fig1", "--insts", "2000"], closed_pipe(), Stdio::piped());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(
        stderr.is_empty(),
        "a closed reader is not an error:\n{stderr}"
    );
}

#[test]
fn json_to_a_closed_pipe_exits_0() {
    let out = run_to(
        &["fig1", "--insts", "2000", "--json", "-"],
        closed_pipe(),
        Stdio::piped(),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(
        stderr.is_empty(),
        "a closed reader is not an error:\n{stderr}"
    );
}

#[test]
#[cfg(target_os = "linux")]
fn stats_to_an_unwritable_stderr_exits_0() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let out = run_to(
        &["fig1", "--insts", "2000", "--stats"],
        Stdio::piped(),
        full,
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "unwritable stderr aborted the run"
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("fig1"),
        "the figure still reaches stdout"
    );
}
