//! The command-line front end shared by `icr-run`, `icr-exp` and
//! `icr-campaign`.
//!
//! Each binary walks its arguments as one cursor (any
//! `Iterator<Item = String>`) and takes every flag value through the
//! parsers here, so a missing value, a malformed number, a zero count,
//! a probability outside [0, 1] and an unknown name read the same in
//! all three. Every invalid input returns as a [`Usage`] error, and one
//! exit-code contract follows: [`usage_error`] prints the diagnostic
//! and the binary's usage text and exits 2; a runtime failure, such as
//! an unwritable [`write_json`] destination, exits 1.

use std::fmt::Display;
use std::io::Write;
use std::process::ExitCode;
use std::str::FromStr;

/// An invalid invocation; the message is the diagnostic printed above
/// the usage text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Usage(pub String);

/// Prints `e` and the binary's `usage` text to stderr and returns the
/// invalid-invocation exit code, 2 (the `getopt` tradition; runtime
/// failures exit 1).
pub fn usage_error(usage: &str, e: Usage) -> ExitCode {
    // Not `eprintln!`: its panic on a closed stderr would exit 101.
    let _ = writeln!(std::io::stderr(), "error: {}\n{usage}", e.0);
    ExitCode::from(2)
}

/// The error for an argument that matches none of the binary's flags.
pub fn unknown_option(arg: &str) -> Usage {
    Usage(format!("unknown option {arg:?}"))
}

/// The value after `flag`.
pub fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, Usage> {
    args.next()
        .ok_or_else(|| Usage(format!("{flag} requires a value")))
}

/// The value after `flag` parsed as `T`; `what` names the expected form
/// in the diagnostic.
pub fn parsed<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, Usage> {
    let v = value(args, flag)?;
    v.parse()
        .map_err(|_| Usage(format!("{flag} expects {what}, got {v:?}")))
}

/// The count after `flag`: a positive integer.
pub fn count(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<u64, Usage> {
    match parsed(args, flag, "a positive integer")? {
        0 => Err(Usage(format!("{flag} must be at least 1"))),
        n => Ok(n),
    }
}

/// The probability after `flag`: a number in [0, 1], so NaN and ±∞ are
/// rejected too.
pub fn probability(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<f64, Usage> {
    let p = parsed(args, flag, "a probability")?;
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(Usage(format!("{flag} must be a probability in [0, 1]")))
    }
}

/// `s` parsed through `T`'s `FromStr`, whose error is the diagnostic
/// (`unknown scheme "x"`, `unknown model "x"`, …).
pub fn parse_name<T: FromStr>(s: &str) -> Result<T, Usage>
where
    T::Err: Display,
{
    s.parse().map_err(|e: T::Err| Usage(e.to_string()))
}

/// The name after `flag`, parsed as by [`parse_name`].
pub fn name<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, Usage>
where
    T::Err: Display,
{
    parse_name(&value(args, flag)?)
}

/// The comma-separated names after `flag`, each trimmed and parsed as
/// by [`parse_name`]. An empty item is an unknown name.
pub fn names<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<Vec<T>, Usage>
where
    T::Err: Display,
{
    value(args, flag)?
        .split(',')
        .map(|n| parse_name(n.trim()))
        .collect()
}

/// Checks every app name against the workload store the simulator
/// resolves names through, so an unknown app exits 2 here instead of
/// aborting inside the run, and the execution-driven `isa:*` kernels
/// are accepted once their source is installed.
pub fn check_apps<S: AsRef<str>>(apps: &[S]) -> Result<(), Usage> {
    icr_isa::install();
    let store = icr_trace::store::global();
    match apps
        .iter()
        .map(AsRef::as_ref)
        .find(|a| !store.resolvable(a))
    {
        Some(app) => Err(Usage(format!("unknown app {app:?}"))),
        None => Ok(()),
    }
}

/// Writes `doc` to `path` (`-` = stdout) through
/// [`write_output`](crate::json::write_output), ending it with exactly
/// one newline. A failure is a runtime error: the diagnostic goes to
/// stderr and the exit code is 1.
pub fn write_json(doc: &str, path: &str) -> ExitCode {
    match crate::json::write_output(doc.trim_end_matches('\n'), path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icr_core::Scheme;

    fn args(v: &[&str]) -> std::vec::IntoIter<String> {
        v.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    fn err<T: std::fmt::Debug>(r: Result<T, Usage>) -> String {
        r.expect_err("invalid input must be refused").0
    }

    #[test]
    fn value_takes_the_next_argument_or_names_the_flag() {
        let mut a = args(&["x", "y"]);
        assert_eq!(value(&mut a, "--f"), Ok("x".into()));
        assert_eq!(a.next().as_deref(), Some("y"));
        assert_eq!(err(value(&mut args(&[]), "--f")), "--f requires a value");
    }

    #[test]
    fn parsed_quotes_the_bad_value() {
        assert_eq!(
            parsed::<u64>(&mut args(&["12"]), "--seed", "an unsigned integer"),
            Ok(12)
        );
        assert_eq!(
            err(parsed::<u64>(
                &mut args(&["-1"]),
                "--seed",
                "an unsigned integer"
            )),
            "--seed expects an unsigned integer, got \"-1\""
        );
    }

    #[test]
    fn count_rejects_zero_and_non_numbers() {
        assert_eq!(count(&mut args(&["3"]), "--trials"), Ok(3));
        assert_eq!(
            err(count(&mut args(&["0"]), "--trials")),
            "--trials must be at least 1"
        );
        assert_eq!(
            err(count(&mut args(&["abc"]), "--trials")),
            "--trials expects a positive integer, got \"abc\""
        );
    }

    #[test]
    fn probability_accepts_the_closed_unit_interval_only() {
        for ok in ["0", "0.5", "1"] {
            assert!(probability(&mut args(&[ok]), "--fault").is_ok(), "{ok}");
        }
        for bad in ["1.5", "-0.1", "NaN", "inf", "-inf"] {
            assert_eq!(
                err(probability(&mut args(&[bad]), "--fault")),
                "--fault must be a probability in [0, 1]",
                "{bad}"
            );
        }
        assert_eq!(
            err(probability(&mut args(&["lots"]), "--fault")),
            "--fault expects a probability, got \"lots\""
        );
    }

    #[test]
    fn names_parse_through_from_str_and_report_the_bad_item() {
        assert_eq!(
            names::<Scheme>(&mut args(&["basep, icr-p-ps-s"]), "--schemes"),
            Ok(vec![Scheme::BASE_P, Scheme::ICR_P_PS_S])
        );
        assert_eq!(
            err(names::<Scheme>(&mut args(&["basep,tmr"]), "--schemes")),
            "unknown scheme \"tmr\""
        );
        assert_eq!(
            err(names::<Scheme>(&mut args(&["basep,"]), "--schemes")),
            "unknown scheme \"\""
        );
        assert_eq!(
            err(name::<icr_fault::ErrorModel>(
                &mut args(&["burst"]),
                "--model"
            )),
            "unknown model \"burst\""
        );
    }

    #[test]
    fn check_apps_resolves_through_the_workload_store() {
        assert_eq!(check_apps(&["gzip", "isa:qsort"]), Ok(()));
        assert_eq!(err(check_apps(&["gzip", "doom"])), "unknown app \"doom\"");
        assert_eq!(err(check_apps(&["isa:doom"])), "unknown app \"isa:doom\"");
    }

    #[test]
    fn unknown_option_quotes_the_argument() {
        assert_eq!(
            unknown_option("--frobnicate").0,
            "unknown option \"--frobnicate\""
        );
    }
}
