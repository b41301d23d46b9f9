//! Lockstep reference model and invariant checks for the ICR dL1.
//!
//! The simulator's hot paths are heavily optimised: associative lookup
//! over packed lines, incremental statistics, a memoizing execution
//! engine, lazy decay counters. This crate is the opposite on purpose —
//! a *deliberately naive* model of the paper's §3 semantics that an
//! auditor can read top to bottom:
//!
//! * associative lookup by **linear scan** over every way,
//! * the replica map as a plain **`HashMap`** ledger, cross-checked
//!   against a fresh scan on every diff,
//! * protection state as an **enum** per line, recomputed from first
//!   principles,
//! * decay counters recomputed from the last-access cycle each time.
//!
//! [`RefModel`] consumes the same access stream as the real `DataL1`
//! and diffs its observable state after every access, one set at a
//! time: tags, dirty bits, protection, recency order, per-line decay
//! counters and the local replica rules (a replica sits a legal
//! distance-k away, parity-protected and clean), plus the statistics
//! counters (exact, monotone, hits never above accesses), the spill
//! region and the write buffer.
//! [`RefModel::check_touched`] diffs the sets the access touched;
//! [`RefModel::check`] diffs every set and then states the invariants
//! only the whole cache can (replicas paired to a live primary, the
//! replica ledger equal to a scan, the two replica tiers exclusive).
//!
//! The crate is **dependency-free**, including on the rest of the
//! workspace: it must share no code — and therefore no bugs — with what
//! it audits. The simulator side translates its state into the plain
//! [`RealSets`] structs defined here.
//!
//! Two more free-standing checks round out the audit surface:
//! [`tally_conserved`] (fault-campaign outcome conservation: injected =
//! recovered + masked + lost + silent) and [`json_complete`] (a
//! truncated report file is not a well-formed JSON document).

mod model;
mod write_buffer;

pub use model::{
    ref_decay_counter, ref_is_dead, Counters, RealLine, RealSetExport, RealSets, RefConfig,
    RefLine, RefModel, RefProtection, RefVictim, RefWriteBufferConfig,
};
pub use write_buffer::{RealWriteBuffer, RefWriteBuffer};

/// Checks the outcome-conservation invariant of one fault-campaign
/// tally: every delivered fault ends in exactly one of the four
/// terminal classes, so
///
/// ```text
/// injected  =  total - not_injected  =  recovered + masked + lost + silent
/// ```
///
/// where `lost` is the detected-but-unrecoverable count. A violation
/// means double- or under-counted trials — exactly the class of bug a
/// raw `injected - lost` subtraction would later turn into a wrapping
/// panic inside a Wilson interval.
///
/// # Errors
///
/// Returns a description of the first violated equation.
pub fn tally_conserved(
    total: u64,
    not_injected: u64,
    recovered: u64,
    masked: u64,
    lost: u64,
    silent: u64,
) -> Result<(), String> {
    if not_injected > total {
        return Err(format!(
            "tally: not_injected {not_injected} exceeds total {total}"
        ));
    }
    let injected = total - not_injected;
    let accounted = recovered + masked + lost + silent;
    if accounted != injected {
        return Err(format!(
            "tally: injected {injected} != recovered {recovered} + masked {masked} \
             + lost {lost} + silent {silent} (= {accounted})"
        ));
    }
    if lost + silent > injected {
        return Err(format!(
            "tally: lost {lost} + silent {silent} exceeds injected {injected}"
        ));
    }
    Ok(())
}

/// `true` when `s` is one complete JSON value (object, array, string,
/// or bare literal) with balanced structure — the well-formedness a
/// *truncated* report file always fails.
///
/// This is a linear scan, not a parser: it tracks string/escape state
/// and brace/bracket depth. It accepts every document the workspace's
/// `to_json` emitters produce and rejects any strict prefix of them,
/// which is all the atomic-write audit needs.
pub fn json_complete(s: &str) -> bool {
    let t = s.trim();
    if t.is_empty() {
        return false;
    }
    let mut depth: i64 = 0;
    let mut in_string = false;
    let mut escaped = false;
    for c in t.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    !in_string && depth == 0 && !t.ends_with(',') && !t.ends_with(':')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_conservation_accepts_balanced_tallies() {
        // 10 trials: 2 undelivered, 5 recovered, 1 masked, 1 lost, 1 silent.
        assert!(tally_conserved(10, 2, 5, 1, 1, 1).is_ok());
        assert!(tally_conserved(0, 0, 0, 0, 0, 0).is_ok());
    }

    #[test]
    fn tally_conservation_rejects_leaks() {
        // One delivered trial vanished from the terminal classes.
        let err = tally_conserved(10, 2, 4, 1, 1, 1).unwrap_err();
        assert!(err.contains("injected 8"), "{err}");
        // More losses than delivered faults — the Wilson underflow shape.
        assert!(tally_conserved(4, 2, 0, 0, 3, 2).is_err());
        assert!(tally_conserved(3, 5, 0, 0, 0, 0).is_err());
    }

    #[test]
    fn json_complete_accepts_whole_documents() {
        assert!(json_complete("{}"));
        assert!(json_complete("{\"a\": [1, 2, {\"b\": \"x}y\"}]}\n"));
        assert!(json_complete("[\n{\"a\": 1},\n{\"b\": 2}\n]"));
        assert!(json_complete("null"));
        assert!(json_complete("\"a string with \\\" and {\""));
    }

    #[test]
    fn json_complete_rejects_truncations() {
        let doc = "{\"cells\": [{\"app\": \"gzip\", \"v\": 1.5}, {\"app\": \"gcc\", \"v\": 2.0}]}";
        assert!(json_complete(doc));
        for cut in 1..doc.len() {
            assert!(
                !json_complete(&doc[..cut]),
                "prefix of length {cut} accepted: {}",
                &doc[..cut]
            );
        }
        assert!(!json_complete(""));
        assert!(!json_complete("   "));
    }
}
