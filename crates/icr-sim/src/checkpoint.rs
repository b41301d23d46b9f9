//! Durable per-shard campaign checkpoints.
//!
//! A sharded campaign ([`crate::campaign::run_sharded_campaign`])
//! persists one checkpoint file per completed shard so a killed run can
//! resume without re-executing finished work. The files follow the same
//! conventions as the `.icrt` trace format (`icr-trace::disk`): a
//! versioned header and an FNV-1a digest over the payload, verified on
//! every read so corruption surfaces as a precise [`CheckpointError`]
//! instead of silently-wrong tallies. The carrier is JSON through the
//! workspace's own strict parser rather than a binary stream — a
//! checkpoint is small, human-inspectable state, not bulk data:
//!
//! ```text
//! {"magic": "ICRC", "version": 1, "fingerprint": F,
//!  "digest": D,
//!  "payload": {"shard": s, "start": a, "end": b,
//!              "cells": [{"scheme": "...", "app": "...",
//!                         "trials": n, "counts": [c0, ..., c7]}, ...]}}
//! ```
//!
//! `digest` is FNV-1a over the **canonical compact serialization** of
//! the payload value (`Value::to_json`), which the strict parser
//! round-trips byte-exactly — so any mutation of the payload, however
//! small, is caught. `fingerprint` is FNV-1a over a canonical rendering
//! of every spec field that affects trial outcomes; a checkpoint
//! written by a different spec (other seed, other schemes, other shard
//! geometry) is rejected before its tallies can contaminate a resume.
//!
//! Files are written through the hardened [`crate::json::write_output`]
//! (fsync + atomic rename + directory fsync), so a SIGKILL at any
//! point leaves each shard file either complete and verifiable or
//! absent — never truncated under its final name. A file that fails
//! verification anyway (bit rot, hand editing) is **quarantined**:
//! renamed aside with [`quarantine`] and its shard re-run, never
//! silently trusted or deleted.

use crate::json::{self, arr, count, number, obj, text, Value};
use icr_core::{ErrorOutcome, OutcomeTally, WeightedTally};
use std::io;
use std::path::{Path, PathBuf};

/// First header field of every checkpoint document.
pub const MAGIC: &str = "ICRC";
/// Current checkpoint format version.
pub const VERSION: u64 = 1;

/// FNV-1a over `bytes` — the digest the `.icrt` trace format uses.
pub use icr_trace::disk::fnv1a64;

/// Why a checkpoint file was rejected. Every rejection leads to the
/// file being quarantined and its shard re-run.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure reading the file.
    Io(io::Error),
    /// The document is not valid JSON.
    Parse(String),
    /// The document does not start with the `ICRC` magic.
    BadMagic,
    /// Header names a version this reader does not speak.
    UnsupportedVersion(u64),
    /// The checkpoint was written by a different campaign spec.
    FingerprintMismatch {
        /// Fingerprint of the resuming spec.
        expected: u64,
        /// Fingerprint recorded in the file.
        found: u64,
    },
    /// Payload digest does not match the header.
    DigestMismatch {
        /// Digest the header promised.
        expected: u64,
        /// Digest the payload actually hashes to.
        found: u64,
    },
    /// The payload parses but does not have the expected shape.
    BadShape(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "i/o: {e}"),
            CheckpointError::Parse(e) => write!(f, "not valid JSON: {e}"),
            CheckpointError::BadMagic => write!(f, "missing {MAGIC:?} magic"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported version {v} (reader speaks {VERSION})")
            }
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "spec fingerprint {found:#018x} does not match this campaign's {expected:#018x}"
            ),
            CheckpointError::DigestMismatch { expected, found } => write!(
                f,
                "payload digest {found:#018x} does not match header {expected:#018x}"
            ),
            CheckpointError::BadShape(e) => write!(f, "malformed payload: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// One cell's contribution to one shard: the outcome tally of the
/// trials of the shard's range this cell actually ran (none when it was
/// already stopped).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCellState {
    /// Scheme name, as [`icr_core::Scheme::name`] renders it.
    pub scheme: String,
    /// Workload name.
    pub app: String,
    /// The outcomes of the trials of this shard the cell executed; its
    /// `total()` is their number.
    pub tally: OutcomeTally,
    /// Importance-sampling weight sums for the same trials. `Some`
    /// exactly when the campaign ran in importance mode; uniform
    /// checkpoints carry no extra fields, keeping their bytes (and
    /// digests) identical to earlier releases. Serialised as the
    /// per-outcome `"weights"` / `"weight_squares"` arrays, printed
    /// with Rust's shortest-round-trip `f64` formatting so a restore
    /// recovers the exact bits.
    pub weighted: Option<WeightedTally>,
}

/// The durable record of one completed shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// Shard index (shards are contiguous trial ranges, run in order).
    pub shard: u64,
    /// First per-cell trial index the shard covers.
    pub start: u64,
    /// One past the last per-cell trial index.
    pub end: u64,
    /// One entry per campaign cell, in spec (schemes × apps) order.
    pub cells: Vec<ShardCellState>,
}

impl ShardCheckpoint {
    /// Canonical file name for this shard inside a checkpoint directory.
    pub fn file_name(shard: u64) -> String {
        format!("shard-{shard:05}.json")
    }

    /// The payload as a canonical [`Value`] — the bytes the digest
    /// covers are exactly `self.payload_value().to_json()`.
    fn payload_value(&self) -> Value {
        let cells = self.cells.iter().map(|c| {
            let weighted = c.weighted.as_ref().map(|w| {
                [
                    ("weights", arr(w.weights().map(number))),
                    ("weight_squares", arr(w.weight_squares().map(number))),
                ]
            });
            obj([
                ("scheme", text(&c.scheme)),
                ("app", text(&c.app)),
                ("trials", count(c.tally.total())),
                ("counts", arr(c.tally.counts().map(count))),
            ]
            .into_iter()
            .chain(weighted.into_iter().flatten()))
        });
        obj([
            ("shard", count(self.shard)),
            ("start", count(self.start)),
            ("end", count(self.end)),
            ("cells", arr(cells)),
        ])
    }

    /// Serialises the full checkpoint document (header + payload).
    pub fn to_json(&self, fingerprint: u64) -> String {
        let payload = self.payload_value();
        let digest = fnv1a64(payload.to_json().as_bytes());
        obj([
            ("magic", text(MAGIC)),
            ("version", count(VERSION)),
            ("fingerprint", count(fingerprint)),
            ("digest", count(digest)),
            ("payload", payload),
        ])
        .to_json()
    }
}

fn get_u64(v: &Value, key: &str) -> Result<u64, CheckpointError> {
    match v.get(key) {
        Some(Value::Num(tok)) => tok
            .parse()
            .map_err(|_| CheckpointError::BadShape(format!("{key:?} is not a u64: {tok}"))),
        _ => Err(CheckpointError::BadShape(format!("missing number {key:?}"))),
    }
}

fn get_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, CheckpointError> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s),
        _ => Err(CheckpointError::BadShape(format!("missing string {key:?}"))),
    }
}

fn get_f64_array(v: &Value, key: &str) -> Result<[f64; ErrorOutcome::ALL.len()], CheckpointError> {
    let Some(Value::Arr(values)) = v.get(key) else {
        return Err(CheckpointError::BadShape(format!("missing array {key:?}")));
    };
    if values.len() != ErrorOutcome::ALL.len() {
        return Err(CheckpointError::BadShape(format!(
            "{key:?} has {} entries, expected {}",
            values.len(),
            ErrorOutcome::ALL.len()
        )));
    }
    let mut out = [0.0; ErrorOutcome::ALL.len()];
    for (slot, value) in out.iter_mut().zip(values) {
        let Value::Num(tok) = value else {
            return Err(CheckpointError::BadShape(format!(
                "{key:?} entry is not a number"
            )));
        };
        *slot = tok.parse().map_err(|_| {
            CheckpointError::BadShape(format!("{key:?} entry is not an f64: {tok}"))
        })?;
    }
    Ok(out)
}

/// Writes `ckpt` durably into `dir` under its canonical name and
/// returns the path. Goes through the hardened atomic
/// [`json::write_output`], so a crash cannot leave a truncated file
/// under the final name.
pub fn write_shard(dir: &Path, fingerprint: u64, ckpt: &ShardCheckpoint) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(ShardCheckpoint::file_name(ckpt.shard));
    let path_str = path
        .to_str()
        .ok_or_else(|| io::Error::other("checkpoint path is not UTF-8"))?;
    json::write_output(&ckpt.to_json(fingerprint), path_str)?;
    Ok(path)
}

/// Reads and fully verifies one shard checkpoint: JSON shape, magic,
/// version, spec fingerprint, payload digest. Returns the decoded
/// checkpoint only when every check passes.
pub fn read_shard(path: &Path, fingerprint: u64) -> Result<ShardCheckpoint, CheckpointError> {
    let text = std::fs::read_to_string(path)?;
    let doc = json::parse(&text).map_err(CheckpointError::Parse)?;
    if get_str(&doc, "magic")? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = get_u64(&doc, "version")?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let found_fp = get_u64(&doc, "fingerprint")?;
    if found_fp != fingerprint {
        return Err(CheckpointError::FingerprintMismatch {
            expected: fingerprint,
            found: found_fp,
        });
    }
    let expected_digest = get_u64(&doc, "digest")?;
    let payload = doc
        .get("payload")
        .ok_or_else(|| CheckpointError::BadShape("missing \"payload\"".into()))?;
    let found_digest = fnv1a64(payload.to_json().as_bytes());
    if found_digest != expected_digest {
        return Err(CheckpointError::DigestMismatch {
            expected: expected_digest,
            found: found_digest,
        });
    }

    let shard = get_u64(payload, "shard")?;
    let start = get_u64(payload, "start")?;
    let end = get_u64(payload, "end")?;
    if end < start {
        return Err(CheckpointError::BadShape(format!(
            "shard range [{start}, {end}) is inverted"
        )));
    }
    let Some(Value::Arr(cell_values)) = payload.get("cells") else {
        return Err(CheckpointError::BadShape("missing \"cells\" array".into()));
    };
    let mut cells = Vec::with_capacity(cell_values.len());
    for cv in cell_values {
        let Some(Value::Arr(count_values)) = cv.get("counts") else {
            return Err(CheckpointError::BadShape("cell missing \"counts\"".into()));
        };
        if count_values.len() != ErrorOutcome::ALL.len() {
            return Err(CheckpointError::BadShape(format!(
                "cell has {} counts, expected {}",
                count_values.len(),
                ErrorOutcome::ALL.len()
            )));
        }
        let mut counts = [0u64; ErrorOutcome::ALL.len()];
        for (slot, v) in counts.iter_mut().zip(count_values) {
            let Value::Num(tok) = v else {
                return Err(CheckpointError::BadShape("count is not a number".into()));
            };
            *slot = tok
                .parse()
                .map_err(|_| CheckpointError::BadShape(format!("count is not a u64: {tok}")))?;
        }
        let trials = get_u64(cv, "trials")?;
        let tally = OutcomeTally::from_counts(counts);
        if tally.total() != trials {
            return Err(CheckpointError::BadShape(format!(
                "cell records {trials} trials but counts sum to {}",
                tally.total()
            )));
        }
        let weighted = match (
            cv.get("weights").is_some(),
            cv.get("weight_squares").is_some(),
        ) {
            (false, false) => None,
            (true, true) => {
                let w = WeightedTally::from_parts(
                    get_f64_array(cv, "weights")?,
                    get_f64_array(cv, "weight_squares")?,
                );
                // The restored sums must satisfy every invariant the
                // recorder maintains; a violation means the weighted
                // data cannot have come from this campaign's trials,
                // even though the digest matched the file contents.
                w.check_consistent(&tally)
                    .map_err(CheckpointError::BadShape)?;
                Some(w)
            }
            _ => {
                return Err(CheckpointError::BadShape(
                    "\"weights\" and \"weight_squares\" must appear together".into(),
                ))
            }
        };
        cells.push(ShardCellState {
            scheme: get_str(cv, "scheme")?.to_string(),
            app: get_str(cv, "app")?.to_string(),
            tally,
            weighted,
        });
    }
    Ok(ShardCheckpoint {
        shard,
        start,
        end,
        cells,
    })
}

/// Scans `dir` for shard checkpoint files (`shard-NNNNN.json`, nothing
/// else — temp files and quarantined files are ignored) and returns
/// `(shard index, path)` pairs sorted by shard index. A missing
/// directory scans as empty.
pub fn scan_dir(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(index) = name
            .strip_prefix("shard-")
            .and_then(|rest| rest.strip_suffix(".json"))
        else {
            continue;
        };
        if index.len() == 5 && index.bytes().all(|b| b.is_ascii_digit()) {
            found.push((index.parse().expect("five digits"), entry.path()));
        }
    }
    found.sort_by_key(|(i, _)| *i);
    Ok(found)
}

/// Renames a failed checkpoint aside (never deletes it): the evidence
/// stays on disk as `<name>.quarantined` (or `.quarantined.N` when
/// earlier quarantines exist) while the shard re-runs from its seeds.
/// Returns the quarantine path.
pub fn quarantine(path: &Path) -> io::Result<PathBuf> {
    let base = format!(
        "{}.quarantined",
        path.file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| io::Error::other("checkpoint path has no file name"))?
    );
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let mut candidate = dir.join(&base);
    let mut n = 0u32;
    while candidate.exists() {
        n += 1;
        candidate = dir.join(format!("{base}.{n}"));
    }
    std::fs::rename(path, &candidate)?;
    Ok(candidate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShardCheckpoint {
        let mut tally = OutcomeTally::default();
        tally.record(ErrorOutcome::CorrectedByReplica);
        tally.record(ErrorOutcome::Masked);
        tally.record(ErrorOutcome::NotInjected);
        ShardCheckpoint {
            shard: 3,
            start: 30,
            end: 40,
            cells: vec![
                ShardCellState {
                    scheme: "icr-p-ps-s".into(),
                    app: "gzip".into(),
                    tally,
                    weighted: None,
                },
                ShardCellState {
                    scheme: "basep".into(),
                    app: "gcc".into(),
                    tally: OutcomeTally::default(),
                    weighted: None,
                },
            ],
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("icr_ckpt_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = scratch("roundtrip");
        let ckpt = sample();
        let path = write_shard(&dir, 77, &ckpt).unwrap();
        assert_eq!(path.file_name().unwrap().to_str(), Some("shard-00003.json"));
        let back = read_shard(&path, 77).unwrap();
        assert_eq!(back, ckpt);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn weighted_checkpoints_round_trip_to_exact_bits() {
        let dir = scratch("weighted");
        let mut ckpt = sample();
        let mut w = WeightedTally::default();
        w.record(ErrorOutcome::CorrectedByReplica, 0.371_428_571_428_571_4);
        w.record(ErrorOutcome::Masked, 2.25);
        w.record(ErrorOutcome::NotInjected, 1.0);
        ckpt.cells[0].weighted = Some(w);
        ckpt.cells[1].weighted = Some(WeightedTally::default());
        let path = write_shard(&dir, 77, &ckpt).unwrap();
        let back = read_shard(&path, 77).unwrap();
        // PartialEq over the f64 sums: shortest-round-trip formatting
        // must restore the exact bits, not an approximation.
        assert_eq!(back, ckpt);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inconsistent_weight_sums_are_rejected_despite_a_valid_digest() {
        // write_shard persists whatever it is given (the digest covers
        // the bytes, not their meaning); read_shard must still refuse
        // weight sums no sequence of recorded trials can produce.
        let dir = scratch("badweights");
        let mut ckpt = sample();
        ckpt.cells[0].weighted = Some(WeightedTally::from_parts(
            [5.0; ErrorOutcome::ALL.len()],
            [0.5; ErrorOutcome::ALL.len()],
        ));
        ckpt.cells[1].weighted = Some(WeightedTally::default());
        let path = write_shard(&dir, 77, &ckpt).unwrap();
        assert!(matches!(
            read_shard(&path, 77),
            Err(CheckpointError::BadShape(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_wrong_fingerprint_and_version() {
        let dir = scratch("fp");
        let path = write_shard(&dir, 77, &sample()).unwrap();
        assert!(matches!(
            read_shard(&path, 78),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
        let doc = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"version\":1", "\"version\":9");
        std::fs::write(&path, doc).unwrap();
        assert!(matches!(
            read_shard(&path, 77),
            Err(CheckpointError::UnsupportedVersion(9))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn any_payload_mutation_trips_the_digest() {
        let dir = scratch("digest");
        let path = write_shard(&dir, 77, &sample()).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        // Flip one tally count inside the payload.
        let mutated = doc.replacen("\"trials\":3", "\"trials\":4", 1);
        assert_ne!(doc, mutated, "mutation must hit");
        std::fs::write(&path, mutated).unwrap();
        assert!(matches!(
            read_shard(&path, 77),
            Err(CheckpointError::DigestMismatch { .. })
        ));
        // Truncation is caught by the parser.
        std::fs::write(&path, &doc[..doc.len() / 2]).unwrap();
        assert!(matches!(
            read_shard(&path, 77),
            Err(CheckpointError::Parse(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_finds_only_canonical_shard_files() {
        let dir = scratch("scan");
        write_shard(&dir, 1, &sample()).unwrap();
        let mut other = sample();
        other.shard = 0;
        write_shard(&dir, 1, &other).unwrap();
        // Distractors a SIGKILL or a quarantine could leave behind.
        std::fs::write(dir.join("shard-00007.json.tmp.1234"), "junk").unwrap();
        std::fs::write(dir.join("shard-00008.json.quarantined"), "junk").unwrap();
        std::fs::write(dir.join("notes.txt"), "junk").unwrap();
        let found = scan_dir(&dir).unwrap();
        let indices: Vec<u64> = found.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, vec![0, 3]);
        assert!(scan_dir(&dir.join("missing")).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_renames_and_never_overwrites() {
        let dir = scratch("quarantine");
        let path = write_shard(&dir, 77, &sample()).unwrap();
        let q1 = quarantine(&path).unwrap();
        assert!(!path.exists());
        assert!(q1.exists());
        write_shard(&dir, 77, &sample()).unwrap();
        let q2 = quarantine(&path).unwrap();
        assert_ne!(q1, q2, "second quarantine picks a fresh name");
        assert!(q1.exists() && q2.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
