//! The one record writer behind every tracked `BENCH_*.json`, plus the
//! helpers the standalone benches in `benches/` share.
//!
//! Each record has one schema, emitted by [`Value::to_json`]:
//! `{bench, commit, metric, value, unit, peak_rss_mb, params, rows,
//! history}`. `value` is the bench's headline number (`metric`, in
//! `unit`), `commit` is `git describe --always --dirty` (`local` without
//! git), `peak_rss_mb` the process's `VmHWM` (`null` without
//! `/proc/self/status`), and `history` the last 20 `{commit, value,
//! peak_rss_mb}` entries, this run's last. A bench's gate runs before
//! anything is written, so a failing gate leaves the previous record,
//! its baseline, byte-identical. Records go to the repository root, or
//! to the directory named by `ICR_BENCH_OUT`.

use icr_sim::json::{self, number, obj, text, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// History entries a record keeps; the oldest are dropped first.
const HISTORY_KEEP: usize = 20;

/// How far the `all` bench's cold total may exceed the committed
/// `value`, in percent, before [`cold_time_gate`] fails.
pub const GATE_PCT: f64 = 20.0;

/// One bench run, before the commit, peak RSS and history are attached.
pub struct Record {
    /// Bench name; the record is saved as `BENCH_<bench>.json`.
    pub bench: &'static str,
    /// What `value` measures, e.g. `total_cold_s`.
    pub metric: &'static str,
    /// The headline number, the one the history tracks.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The run's fixed inputs, as an object.
    pub params: Value,
    /// Per-item detail: one object per figure, leg, cell, kernel or app.
    pub rows: Vec<Value>,
}

impl Record {
    /// Hands `gate` the previous record's `value` from `dir` and, only
    /// if it passes, writes this record to `dir/BENCH_<bench>.json`
    /// with the previous history carried forward.
    fn save(
        self,
        dir: &Path,
        gate: impl FnOnce(Option<f64>) -> Result<(), String>,
    ) -> Result<PathBuf, String> {
        let path = dir.join(format!("BENCH_{}.json", self.bench));
        let err = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
        let prev = match std::fs::read_to_string(&path) {
            Ok(doc) => json::parse(&doc).map_err(|e| err(&e))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Value::Null,
            Err(e) => return Err(err(&e)),
        };
        gate(match prev.get("value") {
            Some(Value::Num(tok)) => tok.parse().ok(),
            _ => None,
        })?;

        let commit = text(&commit());
        let rss = peak_rss_mb().map_or(Value::Null, number);
        let mut history = match prev.get("history") {
            Some(Value::Arr(entries)) => entries.clone(),
            _ => Vec::new(),
        };
        history.push(obj([
            ("commit", commit.clone()),
            ("value", number(self.value)),
            ("peak_rss_mb", rss.clone()),
        ]));
        history.drain(..history.len().saturating_sub(HISTORY_KEEP));
        let doc = obj([
            ("bench", text(self.bench)),
            ("commit", commit),
            ("metric", text(self.metric)),
            ("value", number(self.value)),
            ("unit", text(self.unit)),
            ("peak_rss_mb", rss),
            ("params", self.params),
            ("rows", Value::Arr(self.rows)),
            ("history", Value::Arr(history)),
        ]);
        let target = path.to_str().ok_or_else(|| err(&"not a UTF-8 path"))?;
        json::write_output(&doc.to_json(), target).map_err(|e| err(&e))?;
        Ok(path)
    }
}

/// Saves `record` under the output directory (see the crate docs) and
/// prints where it went. `gate` is handed the previous record's `value`
/// first; if it fails, or the write does, this panics with nothing
/// written.
pub fn finish(record: Record, gate: impl FnOnce(Option<f64>) -> Result<(), String>) {
    let bench = record.bench;
    let dir = std::env::var_os("ICR_BENCH_OUT").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."),
        PathBuf::from,
    );
    match record.save(&dir, gate) {
        Ok(path) => println!("-> {}", path.display()),
        Err(e) => panic!("bench {bench}: {e}"),
    }
}

/// The `all` bench's regression gate: the cold total `total_s` may
/// exceed the committed `baseline` by at most [`GATE_PCT`] percent.
/// With no baseline the gate is skipped.
///
/// # Errors
///
/// The regression, when `total_s` is over the bound.
pub fn cold_time_gate(total_s: f64, baseline: Option<f64>) -> Result<(), String> {
    let Some(base) = baseline else {
        println!("gate skipped: no committed baseline to compare against");
        return Ok(());
    };
    if total_s > base * (1.0 + GATE_PCT / 100.0) {
        return Err(format!(
            "cold-time regression gate: {total_s:.2}s is more than {GATE_PCT}% over \
             the committed baseline {base:.2}s"
        ));
    }
    println!("gate ok: {total_s:.2}s vs baseline {base:.2}s (limit +{GATE_PCT}%)");
    Ok(())
}

/// Runs `f` `reps` times (at least once) and returns the best
/// wall-clock seconds with the last result: the minimum is the standard
/// noise-resistant estimate for a short single-pass measurement.
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = (f64::INFINITY, None);
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let r = f();
        best = (best.0.min(t.elapsed().as_secs_f64()), Some(r));
    }
    (best.0, best.1.expect("ran at least once"))
}

/// A per-process directory under the system temp directory, removed on
/// drop, so concurrent runs never share one and none is left behind.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `icr-bench-<name>-<pid>` under the system temp directory.
    ///
    /// # Errors
    ///
    /// Any error creating the directory.
    pub fn new(name: &str) -> std::io::Result<Self> {
        let dir = std::env::temp_dir().join(format!("icr-bench-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover temp directory is not worth a panic.
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn commit() -> String {
    let git = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output();
    match git {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().into(),
        _ => "local".into(),
    }
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icr_sim::json::count;

    const SCHEMA: [&str; 9] = [
        "bench",
        "commit",
        "metric",
        "value",
        "unit",
        "peak_rss_mb",
        "params",
        "rows",
        "history",
    ];

    fn record(value: f64) -> Record {
        Record {
            bench: "test",
            metric: "total_cold_s",
            value,
            unit: "s",
            params: obj([("instructions", count(200_000u64))]),
            rows: vec![obj([("id", text("fig1")), ("cold_s", number(value / 2.0))])],
        }
    }

    fn pass(_: Option<f64>) -> Result<(), String> {
        Ok(())
    }

    fn keys(doc: &Value) -> Vec<&str> {
        match doc {
            Value::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn history_values(path: &Path) -> Vec<f64> {
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(Value::Arr(history)) = doc.get("history") else {
            panic!("no history in {doc:?}");
        };
        history
            .iter()
            .map(|e| match e.get("value") {
                Some(Value::Num(tok)) => tok.parse().unwrap(),
                other => panic!("history value {other:?}"),
            })
            .collect()
    }

    #[test]
    fn history_carries_forward_and_keeps_the_last_twenty() {
        let dir = ScratchDir::new("test-history").unwrap();
        let path = record(1.0).save(dir.path(), pass).unwrap();
        record(2.0).save(dir.path(), pass).unwrap();
        assert_eq!(history_values(&path), [1.0, 2.0]);

        for v in 3..=25 {
            record(f64::from(v)).save(dir.path(), pass).unwrap();
        }
        let expected: Vec<f64> = (6..=25).map(f64::from).collect();
        assert_eq!(history_values(&path), expected);
    }

    #[test]
    fn record_reserialises_to_identical_bytes_in_the_schema() {
        let dir = ScratchDir::new("test-bytes").unwrap();
        record(12.43).save(dir.path(), pass).unwrap();
        let path = record(f64::NAN).save(dir.path(), pass).unwrap();
        let bytes = std::fs::read_to_string(&path).unwrap();
        let doc = json::parse(&bytes).unwrap();
        assert_eq!(format!("{}\n", doc.to_json()), bytes);
        assert_eq!(keys(&doc), SCHEMA);
        assert_eq!(doc.get("value"), Some(&Value::Null));
    }

    #[test]
    fn failing_gate_leaves_the_record_byte_identical() {
        let dir = ScratchDir::new("test-gate").unwrap();
        let path = record(1.0).save(dir.path(), pass).unwrap();
        let before = std::fs::read(&path).unwrap();
        for _ in 0..2 {
            let err = record(9.22)
                .save(dir.path(), |base| cold_time_gate(9.22, base))
                .unwrap_err();
            assert!(err.contains("regression gate"), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), before);
        }
        // No temp file is left beside the record either.
        assert_eq!(std::fs::read_dir(dir.path()).unwrap().count(), 1);
    }

    #[test]
    fn all_gate_compares_against_the_previous_value() {
        let dir = ScratchDir::new("test-baseline").unwrap();
        record(12.43)
            .save(dir.path(), |base| {
                assert_eq!(base, None);
                cold_time_gate(1e9, base)
            })
            .unwrap();
        let mut seen = None;
        record(14.9)
            .save(dir.path(), |base| {
                seen = base;
                cold_time_gate(14.9, base)
            })
            .unwrap();
        assert_eq!(seen, Some(12.43));
        // The bound is +20% over the value just read back: 14.916s.
        assert!(cold_time_gate(15.0, Some(12.43)).is_err());
    }

    #[test]
    fn tracked_records_share_the_schema() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for bench in ["all", "campaign", "importance", "isa", "spill"] {
            let bytes = std::fs::read_to_string(root.join(format!("BENCH_{bench}.json"))).unwrap();
            let doc = json::parse(&bytes).unwrap();
            assert_eq!(format!("{}\n", doc.to_json()), bytes, "{bench}");
            assert_eq!(keys(&doc), SCHEMA, "{bench}");
            assert_eq!(doc.get("bench"), Some(&text(bench)));
        }
    }
}
