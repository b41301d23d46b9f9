//! End-to-end and per-layer benchmark of the ICR simulator.
//!
//! ```text
//! icr-benchmark --workload <figures|campaign|isa> --seed N --seconds S --trace 0|1
//! icr-benchmark record --out benchmark/digests.txt
//! ```
//!
//! A run is a closed loop of cold iterations lasting `S` seconds. Each
//! iteration is a fresh child process: the engine's run memo and the
//! workload store are process-wide and never evict, so only a new process
//! starts cold. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the best value over
//! iterations of every end-to-end metric (`--trace 0`), or the median
//! over iterations of every per-layer metric (`--trace 1`). `record`
//! rewrites `digests.txt`, the output digests the correctness checks
//! compare against. README.md defines the workloads and every metric.

mod layers;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{input_seed, Workload, SEED_TABLE};

/// End-to-end metrics (`--trace 0`), their units, and whether a higher
/// value is better.
const END_TO_END: [(&str, &str, bool); 6] = [
    ("wall_s", "s", false),
    ("cpu_s", "s", false),
    ("setup_s", "s", false),
    ("peak_rss_mb", "MiB", false),
    ("trials_per_s", "trials/s", true),
    ("sim_minst_per_s", "Minst/s", true),
];

/// Per-layer metrics (`--trace 1`) and their units, layer by layer. One
/// `exp.<figure-id>_s` per figure runner follows them.
const PER_LAYER: [(&str, &str); 64] = [
    ("trace.generate_s", "s"),
    ("trace.generate_ns_per_inst", "ns/inst"),
    ("trace.store.hits", "count"),
    ("trace.store.misses", "count"),
    ("trace.store.resident_mb", "MiB"),
    ("trace.disk.encode_s", "s"),
    ("trace.disk.decode_s", "s"),
    ("trace.disk.bytes_per_inst", "B/inst"),
    ("isa.interpret_s", "s"),
    ("isa.interpret_ns_per_inst", "ns/inst"),
    ("isa.retired", "count"),
    ("sim.runs", "count"),
    ("sim.build_us_per_run", "us/run"),
    ("sim.finish_us_per_run", "us/run"),
    ("cpu.pipeline_s", "s"),
    ("cpu.ns_per_inst", "ns/inst"),
    ("cpu.committed", "count"),
    ("cpu.cycles", "count"),
    ("cpu.ipc", "inst/cycle"),
    ("dl1.loads", "count"),
    ("dl1.stores", "count"),
    ("dl1.load_s", "s"),
    ("dl1.store_s", "s"),
    ("dl1.ns_per_access", "ns/access"),
    ("dl1.miss_rate", "fraction"),
    ("dl1.replication_attempts", "count"),
    ("dl1.replication_ability", "fraction"),
    ("dl1.loads_with_replica", "fraction"),
    ("mem.l2.accesses", "count"),
    ("mem.l2.miss_rate", "fraction"),
    ("mem.memory_reads", "count"),
    ("mem.l2_region.spills", "count"),
    ("il1.fetches", "count"),
    ("il1.fetch_s", "s"),
    ("il1.ns_per_fetch", "ns/fetch"),
    ("il1.miss_rate", "fraction"),
    ("fault.trials", "count"),
    ("fault.advance_calls", "count"),
    ("fault.advance_s", "s"),
    ("fault.injected", "count"),
    ("fault.delivered_frac", "fraction"),
    ("engine.run_hits", "count"),
    ("engine.run_misses", "count"),
    ("engine.hit_ratio", "fraction"),
    ("engine.resident_runs", "count"),
    ("engine.overhead_us_per_run", "us/run"),
    ("exec.threads", "count"),
    ("exec.jobs", "count"),
    ("exec.utilisation", "fraction"),
    ("exec.longest_job_s", "s"),
    ("exec.tail_idle_s", "s"),
    ("campaign.shards", "count"),
    ("campaign.shard_p50_s", "s"),
    ("campaign.trial_p50_ms", "ms"),
    ("campaign.trial_p99_ms", "ms"),
    ("campaign.barrier_idle_s", "s"),
    ("checkpoint.write_ms_per_shard", "ms"),
    ("checkpoint.read_ms_per_shard", "ms"),
    ("checkpoint.bytes_per_shard", "B"),
    ("json.encode_s", "s"),
    ("json.bytes", "B"),
    ("tracing.clock_pair_ns", "ns"),
    ("tracing.overhead_frac", "fraction"),
    ("tracing.unaccounted_frac", "fraction"),
];

/// Scratch space for iterations, relative to the directory the benchmark
/// runs from (the checkout root).
const WORK_DIR: &str = ".bench_work";
/// Fewest untraced iterations a run takes, however long each one lasts.
const MIN_ITERATIONS: usize = 3;
/// No iteration starts once a run is this old, so a run ends well inside
/// three minutes even when the machine is slow.
const LAUNCH_DEADLINE: Duration = Duration::from_secs(100);

/// Every per-layer metric name with its unit, `exp.<id>_s` included.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_owned(), unit))
        .chain(
            icr_sim::experiment::figure_runners()
                .into_iter()
                .map(|(id, _)| (format!("exp.{id}_s"), "s")),
        )
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((first, rest)) if first == "record" => flags(rest).and_then(|f| record(&f)),
        _ => flags(&args).and_then(|f| {
            if f.contains_key("child") {
                workloads::child(&f)
            } else {
                drive(&f)
            }
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("icr-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `--key value` pairs.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_owned(), value.clone());
    }
    Ok(map)
}

/// The value of `--key`, parsed.
pub fn flag<T: std::str::FromStr>(f: &BTreeMap<String, String>, key: &str) -> Result<T, String> {
    let raw = f.get(key).ok_or_else(|| format!("missing --{key}"))?;
    raw.parse()
        .map_err(|_| format!("--{key}: cannot parse {raw:?}"))
}

/// What one iteration reported.
struct Iteration {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    digests: Vec<(String, String)>,
}

/// Runs one cold iteration in a child process and reads its report.
fn iterate(
    workload: Workload,
    seed: u64,
    trace: bool,
    work: &Path,
    spans: Option<&Path>,
    record: bool,
) -> Result<Iteration, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "1", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--work")
        .arg(work);
    if let Some(spans) = spans {
        cmd.arg("--spans").arg(spans);
    }
    if record {
        cmd.args(["--record", "1"]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting an iteration: {e}"))?;
    let _ = std::fs::remove_dir_all(work);
    if !out.status.success() {
        return Err(format!("iteration exited with {}", out.status));
    }
    let mut it = Iteration {
        metrics: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        digests: Vec::new(),
    };
    let mut saw_ops = false;
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        match fields.as_slice() {
            ["metric", name, value] => {
                let v: f64 = value
                    .parse()
                    .map_err(|_| format!("bad metric line {line:?}"))?;
                it.metrics.insert((*name).to_owned(), v);
            }
            ["ops", attempted, failed] => {
                it.attempted = attempted
                    .parse()
                    .map_err(|_| format!("bad line {line:?}"))?;
                it.failed = failed.parse().map_err(|_| format!("bad line {line:?}"))?;
                saw_ops = true;
            }
            ["digest", op, hex] => it.digests.push(((*op).to_owned(), (*hex).to_owned())),
            _ => return Err(format!("unexpected iteration output {line:?}")),
        }
    }
    if !saw_ops {
        return Err("iteration reported no operation counts".into());
    }
    Ok(it)
}

/// A run: cold iterations for `--seconds`, then the result line.
fn drive(f: &BTreeMap<String, String>) -> Result<(), String> {
    let name: String = flag(f, "workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = flag(f, "seed")?;
    let seconds: f64 = flag(f, "seconds")?;
    let trace = match flag::<u8>(f, "trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    let root = PathBuf::from(WORK_DIR).join(format!("{name}-{}", std::process::id()));
    let spans = trace.then(|| {
        PathBuf::from(WORK_DIR)
            .join("spans")
            .join(format!("{name}-seed{seed}.jsonl"))
    });

    let started = Instant::now();
    let min_iterations = if trace { 1 } else { MIN_ITERATIONS };
    let (mut runs, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
    let mut n = 0;
    while n < min_iterations || started.elapsed().as_secs_f64() < seconds {
        if started.elapsed() > LAUNCH_DEADLINE {
            break;
        }
        let work = root.join(format!("iteration-{n}"));
        match iterate(workload, seed, trace, &work, spans.as_deref(), false) {
            Ok(run) => {
                attempted += run.attempted;
                failed += run.failed;
                runs.push(run);
            }
            Err(e) => {
                eprintln!("icr-benchmark: {e}");
                attempted += workload.ops();
                failed += workload.ops();
            }
        }
        n += 1;
    }
    let _ = std::fs::remove_dir_all(&root);
    if runs.is_empty() {
        return Err("no iteration completed".into());
    }

    // Per-layer metrics take the median; end-to-end ones the best value.
    let names: Vec<(String, &str, Option<bool>)> = if trace {
        per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u, None))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u, higher)| (n.to_owned(), u, Some(higher)))
            .collect()
    };
    let mut metrics = Vec::new();
    for (name, unit, higher) in &names {
        let mut values = runs
            .iter()
            .map(|r| r.metrics.get(name).copied())
            .collect::<Option<Vec<f64>>>()
            .ok_or_else(|| format!("an iteration did not report {name}"))?;
        let v = match higher {
            Some(higher) => best(&values, *higher),
            None => median(&mut values),
        };
        if !v.is_finite() {
            return Err(format!("{name} is not finite"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    );
    Ok(())
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The best of `values`: the highest when `higher` is set, else the
/// lowest. Contention from the rest of a shared host only ever slows an
/// iteration, and it comes in phases that last from seconds to minutes,
/// so a run's median moves with the phases it met. Its fastest iteration
/// moves less: it estimates the program on an idle host, and a quiet
/// moment of a few seconds within the run is enough to measure it. See
/// RUNS.md.
pub fn best(values: &[f64], higher: bool) -> f64 {
    let pick = if higher { f64::max } else { f64::min };
    values.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// Regenerates the digest table from one untraced iteration per
/// workload and seed-table entry, once the figures schedule is shown to
/// emit the repository's pinned `icr-exp all` bytes.
fn record(f: &BTreeMap<String, String>) -> Result<(), String> {
    let out: PathBuf = flag(f, "out")?;
    workloads::check_figure_schedule()?;
    let root = PathBuf::from(WORK_DIR).join(format!("record-{}", std::process::id()));
    let mut table = String::from(
        "# workload\tseed\toperation\tFNV-1a digest of its output bytes\n\
         # Regenerate with: icr-benchmark record --out benchmark/digests.txt\n",
    );
    for workload in Workload::ALL {
        for n in 0..SEED_TABLE {
            let run = iterate(workload, n, false, &root.join("iteration"), None, true)?;
            if run.failed > 0 {
                return Err(format!(
                    "{} seed {} failed while recording",
                    workload.name(),
                    input_seed(n)
                ));
            }
            for (op, hex) in run.digests {
                table.push_str(&format!(
                    "{}\t{}\t{op}\t{hex}\n",
                    workload.name(),
                    input_seed(n)
                ));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    std::fs::write(&out, table).map_err(|e| format!("{}: {e}", out.display()))
}
