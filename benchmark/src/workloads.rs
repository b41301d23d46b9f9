//! The three workloads: set-up, the timed phase, and the output checks.
//!
//! Each function runs one cold iteration in a fresh process. Set-up puts
//! every trace the workload simulates into `icr_trace::store::global()`,
//! so the timed phase must add no store miss. Every operation's output is
//! compared with `digests.txt`, the digests recorded from the simulator
//! this benchmark was written against.

use crate::layers::{ratio, Layers, Sample, Spans};
use crate::{best, flag, median};
use icr_core::{DataL1Config, Scheme};
use icr_fault::trial_seed;
use icr_sim::campaign::{CampaignSpec, ShardEvent, ShardedCampaignSpec};
use icr_sim::checkpoint::{self, fnv1a64};
use icr_sim::experiment::figure_runners;
use icr_sim::{Engine, ExpOptions, FaultConfig, FigureResult, JobProgress, Pool, SimConfig};
use icr_trace::apps::{APP_NAMES, ISA_APP_NAMES};
use icr_trace::WorkloadStore;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Benchmark seeds map onto this many input sets, the ones `digests.txt`
/// covers.
pub const SEED_TABLE: u64 = 16;

/// The input seed a benchmark seed selects. Changes are developed on
/// benchmark seed 0 (input seed 1); benchmark seed 8 (input seed 9) is
/// held out, so a claim made on the first must also hold on it.
pub fn input_seed(seed: u64) -> u64 {
    1 + seed % SEED_TABLE
}

/// Instructions per simulated run of `figures` and `campaign`.
const INSTS: u64 = 20_000;
/// `stability` re-runs Figure 12 at the figure seed and four more seeds,
/// each this far apart.
const STABILITY_SEEDS: u64 = 5;
const STABILITY_STRIDE: u64 = 7919;
/// The campaign: four schemes × two apps, with this many trials per cell
/// in shards of `CAMPAIGN_SHARD_SIZE`.
const CAMPAIGN_SCHEMES: [Scheme; 4] = [
    Scheme::BASE_P,
    Scheme::ICR_P_PS_S,
    Scheme::ICR_ECC_PS_S,
    Scheme::ICR_P_PS_S_L2,
];
const CAMPAIGN_APPS: [&str; 2] = ["gzip", "mcf"];
const CAMPAIGN_TRIALS_PER_CELL: u64 = 64;
const CAMPAIGN_SHARD_SIZE: u64 = 16;
const MIB: f64 = 1024.0 * 1024.0;

/// The ten paper presets plus the two spill descriptors.
fn isa_schemes() -> Vec<Scheme> {
    let mut schemes = Scheme::all_paper_schemes();
    schemes.extend([Scheme::ICR_P_PS_S_L2, Scheme::ICR_ECC_PS_S_L2]);
    schemes
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold regeneration of the 29 figure runners behind `icr-exp all`.
    /// Why: this is what a paper reproducer runs, and the only workload
    /// with run-memo hits, figure-level scheduling, fault storms,
    /// scrubbing and write-through dL1s.
    Figures,
    /// A uniform single-fault campaign (auto fault rate, oracle on), run
    /// sharded with a checkpoint per shard. Why: many short faulted runs,
    /// so per-run set-up, memo insertion, fault injection, recovery and
    /// checkpoint writes weigh most, and trace supply does nothing after
    /// set-up.
    Campaign,
    /// The seven RV32IM kernels interpreted, round-tripped through `.icrt`
    /// and simulated fault-free under twelve schemes. Why: the only
    /// workload that runs the interpreter and the trace codec, and its few
    /// long runs make per-instruction core and dL1 cost dominate.
    Isa,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Figures, Workload::Campaign, Workload::Isa];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::Campaign => "campaign",
            Workload::Isa => "isa",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations one iteration attempts: figures, shards, or kernel ×
    /// scheme cells.
    pub fn ops(self) -> u64 {
        match self {
            Workload::Figures => figure_runners().len() as u64,
            Workload::Campaign => CAMPAIGN_TRIALS_PER_CELL.div_ceil(CAMPAIGN_SHARD_SIZE),
            Workload::Isa => (ISA_APP_NAMES.len() * isa_schemes().len()) as u64,
        }
    }
}

const DIGESTS: &str = include_str!("../digests.txt");

/// The recorded digest of every operation of `workload` at input `seed`.
fn recorded(workload: Workload, seed: u64) -> HashMap<String, u64> {
    DIGESTS
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| match line.split('\t').collect::<Vec<_>>()[..] {
            [w, s, op, hex] if w == workload.name() && s.parse() == Ok(seed) => {
                Some((op.to_owned(), u64::from_str_radix(hex, 16).ok()?))
            }
            _ => None,
        })
        .collect()
}

/// Everything one iteration measures and checks.
struct Ctx {
    workload: Workload,
    seed: u64,
    trace: bool,
    record: bool,
    threads: usize,
    work: PathBuf,
    expected: HashMap<String, u64>,
    metrics: Vec<(&'static str, f64)>,
    layers: Layers,
    spans: Spans,
    attempted: u64,
    failed: u64,
    /// Set when a whole-iteration check fails: then every operation
    /// counts as failed.
    spoiled: bool,
    digests: Vec<(String, u64)>,
}

impl Ctx {
    /// Counts one operation: its output digest, or why it has none.
    fn op(&mut self, op: &str, output: Result<u64, String>) {
        self.attempted += 1;
        let ok = match output {
            Ok(digest) => self.check(op, digest),
            Err(why) => {
                eprintln!("{}: {op}: {why}", self.workload.name());
                false
            }
        };
        self.failed += u64::from(!ok);
    }

    /// `true` when `digest` is the recorded output of `what` (always,
    /// while recording).
    fn check(&mut self, what: &str, digest: u64) -> bool {
        self.digests.push((what.to_owned(), digest));
        if self.record {
            return true;
        }
        match self.expected.get(what) {
            Some(&recorded) if recorded == digest => true,
            Some(&recorded) => {
                eprintln!(
                    "{}: {what}: output digest {digest:016x}, recorded {recorded:016x}",
                    self.workload.name()
                );
                false
            }
            None => {
                eprintln!(
                    "{}: {what}: no digest recorded for input seed {}",
                    self.workload.name(),
                    self.seed
                );
                false
            }
        }
    }

    fn spoil(&mut self, why: &str) {
        eprintln!("{}: {why}", self.workload.name());
        self.spoiled = true;
    }

    /// The end-to-end metrics of the timed phase, and the store and
    /// engine counters as it left them.
    fn timed_metrics(&mut self, setup_s: f64, t: &Timed, runs: f64, insts: f64) {
        self.metrics.extend([
            ("wall_s", t.wall),
            ("cpu_s", t.cpu),
            ("setup_s", setup_s),
            ("trials_per_s", runs / t.wall),
            ("sim_minst_per_s", insts / t.wall / 1e6),
        ]);
        if t.new_misses > 0 {
            self.spoil(&format!(
                "the timed phase materialised {} traces that set-up missed",
                t.new_misses
            ));
        }
        let store = icr_trace::store::global();
        let runs_seen = (t.run_hits + t.run_misses) as f64;
        for (name, value) in [
            ("trace.store.hits", store.hits() as f64),
            ("trace.store.misses", store.misses() as f64),
            (
                "trace.store.resident_mb",
                store.resident_bytes() as f64 / MIB,
            ),
            ("engine.run_hits", t.run_hits as f64),
            ("engine.run_misses", t.run_misses as f64),
            ("engine.hit_ratio", ratio(t.run_hits as f64, runs_seen)),
            (
                "engine.resident_runs",
                Engine::global().cached_runs() as f64,
            ),
        ] {
            self.layers.set(name, value);
        }
    }

    /// Scheduler metrics from each job's (completion offset, run time).
    fn exec_metrics(&mut self, wall: f64, jobs: &[(f64, f64)]) {
        let busy: f64 = jobs.iter().map(|j| j.1).sum();
        let mut ends: Vec<f64> = jobs.iter().map(|j| j.0).collect();
        ends.sort_by(f64::total_cmp);
        // Each worker idles from the end of its last job to the end of
        // the phase, and the last `threads` completions are those jobs.
        let tail: f64 = ends.iter().rev().take(self.threads).map(|e| wall - e).sum();
        for (name, value) in [
            ("exec.threads", self.threads as f64),
            ("exec.jobs", jobs.len() as f64),
            ("exec.utilisation", ratio(busy, wall * self.threads as f64)),
            (
                "exec.longest_job_s",
                jobs.iter().map(|j| j.1).fold(0.0, f64::max),
            ),
            ("exec.tail_idle_s", tail),
        ] {
            self.layers.set(name, value);
        }
    }

    fn json_metrics(&mut self, encode_s: f64, bytes: usize) {
        self.layers.set("json.encode_s", encode_s);
        self.layers.set("json.bytes", bytes as f64);
    }

    /// Traces `configs` cell by cell under a `sample` span.
    fn sample(&mut self, root: usize, configs: &[SimConfig]) -> Sample {
        let start = Instant::now();
        let span = self.spans.add("sample", Some(root), start, start);
        let mut sample = Sample::default();
        for cfg in configs {
            sample.trace(cfg, &mut self.spans, span);
        }
        self.spans.end(span, Instant::now());
        sample.emit(&mut self.layers);
        for failure in &sample.failures {
            eprintln!("{}: traced: {failure}", self.workload.name());
        }
        if !sample.failures.is_empty() {
            self.spoil("traced cells failed the fidelity check");
        }
        sample
    }
}

/// Clock ticks per second of the CPU times in `/proc/self/stat`.
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU ticks of this process so far, from
/// `/proc/self/stat` (fields 14 and 15).
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    ticks(11) + ticks(12)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The state a timed phase starts from.
struct Phase {
    t0: Instant,
    cpu0: u64,
    misses0: u64,
    hits0: u64,
    runs_missed0: u64,
}

/// What a timed phase did.
struct Timed {
    start: Instant,
    wall: f64,
    cpu: f64,
    new_misses: u64,
    run_hits: u64,
    run_misses: u64,
}

impl Phase {
    fn start() -> Self {
        let engine = Engine::global().stats();
        Phase {
            cpu0: cpu_ticks(),
            misses0: icr_trace::store::global().misses(),
            hits0: engine.run_hits,
            runs_missed0: engine.run_misses,
            t0: Instant::now(),
        }
    }

    fn since(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn end(self) -> Timed {
        let wall = self.since();
        let cpu = (cpu_ticks() - self.cpu0) as f64 / TICKS_PER_S;
        let engine = Engine::global().stats();
        Timed {
            start: self.t0,
            wall,
            cpu,
            new_misses: icr_trace::store::global().misses() - self.misses0,
            run_hits: engine.run_hits - self.hits0,
            run_misses: engine.run_misses - self.runs_missed0,
        }
    }
}

impl Timed {
    fn at(&self, offset_s: f64) -> Instant {
        self.start + Duration::from_secs_f64(offset_s.max(0.0))
    }
}

/// Simulation threads an iteration may use: one per core.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One iteration, in the child process a run started.
pub fn child(f: &BTreeMap<String, String>) -> Result<(), String> {
    let name: String = flag(f, "workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = input_seed(flag(f, "seed")?);
    let mut ctx = Ctx {
        workload,
        seed,
        trace: flag::<u8>(f, "trace")? == 1,
        record: f.contains_key("record"),
        threads: nproc(),
        work: flag(f, "work")?,
        expected: recorded(workload, seed),
        metrics: Vec::new(),
        layers: Layers::new(),
        spans: Spans::new(),
        attempted: 0,
        failed: 0,
        spoiled: false,
        digests: Vec::new(),
    };
    let start = Instant::now();
    let root = ctx
        .spans
        .add(&format!("workload:{name}"), None, start, start);
    match workload {
        Workload::Figures => figures(&mut ctx, root),
        Workload::Campaign => campaign(&mut ctx, root),
        Workload::Isa => isa(&mut ctx, root),
    }
    ctx.spans.end(root, Instant::now());
    ctx.metrics.push(("peak_rss_mb", peak_rss_mib()));

    let failed = if ctx.spoiled {
        ctx.attempted
    } else {
        ctx.failed
    };
    let mut out = String::new();
    for (name, value) in &ctx.metrics {
        out.push_str(&format!("metric\t{name}\t{value}\n"));
    }
    for (name, value) in ctx.layers.iter() {
        out.push_str(&format!("metric\t{name}\t{value}\n"));
    }
    for (op, digest) in &ctx.digests {
        out.push_str(&format!("digest\t{op}\t{digest:016x}\n"));
    }
    out.push_str(&format!("ops\t{}\t{failed}\n", ctx.attempted));
    print!("{out}");
    if let Some(path) = f.get("spans") {
        ctx.spans
            .write(Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// Synthetic set-ups per iteration. All but the last fill a private store
/// that is dropped at once; the last fills the store the timed phase
/// reads. The fastest of them is `setup_s`, which keeps a few-millisecond
/// set-up steady.
const SETUP_REPEATS: usize = 5;

/// Materialises `keys` into the workload store; returns the fastest
/// set-up time.
fn generate(ctx: &mut Ctx, root: usize, keys: &[(&str, u64)]) -> f64 {
    let fill = |store: &WorkloadStore| {
        let t = Instant::now();
        let generated: usize = keys
            .iter()
            .map(|&(app, seed)| store.get(app, seed, INSTS).len())
            .sum();
        (t.elapsed().as_secs_f64(), generated)
    };
    let start = Instant::now();
    let mut times: Vec<f64> = (1..SETUP_REPEATS)
        .map(|_| fill(&WorkloadStore::new()).0)
        .collect();
    let (last, generated) = fill(icr_trace::store::global());
    times.push(last);
    let setup_s = best(&times, false);
    ctx.spans.add("setup", Some(root), start, Instant::now());
    ctx.layers.set("trace.generate_s", setup_s);
    ctx.layers.set(
        "trace.generate_ns_per_inst",
        ratio(setup_s * 1e9, generated as f64),
    );
    setup_s
}

/// The figures schedule: one job per runner on a `threads`-wide pool,
/// each runner fanning its cells out over one thread, so at most
/// `threads` simulations run at once. A runner that panics yields `Err`.
fn run_figures(
    opts: ExpOptions,
    threads: usize,
    observe: impl FnMut(&JobProgress),
) -> Vec<(&'static str, std::thread::Result<FigureResult>)> {
    Pool::new(threads).run_observed(
        figure_runners(),
        |(id, run)| (id, catch_unwind(move || run(&opts))),
        observe,
    )
}

/// The budget, seed and digest at which the repository pins the
/// `icr-exp all --json` document (`crates/icr-sim/tests/golden_figures.rs`).
/// The pin was made with the default schedule, where each runner uses
/// every core.
const GOLDEN_ALL: (u64, u64, u64) = (3_000, 42, 0x0e9b_bc95_d77e_6ac3);

/// Checks that the figures schedule reproduces the pinned document, so
/// the digests recorded under it are the bytes `icr-exp all` emits.
pub fn check_figure_schedule() -> Result<(), String> {
    let (instructions, seed, pinned) = GOLDEN_ALL;
    let opts = ExpOptions {
        instructions,
        seed,
        threads: 1,
    };
    let figures = run_figures(opts, nproc(), |_| {})
        .into_iter()
        .map(|(id, r)| r.map(|f| f.to_json()).map_err(|_| format!("{id} panicked")))
        .collect::<Result<Vec<_>, _>>()?;
    let digest = fnv1a64(format!("[\n{}\n]", figures.join(",\n")).as_bytes());
    if digest == pinned {
        Ok(())
    } else {
        Err(format!(
            "the figures schedule emits icr-exp all digest {digest:016x}, the repository pins {pinned:016x}"
        ))
    }
}

fn figures(ctx: &mut Ctx, root: usize) {
    let opts = ExpOptions {
        instructions: INSTS,
        seed: ctx.seed,
        threads: 1,
    };
    // Set-up: the eight apps at the figure seed and at the four seeds
    // `stability` adds.
    let keys: Vec<(&str, u64)> = (0..STABILITY_SEEDS)
        .flat_map(|k| {
            let seed = opts.seed.wrapping_add(k.wrapping_mul(STABILITY_STRIDE));
            APP_NAMES.map(|app| (app, seed))
        })
        .collect();
    let setup_s = generate(ctx, root, &keys);

    let phase = Phase::start();
    let mut jobs = Vec::new();
    let results = run_figures(opts, ctx.threads, |p| {
        jobs.push((p.index, phase.since(), p.elapsed.as_secs_f64()))
    });
    let timed = phase.end();
    // Every figure run commits its whole budget: synthetic traces are
    // never short, so memo hits count as delivered instructions too.
    let runs = (timed.run_hits + timed.run_misses) as f64;
    ctx.timed_metrics(setup_s, &timed, runs, runs * INSTS as f64);

    let timed_span = ctx
        .spans
        .add("timed", Some(root), timed.start, timed.at(timed.wall));
    let runners = figure_runners();
    let mut job_times = Vec::new();
    for &(index, end, elapsed) in &jobs {
        let id = runners[index].0;
        ctx.layers.set(&format!("exp.{id}_s"), elapsed);
        ctx.spans.add(
            &format!("figure:{id}"),
            Some(timed_span),
            timed.at(end - elapsed),
            timed.at(end),
        );
        job_times.push((end, elapsed));
    }
    ctx.exec_metrics(timed.wall, &job_times);

    let (mut encode_s, mut bytes) = (0.0, 0);
    for (id, result) in results {
        let output = match result {
            Ok(figure) => {
                let t = Instant::now();
                let json = figure.to_json();
                encode_s += t.elapsed().as_secs_f64();
                bytes += json.len();
                Ok(fnv1a64(json.as_bytes()))
            }
            Err(_) => Err("the runner panicked".to_owned()),
        };
        ctx.op(id, output);
    }
    ctx.json_metrics(encode_s, bytes);

    if ctx.trace {
        // The runners build their cells internally, so the traced sample
        // is the ten paper presets over the eight apps.
        let configs: Vec<SimConfig> = Scheme::all_paper_schemes()
            .into_iter()
            .flat_map(|scheme| {
                APP_NAMES.map(|app| {
                    SimConfig::paper(app, DataL1Config::paper_default(scheme), INSTS, opts.seed)
                })
            })
            .collect();
        ctx.sample(root, &configs);
    }
}

fn campaign_spec(seed: u64, threads: usize) -> ShardedCampaignSpec {
    let mut base = CampaignSpec::new(
        CAMPAIGN_SCHEMES.to_vec(),
        CAMPAIGN_APPS.map(String::from).to_vec(),
        CAMPAIGN_TRIALS_PER_CELL,
        seed,
    );
    base.instructions = INSTS;
    base.threads = threads;
    ShardedCampaignSpec::new(base, CAMPAIGN_SHARD_SIZE)
}

/// The configuration the sharded campaign simulates for `trial` of cell
/// `cell` (cells run scheme-major over the apps).
fn trial_config(base: &CampaignSpec, cell: usize, trial: u64) -> SimConfig {
    let scheme = base.schemes[cell / base.apps.len()];
    let app = &base.apps[cell % base.apps.len()];
    let mut dl1 = DataL1Config::paper_default(scheme);
    dl1.oracle = base.oracle;
    let global_index = cell as u64 * base.trials_per_cell + trial;
    SimConfig::builder(app, dl1)
        .instructions(base.instructions)
        .seed(base.master_seed)
        .fault(FaultConfig::one_shot(
            base.model,
            base.effective_p(),
            trial_seed(base.master_seed, global_index),
        ))
        .build()
}

fn campaign(ctx: &mut Ctx, root: usize) {
    let spec = campaign_spec(ctx.seed, ctx.threads);
    let base = &spec.base;
    // Set-up: one trace per app, which every trial of its cells replays.
    let keys = CAMPAIGN_APPS.map(|app| (app, ctx.seed));
    let setup_s = generate(ctx, root, &keys);

    let dir = ctx.work.join("checkpoints");
    let stop = AtomicBool::new(false);
    let phase = Phase::start();
    let mut shard_ends = Vec::new();
    let result = catch_unwind(AssertUnwindSafe(|| {
        icr_sim::run_sharded_campaign_observed(&spec, Some(&dir), false, &stop, |event| {
            if let ShardEvent::ShardDone(_) = event {
                shard_ends.push(phase.since());
            }
        })
    }));
    let timed = phase.end();
    let report = match result {
        Ok(Ok(report)) => Some(report),
        Ok(Err(e)) => {
            eprintln!("campaign: {e}");
            None
        }
        Err(_) => None,
    };
    // Each trial simulates its app's whole trace.
    let trials: u64 = report
        .as_ref()
        .map_or(0, |r| r.report.cells.iter().map(|c| c.trials).sum());
    ctx.timed_metrics(setup_s, &timed, trials as f64, (trials * INSTS) as f64);

    let shards = spec.shards_total();
    let Some(report) = report else {
        for s in 0..shards {
            ctx.op(&format!("shard-{s}"), Err("the campaign failed".into()));
        }
        return;
    };
    let t = Instant::now();
    let json = report.to_json();
    ctx.json_metrics(t.elapsed().as_secs_f64(), json.len());
    if !ctx.check("report", fnv1a64(json.as_bytes())) {
        ctx.spoil("the campaign report differs from its recorded digest");
    }
    let files: BTreeMap<u64, PathBuf> = checkpoint::scan_dir(&dir)
        .unwrap_or_default()
        .into_iter()
        .collect();
    let mut contents = BTreeMap::new();
    for s in 0..shards {
        let output = match files.get(&s).map(std::fs::read) {
            Some(Ok(bytes)) => {
                let digest = fnv1a64(&bytes);
                contents.insert(s, bytes);
                Ok(digest)
            }
            Some(Err(e)) => Err(e.to_string()),
            None => Err("no checkpoint was written".into()),
        };
        ctx.op(&format!("shard-{s}"), output);
    }
    // A resume pass over the finished checkpoints must restore every
    // shard, reproduce the report byte for byte, and rewrite nothing.
    match icr_sim::run_sharded_campaign(&spec, Some(&dir), true) {
        Ok(again)
            if again.shards_resumed == report.shards_done
                && again.quarantined == 0
                && again.to_json() == json => {}
        Ok(_) => ctx.spoil("resuming the finished checkpoints changed the report"),
        Err(e) => ctx.spoil(&format!("resuming the finished checkpoints failed: {e}")),
    }
    if files
        .iter()
        .any(|(s, path)| std::fs::read(path).ok().as_ref() != contents.get(s))
    {
        ctx.spoil("resuming rewrote a checkpoint");
    }

    if !ctx.trace {
        return;
    }
    let mut shard_s = Vec::new();
    let mut prev = 0.0;
    for (s, &end) in shard_ends.iter().enumerate() {
        ctx.spans.add(
            &format!("shard:{s}"),
            Some(root),
            timed.at(prev),
            timed.at(end),
        );
        shard_s.push(end - prev);
        prev = end;
    }
    ctx.layers.set("campaign.shards", shard_s.len() as f64);
    ctx.layers
        .set("campaign.shard_p50_s", median(&mut shard_s.clone()));

    // The checkpoint layer: read every shard back, write it again, and
    // require the same bytes.
    let fingerprint = spec.fingerprint();
    let rewrite = ctx.work.join("rewrite");
    let (mut read_s, mut write_s) = (0.0, 0.0);
    for (s, path) in &files {
        let t = Instant::now();
        let read = checkpoint::read_shard(path, fingerprint);
        read_s += t.elapsed().as_secs_f64();
        let same = match read {
            Ok(ckpt) => {
                let t = Instant::now();
                let written = checkpoint::write_shard(&rewrite, fingerprint, &ckpt);
                write_s += t.elapsed().as_secs_f64();
                written.is_ok_and(|p| std::fs::read(p).ok().as_ref() == contents.get(s))
            }
            Err(_) => false,
        };
        if !same {
            ctx.spoil(&format!(
                "checkpoint {s} does not read back and rewrite to the same bytes"
            ));
        }
    }
    let n = files.len() as f64;
    let total_bytes: usize = contents.values().map(Vec::len).sum();
    ctx.layers
        .set("checkpoint.read_ms_per_shard", ratio(read_s * 1e3, n));
    ctx.layers
        .set("checkpoint.write_ms_per_shard", ratio(write_s * 1e3, n));
    ctx.layers
        .set("checkpoint.bytes_per_shard", ratio(total_bytes as f64, n));

    // The cell sample: every trial, rebuilt from the spec. Each rebuilt
    // configuration must hit the run memo the campaign filled.
    let cells = base.schemes.len() * base.apps.len();
    let configs: Vec<SimConfig> = (0..cells)
        .flat_map(|cell| (0..base.trials_per_cell).map(move |t| (cell, t)))
        .map(|(cell, t)| trial_config(base, cell, t))
        .collect();
    let sample = ctx.sample(root, &configs);
    if sample.memo_hits != configs.len() as u64 {
        ctx.spoil("rebuilt trial configurations missed the campaign's run memo");
    }

    // Trial times come from the untraced pass, run one at a time.
    let mut shard_busy = vec![0.0; shard_s.len()];
    for (i, &s) in sample.reference_s.iter().enumerate() {
        let shard = (i as u64 % base.trials_per_cell) / CAMPAIGN_SHARD_SIZE;
        if let Some(busy) = shard_busy.get_mut(shard as usize) {
            *busy += s;
        }
    }
    // Workers idle at each shard barrier for whatever part of shard wall
    // × threads its trials did not fill.
    let threads = ctx.threads as f64;
    let barrier_idle: f64 = shard_s
        .iter()
        .zip(&shard_busy)
        .map(|(wall, busy)| (wall * threads - busy).max(0.0))
        .sum();
    let mut ms: Vec<f64> = sample.reference_s.iter().map(|s| s * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let p99 = ms
        .get(((ms.len() as f64 * 0.99).ceil() as usize).saturating_sub(1))
        .copied()
        .unwrap_or(0.0);
    let busy: f64 = sample.reference_s.iter().sum();
    for (name, value) in [
        ("campaign.trial_p50_ms", median(&mut ms)),
        ("campaign.trial_p99_ms", p99),
        ("campaign.barrier_idle_s", barrier_idle),
        ("exec.threads", threads),
        ("exec.jobs", trials as f64),
        ("exec.utilisation", ratio(busy, timed.wall * threads)),
        (
            "exec.longest_job_s",
            sample.reference_s.iter().copied().fold(0.0, f64::max),
        ),
        ("exec.tail_idle_s", barrier_idle),
    ] {
        ctx.layers.set(name, value);
    }
}

fn isa(ctx: &mut Ctx, root: usize) {
    let seed = ctx.seed;
    // Long enough for every kernel to retire to completion.
    let budget = icr_isa::MAX_KERNEL_INSTRUCTIONS;
    let store = icr_trace::store::global();

    // Set-up: interpret each kernel, write its trace to `.icrt` in this
    // iteration's own directory, read it back, and preload the store, so
    // nothing reads or writes the interpreter's shared trace cache.
    let start = Instant::now();
    let (mut interpret_s, mut encode_s, mut decode_s) = (0.0, 0.0, 0.0);
    let (mut retired, mut file_bytes) = (0u64, 0u64);
    let mut round_trip: BTreeMap<&str, Result<(), String>> = BTreeMap::new();
    for app in ISA_APP_NAMES {
        let t = Instant::now();
        let (trace, kernel_retired, _) = icr_isa::run_kernel(app, seed);
        interpret_s += t.elapsed().as_secs_f64();
        retired += kernel_retired;
        let path = ctx
            .work
            .join(format!("{}.icrt", app.trim_start_matches("isa:")));
        let t = Instant::now();
        let written = icr_trace::disk::write_trace(&path, app, seed, &trace);
        encode_s += t.elapsed().as_secs_f64();
        file_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        let t = Instant::now();
        let read = written.and_then(|()| icr_trace::disk::read_trace(&path));
        decode_s += t.elapsed().as_secs_f64();
        let check = match read {
            Ok(stored) if stored.app == app && stored.seed == seed && stored.insts == trace => {
                Ok(())
            }
            Ok(_) => Err("the decoded .icrt differs from the interpreted trace".to_owned()),
            Err(e) => Err(format!("the .icrt round trip failed: {e}")),
        };
        round_trip.insert(app, check);
        store.insert(app, seed, budget, trace.into());
    }
    let setup_s = start.elapsed().as_secs_f64();
    ctx.spans.add("setup", Some(root), start, Instant::now());
    for (name, value) in [
        ("isa.interpret_s", interpret_s),
        (
            "isa.interpret_ns_per_inst",
            ratio(interpret_s * 1e9, retired as f64),
        ),
        ("isa.retired", retired as f64),
        ("trace.disk.encode_s", encode_s),
        ("trace.disk.decode_s", decode_s),
        (
            "trace.disk.bytes_per_inst",
            ratio(file_bytes as f64, retired as f64),
        ),
    ] {
        ctx.layers.set(name, value);
    }

    let configs: Vec<SimConfig> = ISA_APP_NAMES
        .iter()
        .flat_map(|app| {
            isa_schemes()
                .into_iter()
                .map(move |s| SimConfig::paper(app, DataL1Config::paper_default(s), budget, seed))
        })
        .collect();
    // The jobs `Engine::run_batch` schedules, observed for per-job times.
    let pool = Pool::new(ctx.threads);
    let phase = Phase::start();
    let mut jobs = Vec::new();
    let results = pool.run_observed(
        configs.clone(),
        |cfg| Engine::global().run(&cfg),
        |p| jobs.push((phase.since(), p.elapsed.as_secs_f64())),
    );
    let timed = phase.end();
    let committed: u64 = results.iter().map(|r| r.pipeline.committed).sum();
    ctx.timed_metrics(setup_s, &timed, results.len() as f64, committed as f64);
    ctx.spans
        .add("timed", Some(root), timed.start, timed.at(timed.wall));
    ctx.exec_metrics(timed.wall, &jobs);

    let (mut encode_s, mut bytes) = (0.0, 0);
    for (cfg, result) in configs.iter().zip(&results) {
        let output = match &round_trip[cfg.app.as_str()] {
            Err(why) => Err(why.clone()),
            Ok(()) => {
                let t = Instant::now();
                let json = result.to_json();
                encode_s += t.elapsed().as_secs_f64();
                bytes += json.len();
                Ok(fnv1a64(json.as_bytes()))
            }
        };
        ctx.op(&format!("{}|{}", cfg.app, result.scheme), output);
    }
    ctx.json_metrics(encode_s, bytes);

    if ctx.trace {
        ctx.sample(root, &configs);
    }
}
