//! The traced harness: spans, the per-layer metric table, and the
//! attribution of a simulated cell's host time to its layers.
//!
//! Timing every call in place would swamp the layers it measures: a pair
//! of clock reads costs about as much as an iL1 fetch, and the fetch runs
//! once per simulated instruction. So each traced cell runs four times:
//!
//! 1. untraced, through `run_sim` — the reference result and time;
//! 2. assembled from the public layers exactly as `run_sim` assembles
//!    them, logging every memory-side call with the latency it returned;
//!    its results must equal the reference (the fidelity check);
//! 3. the core alone: `Pipeline::run` against stubs that return the
//!    logged latencies in order, which must reproduce `PipelineStats`;
//! 4. the memory side alone: the log replayed into fresh layer instances,
//!    timing each call; the same loop without the calls measures the
//!    clock and dispatch cost that is subtracted.

use icr_core::{Arrival, DataL1, ExposureWindows, IcrStats};
use icr_cpu::{DataMemory, InstrMemory, Pipeline, PipelineStats};
use icr_fault::{FaultInjector, InjectedFault};
use icr_mem::{Addr, CacheStats, InstrCache, MemoryBackend};
use icr_sim::{run_sim, CheckMode, Engine, SimConfig, SimResult};
use icr_trace::{Inst, OpClass};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// The per-layer metric table of one iteration. Every metric starts at 0,
/// which is what a layer the workload never enters reports.
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn new() -> Self {
        Layers(
            crate::per_layer_metrics()
                .into_iter()
                .map(|(name, _)| (name, 0.0))
                .collect(),
        )
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &f64)> {
        self.0.iter()
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One recorded span: a named interval with the span that caused it.
/// Aggregate spans sum many short calls of one layer within a cell; they
/// start with the cell and last as long as the calls did in total.
struct Span {
    parent: Option<usize>,
    name: String,
    start_s: f64,
    end_s: f64,
    aggregate: bool,
}

/// Spans kept in memory and written out when the iteration ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records `[start, end]` under `parent`; returns the span's id.
    pub fn add(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            parent,
            name: name.to_owned(),
            start_s: at(start),
            end_s: at(end),
            aggregate: false,
        });
        self.spans.len() - 1
    }

    /// Moves the end of span `id` to `end`.
    pub fn end(&mut self, id: usize, end: Instant) {
        self.spans[id].end_s = end.saturating_duration_since(self.origin).as_secs_f64();
    }

    fn add_aggregate(&mut self, name: &str, parent: usize, seconds: f64) {
        let start_s = self.spans[parent].start_s;
        self.spans.push(Span {
            parent: Some(parent),
            name: name.to_owned(),
            start_s,
            end_s: start_s + seconds,
            aggregate: true,
        });
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": {}, \"start_s\": {}, \"end_s\": {}, \"aggregate\": {}}}\n",
                icr_sim::json::esc(&s.name),
                s.start_s,
                s.end_s,
                s.aggregate
            ));
        }
        std::fs::write(path, out)
    }
}

/// The cost of two back-to-back clock reads, in nanoseconds (median of
/// nine batches).
pub fn clock_pair_ns() -> f64 {
    const PAIRS: u32 = 20_000;
    let mut batches: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..PAIRS {
                black_box(Instant::now());
                black_box(Instant::now());
            }
            t.elapsed().as_nanos() as f64 / f64::from(PAIRS)
        })
        .collect();
    crate::median(&mut batches)
}

/// One memory-side call of a simulated cell, with what it returned.
#[derive(Debug, Clone, Copy)]
enum Call {
    Fetch { pc: u64, lat: u64 },
    Load { addr: u64, now: u64, lat: u64 },
    Store { addr: u64, now: u64, lat: u64 },
    Advance { from: u64, to: u64 },
}

/// Index of each call kind in the per-kind tallies.
const FETCH: usize = 0;
const LOAD: usize = 1;
const STORE: usize = 2;
const ADVANCE: usize = 3;

impl Call {
    fn kind(self) -> usize {
        match self {
            Call::Fetch { .. } => FETCH,
            Call::Load { .. } => LOAD,
            Call::Store { .. } => STORE,
            Call::Advance { .. } => ADVANCE,
        }
    }
}

/// The memory-side layers of one machine, built as `run_sim` builds them.
struct Parts {
    dl1: DataL1,
    icache: InstrCache,
    backend: MemoryBackend,
    injector: Option<FaultInjector>,
}

fn build(cfg: &SimConfig, trace: &[Inst]) -> Parts {
    let mut dl1 = DataL1::new(cfg.dl1.clone());
    if let Some(p) = cfg.vuln_arrival_p {
        dl1.set_exposure_arrival(Arrival::Geometric { p });
    }
    let injector = cfg.fault.map(|f| {
        let mut inj = FaultInjector::new(f.model, f.p_per_cycle, f.seed);
        if let Some(max) = f.max_faults {
            inj = inj.with_max_faults(max).with_log();
        }
        if let Some(boost) = cfg.fault_bias {
            let g = cfg.dl1.geometry;
            let stores: HashSet<u64> = trace
                .iter()
                .filter(|i| i.op == OpClass::Store)
                .filter_map(|i| i.mem_addr)
                .map(|a| g.block_addr(Addr(a)).raw())
                .collect();
            inj = inj.with_site_bias(boost).with_hot_blocks(Arc::new(stores));
        }
        if let Some(cycle) = cfg.fault_arrival {
            inj = inj.with_forced_arrival(cycle);
        }
        inj
    });
    Parts {
        dl1,
        icache: InstrCache::new(&cfg.hierarchy),
        backend: MemoryBackend::new(&cfg.hierarchy),
        injector,
    }
}

/// What the fidelity check compares.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    pipeline: PipelineStats,
    icr: IcrStats,
    l2: CacheStats,
    l1i: CacheStats,
    memory_reads: u64,
    memory_writes: u64,
    faults_injected: u64,
    fault_log: Vec<InjectedFault>,
    exposure: ExposureWindows,
}

impl Outcome {
    /// Result assembly after the run, as `run_sim` does it.
    fn finish(parts: &Parts, pipeline: PipelineStats) -> Self {
        Outcome {
            pipeline,
            icr: *parts.dl1.stats(),
            l2: *parts.backend.l2_stats(),
            l1i: *parts.icache.stats(),
            memory_reads: parts.backend.memory_reads(),
            memory_writes: parts.backend.memory_writes(),
            faults_injected: parts.injector.as_ref().map_or(0, |i| i.injected()),
            fault_log: parts
                .injector
                .as_ref()
                .map(|i| i.log().to_vec())
                .unwrap_or_default(),
            exposure: parts.dl1.exposure_windows(pipeline.cycles),
        }
    }

    fn of(r: &SimResult) -> Self {
        Outcome {
            pipeline: r.pipeline,
            icr: r.icr,
            l2: r.l2,
            l1i: r.l1i,
            memory_reads: r.memory_reads,
            memory_writes: r.memory_writes,
            faults_injected: r.faults_injected,
            fault_log: r.fault_log.clone(),
            exposure: r.exposure.clone(),
        }
    }

    /// The first field in which `self` and `other` differ.
    fn difference(&self, other: &Outcome) -> Option<&'static str> {
        [
            (self.pipeline != other.pipeline, "PipelineStats"),
            (self.icr != other.icr, "IcrStats"),
            (self.l2 != other.l2, "L2 CacheStats"),
            (self.l1i != other.l1i, "iL1 CacheStats"),
            (self.memory_reads != other.memory_reads, "memory reads"),
            (self.memory_writes != other.memory_writes, "memory writes"),
            (
                self.faults_injected != other.faults_injected,
                "faults injected",
            ),
            (self.fault_log != other.fault_log, "fault_log"),
            (self.exposure != other.exposure, "exposure windows"),
        ]
        .into_iter()
        .find_map(|(differs, what)| differs.then_some(what))
    }
}

/// The machine of pass 2: the layers plus the call log.
struct Logged {
    parts: Parts,
    fault_horizon: u64,
    log: Vec<Call>,
}

impl Logged {
    /// Brings fault injection up to `now`, as `run_sim` does before every
    /// data access.
    fn advance_faults(&mut self, now: u64) {
        if let Some(inj) = &mut self.parts.injector {
            if now > self.fault_horizon {
                inj.advance(
                    &mut self.parts.dl1,
                    &mut self.parts.backend,
                    self.fault_horizon,
                    now,
                );
                self.log.push(Call::Advance {
                    from: self.fault_horizon,
                    to: now,
                });
                self.fault_horizon = now;
            }
        }
    }
}

struct LoggedData(Rc<RefCell<Logged>>);
struct LoggedInstr(Rc<RefCell<Logged>>);

impl DataMemory for LoggedData {
    fn load(&mut self, addr: u64, now: u64) -> u64 {
        let mut m = self.0.borrow_mut();
        m.advance_faults(now);
        let m = &mut *m;
        let lat = m.parts.dl1.load(Addr(addr), now, &mut m.parts.backend);
        m.log.push(Call::Load { addr, now, lat });
        lat
    }

    fn store(&mut self, addr: u64, now: u64) -> u64 {
        let mut m = self.0.borrow_mut();
        m.advance_faults(now);
        let m = &mut *m;
        let lat = m.parts.dl1.store(Addr(addr), now, &mut m.parts.backend);
        m.log.push(Call::Store { addr, now, lat });
        lat
    }
}

impl InstrMemory for LoggedInstr {
    fn fetch(&mut self, pc: u64, _now: u64) -> u64 {
        let mut m = self.0.borrow_mut();
        let m = &mut *m;
        let lat = m.parts.icache.fetch(Addr(pc), &mut m.parts.backend);
        m.log.push(Call::Fetch { pc, lat });
        lat
    }
}

/// Pass 3's data side: the logged latencies, in order.
struct DataStub<'a> {
    lats: &'a [(bool, u64)],
    pos: usize,
    diverged: bool,
}

impl DataStub<'_> {
    fn next(&mut self, store: bool) -> u64 {
        match self.lats.get(self.pos) {
            Some(&(is_store, lat)) if is_store == store => {
                self.pos += 1;
                lat
            }
            _ => {
                self.diverged = true;
                1
            }
        }
    }
}

impl DataMemory for DataStub<'_> {
    fn load(&mut self, _addr: u64, _now: u64) -> u64 {
        self.next(false)
    }

    fn store(&mut self, _addr: u64, _now: u64) -> u64 {
        self.next(true)
    }
}

/// Pass 3's instruction side.
struct FetchStub<'a> {
    lats: &'a [u64],
    pos: usize,
    diverged: bool,
}

impl InstrMemory for FetchStub<'_> {
    fn fetch(&mut self, _pc: u64, _now: u64) -> u64 {
        match self.lats.get(self.pos) {
            Some(&lat) => {
                self.pos += 1;
                lat
            }
            None => {
                self.diverged = true;
                1
            }
        }
    }
}

/// Per-kind nanoseconds and call counts of one replay of a log.
#[derive(Default)]
struct Replay {
    ns: [f64; 4],
    calls: [u64; 4],
    diverged: bool,
}

/// Replays `log` into `parts`, timing each call; with `None`, runs the
/// same loop without the calls, which measures what the timing costs.
fn replay(log: &[Call], mut parts: Option<&mut Parts>) -> Replay {
    let mut r = Replay::default();
    let mut prev = Instant::now();
    for &call in log {
        match (call, parts.as_deref_mut()) {
            (Call::Fetch { pc, lat }, Some(p)) => {
                r.diverged |= p.icache.fetch(Addr(pc), &mut p.backend) != lat;
            }
            (Call::Load { addr, now, lat }, Some(p)) => {
                r.diverged |= p.dl1.load(Addr(addr), now, &mut p.backend) != lat;
            }
            (Call::Store { addr, now, lat }, Some(p)) => {
                r.diverged |= p.dl1.store(Addr(addr), now, &mut p.backend) != lat;
            }
            (Call::Advance { from, to }, Some(p)) => match p.injector.as_mut() {
                Some(inj) => {
                    inj.advance(&mut p.dl1, &mut p.backend, from, to);
                }
                None => r.diverged = true,
            },
            (call, None) => {
                black_box(call);
            }
        }
        let now = Instant::now();
        let kind = call.kind();
        r.ns[kind] += now.duration_since(prev).as_nanos() as f64;
        r.calls[kind] += 1;
        prev = now;
    }
    r
}

/// Per-layer totals over the traced cells of one iteration.
#[derive(Default)]
pub struct Sample {
    pub cells: u64,
    /// Untraced `run_sim` seconds of each cell, in trace order.
    pub reference_s: Vec<f64>,
    build_s: f64,
    logged_s: f64,
    finish_s: f64,
    core_s: f64,
    layer_s: [f64; 4],
    calls: [u64; 4],
    committed: u64,
    cycles: u64,
    icr: IcrStats,
    l2: CacheStats,
    l1i: CacheStats,
    memory_reads: u64,
    faulted_cells: u64,
    delivered_cells: u64,
    injected: u64,
    /// Cells whose configuration the engine already held.
    pub memo_hits: u64,
    memo_hit_s: f64,
    /// Fidelity failures, one line each.
    pub failures: Vec<String>,
}

/// Sums the counters of `b` into `a`.
fn add_cache(a: &mut CacheStats, b: &CacheStats) {
    a.read_accesses += b.read_accesses;
    a.read_hits += b.read_hits;
    a.write_accesses += b.write_accesses;
    a.write_hits += b.write_hits;
}

impl Sample {
    /// Traces one cell through the four passes and adds it to the totals.
    pub fn trace(&mut self, cfg: &SimConfig, spans: &mut Spans, parent: usize) {
        let label = format!("cell:{}|{}", cfg.app, cfg.dl1.scheme.name());
        if cfg.scrub.is_some() || cfg.check != CheckMode::Off {
            self.failures.push(format!(
                "{label}: scrubbing and lockstep cells are not traced"
            ));
            return;
        }
        let cell_start = Instant::now();

        // The engine's memo lookup; a hit costs only the key and the map.
        let hits = Engine::global().stats().run_hits;
        let t = Instant::now();
        let memo = Engine::global().run(cfg);
        let lookup_s = t.elapsed().as_secs_f64();
        if Engine::global().stats().run_hits == hits + 1 {
            self.memo_hits += 1;
            self.memo_hit_s += lookup_s;
        }

        // Pass 1: untraced.
        let t = Instant::now();
        let reference = run_sim(cfg);
        let reference_s = t.elapsed().as_secs_f64();
        if reference != *memo {
            self.failures
                .push(format!("{label}: run_sim differs from the memoised result"));
        }
        let expected = Outcome::of(&reference);
        let trace = icr_trace::store::global().get(&cfg.app, cfg.seed, cfg.instructions);

        // Pass 2: the same machine from its public layers, logging calls.
        let t = Instant::now();
        let mut pipeline = Pipeline::new(cfg.cpu);
        let parts = build(cfg, &trace);
        let build_s = t.elapsed().as_secs_f64();
        let machine = Rc::new(RefCell::new(Logged {
            parts,
            fault_horizon: 0,
            log: Vec::with_capacity(trace.len() * 3 / 2),
        }));
        let t = Instant::now();
        let stats = pipeline.run(
            trace.iter().copied(),
            &mut LoggedInstr(machine.clone()),
            &mut LoggedData(machine.clone()),
        );
        let logged_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let outcome = Outcome::finish(&machine.borrow().parts, stats);
        let finish_s = t.elapsed().as_secs_f64();
        let log = match Rc::try_unwrap(machine) {
            Ok(m) => m.into_inner().log,
            Err(_) => unreachable!("the memory ports are dropped after the run"),
        };
        if let Some(what) = outcome.difference(&expected) {
            self.failures.push(format!(
                "{label}: traced assembly differs from run_sim in {what}"
            ));
        }

        // Pass 3: the core alone, fed the logged latencies.
        let fetch_lats: Vec<u64> = log
            .iter()
            .filter_map(|c| match *c {
                Call::Fetch { lat, .. } => Some(lat),
                _ => None,
            })
            .collect();
        let data_lats: Vec<(bool, u64)> = log
            .iter()
            .filter_map(|c| match *c {
                Call::Load { lat, .. } => Some((false, lat)),
                Call::Store { lat, .. } => Some((true, lat)),
                _ => None,
            })
            .collect();
        let mut fetch = FetchStub {
            lats: &fetch_lats,
            pos: 0,
            diverged: false,
        };
        let mut data = DataStub {
            lats: &data_lats,
            pos: 0,
            diverged: false,
        };
        let mut core = Pipeline::new(cfg.cpu);
        let t = Instant::now();
        let core_stats = core.run(trace.iter().copied(), &mut fetch, &mut data);
        let core_s = t.elapsed().as_secs_f64();
        if core_stats != outcome.pipeline
            || fetch.diverged
            || data.diverged
            || fetch.pos != fetch_lats.len()
            || data.pos != data_lats.len()
        {
            self.failures
                .push(format!("{label}: the latency-replayed core diverged"));
        }

        // Pass 4: the memory side alone, replayed into fresh layers.
        let mut parts = build(cfg, &trace);
        let timed = replay(&log, Some(&mut parts));
        let idle = replay(&log, None);
        let replayed = Outcome::finish(&parts, outcome.pipeline);
        if timed.diverged || replayed.difference(&outcome).is_some() {
            self.failures
                .push(format!("{label}: the memory-side replay diverged"));
        }

        let mut layer_s = [0.0; 4];
        for (k, s) in layer_s.iter_mut().enumerate() {
            *s = (timed.ns[k] - idle.ns[k]).max(0.0) / 1e9;
            self.layer_s[k] += *s;
            self.calls[k] += timed.calls[k];
        }
        self.cells += 1;
        self.reference_s.push(reference_s);
        self.build_s += build_s;
        self.logged_s += logged_s;
        self.finish_s += finish_s;
        self.core_s += core_s;
        self.committed += outcome.pipeline.committed;
        self.cycles += outcome.pipeline.cycles;
        let (icr, s) = (&mut self.icr, &outcome.icr);
        add_cache(&mut icr.cache, &s.cache);
        icr.replication_attempts += s.replication_attempts;
        icr.replicas_created += s.replicas_created;
        icr.read_hits_with_replica += s.read_hits_with_replica;
        icr.spills_created += s.spills_created;
        add_cache(&mut self.l2, &outcome.l2);
        add_cache(&mut self.l1i, &outcome.l1i);
        self.memory_reads += outcome.memory_reads;
        if cfg.fault.is_some() {
            self.faulted_cells += 1;
            self.delivered_cells += u64::from(outcome.faults_injected > 0);
            self.injected += outcome.faults_injected;
        }

        // The part of the untraced run that no layer accounts for (0 when
        // the layers account for all of it).
        let accounted = build_s + core_s + layer_s.iter().sum::<f64>() + finish_s;
        let cell = spans.add(&label, Some(parent), cell_start, Instant::now());
        for (name, seconds) in [
            ("sim.build", build_s),
            ("cpu.pipeline", core_s),
            ("il1.fetch", layer_s[FETCH]),
            ("dl1.load", layer_s[LOAD]),
            ("dl1.store", layer_s[STORE]),
            ("fault.advance", layer_s[ADVANCE]),
            ("sim.finish", finish_s),
            ("unaccounted", (reference_s - accounted).max(0.0)),
        ] {
            spans.add_aggregate(name, cell, seconds);
        }
    }

    /// Writes the cell-level layers into the table.
    pub fn emit(&self, layers: &mut Layers) {
        let cells = self.cells as f64;
        let reference: f64 = self.reference_s.iter().sum();
        let accounted =
            self.build_s + self.core_s + self.layer_s.iter().sum::<f64>() + self.finish_s;
        let traced = self.build_s + self.logged_s + self.finish_s;
        let dl1_calls = (self.calls[LOAD] + self.calls[STORE]) as f64;
        let icr = &self.icr;
        for (name, value) in [
            ("sim.runs", cells),
            ("sim.build_us_per_run", ratio(self.build_s * 1e6, cells)),
            ("sim.finish_us_per_run", ratio(self.finish_s * 1e6, cells)),
            ("cpu.pipeline_s", self.core_s),
            (
                "cpu.ns_per_inst",
                ratio(self.core_s * 1e9, self.committed as f64),
            ),
            ("cpu.committed", self.committed as f64),
            ("cpu.cycles", self.cycles as f64),
            ("cpu.ipc", ratio(self.committed as f64, self.cycles as f64)),
            ("dl1.loads", icr.cache.read_accesses as f64),
            ("dl1.stores", icr.cache.write_accesses as f64),
            ("dl1.load_s", self.layer_s[LOAD]),
            ("dl1.store_s", self.layer_s[STORE]),
            (
                "dl1.ns_per_access",
                ratio((self.layer_s[LOAD] + self.layer_s[STORE]) * 1e9, dl1_calls),
            ),
            ("dl1.miss_rate", icr.cache.miss_rate()),
            ("dl1.replication_attempts", icr.replication_attempts as f64),
            (
                "dl1.replication_ability",
                ratio(icr.replicas_created as f64, icr.replication_attempts as f64),
            ),
            (
                "dl1.loads_with_replica",
                ratio(
                    icr.read_hits_with_replica as f64,
                    icr.cache.read_hits as f64,
                ),
            ),
            ("mem.l2.accesses", self.l2.accesses() as f64),
            ("mem.l2.miss_rate", self.l2.miss_rate()),
            ("mem.memory_reads", self.memory_reads as f64),
            ("mem.l2_region.spills", icr.spills_created as f64),
            ("il1.fetches", self.calls[FETCH] as f64),
            ("il1.fetch_s", self.layer_s[FETCH]),
            (
                "il1.ns_per_fetch",
                ratio(self.layer_s[FETCH] * 1e9, self.calls[FETCH] as f64),
            ),
            ("il1.miss_rate", self.l1i.miss_rate()),
            ("fault.trials", self.faulted_cells as f64),
            ("fault.advance_calls", self.calls[ADVANCE] as f64),
            ("fault.advance_s", self.layer_s[ADVANCE]),
            ("fault.injected", self.injected as f64),
            (
                "fault.delivered_frac",
                ratio(self.delivered_cells as f64, self.faulted_cells as f64),
            ),
            (
                "engine.overhead_us_per_run",
                ratio(self.memo_hit_s * 1e6, self.memo_hits as f64),
            ),
            ("tracing.clock_pair_ns", clock_pair_ns()),
            (
                "tracing.overhead_frac",
                ratio(traced - reference, reference),
            ),
            (
                "tracing.unaccounted_frac",
                ratio(reference - accounted, reference),
            ),
        ] {
            layers.set(name, value);
        }
    }
}
