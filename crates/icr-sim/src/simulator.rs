//! The assembled machine: out-of-order core + iL1 + ICR dL1 + L2 + memory
//! + (optional) fault injection, with one entry point: [`run_sim`].

use icr_core::{DataL1, DataL1Config, WritePolicy};
use icr_cpu::{CpuConfig, DataMemory, InstrMemory, Pipeline, PipelineStats};
use icr_energy::AccessCounts;
use icr_fault::{ErrorModel, FaultInjector, InjectedFault};
use icr_mem::{Addr, CacheStats, HierarchyConfig, InstrCache, MemoryBackend};
use icr_trace::Inst;
use std::cell::RefCell;
use std::sync::Arc;

/// Fault-injection settings for a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Which of the four error models strikes.
    pub model: ErrorModel,
    /// Per-cycle fault probability.
    pub p_per_cycle: f64,
    /// Injector seed.
    pub seed: u64,
    /// Cap on total faults delivered (`None` = unlimited). Campaigns use
    /// `Some(1)` so each trial observes exactly one event.
    pub max_faults: Option<u64>,
}

impl FaultConfig {
    /// A single-event-upset configuration: at most one fault, arriving
    /// per-cycle with probability `p_per_cycle`. This is the trial shape
    /// the Monte-Carlo campaign engine uses.
    pub fn one_shot(model: ErrorModel, p_per_cycle: f64, seed: u64) -> Self {
        FaultConfig {
            model,
            p_per_cycle,
            seed,
            max_faults: Some(1),
        }
    }
}

/// Background-scrubber settings for a run (extension; see
/// `DataL1::scrub_step`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubConfig {
    /// Cycles between scrub steps.
    pub interval: u64,
    /// Lines swept per step.
    pub lines_per_step: usize,
}

/// Whether a run carries the lockstep reference-model auditor
/// (`icr-check`) alongside the real dL1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// Normal operation: no auditing.
    #[default]
    Off,
    /// Drive a naive reference model in lockstep with the dL1 and diff
    /// the full observable state after **every** access. Panics with a
    /// labelled divergence report on the first mismatch. Fault injection
    /// and scrubbing are rejected (the reference model covers the
    /// fault-free semantics), and replication hints must be empty.
    Lockstep,
}

/// A complete simulation configuration.
///
/// Construct one with [`SimConfig::paper`] (the paper's machine, the
/// common case) or [`SimConfig::builder`] (budget, seed, fault and audit
/// mode), and assign any other field directly. The struct is
/// `#[non_exhaustive]`: new configuration axes can be added without
/// breaking downstream literals.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SimConfig {
    /// Core parameters (Table 1 defaults).
    pub cpu: CpuConfig,
    /// iL1/L2/memory parameters (Table 1 defaults).
    pub hierarchy: HierarchyConfig,
    /// The dL1 under study.
    pub dl1: DataL1Config,
    /// Workload name (one of [`icr_trace::apps::APP_NAMES`]).
    pub app: String,
    /// Dynamic instructions to simulate.
    pub instructions: u64,
    /// Workload seed.
    pub seed: u64,
    /// Optional transient-fault injection.
    pub fault: Option<FaultConfig>,
    /// Optional background scrubbing.
    pub scrub: Option<ScrubConfig>,
    /// Per-cycle arrival probability for the analytic vulnerability
    /// model's weighting (`None` = uniform arrival). Set this to the
    /// campaign's `p_per_cycle` when cross-validating against
    /// Monte-Carlo one-shot trials.
    pub vuln_arrival_p: Option<f64>,
    /// Importance-sampling site bias for the fault injector (`None` =
    /// the historical uniform draw). When set, strike-worthy parity
    /// lines — dirty primaries plus store-working-set residents — are
    /// struck `boost`× as often and [`SimResult::fault_weight`] carries
    /// the per-run likelihood ratio.
    pub fault_bias: Option<f64>,
    /// Forces the fault arrival to a fixed cycle instead of drawing
    /// per-cycle Bernoulli arrivals (`None` = the stochastic arrival).
    /// Campaigns set this to a [`icr_fault::conditional_arrival`] draw
    /// so every importance-sampled trial delivers its fault.
    pub fault_arrival: Option<u64>,
    /// Lockstep reference-model auditing (default [`CheckMode::Off`]).
    pub check: CheckMode,
}

impl SimConfig {
    /// The paper's machine running `app` for `instructions` instructions
    /// with the given dL1.
    pub fn paper(app: &str, dl1: DataL1Config, instructions: u64, seed: u64) -> Self {
        SimConfig::builder(app, dl1)
            .instructions(instructions)
            .seed(seed)
            .build()
    }

    /// Checks that the configuration can run: the dL1 and the hierarchy
    /// each validate, the dL1 block is one L2 block (a dL1 miss fills,
    /// and a write-back replaces, exactly one L2 block), and a
    /// lockstep-checked run injects no faults and scrubs nothing.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint, prefixed with the layer
    /// that owns it.
    pub fn validate(&self) -> Result<(), String> {
        self.dl1
            .validate()
            .map_err(|e| format!("invalid dL1 config: {e}"))?;
        self.hierarchy
            .validate()
            .map_err(|e| format!("invalid hierarchy config: {e}"))?;
        let (dl1_block, l2_block) = (
            self.dl1.geometry.block_bytes(),
            self.hierarchy.l2_geometry.block_bytes(),
        );
        if dl1_block != l2_block {
            return Err(format!(
                "invalid sim config: dL1 block size {dl1_block} B differs from the L2 block size {l2_block} B"
            ));
        }
        if self.check == CheckMode::Lockstep && (self.fault.is_some() || self.scrub.is_some()) {
            return Err("lockstep auditing covers the fault-free semantics: \
                 disable fault injection and scrubbing"
                .into());
        }
        Ok(())
    }

    /// A builder starting from the paper's machine running `app` with the
    /// given dL1 for the repo's default budget (200k instructions, seed
    /// 42), with no faults, no scrubbing and no audit.
    pub fn builder(app: &str, dl1: DataL1Config) -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig {
                cpu: CpuConfig::default(),
                hierarchy: HierarchyConfig::default(),
                dl1,
                app: app.to_owned(),
                instructions: 200_000,
                seed: 42,
                fault: None,
                scrub: None,
                vuln_arrival_p: None,
                fault_bias: None,
                fault_arrival: None,
                check: CheckMode::Off,
            },
        }
    }
}

/// Builds a [`SimConfig`]; obtained from [`SimConfig::builder`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Dynamic instructions to simulate.
    pub fn instructions(mut self, instructions: u64) -> Self {
        self.config.instructions = instructions;
        self
    }

    /// Workload seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Adds fault injection.
    pub fn fault(mut self, fault: FaultConfig) -> Self {
        self.config.fault = Some(fault);
        self
    }

    /// Runs the simulation under the given audit mode.
    pub fn check(mut self, mode: CheckMode) -> Self {
        self.config.check = mode;
        self
    }

    /// The finished configuration.
    pub fn build(self) -> SimConfig {
        self.config
    }
}

/// Everything a run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Workload name.
    pub app: String,
    /// dL1 scheme name.
    pub scheme: String,
    /// Core statistics (cycles, IPC, mispredicts, …).
    pub pipeline: PipelineStats,
    /// dL1 statistics (replication, recovery, …).
    pub icr: icr_core::IcrStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// iL1 statistics.
    pub l1i: CacheStats,
    /// Main-memory block reads.
    pub memory_reads: u64,
    /// Main-memory block writes.
    pub memory_writes: u64,
    /// Faults injected during the run.
    pub faults_injected: u64,
    /// Access counts for the energy model (write-through L2 write traffic
    /// already coalesced through the write buffer).
    pub energy_counts: AccessCounts,
    /// Time-weighted average number of words vulnerable to single-bit
    /// loss (AVF-style exposure). Computed exactly from the exposure
    /// ledger's dirty-unreplicated-parity residency, not by sampling.
    pub avg_vulnerable_words: f64,
    /// The analytic vulnerability-window accounting accumulated over the
    /// run: per-state residency and per-class consumed windows (see
    /// `icr-vuln`).
    pub exposure: icr_core::ExposureWindows,
    /// The importance weight (likelihood ratio) of the injected fault
    /// when the run used a biased site draw ([`SimConfig::fault_bias`]):
    /// `Some(1.0)` for a biased run whose fault never arrived, `None`
    /// for uniform runs. Deliberately kept out of
    /// [`to_json`](SimResult::to_json) so uniform report bytes are
    /// unchanged.
    pub fault_weight: Option<f64>,
    /// The strike log for bounded-fault runs (`max_faults` set): site,
    /// word, bit and the struck line's state at injection. Empty for
    /// unbounded runs, which skip logging to stay cheap. Also kept out
    /// of [`to_json`](SimResult::to_json).
    pub fault_log: Vec<InjectedFault>,
}

impl SimResult {
    /// Serialises the run as one JSON object — the `icr-run --json`
    /// payload, mirroring the sections of the text report.
    pub fn to_json(&self) -> String {
        use crate::json::{count, number, obj, text};
        let (pipeline, icr, counts) = (&self.pipeline, &self.icr, &self.energy_counts);
        let core = obj([
            ("cycles", count(pipeline.cycles)),
            ("committed", count(pipeline.committed)),
            ("ipc", number(pipeline.ipc())),
            ("mispredicts", count(pipeline.mispredicts)),
            ("mispredict_rate", number(pipeline.mispredict_rate())),
            ("mean_load_latency", number(pipeline.mean_load_latency())),
        ]);
        let dl1 = obj([
            ("accesses", count(icr.cache.accesses())),
            ("loads", count(icr.cache.read_accesses)),
            ("stores", count(icr.cache.write_accesses)),
            ("miss_rate", number(icr.miss_rate())),
            ("writebacks", count(icr.writebacks)),
        ]);
        let replication = obj([
            ("attempts", count(icr.replication_attempts)),
            ("ability", number(icr.replication_ability())),
            ("replicas_created", count(icr.replicas_created)),
            ("replica_updates", count(icr.replica_updates)),
            ("replica_evictions", count(icr.replica_evictions)),
            ("loads_with_replica", number(icr.loads_with_replica())),
            (
                "misses_served_by_replica",
                count(icr.misses_served_by_replica),
            ),
        ]);
        let reliability = obj([
            ("faults_injected", count(self.faults_injected)),
            ("errors_detected", count(icr.errors_detected)),
            ("corrected_ecc", count(icr.errors_corrected_ecc)),
            ("recovered_replica", count(icr.errors_recovered_replica)),
            ("recovered_l2", count(icr.errors_recovered_l2)),
            ("scrub_heals", count(icr.scrub_heals)),
            ("unrecoverable_loads", count(icr.unrecoverable_loads)),
            (
                "unrecoverable_load_fraction",
                number(icr.unrecoverable_load_fraction()),
            ),
            ("avg_vulnerable_words", number(self.avg_vulnerable_words)),
        ]);
        let memory = obj([
            ("l2_accesses", count(self.l2.accesses())),
            ("l2_miss_rate", number(self.l2.miss_rate())),
            ("l1i_miss_rate", number(self.l1i.miss_rate())),
            ("memory_reads", count(self.memory_reads)),
            ("memory_writes", count(self.memory_writes)),
        ]);
        let energy = obj([
            ("l1_reads", count(counts.l1_reads)),
            ("l1_writes", count(counts.l1_writes)),
            ("parity_ops", count(counts.parity_ops)),
            ("ecc_ops", count(counts.ecc_ops)),
            ("l2_accesses", count(counts.l2_accesses)),
        ]);
        obj([
            ("app", text(&self.app)),
            ("scheme", text(&self.scheme)),
            ("core", core),
            ("dl1", dl1),
            ("replication", replication),
            ("reliability", reliability),
            ("memory", memory),
            ("energy", energy),
        ])
        .pretty()
    }
}

/// The memory side of one run: the iL1, the dL1, the L2 and memory, the
/// fault injector, the scrubber and the lockstep auditor — everything the
/// core reaches through its two ports.
pub(crate) struct Machine {
    dl1: DataL1,
    icache: InstrCache,
    backend: MemoryBackend,
    injector: Option<FaultInjector>,
    /// Last cycle up to which faults have been injected.
    fault_horizon: u64,
    scrub: Option<ScrubConfig>,
    /// Next cycle at which the scrubber fires.
    next_scrub: u64,
    /// The lockstep auditor ([`CheckMode::Lockstep`] runs only).
    checker: Option<Box<crate::audit::LockstepChecker>>,
}

/// What the core's ports drive: a [`Machine`], or a wrapper around one
/// that also logs each call.
pub(crate) trait MemorySide {
    /// A load of the word at `addr` at cycle `now`; returns its latency.
    fn load(&mut self, addr: u64, now: u64) -> u64;
    /// A store to the word at `addr` at cycle `now`; returns the cycles
    /// it occupies commit.
    fn store(&mut self, addr: u64, now: u64) -> u64;
    /// A fetch of the instruction at `pc`; returns its latency. The iL1
    /// sees no faults, scrubbing or decay, so a fetch does not depend on
    /// the cycle.
    fn fetch(&mut self, pc: u64) -> u64;
}

impl Machine {
    /// The memory side `config` describes, running its workload `trace`.
    pub(crate) fn new(config: &SimConfig, trace: &[Inst]) -> Machine {
        let mut dl1 = DataL1::new(config.dl1.clone());
        if let Some(p) = config.vuln_arrival_p {
            dl1.set_exposure_arrival(icr_core::Arrival::Geometric { p });
        }
        let checker = match config.check {
            CheckMode::Off => None,
            CheckMode::Lockstep => Some(Box::new(crate::audit::LockstepChecker::new(
                &config.dl1,
                &config.hierarchy,
                &config.app,
            ))),
        };
        Machine {
            dl1,
            icache: InstrCache::new(&config.hierarchy),
            backend: MemoryBackend::new(&config.hierarchy),
            injector: config.fault.map(|f| {
                let mut inj = FaultInjector::new(f.model, f.p_per_cycle, f.seed);
                if let Some(max) = f.max_faults {
                    inj = inj.with_max_faults(max);
                    // One-shot trials log their (single) fault for free:
                    // campaigns and diagnostics read the strike site from
                    // the result instead of re-deriving it.
                    inj = inj.with_log();
                }
                if let Some(boost) = config.fault_bias {
                    // The boosted class is loss-prone lines plus the
                    // workload's store working set — the blocks a clean-line
                    // strike can launder through once a later store dirties
                    // them. The set is a pure function of the trace, so the
                    // uniform (no-bias) RNG stream is untouched.
                    let g = config.dl1.geometry;
                    let stores: std::collections::HashSet<u64> = trace
                        .iter()
                        .filter(|i| i.op == icr_trace::OpClass::Store)
                        .filter_map(|i| i.mem_addr)
                        .map(|a| g.block_addr(Addr(a)).raw())
                        .collect();
                    inj = inj.with_site_bias(boost).with_hot_blocks(Arc::new(stores));
                }
                if let Some(cycle) = config.fault_arrival {
                    inj = inj.with_forced_arrival(cycle);
                }
                inj
            }),
            fault_horizon: 0,
            scrub: config.scrub,
            next_scrub: config.scrub.map(|s| s.interval).unwrap_or(0),
            checker,
        }
    }

    /// Brings fault injection up to `now` before an access observes state.
    fn advance_faults(&mut self, now: u64) {
        if let Some(inj) = &mut self.injector {
            if now > self.fault_horizon {
                inj.advance(&mut self.dl1, &mut self.backend, self.fault_horizon, now);
                self.fault_horizon = now;
            }
        }
        if let Some(scrub) = self.scrub {
            while now >= self.next_scrub {
                let at = self.next_scrub;
                self.dl1
                    .scrub_step(scrub.lines_per_step, at, &mut self.backend);
                self.next_scrub += scrub.interval.max(1);
            }
        }
    }

    /// Starts following the dL1's fault footprint (see
    /// `DataL1::follow_footprint`).
    pub(crate) fn follow_footprint(&mut self) {
        self.dl1.follow_footprint();
    }

    /// `true` once this memory side holds what it would hold had its
    /// one-shot fault never struck: the fault has been delivered, and its
    /// footprint in the dL1 has settled (`DataL1::footprint_settled`).
    /// Only the fault's record then sets the run apart.
    pub(crate) fn settled(&self) -> bool {
        self.dl1.footprint_settled() && self.injector.as_ref().is_some_and(|i| i.quiesced())
    }

    /// The result of a run that [settled](Self::settled) back into
    /// `reference`, its fault-free run's result: that result with this
    /// run's fault record.
    pub(crate) fn settled_result(&self, config: &SimConfig, reference: &SimResult) -> SimResult {
        let (faults_injected, fault_weight, fault_log) = self.fault_record(config);
        SimResult {
            faults_injected,
            fault_weight,
            fault_log,
            ..reference.clone()
        }
    }

    /// The run's faults injected, importance weight and strike log.
    fn fault_record(&self, config: &SimConfig) -> (u64, Option<f64>, Vec<InjectedFault>) {
        let Some(inj) = &self.injector else {
            return (0, None, Vec::new());
        };
        let weight = config.fault_bias.map(|_| inj.last_weight());
        (inj.injected(), weight, inj.log().to_vec())
    }

    /// The run's result: this memory side's final state plus the core's
    /// statistics. A lockstep run ends with the checker's full sweep at
    /// the final cycle.
    pub(crate) fn finish(&mut self, config: &SimConfig, stats: PipelineStats) -> SimResult {
        if let Some(chk) = &mut self.checker {
            chk.sweep(stats.cycles, &self.dl1, &self.backend);
        }
        let icr = *self.dl1.stats();
        let l2 = *self.backend.l2_stats();
        let l1i = *self.icache.stats();

        // Energy: in write-through mode the buffer coalesces stores, so L2
        // write traffic is the buffer's drain count, not one write per store.
        let l2_accesses = match self.dl1.config().write_policy {
            WritePolicy::WriteBack => l2.accesses(),
            WritePolicy::WriteThrough { .. } => {
                let wb_writes = self
                    .dl1
                    .write_buffer()
                    .map(|wb| wb.total_l2_writes())
                    .unwrap_or(0);
                l2.read_accesses + wb_writes
            }
        };
        let energy_counts = AccessCounts {
            l1_reads: icr.l1_read_ops,
            l1_writes: icr.l1_write_ops,
            parity_ops: icr.parity_ops,
            ecc_ops: icr.ecc_ops,
            l2_accesses,
        };

        let exposure = self.dl1.exposure_windows(stats.cycles);
        let (faults_injected, fault_weight, fault_log) = self.fault_record(config);
        SimResult {
            app: config.app.clone(),
            scheme: config.dl1.scheme.name(),
            pipeline: stats,
            icr,
            l2,
            l1i,
            memory_reads: self.backend.memory_reads(),
            memory_writes: self.backend.memory_writes(),
            faults_injected,
            energy_counts,
            avg_vulnerable_words: exposure.avg_words_in(icr_core::ProtState::DirtyParity),
            exposure,
            fault_weight,
            fault_log,
        }
    }
}

impl MemorySide for Machine {
    fn load(&mut self, addr: u64, now: u64) -> u64 {
        self.advance_faults(now);
        let lat = self.dl1.load(Addr(addr), now, &mut self.backend);
        if let Some(chk) = &mut self.checker {
            chk.after_load(addr, now, &self.dl1, &self.backend);
        }
        lat
    }

    fn store(&mut self, addr: u64, now: u64) -> u64 {
        self.advance_faults(now);
        let lat = self.dl1.store(Addr(addr), now, &mut self.backend);
        if let Some(chk) = &mut self.checker {
            chk.after_store(addr, now, &self.dl1, &self.backend);
        }
        lat
    }

    fn fetch(&mut self, pc: u64) -> u64 {
        self.icache.fetch(Addr(pc), &mut self.backend)
    }
}

/// One of the core's two memory ports; both share one memory side.
struct Port<'a, M>(&'a RefCell<M>);

impl<M: MemorySide> DataMemory for Port<'_, M> {
    fn load(&mut self, addr: u64, now: u64) -> u64 {
        self.0.borrow_mut().load(addr, now)
    }

    fn store(&mut self, addr: u64, now: u64) -> u64 {
        self.0.borrow_mut().store(addr, now)
    }
}

impl<M: MemorySide> InstrMemory for Port<'_, M> {
    fn fetch(&mut self, pc: u64, _now: u64) -> u64 {
        self.0.borrow_mut().fetch(pc)
    }
}

/// The workload trace `config` runs.
///
/// # Panics
///
/// Panics on a configuration that fails [`SimConfig::validate`] or an
/// unknown application name.
pub(crate) fn workload(config: &SimConfig) -> Arc<[Inst]> {
    if let Err(e) = config.validate() {
        panic!("{e}");
    }
    // Make the execution-driven `isa:*` kernels resolvable everywhere a
    // simulation can start; install() is idempotent and cheap.
    icr_isa::install();
    // Traces are pure functions of (app, seed, instructions); the
    // process-wide store materialises each one once and shares it across
    // schemes, figures, trials and worker threads.
    icr_trace::store::global().get(&config.app, config.seed, config.instructions)
}

/// Runs the core over `trace` against `side`; returns the side and the
/// core's statistics.
pub(crate) fn run_core<M: MemorySide>(
    cpu: CpuConfig,
    trace: &[Inst],
    side: M,
) -> (M, PipelineStats) {
    let side = RefCell::new(side);
    let stats = Pipeline::new(cpu).run(trace.iter().copied(), &mut Port(&side), &mut Port(&side));
    (side.into_inner(), stats)
}

/// Runs one complete simulation.
///
/// # Panics
///
/// Panics on a configuration that fails [`SimConfig::validate`] or an
/// unknown application name.
pub fn run_sim(config: &SimConfig) -> SimResult {
    let trace = workload(config);
    let (mut machine, stats) = run_core(config.cpu, &trace, Machine::new(config, &trace));
    machine.finish(config, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icr_core::{PlacementPolicy, Scheme};

    fn quick(app: &str, dl1: DataL1Config) -> SimResult {
        run_sim(&SimConfig::paper(app, dl1, 20_000, 1))
    }

    #[test]
    fn full_machine_runs_to_completion() {
        let r = quick("gzip", DataL1Config::paper_default(Scheme::BASE_P));
        assert_eq!(r.pipeline.committed, 20_000);
        assert!(r.pipeline.cycles > 0);
        assert!(r.icr.cache.accesses() > 0);
        assert!(r.l2.accesses() > 0, "dL1 misses must reach L2");
        assert!(r.l1i.accesses() > 0);
    }

    #[test]
    fn baseecc_is_slower_than_basep() {
        let p = quick("gzip", DataL1Config::paper_default(Scheme::BASE_P));
        let e = quick("gzip", DataL1Config::paper_default(Scheme::BASE_ECC));
        assert!(
            e.pipeline.cycles > p.pipeline.cycles,
            "2-cycle ECC loads must cost cycles: {} vs {}",
            e.pipeline.cycles,
            p.pipeline.cycles
        );
    }

    #[test]
    fn icr_p_ps_s_is_close_to_basep() {
        let p = quick("gzip", DataL1Config::paper_default(Scheme::BASE_P));
        let i = quick("gzip", DataL1Config::paper_default(Scheme::ICR_P_PS_S));
        let overhead = i.pipeline.cycles as f64 / p.pipeline.cycles as f64;
        assert!(
            overhead < 1.15,
            "ICR-P-PS(S) should be near BaseP, got {overhead:.3}x"
        );
        assert!(i.icr.loads_with_replica() > 0.0);
    }

    /// A gzip run on a 16KB/4-way dL1 with `block_bytes` blocks under
    /// the default hierarchy (64 B L2 blocks).
    fn dl1_with_block(block_bytes: usize) -> SimResult {
        let mut dl1 = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
        dl1.geometry = icr_mem::CacheGeometry::new(16 * 1024, 4, block_bytes);
        dl1.placement = PlacementPolicy::vertical(dl1.geometry);
        run_sim(&SimConfig::paper("gzip", dl1, 200_000, 1))
    }

    #[test]
    #[should_panic(expected = "dL1 block size 32 B differs from the L2 block size 64 B")]
    fn dl1_blocks_smaller_than_l2_blocks_are_rejected() {
        dl1_with_block(32);
    }

    #[test]
    #[should_panic(expected = "dL1 block size 128 B differs from the L2 block size 64 B")]
    fn dl1_blocks_larger_than_l2_blocks_are_rejected() {
        dl1_with_block(128);
    }

    #[test]
    #[should_panic(expected = "invalid hierarchy config: the iL1 block (128 B)")]
    fn il1_blocks_larger_than_l2_blocks_are_rejected() {
        let mut cfg = SimConfig::builder("gzip", DataL1Config::paper_default(Scheme::BASE_P))
            .instructions(2_000)
            .build();
        cfg.hierarchy.l1i_geometry = icr_mem::CacheGeometry::new(16 * 1024, 1, 128);
        run_sim(&cfg);
    }

    /// The largest block the bound admits runs end to end, dirty L2
    /// evictions included (a small L2 forces them).
    #[test]
    fn blocks_at_the_bound_run_with_l2_writebacks() {
        let mut dl1 = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
        dl1.geometry = icr_mem::CacheGeometry::new(16 * 1024, 4, 128);
        dl1.placement = PlacementPolicy::vertical(dl1.geometry);
        let mut cfg = SimConfig::builder("gzip", dl1)
            .instructions(20_000)
            .seed(1)
            .build();
        cfg.hierarchy.l2_geometry = icr_mem::CacheGeometry::new(32 * 1024, 4, 128);
        let r = run_sim(&cfg);
        assert_eq!(r.pipeline.committed, 20_000);
        assert!(r.memory_writes > 0, "dirty 128 B L2 blocks reach memory");
    }

    #[test]
    fn determinism_same_config_same_result() {
        let a = quick("vpr", DataL1Config::paper_default(Scheme::ICR_P_PS_S));
        let b = quick("vpr", DataL1Config::paper_default(Scheme::ICR_P_PS_S));
        assert_eq!(a.pipeline, b.pipeline);
        assert_eq!(a.icr, b.icr);
    }

    #[test]
    fn fault_injection_produces_detections() {
        let cfg = SimConfig::builder("vortex", DataL1Config::paper_default(Scheme::BASE_P))
            .instructions(20_000)
            .seed(1)
            .fault(FaultConfig {
                model: ErrorModel::Random,
                p_per_cycle: 0.01,
                seed: 9,
                max_faults: None,
            })
            .build();
        let r = run_sim(&cfg);
        assert!(r.faults_injected > 0);
        assert!(
            r.icr.errors_detected > 0,
            "with {} faults injected some loads must detect",
            r.faults_injected
        );
    }

    #[test]
    fn fault_weight_reported_only_under_bias() {
        let mut cfg = SimConfig::builder("gzip", DataL1Config::paper_default(Scheme::BASE_P))
            .instructions(5_000)
            .seed(1)
            .fault(FaultConfig::one_shot(ErrorModel::Random, 0.001, 9))
            .build();
        let uniform = run_sim(&cfg);
        assert_eq!(uniform.fault_weight, None);

        cfg.fault_bias = Some(8.0);
        let biased = run_sim(&cfg);
        let w = biased.fault_weight.expect("biased runs report a weight");
        assert!(w.is_finite() && w > 0.0, "bad weight {w}");
        if biased.faults_injected == 0 {
            assert_eq!(w, 1.0, "undelivered trials carry weight 1");
        }
        // The arrival process is untouched by the bias: the same seed
        // delivers (or withholds) the fault identically.
        assert_eq!(uniform.faults_injected, biased.faults_injected);
    }

    #[test]
    fn energy_counts_populated() {
        let r = quick("gcc", DataL1Config::paper_default(Scheme::ICR_ECC_PS_S));
        assert!(r.energy_counts.l1_reads > 0);
        assert!(r.energy_counts.l1_writes > 0);
        assert!(r.energy_counts.ecc_ops > 0, "unreplicated lines use ECC");
        assert!(
            r.energy_counts.parity_ops > 0,
            "replicated lines use parity"
        );
        assert!(r.energy_counts.l2_accesses > 0);
    }

    /// A lockstep run ends with a full sweep: a load the checker never
    /// saw, served after the last one it did, diverges at `finish`.
    #[test]
    #[should_panic(expected = "lockstep audit divergence")]
    fn finish_sweeps_a_lockstep_run() {
        let config = SimConfig::builder("gzip", DataL1Config::paper_default(Scheme::BASE_P))
            .check(CheckMode::Lockstep)
            .build();
        let mut machine = Machine::new(&config, &[]);
        for (now, addr) in [0x1000, 0x2000, 0x1000].into_iter().enumerate() {
            machine.load(addr, now as u64);
        }
        machine.dl1.load(Addr(0x3000), 3, &mut machine.backend);
        let stats = PipelineStats {
            cycles: 10,
            ..PipelineStats::default()
        };
        machine.finish(&config, stats);
    }
}
