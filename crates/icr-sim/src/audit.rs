//! Lockstep reference-model auditing (`icr-exp audit`).
//!
//! [`LockstepChecker`] drives the deliberately naive `icr-check`
//! reference model with the same access stream as the real `DataL1` and
//! diffs the full observable state — tags, dirty bits, protection,
//! replica pairing, recency order, decay counters, statistics, write
//! buffer — after **every** access. [`run_audit`] runs the paper's full
//! scheme × app matrix under the checker and additionally re-runs each
//! cell *without* it, asserting the results are identical (the auditor
//! observes; it must never perturb).
//!
//! What this proves, and what it doesn't: a clean audit means the
//! optimised dL1 and an independent from-first-principles model agree on
//! every fault-free state transition over the audited workloads. It says
//! nothing about the recovery paths (fault injection is rejected under
//! [`CheckMode::Lockstep`]) or about workloads not run.

use crate::engine::Engine;
use crate::exec::Pool;
use crate::json::{arr, count, obj, text};
use crate::simulator::{run_sim, CheckMode, SimConfig};
use icr_check::{
    Counters, RealLine, RealSetExport, RealSets, RealWriteBuffer, RefConfig, RefModel,
    RefProtection, RefVictim, RefWriteBufferConfig,
};
use icr_core::{DataL1, DataL1Config, Scheme, VictimPolicy, WritePolicy};
use icr_ecc::Protection;
use icr_mem::{HierarchyConfig, MemoryBackend};

/// Translates the real dL1 configuration into the plain-type
/// [`RefConfig`] the reference model consumes. The hierarchy supplies
/// the L2 spill-region capacity for `SpillToL2` schemes (dL1-only
/// schemes get a zero-capacity spill tier, i.e. none).
///
/// # Panics
///
/// Panics when the configuration carries replication hints — the model
/// covers the hardware policy only.
pub fn ref_config(cfg: &DataL1Config, hierarchy: &HierarchyConfig) -> RefConfig {
    assert!(
        cfg.hints.is_empty(),
        "lockstep auditing covers the hardware replication policy; hints must be empty"
    );
    let g = cfg.geometry;
    RefConfig {
        sets: g.num_sets(),
        ways: g.associativity(),
        block_bytes: g.block_bytes() as u64,
        replicates: cfg.scheme.replicates(),
        replicate_on_load_miss: cfg.scheme.trigger().is_some_and(|t| t.on_load_miss()),
        unreplicated: match cfg.scheme.unreplicated_protection() {
            Protection::Parity => RefProtection::Parity,
            Protection::SecDed => RefProtection::SecDed,
        },
        decay_window: cfg.decay.window,
        victim: match cfg.victim {
            VictimPolicy::DeadOnly => RefVictim::DeadOnly,
            VictimPolicy::DeadFirst => RefVictim::DeadFirst,
            VictimPolicy::ReplicaFirst => RefVictim::ReplicaFirst,
            VictimPolicy::ReplicaOnly => RefVictim::ReplicaOnly,
        },
        distances: cfg.placement.attempts.iter().map(|&k| k as i64).collect(),
        max_replicas: cfg.placement.max_replicas,
        keep_replicas_on_evict: cfg.keep_replicas_on_evict,
        spill_capacity: if cfg.scheme.spills_to_l2() {
            hierarchy.l2_replica_blocks
        } else {
            0
        },
        write_buffer: match cfg.write_policy {
            WritePolicy::WriteBack => None,
            WritePolicy::WriteThrough { buffer_entries } => Some(RefWriteBufferConfig {
                capacity: buffer_entries,
                // The dL1 drains one entry per L2 write latency (6 cycles,
                // fixed in `DataL1::new`).
                service_latency: 6,
            }),
        },
    }
}

/// The valid line at (`set`, `way`) as the model sees it at cycle
/// `now`, read through [`DataL1::line_view`]. The decay counter is the
/// one the real cache derives from `last_access`
/// ([`DecayConfig::counter_at`](icr_core::DecayConfig::counter_at)), so
/// the model, recomputing it from scratch, catches any drift between
/// the two.
fn real_line(dl1: &DataL1, set: usize, way: usize, now: u64) -> Option<RealLine> {
    let l = dl1.line_view(set, way)?;
    let counter = dl1.config().decay.counter_at(l.last_access, now);
    Some(RealLine {
        way,
        addr: l.addr.raw(),
        dirty: l.dirty,
        replica: l.is_replica,
        prot: match l.protection {
            Protection::Parity => RefProtection::Parity,
            Protection::SecDed => RefProtection::SecDed,
        },
        last_access: l.last_access,
        counter,
        dead: counter == 3,
    })
}

fn export_counters(dl1: &DataL1) -> Counters {
    let icr = dl1.stats();
    Counters {
        read_accesses: icr.cache.read_accesses,
        read_hits: icr.cache.read_hits,
        write_accesses: icr.cache.write_accesses,
        write_hits: icr.cache.write_hits,
        fills: icr.cache.fills,
        evictions: icr.cache.evictions,
        writebacks: icr.writebacks,
        replicas_created: icr.replicas_created,
        replica_evictions: icr.replica_evictions,
        replica_updates: icr.replica_updates,
        replication_attempts: icr.replication_attempts,
        replication_with_one: icr.replication_with_one,
        replication_with_two: icr.replication_with_two,
        read_hits_with_replica: icr.read_hits_with_replica,
        misses_served_by_replica: icr.misses_served_by_replica,
        spills_created: icr.spills_created,
        spill_updates: icr.spill_updates,
        spill_invalidations: icr.spill_invalidations,
        spill_evictions: icr.spill_evictions,
        misses_served_by_spill: icr.misses_served_by_spill,
    }
}

/// The L2 spill-region occupancy in least-recently-written order — the
/// export the model's naive spill ledger is diffed against.
fn export_spill(backend: &MemoryBackend) -> Vec<u64> {
    backend
        .replica_region()
        .export_lru_order()
        .into_iter()
        .map(|(block, _)| block)
        .collect()
}

fn export_write_buffer(dl1: &DataL1) -> Option<RealWriteBuffer> {
    dl1.write_buffer().map(|wb| RealWriteBuffer {
        occupancy: wb.occupancy(),
        pushes: wb.pushes(),
        coalesced: wb.coalesced(),
        retired: wb.retired(),
        stall_cycles: wb.stall_cycles(),
        pending_ready: wb.pending_ready(),
    })
}

/// Exports the named sets (plus the global counters, spill-region
/// occupancy and write buffer) at cycle `now` into the plain
/// [`RealSets`] the reference model diffs against. The backend supplies
/// the L2 spill-region occupancy.
pub fn export_real_sets(
    dl1: &DataL1,
    backend: &MemoryBackend,
    sets: &[usize],
    now: u64,
) -> RealSets {
    let ways = dl1.geometry().associativity();
    let sets = sets
        .iter()
        .map(|&s| RealSetExport {
            set: s,
            lines: (0..ways)
                .filter_map(|w| real_line(dl1, s, w, now))
                .collect(),
            recency: dl1.lru_order(s).to_vec(),
        })
        .collect();
    RealSets {
        sets,
        spill: export_spill(backend),
        counters: export_counters(dl1),
        write_buffer: export_write_buffer(dl1),
    }
}

/// [`export_real_sets`] over every set, in order: the snapshot the full
/// [`RefModel::check`] needs.
pub fn export_real_state(dl1: &DataL1, backend: &MemoryBackend, now: u64) -> RealSets {
    let every: Vec<usize> = (0..dl1.geometry().num_sets()).collect();
    export_real_sets(dl1, backend, &every, now)
}

/// How many accesses run under the cheap incremental diff between two
/// full-state sweeps. The incremental diff covers every set the model
/// touched, so the sweep exists to catch the one thing it cannot: the
/// real cache mutating state on an access where the model mutated
/// nothing (or a different set).
const SWEEP_EVERY: u64 = 1024;

/// The in-run auditor attached to a [`CheckMode::Lockstep`] simulation:
/// it mirrors every dL1 access into the reference model and panics with
/// a labelled divergence report on the first mismatch.
///
/// Most accesses are diffed *incrementally*: the model logs which sets
/// its own transition touched, and only those sets (plus the global
/// counters and write-buffer state) are exported and compared. Every
/// `SWEEP_EVERY`-th access, and the end of the run, sweeps: the same
/// diff over every set, then the replica-pairing invariants over the
/// whole cache — the backstop for divergences in sets neither side
/// should have moved.
#[derive(Debug)]
pub struct LockstepChecker {
    model: RefModel,
    app: String,
    scheme: String,
    accesses: u64,
    /// Reusable touched-set buffer for the incremental diff.
    touched: Vec<usize>,
}

impl LockstepChecker {
    /// An auditor for a dL1 with the given configuration running over
    /// the given hierarchy (which sizes the L2 spill region for
    /// `SpillToL2` schemes), labelled with the workload name for
    /// divergence reports.
    ///
    /// # Panics
    ///
    /// Panics on a configuration outside the model's coverage (see
    /// [`ref_config`]).
    pub fn new(cfg: &DataL1Config, hierarchy: &HierarchyConfig, app: &str) -> Self {
        LockstepChecker {
            model: RefModel::new(ref_config(cfg, hierarchy)),
            app: app.to_owned(),
            scheme: cfg.scheme.name(),
            accesses: 0,
            touched: Vec::new(),
        }
    }

    /// Mirrors a load the real cache just performed, then diffs.
    ///
    /// # Panics
    ///
    /// Panics with a full divergence report on the first mismatch.
    pub fn after_load(&mut self, addr: u64, now: u64, dl1: &DataL1, backend: &MemoryBackend) {
        self.model.load(addr, now);
        self.verify("load", addr, now, dl1, backend);
    }

    /// Mirrors a store the real cache just performed, then diffs.
    ///
    /// # Panics
    ///
    /// Panics with a full divergence report on the first mismatch.
    pub fn after_store(&mut self, addr: u64, now: u64, dl1: &DataL1, backend: &MemoryBackend) {
        self.model.store(addr, now);
        self.verify("store", addr, now, dl1, backend);
    }

    /// Accesses diffed so far.
    pub fn accesses_checked(&self) -> u64 {
        self.accesses
    }

    /// The full sweep that ends a run, at its final cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics with a full divergence report on a mismatch.
    pub(crate) fn sweep(&mut self, now: u64, dl1: &DataL1, backend: &MemoryBackend) {
        if let Err(e) = self.model.check(now, &export_real_state(dl1, backend, now)) {
            panic!(
                "lockstep audit divergence: scheme {}, app {}, final sweep after {} \
                 accesses, at cycle {now}:\n{e}",
                self.scheme, self.app, self.accesses
            );
        }
    }

    fn verify(&mut self, kind: &str, addr: u64, now: u64, dl1: &DataL1, backend: &MemoryBackend) {
        self.accesses += 1;
        let result = if self.accesses.is_multiple_of(SWEEP_EVERY) {
            self.model.check(now, &export_real_state(dl1, backend, now))
        } else {
            let mut touched = std::mem::take(&mut self.touched);
            self.model.take_touched_sets(&mut touched);
            let real = export_real_sets(dl1, backend, &touched, now);
            self.touched = touched;
            self.model.check_touched(now, &real)
        };
        if let Err(e) = result {
            panic!(
                "lockstep audit divergence: scheme {}, app {}, access #{} \
                 ({kind} {addr:#x} at cycle {now}):\n{e}",
                self.scheme, self.app, self.accesses
            );
        }
    }
}

/// Everything that defines an audit run. Echoed into the JSON report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditSpec {
    /// Cache schemes under audit (rows of the matrix).
    pub schemes: Vec<Scheme>,
    /// Workloads (columns of the matrix).
    pub apps: Vec<String>,
    /// Dynamic instructions per cell.
    pub instructions: u64,
    /// Workload seed.
    pub seed: u64,
    /// Worker threads (`0` = all available cores).
    pub threads: usize,
}

impl AuditSpec {
    /// An audit over `schemes × apps` on all cores.
    pub fn new(schemes: Vec<Scheme>, apps: Vec<String>, instructions: u64, seed: u64) -> Self {
        AuditSpec {
            schemes,
            apps,
            instructions,
            seed,
            threads: 0,
        }
    }

    fn validate(&self) {
        assert!(!self.schemes.is_empty(), "audit needs at least one scheme");
        assert!(!self.apps.is_empty(), "audit needs at least one app");
        assert!(self.instructions > 0, "audit needs instructions to run");
    }
}

/// One audited (scheme × app) cell: how much state-diffing it survived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditCell {
    /// Scheme under audit.
    pub scheme: Scheme,
    /// Workload name.
    pub app: String,
    /// dL1 accesses diffed against the reference model (one diff each).
    pub accesses_checked: u64,
    /// Cycles the simulation ran for.
    pub cycles: u64,
}

/// A finished audit: the spec echo plus one cell per (scheme, app),
/// row-major in spec order. Constructing one means every cell passed —
/// a divergence panics inside [`run_audit`] instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// The spec that produced this report.
    pub spec: AuditSpec,
    /// Per-cell audit volumes.
    pub cells: Vec<AuditCell>,
}

/// Runs the audit: every (scheme × app) cell executes once under the
/// lockstep checker and once without it, and the two
/// [`SimResult`](crate::SimResult)s must be identical — the auditor
/// observes, it must never perturb.
///
/// # Panics
///
/// Panics on the first state divergence (with the scheme, app, access
/// number and differing field), on a checked/unchecked result mismatch,
/// or on an invalid spec.
pub fn run_audit(spec: &AuditSpec) -> AuditReport {
    spec.validate();
    let pool = Pool::new(spec.threads);
    let grid = pool.run_grid(&spec.schemes, &spec.apps, |&scheme, app| {
        let dl1 = DataL1Config::paper_default(scheme);
        let checked_cfg = SimConfig::builder(app, dl1.clone())
            .instructions(spec.instructions)
            .seed(spec.seed)
            .check(CheckMode::Lockstep)
            .build();
        // Panics with the divergence report on the first mismatch.
        let checked = run_sim(&checked_cfg);
        // Differential leg: the same cell without the auditor attached.
        let plain_cfg = SimConfig::paper(app, dl1, spec.instructions, spec.seed);
        let plain = Engine::global().run(&plain_cfg);
        assert_eq!(
            checked,
            *plain,
            "the lockstep checker perturbed the run: scheme {}, app {app}",
            scheme.name()
        );
        AuditCell {
            scheme,
            app: app.clone(),
            accesses_checked: checked.icr.cache.accesses(),
            cycles: checked.pipeline.cycles,
        }
    });
    AuditReport {
        spec: spec.clone(),
        cells: grid.into_iter().flatten().collect(),
    }
}

impl AuditReport {
    /// Total accesses diffed across every cell.
    pub fn total_accesses_checked(&self) -> u64 {
        self.cells.iter().map(|c| c.accesses_checked).sum()
    }

    /// A human-readable per-scheme summary: accesses audited per cell.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>10} {:>14} {:>12}\n",
            "scheme", "cells", "accesses", "cycles"
        ));
        for &scheme in &self.spec.schemes {
            let cells: Vec<&AuditCell> = self.cells.iter().filter(|c| c.scheme == scheme).collect();
            let accesses: u64 = cells.iter().map(|c| c.accesses_checked).sum();
            let cycles: u64 = cells.iter().map(|c| c.cycles).sum();
            out.push_str(&format!(
                "{:<16} {:>10} {:>14} {:>12}\n",
                scheme.name(),
                cells.len(),
                accesses,
                cycles
            ));
        }
        out.push_str(&format!(
            "total: {} accesses diffed against the reference model, 0 divergences\n",
            self.total_accesses_checked()
        ));
        out
    }

    /// The report as JSON, printed by
    /// [`Value::pretty`](crate::json::Value::pretty).
    /// Deterministic for a given spec.
    pub fn to_json(&self) -> String {
        let spec = &self.spec;
        let audit = obj([
            ("seed", count(spec.seed)),
            ("instructions", count(spec.instructions)),
            ("schemes", arr(spec.schemes.iter().map(|s| text(&s.name())))),
            ("apps", arr(spec.apps.iter().map(|a| text(a)))),
            (
                "total_accesses_checked",
                count(self.total_accesses_checked()),
            ),
            ("divergences", count(0u64)),
        ]);
        let cells = self.cells.iter().map(|cell| {
            obj([
                ("scheme", text(&cell.scheme.name())),
                ("app", text(&cell.app)),
                ("accesses_checked", count(cell.accesses_checked)),
                ("cycles", count(cell.cycles)),
            ])
        });
        let doc = obj([("audit", audit), ("cells", arr(cells))]).pretty();
        debug_assert!(
            icr_check::json_complete(&doc),
            "audit JSON must be complete"
        );
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(schemes: Vec<Scheme>) -> AuditSpec {
        AuditSpec::new(schemes, vec!["gzip".into()], 3_000, 7)
    }

    #[test]
    fn basep_cell_audits_clean() {
        let report = run_audit(&tiny_spec(vec![Scheme::BASE_P]));
        assert_eq!(report.cells.len(), 1);
        assert!(report.cells[0].accesses_checked > 0);
    }

    #[test]
    fn replicating_scheme_audits_clean() {
        let report = run_audit(&tiny_spec(vec![Scheme::ICR_P_PS_S]));
        assert!(report.total_accesses_checked() > 0);
    }

    #[test]
    fn spill_scheme_audits_clean() {
        let report = run_audit(&tiny_spec(vec![Scheme::ICR_P_PS_S_L2]));
        assert!(report.total_accesses_checked() > 0);
    }

    #[test]
    fn report_json_is_complete_and_deterministic() {
        let a = run_audit(&tiny_spec(vec![Scheme::BASE_P]));
        let b = run_audit(&tiny_spec(vec![Scheme::BASE_P]));
        assert_eq!(a.to_json(), b.to_json());
        assert!(icr_check::json_complete(&a.to_json()));
        assert!(a.summary_table().contains("0 divergences"));
    }

    #[test]
    #[should_panic(expected = "hints must be empty")]
    fn hinted_configs_are_rejected() {
        let mut cfg = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
        cfg.hints = icr_core::ReplicationHints::new().deny(0..0x1000);
        ref_config(&cfg, &HierarchyConfig::default());
    }

    #[test]
    #[should_panic(expected = "fault-free")]
    fn lockstep_rejects_fault_injection() {
        let cfg = SimConfig::builder("gzip", DataL1Config::paper_default(Scheme::BASE_P))
            .instructions(1_000)
            .fault(crate::simulator::FaultConfig::one_shot(
                icr_fault::ErrorModel::Random,
                0.001,
                1,
            ))
            .check(CheckMode::Lockstep)
            .build();
        run_sim(&cfg);
    }
}
