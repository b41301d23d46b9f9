//! Monte-Carlo fault-injection campaign engine (§5.3 recovery analysis at
//! statistical scale).
//!
//! A campaign runs N independent single-event-upset trials for every
//! (scheme × app) cell: each trial simulates the full machine with the
//! fault injector capped at one fault, classifies how that fault ended
//! ([`ErrorOutcome`]) and tallies the outcomes per cell with Wilson 95%
//! confidence intervals over the survived fraction.
//!
//! **One engine.** Every campaign runs through one shard loop
//! ([`run_sharded_campaign_observed`]): shard `s` covers per-cell trial
//! indices `[s·shard_size, (s+1)·shard_size)` of every cell still
//! active. A plain [`run_campaign`] is that loop in memory, with
//! [`CampaignSpec::batch`] as the shard size and no checkpoint
//! directory; a checkpointed run persists each finished shard so a
//! killed campaign resumes, and a fan-out splits the shards over
//! workers.
//!
//! **Determinism.** Trial `i` of cell `c` draws its injector seed as
//! `icr_fault::trial_seed(master_seed, c·trials_per_cell + i)` — a pure
//! SplitMix64 function of the campaign's master seed and the trial's
//! coordinates. Trials are pure functions of their seed, tallies are
//! commutative integer sums, weighted sums are folded per shard in a
//! fixed order, and early stopping is only evaluated at shard
//! boundaries, so a campaign's results are bit-identical across
//! repeated runs, thread counts, work interleavings, kills and resumes.
//!
//! **Early stopping.** With a `target_ci_width`, a cell stops as soon as
//! a completed shard leaves its Wilson interval narrower than the target,
//! instead of burning the full trial budget. Because the check happens
//! only between whole shards, the set of executed trials — and hence the
//! report — is still thread-count independent.
//!
//! **Importance sampling.** With [`CampaignSpec::importance`], each
//! trial reads two things off its cell's fault-free reference run (the
//! one its trials replay, run when a shard first executes the cell): an
//! [`icr_core::InjectionProposal`] site boost from the exposure windows,
//! and the run's cycle count `C`.
//! Importance trials then change the proposal on both axes of the
//! injection:
//!
//! * **Arrival (forced injection).** Instead of drawing per-cycle
//!   Bernoulli(`p`) arrivals — which at a physical `p` deliver no
//!   fault at all in a fraction `(1-p)^C` of trials, runs the
//!   conditional-on-injection estimator then discards — the arrival
//!   cycle is drawn directly from the arrival process's exact
//!   conditional distribution given delivery within `C` cycles
//!   ([`icr_fault::conditional_arrival`], a truncated geometric).
//!   Every trial delivers; the likelihood ratio of the arrival is
//!   exactly 1 because the proposal *is* the conditional being
//!   estimated. Trials-to-target shrinks by `1 / (1 - (1-p)^C)`.
//! * **Site.** The strike tilts toward strike-worthy lines — dirty
//!   parity primaries (loss-prone while resident) plus residents of
//!   the workload's store working set (the lines a clean strike can
//!   *launder* through: a later store dirties the line and replication
//!   re-encodes the corrupted word under clean parity). The boost is
//!   the profiled inverse loss-prone residency fraction, and each
//!   trial carries the exact site likelihood ratio.
//!
//! The cell accumulates a [`WeightedTally`] next to the raw counts;
//! the self-normalised estimate is unbiased for the uniform campaign's
//! conditional survived fraction but spends every trial on a delivered
//! strike, so the CI target is reached in far fewer trials. Early
//! stopping then tests the weighted interval
//! ([`crate::stats::wilson_ci95_f`] over `(p̂·n_eff, n_eff)`).
//!
//! **Multi-host fan-out.** [`ShardedCampaignSpec::worker`] restricts a
//! run to the shards `s` with `s % n == i` — worker `i` of an `n`-way
//! fleet. Workers share one checkpoint directory or write their own;
//! either way [`merge_sharded_campaign`] later replays the union of
//! directories restore-only into a report byte-identical to a
//! single-process run of the same spec. The worker split is excluded
//! from the spec fingerprint, so every worker and the merge agree on
//! checkpoint identity.

use crate::checkpoint::{self, ShardCellState, ShardCheckpoint};
use crate::engine::Engine;
use crate::exec::Pool;
use crate::json::{arr, count, number, obj, text, Value};
use crate::replay::{self, CallLog};
use crate::simulator::{run_sim, FaultConfig, SimConfig};
use crate::stats::{wilson_ci95, wilson_ci95_f};
use icr_core::{
    DataL1Config, ErrorOutcome, InjectionProposal, OutcomeTally, Scheme, WeightedTally,
};
use icr_fault::{conditional_arrival, trial_seed, ErrorModel};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// Everything that defines a campaign. The spec is echoed into the JSON
/// report so a result file is self-describing and replayable.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Cache schemes under test (rows of the matrix).
    pub schemes: Vec<Scheme>,
    /// Workloads (columns of the matrix).
    pub apps: Vec<String>,
    /// Trial budget per (scheme × app) cell.
    pub trials_per_cell: u64,
    /// Per-cell trials per in-memory shard of a plain [`run_campaign`]:
    /// stopping decisions happen only at multiples of this, which keeps
    /// them thread-count independent. `icr-campaign` also uses it as the
    /// default `--shard-size` of checkpointed runs.
    pub batch: u64,
    /// Master seed; every trial seed derives from it via SplitMix64.
    pub master_seed: u64,
    /// Dynamic instructions per trial.
    pub instructions: u64,
    /// Error model for the injected fault.
    pub model: ErrorModel,
    /// Per-cycle fault probability; `0.0` selects an automatic rate that
    /// makes the single fault arrive early in the run with near
    /// certainty (`8 / instructions`).
    pub p_per_cycle: f64,
    /// Stop a cell once the Wilson 95% interval of its survived fraction
    /// is narrower than this (`None` = always run the full budget).
    pub target_ci_width: Option<f64>,
    /// Worker threads (`0` = all available cores).
    pub threads: usize,
    /// Enable the oracle shadow so silent corruption is observable.
    pub oracle: bool,
    /// Importance-sampled injection: tilt each trial's strike toward
    /// dirty-parity lines (per-cell proposal derived from a fault-free
    /// exposure profile), record the per-trial likelihood ratio, and
    /// report a self-normalised [`WeightedTally`] next to the raw
    /// counts. Arrival times stay exactly uniform, so the weighted
    /// estimates are unbiased for the uniform campaign's fractions.
    pub importance: bool,
}

impl CampaignSpec {
    /// A campaign over `schemes × apps` with sensible defaults:
    /// 20k-instruction trials, random error model, auto fault rate,
    /// batches of 50, no early stopping, all cores, oracle on.
    pub fn new(
        schemes: Vec<Scheme>,
        apps: Vec<String>,
        trials_per_cell: u64,
        master_seed: u64,
    ) -> Self {
        CampaignSpec {
            schemes,
            apps,
            trials_per_cell,
            batch: 50,
            master_seed,
            instructions: 20_000,
            model: ErrorModel::Random,
            p_per_cycle: 0.0,
            target_ci_width: None,
            threads: 0,
            oracle: true,
            importance: false,
        }
    }

    /// The per-cycle probability actually used.
    pub fn effective_p(&self) -> f64 {
        if self.p_per_cycle > 0.0 {
            self.p_per_cycle
        } else {
            (8.0 / self.instructions.max(1) as f64).min(1.0)
        }
    }

    /// Checks that the campaign can run: at least one scheme, app and
    /// trial, a positive batch, a positive instruction budget and a
    /// fault probability in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule.
    pub fn validate(&self) -> Result<(), String> {
        let broken = if self.schemes.is_empty() {
            "campaign needs at least one scheme"
        } else if self.apps.is_empty() {
            "campaign needs at least one app"
        } else if self.trials_per_cell == 0 {
            "campaign needs at least one trial"
        } else if self.batch == 0 {
            "batch size must be positive"
        } else if self.instructions == 0 {
            "trials need instructions to run"
        } else if !(0.0..=1.0).contains(&self.p_per_cycle) {
            "the per-cycle fault probability must be in [0, 1]"
        } else {
            return Ok(());
        };
        Err(broken.into())
    }
}

/// Final tallies for one (scheme × app) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Workload name.
    pub app: String,
    /// Trials actually executed (≤ the budget when stopped early).
    pub trials: u64,
    /// `true` when the CI target was reached before the trial budget.
    pub stopped_early: bool,
    /// Outcome counts.
    pub tally: OutcomeTally,
    /// Importance-sampling companion tally — per-outcome likelihood-ratio
    /// sums next to the raw counts. `Some` exactly when the spec ran
    /// with [`CampaignSpec::importance`].
    pub weighted: Option<WeightedTally>,
}

impl CellReport {
    /// Wilson 95% interval of the survived fraction (recovered or
    /// harmlessly masked, over delivered faults).
    pub fn wilson95(&self) -> (f64, f64) {
        wilson_ci95(self.tally.survived_count(), self.tally.injected())
    }

    /// Weighted Wilson 95% interval of the survived fraction, from the
    /// importance-sampling estimate's `(p̂·n_eff, n_eff)` pseudo-counts.
    /// `None` for uniform cells.
    pub fn weighted_wilson95(&self) -> Option<(f64, f64)> {
        let est = self.weighted.as_ref()?.survived_estimate();
        Some(wilson_ci95_f(est.p * est.n_eff, est.n_eff))
    }
}

/// A finished campaign: the spec echo plus one report per cell, in
/// `schemes × apps` order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The spec that produced this report.
    pub spec: CampaignSpec,
    /// Per-cell tallies, row-major over (scheme, app).
    pub cells: Vec<CellReport>,
}

/// Runs a campaign in memory: the shard loop of
/// [`run_sharded_campaign`] with [`CampaignSpec::batch`] trials per
/// shard and no checkpoint directory. Use
/// [`run_sharded_campaign_observed`] for per-shard progress.
///
/// # Errors
///
/// Returns an error (instead of aborting) when a cell's final tally
/// violates outcome conservation or its weighted tally fails its
/// internal invariants — the diagnostic names the offending cell.
pub fn run_campaign(spec: &CampaignSpec) -> io::Result<CampaignReport> {
    let sharded = ShardedCampaignSpec::new(spec.clone(), spec.batch);
    run_sharded_campaign(&sharded, None, false).map(|r| r.report)
}

/// Outcome conservation plus weighted-tally consistency for one final
/// cell, as a runtime error instead of an abort: the diagnostic names
/// the offending cell so callers can quarantine it (and, in checkpoint
/// mode, leave every durable shard file intact for inspection).
fn check_conservation(cell: &CellReport) -> io::Result<()> {
    let CellReport {
        scheme,
        app,
        trials,
        tally,
        weighted,
        ..
    } = cell;
    let fail = |e: String| {
        io::Error::other(format!(
            "campaign tally violates conservation: scheme {scheme}, app {app}: {e}; \
             the cell is quarantined from the report and any checkpoints are preserved"
        ))
    };
    icr_check::tally_conserved(
        *trials,
        tally.count(ErrorOutcome::NotInjected),
        tally.recovered(),
        tally.count(ErrorOutcome::Masked),
        tally.count(ErrorOutcome::DetectedUnrecoverable),
        tally.count(ErrorOutcome::SilentCorruption),
    )
    .map_err(|e| fail(e.to_string()))?;
    if let Some(w) = weighted {
        w.check_consistent(tally).map_err(fail)?;
    }
    Ok(())
}

/// Seed salt separating the forced-arrival stream from the injector's
/// site/word/bit stream: both are SplitMix64 functions of
/// `(master_seed, global_index)`, so without a salt they would be the
/// *same* value and the arrival would be correlated with the site draw.
const ARRIVAL_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// The fault-free configuration of one cell: the reference run whose
/// exposure profile gives an importance campaign's proposal and whose
/// call log its trials replay. A trial adds only the fault to it.
fn cell_config(spec: &CampaignSpec, scheme: Scheme, app: &str) -> SimConfig {
    let mut dl1 = DataL1Config::paper_default(scheme);
    dl1.oracle = spec.oracle;
    SimConfig::builder(app, dl1)
        .instructions(spec.instructions)
        .seed(spec.master_seed)
        .build()
}

/// One trial: simulate the machine with a single fault — arriving
/// per-cycle Bernoulli and placed uniformly, or (importance mode)
/// forced to a conditional arrival draw and tilted toward
/// strike-worthy sites — and classify the consequence. Returns the
/// outcome and the trial's likelihood ratio (`1.0` for uniform trials
/// and undelivered faults). A pure function of `(spec, cell_index,
/// trial_index)` and the cell's fault-free reference `log`, whose
/// configuration the trial adds its fault to: the trial replays the
/// log's calls instead of running the core, and runs in full only when
/// its latencies leave the log's.
fn run_trial(
    spec: &CampaignSpec,
    cell_index: usize,
    trial: u64,
    log: &CallLog,
) -> (ErrorOutcome, f64) {
    let global_index = cell_index as u64 * spec.trials_per_cell + trial;
    let fault_seed = trial_seed(spec.master_seed, global_index);
    let mut cfg = log.config.clone();
    cfg.fault = Some(FaultConfig::one_shot(
        spec.model,
        spec.effective_p(),
        fault_seed,
    ));
    if spec.importance {
        // The proposal comes from the reference's exposure profile: the
        // site boost is its inverse loss-prone residency fraction, and
        // its cycle count is the exact arrival horizon of every one-shot
        // trial of the cell, whose pre-fault timeline is fault-free.
        let arrival_seed = trial_seed(spec.master_seed ^ ARRIVAL_SALT, global_index);
        cfg.fault_bias = Some(InjectionProposal::from_windows(&log.result.exposure).dirty_boost);
        cfg.fault_arrival = Some(conditional_arrival(
            spec.effective_p(),
            log.result.pipeline.cycles.max(1),
            arrival_seed,
        ));
    }
    let r = Engine::global().run_with(&cfg, || {
        replay::replay(&cfg, log).map_or_else(|| run_sim(&cfg), |(result, _)| result)
    });
    let outcome = ErrorOutcome::classify_single_fault(r.faults_injected, &r.icr);
    (outcome, r.fault_weight.unwrap_or(1.0))
}

impl CampaignReport {
    /// The cell for `(scheme, app)`, if the spec contained it.
    pub fn cell(&self, scheme: Scheme, app: &str) -> Option<&CellReport> {
        self.cells
            .iter()
            .find(|c| c.scheme == scheme && c.app == app)
    }

    /// Per-scheme tallies merged over all apps, in spec order.
    pub fn scheme_totals(&self) -> Vec<(Scheme, OutcomeTally)> {
        self.spec
            .schemes
            .iter()
            .map(|&s| {
                let mut total = OutcomeTally::default();
                for c in self.cells.iter().filter(|c| c.scheme == s) {
                    total.merge(&c.tally);
                }
                (s, total)
            })
            .collect()
    }

    /// A human-readable per-scheme summary table.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>8} {:>9} {:>8} {:>8} {:>8} {:>7} {:>7} {:>10} {:>17}\n",
            "scheme",
            "trials",
            "injected",
            "replica",
            "ecc",
            "l2",
            "lost",
            "silent",
            "survived",
            "wilson95"
        ));
        for (scheme, tally) in self.scheme_totals() {
            let injected = tally.injected();
            let (lo, hi) = wilson_ci95(tally.survived_count(), injected);
            out.push_str(&format!(
                "{:<16} {:>8} {:>9} {:>8} {:>8} {:>8} {:>7} {:>7} {:>10.4} [{:.4}, {:.4}]\n",
                scheme.name(),
                tally.total(),
                injected,
                tally.count(ErrorOutcome::CorrectedByReplica),
                tally.count(ErrorOutcome::CorrectedByEcc),
                tally.count(ErrorOutcome::RefetchedFromL2),
                tally.count(ErrorOutcome::DetectedUnrecoverable),
                tally.count(ErrorOutcome::SilentCorruption),
                tally.survived_fraction(),
                lo,
                hi,
            ));
        }
        out
    }

    /// The report as JSON, printed by [`Value::pretty`] (the workspace
    /// deliberately carries no JSON dependency) and free of timing or
    /// host information, so two runs of the same spec produce
    /// byte-identical files.
    pub fn to_json(&self) -> String {
        format!("{}\n", self.document(None).pretty())
    }

    /// The report document: the `campaign` spec echo, the `sharding`
    /// member when one is given, then `cells`.
    fn document(&self, sharding: Option<Value>) -> Value {
        let spec = &self.spec;
        let campaign = [
            ("master_seed", count(spec.master_seed)),
            ("instructions", count(spec.instructions)),
            ("model", text(spec.model.name())),
            ("p_per_cycle", number(spec.effective_p())),
            ("trials_per_cell", count(spec.trials_per_cell)),
            ("batch", count(spec.batch)),
            (
                "target_ci_width",
                spec.target_ci_width.map_or(Value::Null, number),
            ),
            ("oracle", Value::Bool(spec.oracle)),
        ]
        .into_iter()
        // Gated on the mode so uniform reports keep their historical
        // bytes exactly.
        .chain(spec.importance.then_some(("importance", Value::Bool(true))))
        .chain([
            ("schemes", arr(spec.schemes.iter().map(|s| text(&s.name())))),
            ("apps", arr(spec.apps.iter().map(|a| text(a)))),
        ]);
        let cells = self.cells.iter().map(|cell| {
            let (lo, hi) = cell.wilson95();
            let importance = cell.weighted.as_ref().map(|w| {
                let est = w.survived_estimate();
                let (wlo, whi) = cell
                    .weighted_wilson95()
                    .expect("weighted cell has a weighted interval");
                obj([
                    ("weights", arr(w.weights().map(number))),
                    ("weight_squares", arr(w.weight_squares().map(number))),
                    ("survived_weighted", number(est.p)),
                    ("n_eff", number(est.n_eff)),
                    ("wilson95_weighted", arr([number(wlo), number(whi)])),
                ])
            });
            let outcomes = ErrorOutcome::ALL
                .iter()
                .map(|&o| (o.name(), count(cell.tally.count(o))));
            obj([
                ("scheme", text(&cell.scheme.name())),
                ("app", text(&cell.app)),
                ("trials", count(cell.trials)),
                ("stopped_early", Value::Bool(cell.stopped_early)),
                ("injected", count(cell.tally.injected())),
                ("recovered", count(cell.tally.recovered())),
                ("outcomes", obj(outcomes)),
                ("survived_fraction", number(cell.tally.survived_fraction())),
                (
                    "recovered_fraction",
                    number(cell.tally.recovered_fraction()),
                ),
            ]
            .into_iter()
            .chain(importance.map(|v| ("importance", v)))
            .chain([("wilson95", arr([number(lo), number(hi)]))]))
        });
        obj([("campaign", obj(campaign))]
            .into_iter()
            .chain(sharding.map(|s| ("sharding", s)))
            .chain([("cells", arr(cells))]))
    }
}

/// A campaign partitioned into seed-range shards for checkpointed,
/// resumable execution.
///
/// Shard `s` covers per-cell trial indices `[s·shard_size,
/// min((s+1)·shard_size, trials_per_cell))` for every cell still
/// active. Trial seeds are a pure SplitMix64 function of the master
/// seed and the trial's global coordinates, so each shard's seed
/// stream is independent of every other shard's, shard tallies are
/// order-insensitive and mergeable, and without early stopping every
/// shard size reproduces the same tallies bit-for-bit.
///
/// Early-stopping decisions happen at shard boundaries (the shard is
/// the durable unit of progress). `shard_size` takes the place of
/// [`CampaignSpec::batch`], which [`run_campaign`] passes here as the
/// shard size of its in-memory run; everything else in the base spec
/// keeps its meaning.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedCampaignSpec {
    /// The campaign being sharded.
    pub base: CampaignSpec,
    /// Per-cell trials per shard (the checkpoint granularity).
    pub shard_size: u64,
    /// `Some((i, n))` runs only the shards `s` with `s % n == i` —
    /// worker `i` of an `n`-way fan-out. The slice is deterministic, so
    /// `n` workers over any split of the shard space cover every shard
    /// exactly once and their checkpoints merge
    /// ([`merge_sharded_campaign`]) to the single-process bytes.
    /// Excluded from [`fingerprint`](ShardedCampaignSpec::fingerprint):
    /// all workers and the merge agree on checkpoint identity.
    /// Incompatible with early stopping (`target_ci_width`), which
    /// needs the full cumulative shard order.
    pub worker: Option<(u64, u64)>,
}

impl ShardedCampaignSpec {
    /// Shards `base` into ranges of `shard_size` trials per cell.
    pub fn new(base: CampaignSpec, shard_size: u64) -> Self {
        ShardedCampaignSpec {
            base,
            shard_size,
            worker: None,
        }
    }

    /// Restricts the run to worker `index` of a `total`-way fan-out.
    pub fn with_worker(mut self, index: u64, total: u64) -> Self {
        self.worker = Some((index, total));
        self
    }

    /// `true` when this spec's worker slice owns shard `s` (a spec
    /// without a worker owns every shard).
    pub fn owns_shard(&self, s: u64) -> bool {
        match self.worker {
            Some((i, n)) => s % n == i,
            None => true,
        }
    }

    /// Total shards the trial budget partitions into.
    pub fn shards_total(&self) -> u64 {
        self.base.trials_per_cell.div_ceil(self.shard_size.max(1))
    }

    /// FNV-1a fingerprint over every spec field that affects trial
    /// outcomes or shard geometry. Checkpoints carry it in their
    /// header; a resume refuses (quarantines) any checkpoint written
    /// by a different spec. Thread count and `batch` are deliberately
    /// excluded — neither changes what a shard computes.
    pub fn fingerprint(&self) -> u64 {
        use std::fmt::Write;
        // Destructured without `..`: a new spec field does not compile
        // until it is either hashed here or excluded with a reason.
        let ShardedCampaignSpec {
            base,
            shard_size,
            // Every worker of a fan-out shares one checkpoint identity.
            worker: _,
        } = self;
        let CampaignSpec {
            schemes,
            apps,
            trials_per_cell,
            batch: _,
            master_seed,
            instructions,
            model,
            // Hashed as `effective_p()`, which resolves the auto rate.
            p_per_cycle: _,
            target_ci_width,
            threads: _,
            oracle,
            importance,
        } = base;
        let mut canon = String::new();
        write!(
            canon,
            "ICRC v{}|seed={}|insts={}|model={}|p={}|trials={}|ci={:?}|oracle={}|shard_size={}",
            checkpoint::VERSION,
            master_seed,
            instructions,
            model.name(),
            number(base.effective_p()).to_json(),
            trials_per_cell,
            target_ci_width,
            oracle,
            shard_size,
        )
        .expect("writing to a String cannot fail");
        // Gated so uniform campaigns keep their historical fingerprints
        // (and hence resume their pre-existing checkpoints).
        if *importance {
            canon.push_str("|importance=true");
        }
        for s in schemes {
            write!(canon, "|s:{}", s.name()).expect("infallible");
        }
        for a in apps {
            write!(canon, "|a:{a}").expect("infallible");
        }
        checkpoint::fnv1a64(canon.as_bytes())
    }

    /// Checks the base spec, a positive shard size and, for a worker
    /// slice, a worker index below a positive worker count and no early
    /// stopping, which needs the full cumulative shard order. The worker
    /// diagnostics name `icr-campaign`'s `--worker` and `--ci-width`.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule.
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate()?;
        if self.shard_size == 0 {
            return Err("shard size must be positive".into());
        }
        match self.worker {
            Some((_, 0)) => Err("--worker I/N needs at least one worker (N >= 1)".into()),
            Some((i, n)) if i >= n => Err(format!(
                "--worker index {i} is out of range for {n} worker(s)"
            )),
            Some(_) if self.base.target_ci_width.is_some() => Err(
                "--worker is incompatible with --ci-width: early stopping needs \
                 the full cumulative shard order, which a worker slice cannot see"
                    .into(),
            ),
            _ => Ok(()),
        }
    }
}

/// What happened to one shard, streamed to the observer as the
/// campaign advances (the per-shard progress feed that replaces
/// waiting on the single end-of-run JSON blob).
#[derive(Debug, Clone)]
pub enum ShardEvent {
    /// A checkpoint file failed verification and was renamed aside;
    /// its shard will re-run from its seeds.
    Quarantined {
        /// Shard index the file claimed to cover.
        shard: u64,
        /// Where the failed file now lives.
        quarantined_to: PathBuf,
        /// Why verification failed.
        reason: String,
    },
    /// A shard completed — executed fresh or restored from a verified
    /// checkpoint.
    ShardDone(ShardProgress),
}

/// Progress snapshot for one completed shard.
#[derive(Debug, Clone, Copy)]
pub struct ShardProgress {
    /// Shard index, counting from 0.
    pub shard: u64,
    /// Total shards in the plan.
    pub shards_total: u64,
    /// `true` when the shard was restored from a checkpoint instead of
    /// executed.
    pub resumed: bool,
    /// Trials this shard contributed (freshly run or restored).
    pub trials_this_shard: u64,
    /// Cumulative trials across all shards so far.
    pub trials_done: u64,
    /// Cells still active after this shard's early-stop evaluation.
    pub cells_active: usize,
    /// Total cells in the matrix.
    pub cells_total: usize,
}

/// A finished (or gracefully drained) sharded campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedReport {
    /// Merged per-cell results; `report.to_json()` is the plain
    /// campaign document, without the `sharding` section.
    pub report: CampaignReport,
    /// Per-cell trials per shard.
    pub shard_size: u64,
    /// Shards the trial budget partitions into.
    pub shards_total: u64,
    /// Shards actually accounted for (run or restored). Less than
    /// `shards_total` when every cell stopped early, or when a stop
    /// request drained the run.
    pub shards_done: u64,
    /// Of `shards_done`, how many were restored from checkpoints.
    /// Deliberately **not** serialized: a resumed run's JSON must be
    /// byte-identical to an uninterrupted one.
    pub shards_resumed: u64,
    /// Checkpoint files that failed verification and were quarantined.
    /// Not serialized, for the same reason.
    pub quarantined: u64,
    /// `false` when a stop request (e.g. SIGINT) drained the campaign
    /// before every cell finished; the JSON carries this marker so
    /// partial results can never be mistaken for final ones.
    pub complete: bool,
    /// The worker slice that produced this report, when it was one leg
    /// of a fan-out. A merged or single-process report carries `None`,
    /// keeping those bytes identical.
    pub worker: Option<(u64, u64)>,
}

impl ShardedReport {
    /// The report as JSON: the plain campaign document plus a
    /// `sharding` member after `campaign`. Identical bytes whether the
    /// run was straight-through or killed and resumed any number of
    /// times.
    pub fn to_json(&self) -> String {
        let sharding = self
            .worker
            .map(|(i, n)| ("worker", arr([count(i), count(n)])))
            .into_iter()
            .chain([
                ("shard_size", count(self.shard_size)),
                ("shards_total", count(self.shards_total)),
                ("shards_done", count(self.shards_done)),
                ("complete", Value::Bool(self.complete)),
            ]);
        let doc = self.report.document(Some(obj(sharding)));
        format!("{}\n", doc.pretty())
    }
}

/// One cell's cumulative state in the shard loop: the report it
/// becomes, whether it still runs, and its fault-free reference.
struct CellSlot {
    report: CellReport,
    scheme_name: String,
    active: bool,
    /// `None` until a shard first executes the cell's trials, which runs
    /// the reference. Dropped again when the cell stops.
    reference: Option<CallLog>,
}

/// Runs a sharded campaign with optional durable checkpoints; see
/// [`run_sharded_campaign_observed`] for the streaming variant.
pub fn run_sharded_campaign(
    spec: &ShardedCampaignSpec,
    dir: Option<&Path>,
    resume: bool,
) -> io::Result<ShardedReport> {
    let stop = AtomicBool::new(false);
    run_sharded_campaign_observed(spec, dir, resume, &stop, |_| {})
}

/// Builds the per-cell accumulation slots for a sharded run; nothing is
/// simulated until a shard executes.
fn shard_cells(base: &CampaignSpec) -> Vec<CellSlot> {
    base.schemes
        .iter()
        .flat_map(|&scheme| {
            base.apps.iter().map(move |app| CellSlot {
                report: CellReport {
                    scheme,
                    app: app.clone(),
                    trials: 0,
                    stopped_early: false,
                    tally: OutcomeTally::default(),
                    weighted: base.importance.then(WeightedTally::default),
                },
                scheme_name: scheme.name(),
                active: true,
                reference: None,
            })
        })
        .collect()
}

/// Folds one restored or freshly-run shard's per-cell contributions
/// into the cumulative slots. Weighted sums are folded in cell order,
/// shard-major — the same addition sequence every execution order
/// reproduces, keeping `f64` totals bit-identical across straight runs,
/// resumes and merges.
fn fold_shard(cells: &mut [CellSlot], shard_cells: &[ShardCellState]) -> u64 {
    let mut n = 0;
    for (slot, cell) in cells.iter_mut().zip(shard_cells) {
        let total = &mut slot.report;
        total.tally.merge(&cell.tally);
        if let (Some(sum), Some(shard)) = (total.weighted.as_mut(), cell.weighted.as_ref()) {
            sum.merge(shard);
        }
        let trials = cell.tally.total();
        total.trials += trials;
        n += trials;
    }
    n
}

/// Evaluates the shard-boundary early-stop rule over every active cell:
/// a cell stops once its budget is spent or, under a CI target, once it
/// has a delivered fault and its Wilson interval — the weighted one for
/// importance cells — is no wider than the target.
fn evaluate_stops(cells: &mut [CellSlot], base: &CampaignSpec) {
    for slot in cells.iter_mut().filter(|c| c.active) {
        let cell = &mut slot.report;
        let budget_spent = cell.trials >= base.trials_per_cell;
        let ci_reached = base.target_ci_width.is_some_and(|w| {
            let (lo, hi) = cell.weighted_wilson95().unwrap_or_else(|| cell.wilson95());
            cell.tally.injected() > 0 && hi - lo <= w
        });
        if budget_spent || ci_reached {
            slot.active = false;
            slot.reference = None;
            cell.stopped_early = !budget_spent;
        }
    }
}

/// Final conservation audit plus report assembly shared by the sharded
/// runner and the merge.
fn finish_sharded(
    spec: &ShardedCampaignSpec,
    cells: Vec<CellSlot>,
    shards_done: u64,
    shards_resumed: u64,
    quarantined: u64,
) -> io::Result<ShardedReport> {
    let complete = cells.iter().all(|c| !c.active);
    let cells: Vec<CellReport> = cells.into_iter().map(|c| c.report).collect();
    for cell in &cells {
        check_conservation(cell)?;
    }
    Ok(ShardedReport {
        report: CampaignReport {
            spec: spec.base.clone(),
            cells,
        },
        shard_size: spec.shard_size,
        shards_total: spec.shards_total(),
        shards_done,
        shards_resumed,
        quarantined,
        complete,
        worker: spec.worker,
    })
}

/// Runs a sharded campaign, persisting one verified checkpoint per
/// completed shard into `dir` (when given) and streaming a
/// [`ShardEvent`] per shard to `observer`.
///
/// * With `resume`, checkpoints already in `dir` satisfy their shards
///   without re-execution — after full verification (magic, version,
///   spec fingerprint, payload digest, and participation consistency
///   with the replayed early-stop state). A file failing any check is
///   quarantined (renamed aside, never deleted or trusted) and its
///   shard re-runs from its seeds, so the final report is
///   byte-identical either way.
/// * `stop` is checked between shards: once set, the in-flight shard
///   drains to completion, its checkpoint is flushed, and the
///   campaign returns early with `complete == false` — the graceful
///   SIGINT path.
///
/// # Errors
///
/// Propagates checkpoint-directory I/O failures. A spec that fails
/// [`ShardedCampaignSpec::validate`], or `resume` without a directory, is
/// refused with [`io::ErrorKind::InvalidInput`]. Without `resume`, a
/// directory already holding shard checkpoints is refused with
/// [`io::ErrorKind::AlreadyExists`] rather than silently overwritten.
pub fn run_sharded_campaign_observed(
    spec: &ShardedCampaignSpec,
    dir: Option<&Path>,
    resume: bool,
    stop: &AtomicBool,
    mut observer: impl FnMut(&ShardEvent),
) -> io::Result<ShardedReport> {
    spec.validate().map_err(invalid_input)?;
    if resume && dir.is_none() {
        return Err(invalid_input("resume requires a checkpoint directory"));
    }
    let base = &spec.base;
    let fingerprint = spec.fingerprint();
    let pool = Pool::new(base.threads);

    let mut cells = shard_cells(base);

    let mut available: std::collections::BTreeMap<u64, PathBuf> = Default::default();
    if let Some(dir) = dir {
        // Only this worker's slice of the shard space matters: files
        // other workers of the same fan-out wrote into a shared
        // directory are neither restored nor treated as a conflict.
        let found: Vec<_> = checkpoint::scan_dir(dir)?
            .into_iter()
            .filter(|&(s, _)| spec.owns_shard(s))
            .collect();
        if !resume && !found.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "checkpoint directory {} already holds {} shard checkpoint(s); \
                 pass --resume to continue that campaign or point --checkpoint \
                 at a fresh directory",
                    dir.display(),
                    found.len()
                ),
            ));
        }
        if resume {
            available = found.into_iter().collect();
        }
    }

    let shards_total = spec.shards_total();
    let mut shards_done = 0u64;
    let mut shards_resumed = 0u64;
    let mut quarantined = 0u64;
    let mut trials_done_total = 0u64;

    for s in 0..shards_total {
        if !cells.iter().any(|c| c.active) {
            break;
        }
        if !spec.owns_shard(s) {
            continue;
        }
        let start = s * spec.shard_size;
        let end = (start + spec.shard_size).min(base.trials_per_cell);

        // A verified checkpoint satisfies the shard without execution.
        let mut restored: Option<ShardCheckpoint> = None;
        if let Some(path) = available.get(&s) {
            match checkpoint::read_shard(path, fingerprint)
                .map_err(|e| e.to_string())
                .and_then(|ckpt| {
                    verify_participation(&ckpt, s, start, end, base.importance, &cells)?;
                    Ok(ckpt)
                }) {
                Ok(ckpt) => restored = Some(ckpt),
                Err(reason) => {
                    let quarantined_to = checkpoint::quarantine(path)?;
                    quarantined += 1;
                    observer(&ShardEvent::Quarantined {
                        shard: s,
                        quarantined_to,
                        reason,
                    });
                }
            }
        }

        let resumed = restored.is_some();
        let trials_this_shard = match restored {
            Some(ckpt) => fold_shard(&mut cells, &ckpt.cells),
            None => {
                // Only a shard that executes trials runs references, so a
                // restore-only pass simulates nothing.
                let unreferenced: Vec<usize> = (0..cells.len())
                    .filter(|&ci| cells[ci].active && cells[ci].reference.is_none())
                    .collect();
                let references = pool.run(unreferenced.clone(), |ci| {
                    let cell = &cells[ci].report;
                    replay::record(&cell_config(base, cell.scheme, &cell.app))
                });
                for (ci, reference) in unreferenced.into_iter().zip(references) {
                    cells[ci].reference = Some(reference);
                }
                let jobs: Vec<(usize, u64)> = cells
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.active)
                    .flat_map(|(ci, _)| (start..end).map(move |t| (ci, t)))
                    .collect();
                let results = pool.run(jobs.clone(), |(ci, trial)| {
                    let log = cells[ci].reference.as_ref();
                    run_trial(base, ci, trial, log.expect("active cells have run theirs"))
                });
                let mut shard_states: Vec<ShardCellState> = cells
                    .iter()
                    .map(|slot| ShardCellState {
                        scheme: slot.scheme_name.clone(),
                        app: slot.report.app.clone(),
                        tally: OutcomeTally::default(),
                        weighted: base.importance.then(WeightedTally::default),
                    })
                    .collect();
                for (&(ci, _), (outcome, weight)) in jobs.iter().zip(results) {
                    shard_states[ci].tally.record(outcome);
                    if let Some(w) = shard_states[ci].weighted.as_mut() {
                        w.record(outcome, weight);
                    }
                }
                let n = fold_shard(&mut cells, &shard_states);
                if let Some(dir) = dir {
                    let ckpt = ShardCheckpoint {
                        shard: s,
                        start,
                        end,
                        cells: shard_states,
                    };
                    checkpoint::write_shard(dir, fingerprint, &ckpt)?;
                }
                n
            }
        };

        // Early-stop evaluation at the shard boundary — deterministic
        // given the shard order, so straight-through and resumed runs
        // agree on exactly which cells run in every later shard.
        evaluate_stops(&mut cells, base);

        shards_done += 1;
        shards_resumed += resumed as u64;
        trials_done_total += trials_this_shard;
        observer(&ShardEvent::ShardDone(ShardProgress {
            shard: s,
            shards_total,
            resumed,
            trials_this_shard,
            trials_done: trials_done_total,
            cells_active: cells.iter().filter(|c| c.active).count(),
            cells_total: cells.len(),
        }));

        if stop.load(Ordering::SeqCst) {
            break;
        }
    }

    finish_sharded(spec, cells, shards_done, shards_resumed, quarantined)
}

/// Merges the shard checkpoints a fan-out of workers left in `dirs`
/// into the full campaign report — strictly restore-only, no trial is
/// ever executed.
///
/// Every shard of the plan must be satisfied by a checkpoint that
/// passes full verification (magic, version, spec fingerprint, payload
/// digest, participation) in one of `dirs`. When several directories
/// hold the same shard index, the earliest directory wins and every
/// later copy must be byte-identical to it — two *different* files
/// claiming the same shard mean the workers disagreed and the merge
/// refuses rather than pick silently. The replay walks shards in index
/// order with the same early-stop evaluation as a single-process run,
/// so the returned report serialises to byte-identical JSON.
///
/// # Errors
///
/// Fails on I/O problems, a missing shard, a checkpoint failing any
/// verification step (merge never quarantines — the inputs are other
/// workers' property and are left untouched), conflicting duplicate
/// shards, or a conservation violation in the merged tallies. A spec
/// that fails [`ShardedCampaignSpec::validate`] or carries a worker
/// slice is refused with [`io::ErrorKind::InvalidInput`].
pub fn merge_sharded_campaign(
    spec: &ShardedCampaignSpec,
    dirs: &[PathBuf],
) -> io::Result<ShardedReport> {
    spec.validate().map_err(invalid_input)?;
    if spec.worker.is_some() {
        return Err(invalid_input(
            "merge covers the whole shard space; give it the spec without a worker slice",
        ));
    }
    if dirs.is_empty() {
        return Err(io::Error::other(
            "merge needs at least one checkpoint directory",
        ));
    }
    let base = &spec.base;
    let fingerprint = spec.fingerprint();

    // First directory wins; later duplicates must be byte-identical.
    let mut chosen: std::collections::BTreeMap<u64, PathBuf> = Default::default();
    for dir in dirs {
        for (s, path) in checkpoint::scan_dir(dir)? {
            match chosen.get(&s) {
                None => {
                    chosen.insert(s, path);
                }
                Some(first) => {
                    if std::fs::read(first)? != std::fs::read(&path)? {
                        return Err(io::Error::other(format!(
                            "shard {s} exists in both {} and {} with different bytes; \
                             the workers disagree and the merge refuses to pick",
                            first.display(),
                            path.display()
                        )));
                    }
                }
            }
        }
    }

    let mut cells = shard_cells(base);
    let shards_total = spec.shards_total();
    let mut shards_done = 0u64;

    for s in 0..shards_total {
        if !cells.iter().any(|c| c.active) {
            break;
        }
        let start = s * spec.shard_size;
        let end = (start + spec.shard_size).min(base.trials_per_cell);
        let path = chosen.get(&s).ok_or_else(|| {
            io::Error::other(format!(
                "no checkpoint covers shard {s} of {shards_total}; \
                 run the missing worker (or resume it) before merging"
            ))
        })?;
        let ckpt = checkpoint::read_shard(path, fingerprint).map_err(|e| {
            io::Error::other(format!(
                "{}: {e}; merge leaves the file untouched",
                path.display()
            ))
        })?;
        verify_participation(&ckpt, s, start, end, base.importance, &cells)
            .map_err(|e| io::Error::other(format!("{}: {e}", path.display())))?;
        fold_shard(&mut cells, &ckpt.cells);
        evaluate_stops(&mut cells, base);
        shards_done += 1;
    }

    finish_sharded(spec, cells, shards_done, shards_done, 0)
}

/// An [`io::ErrorKind::InvalidInput`] error: the caller's spec or
/// arguments break a rule, so nothing ran.
fn invalid_input(e: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, e.into())
}

/// Checks a decoded checkpoint against the replayed campaign state: it
/// must cover exactly this shard's trial range, list every cell in
/// spec order, and record participation consistent with the cells
/// active at this point (active cells ran the full range, stopped
/// cells ran nothing). Any disagreement means the file belongs to a
/// different history and must be quarantined.
fn verify_participation(
    ckpt: &ShardCheckpoint,
    shard: u64,
    start: u64,
    end: u64,
    importance: bool,
    cells: &[CellSlot],
) -> Result<(), String> {
    if ckpt.shard != shard || ckpt.start != start || ckpt.end != end {
        return Err(format!(
            "covers shard {} range [{}, {}), expected shard {shard} range [{start}, {end})",
            ckpt.shard, ckpt.start, ckpt.end
        ));
    }
    if ckpt.cells.len() != cells.len() {
        return Err(format!(
            "records {} cells, spec has {}",
            ckpt.cells.len(),
            cells.len()
        ));
    }
    for (slot, cell) in cells.iter().zip(&ckpt.cells) {
        if cell.scheme != slot.scheme_name || cell.app != slot.report.app {
            return Err(format!(
                "cell ({}, {}) does not match spec cell ({}, {})",
                cell.scheme, cell.app, slot.scheme_name, slot.report.app
            ));
        }
        let expected = if slot.active { end - start } else { 0 };
        let trials = cell.tally.total();
        if trials != expected {
            return Err(format!(
                "cell ({}, {}) records {trials} trials, replayed early-stop state expects {expected}",
                cell.scheme, cell.app
            ));
        }
        if importance != cell.weighted.is_some() {
            return Err(format!(
                "cell ({}, {}) {} importance weights but the campaign runs with importance={importance}",
                cell.scheme,
                cell.app,
                if cell.weighted.is_some() {
                    "records"
                } else {
                    "lacks"
                },
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::new(
            vec![Scheme::BASE_P, Scheme::ICR_P_PS_S],
            vec!["gzip".into(), "gcc".into()],
            6,
            42,
        );
        spec.instructions = 3_000;
        spec.batch = 3;
        spec
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let spec = tiny_spec();
        let mut s1 = spec.clone();
        s1.threads = 1;
        let mut s4 = spec.clone();
        s4.threads = 4;
        let a = run_campaign(&s1).unwrap();
        let b = run_campaign(&s4).unwrap();
        let c = run_campaign(&s4).unwrap();
        assert_eq!(a.cells, b.cells, "1 vs 4 threads diverged");
        assert_eq!(b.to_json(), c.to_json(), "repeat run diverged");
    }

    #[test]
    fn every_cell_runs_its_budget_without_early_stopping() {
        let report = run_campaign(&tiny_spec()).unwrap();
        assert_eq!(report.cells.len(), 4);
        for cell in &report.cells {
            assert_eq!(cell.trials, 6);
            assert_eq!(cell.tally.total(), 6);
            assert!(!cell.stopped_early);
        }
    }

    #[test]
    fn early_stopping_truncates_at_batch_boundaries() {
        let mut spec = tiny_spec();
        spec.trials_per_cell = 12;
        // A huge target width stops every cell at its first batch check.
        spec.target_ci_width = Some(1.0);
        let report = run_campaign(&spec).unwrap();
        for cell in &report.cells {
            assert_eq!(cell.trials, spec.batch, "stopped at first batch");
            assert!(cell.stopped_early);
        }
    }

    #[test]
    fn json_echoes_spec_and_is_parseable_shape() {
        let mut spec = tiny_spec();
        spec.trials_per_cell = 2;
        spec.batch = 2;
        let json = run_campaign(&spec).unwrap().to_json();
        assert!(json.contains("\"master_seed\": 42"));
        assert!(json.contains("\"corrected_by_replica\""));
        assert!(json.contains("\"wilson95\""));
        assert_eq!(
            json.matches("\"scheme\":").count(),
            4,
            "one scheme key per cell"
        );
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("icr_campaign_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn broken_spec_rules_are_invalid_input_errors_not_panics() {
        let spec = ShardedCampaignSpec::new(tiny_spec(), 3);
        assert_eq!(spec.validate(), Ok(()));
        let broken = |edit: fn(&mut ShardedCampaignSpec)| {
            let mut s = spec.clone();
            edit(&mut s);
            s
        };
        let dir = scratch("invalid_spec");
        let dirs = std::slice::from_ref(&dir);
        for case in [
            broken(|s| s.base.schemes.clear()),
            broken(|s| s.base.apps.clear()),
            broken(|s| s.base.trials_per_cell = 0),
            broken(|s| s.base.batch = 0),
            broken(|s| s.base.instructions = 0),
            broken(|s| s.base.p_per_cycle = 2.0),
            broken(|s| s.base.p_per_cycle = f64::NAN),
            broken(|s| s.shard_size = 0),
            spec.clone().with_worker(0, 0),
            spec.clone().with_worker(2, 2),
            broken(|s| {
                s.worker = Some((0, 2));
                s.base.target_ci_width = Some(0.1);
            }),
        ] {
            let rule = case.validate().expect_err("a broken rule");
            for err in [
                run_sharded_campaign(&case, Some(&dir), false).expect_err("refused"),
                merge_sharded_campaign(&case, dirs).expect_err("refused"),
            ] {
                assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{rule}");
                assert_eq!(err.to_string(), rule);
            }
        }
        let err = run_sharded_campaign(&spec, None, true).expect_err("no directory to resume");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let slice = spec.clone().with_worker(0, 2);
        let err = merge_sharded_campaign(&slice, dirs).expect_err("a worker slice");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(!dir.exists(), "a refused run touches no directory");
    }

    #[test]
    fn sharded_reproduces_unsharded_tallies_across_shard_splits() {
        // Any shard partition of the trial space merges back to exactly
        // the plain campaign's tallies — seeds are pure functions of
        // trial coordinates and tallies are commutative sums.
        let spec = tiny_spec();
        let whole = run_campaign(&spec).unwrap();
        for shard_size in [1, 2, 3, 4, 5, 6, 7] {
            let sharded = ShardedCampaignSpec::new(spec.clone(), shard_size);
            let got = run_sharded_campaign(&sharded, None, false).unwrap();
            assert!(got.complete);
            assert_eq!(got.shards_total, 6u64.div_ceil(shard_size));
            assert_eq!(
                got.report.cells, whole.cells,
                "shard_size {shard_size} diverged from the plain run"
            );
        }

        // At shard_size == batch the sharded report is the plain report
        // byte for byte — also when importance weights are folded as
        // per-shard sums and when early stopping truncates cells.
        let mut importance = tiny_spec();
        importance.trials_per_cell = 12;
        importance.importance = true;
        let mut early = tiny_spec();
        early.trials_per_cell = 12;
        early.target_ci_width = Some(0.5);
        let mut both = importance.clone();
        both.target_ci_width = Some(0.5);
        for spec in [tiny_spec(), importance, early, both] {
            let plain = run_campaign(&spec).unwrap();
            let sharded = ShardedCampaignSpec::new(spec.clone(), spec.batch);
            let got = run_sharded_campaign(&sharded, None, false).unwrap();
            assert_eq!(
                got.report.to_json(),
                plain.to_json(),
                "importance {}, ci {:?}: sharded bytes diverged from the plain run",
                spec.importance,
                spec.target_ci_width
            );
        }
    }

    #[test]
    fn resume_replays_checkpoints_to_identical_bytes() {
        let spec = ShardedCampaignSpec::new(tiny_spec(), 2);
        let dir = scratch("resume");

        let straight = run_sharded_campaign(&spec, Some(&dir), false).unwrap();
        assert!(straight.complete);
        assert_eq!(straight.shards_done, 3);
        assert_eq!(straight.shards_resumed, 0);

        // A full resume touches no trial at all.
        let resumed = run_sharded_campaign(&spec, Some(&dir), true).unwrap();
        assert_eq!(resumed.shards_resumed, resumed.shards_done);
        assert_eq!(resumed.to_json(), straight.to_json());

        // A drained (partial) run resumes to the same bytes.
        let dir2 = scratch("resume_partial");
        let stop = AtomicBool::new(false);
        let partial = run_sharded_campaign_observed(&spec, Some(&dir2), false, &stop, |e| {
            if matches!(e, ShardEvent::ShardDone(_)) {
                stop.store(true, Ordering::SeqCst);
            }
        })
        .unwrap();
        assert!(!partial.complete, "drained after the first shard");
        assert_eq!(partial.shards_done, 1);
        assert!(partial.to_json().contains("\"complete\": false"));

        let finished = run_sharded_campaign(&spec, Some(&dir2), true).unwrap();
        assert!(finished.complete);
        assert_eq!(finished.shards_resumed, 1);
        assert_eq!(finished.to_json(), straight.to_json());

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_quarantined_and_its_shard_rerun() {
        let spec = ShardedCampaignSpec::new(tiny_spec(), 2);
        let dir = scratch("corrupt");
        let straight = run_sharded_campaign(&spec, Some(&dir), false).unwrap();

        // Flip a tally digit inside shard 1's payload.
        let victim = dir.join("shard-00001.json");
        let doc = std::fs::read_to_string(&victim).unwrap();
        let pos = doc.find("\"counts\":[").unwrap() + "\"counts\":[".len();
        let mut bytes = doc.into_bytes();
        bytes[pos] = if bytes[pos] == b'1' { b'2' } else { b'1' };
        std::fs::write(&victim, bytes).unwrap();

        let mut quarantine_events = 0;
        let stop = AtomicBool::new(false);
        let recovered = run_sharded_campaign_observed(&spec, Some(&dir), true, &stop, |e| {
            if let ShardEvent::Quarantined { shard, reason, .. } = e {
                assert_eq!(*shard, 1);
                assert!(!reason.is_empty());
                quarantine_events += 1;
            }
        })
        .unwrap();
        assert_eq!(quarantine_events, 1);
        assert_eq!(recovered.quarantined, 1);
        assert_eq!(recovered.shards_resumed, 2, "shards 0 and 2 restore");
        assert_eq!(recovered.to_json(), straight.to_json());
        assert!(
            dir.join("shard-00001.json.quarantined").exists(),
            "evidence stays on disk"
        );
        assert!(
            dir.join("shard-00001.json").exists(),
            "the re-run wrote a fresh checkpoint"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_fingerprint_checkpoints_are_quarantined() {
        let spec = ShardedCampaignSpec::new(tiny_spec(), 3);
        let dir = scratch("foreign");
        run_sharded_campaign(&spec, Some(&dir), false).unwrap();

        let mut other = spec.clone();
        other.base.master_seed ^= 1;
        assert_ne!(other.fingerprint(), spec.fingerprint());
        let report = run_sharded_campaign(&other, Some(&dir), true).unwrap();
        assert_eq!(report.quarantined, 2, "both shards rejected");
        assert_eq!(report.shards_resumed, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_run_refuses_a_populated_checkpoint_directory() {
        let spec = ShardedCampaignSpec::new(tiny_spec(), 3);
        let dir = scratch("refuse");
        run_sharded_campaign(&spec, Some(&dir), false).unwrap();
        let err = run_sharded_campaign(&spec, Some(&dir), false).unwrap_err();
        assert!(err.to_string().contains("--resume"), "got: {err}");
        // The kind, not the message, is what `icr-campaign` maps to exit 2.
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists, "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_early_stopping_is_stable_across_resume() {
        let mut base = tiny_spec();
        base.trials_per_cell = 12;
        base.target_ci_width = Some(1.0);
        let spec = ShardedCampaignSpec::new(base, 2);
        let dir = scratch("earlystop");
        let straight = run_sharded_campaign(&spec, Some(&dir), false).unwrap();
        assert!(straight.complete);
        assert!(
            straight.shards_done < straight.shards_total,
            "the huge CI target must stop every cell early"
        );
        for cell in &straight.report.cells {
            assert!(cell.stopped_early);
            assert_eq!(cell.trials, 2);
        }
        let resumed = run_sharded_campaign(&spec, Some(&dir), true).unwrap();
        assert_eq!(resumed.to_json(), straight.to_json());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn importance_campaign_records_consistent_weights() {
        let mut spec = tiny_spec();
        spec.importance = true;
        let report = run_campaign(&spec).unwrap();
        assert_eq!(report.cells.len(), 4);
        for cell in &report.cells {
            let w = cell
                .weighted
                .as_ref()
                .expect("importance cells carry weights");
            w.check_consistent(&cell.tally)
                .expect("weights stay consistent");
            if cell.tally.injected() > 0 {
                // n_eff is the delta-method effective sample size: it
                // may exceed the raw trial count when the tilt makes
                // the estimator tighter than uniform sampling — that
                // gain is exactly what importance sampling buys.
                let est = w.survived_estimate();
                assert!(est.n_eff.is_finite() && est.n_eff > 0.0);
                assert!(
                    (0.0..=1.0).contains(&est.p),
                    "estimate {} out of range",
                    est.p
                );
            }
        }
        let json = report.to_json();
        assert!(json.contains("\"importance\": true"));
        assert!(json.contains("\"n_eff\""));
        assert!(json.contains("\"wilson95_weighted\""));

        // Without the flag nothing weighted appears anywhere — the
        // uniform report keeps its historical bytes.
        let plain = run_campaign(&tiny_spec()).unwrap();
        assert!(plain.cells.iter().all(|c| c.weighted.is_none()));
        assert!(!plain.to_json().contains("importance"));
    }

    #[test]
    fn importance_campaign_is_deterministic_across_thread_counts() {
        let mut spec = tiny_spec();
        spec.importance = true;
        let mut s1 = spec.clone();
        s1.threads = 1;
        let mut s4 = spec;
        s4.threads = 4;
        let a = run_campaign(&s1).unwrap();
        let b = run_campaign(&s4).unwrap();
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "weighted records must fold in job order"
        );
    }

    #[test]
    fn conservation_violations_surface_as_errors_not_panics() {
        let cell = |scheme, app: &str, trials, tally, weighted| CellReport {
            scheme,
            app: app.into(),
            trials,
            stopped_early: false,
            tally,
            weighted,
        };
        // A lost trial: the budget says 2 but the tally holds 1.
        let mut tally = OutcomeTally::default();
        tally.record(ErrorOutcome::Masked);
        let err =
            check_conservation(&cell(Scheme::ICR_P_PS_S, "gzip", 2, tally, None)).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("ICR-P-PS (S)") && msg.contains("gzip"),
            "got: {msg}"
        );
        assert!(msg.contains("quarantined from the report"), "got: {msg}");

        // Weights of two trials against an outcome tally of one.
        let mut w = WeightedTally::default();
        w.record(ErrorOutcome::Masked, 1.0);
        w.record(ErrorOutcome::Masked, 1.0);
        let mut t2 = OutcomeTally::default();
        t2.record(ErrorOutcome::Masked);
        let err = check_conservation(&cell(Scheme::BASE_P, "gcc", 1, t2, Some(w))).unwrap_err();
        assert!(err.to_string().contains("Cauchy-Schwarz"), "got: {err}");

        // And the happy path stays silent.
        check_conservation(&cell(Scheme::BASE_P, "gcc", 1, t2, None)).unwrap();
    }

    #[test]
    fn worker_fanout_merges_to_single_process_bytes() {
        let spec = ShardedCampaignSpec::new(tiny_spec(), 2);
        let straight = run_sharded_campaign(&spec, None, false).unwrap();
        for n in [2u64, 3u64] {
            let dirs: Vec<std::path::PathBuf> = (0..n)
                .map(|i| scratch(&format!("fanout_{n}_{i}")))
                .collect();
            for i in 0..n {
                let wspec = spec.clone().with_worker(i, n);
                let leg = run_sharded_campaign(&wspec, Some(&dirs[i as usize]), false).unwrap();
                assert_eq!(leg.worker, Some((i, n)));
                assert!(!leg.complete, "a slice never fills the whole budget");
                assert!(
                    leg.to_json().contains(&format!("\"worker\": [{i}, {n}]")),
                    "worker reports label their slice"
                );
            }
            let merged = merge_sharded_campaign(&spec, &dirs).unwrap();
            assert!(merged.complete);
            assert_eq!(merged.worker, None);
            assert_eq!(merged.shards_done, merged.shards_total);
            assert_eq!(
                merged.to_json(),
                straight.to_json(),
                "fan-out across {n} workers diverged from the single-process run"
            );
            for d in &dirs {
                std::fs::remove_dir_all(d).ok();
            }
        }
    }

    #[test]
    fn shared_directory_fanout_merges_identically() {
        // Both workers write into ONE directory (e.g. shared storage):
        // each scans only its own slice, so neither trips the
        // populated-directory refusal, and the merge reads it whole.
        let spec = ShardedCampaignSpec::new(tiny_spec(), 2);
        let straight = run_sharded_campaign(&spec, None, false).unwrap();
        let dir = scratch("fanout_shared");
        for i in 0..2u64 {
            run_sharded_campaign(&spec.clone().with_worker(i, 2), Some(&dir), false).unwrap();
        }
        let merged = merge_sharded_campaign(&spec, std::slice::from_ref(&dir)).unwrap();
        assert_eq!(merged.to_json(), straight.to_json());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn importance_fanout_merges_to_single_process_bytes() {
        // The weighted path end to end: f64 weight sums survive the
        // checkpoint round trip bit-exactly, so the merged importance
        // report matches the single-process bytes too.
        let mut base = tiny_spec();
        base.importance = true;
        let spec = ShardedCampaignSpec::new(base, 2);
        let straight = run_sharded_campaign(&spec, None, false).unwrap();
        let dirs = [scratch("imp_fan_0"), scratch("imp_fan_1")];
        for i in 0..2u64 {
            run_sharded_campaign(
                &spec.clone().with_worker(i, 2),
                Some(&dirs[i as usize]),
                false,
            )
            .unwrap();
        }
        let dirs: Vec<std::path::PathBuf> = dirs.into_iter().collect();
        let merged = merge_sharded_campaign(&spec, &dirs).unwrap();
        assert_eq!(merged.to_json(), straight.to_json());
        for d in &dirs {
            std::fs::remove_dir_all(d).ok();
        }
    }

    #[test]
    fn merge_rejects_missing_and_conflicting_shards() {
        let spec = ShardedCampaignSpec::new(tiny_spec(), 2);
        let d0 = scratch("merge_missing");
        run_sharded_campaign(&spec.clone().with_worker(0, 2), Some(&d0), false).unwrap();

        // Worker 1 never ran: shard 1 has no checkpoint anywhere.
        let err = merge_sharded_campaign(&spec, std::slice::from_ref(&d0)).unwrap_err();
        assert!(
            err.to_string().contains("no checkpoint covers shard 1"),
            "got: {err}"
        );

        // Two directories claim shard 0 with different bytes: refuse.
        let d1 = scratch("merge_conflict");
        std::fs::create_dir_all(&d1).unwrap();
        let name = "shard-00000.json";
        let mut bytes = std::fs::read(d0.join(name)).unwrap();
        let pos = bytes
            .windows(2)
            .position(|w| w == b"[4")
            .map(|p| p + 1)
            .unwrap_or(40);
        bytes[pos] ^= 1;
        std::fs::write(d1.join(name), bytes).unwrap();
        let dirs = vec![d0.clone(), d1.clone()];
        let err = merge_sharded_campaign(&spec, &dirs).unwrap_err();
        assert!(err.to_string().contains("different bytes"), "got: {err}");
        assert!(
            d1.join(name).exists(),
            "merge never deletes or quarantines its inputs"
        );

        std::fs::remove_dir_all(&d0).ok();
        std::fs::remove_dir_all(&d1).ok();
    }

    #[test]
    fn merge_refuses_checkpoints_missing_importance_weights() {
        // A checkpoint that passes magic/version/fingerprint/digest but
        // lacks the weighted tallies an importance campaign requires is
        // rejected by the participation check — and the merge leaves
        // the file exactly where it found it.
        let mut base = tiny_spec();
        base.importance = true;
        let spec = ShardedCampaignSpec::new(base, 2);
        let dir = scratch("merge_noweights");
        let straight = run_sharded_campaign(&spec, Some(&dir), false).unwrap();
        assert!(straight.complete);

        let victim = dir.join("shard-00001.json");
        let fp = spec.fingerprint();
        let mut ckpt = checkpoint::read_shard(&victim, fp).unwrap();
        for cell in &mut ckpt.cells {
            cell.weighted = None;
        }
        checkpoint::write_shard(&dir, fp, &ckpt).unwrap();

        let err = merge_sharded_campaign(&spec, std::slice::from_ref(&dir)).unwrap_err();
        assert!(err.to_string().contains("importance"), "got: {err}");
        assert!(victim.exists(), "merge must not quarantine worker files");

        // Resume, by contrast, quarantines the stripped file and reruns
        // the shard, converging back to the straight-through bytes.
        let recovered = run_sharded_campaign(&spec, Some(&dir), true).unwrap();
        assert_eq!(recovered.quarantined, 1);
        assert_eq!(recovered.to_json(), straight.to_json());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn importance_resume_replays_to_identical_bytes() {
        let mut base = tiny_spec();
        base.importance = true;
        let spec = ShardedCampaignSpec::new(base, 2);
        let dir = scratch("imp_resume");
        let straight = run_sharded_campaign(&spec, Some(&dir), false).unwrap();
        let resumed = run_sharded_campaign(&spec, Some(&dir), true).unwrap();
        assert_eq!(resumed.shards_resumed, resumed.shards_done);
        assert_eq!(resumed.to_json(), straight.to_json());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn importance_changes_the_fingerprint() {
        let uniform = ShardedCampaignSpec::new(tiny_spec(), 2);
        let mut base = tiny_spec();
        base.importance = true;
        let weighted = ShardedCampaignSpec::new(base, 2);
        assert_ne!(
            uniform.fingerprint(),
            weighted.fingerprint(),
            "uniform checkpoints must never resume into an importance campaign"
        );
        // The worker slice is NOT part of the fingerprint: any split of
        // the same campaign produces mutually mergeable checkpoints.
        assert_eq!(
            weighted.fingerprint(),
            weighted.clone().with_worker(1, 4).fingerprint()
        );
    }

    #[test]
    fn observer_sees_monotone_progress() {
        // The in-memory shard loop a plain campaign runs: no checkpoint
        // directory, one progress event per shard.
        let spec = tiny_spec();
        let sharded = ShardedCampaignSpec::new(spec.clone(), spec.batch);
        let stop = AtomicBool::new(false);
        let mut events: Vec<ShardProgress> = Vec::new();
        run_sharded_campaign_observed(&sharded, None, false, &stop, |e| match e {
            ShardEvent::ShardDone(p) => events.push(*p),
            ShardEvent::Quarantined { .. } => panic!("no checkpoint directory to quarantine"),
        })
        .unwrap();
        assert_eq!(events.len() as u64, sharded.shards_total());
        for pair in events.windows(2) {
            assert!(
                pair[1].trials_done > pair[0].trials_done,
                "progress must advance"
            );
        }
        let last = events.last().expect("at least one shard");
        assert_eq!(last.cells_active, 0, "the last event finishes every cell");
        assert_eq!(last.trials_done, 4 * spec.trials_per_cell);
    }
}
