//! Metrics the paper reports for the dL1: replication ability, loads with
//! replica, miss rates, error-recovery outcomes, and the access counts the
//! energy model consumes.

use icr_mem::CacheStats;

/// Everything the dL1 counts during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IcrStats {
    /// Base hit/miss counters (primary lookups only).
    pub cache: CacheStats,
    /// Replication attempts (one per triggering store / load miss).
    pub replication_attempts: u64,
    /// Attempts after which at least one replica of the block existed.
    pub replication_with_one: u64,
    /// Attempts after which at least two replicas existed.
    pub replication_with_two: u64,
    /// Replicas newly created.
    pub replicas_created: u64,
    /// Existing replicas updated in place by stores.
    pub replica_updates: u64,
    /// Replicas dropped (by primary eviction, or displacement).
    pub replica_evictions: u64,
    /// Read hits whose block had at least one replica at access time
    /// (the paper's "loads with replica" numerator).
    pub read_hits_with_replica: u64,
    /// Primary-copy misses served from a surviving replica (§5.6 mode).
    pub misses_served_by_replica: u64,
    /// Dirty victims written back to L2.
    pub writebacks: u64,

    // ---- L2 spill tier (SpillToL2 placement; extension) ----
    /// Replicas spilled into the L2 replica region because the dL1 had no
    /// dead block to host them.
    pub spills_created: u64,
    /// Spilled replicas updated in place by stores.
    pub spill_updates: u64,
    /// Spilled replicas invalidated (dirty writeback, stale-copy drop, or
    /// promotion back into a dL1 dead block).
    pub spill_invalidations: u64,
    /// Spilled replicas displaced by other spills at region capacity.
    pub spill_evictions: u64,
    /// Primary-copy misses served by verified read-back from the region.
    pub misses_served_by_spill: u64,

    // ---- error bookkeeping (Figure 14) ----
    /// Load-word checks that detected an error.
    pub errors_detected: u64,
    /// Errors corrected in place by SEC-DED.
    pub errors_corrected_ecc: u64,
    /// Errors recovered by reading the replica.
    pub errors_recovered_replica: u64,
    /// Errors recovered by reading a spilled replica from the L2 region.
    pub errors_recovered_spill: u64,
    /// Errors recovered by refetching a clean block from L2.
    pub errors_recovered_l2: u64,
    /// Errors recovered from a Kim–Somani duplication cache (only with
    /// the `duplication_cache` comparison option).
    pub errors_recovered_duplicate: u64,
    /// Loads whose error could not be recovered (dirty, unreplicated,
    /// parity-only — the paper's unrecoverable case).
    pub unrecoverable_loads: u64,
    /// Loads that consumed wrong data with a *clean* check — silent data
    /// corruption, countable only when the oracle shadow is enabled
    /// (`DataL1Config::oracle`). Parity's blind spot: an even number of
    /// flips within one byte.
    pub silent_corruptions: u64,
    /// Errors caught by the PP schemes' primary/replica comparison even
    /// though every parity check passed (the paper's NMR observation).
    pub errors_caught_by_compare: u64,

    // ---- scrubbing (extension) ----
    /// Words integrity-checked by the background scrubber.
    pub scrub_checks: u64,
    /// Faults the scrubber healed before any load saw them.
    pub scrub_heals: u64,

    // ---- access counts for the energy model ----
    /// dL1 line reads (includes parallel replica reads and recovery reads).
    pub l1_read_ops: u64,
    /// dL1 line writes (includes replica creations and updates).
    pub l1_write_ops: u64,
    /// Parity encode/check operations.
    pub parity_ops: u64,
    /// SEC-DED encode/check operations.
    pub ecc_ops: u64,
}

impl IcrStats {
    /// The paper's *replication ability*: fraction of triggering events
    /// after which the block had a replica.
    pub fn replication_ability(&self) -> f64 {
        ratio(self.replication_with_one, self.replication_attempts)
    }

    /// Fraction of triggering events after which the block had **two**
    /// replicas (Figure 3's second series).
    pub fn replication_ability_two(&self) -> f64 {
        ratio(self.replication_with_two, self.replication_attempts)
    }

    /// The paper's *loads with replica*: fraction of read hits that found
    /// a replica in the cache.
    pub fn loads_with_replica(&self) -> f64 {
        ratio(self.read_hits_with_replica, self.cache.read_hits)
    }

    /// dL1 miss rate over all accesses.
    pub fn miss_rate(&self) -> f64 {
        self.cache.miss_rate()
    }

    /// Fraction of loads that hit an unrecoverable error (Figure 14's
    /// y-axis, as a fraction of all loads).
    pub fn unrecoverable_load_fraction(&self) -> f64 {
        ratio(self.unrecoverable_loads, self.cache.read_accesses)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// How one injected soft error ended, in the taxonomy of the paper's §5.3
/// recovery discussion. Produced per trial by the Monte-Carlo campaign
/// engine (`icr-sim`'s `campaign` module) from a single-fault run's
/// [`IcrStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorOutcome {
    /// Healed by reading a replica of the struck word (ICR's recovery
    /// path; dirty data survives).
    CorrectedByReplica,
    /// Corrected in place by SEC-DED.
    CorrectedByEcc,
    /// Detected on a clean line and healed by refetching the block from
    /// L2 (available to every scheme, including BaseP).
    RefetchedFromL2,
    /// Caught by the PP schemes' primary/replica comparison after every
    /// per-word check passed.
    CaughtByCompare,
    /// Detected but unrecoverable: dirty, unreplicated, parity-only — the
    /// paper's data-loss case.
    DetectedUnrecoverable,
    /// Wrong data consumed with a clean check — silent data corruption
    /// (requires the oracle shadow to observe).
    SilentCorruption,
    /// A fault was injected but never observed by any consumer: the
    /// struck word was overwritten, evicted clean, or simply never read.
    Masked,
    /// The injector's arrival never fired within the simulated window.
    NotInjected,
}

impl ErrorOutcome {
    /// Every variant, in report order.
    pub const ALL: [ErrorOutcome; 8] = [
        ErrorOutcome::CorrectedByReplica,
        ErrorOutcome::CorrectedByEcc,
        ErrorOutcome::RefetchedFromL2,
        ErrorOutcome::CaughtByCompare,
        ErrorOutcome::DetectedUnrecoverable,
        ErrorOutcome::SilentCorruption,
        ErrorOutcome::Masked,
        ErrorOutcome::NotInjected,
    ];

    /// Stable snake_case name (used as the JSON report key).
    pub fn name(self) -> &'static str {
        match self {
            ErrorOutcome::CorrectedByReplica => "corrected_by_replica",
            ErrorOutcome::CorrectedByEcc => "corrected_by_ecc",
            ErrorOutcome::RefetchedFromL2 => "refetched_from_l2",
            ErrorOutcome::CaughtByCompare => "caught_by_compare",
            ErrorOutcome::DetectedUnrecoverable => "detected_unrecoverable",
            ErrorOutcome::SilentCorruption => "silent_corruption",
            ErrorOutcome::Masked => "masked",
            ErrorOutcome::NotInjected => "not_injected",
        }
    }

    /// Maps an analytic consumed-window class (`icr-vuln`) onto this
    /// Monte-Carlo outcome taxonomy, so the single-pass vulnerability
    /// model and the campaign engine report in the same vocabulary.
    ///
    /// `CaughtByCompare` has no analytic counterpart: under the
    /// single-bit model every strike trips a parity or SEC-DED check
    /// before the PP compare can be the *first* observer, so its
    /// windows resolve to refetch/unrecoverable instead. Laundered
    /// windows (a latent strike baked into a clean codeword by a
    /// re-encode or replica seeding) surface as silent corruption.
    pub fn from_vuln_class(class: icr_vuln::VulnClass) -> ErrorOutcome {
        match class {
            icr_vuln::VulnClass::ByReplica => ErrorOutcome::CorrectedByReplica,
            icr_vuln::VulnClass::ByEcc => ErrorOutcome::CorrectedByEcc,
            icr_vuln::VulnClass::ByRefetch => ErrorOutcome::RefetchedFromL2,
            icr_vuln::VulnClass::Unrecoverable => ErrorOutcome::DetectedUnrecoverable,
            icr_vuln::VulnClass::Laundered => ErrorOutcome::SilentCorruption,
        }
    }

    /// `true` for outcomes where the consumer got correct data back
    /// despite the fault (the campaign's "recovered" numerator).
    pub fn is_recovered(self) -> bool {
        matches!(
            self,
            ErrorOutcome::CorrectedByReplica
                | ErrorOutcome::CorrectedByEcc
                | ErrorOutcome::RefetchedFromL2
                | ErrorOutcome::CaughtByCompare
        )
    }

    /// `true` when the fault was actually delivered and its effect (or
    /// harmlessness) observed — the campaign's denominator for recovery
    /// fractions excludes [`ErrorOutcome::NotInjected`].
    pub fn was_injected(self) -> bool {
        self != ErrorOutcome::NotInjected
    }

    /// Classifies a **single-fault** run from its final statistics.
    ///
    /// With at most one fault delivered (`FaultInjector::with_max_faults(1)`)
    /// every nonzero error counter is attributable to that fault, so the
    /// worst observed consequence wins: silent corruption over data loss
    /// over the recovery paths over masking.
    pub fn classify_single_fault(faults_injected: u64, stats: &IcrStats) -> ErrorOutcome {
        if faults_injected == 0 {
            ErrorOutcome::NotInjected
        } else if stats.silent_corruptions > 0 {
            ErrorOutcome::SilentCorruption
        } else if stats.unrecoverable_loads > 0 {
            ErrorOutcome::DetectedUnrecoverable
        } else if stats.errors_recovered_replica > 0 || stats.errors_recovered_spill > 0 {
            ErrorOutcome::CorrectedByReplica
        } else if stats.errors_corrected_ecc > 0 {
            ErrorOutcome::CorrectedByEcc
        } else if stats.errors_recovered_l2 > 0 || stats.errors_recovered_duplicate > 0 {
            ErrorOutcome::RefetchedFromL2
        } else if stats.errors_caught_by_compare > 0 {
            ErrorOutcome::CaughtByCompare
        } else {
            ErrorOutcome::Masked
        }
    }
}

impl std::fmt::Display for ErrorOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Integer tallies of [`ErrorOutcome`]s for one campaign cell. Plain
/// commutative sums, so merging per-thread partial tallies yields the
/// same result for every work distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeTally {
    counts: [u64; ErrorOutcome::ALL.len()],
}

impl OutcomeTally {
    /// Records one trial's outcome.
    pub fn record(&mut self, outcome: ErrorOutcome) {
        self.counts[Self::index(outcome)] += 1;
    }

    /// Trials that ended with `outcome`.
    pub fn count(&self, outcome: ErrorOutcome) -> u64 {
        self.counts[Self::index(outcome)]
    }

    /// Total trials recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Trials whose fault was actually delivered.
    pub fn injected(&self) -> u64 {
        self.total() - self.count(ErrorOutcome::NotInjected)
    }

    /// Delivered trials that ended in a recovery outcome.
    pub fn recovered(&self) -> u64 {
        ErrorOutcome::ALL
            .iter()
            .filter(|o| o.is_recovered())
            .map(|&o| self.count(o))
            .sum()
    }

    /// Delivered trials that ended in data loss: detected-unrecoverable
    /// plus silent corruption.
    pub fn lost(&self) -> u64 {
        self.count(ErrorOutcome::DetectedUnrecoverable) + self.count(ErrorOutcome::SilentCorruption)
    }

    /// Delivered trials the scheme survived — [`injected`] minus
    /// [`lost`], as a checked count.
    ///
    /// Every outcome contributing to `lost` also counts as injected, so
    /// `lost <= injected` holds for any tally built through [`record`] /
    /// [`merge`]; the debug assertion catches hand-built or corrupted
    /// tallies before the subtraction can wrap, and release builds
    /// saturate instead of panicking deep inside a Wilson interval.
    ///
    /// [`injected`]: OutcomeTally::injected
    /// [`lost`]: OutcomeTally::lost
    /// [`record`]: OutcomeTally::record
    /// [`merge`]: OutcomeTally::merge
    pub fn survived_count(&self) -> u64 {
        let injected = self.injected();
        let lost = self.lost();
        debug_assert!(
            lost <= injected,
            "OutcomeTally conservation violated: lost {lost} > injected {injected}"
        );
        injected.saturating_sub(lost)
    }

    /// Fraction of delivered faults the scheme survived (recovered or
    /// harmlessly masked — i.e. everything except data loss and silent
    /// corruption), the campaign's headline per-scheme number.
    pub fn survived_fraction(&self) -> f64 {
        ratio(self.survived_count(), self.injected())
    }

    /// Fraction of delivered faults recovered by an active mechanism
    /// (replica, ECC, L2 refetch, compare).
    pub fn recovered_fraction(&self) -> f64 {
        ratio(self.recovered(), self.injected())
    }

    /// Folds another tally into this one (order-independent).
    pub fn merge(&mut self, other: &OutcomeTally) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// The raw counts, indexed in [`ErrorOutcome::ALL`] order. This is
    /// the serialization surface the campaign checkpoints persist.
    pub fn counts(&self) -> [u64; ErrorOutcome::ALL.len()] {
        self.counts
    }

    /// Rebuilds a tally from counts in [`ErrorOutcome::ALL`] order —
    /// the inverse of [`counts`](OutcomeTally::counts), used when
    /// restoring a digest-verified campaign checkpoint. The caller is
    /// responsible for the counts describing real trials; arbitrary
    /// values can violate the conservation invariant behind
    /// [`survived_count`](OutcomeTally::survived_count).
    pub fn from_counts(counts: [u64; ErrorOutcome::ALL.len()]) -> Self {
        OutcomeTally { counts }
    }

    /// `true` when no trial has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    fn index(outcome: ErrorOutcome) -> usize {
        ErrorOutcome::ALL
            .iter()
            .position(|&o| o == outcome)
            .expect("every outcome is in ALL")
    }
}

/// A self-normalized importance-sampling estimate of one outcome
/// probability, conditioned on the fault having been delivered.
///
/// `p` is the ratio estimator `Σ wᵢxᵢ / Σ wᵢ` over injected trials and
/// `n_eff` the effective sample size implied by its delta-method
/// variance — the number of *uniform* trials that would estimate `p`
/// equally tightly, so a Wilson interval over `(p·n_eff, n_eff)`
/// generalizes the unweighted one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedEstimate {
    /// Self-normalized probability estimate in `[0, 1]`.
    pub p: f64,
    /// Effective number of trials behind it (`0` when nothing was
    /// delivered).
    pub n_eff: f64,
}

/// Likelihood-ratio weight sums of [`ErrorOutcome`]s for one
/// importance-sampled campaign cell. The cell's trial counts live in
/// its [`OutcomeTally`], which records the same trials.
///
/// Each delivered trial contributes its importance weight
/// `w = P_uniform(site) / P_proposal(site)` to its outcome bucket;
/// per bucket the tally keeps `Σw` and `Σw²`, which is exactly enough
/// to form self-normalized probability estimates with delta-method
/// variances ([`WeightedTally::estimate`]) without storing per-trial
/// weights. Sums are plain `f64` additions, so *byte-identical*
/// reproduction additionally requires a fixed accumulation order — the
/// campaign records in trial order within a shard and merges shards in
/// shard-index order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WeightedTally {
    wsum: [f64; ErrorOutcome::ALL.len()],
    wsq: [f64; ErrorOutcome::ALL.len()],
}

impl WeightedTally {
    /// Records one trial's outcome with its likelihood ratio `weight`
    /// (use `1.0` for [`ErrorOutcome::NotInjected`] and for uniform
    /// trials).
    pub fn record(&mut self, outcome: ErrorOutcome, weight: f64) {
        debug_assert!(
            weight.is_finite() && weight >= 0.0,
            "importance weight must be finite and non-negative, got {weight}"
        );
        let i = OutcomeTally::index(outcome);
        self.wsum[i] += weight;
        self.wsq[i] += weight * weight;
    }

    /// Total weight recorded for `outcome`.
    pub fn weight(&self, outcome: ErrorOutcome) -> f64 {
        self.wsum[OutcomeTally::index(outcome)]
    }

    /// Total weight over *delivered* trials (the estimator's
    /// normalizer).
    pub fn injected_weight(&self) -> f64 {
        ErrorOutcome::ALL
            .iter()
            .filter(|o| o.was_injected())
            .map(|&o| self.weight(o))
            .sum()
    }

    /// Self-normalized estimate of `P(outcome ∈ success | injected)`.
    ///
    /// Returns `p = Σ_{o ∈ success} w_o / W` with `W` the injected
    /// weight, and the effective sample size `n_eff = p(1-p)/v̂` from
    /// the delta-method variance
    /// `v̂ = Σ_o Σw²_o (1[o ∈ success] - p)² / W²`. At the degenerate
    /// ends (`p` exactly 0 or 1) the ratio is 0/0, so `n_eff` falls
    /// back to the global effective sample size `W² / Σw²` — the
    /// standard Kish measure of how many uniform trials the weighted
    /// sample is worth.
    pub fn estimate(&self, success: impl Fn(ErrorOutcome) -> bool) -> WeightedEstimate {
        let w_total = self.injected_weight();
        if w_total <= 0.0 {
            return WeightedEstimate { p: 0.0, n_eff: 0.0 };
        }
        let mut w_succ = 0.0;
        let mut wsq_total = 0.0;
        for &o in ErrorOutcome::ALL.iter().filter(|o| o.was_injected()) {
            let i = OutcomeTally::index(o);
            if success(o) {
                w_succ += self.wsum[i];
            }
            wsq_total += self.wsq[i];
        }
        let p = (w_succ / w_total).clamp(0.0, 1.0);
        let mut var = 0.0;
        for &o in ErrorOutcome::ALL.iter().filter(|o| o.was_injected()) {
            let i = OutcomeTally::index(o);
            let x = if success(o) { 1.0 } else { 0.0 };
            var += self.wsq[i] * (x - p) * (x - p);
        }
        var /= w_total * w_total;
        let kish = w_total * w_total / wsq_total.max(f64::MIN_POSITIVE);
        let n_eff = if var > 0.0 && p > 0.0 && p < 1.0 {
            p * (1.0 - p) / var
        } else {
            kish
        };
        WeightedEstimate { p, n_eff }
    }

    /// Weighted estimate of the campaign's headline survived fraction
    /// (everything delivered except data loss and silent corruption).
    pub fn survived_estimate(&self) -> WeightedEstimate {
        self.estimate(|o| {
            !matches!(
                o,
                ErrorOutcome::DetectedUnrecoverable | ErrorOutcome::SilentCorruption
            )
        })
    }

    /// Weighted estimate of the actively-recovered fraction.
    pub fn recovered_estimate(&self) -> WeightedEstimate {
        self.estimate(ErrorOutcome::is_recovered)
    }

    /// Folds another tally into this one. Addition is elementwise in
    /// [`ErrorOutcome::ALL`] order; callers wanting byte-identical `f64`
    /// sums must fix the order in which tallies are merged.
    pub fn merge(&mut self, other: &WeightedTally) {
        for i in 0..ErrorOutcome::ALL.len() {
            self.wsum[i] += other.wsum[i];
            self.wsq[i] += other.wsq[i];
        }
    }

    /// The per-outcome weight sums, in [`ErrorOutcome::ALL`] order.
    pub fn weights(&self) -> [f64; ErrorOutcome::ALL.len()] {
        self.wsum
    }

    /// The per-outcome squared-weight sums, in [`ErrorOutcome::ALL`]
    /// order.
    pub fn weight_squares(&self) -> [f64; ErrorOutcome::ALL.len()] {
        self.wsq
    }

    /// Rebuilds a tally from its serialized parts — the inverse of
    /// [`weights`](WeightedTally::weights) /
    /// [`weight_squares`](WeightedTally::weight_squares). Callers
    /// restoring untrusted data should validate with
    /// [`check_consistent`](WeightedTally::check_consistent).
    pub fn from_parts(
        weights: [f64; ErrorOutcome::ALL.len()],
        weight_squares: [f64; ErrorOutcome::ALL.len()],
    ) -> Self {
        WeightedTally {
            wsum: weights,
            wsq: weight_squares,
        }
    }

    /// Checks the invariants any tally built through
    /// [`record`](WeightedTally::record) / [`merge`](WeightedTally::merge)
    /// satisfies against `tally`, the counts of the same trials, for
    /// validating restored checkpoint data:
    ///
    /// * every weight sum and squared sum is finite and non-negative;
    /// * a bucket with zero trials carries zero weight, and a bucket
    ///   with positive weight has at least one trial;
    /// * Cauchy–Schwarz: `(Σw)² ≤ n · Σw²` per bucket (with a small
    ///   relative tolerance for accumulated rounding).
    pub fn check_consistent(&self, tally: &OutcomeTally) -> Result<(), String> {
        for (i, &o) in ErrorOutcome::ALL.iter().enumerate() {
            let (n, w, w2) = (tally.counts[i], self.wsum[i], self.wsq[i]);
            if !w.is_finite() || !w2.is_finite() || w < 0.0 || w2 < 0.0 {
                return Err(format!(
                    "weighted tally for {o}: non-finite or negative sums (w={w}, w2={w2})"
                ));
            }
            if n == 0 && (w != 0.0 || w2 != 0.0) {
                return Err(format!(
                    "weighted tally for {o}: zero trials but nonzero weight (w={w}, w2={w2})"
                ));
            }
            if w > 0.0 && w2 == 0.0 {
                return Err(format!(
                    "weighted tally for {o}: positive weight sum {w} with zero squared sum"
                ));
            }
            let bound = n as f64 * w2;
            if w * w > bound * (1.0 + 1e-9) {
                return Err(format!(
                    "weighted tally for {o}: Cauchy-Schwarz violated ((Σw)²={} > n·Σw²={bound})",
                    w * w
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_are_zero_on_empty_stats() {
        let s = IcrStats::default();
        assert_eq!(s.replication_ability(), 0.0);
        assert_eq!(s.loads_with_replica(), 0.0);
        assert_eq!(s.unrecoverable_load_fraction(), 0.0);
    }

    #[test]
    fn replication_ability_divides_attempts() {
        let s = IcrStats {
            replication_attempts: 10,
            replication_with_one: 4,
            replication_with_two: 1,
            ..Default::default()
        };
        assert!((s.replication_ability() - 0.4).abs() < 1e-12);
        assert!((s.replication_ability_two() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn loads_with_replica_divides_read_hits() {
        let mut s = IcrStats::default();
        s.cache.read_accesses = 100;
        s.cache.read_hits = 50;
        s.read_hits_with_replica = 40;
        assert!((s.loads_with_replica() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn classify_prefers_worst_consequence() {
        let mut s = IcrStats::default();
        assert_eq!(
            ErrorOutcome::classify_single_fault(0, &s),
            ErrorOutcome::NotInjected
        );
        assert_eq!(
            ErrorOutcome::classify_single_fault(1, &s),
            ErrorOutcome::Masked
        );
        s.errors_recovered_l2 = 1;
        assert_eq!(
            ErrorOutcome::classify_single_fault(1, &s),
            ErrorOutcome::RefetchedFromL2
        );
        s.errors_recovered_spill = 1;
        assert_eq!(
            ErrorOutcome::classify_single_fault(1, &s),
            ErrorOutcome::CorrectedByReplica
        );
        s.errors_recovered_replica = 1;
        assert_eq!(
            ErrorOutcome::classify_single_fault(1, &s),
            ErrorOutcome::CorrectedByReplica
        );
        s.unrecoverable_loads = 1;
        assert_eq!(
            ErrorOutcome::classify_single_fault(1, &s),
            ErrorOutcome::DetectedUnrecoverable
        );
        s.silent_corruptions = 1;
        assert_eq!(
            ErrorOutcome::classify_single_fault(1, &s),
            ErrorOutcome::SilentCorruption
        );
    }

    #[test]
    fn tally_merges_commutatively() {
        let mut a = OutcomeTally::default();
        let mut b = OutcomeTally::default();
        a.record(ErrorOutcome::CorrectedByReplica);
        a.record(ErrorOutcome::DetectedUnrecoverable);
        b.record(ErrorOutcome::CorrectedByEcc);
        b.record(ErrorOutcome::NotInjected);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.total(), 4);
        assert_eq!(ab.injected(), 3);
        assert_eq!(ab.recovered(), 2);
        assert!((ab.recovered_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!((ab.survived_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn survived_count_is_injected_minus_lost() {
        let mut t = OutcomeTally::default();
        assert_eq!(t.survived_count(), 0); // empty tally: no underflow
        t.record(ErrorOutcome::CorrectedByReplica);
        t.record(ErrorOutcome::Masked);
        t.record(ErrorOutcome::DetectedUnrecoverable);
        t.record(ErrorOutcome::SilentCorruption);
        t.record(ErrorOutcome::NotInjected);
        assert_eq!(t.injected(), 4);
        assert_eq!(t.lost(), 2);
        assert_eq!(t.survived_count(), 2);
        assert!((t.survived_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counts_round_trip_through_from_counts() {
        let mut t = OutcomeTally::default();
        assert!(t.is_empty());
        for (i, &o) in ErrorOutcome::ALL.iter().enumerate() {
            for _ in 0..=i {
                t.record(o);
            }
        }
        assert!(!t.is_empty());
        let back = OutcomeTally::from_counts(t.counts());
        assert_eq!(back, t);
        assert_eq!(back.total(), t.total());
        assert_eq!(back.injected(), t.injected());
    }

    #[test]
    fn weighted_tally_with_unit_weights_matches_unweighted_fractions() {
        let mut t = OutcomeTally::default();
        let mut w = WeightedTally::default();
        let outcomes = [
            ErrorOutcome::CorrectedByReplica,
            ErrorOutcome::CorrectedByReplica,
            ErrorOutcome::Masked,
            ErrorOutcome::DetectedUnrecoverable,
            ErrorOutcome::NotInjected,
        ];
        for &o in &outcomes {
            t.record(o);
            w.record(o, 1.0);
        }
        let est = w.survived_estimate();
        assert!((est.p - t.survived_fraction()).abs() < 1e-12);
        // Unit weights: the effective sample size is the injected count.
        assert!((est.n_eff - t.injected() as f64).abs() < 1e-9);
        let rec = w.recovered_estimate();
        assert!((rec.p - t.recovered_fraction()).abs() < 1e-12);
    }

    #[test]
    fn weighted_estimate_is_self_normalized() {
        // Doubling every weight changes nothing: the estimator only
        // sees weight *ratios*.
        let mut a = WeightedTally::default();
        let mut b = WeightedTally::default();
        for (o, w) in [
            (ErrorOutcome::Masked, 0.25),
            (ErrorOutcome::DetectedUnrecoverable, 4.0),
            (ErrorOutcome::CorrectedByReplica, 1.5),
        ] {
            a.record(o, w);
            b.record(o, 2.0 * w);
        }
        let (ea, eb) = (a.survived_estimate(), b.survived_estimate());
        assert!((ea.p - eb.p).abs() < 1e-12);
        assert!((ea.n_eff - eb.n_eff).abs() < 1e-9);
    }

    #[test]
    fn degenerate_estimates_fall_back_to_kish_ess() {
        let mut w = WeightedTally::default();
        w.record(ErrorOutcome::Masked, 1.0);
        w.record(ErrorOutcome::Masked, 3.0);
        let est = w.survived_estimate();
        assert_eq!(est.p, 1.0);
        // Kish ESS: (1+3)^2 / (1+9) = 1.6.
        assert!((est.n_eff - 1.6).abs() < 1e-12);
        let empty = WeightedTally::default();
        let e = empty.survived_estimate();
        assert_eq!((e.p, e.n_eff), (0.0, 0.0));
    }

    #[test]
    fn weighted_tally_round_trips_and_validates() {
        let (mut t, mut w) = (OutcomeTally::default(), WeightedTally::default());
        for (o, weight) in [
            (ErrorOutcome::CorrectedByEcc, 0.5),
            (ErrorOutcome::CorrectedByEcc, 2.0),
            (ErrorOutcome::NotInjected, 1.0),
        ] {
            t.record(o);
            w.record(o, weight);
        }
        assert!(w.check_consistent(&t).is_ok());
        let back = WeightedTally::from_parts(w.weights(), w.weight_squares());
        assert_eq!(back, w);

        // Hand-built inconsistent states are rejected.
        let mut counts = [0u64; 8];
        let mut ws = [0f64; 8];
        let wsq = [0f64; 8];
        let consistent = |ws, wsq, counts| {
            WeightedTally::from_parts(ws, wsq).check_consistent(&OutcomeTally::from_counts(counts))
        };
        ws[0] = 1.0; // weight without a trial
        assert!(consistent(ws, wsq, counts).is_err());
        counts[0] = 1; // weight without squared weight
        assert!(consistent(ws, wsq, counts).is_err());
        let mut wsq2 = [0f64; 8];
        wsq2[0] = 0.5; // (Σw)² = 4 > n·Σw² = 0.5
        ws[0] = 2.0;
        assert!(consistent(ws, wsq2, counts).is_err());
        ws[0] = f64::NAN;
        assert!(consistent(ws, wsq2, counts).is_err());
    }

    #[test]
    fn survived_count_saturates_worst_case() {
        // Every loss outcome also counts as injected, so for any tally
        // built through record/merge, survived_count = injected - lost
        // can never wrap; the all-lost tally bottoms out at exactly 0.
        let mut t = OutcomeTally::default();
        t.record(ErrorOutcome::DetectedUnrecoverable);
        t.record(ErrorOutcome::SilentCorruption);
        assert_eq!(t.survived_count(), 0);
        assert_eq!(t.survived_fraction(), 0.0);
    }
}
