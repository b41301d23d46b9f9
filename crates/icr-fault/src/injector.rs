//! The injector: per-cycle Bernoulli fault arrivals applied to the dL1
//! and, for spill schemes, to the replica-aware L2 region.

use crate::model::ErrorModel;
use icr_core::DataL1;
use icr_ecc::Protection;
use icr_mem::MemoryBackend;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// Draws a fault-arrival cycle from the exact conditional distribution
/// of a per-cycle Bernoulli(`p`) arrival, given that it lands within
/// `horizon` cycles: a geometric variate truncated to `1..=horizon`,
/// by inverse-CDF. Deterministic in `seed`.
///
/// This is the "forced injection" half of an importance-sampled trial:
/// the unconditioned arrival delivers no fault at all with probability
/// `(1-p)^horizon` — wasted work the estimator (which conditions on
/// delivery) never sees. Sampling the arrival from the conditional
/// directly makes every trial deliver, and because the draw *is* the
/// conditional distribution, its likelihood ratio is exactly 1 — the
/// trial weight stays the site draw's ratio alone.
///
/// # Panics
///
/// Panics unless `p` is in `(0, 1]` and `horizon >= 1`.
pub fn conditional_arrival(p: f64, horizon: u64, seed: u64) -> u64 {
    assert!(p > 0.0 && p <= 1.0, "arrival probability {p} not in (0,1]");
    assert!(horizon >= 1, "arrival horizon must be at least one cycle");
    let u: f64 = SmallRng::seed_from_u64(seed).gen();
    if p >= 1.0 {
        return 1;
    }
    let q = 1.0 - p;
    // F(t) = (1 - q^t) / (1 - q^horizon); smallest t with F(t) >= u.
    let tail = 1.0 - q.powf(horizon as f64);
    let t = ((1.0 - u * tail).ln() / q.ln()).ceil() as u64;
    t.clamp(1, horizon)
}

/// Where an injected fault landed: a dL1 line, or a spilled replica in
/// the L2 region. The sample space is the union of both, weighted by
/// occupancy, so spilled copies face the same per-bit strike rate as
/// dL1-resident data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A valid dL1 line.
    DataL1 {
        /// Set index of the struck line.
        set: usize,
        /// Way of the struck line.
        way: usize,
    },
    /// An occupied slot of the L2 replica region.
    L2Replica {
        /// Region slot of the struck copy.
        slot: usize,
    },
}

impl FaultSite {
    /// The dL1 coordinates of this site, or a recoverable
    /// [`SiteMismatch`] when the strike landed in the L2 replica region.
    ///
    /// Consumers that only track dL1 state (trace analyzers, the test
    /// helpers, dL1-only tooling) must not assume every fault is a dL1
    /// fault: under spill schemes the sample space includes the region,
    /// and treating that as unreachable turns a routine site into an
    /// abort.
    pub fn as_dl1(self) -> Result<(usize, usize), SiteMismatch> {
        match self {
            FaultSite::DataL1 { set, way } => Ok((set, way)),
            FaultSite::L2Replica { .. } => Err(SiteMismatch {
                got: self,
                expected: "a dL1 line",
            }),
        }
    }

    /// The L2 replica-region slot of this site, or a recoverable
    /// [`SiteMismatch`] for a dL1 strike.
    pub fn as_region_slot(self) -> Result<usize, SiteMismatch> {
        match self {
            FaultSite::L2Replica { slot } => Ok(slot),
            FaultSite::DataL1 { .. } => Err(SiteMismatch {
                got: self,
                expected: "an L2 replica-region slot",
            }),
        }
    }
}

/// A consumer expected a fault in one storage tier but the injected
/// site lies in the other. Recoverable: callers decide whether to skip,
/// reroute, or report the fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteMismatch {
    /// The site that was actually struck.
    pub got: FaultSite,
    /// What the consumer asked for.
    pub expected: &'static str,
}

impl std::fmt::Display for SiteMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "expected {}, got fault site {:?}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for SiteMismatch {}

/// Record of one injected fault (for logging and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Cycle at which the fault struck.
    pub cycle: u64,
    /// The struck storage location.
    pub site: FaultSite,
    /// Word within the line.
    pub word: usize,
    /// First (or only) flipped bit.
    pub bit: u32,
    /// `true` when the flip landed in the check-bit storage.
    pub in_check_bits: bool,
    /// Whether the struck dL1 line was dirty at injection (always
    /// `false` for L2 replica-region slots).
    pub site_dirty: bool,
    /// Cycles since the struck dL1 line's last access at injection
    /// (`0` for L2 replica-region slots).
    pub site_idle_cycles: u64,
    /// Aligned block address the struck site held at injection.
    pub site_block: u64,
}

/// Injects transient faults into a [`DataL1`] at a constant per-cycle
/// probability, following one of the four [`ErrorModel`]s.
///
/// ```
/// use icr_core::{DataL1, DataL1Config, Scheme};
/// use icr_fault::{ErrorModel, FaultInjector};
/// use icr_mem::{Addr, HierarchyConfig, MemoryBackend};
///
/// let mut backend = MemoryBackend::new(&HierarchyConfig::default());
/// let mut dl1 = DataL1::new(DataL1Config::paper_default(Scheme::BASE_P));
/// dl1.load(Addr(0x1000_0000), 0, &mut backend);
///
/// // Probability 1: one fault per cycle, guaranteed.
/// let mut inj = FaultInjector::new(ErrorModel::Random, 1.0, 42);
/// let n = inj.advance(&mut dl1, &mut backend, 0, 10);
/// assert_eq!(n, 10);
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector {
    model: ErrorModel,
    p_per_cycle: f64,
    rng: SmallRng,
    injected: u64,
    max_faults: Option<u64>,
    log: Vec<InjectedFault>,
    keep_log: bool,
    site_bias: Option<f64>,
    hot_blocks: Option<Arc<HashSet<u64>>>,
    forced_arrival: Option<u64>,
    last_weight: f64,
}

impl FaultInjector {
    /// An injector using `model` with per-cycle fault probability
    /// `p_per_cycle`, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics unless `p_per_cycle` is in `[0, 1]`.
    pub fn new(model: ErrorModel, p_per_cycle: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_per_cycle),
            "probability must be in [0,1], got {p_per_cycle}"
        );
        FaultInjector {
            model,
            p_per_cycle,
            rng: SmallRng::seed_from_u64(seed),
            injected: 0,
            max_faults: None,
            log: Vec::new(),
            keep_log: false,
            site_bias: None,
            hot_blocks: None,
            forced_arrival: None,
            last_weight: 1.0,
        }
    }

    /// Switches the site draw to an importance-sampling proposal:
    /// loss-prone dL1 lines are drawn `boost`× as often as every other
    /// site. A line is loss-prone when it is a dirty parity-protected
    /// primary, the only residency a single-bit strike can turn into
    /// data loss: a clean parity line refetches from L2, a SEC-DED line
    /// corrects, and a replica never holds the sole copy. A dirty parity
    /// primary stays loss-prone while it has a replica, which may be
    /// evicted, spilled or bypassed before the struck word is consumed.
    ///
    /// The fault *arrival* process (the per-cycle Bernoulli draw and its
    /// RNG stream) is untouched, so only the conditional site
    /// distribution changes; [`last_weight`](Self::last_weight) then
    /// carries the exact likelihood ratio
    /// `P_uniform(site) / P_proposal(site)` that makes weighted outcome
    /// tallies unbiased.
    ///
    /// Without this option the draw and its RNG consumption are
    /// byte-identical to the historical uniform injector.
    ///
    /// # Panics
    ///
    /// Panics unless `boost` is finite and positive.
    pub fn with_site_bias(mut self, boost: f64) -> Self {
        assert!(
            boost.is_finite() && boost > 0.0,
            "site bias must be finite and positive, got {boost}"
        );
        self.site_bias = Some(boost);
        self
    }

    /// Widens the biased site draw's boosted class beyond loss-prone
    /// lines to any valid non-replica parity line whose block is in
    /// `blocks` — typically the profiled store working set, the only
    /// blocks a strike can *launder* through (a clean-line strike turns
    /// silent only when a later store dirties the line and replication
    /// re-encodes the corrupted word under clean parity). No effect
    /// without [`with_site_bias`](Self::with_site_bias); weights stay
    /// exact likelihood ratios either way.
    pub fn with_hot_blocks(mut self, blocks: Arc<HashSet<u64>>) -> Self {
        self.hot_blocks = Some(blocks);
        self
    }

    /// Forces the single fault arrival to the given cycle: `advance`
    /// stops drawing per-cycle Bernoulli arrivals (consuming no RNG for
    /// them) and injects exactly once, in whichever window covers
    /// `cycle`. Pair with [`conditional_arrival`] to sample `cycle`
    /// from the arrival process's exact conditional-on-delivery
    /// distribution: the trial then measures the same conditional
    /// estimand as a Bernoulli trial that happened to deliver, without
    /// the `(1-p)^C` chance of a wasted, fault-free run. The site,
    /// word, and bit draws still come from the seeded stream.
    pub fn with_forced_arrival(mut self, cycle: u64) -> Self {
        self.forced_arrival = Some(cycle);
        self
    }

    /// The importance weight (likelihood ratio) of the most recently
    /// injected fault: `1.0` in uniform mode, before any injection, and
    /// whenever the proposal coincides with the uniform draw (no
    /// loss-prone lines resident at strike time).
    pub fn last_weight(&self) -> f64 {
        self.last_weight
    }

    /// Caps the total number of faults this injector will ever deliver.
    /// `with_max_faults(1)` is the single-event-upset mode Monte-Carlo
    /// campaigns use: the first Bernoulli arrival strikes, then the
    /// injector goes quiet, so every counted outcome is attributable to
    /// exactly one fault.
    pub fn with_max_faults(mut self, max: u64) -> Self {
        self.max_faults = Some(max);
        self
    }

    /// Enables recording of every injected fault (off by default to keep
    /// long runs cheap).
    pub fn with_log(mut self) -> Self {
        self.keep_log = true;
        self
    }

    /// The error model in use.
    pub fn model(&self) -> ErrorModel {
        self.model
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// The fault log (empty unless [`with_log`](Self::with_log)).
    pub fn log(&self) -> &[InjectedFault] {
        &self.log
    }

    /// Advances simulated time from `from_cycle` (exclusive) to `to_cycle`
    /// (inclusive), flipping bits per the per-cycle probability. Returns
    /// the number of faults injected.
    pub fn advance(
        &mut self,
        dl1: &mut DataL1,
        backend: &mut MemoryBackend,
        from_cycle: u64,
        to_cycle: u64,
    ) -> u64 {
        if self.p_per_cycle == 0.0 || to_cycle <= from_cycle || self.quiesced() {
            return 0;
        }
        if let Some(a) = self.forced_arrival {
            // Bernoulli arrivals in this window would land in
            // (from_cycle, to_cycle]; the forced arrival obeys the same
            // convention and consumes no arrival RNG.
            if a > from_cycle && a <= to_cycle && self.inject_one(dl1, backend, a) {
                return 1;
            }
            return 0;
        }
        let mut n = 0;
        for cycle in from_cycle..to_cycle {
            if self.rng.gen::<f64>() < self.p_per_cycle && self.inject_one(dl1, backend, cycle + 1)
            {
                n += 1;
                if self.quiesced() {
                    break;
                }
            }
        }
        n
    }

    /// `true` once the [`with_max_faults`](Self::with_max_faults) budget
    /// is exhausted.
    pub fn quiesced(&self) -> bool {
        self.max_faults.is_some_and(|m| self.injected >= m)
    }

    /// Injects exactly one fault event right now (used by tests and by
    /// deterministic experiments), striking across dL1 lines and
    /// occupied L2 replica-region slots, uniformly or, with
    /// [`with_site_bias`](Self::with_site_bias), by the importance
    /// proposal. Returns `false` when neither holds anything to strike.
    ///
    /// When the region is empty — every scheme whose placement tier is
    /// dL1-only — the draw collapses to the pure dL1 sample space, so
    /// established seeds reproduce the same fault sites they always did.
    pub fn inject_one(
        &mut self,
        dl1: &mut DataL1,
        backend: &mut MemoryBackend,
        cycle: u64,
    ) -> bool {
        let lines = dl1.valid_lines();
        let slots = backend.replica_region().occupied();
        let total = lines.len() + slots.len();
        if total == 0 {
            return false;
        }
        let (idx, weight) = match self.site_bias {
            None => (self.rng.gen_range(0..total), 1.0),
            Some(boost) => self.biased_site(dl1, &lines, slots.len(), boost),
        };
        self.last_weight = weight;
        let (site, words, site_dirty, site_idle_cycles, site_block) = match lines.get(idx) {
            Some(&(set, way)) => {
                let line = dl1
                    .line_view(set, way)
                    .expect("valid_lines lists valid lines");
                (
                    FaultSite::DataL1 { set, way },
                    dl1.geometry().words_per_block(),
                    line.dirty,
                    cycle.saturating_sub(line.last_access),
                    line.addr.raw(),
                )
            }
            None => {
                let (slot, block) = slots[idx - lines.len()];
                (
                    FaultSite::L2Replica { slot },
                    backend.replica_region().words(slot).len(),
                    false,
                    0,
                    block.raw(),
                )
            }
        };
        let word = self.rng.gen_range(0..words);
        let (bit, in_check_bits) = match self.model {
            ErrorModel::Direct | ErrorModel::Column => (self.rng.gen_range(0..64), false),
            ErrorModel::Adjacent => (self.rng.gen_range(0..63), false),
            // 64 data bits + 8 check bits per word: strike uniformly.
            ErrorModel::Random => match self.rng.gen_range(0..72) {
                bit @ 0..=63 => (bit, false),
                bit => (bit - 64, true),
            },
        };
        flip(dl1, backend, site, word, bit, in_check_bits);
        match self.model {
            ErrorModel::Adjacent => flip(dl1, backend, site, word, bit + 1, false),
            ErrorModel::Column => flip(dl1, backend, site, (word + 1) % words, bit, false),
            ErrorModel::Direct | ErrorModel::Random => {}
        }
        if self.keep_log {
            self.log.push(InjectedFault {
                cycle,
                site,
                word,
                bit,
                in_check_bits,
                site_dirty,
                site_idle_cycles,
                site_block,
            });
        }
        self.injected += 1;
        true
    }

    /// Draws one site index from the importance proposal. A valid dL1
    /// line that is a parity-protected primary and is either dirty
    /// (replicated or not) or, when
    /// [`with_hot_blocks`](Self::with_hot_blocks) is set, holds a hot
    /// (store-working-set) block carries weight `boost`; every other dL1
    /// line and every occupied region slot weight `1`. Returns the index
    /// into the `lines ++ slots` sample space and the exact likelihood
    /// ratio `P_uniform(site) / P_proposal(site)` of the drawn site.
    ///
    /// The word within the site is drawn uniformly either way, so its
    /// factor cancels from the ratio, which reduces to
    /// `Σw / (total · w_site)`. When no boosted line is resident the
    /// proposal *is* the uniform distribution and the ratio is exactly
    /// `1`.
    fn biased_site(
        &mut self,
        dl1: &DataL1,
        lines: &[(usize, usize)],
        slot_count: usize,
        boost: f64,
    ) -> (usize, f64) {
        let total = lines.len() + slot_count;
        let hot = self.hot_blocks.as_deref();
        let line_weight = |&(set, way): &(usize, usize)| -> f64 {
            let boosted = dl1.line_view(set, way).is_some_and(|l| {
                !l.is_replica
                    && l.protection == Protection::Parity
                    && (l.dirty || hot.is_some_and(|h| h.contains(&l.addr.raw())))
            });
            if boosted {
                boost
            } else {
                1.0
            }
        };
        let site_weight = |i: usize| lines.get(i).map_or(1.0, line_weight);
        let total_weight: f64 = lines.iter().map(line_weight).sum::<f64>() + slot_count as f64;
        let r = self.rng.gen::<f64>() * total_weight;
        let mut acc = 0.0;
        let mut chosen = None;
        for i in 0..total {
            let w = site_weight(i);
            acc += w;
            if r < acc {
                chosen = Some((i, w));
                break;
            }
        }
        // Floating-point fallthrough (r landed on the accumulated sum's
        // rounding slack): charge the last site.
        let (idx, w) = chosen.unwrap_or_else(|| (total - 1, site_weight(total - 1)));
        (idx, total_weight / (total as f64 * w))
    }
}

/// Flips `bit` of `word` at `site`: a data bit, or with `check` one of
/// the word's check bits.
fn flip(
    dl1: &mut DataL1,
    backend: &mut MemoryBackend,
    site: FaultSite,
    word: usize,
    bit: u32,
    check: bool,
) {
    let region = backend.replica_region_mut();
    let flipped = match (site, check) {
        (FaultSite::DataL1 { set, way }, false) => dl1.flip_data_bit(set, way, word, bit),
        (FaultSite::DataL1 { set, way }, true) => dl1.flip_check_bit(set, way, word, bit),
        (FaultSite::L2Replica { slot }, false) => region.flip_data_bit(slot, word, bit),
        (FaultSite::L2Replica { slot }, true) => region.flip_check_bit(slot, word, bit),
    };
    debug_assert!(flipped, "fault site {site:?} vanished mid-injection");
}

#[cfg(test)]
mod tests {
    use super::*;
    use icr_core::{DataL1Config, Scheme};
    use icr_mem::{Addr, HierarchyConfig, MemoryBackend};

    fn loaded_cache() -> (DataL1, MemoryBackend) {
        let mut backend = MemoryBackend::new(&HierarchyConfig::default());
        let mut dl1 = DataL1::new(DataL1Config::paper_default(Scheme::BASE_P));
        for i in 0..16u64 {
            dl1.load(Addr(0x1000_0000 + i * 64), i, &mut backend);
        }
        (dl1, backend)
    }

    /// The dL1 coordinates of a logged fault. Site mismatches are a
    /// recoverable [`SiteMismatch`] now; these tests genuinely require
    /// a dL1 strike, so they surface the error as a test failure.
    fn dl1_site(f: &InjectedFault) -> (usize, usize) {
        f.site.as_dl1().expect("test requires a dL1 fault")
    }

    #[test]
    fn zero_probability_injects_nothing() {
        let (mut dl1, mut backend) = loaded_cache();
        let mut inj = FaultInjector::new(ErrorModel::Random, 0.0, 1);
        assert_eq!(inj.advance(&mut dl1, &mut backend, 0, 100_000), 0);
    }

    #[test]
    fn empty_cache_cannot_be_struck() {
        let mut backend = MemoryBackend::new(&HierarchyConfig::default());
        let mut dl1 = DataL1::new(DataL1Config::paper_default(Scheme::BASE_P));
        let mut inj = FaultInjector::new(ErrorModel::Random, 1.0, 1);
        assert_eq!(inj.advance(&mut dl1, &mut backend, 0, 10), 0);
    }

    #[test]
    fn injection_rate_tracks_probability() {
        let (mut dl1, mut backend) = loaded_cache();
        let mut inj = FaultInjector::new(ErrorModel::Direct, 0.1, 7);
        let n = inj.advance(&mut dl1, &mut backend, 0, 10_000);
        assert!((800..1200).contains(&n), "expected ~1000, got {n}");
    }

    #[test]
    fn direct_fault_is_detectable_by_parity() {
        let (mut dl1, mut backend) = loaded_cache();
        let mut inj = FaultInjector::new(ErrorModel::Direct, 1.0, 3).with_log();
        assert!(inj.inject_one(&mut dl1, &mut backend, 0));
        let f = inj.log()[0];
        let (set, way) = dl1_site(&f);
        // Reload every resident word of that line via the public API: the
        // parity machinery must detect (and, clean line, recover from L2).
        let view = dl1.line_view(set, way).unwrap();
        let addr = Addr(view.addr.raw() + (f.word as u64) * 8);
        dl1.load(addr, 1, &mut backend);
        assert_eq!(dl1.stats().errors_detected, 1);
        assert_eq!(dl1.stats().errors_recovered_l2, 1);
    }

    #[test]
    fn adjacent_fault_defeats_parity_detection() {
        // Two adjacent bits in one byte alias for byte parity: the load
        // sees clean parity and silently consumes wrong data. This is the
        // failure mode the paper's ECC/NMR discussion worries about.
        let (mut dl1, mut backend) = loaded_cache();
        let mut inj = FaultInjector::new(ErrorModel::Adjacent, 1.0, 5).with_log();
        // Find an injection whose two bits fall in the same byte.
        loop {
            inj.log.clear();
            assert!(inj.inject_one(&mut dl1, &mut backend, 0));
            let f = inj.log()[0];
            if f.bit % 8 != 7 {
                // bits f.bit and f.bit+1 share a byte
                let (set, way) = dl1_site(&f);
                let view = dl1.line_view(set, way).unwrap();
                let addr = Addr(view.addr.raw() + (f.word as u64) * 8);
                let before = dl1.stats().errors_detected;
                dl1.load(addr, 1, &mut backend);
                assert_eq!(
                    dl1.stats().errors_detected,
                    before,
                    "same-byte adjacent flips must slip past parity"
                );
                break;
            }
            // Bits straddle a byte boundary: re-roll on a fresh cache.
            let (d, _) = loaded_cache();
            dl1 = d;
        }
    }

    #[test]
    fn adjacent_fault_is_detected_by_secded() {
        let mut backend = MemoryBackend::new(&HierarchyConfig::default());
        let mut dl1 = DataL1::new(DataL1Config::paper_default(Scheme::BASE_ECC));
        dl1.load(Addr(0x1000_0000), 0, &mut backend);
        let mut inj = FaultInjector::new(ErrorModel::Adjacent, 1.0, 5).with_log();
        assert!(inj.inject_one(&mut dl1, &mut backend, 0));
        let f = inj.log()[0];
        let (set, way) = dl1_site(&f);
        let view = dl1.line_view(set, way).unwrap();
        let addr = Addr(view.addr.raw() + (f.word as u64) * 8);
        dl1.load(addr, 1, &mut backend);
        // SEC-DED flags the double error; the clean line refetches from L2.
        assert_eq!(dl1.stats().errors_detected, 1);
        assert_eq!(dl1.stats().errors_recovered_l2, 1);
        assert_eq!(dl1.stats().errors_corrected_ecc, 0);
    }

    #[test]
    fn column_fault_hits_two_words() {
        let (mut dl1, mut backend) = loaded_cache();
        let mut inj = FaultInjector::new(ErrorModel::Column, 1.0, 9).with_log();
        assert!(inj.inject_one(&mut dl1, &mut backend, 0));
        let f = inj.log()[0];
        let (set, way) = dl1_site(&f);
        let view = dl1.line_view(set, way).unwrap();
        let words = dl1.geometry().words_per_block();
        let w2 = (f.word + 1) % words;
        // Both struck words differ from the architecturally-correct data.
        let golden = backend.golden_block(view.addr);
        assert_ne!(dl1.word_data(set, way, f.word), Some(golden.word(f.word)));
        assert_ne!(dl1.word_data(set, way, w2), Some(golden.word(w2)));
        // The first load detects its word's error; the clean-line refetch
        // from L2 heals the *entire* line, including the second word.
        dl1.load(Addr(view.addr.raw() + (f.word as u64) * 8), 1, &mut backend);
        assert_eq!(dl1.stats().errors_detected, 1);
        assert_eq!(dl1.stats().errors_recovered_l2, 1);
        assert_eq!(dl1.word_data(set, way, w2), Some(golden.word(w2)));
        dl1.load(Addr(view.addr.raw() + (w2 as u64) * 8), 2, &mut backend);
        assert_eq!(dl1.stats().errors_detected, 1, "second word already healed");
    }

    #[test]
    fn each_strike_flips_its_logged_bits_and_logs_its_site_before_the_strike() {
        let mut seen = [false; 4]; // dirty site, clean site, data bit, check bit
        for model in ErrorModel::all() {
            for seed in 0..64u64 {
                let (mut dl1, mut backend) = loaded_cache();
                for i in (0..16u64).step_by(2) {
                    dl1.store(Addr(0x1000_0000 + i * 64), 20 + i, &mut backend);
                }
                let words = dl1.geometry().words_per_block();
                let data = |dl1: &DataL1, (s, w): (usize, usize)| -> Vec<u64> {
                    (0..words)
                        .map(|i| dl1.word_data(s, w, i).unwrap())
                        .collect()
                };
                let before: Vec<_> = dl1
                    .valid_lines()
                    .into_iter()
                    .map(|sw| (sw, dl1.line_view(sw.0, sw.1).unwrap(), data(&dl1, sw)))
                    .collect();
                let cycle = 100 + seed;
                let mut inj = FaultInjector::new(model, 1.0, seed).with_log();
                assert!(inj.inject_one(&mut dl1, &mut backend, cycle));
                let f = inj.log()[0];
                let site = dl1_site(&f);
                let (_, view, old) = before.iter().find(|b| b.0 == site).unwrap();
                assert_eq!(f.site_dirty, view.dirty, "{model:?} seed {seed}");
                assert_eq!(f.site_block, view.addr.raw(), "{model:?} seed {seed}");
                assert_eq!(f.site_idle_cycles, cycle - view.last_access);
                let mut flipped = vec![0u64; words];
                match model {
                    ErrorModel::Random if f.in_check_bits => assert!(f.bit < 8),
                    ErrorModel::Direct | ErrorModel::Random => flipped[f.word] = 1 << f.bit,
                    ErrorModel::Adjacent => flipped[f.word] = 0b11 << f.bit,
                    ErrorModel::Column => {
                        flipped[f.word] = 1 << f.bit;
                        flipped[(f.word + 1) % words] = 1 << f.bit;
                    }
                }
                let diff: Vec<u64> = data(&dl1, site)
                    .iter()
                    .zip(old)
                    .map(|(a, b)| a ^ b)
                    .collect();
                assert_eq!(diff, flipped, "{model:?} seed {seed}: {f:?}");
                seen[usize::from(!f.site_dirty)] = true;
                seen[2 + usize::from(f.in_check_bits)] = true;
            }
        }
        assert_eq!(
            seen, [true; 4],
            "dirty, clean, data-bit and check-bit strikes"
        );
    }

    #[test]
    fn determinism_same_seed_same_fault_sites() {
        let (mut a, mut backend_a) = loaded_cache();
        let (mut b, mut backend_b) = loaded_cache();
        let mut ia = FaultInjector::new(ErrorModel::Random, 1.0, 11).with_log();
        let mut ib = FaultInjector::new(ErrorModel::Random, 1.0, 11).with_log();
        ia.advance(&mut a, &mut backend_a, 0, 50);
        ib.advance(&mut b, &mut backend_b, 0, 50);
        assert_eq!(ia.log(), ib.log());
    }

    #[test]
    fn spilled_replicas_share_the_strike_space() {
        // An empty dL1 plus one region-resident copy: every strike must
        // land in the region, and the flip must corrupt the stored word.
        let mut backend = MemoryBackend::new(&HierarchyConfig::default());
        let mut dl1 = DataL1::new(DataL1Config::paper_default(Scheme::ICR_P_PS_S_L2));
        let block = icr_mem::BlockAddr(0x1000_0000);
        let data = backend.golden_block(block);
        backend.replica_region_mut().insert(block, data.words());
        let before: Vec<u64> = backend.replica_region().export_lru_order()[0].1.clone();

        let mut inj = FaultInjector::new(ErrorModel::Direct, 1.0, 21).with_log();
        assert!(inj.inject_one(&mut dl1, &mut backend, 0));
        let f = inj.log()[0];
        assert_eq!(f.site, FaultSite::L2Replica { slot: 0 });
        assert!(!f.site_dirty);
        assert_eq!(f.site_idle_cycles, 0);
        assert_eq!(f.site_block, block.raw());
        let after: Vec<u64> = backend.replica_region().export_lru_order()[0].1.clone();
        assert_eq!(after[f.word], before[f.word] ^ (1 << f.bit));
        assert!(
            !backend.replica_region().word(0, f.word).is_clean(),
            "a direct flip must be visible to the copy's parity"
        );
    }

    #[test]
    #[should_panic(expected = "probability must be in [0,1]")]
    fn invalid_probability_panics() {
        FaultInjector::new(ErrorModel::Random, 1.5, 0);
    }

    #[test]
    fn region_site_is_a_recoverable_error_not_a_panic() {
        // Regression: a dL1-only consumer handed a region strike used to
        // abort (exit 101) inside the site accessor; it is a typed,
        // recoverable error now.
        let site = FaultSite::L2Replica { slot: 3 };
        let err = site.as_dl1().unwrap_err();
        assert_eq!(err.got, site);
        let msg = err.to_string();
        assert!(
            msg.contains("expected a dL1 line") && msg.contains("slot: 3"),
            "unhelpful mismatch message: {msg}"
        );
        // And the dual direction.
        let dl1 = FaultSite::DataL1 { set: 1, way: 2 };
        assert_eq!(dl1.as_dl1(), Ok((1, 2)));
        assert!(dl1.as_region_slot().is_err());
        assert_eq!(site.as_region_slot(), Ok(3));
    }

    #[test]
    fn without_site_bias_the_stream_is_unchanged() {
        // The importance machinery must be invisible in uniform mode:
        // same seed, same sites, same weights of exactly 1.
        let (mut a, mut backend_a) = loaded_cache();
        let (mut b, mut backend_b) = loaded_cache();
        let mut ia = FaultInjector::new(ErrorModel::Random, 1.0, 11).with_log();
        let mut ib = FaultInjector::new(ErrorModel::Random, 1.0, 11).with_log();
        ia.advance(&mut a, &mut backend_a, 0, 50);
        ib.advance(&mut b, &mut backend_b, 0, 50);
        assert_eq!(ia.log(), ib.log());
        assert_eq!(ia.last_weight(), 1.0);
    }

    #[test]
    fn unbiased_proposal_when_nothing_is_dirty_has_weight_one() {
        // All-clean cache: the proposal equals the uniform distribution,
        // so every draw must carry exactly weight 1.
        let (mut dl1, mut backend) = loaded_cache();
        let mut inj = FaultInjector::new(ErrorModel::Direct, 1.0, 13).with_site_bias(16.0);
        for cycle in 0..32 {
            assert!(inj.inject_one(&mut dl1, &mut backend, cycle));
            assert_eq!(inj.last_weight(), 1.0);
        }
    }

    #[test]
    fn biased_draw_prefers_dirty_parity_lines_and_weights_exactly() {
        // One dirty line among 16 under BaseP (parity, no replication):
        // with boost B the dirty line is drawn with probability
        // B/(15+B) and must carry weight (15+B)/(16B); clean lines carry
        // (15+B)/16.
        let boost = 16.0;
        let (mut dl1, mut backend) = loaded_cache();
        dl1.store(Addr(0x1000_0000), 100, &mut backend);
        let dirty_line = {
            let lines = dl1.valid_lines();
            *lines
                .iter()
                .find(|&&(s, w)| {
                    dl1.line_view(s, w).is_some_and(|l| {
                        l.dirty && !l.is_replica && l.protection == Protection::Parity
                    })
                })
                .expect("the stored line is dirty parity")
        };
        let total = dl1.valid_lines().len() as f64;
        assert_eq!(total, 16.0);
        let w_total = total - 1.0 + boost;
        let mut inj = FaultInjector::new(ErrorModel::Direct, 1.0, 17)
            .with_site_bias(boost)
            .with_log();
        let mut dirty_hits = 0u32;
        let n = 2000;
        for cycle in 0..n {
            assert!(inj.inject_one(&mut dl1, &mut backend, cycle));
            let f = *inj.log().last().unwrap();
            if dl1_site(&f) == dirty_line {
                dirty_hits += 1;
                assert!(
                    (inj.last_weight() - w_total / (total * boost)).abs() < 1e-12,
                    "dirty-site weight off: {}",
                    inj.last_weight()
                );
            } else {
                assert!(
                    (inj.last_weight() - w_total / total).abs() < 1e-12,
                    "clean-site weight off: {}",
                    inj.last_weight()
                );
            }
            // Heal the strike so the cache state (and the dirty set)
            // stays fixed across draws.
            let (s, w) = dl1_site(&f);
            if f.in_check_bits {
                dl1.flip_check_bit(s, w, f.word, f.bit);
            } else {
                dl1.flip_data_bit(s, w, f.word, f.bit);
            }
        }
        // Expected dirty share boost/(15+boost) ≈ 0.516; a ±5σ band.
        let p = boost / w_total;
        let sigma = (p * (1.0 - p) / n as f64).sqrt();
        let observed = dirty_hits as f64 / n as f64;
        assert!(
            (observed - p).abs() < 5.0 * sigma,
            "dirty share {observed} too far from proposal {p}"
        );
    }

    #[test]
    #[should_panic(expected = "site bias must be finite and positive")]
    fn invalid_site_bias_panics() {
        FaultInjector::new(ErrorModel::Random, 1.0, 0).with_site_bias(0.0);
    }

    #[test]
    fn forced_arrival_fires_exactly_once_at_the_forced_cycle() {
        let (mut dl1, mut backend) = loaded_cache();
        let mut inj = FaultInjector::new(ErrorModel::Direct, 1e-9, 23)
            .with_max_faults(1)
            .with_forced_arrival(120)
            .with_log();
        // Windows before the arrival deliver nothing.
        assert_eq!(inj.advance(&mut dl1, &mut backend, 0, 100), 0);
        // Arrivals land in (from, to]: cycle 120 belongs to this window.
        assert_eq!(inj.advance(&mut dl1, &mut backend, 100, 120), 1);
        assert_eq!(inj.log()[0].cycle, 120);
        // Quiesced afterwards — no second delivery, ever.
        assert_eq!(inj.advance(&mut dl1, &mut backend, 120, 10_000), 0);
    }

    #[test]
    fn forced_arrival_consumes_no_arrival_rng() {
        // Same seed, forced vs p=1 immediate arrival at the same cycle:
        // the site/word/bit draws must coincide, because forcing skips
        // only the Bernoulli stream (which at p=1 consumes one draw per
        // cycle... so instead compare forced against inject_one, which
        // is the arrival-free baseline).
        let (mut a, mut backend_a) = loaded_cache();
        let (mut b, mut backend_b) = loaded_cache();
        let mut forced = FaultInjector::new(ErrorModel::Random, 1e-9, 31)
            .with_max_faults(1)
            .with_forced_arrival(7)
            .with_log();
        forced.advance(&mut a, &mut backend_a, 0, 50);
        let mut direct = FaultInjector::new(ErrorModel::Random, 1e-9, 31)
            .with_max_faults(1)
            .with_log();
        direct.inject_one(&mut b, &mut backend_b, 7);
        assert_eq!(forced.log(), direct.log());
    }

    #[test]
    fn conditional_arrival_is_deterministic_and_in_range() {
        for seed in 0..200u64 {
            let t = conditional_arrival(1e-4, 5_000, seed);
            assert!((1..=5_000).contains(&t), "arrival {t} out of range");
            assert_eq!(t, conditional_arrival(1e-4, 5_000, seed));
        }
        // p=1 always arrives on the first cycle.
        assert_eq!(conditional_arrival(1.0, 100, 9), 1);
        // A one-cycle horizon leaves no choice.
        assert_eq!(conditional_arrival(0.3, 1, 9), 1);
    }

    #[test]
    fn conditional_arrival_matches_the_truncated_geometric() {
        // With p chosen so delivery within the horizon is likely but not
        // certain, the empirical mean of the conditional must match
        // E[T | T <= C] analytically (±5σ).
        let (p, c, n) = (2e-3, 1_000u64, 4_000u64);
        let q: f64 = 1.0 - p;
        let tail = 1.0 - q.powf(c as f64);
        // E[T | T<=C] = (1/p - (C + 1/p - C/tail*0 ...)) — compute by sum.
        let mean_true: f64 = (1..=c)
            .map(|t| t as f64 * q.powf(t as f64 - 1.0) * p / tail)
            .sum();
        let var_true: f64 = (1..=c)
            .map(|t| (t as f64 - mean_true).powi(2) * q.powf(t as f64 - 1.0) * p / tail)
            .sum();
        let mean_obs: f64 = (0..n)
            .map(|s| conditional_arrival(p, c, s) as f64)
            .sum::<f64>()
            / n as f64;
        let sigma = (var_true / n as f64).sqrt();
        assert!(
            (mean_obs - mean_true).abs() < 5.0 * sigma,
            "conditional mean {mean_obs} too far from {mean_true} (σ={sigma})"
        );
    }

    #[test]
    fn hot_block_lines_are_boosted_with_exact_weights() {
        // All 16 lines clean; declare 4 of them hot. With boost B the
        // hot class carries weight B each: ratios must be
        // (12 + 4B)/(16B) for hot sites and (12 + 4B)/16 for cold ones.
        let boost = 8.0;
        let (mut dl1, mut backend) = loaded_cache();
        let hot: HashSet<u64> = (0..4u64).map(|i| 0x1000_0000 + i * 64).collect();
        let hot = Arc::new(hot);
        let w_total = 12.0 + 4.0 * boost;
        let mut inj = FaultInjector::new(ErrorModel::Direct, 1.0, 29)
            .with_site_bias(boost)
            .with_hot_blocks(hot.clone())
            .with_log();
        let mut hot_hits = 0u32;
        let n = 2000;
        for cycle in 0..n {
            assert!(inj.inject_one(&mut dl1, &mut backend, cycle));
            let f = *inj.log().last().unwrap();
            if hot.contains(&f.site_block) {
                hot_hits += 1;
                assert!(
                    (inj.last_weight() - w_total / (16.0 * boost)).abs() < 1e-12,
                    "hot-site weight off: {}",
                    inj.last_weight()
                );
            } else {
                assert!(
                    (inj.last_weight() - w_total / 16.0).abs() < 1e-12,
                    "cold-site weight off: {}",
                    inj.last_weight()
                );
            }
            let (s, w) = dl1_site(&f);
            if f.in_check_bits {
                dl1.flip_check_bit(s, w, f.word, f.bit);
            } else {
                dl1.flip_data_bit(s, w, f.word, f.bit);
            }
        }
        let p = 4.0 * boost / w_total;
        let sigma = (p * (1.0 - p) / n as f64).sqrt();
        let observed = hot_hits as f64 / n as f64;
        assert!(
            (observed - p).abs() < 5.0 * sigma,
            "hot share {observed} too far from proposal {p}"
        );
    }
}
