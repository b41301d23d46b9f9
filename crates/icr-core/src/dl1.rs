//! The data L1 cache with in-cache replication — the paper's contribution.
//!
//! One implementation covers every scheme of §3.2: the baselines simply
//! never replicate, and the ICR variants differ in trigger, lookup mode and
//! unreplicated-line protection. Lines store real data words with real
//! check bits ([`icr_ecc::ProtectedWord`]), so fault injection and recovery
//! are computed, not assumed.
//!
//! # Semantics implemented (paper section in parentheses)
//!
//! * **Dead-block decay** (§2): per-line 2-bit decay counters with a
//!   configurable window; window 0 = the aggressive setting.
//! * **Replication triggers** (§3.1): on stores, or on stores + load
//!   misses. Stores update all existing replicas in place.
//! * **Placement** (§3.1): distance-k candidate sets with multi-attempt
//!   and multi-replica policies.
//! * **Victim choice** (§3.1): dead-only / dead-first / replica-first /
//!   replica-only, never displacing a live primary. Invalid ways are free
//!   space and used first.
//! * **Primary placement** (§3.1): plain LRU over the whole set,
//!   regardless of dead/replica status.
//! * **Protection** (§3.1): replicated blocks (primary + replicas) use
//!   parity; unreplicated blocks use the scheme's code. When a block's
//!   replication status changes, its primary is re-encoded. (Re-encoding
//!   trusts the stored bits; a latent error present at that instant would
//!   be laundered — a genuine hazard of the technique, preserved here.)
//! * **Eviction** (§3.1/§5.6): evicting a primary drops its replicas,
//!   unless `keep_replicas_on_evict`, in which case a later miss on the
//!   block can be served from the surviving replica for one extra cycle
//!   instead of an L2 round trip.
//! * **Error recovery** (§3.2): on a failed word check — replica first
//!   (one extra cycle in `PS` mode), then clean-block refetch from L2,
//!   else the load is unrecoverable.
//! * **Write-through mode** (§5.8): no-write-allocate, stores propagate
//!   functionally to L2 and are timed through a coalescing write buffer.

use crate::decay::DecayConfig;
use crate::hints::ReplicationHints;
use crate::placement::PlacementPolicy;
use crate::scheme::{ReplicaLookup, Scheme};
use crate::side_cache::DuplicationCache;
use crate::stats::IcrStats;
use crate::victim::{CandidateLine, VictimPolicy};
use icr_ecc::{CheckOutcome, ProtectedWord, Protection};
use icr_mem::{
    Addr, BlockAddr, CacheGeometry, DataBlock, LruArray, MemoryBackend, WriteBuffer,
    MAX_BLOCK_BYTES,
};
use icr_vuln::{Arrival, ExposureLedger, ExposureWindows, LaunderKind, ProtState, VulnClass};

/// Write policy of the dL1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Write-back, write-allocate (the paper's default for all schemes).
    WriteBack,
    /// Write-through, no-write-allocate, with a coalescing write buffer of
    /// the given capacity (§5.8's comparison point; the paper uses 8).
    WriteThrough {
        /// Write-buffer entries.
        buffer_entries: usize,
    },
}

/// Full configuration of the dL1.
///
/// Construct via [`DataL1Config::paper_default`] or
/// [`DataL1Config::aggressive`] and assign the fields to change; the
/// struct is `#[non_exhaustive]` so new knobs can be added without
/// breaking downstream constructors. A new `geometry` needs a matching
/// `placement` (`PlacementPolicy::vertical(geometry)` for the paper's).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct DataL1Config {
    /// Cache shape (paper: 16KB, 4-way, 64-byte blocks).
    pub geometry: CacheGeometry,
    /// Protection/replication scheme.
    pub scheme: Scheme,
    /// Dead-block decay window.
    pub decay: DecayConfig,
    /// Replica placement policy.
    pub placement: PlacementPolicy,
    /// Replica victim-selection policy.
    pub victim: VictimPolicy,
    /// §5.6 performance mode: leave replicas in place when their primary
    /// is evicted, and let them serve later misses.
    pub keep_replicas_on_evict: bool,
    /// Write-back (default) or write-through with a buffer.
    pub write_policy: WritePolicy,
    /// Software replication directives (§6 future work); empty by default
    /// so the hardware policy applies everywhere.
    pub hints: ReplicationHints,
    /// Kim–Somani duplication cache capacity in blocks (the paper's reference \[11\]
    /// comparison point): `Some(n)` attaches a separate n-block duplicate
    /// store written on every dL1 store and consulted on parity failures.
    /// `None` (default) — ICR's whole point is not needing one.
    pub duplication_cache: Option<usize>,
    /// Maintain an oracle shadow of what every resident word *should*
    /// contain, so loads that consume wrong data with a clean check are
    /// counted as silent data corruption (`IcrStats::silent_corruptions`).
    /// Measurement-only: it never influences timing or recovery.
    pub oracle: bool,
}

impl DataL1Config {
    /// The paper's base configuration for a given scheme: 16KB/4-way/64B,
    /// vertical single-replica placement, relaxed (1000-cycle) decay,
    /// dead-first victims, write-back, replicas dropped with their primary.
    pub fn paper_default(scheme: Scheme) -> Self {
        let geometry = CacheGeometry::new(16 * 1024, 4, 64);
        DataL1Config {
            geometry,
            scheme,
            decay: DecayConfig::relaxed(),
            placement: PlacementPolicy::vertical(geometry),
            victim: VictimPolicy::DeadFirst,
            keep_replicas_on_evict: false,
            write_policy: WritePolicy::WriteBack,
            hints: ReplicationHints::new(),
            duplication_cache: None,
            oracle: false,
        }
    }

    /// The aggressive §5.1–5.2 configuration: decay window 0 and
    /// dead-only victim selection.
    pub fn aggressive(scheme: Scheme) -> Self {
        DataL1Config {
            decay: DecayConfig::aggressive(),
            victim: VictimPolicy::DeadOnly,
            ..DataL1Config::paper_default(scheme)
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.placement.validate()?;
        if let WritePolicy::WriteThrough { buffer_entries } = self.write_policy {
            if buffer_entries == 0 {
                return Err("write buffer needs at least one entry".into());
            }
        }
        if self.duplication_cache == Some(0) {
            return Err("duplication cache needs at least one block".into());
        }
        Ok(())
    }
}

/// Structure-of-arrays line storage: every per-line attribute lives in
/// its own parallel vector, indexed by the flat slot `set * assoc + way`
/// (the same index the exposure ledger uses), and the stored words live
/// in one flat array with `words_per_block` entries per slot. Hot scans —
/// tag match, replica probes and victim candidate passes — walk short
/// contiguous runs of these vectors instead of striding over per-line
/// structs. Recency is one flat [`LruArray`] for all sets, and the
/// oracle's shadow is a second word array indexed like `words`, so no
/// access allocates.
#[derive(Debug, Clone)]
struct LineArrays {
    assoc: usize,
    words_per_block: usize,
    valid: Vec<bool>,
    dirty: Vec<bool>,
    is_replica: Vec<bool>,
    addr: Vec<BlockAddr>,
    /// Cycle of each line's last access — the lazy decay-counter input.
    /// Retained across invalidation, like the old per-line decay state.
    last_access: Vec<u64>,
    /// Protection code on each line's words. All words of a line always
    /// carry the same code, so state classification and victim selection
    /// never have to touch the word array.
    prot: Vec<Protection>,
    /// Flat word storage: word `i` of slot `sl` is `words[sl * words_per_block + i]`.
    words: Vec<ProtectedWord>,
    /// Oracle shadow (empty unless `config.oracle`): the architecturally
    /// true value of every word of a resident primary, indexed like
    /// `words`. Written at fill and store, read at load; an evicted
    /// slot's entries go stale harmlessly until its next fill.
    shadow: Vec<u64>,
    /// Every set's recency order (most-recently-used first).
    lru: LruArray,
}

impl LineArrays {
    fn new(g: CacheGeometry, oracle: bool) -> Self {
        let slots = g.num_sets() * g.associativity();
        LineArrays {
            assoc: g.associativity(),
            words_per_block: g.words_per_block(),
            valid: vec![false; slots],
            dirty: vec![false; slots],
            is_replica: vec![false; slots],
            addr: vec![BlockAddr(0); slots],
            last_access: vec![0; slots],
            prot: vec![Protection::Parity; slots],
            words: vec![ProtectedWord::default(); slots * g.words_per_block()],
            shadow: if oracle {
                vec![0; slots * g.words_per_block()]
            } else {
                Vec::new()
            },
            lru: LruArray::new(g.num_sets(), g.associativity()),
        }
    }

    /// Flat slot of (`set`, `way`) — also the exposure-ledger slot.
    #[inline]
    fn slot(&self, set: usize, way: usize) -> usize {
        debug_assert!(way < self.assoc);
        set * self.assoc + way
    }

    #[inline]
    fn word(&self, slot: usize, word: usize) -> &ProtectedWord {
        &self.words[slot * self.words_per_block + word]
    }

    #[inline]
    fn word_mut(&mut self, slot: usize, word: usize) -> &mut ProtectedWord {
        &mut self.words[slot * self.words_per_block + word]
    }

    #[inline]
    fn words_mut(&mut self, slot: usize) -> &mut [ProtectedWord] {
        &mut self.words[slot * self.words_per_block..][..self.words_per_block]
    }

    /// The stored data bits of `slot`, check bits dropped.
    fn plain_data(&self, slot: usize) -> DataBlock {
        let ws = &self.words[slot * self.words_per_block..][..self.words_per_block];
        let mut data = DataBlock::zeroed(self.words_per_block);
        for (i, w) in ws.iter().enumerate() {
            data.set_word(i, w.data());
        }
        data
    }

    /// The oracle's true value of word `word` of `slot`.
    #[inline]
    fn shadow_mut(&mut self, slot: usize, word: usize) -> &mut u64 {
        &mut self.shadow[slot * self.words_per_block + word]
    }

    /// Way of `set` holding the primary of `block`, if resident — one
    /// contiguous pass over the flag and tag vectors.
    #[inline]
    fn primary_way(&self, set: usize, block: BlockAddr) -> Option<usize> {
        let base = set * self.assoc;
        (0..self.assoc).find(|&w| {
            let sl = base + w;
            self.valid[sl] && !self.is_replica[sl] && self.addr[sl] == block
        })
    }

    /// First way of `set` holding a replica of `block`.
    #[inline]
    fn replica_way(&self, set: usize, block: BlockAddr) -> Option<usize> {
        let base = set * self.assoc;
        (0..self.assoc).find(|&w| {
            let sl = base + w;
            self.valid[sl] && self.is_replica[sl] && self.addr[sl] == block
        })
    }

    /// First invalid way of `set` (free space).
    #[inline]
    fn invalid_way(&self, set: usize) -> Option<usize> {
        let base = set * self.assoc;
        (0..self.assoc).find(|&w| !self.valid[base + w])
    }
}

/// The footprint of the strikes a [`DataL1`] has taken, while
/// [followed](DataL1::follow_footprint): the stored words that may differ
/// from a fault-free run's.
#[derive(Debug, Clone)]
struct Footprint {
    /// Per slot, bit `i` set when word `i` may hold struck bits or a copy
    /// of them, in its data, its check bits or its oracle shadow.
    tainted: Vec<u64>,
    /// Slots with a nonzero mask.
    slots: usize,
    /// A strike has reached the dL1's words.
    struck: bool,
    /// A tainted line was copied out of the dL1, where the footprint is
    /// not followed.
    escaped: bool,
}

// One mask bit per word of a block.
const _: () = assert!(MAX_BLOCK_BYTES / 8 <= 64);

impl Footprint {
    fn set(&mut self, slot: usize, mask: u64) {
        let old = std::mem::replace(&mut self.tainted[slot], mask);
        self.slots = self.slots + usize::from(mask != 0) - usize::from(old != 0);
    }
}

/// Read-only view of a line, for tests, fault injection and inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineView {
    /// The block's address.
    pub addr: BlockAddr,
    /// Dirty (modified since fill).
    pub dirty: bool,
    /// Replica (vs primary copy).
    pub is_replica: bool,
    /// Protection code currently on the line's words.
    pub protection: Protection,
}

/// Full export of one valid line for lockstep auditing: every observable
/// field, including the decay counter *as this implementation computes
/// it* at the export cycle — a reference model recomputing the counter
/// from `last_access` can then catch any drift between the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineExport {
    /// Set index.
    pub set: usize,
    /// Way index.
    pub way: usize,
    /// The block's address.
    pub addr: BlockAddr,
    /// Dirty (modified since fill).
    pub dirty: bool,
    /// Replica (vs primary copy).
    pub is_replica: bool,
    /// Protection code currently on the line's words.
    pub protection: Protection,
    /// Cycle of the line's last access.
    pub last_access: u64,
    /// The 2-bit decay counter at the export cycle (0–3).
    pub counter: u8,
    /// Deadness at the export cycle.
    pub dead: bool,
}

/// The ICR data L1.
///
/// The cache is purely reactive: [`DataL1::load`] and [`DataL1::store`]
/// take the current cycle and the [`MemoryBackend`] below, and return the
/// access latency. All replication, recovery and bookkeeping happen inside.
///
/// ```
/// use icr_core::{DataL1, DataL1Config, Scheme};
/// use icr_mem::{Addr, HierarchyConfig, MemoryBackend};
///
/// let mut backend = MemoryBackend::new(&HierarchyConfig::default());
/// let mut dl1 = DataL1::new(DataL1Config::paper_default(Scheme::ICR_P_PS_S));
/// // A store miss allocates, writes, and tries to replicate the block.
/// let lat = dl1.store(Addr(0x1000_0000), 0, &mut backend);
/// assert_eq!(lat, 1); // stores are buffered: 1 cycle
/// assert!(dl1.stats().replication_attempts > 0);
/// ```
#[derive(Debug, Clone)]
pub struct DataL1 {
    config: DataL1Config,
    lines: LineArrays,
    write_buffer: Option<WriteBuffer>,
    duplication: Option<DuplicationCache>,
    stats: IcrStats,
    /// Round-robin position of the background scrubber.
    scrub_cursor: usize,
    /// Reusable scratch for replica-victim selection (one set's worth of
    /// candidates and an eligibility mask), so the per-store victim scan
    /// never allocates.
    victim_scratch: Vec<CandidateLine>,
    mask_scratch: Vec<bool>,
    /// Cycle at which the load port is free again. A non-speculative
    /// SEC-DED check occupies the port for 2 cycles (the paper's §1
    /// bandwidth argument: ECC "may find it difficult to sustain" one
    /// access per cycle), so back-to-back ECC loads queue. Parity checks
    /// are single-cycle and fully pipelined. Buffered stores bypass the
    /// load port.
    port_free_at: u64,
    /// Analytic vulnerability accounting: per-line protection-state
    /// residency and per-word consumed (ACE) windows, driven inline
    /// from every fill/store/replicate/evict/scrub transition.
    exposure: ExposureLedger,
    /// Blocks whose replica currently lives in the backend's L2 replica
    /// region (SpillToL2 tier only) — a mirror of the region's occupancy
    /// so the hot path never walks the region to answer "is spilled?".
    spilled: std::collections::HashSet<BlockAddr>,
    /// First exposure-ledger slot of the region's lines, once the ledger
    /// has been lazily extended by the first spill. Region slot `i` maps
    /// to ledger line `spill_base + i`.
    spill_base: Option<usize>,
    /// The strikes' footprint; `None` unless
    /// [`follow_footprint`](DataL1::follow_footprint) turned it on.
    footprint: Option<Footprint>,
}

impl DataL1 {
    /// Builds an empty dL1.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DataL1Config::validate`].
    pub fn new(config: DataL1Config) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid dL1 config: {e}"));
        let g = config.geometry;
        let lines = LineArrays::new(g, config.oracle);
        let write_buffer = match config.write_policy {
            WritePolicy::WriteBack => None,
            WritePolicy::WriteThrough { buffer_entries } => {
                // Drain rate is one entry per L2 latency; the paper's L2 is
                // 6 cycles.
                Some(WriteBuffer::new(buffer_entries, 6))
            }
        };
        let duplication = config
            .duplication_cache
            .map(|blocks| DuplicationCache::new(blocks, g.words_per_block()));
        DataL1 {
            config,
            lines,
            write_buffer,
            duplication,
            stats: IcrStats::default(),
            scrub_cursor: 0,
            victim_scratch: Vec::new(),
            mask_scratch: Vec::new(),
            port_free_at: 0,
            exposure: ExposureLedger::new(g.num_sets() * g.associativity(), g.words_per_block()),
            spilled: std::collections::HashSet::new(),
            spill_base: None,
            footprint: None,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &DataL1Config {
        &self.config
    }

    /// The cache shape.
    pub fn geometry(&self) -> CacheGeometry {
        self.config.geometry
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &IcrStats {
        &self.stats
    }

    /// Write-buffer statistics (write-through mode only).
    pub fn write_buffer(&self) -> Option<&WriteBuffer> {
        self.write_buffer.as_ref()
    }

    /// The attached Kim–Somani duplication cache, if configured.
    pub fn duplication_cache(&self) -> Option<&DuplicationCache> {
        self.duplication.as_ref()
    }

    // ------------------------------------------------------------------
    // Vulnerability-window accounting (icr-vuln)
    // ------------------------------------------------------------------

    /// The exposure ledger accumulating per-state residency and per-word
    /// consumed windows for this cache.
    pub fn exposure(&self) -> &ExposureLedger {
        &self.exposure
    }

    /// A snapshot of the accumulated exposure windows extended to `now`
    /// (typically the end-of-run cycle count).
    pub fn exposure_windows(&self, now: u64) -> ExposureWindows {
        self.exposure.windows(now)
    }

    /// Selects the fault-arrival model the weighted exposure windows
    /// integrate against (see [`Arrival`]). Must be called before any
    /// access has been issued.
    pub fn set_exposure_arrival(&mut self, arrival: Arrival) {
        self.exposure.set_arrival(arrival);
    }

    /// The [`ProtState`] the line at (`set`, `way`) currently sits in,
    /// or `None` for an invalid line. This is the public window the
    /// fault injector's importance proposal reads to tilt its site draw
    /// toward dirty unreplicated parity lines — the high-ACE residency
    /// the exposure ledger charges as unrecoverable.
    pub fn line_exposure_state(&self, set: usize, way: usize) -> Option<ProtState> {
        if !self.lines.valid[self.lines.slot(set, way)] {
            return None;
        }
        Some(self.exposure_state(set, way))
    }

    /// `true` when the line at (`set`, `way`) is a valid dirty *primary*
    /// line under parity protection — the only residency a single-bit
    /// strike can turn into data loss. Clean parity lines refetch from
    /// L2, SEC-DED lines correct, and replica lines never hold the sole
    /// copy; a dirty parity primary is loss-prone even while a replica
    /// exists, because the replica may be evicted, spilled out, or
    /// bypassed (laundering) before the corrupted word is consumed.
    /// This is the site predicate behind the fault injector's
    /// importance proposal.
    pub fn line_loss_prone(&self, set: usize, way: usize) -> bool {
        let sl = self.lines.slot(set, way);
        self.lines.valid[sl]
            && !self.lines.is_replica[sl]
            && self.lines.prot[sl] != Protection::SecDed
            && self.lines.dirty[sl]
    }

    /// The cycle at which the line at (`set`, `way`) was last accessed
    /// (`0` for never-touched slots). Exported for fault-site
    /// diagnostics.
    pub fn line_last_access(&self, set: usize, way: usize) -> u64 {
        self.lines.last_access[self.lines.slot(set, way)]
    }

    /// `true` when the line at (`set`, `way`) is a valid parity-protected
    /// primary holding one of `blocks` (aligned block addresses). The
    /// fault injector's site proposal uses this with the workload's
    /// store working set: such lines are the ones a clean-line strike
    /// can *launder* through — a later store dirties the line and
    /// replication re-encodes the corrupted word under clean parity —
    /// so they are strike-worthy even while clean.
    pub fn line_in_working_set(
        &self,
        set: usize,
        way: usize,
        blocks: &std::collections::HashSet<u64>,
    ) -> bool {
        let sl = self.lines.slot(set, way);
        self.lines.valid[sl]
            && !self.lines.is_replica[sl]
            && self.lines.prot[sl] != Protection::SecDed
            && blocks.contains(&self.lines.addr[sl].raw())
    }

    /// The [`ProtState`] the valid line at (`set`, `way`) is in.
    fn exposure_state(&self, set: usize, way: usize) -> ProtState {
        let sl = self.lines.slot(set, way);
        debug_assert!(self.lines.valid[sl], "exposure_state of an invalid line");
        if self.lines.is_replica[sl] {
            ProtState::Replica
        } else if self.lines.prot[sl] == Protection::SecDed {
            ProtState::Ecc
        } else if self.has_replica(self.lines.addr[sl]) || self.is_spilled(self.lines.addr[sl]) {
            ProtState::Replicated
        } else if self.lines.dirty[sl] {
            ProtState::DirtyParity
        } else {
            ProtState::CleanParity
        }
    }

    /// Re-synchronizes the ledger after a dirty/protection/replication
    /// change on the (valid) line at (`set`, `way`).
    fn sync_exposure(&mut self, set: usize, way: usize, now: u64) {
        let slot = self.lines.slot(set, way);
        if self.lines.valid[slot] {
            let state = self.exposure_state(set, way);
            self.exposure.set_state(slot, state, now);
        }
    }

    // ------------------------------------------------------------------
    // Lookup helpers
    // ------------------------------------------------------------------

    fn find_primary(&self, block: BlockAddr) -> Option<(usize, usize)> {
        let s = self.config.geometry.set_index(block).0;
        self.lines.primary_way(s, block).map(|w| (s, w))
    }

    /// The replica of `block` in the placement's `attempt`-th candidate
    /// set, if any. A set holds at most one replica of a block
    /// (replication skips sets that already hold one), so walking
    /// `attempt` over the placement's attempts visits every replica, in
    /// candidate-set order, without collecting them. Callers index by
    /// attempt rather than iterate so they can mutate the cache between
    /// visits.
    #[inline]
    fn replica_in(&self, block: BlockAddr, attempt: usize) -> Option<(usize, usize)> {
        let g = self.config.geometry;
        let set = self
            .config
            .placement
            .candidate_set(g, g.set_index(block), attempt)
            .0;
        self.lines.replica_way(set, block).map(|w| (set, w))
    }

    /// Number of candidate sets (placement attempts) a replica walk visits.
    fn replica_attempts(&self) -> usize {
        self.config.placement.attempts.len()
    }

    /// All replica locations of `block`, in candidate-set order.
    #[cfg(test)]
    fn find_replicas(&self, block: BlockAddr) -> Vec<(usize, usize)> {
        (0..self.replica_attempts())
            .filter_map(|a| self.replica_in(block, a))
            .collect()
    }

    /// The first replica location of `block` in candidate-set order. This
    /// is the copy the parallel-lookup (`PP`) load path reads on every
    /// replicated hit.
    fn first_replica(&self, block: BlockAddr) -> Option<(usize, usize)> {
        (0..self.replica_attempts()).find_map(|a| self.replica_in(block, a))
    }

    /// `true` when `block` currently has at least one replica.
    pub fn has_replica(&self, block: BlockAddr) -> bool {
        // Replica lines exist only under replicating schemes, so the
        // candidate-set walk is skipped entirely for the Base* schemes.
        if !self.config.scheme.replicates() {
            return false;
        }
        self.first_replica(block).is_some()
    }

    /// `true` when `block`'s replica currently lives in the backend's L2
    /// replica region (only possible under a `SpillToL2`-tier scheme).
    pub fn is_spilled(&self, block: BlockAddr) -> bool {
        self.config.scheme.spills_to_l2() && self.spilled.contains(&block)
    }

    /// `true` when `block` has a resident primary copy.
    pub fn is_resident(&self, addr: Addr) -> bool {
        self.find_primary(self.config.geometry.block_addr(addr))
            .is_some()
    }

    /// Number of valid replica lines in the cache.
    pub fn replica_line_count(&self) -> usize {
        self.lines
            .valid
            .iter()
            .zip(&self.lines.is_replica)
            .filter(|&(&v, &r)| v && r)
            .count()
    }

    /// Number of valid primary lines in the cache.
    pub fn primary_line_count(&self) -> usize {
        self.lines
            .valid
            .iter()
            .zip(&self.lines.is_replica)
            .filter(|&(&v, &r)| v && !r)
            .count()
    }

    /// A view of the line at (`set`, `way`), if valid.
    pub fn line_view(&self, set: usize, way: usize) -> Option<LineView> {
        if set >= self.config.geometry.num_sets() || way >= self.lines.assoc {
            return None;
        }
        let sl = self.lines.slot(set, way);
        self.lines.valid[sl].then(|| LineView {
            addr: self.lines.addr[sl],
            dirty: self.lines.dirty[sl],
            is_replica: self.lines.is_replica[sl],
            protection: self.lines.prot[sl],
        })
    }

    /// Exports every valid line with its full observable state at cycle
    /// `now`: every set's [`export_set_lines`](DataL1::export_set_lines),
    /// in set order.
    pub fn export_lines(&self, now: u64) -> Vec<LineExport> {
        let mut out = Vec::new();
        for set in 0..self.config.geometry.num_sets() {
            self.export_set_lines(set, now, &mut out);
        }
        out
    }

    /// Exports the valid lines of one set at cycle `now`, appended to
    /// `out` — the per-set slice of [`export_lines`](DataL1::export_lines)
    /// the lockstep audit reads, one set at a time, for both its
    /// per-access diff and its full sweep. Decay counters come from
    /// [`DecayConfig::counter_at`], which saturates exactly when the
    /// victim scan's [`DecayConfig::dead_at`] holds.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn export_set_lines(&self, set: usize, now: u64, out: &mut Vec<LineExport>) {
        let assoc = self.lines.assoc;
        for way in 0..assoc {
            let sl = set * assoc + way;
            if !self.lines.valid[sl] {
                continue;
            }
            let counter = self
                .config
                .decay
                .counter_at(self.lines.last_access[sl], now);
            out.push(LineExport {
                set,
                way,
                addr: self.lines.addr[sl],
                dirty: self.lines.dirty[sl],
                is_replica: self.lines.is_replica[sl],
                protection: self.lines.prot[sl],
                last_access: self.lines.last_access[sl],
                counter,
                dead: counter == 3,
            });
        }
    }

    /// The recency order of `set`'s ways, most-recently-used first —
    /// exported for lockstep auditing of victim selection.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn lru_order(&self, set: usize) -> &[usize] {
        self.lines.lru.mru_to_lru(set)
    }

    /// Number of data words currently *vulnerable* to a single-bit
    /// strike: words in dirty, parity-protected primary lines that have
    /// no replica (and no duplication-cache copy). A fault there is
    /// detected but unrecoverable — the paper's §3.1 worst case. SEC-DED
    /// lines contribute nothing (single-bit strikes are corrected),
    /// replicated lines contribute nothing (the replica heals them),
    /// clean lines contribute nothing (L2 refetch).
    ///
    /// **Snapshot-only semantics:** this is a point-in-time count; it
    /// says nothing about how *long* words stay vulnerable. For
    /// residency-weighted exposure (cycle-integrated, the AVF-style
    /// measure), use [`DataL1::exposure_windows`] — e.g.
    /// `exposure_windows(now).avg_words_in(ProtState::DirtyParity)` is
    /// the exact time average of this count for caches without a
    /// duplication cache.
    pub fn vulnerable_word_count(&self) -> usize {
        let words = self.config.geometry.words_per_block();
        let mut count = 0;
        for sl in 0..self.lines.valid.len() {
            if !self.lines.valid[sl] || self.lines.is_replica[sl] || !self.lines.dirty[sl] {
                continue;
            }
            if self.lines.prot[sl] == Protection::SecDed {
                continue;
            }
            if self.has_replica(self.lines.addr[sl]) || self.is_spilled(self.lines.addr[sl]) {
                continue;
            }
            if let Some(dup) = &self.duplication {
                if dup.contains(self.lines.addr[sl]) {
                    continue;
                }
            }
            count += words;
        }
        count
    }

    /// Locations of all valid lines, as (set, way) pairs — the fault
    /// injector's sample space.
    pub fn valid_lines(&self) -> Vec<(usize, usize)> {
        let assoc = self.lines.assoc;
        (0..self.lines.valid.len())
            .filter(|&sl| self.lines.valid[sl])
            .map(|sl| (sl / assoc, sl % assoc))
            .collect()
    }

    /// Flips a data bit in a stored word (transient-fault injection).
    /// Returns `false` if the line is invalid.
    pub fn flip_data_bit(&mut self, set: usize, way: usize, word: usize, bit: u32) -> bool {
        let sl = self.lines.slot(set, way);
        if !self.lines.valid[sl] {
            return false;
        }
        self.lines.word_mut(sl, word).flip_data_bit(bit);
        self.strike(sl, word);
        true
    }

    /// Flips a check bit in a stored word (fault in the redundancy bits).
    /// Returns `false` if the line is invalid.
    pub fn flip_check_bit(&mut self, set: usize, way: usize, word: usize, bit: u32) -> bool {
        let sl = self.lines.slot(set, way);
        if !self.lines.valid[sl] {
            return false;
        }
        self.lines.word_mut(sl, word).flip_check_bit(bit);
        self.strike(sl, word);
        true
    }

    // ------------------------------------------------------------------
    // The fault footprint
    // ------------------------------------------------------------------

    /// Starts following the footprint of the strikes
    /// [`flip_data_bit`](Self::flip_data_bit) and
    /// [`flip_check_bit`](Self::flip_check_bit) deliver from now on: the
    /// struck words plus every dL1 copy made from them. A strike taints
    /// its word; a new line takes the taint of the line it is copied
    /// from (a replica from its primary, a primary filled from a
    /// surviving §5.6 replica), while data from L2, memory or the spill
    /// region is untainted. A word write clears that word, and a
    /// whole-line refill, a replica drop or a clean eviction clears the
    /// line. A tainted line copied out of the dL1 (a dirty write-back, a
    /// spill, a duplication-cache record or a write-through push) takes
    /// the footprint where it is not followed, and it never settles.
    /// Off by default, when the footprint costs a branch per line-state
    /// write.
    pub fn follow_footprint(&mut self) {
        self.footprint = Some(Footprint {
            tainted: vec![0; self.lines.valid.len()],
            slots: 0,
            struck: false,
            escaped: false,
        });
    }

    /// `true` while the footprint is followed, a strike has reached this
    /// dL1, every copy of the struck bits is gone, none ever left the
    /// dL1, and no integrity check has fired (`errors_detected` and
    /// `silent_corruptions` are 0). The cache's control flow depends on
    /// stored data only through checks that bump those counters, and
    /// invalid slots' words are never read, so this dL1 then holds what
    /// it would hold had the strikes never happened. A strike it never
    /// saw, on an L2 replica-region slot, leaves it unsettled.
    pub fn footprint_settled(&self) -> bool {
        self.footprint
            .as_ref()
            .is_some_and(|fp| fp.struck && fp.slots == 0 && !fp.escaped)
            && self.stats.errors_detected == 0
            && self.stats.silent_corruptions == 0
    }

    /// Adds word `word` of `slot` to the footprint, if followed.
    fn strike(&mut self, slot: usize, word: usize) {
        if let Some(fp) = &mut self.footprint {
            fp.struck = true;
            let mask = fp.tainted[slot] | 1 << word;
            fp.set(slot, mask);
        }
    }

    /// The footprint's words of `slot` (none while not followed).
    fn taint(&self, slot: usize) -> u64 {
        self.footprint.as_ref().map_or(0, |fp| fp.tainted[slot])
    }

    /// Sets the footprint's words of `slot` to `mask`, if followed.
    fn set_taint(&mut self, slot: usize, mask: u64) {
        if let Some(fp) = &mut self.footprint {
            fp.set(slot, mask);
        }
    }

    /// Notes that the line at `slot` is copied out of the dL1: a tainted
    /// copy takes the footprint where it is not followed.
    fn copy_out(&mut self, slot: usize) {
        if let Some(fp) = &mut self.footprint {
            fp.escaped |= fp.tainted[slot] != 0;
        }
    }

    /// The stored data of a word (for verification in tests).
    pub fn word_data(&self, set: usize, way: usize, word: usize) -> Option<u64> {
        let sl = self.lines.slot(set, way);
        self.lines.valid[sl].then(|| self.lines.word(sl, word).data())
    }

    // ------------------------------------------------------------------
    // Protection transitions
    // ------------------------------------------------------------------

    fn unreplicated_protection(&self) -> Protection {
        self.config.scheme.unreplicated_protection()
    }

    fn count_code_op(&mut self, protection: Protection) {
        match protection {
            Protection::Parity => self.stats.parity_ops += 1,
            Protection::SecDed => self.stats.ecc_ops += 1,
        }
    }

    /// Re-encodes a primary line under `protection` (on replication-status
    /// change). One code op is charged.
    ///
    /// The re-encode trusts the stored data bits, so any latent strike
    /// present now is sealed in place under clean check bits: the next
    /// load of such a word consumes wrong data undetected. The ledger
    /// marks an in-place laundering boundary on the open word windows
    /// ([`LaunderKind::InPlace`]). The ledger's state is re-synced even
    /// when the code is unchanged, because the caller's
    /// replication-status change alone moves the line between
    /// `Replicated` and the unreplicated states.
    fn reprotect_primary(&mut self, set: usize, way: usize, protection: Protection, now: u64) {
        let slot = self.lines.slot(set, way);
        if self.lines.prot[slot] != protection {
            self.exposure.launder_line(slot, now, LaunderKind::InPlace);
            for w in self.lines.words_mut(slot) {
                w.reprotect(protection);
            }
            self.lines.prot[slot] = protection;
            self.stats.l1_write_ops += 1;
            self.count_code_op(protection);
        }
        self.sync_exposure(set, way, now);
    }

    /// Reverts `block`'s resident primary, if any, to the unreplicated
    /// code once its last replica in *either* tier is gone.
    fn demote_if_unreplicated(&mut self, block: BlockAddr, now: u64) {
        if self.has_replica(block) || self.is_spilled(block) {
            return;
        }
        if let Some((ps, pw)) = self.find_primary(block) {
            let prot = self.unreplicated_protection();
            self.reprotect_primary(ps, pw, prot, now);
        }
    }

    // ------------------------------------------------------------------
    // Line-state writes: the only code that installs, drops or rewrites
    // a line. Each also updates the exposure ledger, charges the array
    // and code ops, and keeps the oracle shadow in step.
    // ------------------------------------------------------------------

    /// Installs a clean copy of `block` holding `data` in the free way
    /// (`set`, `way`): a replica, or else the primary. Replicas, and
    /// primaries whose block kept a copy in either tier (keep-replicas
    /// mode, or a spilled copy in the region), are parity-protected;
    /// other primaries take the unreplicated code. The line starts
    /// outside the footprint; a caller copying `data` from a dL1 line
    /// gives it that line's taint.
    fn install_line(
        &mut self,
        set: usize,
        way: usize,
        block: BlockAddr,
        replica: bool,
        data: &DataBlock,
        now: u64,
    ) {
        let protection = if replica || self.has_replica(block) || self.is_spilled(block) {
            Protection::Parity
        } else {
            self.unreplicated_protection()
        };
        let slot = self.lines.slot(set, way);
        self.lines.valid[slot] = true;
        self.lines.dirty[slot] = false;
        self.lines.is_replica[slot] = replica;
        self.lines.addr[slot] = block;
        self.lines.prot[slot] = protection;
        self.encode_line(slot, data);
        self.set_taint(slot, 0);
        self.touch_line(set, way, now);
        let state = self.exposure_state(set, way);
        self.exposure.begin_line(slot, state, now);
        if replica {
            self.stats.replicas_created += 1;
        } else {
            self.stats.cache.fills += 1;
            if self.config.oracle {
                let wpb = self.lines.words_per_block;
                self.lines.shadow[slot * wpb..][..wpb].copy_from_slice(data.words());
            }
        }
        self.stats.l1_write_ops += 1;
        self.count_code_op(protection);
    }

    /// Drops the replica line at `slot`.
    fn drop_replica(&mut self, slot: usize, now: u64) {
        debug_assert!(self.lines.is_replica[slot], "drop_replica of a primary");
        self.lines.valid[slot] = false;
        self.set_taint(slot, 0);
        self.exposure.end_line(slot, now);
        self.stats.replica_evictions += 1;
    }

    /// Marks the line at (`set`, `way`) as accessed at `now`: most
    /// recently used, and its decay counter restarted.
    fn touch_line(&mut self, set: usize, way: usize, now: u64) {
        let slot = self.lines.slot(set, way);
        self.lines.last_access[slot] = now;
        self.lines.lru.touch(set, way);
    }

    /// Encodes `data` into every word of `slot` under the line's code.
    fn encode_line(&mut self, slot: usize, data: &DataBlock) {
        let protection = self.lines.prot[slot];
        for (i, w) in self.lines.words_mut(slot).iter_mut().enumerate() {
            *w = ProtectedWord::encode(data.word(i), protection);
        }
    }

    /// Encodes `data` into every word of `slot` under the line's code
    /// and restarts the words' exposure windows, charging nothing: the
    /// bookkeeping half of [`refill_line`](Self::refill_line), used alone
    /// to bring a replica in line with its refilled primary.
    fn put_line(&mut self, slot: usize, data: &DataBlock, now: u64) {
        self.encode_line(slot, data);
        self.set_taint(slot, 0);
        self.exposure.refresh_line(slot, now);
    }

    /// Encodes `value` into word `word` of `slot` under the line's code
    /// and restarts that word's exposure window, charging nothing: the
    /// bookkeeping half of [`write_word`](Self::write_word), used alone
    /// where a lost word is sealed rather than written.
    fn put_word(&mut self, slot: usize, word: usize, value: u64, now: u64) {
        let protection = self.lines.prot[slot];
        *self.lines.word_mut(slot, word) = ProtectedWord::encode(value, protection);
        self.exposure.refresh_word(slot, word, now);
    }

    /// Writes `value` into word `word` of `slot` under the line's code:
    /// one array write and one code op.
    fn write_word(&mut self, slot: usize, word: usize, value: u64, now: u64) {
        self.put_word(slot, word, value, now);
        self.set_taint(slot, self.taint(slot) & !(1 << word));
        self.stats.l1_write_ops += 1;
        self.count_code_op(self.lines.prot[slot]);
    }

    /// A store's write of `value` into word `word` of the primary at
    /// (`set`, `way`): the word, the dirty bit (set under write-back
    /// only), recency, the line's exposure state and the oracle's truth.
    /// Returns the line's slot.
    fn store_word(&mut self, set: usize, way: usize, word: usize, value: u64, now: u64) -> usize {
        let slot = self.lines.slot(set, way);
        self.write_word(slot, word, value, now);
        self.lines.dirty[slot] = self.config.write_policy == WritePolicy::WriteBack;
        self.touch_line(set, way, now);
        self.sync_exposure(set, way, now);
        if self.config.oracle {
            *self.lines.shadow_mut(slot, word) = value;
        }
        slot
    }

    /// Counts the consumed word `word` of the primary at `slot` as lost
    /// and seals it as it stands: the corrupt value is re-encoded under
    /// the line's code so one fault is not re-counted on every later
    /// load (software has consumed bad data and moved on), and folded
    /// into the oracle shadow so it is not counted again as silent.
    /// Returns the lost value.
    fn acknowledge_loss(&mut self, slot: usize, word: usize, now: u64) -> u64 {
        self.stats.unrecoverable_loads += 1;
        let bad = self.lines.word(slot, word).data();
        self.put_word(slot, word, bad, now);
        if self.config.oracle {
            *self.lines.shadow_mut(slot, word) = bad;
        }
        bad
    }

    /// Refetches `block` from L2 into the clean primary at `slot` under
    /// the line's code, healing a failed check: one array write and one
    /// code op. Returns the data and the L2 latency.
    fn refill_line(
        &mut self,
        slot: usize,
        block: BlockAddr,
        now: u64,
        backend: &mut MemoryBackend,
    ) -> (DataBlock, u64) {
        let (data, l2_lat) = backend.read_block(block);
        self.put_line(slot, &data, now);
        self.stats.l1_write_ops += 1;
        self.count_code_op(self.lines.prot[slot]);
        self.stats.errors_recovered_l2 += 1;
        (data, l2_lat)
    }

    // ------------------------------------------------------------------
    // Eviction helpers
    // ------------------------------------------------------------------

    /// Evicts the line at (`set`, `way`) if valid: writes back dirty
    /// primaries, and handles that primary's replicas per config.
    fn evict_line(&mut self, set: usize, way: usize, now: u64, backend: &mut MemoryBackend) {
        let slot = self.lines.slot(set, way);
        if !self.lines.valid[slot] {
            return;
        }
        let addr = self.lines.addr[slot];
        if self.lines.is_replica[slot] {
            self.drop_replica(slot, now);
            self.demote_if_unreplicated(addr, now);
            return;
        }
        self.lines.valid[slot] = false;
        self.exposure.end_line(slot, now);
        self.stats.cache.evictions += 1;
        if self.lines.dirty[slot] {
            self.stats.writebacks += 1;
            self.stats.cache.writebacks += 1;
            self.copy_out(slot);
            backend.write_block(addr, self.lines.plain_data(slot));
            // The writeback makes any spilled replica stale — the
            // spill protocol invalidates it rather than updating it
            // (the region is not on the writeback path).
            if self.is_spilled(addr) {
                self.drop_spill(addr, now, backend);
            }
        }
        self.set_taint(slot, 0);
        if !self.config.keep_replicas_on_evict {
            for attempt in 0..self.replica_attempts() {
                if let Some((rs, rw)) = self.replica_in(addr, attempt) {
                    self.drop_replica(self.lines.slot(rs, rw), now);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Fill and replication
    // ------------------------------------------------------------------

    /// Installs a primary copy of `block`, evicting by plain LRU.
    /// Returns (set, way).
    fn fill_primary(
        &mut self,
        block: BlockAddr,
        data: &DataBlock,
        now: u64,
        backend: &mut MemoryBackend,
    ) -> (usize, usize) {
        debug_assert!(self.find_primary(block).is_none(), "double fill of {block}");
        let s = self.config.geometry.set_index(block).0;
        let way = match self.lines.invalid_way(s) {
            Some(w) => w,
            None => self.lines.lru.victim(s),
        };
        self.evict_line(s, way, now, backend);
        self.install_line(s, way, block, false, data, now);
        (s, way)
    }

    /// Fills `block` on a load miss, with the footprint `taint` of its
    /// source, and, under an `LS` trigger, tries to replicate it.
    fn fill_on_miss(
        &mut self,
        block: BlockAddr,
        data: &DataBlock,
        taint: u64,
        now: u64,
        backend: &mut MemoryBackend,
    ) {
        let (s, w) = self.fill_primary(block, data, now, backend);
        self.set_taint(self.lines.slot(s, w), taint);
        if self
            .config
            .scheme
            .trigger()
            .is_some_and(|t| t.on_load_miss())
        {
            self.attempt_replication(block, now, backend);
        }
    }

    /// Selects a victim way for a replica in `set`, or `None` when the
    /// policy finds no eligible line. Never selects a copy of `block`
    /// itself.
    fn choose_replica_victim(&mut self, set: usize, block: BlockAddr, now: u64) -> Option<usize> {
        if let Some(w) = self.lines.invalid_way(set) {
            return Some(w);
        }
        let base = set * self.lines.assoc;
        let decay = self.config.decay;
        let mut candidates = std::mem::take(&mut self.victim_scratch);
        let mut mask = std::mem::take(&mut self.mask_scratch);
        candidates.clear();
        for w in 0..self.lines.assoc {
            let sl = base + w;
            candidates.push(CandidateLine {
                valid: self.lines.valid[sl],
                is_replica: self.lines.is_replica[sl],
                is_dead: decay.dead_at(self.lines.last_access[sl], now),
                excluded: self.lines.addr[sl] == block,
            });
        }
        let mut chosen = None;
        for pass in self.config.victim.passes() {
            mask.clear();
            mask.extend(candidates.iter().map(pass));
            if let Some(w) = self.lines.lru.victim_among(set, &mask) {
                chosen = Some(w);
                break;
            }
        }
        self.victim_scratch = candidates;
        self.mask_scratch = mask;
        chosen
    }

    // ------------------------------------------------------------------
    // The L2 spill tier (SpillToL2 placement)
    // ------------------------------------------------------------------

    /// Attaches the backend's replica region to the exposure ledger on
    /// first use, returning the ledger slot of region slot 0.
    fn ensure_spill_ledger(&mut self, backend: &MemoryBackend) -> usize {
        if let Some(base) = self.spill_base {
            return base;
        }
        let base = self.exposure.add_lines(backend.replica_region().capacity());
        self.spill_base = Some(base);
        base
    }

    /// Spills a parity-protected copy of `block`'s primary (at `ps`,
    /// `pw`) into the backend's L2 replica region. Returns `false` when
    /// the region has no capacity configured.
    fn spill_replica(
        &mut self,
        block: BlockAddr,
        ps: usize,
        pw: usize,
        now: u64,
        backend: &mut MemoryBackend,
    ) -> bool {
        if backend.replica_region().capacity() == 0 {
            return false;
        }
        let base = self.ensure_spill_ledger(backend);
        let pslot = self.lines.slot(ps, pw);
        self.copy_out(pslot);
        let data = self.lines.plain_data(pslot);
        let ins = backend.replica_region_mut().insert(block, data.words());
        if let Some((eblock, eslot)) = ins.evicted {
            self.spilled.remove(&eblock);
            self.exposure.end_line(base + eslot, now);
            self.stats.spill_evictions += 1;
            self.demote_if_unreplicated(eblock, now);
        }
        self.spilled.insert(block);
        self.exposure
            .begin_line(base + ins.slot, ProtState::Replica, now);
        self.stats.spills_created += 1;
        self.stats.parity_ops += 1;
        true
    }

    /// Invalidates `block`'s spilled replica, if any, and demotes its
    /// primary back to the unreplicated code when no dL1 replica remains.
    fn drop_spill(&mut self, block: BlockAddr, now: u64, backend: &mut MemoryBackend) {
        let Some(rslot) = backend.replica_region_mut().invalidate(block) else {
            return;
        };
        self.spilled.remove(&block);
        if let Some(base) = self.spill_base {
            self.exposure.end_line(base + rslot, now);
        }
        self.stats.spill_invalidations += 1;
        self.demote_if_unreplicated(block, now);
    }

    /// The region slot of the spilled `block`, and the ledger line that
    /// tracks it.
    fn spill_slot(&self, block: BlockAddr, backend: &MemoryBackend) -> (usize, usize) {
        let slot = backend
            .replica_region()
            .slot_of(block)
            .expect("spilled set mirrors region occupancy");
        let base = self.spill_base.expect("spilled implies ledger attached");
        (slot, base + slot)
    }

    /// Attempts to bring `block` up to the configured replica count.
    ///
    /// Every triggering event (store, or load miss under `LS`) counts as
    /// one *replication attempt*; it succeeds only if a **new** replica is
    /// created at this event. An event whose block is already fully
    /// replicated therefore counts as a failure — "one is able to
    /// replicate a cache line" (§4.1) describes the act of creating a
    /// copy, which is also why the paper's ability numbers stay low while
    /// its loads-with-replica numbers are high (§5.2: "even if
    /// opportunities for replication may not be very high, the chances of
    /// finding a replica when needed may be extremely good").
    fn attempt_replication(&mut self, block: BlockAddr, now: u64, backend: &mut MemoryBackend) {
        let Some((ps, pw)) = self.find_primary(block) else {
            return;
        };
        let g = self.config.geometry;
        let home = g.set_index(block);
        let n_attempts = self.replica_attempts();
        // Software hints can deny replication or demand more copies; the
        // attempt list still bounds how many placements can be tried.
        let max = self
            .config
            .hints
            .replica_target(block.raw(), self.config.placement.max_replicas)
            .min(n_attempts);
        if max == 0 {
            return; // software opted this range out: no attempt is made
        }

        let mut count = (0..n_attempts)
            .filter(|&a| self.replica_in(block, a).is_some())
            .count();
        let had_none = count == 0;
        let count_before = count;
        let spills = self.config.scheme.spills_to_l2();
        let was_spilled = spills && self.spilled.contains(&block);
        for attempt in 0..n_attempts {
            if count >= max {
                break;
            }
            let target = self.config.placement.candidate_set(g, home, attempt);
            // One replica per set: skip sets that already hold one.
            if self.lines.replica_way(target.0, block).is_some() {
                continue;
            }
            if let Some(way) = self.choose_replica_victim(target.0, block, now) {
                self.evict_line(target.0, way, now, backend);
                let pslot = self.lines.slot(ps, pw);
                let (data, taint) = (self.lines.plain_data(pslot), self.taint(pslot));
                self.install_line(target.0, way, block, true, &data, now);
                self.set_taint(self.lines.slot(target.0, way), taint);
                count += 1;
            }
        }
        let created_now = count - count_before;
        // Tier exclusivity: a block holds replicas in at most one tier.
        // Gaining a dL1 replica promotes a previously spilled block out
        // of the region; failing to place any dL1 replica under a spill
        // scheme demotes the copy into the L2 region instead (unless one
        // is already there).
        if spills && created_now > 0 && was_spilled {
            self.drop_spill(block, now, backend);
        }
        let spilled_now =
            spills && count == 0 && !was_spilled && self.spill_replica(block, ps, pw, now, backend);
        // A block that just gained its first replica switches to parity.
        // Its stored data was trusted when *copied* into the replica: a
        // latent strike is still detected at the next load (the primary
        // keeps its stale check bits) but recovery returns the laundered
        // copy — mark a copy-laundering boundary on the primary's open
        // word windows. For ECC-unreplicated schemes the reprotect that
        // follows re-encodes in place and upgrades the mark.
        if had_none && !was_spilled && (count > 0 || spilled_now) {
            let pslot = self.lines.slot(ps, pw);
            self.exposure.launder_line(pslot, now, LaunderKind::Copy);
            self.reprotect_primary(ps, pw, Protection::Parity, now);
        }
        self.stats.replication_attempts += 1;
        if created_now >= 1 || spilled_now {
            self.stats.replication_with_one += 1;
            if count >= 2 {
                self.stats.replication_with_two += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Error recovery
    // ------------------------------------------------------------------

    /// Handles a failed word check on the primary at (`set`, `way`).
    /// Returns the extra latency incurred.
    fn recover_load_error(
        &mut self,
        set: usize,
        way: usize,
        word: usize,
        block: BlockAddr,
        now: u64,
        backend: &mut MemoryBackend,
    ) -> u64 {
        let slot = self.lines.slot(set, way);
        let sequential = self.config.scheme.lookup() == Some(ReplicaLookup::Sequential);
        // 1. Try the replicas.
        for attempt in 0..self.replica_attempts() {
            let Some((rs, rw)) = self.replica_in(block, attempt) else {
                continue;
            };
            // Sequential lookup pays an extra read now; parallel lookup
            // already read the replica.
            if sequential {
                self.stats.l1_read_ops += 1;
                self.stats.parity_ops += 1;
            }
            let mut replica_word = *self.lines.word(self.lines.slot(rs, rw), word);
            if replica_word.check_and_correct().data_is_good() {
                self.write_word(slot, word, replica_word.data(), now);
                self.stats.errors_recovered_replica += 1;
                return if sequential { 1 } else { 0 };
            }
        }
        // 2. A spilled replica in the L2 region (SpillToL2 tier): a
        // verified read-back at L2 latency. A corrupt region word drops
        // the spill and falls through the rest of the ladder.
        if self.is_spilled(block) {
            self.stats.parity_ops += 1;
            let (rslot, _) = self.spill_slot(block, backend);
            let mut spill_word = *backend.replica_region().word(rslot, word);
            if spill_word.check_and_correct().data_is_good() {
                self.write_word(slot, word, spill_word.data(), now);
                self.stats.errors_recovered_spill += 1;
                return backend.l2_latency();
            }
            self.drop_spill(block, now, backend);
        }
        // 3. A Kim–Somani duplication cache, when configured, is probed
        // next (one extra access, like a replica read).
        if let Some(dup) = &mut self.duplication {
            self.stats.l1_read_ops += 1;
            self.stats.parity_ops += 1;
            if let Some(value) = dup.recover(block, word) {
                self.write_word(slot, word, value, now);
                self.stats.errors_recovered_duplicate += 1;
                return 1;
            }
        }
        // 4. Clean blocks can be refetched from L2.
        if !self.lines.dirty[slot] {
            return self.refill_line(slot, block, now, backend).1;
        }
        // 5. Dirty + unreplicated + undetectable-by-correction: lost.
        self.acknowledge_loss(slot, word, now);
        0
    }

    /// Handles a PP-compare mismatch where both copies pass parity: with
    /// only two copies there is no majority, so a clean line refetches
    /// from L2 and a dirty one is lost (counted unrecoverable). Returns
    /// the extra latency.
    fn resolve_compare_mismatch(
        &mut self,
        set: usize,
        way: usize,
        word: usize,
        block: BlockAddr,
        now: u64,
        backend: &mut MemoryBackend,
    ) -> u64 {
        let slot = self.lines.slot(set, way);
        if !self.lines.dirty[slot] {
            let (data, l2_lat) = self.refill_line(slot, block, now, backend);
            // Refresh the replica from the restored primary too.
            for attempt in 0..self.replica_attempts() {
                if let Some((rs, rw)) = self.replica_in(block, attempt) {
                    self.put_line(self.lines.slot(rs, rw), &data, now);
                }
            }
            return l2_lat;
        }
        // Dirty and ambiguous: lost. Acknowledge by syncing the replica to
        // the primary so the mismatch is not re-detected forever. (The
        // primary passed its check, so sealing it rewrites the same bits.)
        let bad = self.acknowledge_loss(slot, word, now);
        for attempt in 0..self.replica_attempts() {
            if let Some((rs, rw)) = self.replica_in(block, attempt) {
                self.put_word(self.lines.slot(rs, rw), word, bad, now);
            }
        }
        0
    }

    // ------------------------------------------------------------------
    // Background scrubbing (extension; Saleh-style, the paper's [21])
    // ------------------------------------------------------------------

    /// Scrubs the next `lines` cache lines in round-robin order: every
    /// word is integrity-checked; single-bit SEC-DED errors are corrected
    /// in place, and uncorrectable errors on clean lines are healed by an
    /// L2 refetch. Returns `(words_checked, words_healed)`.
    ///
    /// Scrubbing bounds the window in which independent single-bit
    /// strikes can accumulate into an uncorrectable double-bit error —
    /// the classic memory-scrubbing argument (Saleh et al.), offered here
    /// as an extension experiment (`icr-exp scrub`).
    pub fn scrub_step(
        &mut self,
        lines: usize,
        now: u64,
        backend: &mut MemoryBackend,
    ) -> (u64, u64) {
        let g = self.config.geometry;
        let total = g.num_sets() * g.associativity();
        let words = g.words_per_block();
        let mut checked = 0;
        let mut healed = 0;
        for _ in 0..lines.min(total) {
            let pos = self.scrub_cursor;
            self.scrub_cursor = (self.scrub_cursor + 1) % total;
            // The scrub cursor walks flat slots in order: `pos` IS the slot.
            let slot = pos;
            if !self.lines.valid[slot] {
                continue;
            }
            self.stats.l1_read_ops += 1;
            let scrub_is_replica = self.lines.is_replica[slot];
            let scrub_dirty = self.lines.dirty[slot];
            for word in 0..words {
                checked += 1;
                let protection = self.lines.prot[slot];
                self.count_code_op(protection);
                // Exposure: the scrubber observes this word. A strike in
                // the open window would be corrected (SEC-DED), healed
                // from L2 (clean primary — scrub refetches rather than
                // consulting replicas), or dropped with the replica
                // (masked). Dirty parity primaries stay open: scrub
                // cannot heal them, so the next load still decides.
                if scrub_is_replica {
                    self.exposure.refresh_word(slot, word, now);
                } else if protection == Protection::SecDed {
                    self.exposure
                        .consume_word(slot, word, VulnClass::ByEcc, now);
                } else if !scrub_dirty {
                    self.exposure
                        .consume_word(slot, word, VulnClass::ByRefetch, now);
                }
                match self.lines.word_mut(slot, word).check_and_correct() {
                    CheckOutcome::Clean => {}
                    CheckOutcome::CorrectedSingle => {
                        self.stats.errors_detected += 1;
                        self.stats.errors_corrected_ecc += 1;
                        self.stats.scrub_heals += 1;
                        healed += 1;
                    }
                    CheckOutcome::DetectedUncorrectable => {
                        self.stats.errors_detected += 1;
                        let block = self.lines.addr[slot];
                        if !scrub_is_replica && !scrub_dirty {
                            self.refill_line(slot, block, now, backend);
                            self.stats.scrub_heals += 1;
                            healed += 1;
                        } else if scrub_is_replica {
                            // A corrupt replica is simply dropped; the
                            // primary is the copy of record.
                            self.drop_replica(slot, now);
                            self.demote_if_unreplicated(block, now);
                            self.stats.scrub_heals += 1;
                            healed += 1;
                            break; // line gone; stop scanning its words
                        }
                        // Dirty unreplicated lines cannot be healed here;
                        // the error stays until a load trips on it.
                    }
                }
            }
        }
        self.stats.scrub_checks += checked;
        (checked, healed)
    }

    // ------------------------------------------------------------------
    // The two access operations
    // ------------------------------------------------------------------

    /// Performs a load of the word at `addr` at cycle `now`. Returns the
    /// load-to-use latency in cycles.
    pub fn load(&mut self, addr: Addr, now: u64, backend: &mut MemoryBackend) -> u64 {
        let g = self.config.geometry;
        let block = g.block_addr(addr);
        let word = g.word_index(addr);
        self.stats.cache.read_accesses += 1;
        self.stats.l1_read_ops += 1;
        // Load-port queueing: a pending ECC check delays this access.
        let port_wait = self.port_free_at.saturating_sub(now);

        if let Some((s, w)) = self.find_primary(block) {
            self.stats.cache.read_hits += 1;
            let has_replica = self.has_replica(block);
            let spilled = self.is_spilled(block);
            if has_replica || spilled {
                self.stats.read_hits_with_replica += 1;
            }
            let slot = self.lines.slot(s, w);
            self.touch_line(s, w, now);
            // The check performed on the accessed word: it consumes the
            // word's open exposure window. A strike anywhere in it would
            // resolve via the recovery ladder available right now.
            let line_protection = self.lines.prot[slot];
            self.count_code_op(line_protection);
            // The class a consumed strike resolves to: the first rung of
            // the recovery ladder available right now (SEC-DED corrects
            // in place; then replica, duplication cache and clean-block
            // L2 refetch; a dirty unreplicated parity line is lost). The
            // replica probe above is reused rather than repeated.
            let class = if line_protection == Protection::SecDed {
                VulnClass::ByEcc
            } else if has_replica || spilled {
                VulnClass::ByReplica
            } else if !self.lines.dirty[slot]
                || self.duplication.as_ref().is_some_and(|d| d.contains(block))
            {
                VulnClass::ByRefetch
            } else {
                VulnClass::Unrecoverable
            };
            self.exposure.consume_word(slot, word, class, now);
            let parallel = self.config.scheme.lookup() == Some(ReplicaLookup::Parallel);
            // Parallel lookup reads the replica on every access. A
            // spilled-only copy sits behind the L2 latency wall, so the
            // PP compare covers dL1-resident replicas only.
            let replica_slot = if has_replica && parallel {
                self.stats.l1_read_ops += 1;
                self.stats.parity_ops += 1;
                // The compare observes the replica word too. A strike on
                // it trips the compare, and with only two copies the
                // line refetches when clean and is lost when dirty.
                let (rs, rw) = self.first_replica(block).unwrap();
                let rclass = if self.lines.dirty[slot] {
                    VulnClass::Unrecoverable
                } else {
                    VulnClass::ByRefetch
                };
                let rslot = self.lines.slot(rs, rw);
                self.exposure.consume_word(rslot, word, rclass, now);
                Some(rslot)
            } else {
                None
            };
            // A spilled-only block is parity-protected but has no dL1
            // replica to read in parallel: its fault-free hit is the
            // plain 1-cycle parity check regardless of lookup mode.
            let base = if has_replica {
                self.config.scheme.load_hit_latency(true)
            } else if spilled {
                1
            } else {
                self.config.scheme.load_hit_latency(false)
            };
            let mut error_handled = false;
            let lat = match self.lines.word_mut(slot, word).check_and_correct() {
                CheckOutcome::Clean => {
                    // The PP schemes read the replica in parallel and
                    // *compare*: a mismatch is detected even when every
                    // parity check passes — the NMR-style extra coverage
                    // the paper alludes to ("possibly achieve even higher
                    // reliability than ECC in certain error situations").
                    if let Some(rslot) = replica_slot {
                        if self.lines.word(rslot, word).data() != self.lines.word(slot, word).data()
                        {
                            self.stats.errors_detected += 1;
                            self.stats.errors_caught_by_compare += 1;
                            error_handled = true;
                            base + self.resolve_compare_mismatch(s, w, word, block, now, backend)
                        } else {
                            base
                        }
                    } else {
                        base
                    }
                }
                CheckOutcome::CorrectedSingle => {
                    self.stats.errors_detected += 1;
                    self.stats.errors_corrected_ecc += 1;
                    error_handled = true;
                    base
                }
                CheckOutcome::DetectedUncorrectable => {
                    self.stats.errors_detected += 1;
                    error_handled = true;
                    base + self.recover_load_error(s, w, word, block, now, backend)
                }
            };
            // Oracle: a load that passed every check but returns data
            // different from the architectural truth is silent corruption.
            if self.config.oracle && !error_handled {
                let got = self.lines.word(slot, word).data();
                let truth = self.lines.shadow_mut(slot, word);
                if *truth != got {
                    self.stats.silent_corruptions += 1;
                    // Count each consumed corruption once.
                    *truth = got;
                }
            }
            self.port_free_at = now + port_wait + self.check_occupancy(line_protection);
            lat + port_wait
        } else {
            // Miss. In §5.6 mode a surviving replica can serve it.
            if self.config.keep_replicas_on_evict {
                if let Some((rs, rw)) = self.first_replica(block) {
                    self.stats.misses_served_by_replica += 1;
                    self.stats.l1_read_ops += 1;
                    self.stats.parity_ops += 1;
                    // The replica was just useful: refresh its recency so
                    // it keeps playing victim-cache for this block.
                    self.touch_line(rs, rw, now);
                    let rslot = self.lines.slot(rs, rw);
                    let (data, taint) = (self.lines.plain_data(rslot), self.taint(rslot));
                    // The replica's stored bits are trusted into the new
                    // primary (and the oracle's shadow), so its open word
                    // windows end here unconsumed.
                    self.exposure.refresh_line(rslot, now);
                    self.fill_on_miss(block, &data, taint, now, backend);
                    // One extra cycle instead of the L2 trip.
                    self.port_free_at = now + port_wait + 1;
                    return self.config.scheme.load_hit_latency(true) + 1 + port_wait;
                }
            }
            // A spilled replica can serve the miss at L2 latency: every
            // word is parity-verified on the way back. Any bad word drops
            // the stale copy and the miss refetches normally.
            if self.is_spilled(block) {
                let (rslot, line) = self.spill_slot(block, backend);
                let wpb = g.words_per_block();
                let mut data = DataBlock::zeroed(wpb);
                let mut verified = 0;
                for i in 0..wpb {
                    self.stats.parity_ops += 1;
                    // The read-back observes each region word: a strike
                    // in its open window is detected here and healed by
                    // falling through to the normal L2 refetch.
                    self.exposure
                        .consume_word(line, i, VulnClass::ByRefetch, now);
                    let mut w = *backend.replica_region().word(rslot, i);
                    if w.check_and_correct().data_is_good() {
                        data.set_word(i, w.data());
                        verified += 1;
                    } else {
                        self.stats.errors_detected += 1;
                        break;
                    }
                }
                if verified == wpb {
                    self.stats.misses_served_by_spill += 1;
                    self.fill_on_miss(block, &data, 0, now, backend);
                    self.port_free_at = now + port_wait + 1;
                    return 1 + backend.l2_latency() + port_wait;
                }
                self.drop_spill(block, now, backend);
            }
            let (data, l2_lat) = backend.read_block(block);
            self.fill_on_miss(block, &data, 0, now, backend);
            let occ = self.check_occupancy(self.unreplicated_protection());
            self.port_free_at = now + port_wait + occ;
            self.config.scheme.load_hit_latency(false) + l2_lat + port_wait
        }
    }

    /// How long a load's integrity check holds the load port: parity fits
    /// in the pipelined access (1 cycle); a foreground SEC-DED check
    /// occupies it for 2 (the paper's bandwidth argument for why ECC is
    /// hard to sustain at one access per cycle). Speculative ECC checks
    /// run in the background and release the port immediately.
    fn check_occupancy(&self, protection: Protection) -> u64 {
        match protection {
            Protection::SecDed if self.config.scheme.speculative() => 1,
            Protection::SecDed => 2,
            Protection::Parity => 1,
        }
    }

    /// Performs a store to the word at `addr` at cycle `now`. Returns the
    /// cycles the store occupies at commit (1 unless a full write-through
    /// buffer stalls it).
    pub fn store(&mut self, addr: Addr, now: u64, backend: &mut MemoryBackend) -> u64 {
        let g = self.config.geometry;
        let block = g.block_addr(addr);
        let word = g.word_index(addr);
        self.stats.cache.write_accesses += 1;
        // The stored value: arbitrary but deterministic, so integrity
        // checks operate on real changing data.
        let value = icr_mem::splitmix64(addr.raw() ^ now.rotate_left(17));
        let write_through = matches!(self.config.write_policy, WritePolicy::WriteThrough { .. });

        let hit = self.find_primary(block);
        // Where the primary sits after the match below — the one tag scan
        // covers the later replica-update gate and write-through read.
        // Nothing in between can displace it: replication never
        // victimises a copy of the block being replicated.
        let resident = match hit {
            Some(at) => {
                self.stats.cache.write_hits += 1;
                Some(at)
            }
            // Write-allocate: fetch and fill, then write.
            None if !write_through => {
                let (data, _lat) = backend.read_block(block);
                Some(self.fill_primary(block, &data, now, backend))
            }
            // Write-through, no-write-allocate: the word goes straight
            // down; nothing is installed.
            None => None,
        };
        if let Some((s, w)) = resident {
            let slot = self.store_word(s, w, word, value, now);
            let mut recorded = false;
            if let Some(dup) = &mut self.duplication {
                // A hit updates a held duplicate in place; a fill, or a
                // hit with no duplicate, records the whole block.
                if hit.is_none() || !dup.update_word(block, word, value) {
                    dup.record(block, self.lines.plain_data(slot).words());
                    recorded = true;
                }
            }
            if recorded {
                self.copy_out(slot);
                self.stats.l1_write_ops += 1;
                self.stats.parity_ops += 1;
            }
        }

        // Keep every replica coherent with the store.
        if self.config.scheme.replicates() && resident.is_some() {
            for attempt in 0..self.replica_attempts() {
                if let Some((rs, rw)) = self.replica_in(block, attempt) {
                    self.write_word(self.lines.slot(rs, rw), word, value, now);
                    self.touch_line(rs, rw, now);
                    self.stats.replica_updates += 1;
                }
            }
            // A spilled copy is kept coherent in place the same way.
            if self.is_spilled(block) {
                let (rslot, line) = self.spill_slot(block, backend);
                backend.replica_region_mut().update_word(
                    rslot,
                    word,
                    ProtectedWord::encode(value, Protection::Parity),
                );
                self.exposure.refresh_word(line, word, now);
                self.stats.spill_updates += 1;
                self.stats.parity_ops += 1;
            }
            // Stores always trigger a replication attempt.
            self.attempt_replication(block, now, backend);
        } else if self.is_spilled(block) {
            // Write-through no-allocate miss: the word goes straight to
            // L2, making any spilled copy stale — drop it.
            self.drop_spill(block, now, backend);
        }

        // Write-through: propagate functionally, time through the buffer.
        let mut stall = 0;
        if write_through {
            let data = match resident {
                Some((s, w)) => {
                    let slot = self.lines.slot(s, w);
                    self.copy_out(slot);
                    self.lines.plain_data(slot)
                }
                None => {
                    // No-allocate miss: merge the word into the L2 copy.
                    let mut d = backend.golden_block(block);
                    d.set_word(word, value);
                    d
                }
            };
            backend.write_block(block, data);
            if let Some(wb) = &mut self.write_buffer {
                stall = wb.push(now, block);
            }
        }
        1 + stall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icr_mem::{HierarchyConfig, SetIndex};

    fn backend() -> MemoryBackend {
        MemoryBackend::new(&HierarchyConfig::default())
    }

    fn addr_for_set(g: CacheGeometry, set: usize, tag: u64) -> Addr {
        Addr(g.block_addr_from_parts(tag, SetIndex(set)).raw())
    }

    #[test]
    fn basep_load_hit_is_one_cycle() {
        let mut b = backend();
        let mut c = DataL1::new(DataL1Config::paper_default(Scheme::BASE_P));
        let a = Addr(0x1000_0000);
        let miss_lat = c.load(a, 0, &mut b);
        assert_eq!(miss_lat, 1 + 106, "cold miss goes to memory");
        assert_eq!(c.load(a, 1, &mut b), 1);
        assert_eq!(c.stats().cache.read_hits, 1);
    }

    #[test]
    fn baseecc_load_hit_is_two_cycles() {
        let mut b = backend();
        let mut c = DataL1::new(DataL1Config::paper_default(Scheme::BASE_ECC));
        let a = Addr(0x1000_0000);
        c.load(a, 0, &mut b);
        // Well after the port drained: the pure hit cost is 2 cycles.
        assert_eq!(c.load(a, 10, &mut b), 2);
        // Back-to-back ECC loads queue on the port (+1 cycle).
        assert_eq!(c.load(a, 11, &mut b), 3);
        let mut spec = DataL1::new(DataL1Config::paper_default(Scheme::BASE_ECC_SPEC));
        spec.load(a, 0, &mut b);
        assert_eq!(spec.load(a, 10, &mut b), 1);
        // Speculative checks release the port immediately: no queueing.
        assert_eq!(spec.load(a, 11, &mut b), 1);
    }

    #[test]
    fn store_creates_replica_at_distance_n_over_2() {
        let mut b = backend();
        let cfg = DataL1Config::aggressive(Scheme::ICR_P_PS_S);
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        let a = addr_for_set(g, 3, 5);
        assert_eq!(c.store(a, 0, &mut b), 1);
        let block = g.block_addr(a);
        assert!(c.has_replica(block), "store must replicate into empty set");
        let reps = c.find_replicas(block);
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].0, 3 + 32, "replica lives at distance N/2");
        assert_eq!(c.stats().replicas_created, 1);
        assert_eq!(c.stats().replication_attempts, 1);
        assert_eq!(c.stats().replication_with_one, 1);
    }

    #[test]
    fn base_schemes_never_replicate() {
        let mut b = backend();
        for scheme in [Scheme::BASE_P, Scheme::BASE_ECC] {
            let mut c = DataL1::new(DataL1Config::paper_default(scheme));
            for i in 0..100u64 {
                c.store(Addr(0x1000_0000 + i * 64), i, &mut b);
            }
            assert_eq!(c.replica_line_count(), 0, "{}", scheme.name());
            assert_eq!(c.stats().replication_attempts, 0);
        }
    }

    #[test]
    fn ls_scheme_replicates_on_load_miss_too() {
        let mut b = backend();
        let cfg = DataL1Config::aggressive(Scheme::ICR_P_PS_LS);
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        let a = addr_for_set(g, 7, 9);
        c.load(a, 0, &mut b);
        assert!(c.has_replica(g.block_addr(a)), "LS replicates at load miss");

        // The S variant does not.
        let cfg_s = DataL1Config::aggressive(Scheme::ICR_P_PS_S);
        let mut c_s = DataL1::new(cfg_s);
        c_s.load(a, 0, &mut b);
        assert!(!c_s.has_replica(g.block_addr(a)));
    }

    #[test]
    fn loads_with_replica_counts_read_hits_on_replicated_blocks() {
        let mut b = backend();
        let cfg = DataL1Config::aggressive(Scheme::ICR_P_PS_S);
        let mut c = DataL1::new(cfg);
        let a = Addr(0x1000_0000);
        c.store(a, 0, &mut b); // allocates + replicates
        c.load(a, 1, &mut b); // hit with replica
        assert_eq!(c.stats().read_hits_with_replica, 1);
        assert!((c.stats().loads_with_replica() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn store_updates_replica_in_place() {
        let mut b = backend();
        let cfg = DataL1Config::aggressive(Scheme::ICR_P_PS_S);
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        let a = Addr(0x1000_0000);
        c.store(a, 0, &mut b);
        let created = c.stats().replicas_created;
        c.store(a, 1, &mut b);
        assert_eq!(c.stats().replicas_created, created, "no second replica");
        assert!(c.stats().replica_updates >= 1);
        // Replica data matches the primary word after the update.
        let block = g.block_addr(a);
        let (ps, pw) = c.find_primary(block).unwrap();
        let (rs, rw) = c.find_replicas(block)[0];
        let wi = g.word_index(a);
        assert_eq!(
            c.word_data(ps, pw, wi),
            c.word_data(rs, rw, wi),
            "replica coherent with primary"
        );
    }

    #[test]
    fn icr_ecc_switches_primary_to_parity_when_replicated() {
        let mut b = backend();
        let cfg = DataL1Config::aggressive(Scheme::ICR_ECC_PS_S);
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        let a = Addr(0x1000_0000);
        // A load miss fills the line as unreplicated: ECC, 2-cycle loads.
        c.load(a, 0, &mut b);
        let block = g.block_addr(a);
        let (s, w) = c.find_primary(block).unwrap();
        assert_eq!(c.line_view(s, w).unwrap().protection, Protection::SecDed);
        assert_eq!(c.load(a, 10, &mut b), 2);
        // After a store replicates it, the primary is parity: 1-cycle loads.
        c.store(a, 20, &mut b);
        assert!(c.has_replica(block));
        let (s, w) = c.find_primary(block).unwrap();
        assert_eq!(c.line_view(s, w).unwrap().protection, Protection::Parity);
        assert_eq!(c.load(a, 30, &mut b), 1);
    }

    #[test]
    fn pp_lookup_costs_two_cycles_and_reads_replica() {
        let mut b = backend();
        let cfg = DataL1Config::aggressive(Scheme::ICR_P_PP_S);
        let mut c = DataL1::new(cfg);
        let a = Addr(0x1000_0000);
        c.store(a, 0, &mut b);
        let reads_before = c.stats().l1_read_ops;
        assert_eq!(c.load(a, 1, &mut b), 2, "parallel compare takes 2 cycles");
        assert_eq!(
            c.stats().l1_read_ops - reads_before,
            2,
            "primary + replica both read"
        );
    }

    #[test]
    fn dead_only_never_evicts_live_primaries_for_replicas() {
        let mut b = backend();
        // Relaxed decay: primaries stay live for 1000 cycles.
        let mut cfg = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
        cfg.victim = VictimPolicy::DeadOnly;
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        // Fill the target set (home 0 + N/2 = set 32) with live primaries.
        for t in 0..4u64 {
            c.load(addr_for_set(g, 32, t), 0, &mut b);
        }
        assert_eq!(c.primary_line_count(), 4);
        // A store to set 0 wants a replica in set 32, but everything there
        // is live: the attempt must fail ("do nothing" fallback).
        c.store(addr_for_set(g, 0, 9), 1, &mut b);
        assert!(!c.has_replica(g.block_addr(addr_for_set(g, 0, 9))));
        assert_eq!(c.stats().replication_attempts, 1);
        assert_eq!(c.stats().replication_with_one, 0);
        assert_eq!(c.primary_line_count(), 5, "no primary was displaced");
    }

    #[test]
    fn dead_first_falls_back_to_evicting_replicas() {
        let mut b = backend();
        let mut cfg = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
        cfg.victim = VictimPolicy::DeadFirst;
        cfg.decay = DecayConfig { window: 1_000_000 }; // nothing dies
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        // Stores in set 0 replicate into set 32 until its 4 ways hold
        // 4 replicas (of 4 different blocks).
        for t in 0..4u64 {
            c.store(addr_for_set(g, 0, t), t, &mut b);
        }
        assert_eq!(c.replica_line_count(), 4);
        // A fifth store: no invalid or dead ways remain in set 32, so a
        // replica of another block is displaced.
        c.store(addr_for_set(g, 0, 9), 5, &mut b);
        assert!(c.has_replica(g.block_addr(addr_for_set(g, 0, 9))));
        assert_eq!(c.replica_line_count(), 4, "one replaced another");
        assert!(c.stats().replica_evictions >= 1);
    }

    #[test]
    fn primary_eviction_drops_replicas_by_default() {
        let mut b = backend();
        let cfg = DataL1Config::aggressive(Scheme::ICR_P_PS_S);
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        let victim_addr = addr_for_set(g, 0, 0);
        c.store(victim_addr, 0, &mut b);
        assert!(c.has_replica(g.block_addr(victim_addr)));
        // Four more loads into set 0 evict the primary (4-way set; LRU).
        for t in 1..=4u64 {
            c.load(addr_for_set(g, 0, t), t, &mut b);
        }
        assert!(c.find_primary(g.block_addr(victim_addr)).is_none());
        assert!(
            !c.has_replica(g.block_addr(victim_addr)),
            "replica dropped with its primary"
        );
    }

    /// Fills `set` with 4 live primaries so DeadOnly victim selection
    /// can never place a replica there.
    fn pin_set_live(c: &mut DataL1, b: &mut MemoryBackend, g: CacheGeometry, set: usize) {
        for t in 10..14u64 {
            c.load(addr_for_set(g, set, t), 0, b);
        }
    }

    #[test]
    fn spill_scheme_spills_when_no_dead_block_hosts_the_replica() {
        let mut b = backend();
        let mut cfg = DataL1Config::paper_default(Scheme::ICR_P_PS_S_L2);
        cfg.victim = VictimPolicy::DeadOnly;
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        pin_set_live(&mut c, &mut b, g, 35);
        let a = addr_for_set(g, 3, 5);
        c.store(a, 1, &mut b);
        let block = g.block_addr(a);
        assert!(!c.has_replica(block), "no dL1 dead block was available");
        assert!(c.is_spilled(block), "replica spilled into the L2 region");
        assert_eq!(c.stats().spills_created, 1);
        assert_eq!(
            c.stats().replication_with_one,
            1,
            "a spill counts as one replica"
        );
        assert_eq!(b.replica_region().len(), 1);
        // The dL1-only preset never touches the region.
        let mut cfg2 = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
        cfg2.victim = VictimPolicy::DeadOnly;
        let mut c2 = DataL1::new(cfg2);
        let mut b2 = backend();
        pin_set_live(&mut c2, &mut b2, g, 35);
        c2.store(a, 1, &mut b2);
        assert_eq!(c2.stats().spills_created, 0);
        assert!(b2.replica_region().is_empty());
    }

    #[test]
    fn spilled_replica_recovers_a_dirty_load_error_at_l2_latency() {
        let mut b = backend();
        let mut cfg = DataL1Config::paper_default(Scheme::ICR_P_PS_S_L2);
        cfg.victim = VictimPolicy::DeadOnly;
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        pin_set_live(&mut c, &mut b, g, 35);
        let a = addr_for_set(g, 3, 5);
        c.store(a, 1, &mut b);
        let block = g.block_addr(a);
        assert!(c.is_spilled(block));
        let (ps, pw) = c.find_primary(block).unwrap();
        let wi = g.word_index(a);
        let good = c.word_data(ps, pw, wi).unwrap();
        assert!(c.flip_data_bit(ps, pw, wi, 7));
        // Parity detects; the spilled copy heals the word at L2 latency.
        assert_eq!(c.load(a, 100, &mut b), 1 + 6);
        assert_eq!(c.stats().errors_detected, 1);
        assert_eq!(c.stats().errors_recovered_spill, 1);
        assert_eq!(c.stats().unrecoverable_loads, 0);
        assert_eq!(c.word_data(ps, pw, wi), Some(good), "word healed in place");
        // Without the spill tier the same dirty fault is unrecoverable.
        let mut b2 = backend();
        let mut cfg2 = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
        cfg2.victim = VictimPolicy::DeadOnly;
        let mut c2 = DataL1::new(cfg2);
        pin_set_live(&mut c2, &mut b2, g, 35);
        c2.store(a, 1, &mut b2);
        let (ps2, pw2) = c2.find_primary(block).unwrap();
        assert!(c2.flip_data_bit(ps2, pw2, wi, 7));
        c2.load(a, 100, &mut b2);
        assert_eq!(c2.stats().unrecoverable_loads, 1);
    }

    #[test]
    fn dirty_writeback_invalidates_the_spilled_copy() {
        let mut b = backend();
        let mut cfg = DataL1Config::paper_default(Scheme::ICR_P_PS_S_L2);
        cfg.victim = VictimPolicy::DeadOnly;
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        pin_set_live(&mut c, &mut b, g, 35);
        let a = addr_for_set(g, 3, 5);
        c.store(a, 1, &mut b);
        let block = g.block_addr(a);
        assert!(c.is_spilled(block));
        // Four conflicting loads evict the dirty primary: the writeback
        // makes the spilled copy stale, so it is dropped, not kept.
        for t in 20..24u64 {
            c.load(addr_for_set(g, 3, t), 2, &mut b);
        }
        assert!(c.find_primary(block).is_none());
        assert!(!c.is_spilled(block));
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().spill_invalidations, 1);
        assert_eq!(b.replica_region().slot_of(block), None);
    }

    #[test]
    fn clean_eviction_keeps_the_spill_and_serves_the_next_miss() {
        let mut b = backend();
        let mut cfg = DataL1Config::paper_default(Scheme::ICR_P_PS_LS_L2);
        cfg.victim = VictimPolicy::DeadOnly;
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        pin_set_live(&mut c, &mut b, g, 35);
        let a = addr_for_set(g, 3, 5);
        // LS: the load miss itself triggers replication, which spills —
        // leaving a *clean* spilled primary.
        c.load(a, 1, &mut b);
        let block = g.block_addr(a);
        assert!(c.is_spilled(block));
        for t in 20..24u64 {
            c.load(addr_for_set(g, 3, t), 2, &mut b);
        }
        assert!(c.find_primary(block).is_none());
        assert!(c.is_spilled(block), "clean eviction keeps the region copy");
        // The next miss is served by verified read-back at L2 latency
        // instead of the full refetch.
        let miss_before = c.stats().misses_served_by_spill;
        assert_eq!(c.load(a, 5000, &mut b), 1 + 6);
        assert_eq!(c.stats().misses_served_by_spill, miss_before + 1);
    }

    #[test]
    fn creating_a_dl1_replica_promotes_the_block_out_of_the_region() {
        let mut b = backend();
        let mut cfg = DataL1Config::paper_default(Scheme::ICR_P_PS_S_L2);
        cfg.victim = VictimPolicy::DeadOnly;
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        pin_set_live(&mut c, &mut b, g, 35);
        let a = addr_for_set(g, 3, 5);
        c.store(a, 1, &mut b);
        let block = g.block_addr(a);
        assert!(c.is_spilled(block) && !c.has_replica(block));
        // 5000 cycles later the pinned lines have decayed: the next store
        // places a real dL1 replica and drops the spilled copy.
        c.store(a, 5000, &mut b);
        assert!(c.has_replica(block), "replica promoted into a dead block");
        assert!(!c.is_spilled(block));
        assert_eq!(c.stats().spill_invalidations, 1);
        assert!(b.replica_region().is_empty());
    }

    #[test]
    fn region_capacity_eviction_demotes_the_displaced_primary() {
        let mut hier = HierarchyConfig::default();
        hier.l2_replica_blocks = 1;
        let mut b = MemoryBackend::new(&hier);
        let mut cfg = DataL1Config::paper_default(Scheme::ICR_ECC_PS_S_L2);
        cfg.victim = VictimPolicy::DeadOnly;
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        pin_set_live(&mut c, &mut b, g, 35);
        pin_set_live(&mut c, &mut b, g, 36);
        let a1 = addr_for_set(g, 3, 5);
        let a2 = addr_for_set(g, 4, 6);
        c.store(a1, 1, &mut b);
        let b1 = g.block_addr(a1);
        assert!(c.is_spilled(b1));
        let (s1, w1) = c.find_primary(b1).unwrap();
        assert_eq!(c.line_view(s1, w1).unwrap().protection, Protection::Parity);
        // The second spill displaces the first at region capacity 1: the
        // displaced block loses its only replica and reverts to SEC-DED.
        c.store(a2, 2, &mut b);
        assert!(c.is_spilled(g.block_addr(a2)));
        assert!(!c.is_spilled(b1));
        assert_eq!(c.stats().spill_evictions, 1);
        assert_eq!(c.line_view(s1, w1).unwrap().protection, Protection::SecDed);
    }

    #[test]
    fn store_keeps_the_spilled_copy_coherent() {
        let mut b = backend();
        let mut cfg = DataL1Config::paper_default(Scheme::ICR_P_PS_S_L2);
        cfg.victim = VictimPolicy::DeadOnly;
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        pin_set_live(&mut c, &mut b, g, 35);
        let a = addr_for_set(g, 3, 5);
        c.store(a, 1, &mut b);
        let block = g.block_addr(a);
        c.store(a, 2, &mut b);
        assert_eq!(c.stats().spill_updates, 1);
        let (ps, pw) = c.find_primary(block).unwrap();
        let wi = g.word_index(a);
        let slot = b.replica_region().slot_of(block).unwrap();
        assert_eq!(
            b.replica_region().word(slot, wi).data(),
            c.word_data(ps, pw, wi).unwrap(),
            "spilled copy coherent with the primary after the second store"
        );
    }

    #[test]
    fn keep_replicas_mode_serves_miss_from_replica() {
        let mut b = backend();
        let mut cfg = DataL1Config::aggressive(Scheme::ICR_P_PS_S);
        cfg.keep_replicas_on_evict = true;
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        let victim_addr = addr_for_set(g, 0, 0);
        c.store(victim_addr, 0, &mut b);
        for t in 1..=4u64 {
            c.load(addr_for_set(g, 0, t), t, &mut b);
        }
        let block = g.block_addr(victim_addr);
        assert!(c.find_primary(block).is_none(), "primary evicted");
        assert!(c.has_replica(block), "replica survives");
        // The miss is served from the replica: 2 cycles, not an L2 trip.
        let lat = c.load(victim_addr, 10, &mut b);
        assert_eq!(lat, 2);
        assert_eq!(c.stats().misses_served_by_replica, 1);
        assert!(c.find_primary(block).is_some(), "re-promoted to primary");
    }

    #[test]
    fn parity_error_on_replicated_block_recovers_from_replica() {
        let mut b = backend();
        let cfg = DataL1Config::aggressive(Scheme::ICR_P_PS_S);
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        let a = Addr(0x1000_0000);
        c.store(a, 0, &mut b);
        let block = g.block_addr(a);
        let (ps, pw) = c.find_primary(block).unwrap();
        let wi = g.word_index(a);
        let good = c.word_data(ps, pw, wi).unwrap();
        c.flip_data_bit(ps, pw, wi, 13);
        // Sequential recovery: 1 (hit) + 1 (replica read) cycles.
        let lat = c.load(a, 1, &mut b);
        assert_eq!(lat, 2);
        assert_eq!(c.stats().errors_recovered_replica, 1);
        assert_eq!(c.stats().unrecoverable_loads, 0);
        assert_eq!(c.word_data(ps, pw, wi), Some(good), "data healed");
    }

    #[test]
    fn parity_error_on_clean_unreplicated_block_refetches_l2() {
        let mut b = backend();
        let cfg = DataL1Config::aggressive(Scheme::ICR_P_PS_S);
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        let a = Addr(0x1000_0000);
        c.load(a, 0, &mut b); // clean fill, no replica (S trigger)
        let block = g.block_addr(a);
        let (ps, pw) = c.find_primary(block).unwrap();
        let wi = g.word_index(a);
        let good = c.word_data(ps, pw, wi).unwrap();
        c.flip_data_bit(ps, pw, wi, 7);
        let lat = c.load(a, 1, &mut b);
        assert_eq!(lat, 1 + 6, "hit latency plus L2 refetch");
        assert_eq!(c.stats().errors_recovered_l2, 1);
        assert_eq!(c.word_data(ps, pw, wi), Some(good));
    }

    #[test]
    fn parity_error_on_dirty_unreplicated_block_is_unrecoverable() {
        let mut b = backend();
        // Make replication impossible: nothing is ever dead.
        let mut cfg = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
        cfg.decay = DecayConfig { window: u64::MAX };
        cfg.victim = VictimPolicy::DeadOnly;
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        // Fill the replica target set with live primaries first.
        for t in 0..4u64 {
            c.load(addr_for_set(g, 32, t), 0, &mut b);
        }
        let a = addr_for_set(g, 0, 1);
        c.store(a, 1, &mut b); // dirty, and replication failed
        let block = g.block_addr(a);
        assert!(!c.has_replica(block));
        let (ps, pw) = c.find_primary(block).unwrap();
        let wi = g.word_index(a);
        c.flip_data_bit(ps, pw, wi, 3);
        c.load(a, 2, &mut b);
        assert_eq!(c.stats().unrecoverable_loads, 1);
        // The error is counted once, not on every later load.
        c.load(a, 3, &mut b);
        assert_eq!(c.stats().unrecoverable_loads, 1);
    }

    #[test]
    fn ecc_corrects_single_bit_on_dirty_unreplicated_block() {
        let mut b = backend();
        let mut cfg = DataL1Config::paper_default(Scheme::BASE_ECC);
        cfg.decay = DecayConfig { window: u64::MAX };
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        let a = Addr(0x1000_0000);
        c.store(a, 0, &mut b);
        let block = g.block_addr(a);
        let (ps, pw) = c.find_primary(block).unwrap();
        let wi = g.word_index(a);
        let good = c.word_data(ps, pw, wi).unwrap();
        c.flip_data_bit(ps, pw, wi, 60);
        c.load(a, 1, &mut b);
        assert_eq!(c.stats().errors_corrected_ecc, 1);
        assert_eq!(c.stats().unrecoverable_loads, 0);
        assert_eq!(c.word_data(ps, pw, wi), Some(good));
    }

    #[test]
    fn write_through_keeps_lines_clean_and_pushes_to_l2() {
        let mut b = backend();
        let mut cfg = DataL1Config::paper_default(Scheme::BASE_P);
        cfg.write_policy = WritePolicy::WriteThrough { buffer_entries: 8 };
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        let a = Addr(0x1000_0000);
        c.load(a, 0, &mut b); // allocate via load
        c.store(a, 1, &mut b);
        let block = g.block_addr(a);
        let (s, w) = c.find_primary(block).unwrap();
        assert!(
            !c.line_view(s, w).unwrap().dirty,
            "write-through stays clean"
        );
        // The store reached L2: golden copy matches the stored word.
        let wi = g.word_index(a);
        assert_eq!(
            b.golden_block(block).word(wi),
            c.word_data(s, w, wi).unwrap()
        );
        assert_eq!(c.write_buffer().unwrap().pushes(), 1);
    }

    #[test]
    fn write_through_error_always_recoverable_from_l2() {
        let mut b = backend();
        let mut cfg = DataL1Config::paper_default(Scheme::BASE_P);
        cfg.write_policy = WritePolicy::WriteThrough { buffer_entries: 8 };
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        let a = Addr(0x1000_0000);
        c.load(a, 0, &mut b);
        c.store(a, 1, &mut b);
        let (s, w) = c.find_primary(g.block_addr(a)).unwrap();
        c.flip_data_bit(s, w, g.word_index(a), 9);
        c.load(a, 2, &mut b);
        assert_eq!(c.stats().errors_recovered_l2, 1);
        assert_eq!(c.stats().unrecoverable_loads, 0);
    }

    #[test]
    fn dirty_writeback_reaches_l2_with_stored_data() {
        let mut b = backend();
        let cfg = DataL1Config::paper_default(Scheme::BASE_P);
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        let a = addr_for_set(g, 0, 0);
        c.store(a, 0, &mut b);
        let block = g.block_addr(a);
        let (s, w) = c.find_primary(block).unwrap();
        let written = c.word_data(s, w, g.word_index(a)).unwrap();
        // Evict it with 4 conflicting loads.
        for t in 1..=4u64 {
            c.load(addr_for_set(g, 0, t), t, &mut b);
        }
        assert!(c.find_primary(block).is_none());
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(b.golden_block(block).word(g.word_index(a)), written);
    }

    #[test]
    fn two_replica_policy_creates_two_copies() {
        let mut b = backend();
        let mut cfg = DataL1Config::aggressive(Scheme::ICR_P_PS_S);
        cfg.placement = PlacementPolicy::two_replicas(cfg.geometry);
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        let a = addr_for_set(g, 0, 3);
        c.store(a, 0, &mut b);
        let block = g.block_addr(a);
        assert_eq!(c.find_replicas(block).len(), 2);
        assert_eq!(c.stats().replication_with_two, 1);
        let sets: Vec<usize> = c.find_replicas(block).iter().map(|&(s, _)| s).collect();
        assert!(sets.contains(&32) && sets.contains(&16), "N/2 and N/4");
    }

    #[test]
    fn horizontal_replication_stays_in_home_set() {
        let mut b = backend();
        let mut cfg = DataL1Config::aggressive(Scheme::ICR_P_PS_S);
        cfg.placement = PlacementPolicy::horizontal();
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        let a = addr_for_set(g, 5, 2);
        c.store(a, 0, &mut b);
        let reps = c.find_replicas(g.block_addr(a));
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].0, 5, "replica shares the home set");
        // And it did not displace the primary itself.
        assert!(c.find_primary(g.block_addr(a)).is_some());
    }

    #[test]
    fn replica_never_aliases_into_primary_lookup() {
        // A block whose home set is the replica set of another block must
        // not "hit" on the replica line (§3.1: the replica bit).
        let mut b = backend();
        let cfg = DataL1Config::aggressive(Scheme::ICR_P_PS_S);
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        let a = addr_for_set(g, 0, 7);
        c.store(a, 0, &mut b); // replica of `a` sits in set 32 with addr a
        let misses_before = c.stats().cache.misses();
        // Load a *different* block that maps to set 32.
        c.load(addr_for_set(g, 32, 7), 1, &mut b);
        assert_eq!(c.stats().cache.misses(), misses_before + 1);
    }

    #[test]
    fn hints_deny_blocks_replication() {
        let mut b = backend();
        let mut cfg = DataL1Config::aggressive(Scheme::ICR_P_PS_S);
        cfg.hints = crate::hints::ReplicationHints::new().deny(0x1000_0000..0x2000_0000);
        let mut c = DataL1::new(cfg);
        c.store(Addr(0x1000_0040), 0, &mut b);
        assert_eq!(c.replica_line_count(), 0, "denied range never replicates");
        assert_eq!(
            c.stats().replication_attempts,
            0,
            "software opt-out means no attempt was made"
        );
        // Outside the denied range, replication proceeds normally.
        c.store(Addr(0x3000_0040), 1, &mut b);
        assert_eq!(c.replica_line_count(), 1);
    }

    #[test]
    fn hints_can_demand_extra_replicas() {
        let mut b = backend();
        let mut cfg = DataL1Config::aggressive(Scheme::ICR_P_PS_S);
        // Hardware default is one replica, but placement offers two
        // candidate sets and software asks for two copies of this range.
        cfg.placement = PlacementPolicy {
            attempts: PlacementPolicy::two_replicas(cfg.geometry).attempts,
            max_replicas: 1,
        };
        cfg.hints = crate::hints::ReplicationHints::new().replicas(0x1000_0000..0x1000_1000, 2);
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        let hinted = Addr(0x1000_0040);
        c.store(hinted, 0, &mut b);
        assert_eq!(c.find_replicas(g.block_addr(hinted)).len(), 2);
        // An unhinted block gets the hardware default of one.
        let plain = Addr(0x3000_0040);
        c.store(plain, 1, &mut b);
        assert_eq!(c.find_replicas(g.block_addr(plain)).len(), 1);
    }

    #[test]
    fn duplication_cache_recovers_dirty_unreplicated_error() {
        let mut b = backend();
        // BaseP (no replicas) + a Kim-Somani duplicate store: the case
        // where plain parity would lose a dirty line.
        let mut cfg = DataL1Config::paper_default(Scheme::BASE_P);
        cfg.duplication_cache = Some(16);
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        let a = Addr(0x1000_0000);
        c.store(a, 0, &mut b); // dirty line + duplicate recorded
        let block = g.block_addr(a);
        let (ps, pw) = c.find_primary(block).unwrap();
        let wi = g.word_index(a);
        let good = c.word_data(ps, pw, wi).unwrap();
        c.flip_data_bit(ps, pw, wi, 21);
        let lat = c.load(a, 10, &mut b);
        assert_eq!(lat, 2, "hit + one duplicate probe");
        assert_eq!(c.stats().errors_recovered_duplicate, 1);
        assert_eq!(c.stats().unrecoverable_loads, 0);
        assert_eq!(c.word_data(ps, pw, wi), Some(good), "healed from duplicate");
        assert_eq!(c.duplication_cache().unwrap().hits(), 1);
    }

    #[test]
    fn duplication_cache_capacity_limits_coverage() {
        let mut b = backend();
        let mut cfg = DataL1Config::paper_default(Scheme::BASE_P);
        cfg.duplication_cache = Some(4);
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        // Write 8 distinct blocks; only the last 4 stay duplicated.
        for i in 0..8u64 {
            c.store(Addr(0x1000_0000 + i * 64), i, &mut b);
        }
        let old_block = g.block_addr(Addr(0x1000_0000));
        let (ps, pw) = c.find_primary(old_block).unwrap();
        c.flip_data_bit(ps, pw, 0, 2);
        c.load(Addr(0x1000_0000), 100, &mut b);
        assert_eq!(
            c.stats().unrecoverable_loads,
            1,
            "duplicate long evicted: dirty parity error is lost"
        );
    }

    #[test]
    fn scrub_heals_single_bit_errors_before_loads_see_them() {
        let mut b = backend();
        let mut c = DataL1::new(DataL1Config::paper_default(Scheme::BASE_ECC));
        let a = Addr(0x1000_0000);
        c.load(a, 0, &mut b);
        let g = c.geometry();
        let block = g.block_addr(a);
        let (ps, pw) = c.find_primary(block).unwrap();
        c.flip_data_bit(ps, pw, 3, 11);
        // A full sweep visits every line.
        let lines = g.num_sets() * g.associativity();
        let (checked, healed) = c.scrub_step(lines, 0, &mut b);
        assert!(checked > 0);
        assert_eq!(healed, 1);
        assert_eq!(c.stats().scrub_heals, 1);
        assert_eq!(c.stats().errors_corrected_ecc, 1);
        // The later load sees a clean word.
        let before = c.stats().errors_detected;
        c.load(Addr(block.raw() + 24), 100, &mut b);
        assert_eq!(c.stats().errors_detected, before);
    }

    #[test]
    fn scrub_refetches_clean_parity_lines_and_drops_bad_replicas() {
        let mut b = backend();
        let mut c = DataL1::new(DataL1Config::aggressive(Scheme::ICR_P_PS_S));
        let g = c.geometry();
        // A clean unreplicated line with a parity error: healed from L2.
        let a = Addr(0x1000_0000);
        c.load(a, 0, &mut b);
        let (ps, pw) = c.find_primary(g.block_addr(a)).unwrap();
        c.flip_data_bit(ps, pw, 2, 5);
        // A corrupted replica: dropped by the scrubber.
        let st = Addr(0x2000_0000);
        c.store(st, 1, &mut b);
        let reps = c.find_replicas(g.block_addr(st));
        let (rs, rw) = reps[0];
        c.flip_data_bit(rs, rw, 0, 9);
        let lines = g.num_sets() * g.associativity();
        let (_, healed) = c.scrub_step(lines, 0, &mut b);
        assert_eq!(healed, 2);
        assert_eq!(c.stats().errors_recovered_l2, 1);
        assert!(!c.has_replica(g.block_addr(st)), "bad replica dropped");
    }

    #[test]
    fn vulnerable_words_track_protection_and_replication() {
        let mut b = backend();
        // BaseP: a dirty line is fully exposed.
        let mut p = DataL1::new(DataL1Config::paper_default(Scheme::BASE_P));
        assert_eq!(p.vulnerable_word_count(), 0, "empty cache");
        p.load(Addr(0x1000_0000), 0, &mut b);
        assert_eq!(p.vulnerable_word_count(), 0, "clean lines are safe");
        p.store(Addr(0x1000_0040), 1, &mut b);
        assert_eq!(p.vulnerable_word_count(), 8, "one dirty parity line");

        // BaseECC: never exposed to single-bit loss.
        let mut e = DataL1::new(DataL1Config::paper_default(Scheme::BASE_ECC));
        e.store(Addr(0x1000_0040), 1, &mut b);
        assert_eq!(e.vulnerable_word_count(), 0);

        // ICR: the store's replica covers the dirty line.
        let mut i = DataL1::new(DataL1Config::aggressive(Scheme::ICR_P_PS_S));
        i.store(Addr(0x1000_0040), 1, &mut b);
        assert!(i.has_replica(i.geometry().block_addr(Addr(0x1000_0040))));
        assert_eq!(i.vulnerable_word_count(), 0);
    }

    #[test]
    fn pp_compare_catches_parity_aliased_corruption() {
        let mut b = backend();
        let cfg = DataL1Config::aggressive(Scheme::ICR_P_PP_S);
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        let a = Addr(0x1000_0000);
        c.load(a, 0, &mut b); // clean fill
        c.store(a, 1, &mut b); // replicate (dirty)
                               // Flush the dirt so recovery can use L2: evict + refill... instead
                               // test the clean case on a separate block replicated via LS.
        let cfg2 = DataL1Config::aggressive(Scheme::ICR_P_PP_LS);
        let mut c2 = DataL1::new(cfg2);
        c2.load(a, 0, &mut b); // LS replicates at load miss; line is clean
        let block = g.block_addr(a);
        assert!(c2.has_replica(block));
        let (ps, pw) = c2.find_primary(block).unwrap();
        let wi = g.word_index(a);
        let good = c2.word_data(ps, pw, wi).unwrap();
        // A same-byte double flip: invisible to parity...
        c2.flip_data_bit(ps, pw, wi, 8);
        c2.flip_data_bit(ps, pw, wi, 9);
        // ...but the parallel compare sees primary != replica.
        c2.load(a, 10, &mut b);
        assert_eq!(c2.stats().errors_caught_by_compare, 1);
        assert_eq!(c2.stats().errors_recovered_l2, 1);
        assert_eq!(c2.word_data(ps, pw, wi), Some(good), "healed from L2");
        // The sequential scheme would have consumed it silently.
        let _ = c;
    }

    #[test]
    fn oracle_counts_silent_corruption_under_ps() {
        let mut b = backend();
        let mut cfg = DataL1Config::aggressive(Scheme::ICR_P_PS_S);
        cfg.oracle = true;
        let g = cfg.geometry;
        let mut c = DataL1::new(cfg);
        let a = Addr(0x1000_0000);
        c.load(a, 0, &mut b);
        let block = g.block_addr(a);
        let (ps, pw) = c.find_primary(block).unwrap();
        let wi = g.word_index(a);
        // Same-byte double flip: parity stays clean, PS never compares.
        c.flip_data_bit(ps, pw, wi, 16);
        c.flip_data_bit(ps, pw, wi, 17);
        c.load(a, 10, &mut b);
        assert_eq!(c.stats().errors_detected, 0, "nothing detected");
        assert_eq!(c.stats().silent_corruptions, 1, "oracle saw it");
        // Counted once, not on every later load.
        c.load(a, 20, &mut b);
        assert_eq!(c.stats().silent_corruptions, 1);
    }

    #[test]
    fn oracle_is_quiet_on_healthy_runs() {
        let mut b = backend();
        let mut cfg = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
        cfg.oracle = true;
        let mut c = DataL1::new(cfg);
        for i in 0..2000u64 {
            let a = Addr(0x1000_0000 + (i % 96) * 64);
            if i % 3 == 0 {
                c.store(a, i * 2, &mut b);
            } else {
                c.load(a, i * 2, &mut b);
            }
        }
        assert_eq!(c.stats().silent_corruptions, 0, "no faults, no SDC");
    }

    #[test]
    fn validate_rejects_zero_entry_write_buffer() {
        let mut cfg = DataL1Config::paper_default(Scheme::BASE_P);
        cfg.write_policy = WritePolicy::WriteThrough { buffer_entries: 0 };
        assert!(cfg.validate().is_err());
    }

    /// The footprint rules of [`DataL1::follow_footprint`].
    mod footprint {
        use super::*;

        /// A dL1 of `scheme` (aggressive settings) following its footprint.
        fn followed(scheme: Scheme) -> DataL1 {
            let mut c = DataL1::new(DataL1Config::aggressive(scheme));
            c.follow_footprint();
            c
        }

        /// The slot of `addr`'s primary.
        fn primary_slot(c: &DataL1, addr: Addr) -> usize {
            let (s, w) = c.find_primary(c.geometry().block_addr(addr)).unwrap();
            c.lines.slot(s, w)
        }

        /// Four loads of other blocks of `addr`'s set, which evict its
        /// primary by LRU.
        fn evict_by_loads(c: &mut DataL1, b: &mut MemoryBackend, addr: Addr, now: u64) {
            let g = c.geometry();
            let set = g.set_index(g.block_addr(addr)).0;
            for t in 1..=4u64 {
                c.load(addr_for_set(g, set, 100 + t), now + t, b);
            }
            assert!(!c.is_resident(addr));
        }

        #[test]
        fn struck_words_overwritten_by_stores_settle() {
            let mut b = backend();
            let mut c = followed(Scheme::BASE_P);
            let a = Addr(0x1000_0000);
            c.store(a, 0, &mut b);
            assert!(!c.footprint_settled(), "nothing has struck yet");
            let (s, w) = c.find_primary(c.geometry().block_addr(a)).unwrap();
            c.flip_data_bit(s, w, 0, 5);
            c.flip_check_bit(s, w, 1, 0);
            c.store(a, 1, &mut b);
            assert!(
                !c.footprint_settled(),
                "word 1 still holds a struck check bit"
            );
            c.store(Addr(a.raw() + 8), 2, &mut b);
            assert!(c.footprint_settled(), "both struck words were overwritten");
            assert_eq!(c.stats().errors_detected, 0);
        }

        #[test]
        fn a_struck_clean_line_that_is_evicted_settles() {
            let mut b = backend();
            let mut c = followed(Scheme::BASE_P);
            let a = Addr(0x1000_0000);
            c.load(a, 0, &mut b);
            let (s, w) = c.find_primary(c.geometry().block_addr(a)).unwrap();
            c.flip_data_bit(s, w, 3, 9);
            assert!(!c.footprint_settled());
            evict_by_loads(&mut c, &mut b, a, 1);
            assert!(c.footprint_settled(), "the clean copy was dropped unread");
        }

        #[test]
        fn a_struck_dirty_line_that_is_evicted_never_settles() {
            let mut b = backend();
            let mut c = followed(Scheme::BASE_P);
            let a = Addr(0x1000_0000);
            c.store(a, 0, &mut b);
            let (s, w) = c.find_primary(c.geometry().block_addr(a)).unwrap();
            c.flip_data_bit(s, w, 3, 9);
            evict_by_loads(&mut c, &mut b, a, 1);
            assert!(
                !c.footprint_settled(),
                "the write-back took the strike to L2"
            );
            // The block comes back from L2, struck bit and all, into a line
            // the footprint no longer marks: the footprint stays escaped.
            c.load(a, 10, &mut b);
            c.store(Addr(a.raw() + 24), 11, &mut b);
            assert_eq!(c.taint(primary_slot(&c, a)), 0);
            assert!(!c.footprint_settled());
        }

        #[test]
        fn a_replica_copied_from_a_struck_primary_carries_the_taint() {
            let mut b = backend();
            let mut c = followed(Scheme::ICR_P_PS_S);
            let g = c.geometry();
            let a = Addr(0x1000_0000);
            c.load(a, 0, &mut b); // a clean fill: the S trigger does not replicate
            let pslot = primary_slot(&c, a);
            let (s, w) = (pslot / c.lines.assoc, pslot % c.lines.assoc);
            c.flip_data_bit(s, w, g.word_index(a), 2);
            // A store to another word replicates the block, struck word and all.
            c.store(Addr(a.raw() + 8), 1, &mut b);
            let (rs, rw) = c.find_replicas(g.block_addr(a))[0];
            assert_eq!(c.taint(c.lines.slot(rs, rw)), 1 << g.word_index(a));
            assert!(!c.footprint_settled());
            // A store to the struck word rewrites both copies.
            c.store(a, 2, &mut b);
            assert!(c.footprint_settled());
        }

        #[test]
        fn a_primary_filled_from_a_struck_replica_carries_the_taint() {
            let mut b = backend();
            let mut cfg = DataL1Config::aggressive(Scheme::ICR_P_PS_S);
            cfg.keep_replicas_on_evict = true;
            let g = cfg.geometry;
            let mut c = DataL1::new(cfg);
            c.follow_footprint();
            let a = addr_for_set(g, 0, 0);
            c.store(a, 0, &mut b);
            let (rs, rw) = c.find_replicas(g.block_addr(a))[0];
            let rslot = c.lines.slot(rs, rw);
            c.flip_data_bit(rs, rw, 5, 30);
            // The untainted dirty primary is written back; the replica stays.
            evict_by_loads(&mut c, &mut b, a, 1);
            assert_eq!(c.taint(rslot), 1 << 5);
            // The §5.6 miss fills the primary from the struck replica.
            assert_eq!(c.load(a, 10, &mut b), 2);
            assert_eq!(c.taint(primary_slot(&c, a)), 1 << 5);
            c.store(Addr(a.raw() + 40), 11, &mut b);
            assert!(c.footprint_settled(), "the store rewrote both copies");
        }

        #[test]
        fn a_loaded_struck_word_fires_a_check_and_never_settles() {
            let mut b = backend();
            let mut c = followed(Scheme::BASE_P);
            let a = Addr(0x1000_0000);
            c.load(a, 0, &mut b);
            let (s, w) = c.find_primary(c.geometry().block_addr(a)).unwrap();
            c.flip_data_bit(s, w, c.geometry().word_index(a), 1);
            c.load(a, 1, &mut b);
            assert_eq!(c.stats().errors_detected, 1);
            assert_eq!(c.taint(primary_slot(&c, a)), 0, "the refetch healed it");
            c.store(a, 2, &mut b);
            assert!(!c.footprint_settled(), "the check fired");
        }

        #[test]
        fn a_region_strike_never_settles() {
            let mut b = backend();
            let mut cfg = DataL1Config::paper_default(Scheme::ICR_P_PS_S_L2);
            cfg.victim = VictimPolicy::DeadOnly;
            let g = cfg.geometry;
            let mut c = DataL1::new(cfg);
            c.follow_footprint();
            pin_set_live(&mut c, &mut b, g, 35);
            let a = addr_for_set(g, 3, 5);
            c.store(a, 1, &mut b);
            let block = g.block_addr(a);
            assert!(c.is_spilled(block));
            let slot = b.replica_region().slot_of(block).unwrap();
            assert!(b
                .replica_region_mut()
                .flip_data_bit(slot, g.word_index(a), 4));
            // The store rewrites the struck region word, but the dL1 never saw
            // the strike, so its footprint cannot vouch for the region.
            c.store(a, 2, &mut b);
            c.load(a, 3, &mut b);
            assert_eq!(c.stats().errors_detected, 0);
            assert!(!c.footprint_settled());
        }
    }
}
