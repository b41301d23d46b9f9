//! The naive reference dL1: §3 semantics in the most literal form
//! possible, diffed against the real cache's exported state.

use crate::write_buffer::{RealWriteBuffer, RefWriteBuffer};
use std::collections::HashMap;

/// Protection state of a line, as a plain enum ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefProtection {
    /// Parity (replicated blocks, and the parity-base schemes).
    Parity,
    /// SEC-DED (unreplicated blocks under the ECC schemes).
    SecDed,
}

/// Replica victim-selection policy (§3.1): which resident lines may be
/// displaced to make room for a replica. Primaries that are alive are
/// never displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefVictim {
    /// Only dead primaries, one pass.
    DeadOnly,
    /// Dead primaries first, then replicas.
    DeadFirst,
    /// Replicas first, then dead primaries.
    ReplicaFirst,
    /// Only replicas, one pass.
    ReplicaOnly,
}

/// Configuration of the write-through coalescing buffer (§5.8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefWriteBufferConfig {
    /// Buffer entries.
    pub capacity: usize,
    /// Cycles of L2 time per retiring entry.
    pub service_latency: u64,
}

/// Everything the reference model needs to know about the cache under
/// audit, in plain types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefConfig {
    /// Number of sets.
    pub sets: usize,
    /// Ways per set.
    pub ways: usize,
    /// Block size in bytes (a power of two).
    pub block_bytes: u64,
    /// Whether the scheme replicates at all (ICR vs the Base* schemes).
    pub replicates: bool,
    /// Whether load misses also trigger replication (the `LS` trigger).
    pub replicate_on_load_miss: bool,
    /// Protection of unreplicated blocks (replicated blocks always use
    /// parity).
    pub unreplicated: RefProtection,
    /// Dead-block decay window in cycles (`0` = dead immediately).
    pub decay_window: u64,
    /// Replica victim policy.
    pub victim: RefVictim,
    /// Placement attempt list: signed set distances from the home set,
    /// tried in order.
    pub distances: Vec<i64>,
    /// Replica count ceiling per block.
    pub max_replicas: usize,
    /// §5.6 mode: replicas survive their primary's eviction and may
    /// serve later misses.
    pub keep_replicas_on_evict: bool,
    /// Capacity (in blocks) of the L2 spill region a `SpillToL2` scheme
    /// overflows into when no dL1 replica can be placed. `0` = the
    /// scheme keeps replicas in the dL1 only (every paper scheme).
    pub spill_capacity: usize,
    /// `Some` exactly when the dL1 is write-through (with its buffer).
    pub write_buffer: Option<RefWriteBufferConfig>,
}

impl RefConfig {
    fn block_of(&self, addr: u64) -> u64 {
        addr & !(self.block_bytes - 1)
    }

    fn set_of(&self, block: u64) -> usize {
        ((block / self.block_bytes) as usize) & (self.sets - 1)
    }

    fn candidate_sets(&self, home: usize) -> Vec<usize> {
        let n = self.sets as i64;
        self.distances
            .iter()
            .map(|&k| (home as i64 + k).rem_euclid(n) as usize)
            .collect()
    }
}

/// The 2-bit decay counter value, recomputed from scratch: one tick per
/// `window / 4` cycles for the first three ticks, saturation (3) exactly
/// at the full window. `window == 0` is always saturated.
pub fn ref_decay_counter(window: u64, last_access: u64, now: u64) -> u8 {
    if window == 0 {
        return 3;
    }
    let elapsed = now.saturating_sub(last_access);
    if elapsed >= window {
        3
    } else {
        let tick = (window / 4).max(1);
        ((elapsed / tick) as u8).min(2)
    }
}

/// Dead exactly when the counter has saturated.
pub fn ref_is_dead(window: u64, last_access: u64, now: u64) -> bool {
    ref_decay_counter(window, last_access, now) == 3
}

/// One valid line of the reference model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefLine {
    /// Block address.
    pub addr: u64,
    /// Modified since fill.
    pub dirty: bool,
    /// Replica (vs primary).
    pub replica: bool,
    /// Current protection code.
    pub prot: RefProtection,
    /// Cycle of the last access (decay state).
    pub last_access: u64,
}

/// The statistics both sides must agree on, counter for counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Loads issued.
    pub read_accesses: u64,
    /// Loads that hit a resident primary.
    pub read_hits: u64,
    /// Stores issued.
    pub write_accesses: u64,
    /// Stores that hit a resident primary.
    pub write_hits: u64,
    /// Primary lines installed.
    pub fills: u64,
    /// Valid primaries displaced.
    pub evictions: u64,
    /// Dirty primaries written back.
    pub writebacks: u64,
    /// Replica lines installed.
    pub replicas_created: u64,
    /// Replica lines displaced or dropped.
    pub replica_evictions: u64,
    /// In-place replica updates on stores.
    pub replica_updates: u64,
    /// Replication attempts (triggering events with a nonzero target).
    pub replication_attempts: u64,
    /// Attempts that created at least one new replica.
    pub replication_with_one: u64,
    /// Attempts that left the block with two or more replicas.
    pub replication_with_two: u64,
    /// Load hits whose block had a replica at access time.
    pub read_hits_with_replica: u64,
    /// §5.6: load misses served by a surviving replica.
    pub misses_served_by_replica: u64,
    /// Spill tier: blocks inserted into the L2 replica region.
    pub spills_created: u64,
    /// Spill tier: in-place spilled-copy updates on stores.
    pub spill_updates: u64,
    /// Spill tier: spilled copies dropped (dirty writeback, promotion
    /// to a dL1 replica, or a write-through no-allocate store miss).
    pub spill_invalidations: u64,
    /// Spill tier: spilled copies displaced by region capacity.
    pub spill_evictions: u64,
    /// Spill tier: load misses served by the spilled copy.
    pub misses_served_by_spill: u64,
}

impl Counters {
    /// The counters as (name, value) pairs, for diffing with names.
    pub fn fields(&self) -> [(&'static str, u64); 20] {
        [
            ("read_accesses", self.read_accesses),
            ("read_hits", self.read_hits),
            ("write_accesses", self.write_accesses),
            ("write_hits", self.write_hits),
            ("fills", self.fills),
            ("evictions", self.evictions),
            ("writebacks", self.writebacks),
            ("replicas_created", self.replicas_created),
            ("replica_evictions", self.replica_evictions),
            ("replica_updates", self.replica_updates),
            ("replication_attempts", self.replication_attempts),
            ("replication_with_one", self.replication_with_one),
            ("replication_with_two", self.replication_with_two),
            ("read_hits_with_replica", self.read_hits_with_replica),
            ("misses_served_by_replica", self.misses_served_by_replica),
            ("spills_created", self.spills_created),
            ("spill_updates", self.spill_updates),
            ("spill_invalidations", self.spill_invalidations),
            ("spill_evictions", self.spill_evictions),
            ("misses_served_by_spill", self.misses_served_by_spill),
        ]
    }
}

/// One valid line of the real cache, as exported for the audit under
/// its set's [`RealSetExport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RealLine {
    /// Way index.
    pub way: usize,
    /// Block address.
    pub addr: u64,
    /// Dirty bit.
    pub dirty: bool,
    /// Replica flag.
    pub replica: bool,
    /// Protection code on the stored words.
    pub prot: RefProtection,
    /// Decay state: cycle of the last access.
    pub last_access: u64,
    /// The 2-bit decay counter *as the real implementation computes it*.
    pub counter: u8,
    /// Deadness *as the real implementation computes it*.
    pub dead: bool,
}

/// One set's worth of exported real state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RealSetExport {
    /// The set index.
    pub set: usize,
    /// Every valid line of the set, in any order.
    pub lines: Vec<RealLine>,
    /// The set's recency order, most-recently-used way first.
    pub recency: Vec<usize>,
}

/// A snapshot of the real cache: the exported sets — every set, in
/// order, for the full [`check`](RefModel::check); the touched ones for
/// [`check_touched`](RefModel::check_touched) — plus the global state
/// every access can move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RealSets {
    /// One export per diffed set.
    pub sets: Vec<RealSetExport>,
    /// Blocks resident in the L2 spill region, least-recently-*written*
    /// first (empty for every dL1-only scheme). Exported on every check
    /// — any access can move the region, and the list is at most
    /// `spill_capacity` long.
    pub spill: Vec<u64>,
    /// The statistics counters.
    pub counters: Counters,
    /// Write-buffer state (write-through configurations only).
    pub write_buffer: Option<RealWriteBuffer>,
}

/// The naive reference dL1. Drive it with the same [`load`] / [`store`]
/// stream as the real cache, and diff the real cache's exported state
/// after every access: the sets it touched with [`check_touched`], or
/// every set with [`check`].
///
/// [`load`]: RefModel::load
/// [`store`]: RefModel::store
/// [`check_touched`]: RefModel::check_touched
/// [`check`]: RefModel::check
#[derive(Debug, Clone)]
pub struct RefModel {
    cfg: RefConfig,
    /// `lines[set][way]`.
    lines: Vec<Vec<Option<RefLine>>>,
    /// Per-set way order, most-recently-used first.
    recency: Vec<Vec<usize>>,
    /// The replica ledger: block address → sets currently holding a
    /// replica of it. Redundant with the lines (and cross-checked
    /// against a scan on every diff) — that redundancy is the point.
    replica_map: HashMap<u64, Vec<usize>>,
    /// The spill ledger: blocks with a copy in the L2 replica region,
    /// least-recently-*written* first — the naive mirror of the
    /// region's write-stamp order (reads do not reorder it).
    spill: Vec<u64>,
    /// The model's own statistics.
    pub counters: Counters,
    wb: Option<RefWriteBuffer>,
    /// Counters seen at the previous check, for the monotonicity
    /// invariant.
    prev_counters: Option<Counters>,
    /// Sets whose model state changed since the last
    /// [`take_touched_sets`], in mutation order, duplicates included.
    /// The model performs the same transitions as the real cache, so
    /// this log names every set an in-sync real cache can have changed;
    /// a real-side change to a set the model never touched is caught by
    /// the next full [`check`].
    ///
    /// [`take_touched_sets`]: RefModel::take_touched_sets
    /// [`check`]: RefModel::check
    touched: Vec<usize>,
}

impl RefModel {
    /// An empty reference cache.
    ///
    /// # Panics
    ///
    /// Panics when the shape is degenerate (zero sets/ways, non-power-of-2
    /// sets or block size).
    pub fn new(cfg: RefConfig) -> Self {
        assert!(cfg.sets > 0 && cfg.sets.is_power_of_two(), "sets");
        assert!(cfg.ways > 0, "ways");
        assert!(
            cfg.block_bytes > 0 && cfg.block_bytes.is_power_of_two(),
            "block bytes"
        );
        RefModel {
            lines: vec![vec![None; cfg.ways]; cfg.sets],
            recency: vec![(0..cfg.ways).collect(); cfg.sets],
            replica_map: HashMap::new(),
            spill: Vec::new(),
            counters: Counters::default(),
            wb: cfg
                .write_buffer
                .map(|w| RefWriteBuffer::new(w.capacity, w.service_latency)),
            cfg,
            prev_counters: None,
            touched: Vec::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &RefConfig {
        &self.cfg
    }

    // ------------------------------------------------------------------
    // Naive lookups: always a linear scan.
    // ------------------------------------------------------------------

    fn find_primary(&self, block: u64) -> Option<(usize, usize)> {
        let s = self.cfg.set_of(block);
        self.lines[s]
            .iter()
            .position(|l| matches!(l, Some(l) if !l.replica && l.addr == block))
            .map(|w| (s, w))
    }

    /// Replica locations by scanning the candidate sets, in placement
    /// order — the ground truth the [`replica_map`] ledger is checked
    /// against.
    ///
    /// [`replica_map`]: RefModel::check
    fn find_replicas(&self, block: u64) -> Vec<(usize, usize)> {
        let home = self.cfg.set_of(block);
        let mut out = Vec::new();
        for set in self.cfg.candidate_sets(home) {
            for (w, l) in self.lines[set].iter().enumerate() {
                if matches!(l, Some(l) if l.replica && l.addr == block) {
                    out.push((set, w));
                }
            }
        }
        out
    }

    fn has_replica(&self, block: u64) -> bool {
        if !self.cfg.replicates {
            return false;
        }
        self.replica_map.get(&block).is_some_and(|s| !s.is_empty())
    }

    fn is_spilled(&self, block: u64) -> bool {
        self.spill.contains(&block)
    }

    /// A block that just lost its last copy (dL1 replica or spilled)
    /// reverts a resident primary to the unreplicated code.
    fn demote_primary_if_bare(&mut self, block: u64) {
        if self.has_replica(block) || self.is_spilled(block) {
            return;
        }
        if let Some((ps, pw)) = self.find_primary(block) {
            let prot = self.cfg.unreplicated;
            self.lines[ps][pw].as_mut().expect("primary found").prot = prot;
            self.touched.push(ps);
        }
    }

    /// Mirrors `DataL1::spill_replica`: a copy enters at the
    /// most-recently-written end, displacing the least-recently-written
    /// block when the region is full.
    fn spill_insert(&mut self, block: u64) {
        debug_assert!(!self.spill.contains(&block), "duplicate spill");
        if self.spill.len() == self.cfg.spill_capacity {
            let evicted = self.spill.remove(0);
            self.counters.spill_evictions += 1;
            self.demote_primary_if_bare(evicted);
        }
        self.spill.push(block);
        self.counters.spills_created += 1;
    }

    /// Mirrors `DataL1::drop_spill`: removes the copy (if any) and
    /// reverts a now-bare resident primary to the unreplicated code.
    fn spill_invalidate(&mut self, block: u64) {
        let Some(pos) = self.spill.iter().position(|&b| b == block) else {
            return;
        };
        self.spill.remove(pos);
        self.counters.spill_invalidations += 1;
        self.demote_primary_if_bare(block);
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.touched.push(set);
        let order = &mut self.recency[set];
        let pos = order.iter().position(|&w| w == way).expect("way tracked");
        let w = order.remove(pos);
        order.insert(0, w);
    }

    // ------------------------------------------------------------------
    // State transitions, mirrored one for one from §3.
    // ------------------------------------------------------------------

    fn evict_line(&mut self, set: usize, way: usize) {
        let Some(line) = self.lines[set][way].take() else {
            return;
        };
        self.touched.push(set);
        if line.replica {
            self.counters.replica_evictions += 1;
            if let Some(sets) = self.replica_map.get_mut(&line.addr) {
                sets.retain(|&s| s != set);
                if sets.is_empty() {
                    self.replica_map.remove(&line.addr);
                }
            }
            // Last replica gone: a resident primary reverts to the
            // unreplicated code (unless a spilled copy still covers it).
            self.demote_primary_if_bare(line.addr);
        } else {
            self.counters.evictions += 1;
            if line.dirty {
                self.counters.writebacks += 1;
                // The written-back block is newer than its spilled copy:
                // the stale copy is dropped.
                self.spill_invalidate(line.addr);
            }
            // A *clean* eviction keeps the spilled copy — victim-cache
            // semantics; `keep_replicas_on_evict` governs the dL1 tier
            // only.
            if !self.cfg.keep_replicas_on_evict {
                for (rs, rw) in self.find_replicas(line.addr) {
                    self.lines[rs][rw] = None;
                    self.counters.replica_evictions += 1;
                    self.touched.push(rs);
                }
                self.replica_map.remove(&line.addr);
            }
        }
    }

    fn fill_primary(&mut self, block: u64, dirty: bool, now: u64) -> (usize, usize) {
        let s = self.cfg.set_of(block);
        let way = match self.lines[s].iter().position(|l| l.is_none()) {
            Some(w) => w,
            None => *self.recency[s].last().expect("ways > 0"),
        };
        self.evict_line(s, way);
        let prot = if self.has_replica(block) || self.is_spilled(block) {
            RefProtection::Parity
        } else {
            self.cfg.unreplicated
        };
        self.lines[s][way] = Some(RefLine {
            addr: block,
            dirty,
            replica: false,
            prot,
            last_access: now,
        });
        self.touch(s, way);
        self.counters.fills += 1;
        (s, way)
    }

    fn choose_replica_victim(&self, set: usize, block: u64, now: u64) -> Option<usize> {
        if let Some(w) = self.lines[set].iter().position(|l| l.is_none()) {
            return Some(w);
        }
        let dead_primary = |l: &RefLine| {
            l.addr != block && !l.replica && ref_is_dead(self.cfg.decay_window, l.last_access, now)
        };
        let replica = |l: &RefLine| l.addr != block && l.replica;
        let passes: [&dyn Fn(&RefLine) -> bool; 2] = match self.cfg.victim {
            RefVictim::DeadOnly => [&dead_primary, &|_: &RefLine| false],
            RefVictim::DeadFirst => [&dead_primary, &replica],
            RefVictim::ReplicaFirst => [&replica, &dead_primary],
            RefVictim::ReplicaOnly => [&replica, &|_: &RefLine| false],
        };
        for pass in passes {
            // LRU-first scan, restricted to the lines this pass allows.
            for &w in self.recency[set].iter().rev() {
                if self.lines[set][w].as_ref().is_some_and(pass) {
                    return Some(w);
                }
            }
        }
        None
    }

    fn attempt_replication(&mut self, block: u64, now: u64) {
        let Some((ps, pw)) = self.find_primary(block) else {
            return;
        };
        let home = self.cfg.set_of(block);
        let candidates = self.cfg.candidate_sets(home);
        let max = self.cfg.max_replicas.min(candidates.len());
        if max == 0 {
            return;
        }
        let was_spilled = self.is_spilled(block);
        let mut count = self.find_replicas(block).len();
        let had_none = count == 0;
        let count_before = count;
        for target in candidates {
            if count >= max {
                break;
            }
            // One replica per set.
            let already_here = self.lines[target]
                .iter()
                .any(|l| matches!(l, Some(l) if l.replica && l.addr == block));
            if already_here {
                continue;
            }
            if let Some(way) = self.choose_replica_victim(target, block, now) {
                self.evict_line(target, way);
                self.lines[target][way] = Some(RefLine {
                    addr: block,
                    dirty: false,
                    replica: true,
                    prot: RefProtection::Parity,
                    last_access: now,
                });
                self.replica_map.entry(block).or_default().push(target);
                self.touch(target, way);
                self.counters.replicas_created += 1;
                count += 1;
            }
        }
        let created_now = count - count_before;
        // A fresh dL1 replica promotes the block out of the spill tier
        // (the tiers are exclusive).
        if created_now > 0 && was_spilled {
            self.spill_invalidate(block);
        }
        // No dL1 replica placeable anywhere: spill into the L2 region.
        let spilled_now = self.cfg.spill_capacity > 0 && count == 0 && !was_spilled;
        if spilled_now {
            self.spill_insert(block);
        }
        // First copy of any kind: the primary switches to parity.
        if had_none && !was_spilled && (count > 0 || spilled_now) {
            self.lines[ps][pw].as_mut().expect("primary resident").prot = RefProtection::Parity;
            self.touched.push(ps);
        }
        self.counters.replication_attempts += 1;
        if created_now >= 1 || spilled_now {
            self.counters.replication_with_one += 1;
            if count >= 2 {
                self.counters.replication_with_two += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // The two access operations (fault-free paths of the real cache).
    // ------------------------------------------------------------------

    /// Mirrors a load of `addr` at cycle `now`.
    pub fn load(&mut self, addr: u64, now: u64) {
        let block = self.cfg.block_of(addr);
        self.counters.read_accesses += 1;
        if let Some((s, w)) = self.find_primary(block) {
            self.counters.read_hits += 1;
            if self.has_replica(block) || self.is_spilled(block) {
                self.counters.read_hits_with_replica += 1;
            }
            self.touch(s, w);
            self.lines[s][w].as_mut().expect("hit").last_access = now;
            return;
        }
        // Miss. In §5.6 mode a surviving replica can serve it.
        if self.cfg.keep_replicas_on_evict {
            if let Some(&(rs, rw)) = self.find_replicas(block).first() {
                self.counters.misses_served_by_replica += 1;
                self.touch(rs, rw);
                self.lines[rs][rw].as_mut().expect("replica").last_access = now;
                self.fill_primary(block, false, now);
                if self.cfg.replicate_on_load_miss {
                    self.attempt_replication(block, now);
                }
                return;
            }
        }
        // A spilled copy serves the miss from the L2 region (the model
        // is fault-free, so the verified read-back always succeeds).
        // Region reads deliberately do not refresh the recency stamp.
        if self.is_spilled(block) {
            self.counters.misses_served_by_spill += 1;
            self.fill_primary(block, false, now);
            if self.cfg.replicate_on_load_miss {
                self.attempt_replication(block, now);
            }
            return;
        }
        self.fill_primary(block, false, now);
        if self.cfg.replicate_on_load_miss {
            self.attempt_replication(block, now);
        }
    }

    /// Mirrors a store to `addr` at cycle `now`.
    pub fn store(&mut self, addr: u64, now: u64) {
        let block = self.cfg.block_of(addr);
        let write_through = self.cfg.write_buffer.is_some();
        self.counters.write_accesses += 1;
        match self.find_primary(block) {
            Some((s, w)) => {
                self.counters.write_hits += 1;
                let line = self.lines[s][w].as_mut().expect("hit");
                line.dirty = !write_through;
                line.last_access = now;
                self.touch(s, w);
            }
            None if !write_through => {
                // Write-allocate: fill clean, then dirty the line.
                let (s, w) = self.fill_primary(block, false, now);
                self.lines[s][w].as_mut().expect("filled").dirty = true;
            }
            None => {
                // Write-through no-allocate: nothing installed.
            }
        }
        if self.cfg.replicates && self.find_primary(block).is_some() {
            for (rs, rw) in self.find_replicas(block) {
                let line = self.lines[rs][rw].as_mut().expect("replica");
                line.last_access = now;
                self.touch(rs, rw);
                self.counters.replica_updates += 1;
            }
            // The spilled copy is updated in place, which refreshes its
            // write-recency stamp: the block moves to the MRU end.
            if let Some(pos) = self.spill.iter().position(|&b| b == block) {
                let b = self.spill.remove(pos);
                self.spill.push(b);
                self.counters.spill_updates += 1;
            }
            // Stores always trigger a replication attempt.
            self.attempt_replication(block, now);
        } else if self.is_spilled(block) {
            // Write-through no-allocate miss: the store bypassed the
            // dL1, so the spilled copy is stale and is dropped.
            self.spill_invalidate(block);
        }
        if let Some(wb) = &mut self.wb {
            wb.push(now, block);
        }
    }

    // ------------------------------------------------------------------
    // The diff.
    // ------------------------------------------------------------------

    /// The full diff: [`check_touched`](RefModel::check_touched) over an
    /// export of every set, then the invariants that need the whole
    /// cache (replica↔primary pairing, ledger vs scan, tier exclusivity,
    /// unreplicated-primary protection). Call with the cycle of the last
    /// access, or any later one.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence or violated
    /// invariant, or of an export that does not list every set exactly
    /// once, in order.
    pub fn check(&mut self, now: u64, real: &RealSets) -> Result<(), String> {
        if !real.sets.iter().map(|se| se.set).eq(0..self.cfg.sets) {
            let listed: Vec<usize> = real.sets.iter().map(|se| se.set).collect();
            return Err(format!(
                "a full check needs sets 0..{} once each, in order; the export lists {listed:?}",
                self.cfg.sets
            ));
        }
        self.check_touched(now, real)?;
        self.check_replica_invariants(real)?;
        // A clean full sweep covers every set: the incremental log is
        // stale from here on.
        self.touched.clear();
        Ok(())
    }

    /// Drains the sets touched since the last call into `out`, sorted
    /// and deduplicated. Pass the result to an exporter and then to
    /// [`check_touched`](RefModel::check_touched).
    pub fn take_touched_sets(&mut self, out: &mut Vec<usize>) {
        out.clear();
        out.append(&mut self.touched);
        out.sort_unstable();
        out.dedup();
    }

    /// Incremental diff: checks the global counters and write-buffer
    /// state (which every access can move), then diffs only the exported
    /// sets — intended to be exactly the sets named by
    /// [`take_touched_sets`](RefModel::take_touched_sets). The global
    /// ledger-vs-scan and replica/primary pairing invariants need the
    /// whole cache and are left to the full [`check`](RefModel::check);
    /// per-line replica invariants (legal distance-k placement, parity,
    /// cleanliness) are enforced here.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence or violated
    /// invariant.
    pub fn check_touched(&mut self, now: u64, real: &RealSets) -> Result<(), String> {
        self.check_counters(&real.counters)?;
        for se in &real.sets {
            self.check_set(now, se)?;
        }
        self.check_spill_list(&real.spill)?;
        self.check_write_buffer(&real.write_buffer)?;
        self.prev_counters = Some(real.counters);
        Ok(())
    }

    /// The exported spill-region occupancy must match the model's
    /// ledger exactly, *including* the write-recency order — a stale
    /// copy a missed invalidation left behind, a dropped insert, or a
    /// wrong eviction victim all surface here.
    fn check_spill_list(&self, real: &[u64]) -> Result<(), String> {
        if self.spill.as_slice() != real {
            return Err(format!(
                "spill region diverged:\n  real      {real:#x?}\n  reference {:#x?}",
                self.spill
            ));
        }
        Ok(())
    }

    fn check_write_buffer(&self, real: &Option<RealWriteBuffer>) -> Result<(), String> {
        match (&self.wb, real) {
            (Some(model_wb), Some(real_wb)) => model_wb.check(real_wb),
            (Some(_), None) => Err("model has a write buffer, real cache exports none".into()),
            (None, Some(_)) => Err("real cache exports a write buffer, model has none".into()),
            (None, None) => Ok(()),
        }
    }

    fn check_counters(&self, counters: &Counters) -> Result<(), String> {
        // Monotonicity: statistics never decrease between checks.
        if let Some(prev) = &self.prev_counters {
            for ((name, cur), (_, before)) in counters.fields().iter().zip(prev.fields()) {
                if *cur < before {
                    return Err(format!("counter {name} went backwards: {before} -> {cur}"));
                }
            }
        }
        // Conservation: hits never exceed accesses (misses = accesses -
        // hits stays meaningful).
        if counters.read_hits > counters.read_accesses {
            return Err(format!(
                "read_hits {} > read_accesses {}",
                counters.read_hits, counters.read_accesses
            ));
        }
        if counters.write_hits > counters.write_accesses {
            return Err(format!(
                "write_hits {} > write_accesses {}",
                counters.write_hits, counters.write_accesses
            ));
        }
        // Exact agreement with the model, counter for counter — this is
        // where a real hit the model predicts as a miss (or vice versa)
        // surfaces.
        for ((name, real_v), (_, model_v)) in counters.fields().iter().zip(self.counters.fields()) {
            if *real_v != model_v {
                return Err(format!(
                    "counter {name} diverged: real {real_v}, reference {model_v}"
                ));
            }
        }
        Ok(())
    }

    /// The per-line diff: reference counterpart, field equality, and the
    /// decay cross-check.
    fn check_line(&self, now: u64, set: usize, rl: &RealLine) -> Result<(), String> {
        let Some(ml) = &self.lines[set][rl.way] else {
            return Err(format!(
                "real line ({set}, {}) addr {:#x} has no reference counterpart",
                rl.way, rl.addr
            ));
        };
        if (ml.addr, ml.dirty, ml.replica, ml.prot, ml.last_access)
            != (rl.addr, rl.dirty, rl.replica, rl.prot, rl.last_access)
        {
            return Err(format!(
                "line ({set}, {}) diverged:\n  real      {rl:?}\n  reference {ml:?}",
                rl.way
            ));
        }
        // Decay cross-check: the real counter/deadness must match the
        // from-scratch computation, and agree with each other.
        let want = ref_decay_counter(self.cfg.decay_window, ml.last_access, now);
        if rl.counter != want {
            return Err(format!(
                "line ({set}, {}) decay counter diverged at cycle {now}: real {}, \
                 reference {want} (window {}, last access {})",
                rl.way, rl.counter, self.cfg.decay_window, ml.last_access
            ));
        }
        if rl.dead != (rl.counter == 3) {
            return Err(format!(
                "line ({set}, {}): dead={} but counter={} — saturation and deadness disagree",
                rl.way, rl.dead, rl.counter
            ));
        }
        Ok(())
    }

    /// The per-set diff: bidirectional line comparison, recency order,
    /// and the local (single-line) replica invariants.
    fn check_set(&self, now: u64, se: &RealSetExport) -> Result<(), String> {
        let set = se.set;
        if set >= self.cfg.sets {
            return Err(format!("exported set {set} out of range"));
        }
        let mut seen = vec![false; self.cfg.ways];
        for rl in &se.lines {
            if rl.way >= self.cfg.ways {
                return Err(format!("exported line out of range in set {set}: {rl:?}"));
            }
            if std::mem::replace(&mut seen[rl.way], true) {
                return Err(format!("line ({set}, {}) exported twice", rl.way));
            }
            self.check_line(now, set, rl)?;
            if rl.replica {
                let home = self.cfg.set_of(rl.addr);
                let candidates = self.cfg.candidate_sets(home);
                if !candidates.contains(&set) {
                    return Err(format!(
                        "replica of {:#x} (home set {home}) found in set {set}, \
                         not a legal distance-k candidate ({candidates:?})",
                        rl.addr
                    ));
                }
                if rl.prot != RefProtection::Parity {
                    return Err(format!(
                        "replica of {:#x} in set {set} is not parity-protected",
                        rl.addr
                    ));
                }
                if rl.dirty {
                    return Err(format!("replica of {:#x} in set {set} is dirty", rl.addr));
                }
            }
        }
        // Any model line of this set the real cache did not export is a
        // divergence.
        for (w, l) in self.lines[set].iter().enumerate() {
            if l.is_some() && !seen[w] {
                return Err(format!(
                    "reference line ({set}, {w}) {l:?} missing from the real cache"
                ));
            }
        }
        if se.recency != self.recency[set] {
            return Err(format!(
                "set {set} recency diverged: real {:?}, reference {:?}",
                se.recency, self.recency[set]
            ));
        }
        Ok(())
    }

    /// The invariants only the whole cache can state, over an export of
    /// every set in order whose lines [`check_set`](Self::check_set) has
    /// already matched: each replica has at most one copy per set and
    /// (unless `keep_replicas_on_evict`) a live resident primary whose
    /// protection reflects the pairing, the tiers are exclusive,
    /// unreplicated primaries carry the scheme's code, and the `HashMap`
    /// ledger agrees with a fresh scan.
    fn check_replica_invariants(&self, real: &RealSets) -> Result<(), String> {
        let mut scanned: HashMap<u64, Vec<usize>> = HashMap::new();
        for se in &real.sets {
            for rl in se.lines.iter().filter(|l| l.replica) {
                let sets = scanned.entry(rl.addr).or_default();
                if sets.contains(&se.set) {
                    return Err(format!(
                        "block {:#x} holds two replicas in set {}",
                        rl.addr, se.set
                    ));
                }
                sets.push(se.set);
            }
        }
        for (block, sets) in &scanned {
            if !self.cfg.keep_replicas_on_evict {
                let home = self.cfg.set_of(*block);
                let primary = real.sets[home]
                    .lines
                    .iter()
                    .find(|l| !l.replica && l.addr == *block);
                let Some(primary) = primary else {
                    return Err(format!(
                        "replicas of {block:#x} in sets {sets:?} have no live primary"
                    ));
                };
                if primary.prot != RefProtection::Parity {
                    return Err(format!(
                        "replicated primary {block:#x} is not parity-protected"
                    ));
                }
            }
        }
        // The tiers are exclusive: a spilled block holds no dL1 replica.
        for &block in &self.spill {
            if scanned.contains_key(&block) {
                return Err(format!(
                    "block {block:#x} sits in both tiers: dL1 replicas and a spilled copy"
                ));
            }
        }
        // Unreplicated primaries carry the scheme's code; a spilled
        // block's resident primary reads under parity (the spilled copy
        // backs it, so per-line SEC-DED would be wasted).
        for rl in real.sets.iter().flat_map(|se| &se.lines) {
            if rl.replica {
                continue;
            }
            if self.is_spilled(rl.addr) {
                if rl.prot != RefProtection::Parity {
                    return Err(format!(
                        "spilled primary {:#x} has protection {:?}, expected Parity",
                        rl.addr, rl.prot
                    ));
                }
            } else if !scanned.contains_key(&rl.addr) && rl.prot != self.cfg.unreplicated {
                return Err(format!(
                    "unreplicated primary {:#x} has protection {:?}, expected {:?}",
                    rl.addr, rl.prot, self.cfg.unreplicated
                ));
            }
        }
        // The ledger agrees with the scan (order-insensitive).
        let mut ledger: Vec<(u64, Vec<usize>)> = self
            .replica_map
            .iter()
            .map(|(&b, s)| {
                let mut s = s.clone();
                s.sort_unstable();
                (b, s)
            })
            .collect();
        ledger.sort_unstable();
        let mut scan: Vec<(u64, Vec<usize>)> = scanned
            .into_iter()
            .map(|(b, mut s)| {
                s.sort_unstable();
                (b, s)
            })
            .collect();
        scan.sort_unstable();
        if ledger != scan {
            return Err(format!(
                "replica ledger diverged from scan:\n  ledger {ledger:?}\n  scan   {scan:?}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RefConfig {
        RefConfig {
            sets: 8,
            ways: 2,
            block_bytes: 64,
            replicates: true,
            replicate_on_load_miss: false,
            unreplicated: RefProtection::Parity,
            decay_window: 0,
            victim: RefVictim::DeadOnly,
            distances: vec![4],
            max_replicas: 1,
            keep_replicas_on_evict: false,
            spill_capacity: 0,
            write_buffer: None,
        }
    }

    /// A spill-tier configuration: SEC-DED base, live lines decay
    /// slowly, and the DeadOnly victim policy means a full candidate
    /// set blocks dL1 replication entirely.
    fn spill_cfg() -> RefConfig {
        RefConfig {
            unreplicated: RefProtection::SecDed,
            decay_window: 1000,
            spill_capacity: 2,
            ..cfg()
        }
    }

    /// Fills both ways of `set` with live (cycle-0) primaries directly,
    /// bypassing the access path so no replication side effects occur.
    fn pin_set_live(m: &mut RefModel, set: usize) {
        for w in 0..2 {
            let addr = 0x40 * (8 * (w as u64 + 1) + set as u64);
            m.lines[set][w] = Some(RefLine {
                addr,
                dirty: false,
                replica: false,
                prot: m.cfg.unreplicated,
                last_access: 0,
            });
            m.counters.fills += 1;
        }
    }

    /// A full snapshot assembled from the model itself: the trivially
    /// matching export of every set, as a harness for invariant tests.
    fn snapshot(m: &RefModel, now: u64) -> RealSets {
        let every: Vec<usize> = (0..m.cfg.sets).collect();
        snapshot_sets(m, &every, now)
    }

    /// A RealSets assembled from the model itself for the named sets:
    /// the trivially matching partial snapshot.
    fn snapshot_sets(m: &RefModel, sets: &[usize], now: u64) -> RealSets {
        let export = |s: usize| RealSetExport {
            set: s,
            lines: m.lines[s]
                .iter()
                .enumerate()
                .filter_map(|(w, l)| {
                    let l = l.as_ref()?;
                    let counter = ref_decay_counter(m.cfg.decay_window, l.last_access, now);
                    Some(RealLine {
                        way: w,
                        addr: l.addr,
                        dirty: l.dirty,
                        replica: l.replica,
                        prot: l.prot,
                        last_access: l.last_access,
                        counter,
                        dead: counter == 3,
                    })
                })
                .collect(),
            recency: m.recency[s].clone(),
        };
        RealSets {
            sets: sets.iter().map(|&s| export(s)).collect(),
            spill: m.spill.clone(),
            counters: m.counters,
            write_buffer: None,
        }
    }

    #[test]
    fn store_creates_a_distance_k_replica() {
        let mut m = RefModel::new(cfg());
        m.store(0x40, 0); // block in set 1
        assert_eq!(m.counters.write_accesses, 1);
        assert_eq!(m.counters.fills, 1);
        assert_eq!(m.counters.replicas_created, 1);
        assert_eq!(m.counters.replication_with_one, 1);
        // Home set 1, distance 4 → replica in set 5.
        assert!(m.lines[5].iter().flatten().any(|l| l.replica));
        let snap = snapshot(&m, 0);
        assert!(m.clone().check(0, &snap).is_ok());
    }

    #[test]
    fn check_flags_a_doctored_dirty_bit() {
        let mut m = RefModel::new(cfg());
        m.store(0x40, 0);
        let mut snap = snapshot(&m, 0);
        let primary = snap.sets[1].lines.iter_mut().find(|l| !l.replica).unwrap();
        primary.dirty = false;
        let err = m.check(0, &snap).unwrap_err();
        assert!(err.contains("diverged"), "{err}");
    }

    #[test]
    fn check_flags_an_illegal_replica_placement() {
        let mut m = RefModel::new(cfg());
        m.store(0x40, 0);
        let mut snap = snapshot(&m, 0);
        // Teleport the replica to a non-candidate set in both the export
        // and the model, so the placement check (not the line diff)
        // fires.
        let r = snap.sets[5].lines.pop().unwrap();
        assert!(r.replica);
        snap.sets[6].lines.push(r);
        let line = m.lines[5][r.way].take();
        m.lines[6][r.way] = line;
        let err = m.check(0, &snap).unwrap_err();
        assert!(err.contains("distance-k"), "{err}");
    }

    #[test]
    fn check_flags_counter_divergence() {
        let mut m = RefModel::new(cfg());
        m.load(0x80, 0);
        let mut snap = snapshot(&m, 0);
        snap.counters.read_hits += 1; // a phantom hit
        let err = m.check(0, &snap).unwrap_err();
        assert!(err.contains("read_hits"), "{err}");
    }

    #[test]
    fn check_flags_backwards_stats() {
        let mut m = RefModel::new(cfg());
        m.load(0x80, 0);
        let snap = snapshot(&m, 0);
        m.check(0, &snap).unwrap();
        m.load(0x80, 1);
        let mut snap2 = snapshot(&m, 1);
        snap2.counters.read_accesses = 0; // went backwards
        let err = m.check(1, &snap2).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn touched_sets_cover_a_replicating_store() {
        let mut m = RefModel::new(cfg());
        m.store(0x40, 0); // home set 1, replica in set 5
        let mut touched = Vec::new();
        m.take_touched_sets(&mut touched);
        assert_eq!(touched, vec![1, 5]);
        // Drained: a second take is empty until the next access.
        m.take_touched_sets(&mut touched);
        assert!(touched.is_empty());
        m.load(0x40, 1);
        m.take_touched_sets(&mut touched);
        assert_eq!(touched, vec![1]); // a load hit touches only the home set
        m.store(0x40, 2);
        m.take_touched_sets(&mut touched);
        assert_eq!(touched, vec![1, 5]); // store hit updates the replica too
    }

    #[test]
    fn check_touched_accepts_a_matching_partial_snapshot() {
        let mut m = RefModel::new(cfg());
        m.store(0x40, 0);
        let mut touched = Vec::new();
        m.take_touched_sets(&mut touched);
        let snap = snapshot_sets(&m, &touched, 0);
        m.check_touched(0, &snap).unwrap();
    }

    #[test]
    fn check_touched_flags_a_doctored_line_in_a_touched_set() {
        let mut m = RefModel::new(cfg());
        m.store(0x40, 0);
        let mut touched = Vec::new();
        m.take_touched_sets(&mut touched);
        let mut snap = snapshot_sets(&m, &touched, 0);
        let line = snap.sets[0]
            .lines
            .iter_mut()
            .find(|l| !l.replica)
            .expect("primary in home set");
        line.dirty = false;
        let err = m.check_touched(0, &snap).unwrap_err();
        assert!(err.contains("diverged"), "{err}");
    }

    #[test]
    fn check_touched_flags_a_missing_line() {
        let mut m = RefModel::new(cfg());
        m.store(0x40, 0);
        let mut touched = Vec::new();
        m.take_touched_sets(&mut touched);
        let mut snap = snapshot_sets(&m, &touched, 0);
        snap.sets[0].lines.clear();
        let err = m.check_touched(0, &snap).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn check_touched_flags_a_dirty_replica() {
        let mut m = RefModel::new(cfg());
        m.store(0x40, 0);
        let mut touched = Vec::new();
        m.take_touched_sets(&mut touched);
        let mut snap = snapshot_sets(&m, &touched, 0);
        // Doctor both sides identically so the line diff passes and the
        // local replica invariant is what fires.
        let se = snap.sets.iter_mut().find(|se| se.set == 5).unwrap();
        let rl = se.lines.iter_mut().find(|l| l.replica).unwrap();
        rl.dirty = true;
        m.lines[5][rl.way].as_mut().unwrap().dirty = true;
        let err = m.check_touched(0, &snap).unwrap_err();
        assert!(err.contains("dirty"), "{err}");
    }

    #[test]
    fn full_check_refuses_an_export_that_is_not_every_set_in_order() {
        let mut m = RefModel::new(cfg());
        m.store(0x40, 0);
        let mut snap = snapshot(&m, 0);
        snap.sets.remove(3);
        let err = m.clone().check(0, &snap).unwrap_err();
        assert!(err.contains("once each, in order"), "{err}");
        let mut snap = snapshot(&m, 0);
        snap.sets.swap(1, 5);
        let err = m.check(0, &snap).unwrap_err();
        assert!(err.contains("once each, in order"), "{err}");
    }

    #[test]
    fn full_check_resets_the_touched_log() {
        let mut m = RefModel::new(cfg());
        m.store(0x40, 0);
        let snap = snapshot(&m, 0);
        m.check(0, &snap).unwrap();
        let mut touched = Vec::new();
        m.take_touched_sets(&mut touched);
        assert!(touched.is_empty());
    }

    #[test]
    fn blocked_replication_spills_into_the_region() {
        let mut m = RefModel::new(spill_cfg());
        pin_set_live(&mut m, 5); // candidate set of home set 1
        m.store(0x40, 0);
        assert_eq!(m.counters.replicas_created, 0);
        assert_eq!(m.counters.spills_created, 1);
        assert_eq!(m.counters.replication_with_one, 1);
        assert_eq!(m.spill, vec![0x40]);
        // The primary reads under parity while the spilled copy covers it.
        let (ps, pw) = m.find_primary(0x40).unwrap();
        assert_eq!(m.lines[ps][pw].unwrap().prot, RefProtection::Parity);
        let snap = snapshot(&m, 0);
        assert!(m.clone().check(0, &snap).is_ok());
    }

    #[test]
    fn dirty_writeback_drops_the_stale_spilled_copy() {
        let mut m = RefModel::new(spill_cfg());
        pin_set_live(&mut m, 5);
        m.store(0x40, 0);
        assert_eq!(m.spill, vec![0x40]);
        // Two conflicting fills displace the dirty primary from set 1.
        m.load(0x40 * 9, 1);
        m.load(0x40 * 17, 2);
        assert_eq!(m.counters.writebacks, 1);
        assert_eq!(m.counters.spill_invalidations, 1);
        assert!(m.spill.is_empty());
        let snap = snapshot(&m, 2);
        assert!(m.clone().check(2, &snap).is_ok());
    }

    #[test]
    fn a_fresh_dl1_replica_promotes_the_block_out_of_the_region() {
        let mut m = RefModel::new(spill_cfg());
        pin_set_live(&mut m, 5);
        m.store(0x40, 0);
        assert_eq!(m.spill, vec![0x40]);
        // Past the decay window the pinned primaries are dead hosts, so
        // the next store places a real dL1 replica and drops the spill.
        m.store(0x44, 2000);
        assert_eq!(m.counters.replicas_created, 1);
        assert_eq!(m.counters.spill_updates, 1);
        assert_eq!(m.counters.spill_invalidations, 1);
        assert!(m.spill.is_empty());
        let snap = snapshot(&m, 2000);
        assert!(m.clone().check(2000, &snap).is_ok());
    }

    #[test]
    fn region_capacity_eviction_demotes_the_displaced_primary() {
        let mut m = RefModel::new(RefConfig {
            spill_capacity: 1,
            ..spill_cfg()
        });
        pin_set_live(&mut m, 5);
        pin_set_live(&mut m, 6);
        m.store(0x40, 0); // home 1 → candidate 5 blocked: spills
        m.store(0x80, 0); // home 2 → candidate 6 blocked: displaces 0x40
        assert_eq!(m.counters.spill_evictions, 1);
        assert_eq!(m.spill, vec![0x80]);
        // The displaced block's primary reverts to the scheme's code.
        let (ps, pw) = m.find_primary(0x40).unwrap();
        assert_eq!(m.lines[ps][pw].unwrap().prot, RefProtection::SecDed);
        let snap = snapshot(&m, 0);
        assert!(m.clone().check(0, &snap).is_ok());
    }

    #[test]
    fn a_spilled_copy_serves_a_clean_miss() {
        let mut m = RefModel::new(RefConfig {
            replicate_on_load_miss: true,
            spill_capacity: 4,
            ..spill_cfg()
        });
        pin_set_live(&mut m, 5);
        m.load(0x40, 1); // miss → clean fill → LS trigger spills
        assert_eq!(m.counters.spills_created, 1);
        // Conflicting fills displace the clean primary; the spilled
        // copies survive the clean evictions.
        m.load(0x40 * 9, 2);
        m.load(0x40 * 17, 3);
        assert_eq!(m.counters.writebacks, 0);
        assert!(m.is_spilled(0x40));
        // The next miss on the block is served from the region.
        m.load(0x40, 4);
        assert_eq!(m.counters.misses_served_by_spill, 1);
        let snap = snapshot(&m, 4);
        assert!(m.clone().check(4, &snap).is_ok());
    }

    #[test]
    fn check_flags_a_stale_spill_entry() {
        let mut m = RefModel::new(spill_cfg());
        pin_set_live(&mut m, 5);
        m.store(0x40, 0);
        let mut snap = snapshot(&m, 0);
        snap.spill.push(0xbc0); // a copy the model never spilled
        let err = m.check(0, &snap).unwrap_err();
        assert!(err.contains("spill region diverged"), "{err}");
    }

    #[test]
    fn check_flags_a_spilled_block_with_a_dl1_replica() {
        let mut m = RefModel::new(spill_cfg());
        m.store(0x40, 0); // candidate set 5 is free: a real dL1 replica
        assert_eq!(m.counters.replicas_created, 1);
        // Doctor both sides identically so the list diff passes and the
        // tier-exclusivity invariant is what fires.
        m.spill.push(0x40);
        let snap = snapshot(&m, 0);
        let err = m.check(0, &snap).unwrap_err();
        assert!(err.contains("both tiers"), "{err}");
    }

    #[test]
    fn check_touched_flags_a_doctored_spill_list() {
        let mut m = RefModel::new(spill_cfg());
        pin_set_live(&mut m, 5);
        m.store(0x40, 0);
        let mut touched = Vec::new();
        m.take_touched_sets(&mut touched);
        let mut snap = snapshot_sets(&m, &touched, 0);
        snap.spill.clear(); // the shape of a dropped insert
        let err = m.check_touched(0, &snap).unwrap_err();
        assert!(err.contains("spill region diverged"), "{err}");
    }

    #[test]
    fn dead_only_victims_never_displace_live_primaries() {
        let mut m = RefModel::new(RefConfig {
            decay_window: 1000,
            ..cfg()
        });
        // Fill both ways of set 5 with live primaries, then try to
        // replicate into it: no victim exists.
        m.store(0x40 * 5, 0);
        m.store(0x40 * (5 + 8), 1);
        let replicas_before = m.counters.replicas_created;
        m.store(0x40, 2); // home set 1, candidate set 5 is all live
        assert_eq!(m.counters.replicas_created, replicas_before);
        assert_eq!(m.counters.replication_attempts, 3);
        let snap = snapshot(&m, 2);
        assert!(m.check(2, &snap).is_ok());
    }
}
