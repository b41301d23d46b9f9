//! A generic set-associative, write-back, write-allocate cache with real
//! data storage — used for the L2 and the instruction L1. (The data L1,
//! with its replicas and protection codes, lives in `icr-core` and builds
//! on the same geometry/LRU primitives.)
//!
//! Storage is flat: one `valid`, `dirty` and `tags` entry per slot
//! (`set * ways + way`), every slot's words in one array, and every set's
//! recency in one [`LruArray`]. Building a cache is a handful of
//! allocations whatever its size, and no access allocates.

use crate::addr::{BlockAddr, CacheGeometry, SetIndex};
use crate::block::DataBlock;
use crate::lru::LruArray;
use crate::stats::CacheStats;

/// Whether a lookup models a read or a write, for stats purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Load / instruction fetch.
    Read,
    /// Store / writeback arriving from an upper level.
    Write,
}

/// A valid block evicted by a fill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted {
    /// The block's address.
    pub addr: BlockAddr,
    /// The block's data at eviction time.
    pub data: DataBlock,
    /// `true` when the block was dirty and must be written back.
    pub dirty: bool,
}

/// Set-associative write-back cache storing real block data.
///
/// ```
/// use icr_mem::{Cache, CacheGeometry, AccessKind, DataBlock, BlockAddr};
///
/// let mut l2 = Cache::new(CacheGeometry::new(256 * 1024, 4, 64), 6);
/// let a = BlockAddr(0x1000);
/// assert!(!l2.lookup(a, AccessKind::Read));          // cold miss
/// l2.fill(a, DataBlock::pristine(a, 8), false);
/// assert!(l2.lookup(a, AccessKind::Read));           // now hits
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    hit_latency: u64,
    ways: usize,
    words_per_block: usize,
    valid: Vec<bool>,
    dirty: Vec<bool>,
    tags: Vec<u64>,
    /// Word `i` of slot `sl` is `words[sl * words_per_block + i]`.
    words: Vec<u64>,
    lru: LruArray,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given shape and hit latency.
    pub fn new(geometry: CacheGeometry, hit_latency: u64) -> Self {
        let ways = geometry.associativity();
        let slots = geometry.num_sets() * ways;
        Cache {
            geometry,
            hit_latency,
            ways,
            words_per_block: geometry.words_per_block(),
            valid: vec![false; slots],
            dirty: vec![false; slots],
            tags: vec![0; slots],
            words: vec![0; slots * geometry.words_per_block()],
            lru: LruArray::new(geometry.num_sets(), ways),
            stats: CacheStats::default(),
        }
    }

    /// The cache's shape.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Latency of a hit, in cycles.
    pub fn hit_latency(&self) -> u64 {
        self.hit_latency
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The (set, way) holding `addr`, if resident.
    #[inline]
    fn find(&self, addr: BlockAddr) -> Option<(usize, usize)> {
        let tag = self.geometry.tag(addr);
        let set = self.geometry.set_index(addr).0;
        let base = set * self.ways;
        (0..self.ways)
            .find(|&w| self.valid[base + w] && self.tags[base + w] == tag)
            .map(|w| (set, w))
    }

    #[inline]
    fn block_words(&self, slot: usize) -> &[u64] {
        &self.words[slot * self.words_per_block..][..self.words_per_block]
    }

    #[inline]
    fn block_words_mut(&mut self, slot: usize) -> &mut [u64] {
        &mut self.words[slot * self.words_per_block..][..self.words_per_block]
    }

    /// Copies `data` into `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not one block of this cache's size.
    fn store_block(&mut self, slot: usize, data: &DataBlock) {
        assert_eq!(data.len(), self.words_per_block, "block size mismatch");
        self.block_words_mut(slot).copy_from_slice(data.words());
    }

    /// The valid block in `slot`, leaving the slot invalid. (An invalid
    /// slot's other fields are never read before its next fill rewrites
    /// them.)
    fn take_block(&mut self, set: usize, slot: usize) -> Evicted {
        self.valid[slot] = false;
        Evicted {
            addr: self
                .geometry
                .block_addr_from_parts(self.tags[slot], SetIndex(set)),
            data: DataBlock::from_words(self.block_words(slot)),
            dirty: self.dirty[slot],
        }
    }

    /// `true` when the block is resident (no state change, no stats).
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.find(addr).is_some()
    }

    /// Records a read hit on a line the caller *knows* is resident and
    /// already most-recently-used in its set — the LRU touch would be a
    /// no-op, so only the stats move. Fetch fast paths use this to skip
    /// the tag scan on back-to-back accesses to one block; it must never
    /// be called speculatively.
    pub fn count_mru_read_hit(&mut self) {
        self.stats.read_accesses += 1;
        self.stats.read_hits += 1;
    }

    /// Looks the block up, updating LRU and stats. Returns `true` on hit.
    /// On a write hit, the line is marked dirty.
    pub fn lookup(&mut self, addr: BlockAddr, kind: AccessKind) -> bool {
        let hit = self.find(addr);
        match kind {
            AccessKind::Read => {
                self.stats.read_accesses += 1;
                if hit.is_some() {
                    self.stats.read_hits += 1;
                }
            }
            AccessKind::Write => {
                self.stats.write_accesses += 1;
                if hit.is_some() {
                    self.stats.write_hits += 1;
                }
            }
        }
        let Some((set, way)) = hit else {
            return false;
        };
        self.lru.touch(set, way);
        if kind == AccessKind::Write {
            self.dirty[set * self.ways + way] = true;
        }
        true
    }

    /// Reads a word of a resident block, updating LRU.
    ///
    /// Returns `None` when the block is not resident.
    pub fn read_word(&mut self, addr: BlockAddr, word: usize) -> Option<u64> {
        let (set, way) = self.find(addr)?;
        self.lru.touch(set, way);
        Some(self.block_words(set * self.ways + way)[word])
    }

    /// Writes a word of a resident block, marking it dirty.
    ///
    /// Returns `false` when the block is not resident.
    pub fn write_word(&mut self, addr: BlockAddr, word: usize, value: u64) -> bool {
        let Some((set, way)) = self.find(addr) else {
            return false;
        };
        self.lru.touch(set, way);
        let slot = set * self.ways + way;
        self.block_words_mut(slot)[word] = value;
        self.dirty[slot] = true;
        true
    }

    /// Reads a whole resident block without disturbing LRU (used when an
    /// upper level refetches after an error).
    pub fn peek_block(&self, addr: BlockAddr) -> Option<DataBlock> {
        let (set, way) = self.find(addr)?;
        Some(DataBlock::from_words(
            self.block_words(set * self.ways + way),
        ))
    }

    /// Overwrites a resident block's data in place, marking it dirty
    /// (a full-block writeback arriving from an upper level).
    ///
    /// Returns `false` when the block is not resident.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not one block of this cache's size.
    pub fn update_block(&mut self, addr: BlockAddr, data: DataBlock) -> bool {
        let Some((set, way)) = self.find(addr) else {
            return false;
        };
        self.lru.touch(set, way);
        let slot = set * self.ways + way;
        self.store_block(slot, &data);
        self.dirty[slot] = true;
        true
    }

    /// Installs a block, evicting the LRU way if the set is full.
    ///
    /// Returns the evicted valid block, if any. The caller routes dirty
    /// evictions to the next level.
    ///
    /// # Panics
    ///
    /// Panics if the block is already resident (fill implies a prior miss),
    /// or if `data` is not one block of this cache's size.
    pub fn fill(&mut self, addr: BlockAddr, data: DataBlock, dirty: bool) -> Option<Evicted> {
        assert!(
            self.find(addr).is_none(),
            "fill of already-resident block {addr}"
        );
        self.stats.fills += 1;
        let set = self.geometry.set_index(addr).0;
        let base = set * self.ways;
        // Prefer an invalid way; otherwise evict LRU.
        let way = (0..self.ways)
            .find(|&w| !self.valid[base + w])
            .unwrap_or_else(|| self.lru.victim(set));
        let slot = base + way;
        let evicted = self.valid[slot].then(|| {
            self.stats.evictions += 1;
            if self.dirty[slot] {
                self.stats.writebacks += 1;
            }
            self.take_block(set, slot)
        });
        self.store_block(slot, &data);
        self.valid[slot] = true;
        self.dirty[slot] = dirty;
        self.tags[slot] = self.geometry.tag(addr);
        self.lru.touch(set, way);
        evicted
    }

    /// Invalidates a block if resident, returning it (for flush modelling).
    pub fn invalidate(&mut self, addr: BlockAddr) -> Option<Evicted> {
        let (set, way) = self.find(addr)?;
        Some(self.take_block(set, set * self.ways + way))
    }

    /// Number of valid blocks currently resident.
    pub fn resident_blocks(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets, 2 ways, 64B blocks.
        Cache::new(CacheGeometry::new(256, 2, 64), 6)
    }

    fn blk(addr: u64) -> DataBlock {
        DataBlock::pristine(BlockAddr(addr), 8)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        let a = BlockAddr(0);
        assert!(!c.lookup(a, AccessKind::Read));
        c.fill(a, blk(0), false);
        assert!(c.lookup(a, AccessKind::Read));
        assert_eq!(c.stats().read_accesses, 2);
        assert_eq!(c.stats().read_hits, 1);
    }

    #[test]
    fn fill_evicts_lru_when_set_full() {
        let mut c = small();
        // Set 0 gets blocks at 0, 128 (2 sets * 64B => stride 128).
        let (a, b, d) = (BlockAddr(0), BlockAddr(128), BlockAddr(256));
        c.fill(a, blk(0), false);
        c.fill(b, blk(128), false);
        c.lookup(a, AccessKind::Read); // a is MRU; b is LRU
        let ev = c.fill(d, blk(256), false).expect("must evict");
        assert_eq!(ev.addr, b);
        assert!(!ev.dirty);
        assert!(c.contains(a));
        assert!(c.contains(d));
        assert!(!c.contains(b));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        let (a, b, d) = (BlockAddr(0), BlockAddr(128), BlockAddr(256));
        c.fill(a, blk(0), false);
        c.lookup(a, AccessKind::Write); // dirty a
        c.fill(b, blk(128), false);
        c.lookup(b, AccessKind::Read); // a is LRU and dirty
        let ev = c.fill(d, blk(256), false).unwrap();
        assert_eq!(ev.addr, a);
        assert!(ev.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn words_read_and_write_back() {
        let mut c = small();
        let a = BlockAddr(64); // set 1
        c.fill(a, blk(64), false);
        assert_eq!(c.read_word(a, 3), Some(blk(64).word(3)));
        assert!(c.write_word(a, 3, 0x42));
        assert_eq!(c.read_word(a, 3), Some(0x42));
        assert_eq!(c.read_word(BlockAddr(0), 0), None);
    }

    #[test]
    fn update_block_replaces_data_and_dirties() {
        let mut c = small();
        let a = BlockAddr(0);
        c.fill(a, blk(0), false);
        let mut d = DataBlock::zeroed(8);
        d.set_word(0, 7);
        assert!(c.update_block(a, d));
        assert_eq!(c.peek_block(a), Some(d));
        // Evicting it now reports dirty.
        c.fill(BlockAddr(128), blk(128), false);
        c.lookup(BlockAddr(128), AccessKind::Read);
        // Fill once more to push out `a` (LRU).
        c.lookup(BlockAddr(128), AccessKind::Read);
        let ev = c.fill(BlockAddr(256), blk(256), false).unwrap();
        assert_eq!(ev.addr, a);
        assert!(ev.dirty);
    }

    #[test]
    fn invalidate_removes_block() {
        let mut c = small();
        let a = BlockAddr(0);
        c.fill(a, blk(0), false);
        let ev = c.invalidate(a).expect("was resident");
        assert_eq!(ev.addr, a);
        assert!(!c.contains(a));
        assert_eq!(c.invalidate(a), None);
    }

    #[test]
    fn resident_blocks_counts_valid_lines() {
        let mut c = small();
        assert_eq!(c.resident_blocks(), 0);
        c.fill(BlockAddr(0), blk(0), false);
        c.fill(BlockAddr(64), blk(64), false);
        assert_eq!(c.resident_blocks(), 2);
    }

    #[test]
    #[should_panic(expected = "block size mismatch")]
    fn fill_of_a_wrong_sized_block_panics() {
        small().fill(BlockAddr(0), DataBlock::zeroed(4), false);
    }

    #[test]
    #[should_panic(expected = "already-resident")]
    fn double_fill_panics() {
        let mut c = small();
        c.fill(BlockAddr(0), blk(0), false);
        c.fill(BlockAddr(0), blk(0), false);
    }
}
