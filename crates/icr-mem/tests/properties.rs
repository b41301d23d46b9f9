//! Property-based tests for the memory substrate: geometry round-trips,
//! LRU ordering invariants, cache capacity bounds and write-buffer bounds
//! must hold for arbitrary access streams.

use icr_mem::{
    AccessKind, Addr, BlockAddr, Cache, CacheGeometry, DataBlock, LruArray, MainMemory, SetIndex,
    WriteBuffer,
};
use proptest::prelude::*;

fn arb_geometry() -> impl Strategy<Value = CacheGeometry> {
    // size 2^9..2^16, assoc 2^0..2^3, block 2^3..2^7, with size >= assoc*block
    (9u32..=16, 0u32..=3, 3u32..=7).prop_filter_map("cache too small", |(s, a, b)| {
        let (size, assoc, block) = (1usize << s, 1usize << a, 1usize << b);
        (size >= assoc * block).then(|| CacheGeometry::new(size, assoc, block))
    })
}

proptest! {
    /// tag + set index fully determine the block address.
    #[test]
    fn geometry_tag_set_roundtrip(g in arb_geometry(), raw: u64) {
        let b = g.block_addr(Addr(raw));
        let reassembled = g.block_addr_from_parts(g.tag(b), g.set_index(b));
        prop_assert_eq!(reassembled, b);
    }

    /// Block addresses are aligned and contain their byte address.
    #[test]
    fn block_addr_alignment(g in arb_geometry(), raw: u64) {
        let b = g.block_addr(Addr(raw));
        prop_assert_eq!(b.raw() % g.block_bytes() as u64, 0);
        prop_assert!(b.raw() <= raw);
        prop_assert!(raw - b.raw() < g.block_bytes() as u64);
    }

    /// distance-k placement always lands in a valid set, and distance-0 is
    /// the identity (the paper's "horizontal replication").
    #[test]
    fn distance_k_stays_in_range(g in arb_geometry(), set_raw: usize, k in -1000isize..1000) {
        let set = SetIndex(set_raw % g.num_sets());
        let target = g.set_at_distance(set, k);
        prop_assert!(target.0 < g.num_sets());
        prop_assert_eq!(g.set_at_distance(set, 0), set);
        // Moving +k then -k returns home.
        prop_assert_eq!(g.set_at_distance(target, -k), set);
    }

    /// After any sequence of touches, the LRU order is a permutation of the
    /// ways and `touch(w)` makes `w` the MRU.
    #[test]
    fn lru_order_is_permutation(ways in 1usize..8, touches in prop::collection::vec(0usize..8, 0..64)) {
        let mut q = LruArray::new(1, ways);
        for t in touches {
            let w = t % ways;
            q.touch(0, w);
            prop_assert_eq!(q.mru_to_lru(0)[0], w);
        }
        let mut seen = q.mru_to_lru(0).to_vec();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..ways).collect::<Vec<_>>());
    }

    /// victim_among returns an eligible way that is no more recent than any
    /// other eligible way.
    #[test]
    fn victim_among_is_lru_of_eligible(
        ways in 2usize..8,
        touches in prop::collection::vec(0usize..8, 0..32),
        mask_bits in 0u8..=255,
    ) {
        let mut q = LruArray::new(1, ways);
        for t in touches {
            q.touch(0, t % ways);
        }
        let mask: Vec<bool> = (0..ways).map(|w| mask_bits & (1 << w) != 0).collect();
        match q.victim_among(0, &mask) {
            None => prop_assert!(mask.iter().all(|&e| !e)),
            Some(v) => {
                prop_assert!(mask[v]);
                // No eligible way appears after v in MRU→LRU order.
                let pos = q.mru_to_lru(0).iter().position(|&w| w == v).unwrap();
                for &w in &q.mru_to_lru(0)[pos + 1..] {
                    prop_assert!(!mask[w], "way {} is eligible and older", w);
                }
            }
        }
    }

    /// A cache never holds more blocks than its capacity, and a block just
    /// filled is resident.
    #[test]
    fn cache_capacity_bound(accesses in prop::collection::vec(0u64..64, 1..200)) {
        let g = CacheGeometry::new(512, 2, 64); // 4 sets, 2 ways
        let mut c = Cache::new(g, 1);
        let capacity = g.num_sets() * g.associativity();
        for a in accesses {
            let block = g.block_addr(Addr(a * 64));
            if !c.lookup(block, AccessKind::Read) {
                c.fill(block, DataBlock::pristine(block, g.words_per_block()), false);
            }
            prop_assert!(c.contains(block));
            prop_assert!(c.resident_blocks() <= capacity);
        }
    }

    /// Dirty data survives eviction: write a word, force eviction through
    /// conflict fills, and the evicted block carries the written value.
    #[test]
    fn dirty_eviction_carries_data(value: u64, word in 0usize..8) {
        let g = CacheGeometry::new(128, 1, 64); // 2 sets, direct-mapped
        let mut c = Cache::new(g, 1);
        let a = BlockAddr(0);
        c.fill(a, DataBlock::zeroed(8), false);
        c.write_word(a, word, value);
        let ev = c.fill(BlockAddr(128), DataBlock::zeroed(8), false).unwrap();
        prop_assert_eq!(ev.addr, a);
        prop_assert!(ev.dirty);
        prop_assert_eq!(ev.data.word(word), value);
    }

    /// Memory read-your-writes for arbitrary write sequences.
    #[test]
    fn memory_read_your_writes(writes in prop::collection::vec((0u64..32, any::<u64>()), 1..50)) {
        let mut m = MainMemory::new(8, 100);
        let mut last = std::collections::HashMap::new();
        for (blk, val) in writes {
            let addr = BlockAddr(blk * 64);
            let mut d = DataBlock::zeroed(8);
            d.set_word(0, val);
            m.write_block(addr, d);
            last.insert(addr, val);
        }
        for (addr, val) in last {
            prop_assert_eq!(m.read_block(addr).0.word(0), val);
        }
    }

    /// The write buffer never exceeds capacity and never reports stalls
    /// when it has room.
    #[test]
    fn write_buffer_bounds(
        capacity in 1usize..8,
        pushes in prop::collection::vec((0u64..1000, 0u64..16), 1..100),
    ) {
        let mut wb = WriteBuffer::new(capacity, 6);
        let mut now = 0u64;
        for (dt, blk) in pushes {
            now += dt;
            let before = wb.occupancy();
            let stall = wb.push(now, BlockAddr(blk * 64));
            if before < capacity {
                prop_assert_eq!(stall, 0);
            }
            prop_assert!(wb.occupancy() <= capacity);
        }
        prop_assert!(wb.coalesced() <= wb.pushes());
    }
}

/// Test-only copy of the per-line `Cache` and `LruQueue` the flat layout
/// replaced (one `Vec<Line>` and one recency `Vec` per set, `remove` +
/// `insert` move-to-front). The equivalence properties below drive it
/// beside the real types and require identical observable behaviour.
mod per_line {
    use icr_mem::{AccessKind, BlockAddr, CacheGeometry, CacheStats, DataBlock, Evicted, SetIndex};

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct LruQueue {
        order: Vec<usize>,
    }

    impl LruQueue {
        pub fn new(ways: usize) -> Self {
            assert!(ways > 0, "a set must have at least one way");
            LruQueue {
                order: (0..ways).collect(),
            }
        }

        pub fn touch(&mut self, way: usize) {
            let pos = self
                .order
                .iter()
                .position(|&w| w == way)
                .expect("way out of range");
            let w = self.order.remove(pos);
            self.order.insert(0, w);
        }

        pub fn demote(&mut self, way: usize) {
            let pos = self
                .order
                .iter()
                .position(|&w| w == way)
                .expect("way out of range");
            let w = self.order.remove(pos);
            self.order.push(w);
        }

        pub fn victim(&self) -> usize {
            *self.order.last().expect("non-empty by construction")
        }

        pub fn victim_among(&self, eligible: &[bool]) -> Option<usize> {
            assert_eq!(eligible.len(), self.order.len(), "mask length mismatch");
            self.order.iter().rev().copied().find(|&w| eligible[w])
        }

        pub fn mru_to_lru(&self) -> &[usize] {
            &self.order
        }
    }

    #[derive(Debug, Clone)]
    struct Line {
        valid: bool,
        dirty: bool,
        tag: u64,
        data: DataBlock,
    }

    #[derive(Debug, Clone)]
    struct Set {
        lines: Vec<Line>,
        lru: LruQueue,
    }

    #[derive(Debug, Clone)]
    pub struct Cache {
        geometry: CacheGeometry,
        sets: Vec<Set>,
        stats: CacheStats,
    }

    impl Cache {
        pub fn new(geometry: CacheGeometry) -> Self {
            let ways = geometry.associativity();
            let words = geometry.words_per_block();
            let sets = (0..geometry.num_sets())
                .map(|_| Set {
                    lines: (0..ways)
                        .map(|_| Line {
                            valid: false,
                            dirty: false,
                            tag: 0,
                            data: DataBlock::zeroed(words),
                        })
                        .collect(),
                    lru: LruQueue::new(ways),
                })
                .collect();
            Cache {
                geometry,
                sets,
                stats: CacheStats::default(),
            }
        }

        pub fn stats(&self) -> &CacheStats {
            &self.stats
        }

        fn set_of(&self, addr: BlockAddr) -> SetIndex {
            self.geometry.set_index(addr)
        }

        fn find_way(&self, addr: BlockAddr) -> Option<usize> {
            let tag = self.geometry.tag(addr);
            let set = &self.sets[self.set_of(addr).0];
            set.lines.iter().position(|l| l.valid && l.tag == tag)
        }

        pub fn contains(&self, addr: BlockAddr) -> bool {
            self.find_way(addr).is_some()
        }

        pub fn lookup(&mut self, addr: BlockAddr, kind: AccessKind) -> bool {
            let hit = self.find_way(addr);
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
            if let Some(way) = hit {
                let set_idx = self.set_of(addr).0;
                let set = &mut self.sets[set_idx];
                set.lru.touch(way);
                if kind == AccessKind::Write {
                    set.lines[way].dirty = true;
                }
                true
            } else {
                false
            }
        }

        pub fn read_word(&mut self, addr: BlockAddr, word: usize) -> Option<u64> {
            let way = self.find_way(addr)?;
            let set_idx = self.set_of(addr).0;
            let set = &mut self.sets[set_idx];
            set.lru.touch(way);
            Some(set.lines[way].data.word(word))
        }

        pub fn write_word(&mut self, addr: BlockAddr, word: usize, value: u64) -> bool {
            let Some(way) = self.find_way(addr) else {
                return false;
            };
            let set_idx = self.set_of(addr).0;
            let set = &mut self.sets[set_idx];
            set.lru.touch(way);
            set.lines[way].data.set_word(word, value);
            set.lines[way].dirty = true;
            true
        }

        pub fn peek_block(&self, addr: BlockAddr) -> Option<&DataBlock> {
            let way = self.find_way(addr)?;
            Some(&self.sets[self.set_of(addr).0].lines[way].data)
        }

        pub fn update_block(&mut self, addr: BlockAddr, data: DataBlock) -> bool {
            let Some(way) = self.find_way(addr) else {
                return false;
            };
            let set_idx = self.set_of(addr).0;
            let set = &mut self.sets[set_idx];
            set.lru.touch(way);
            set.lines[way].data = data;
            set.lines[way].dirty = true;
            true
        }

        pub fn fill(&mut self, addr: BlockAddr, data: DataBlock, dirty: bool) -> Option<Evicted> {
            assert!(
                self.find_way(addr).is_none(),
                "fill of already-resident block {addr}"
            );
            self.stats.fills += 1;
            let tag = self.geometry.tag(addr);
            let set_idx = self.set_of(addr).0;
            let geometry = self.geometry;
            let set = &mut self.sets[set_idx];

            let way = match set.lines.iter().position(|l| !l.valid) {
                Some(w) => w,
                None => set.lru.victim(),
            };
            let line = &mut set.lines[way];
            let evicted = if line.valid {
                self.stats.evictions += 1;
                if line.dirty {
                    self.stats.writebacks += 1;
                }
                Some(Evicted {
                    addr: geometry.block_addr_from_parts(line.tag, SetIndex(set_idx)),
                    data: std::mem::replace(&mut line.data, DataBlock::zeroed(0)),
                    dirty: line.dirty,
                })
            } else {
                None
            };
            *line = Line {
                valid: true,
                dirty,
                tag,
                data,
            };
            set.lru.touch(way);
            evicted
        }

        pub fn invalidate(&mut self, addr: BlockAddr) -> Option<Evicted> {
            let way = self.find_way(addr)?;
            let set_idx = self.set_of(addr).0;
            let geometry = self.geometry;
            let set = &mut self.sets[set_idx];
            let line = &mut set.lines[way];
            line.valid = false;
            Some(Evicted {
                addr: geometry.block_addr_from_parts(line.tag, SetIndex(set_idx)),
                data: std::mem::replace(
                    &mut line.data,
                    DataBlock::zeroed(geometry.words_per_block()),
                ),
                dirty: std::mem::take(&mut line.dirty),
            })
        }

        pub fn resident_blocks(&self) -> usize {
            self.sets
                .iter()
                .map(|s| s.lines.iter().filter(|l| l.valid).count())
                .sum()
        }
    }
}

/// An eviction record reduced to plain values, so records from the
/// per-line copy and the real cache compare field by field.
fn evicted_parts(e: Option<icr_mem::Evicted>) -> Option<(BlockAddr, Vec<u64>, bool)> {
    e.map(|e| (e.addr, e.data.words().to_vec(), e.dirty))
}

/// A deterministic block payload distinct per (address, salt).
fn payload(block: BlockAddr, salt: u64) -> DataBlock {
    let mut d = DataBlock::zeroed(8);
    for i in 0..8 {
        d.set_word(
            i,
            icr_mem::splitmix64(block.raw() ^ salt.rotate_left(i as u32 * 7)),
        );
    }
    d
}

proptest! {
    /// The flat-array `Cache` is observably identical to the per-line
    /// layout it replaced: same return values, eviction records
    /// (address, data, dirty), resident count and statistics after every
    /// operation of an arbitrary stream over 64 B geometries of 1–8 ways.
    #[test]
    fn flat_cache_matches_per_line_cache(
        ways_log in 0u32..=3,
        sets_log in 0u32..=3,
        ops in prop::collection::vec(
            (0u8..7, 0u64..48, 0usize..8, any::<u64>(), any::<bool>()),
            1..300,
        ),
    ) {
        let ways = 1usize << ways_log;
        let g = CacheGeometry::new(ways * 64 << sets_log, ways, 64);
        let mut new = Cache::new(g, 3);
        let mut old = per_line::Cache::new(g);
        for (op, blk, word, value, flag) in ops {
            let a = BlockAddr(blk * 64);
            match op {
                0 => {
                    let kind = if flag { AccessKind::Write } else { AccessKind::Read };
                    prop_assert_eq!(new.lookup(a, kind), old.lookup(a, kind));
                }
                1 => prop_assert_eq!(new.read_word(a, word), old.read_word(a, word)),
                2 => prop_assert_eq!(new.write_word(a, word, value), old.write_word(a, word, value)),
                3 => {
                    let d = payload(a, value);
                    prop_assert_eq!(new.update_block(a, d.clone()), old.update_block(a, d));
                }
                4 => {
                    // A fill implies a prior miss: both caches panic on a
                    // resident block, so fill only absent ones.
                    prop_assert_eq!(new.contains(a), old.contains(a));
                    if !old.contains(a) {
                        let d = payload(a, value);
                        prop_assert_eq!(
                            evicted_parts(new.fill(a, d.clone(), flag)),
                            evicted_parts(old.fill(a, d, flag))
                        );
                    }
                }
                5 => prop_assert_eq!(evicted_parts(new.invalidate(a)), evicted_parts(old.invalidate(a))),
                _ => prop_assert_eq!(
                    new.peek_block(a).map(|d| d.words().to_vec()),
                    old.peek_block(a).map(|d| d.words().to_vec())
                ),
            }
            prop_assert_eq!(new.resident_blocks(), old.resident_blocks());
            prop_assert_eq!(new.stats(), old.stats());
        }
    }

    /// Distance-k placement is exactly `(set + k) mod num_sets`, computed
    /// without overflow in `i128`, for every geometry and every distance
    /// in ±4096.
    #[test]
    fn distance_k_matches_wide_rem_euclid(g in arb_geometry(), set_raw: usize, k in -4096isize..=4096) {
        let n = g.num_sets() as i128;
        let set = SetIndex(set_raw % g.num_sets());
        let expected = (set.0 as i128 + k as i128).rem_euclid(n) as usize;
        prop_assert_eq!(g.set_at_distance(set, k).0, expected);
    }

    /// The set index, tag and word index are the division forms of the
    /// address split, for every geometry.
    #[test]
    fn address_split_matches_division(g in arb_geometry(), raw: u64) {
        let b = g.block_addr(Addr(raw));
        let block_bytes = g.block_bytes() as u64;
        let sets = g.num_sets() as u64;
        prop_assert_eq!(g.num_sets(), g.size_bytes() / (g.associativity() * g.block_bytes()));
        prop_assert_eq!(g.set_index(b).0 as u64, b.raw() / block_bytes % sets);
        prop_assert_eq!(g.tag(b), b.raw() / block_bytes / sets);
        prop_assert_eq!(g.word_index(Addr(raw)) as u64, raw % block_bytes / 8);
    }

    /// The flat in-place move-to-front recency gives every set the same
    /// order, victim and restricted victims as its own `remove` + `insert`
    /// queue, under arbitrary touches and demotions.
    #[test]
    fn flat_recency_sets_match_remove_insert_queues(
        sets in 1usize..=8,
        ways in 1usize..=16,
        ops in prop::collection::vec((any::<bool>(), 0usize..8, 0usize..16, any::<u16>()), 0..128),
    ) {
        let mut flat = LruArray::new(sets, ways);
        let mut queues = vec![per_line::LruQueue::new(ways); sets];
        for (demote, s, w, mask_bits) in ops {
            let (set, way) = (s % sets, w % ways);
            if demote {
                flat.demote(set, way);
                queues[set].demote(way);
            } else {
                flat.touch(set, way);
                queues[set].touch(way);
            }
            let mask: Vec<bool> = (0..ways).map(|i| mask_bits & (1 << i) != 0).collect();
            for (i, q) in queues.iter().enumerate() {
                prop_assert_eq!(flat.mru_to_lru(i), q.mru_to_lru());
                prop_assert_eq!(flat.victim(i), q.victim());
                prop_assert_eq!(flat.victim_among(i, &mask), q.victim_among(&mask));
            }
        }
    }
}
