//! The Kim–Somani duplication cache — the *area-cost* alternative ICR is
//! pitched against.
//!
//! Kim & Somani ("Area efficient architectures for information integrity
//! in cache memories", ISCA 1999 — the paper's reference \[11\]) add a **small
//! separate cache** that keeps duplicates of recently used/written L1
//! data; a parity error in the main array recovers from the duplicate.
//! The ICR paper's §5.2 argument is that hot data "gets automatically
//! replicated (we do not need a separate cache for achieving this compared
//! to that needed by \[11\])" — same coverage, zero extra area.
//!
//! This module implements the comparison point: a fully-associative,
//! LRU-replaced duplicate store, written on every dL1 store, consulted on
//! parity failures. The `dupcache` experiment sweeps its size against
//! ICR's zero-area coverage.

use icr_ecc::{ProtectedWord, Protection};
use icr_mem::BlockAddr;

/// A small fully-associative duplicate store (the Kim–Somani R-cache).
///
/// Duplicates keep their words in one flat array of physical slots; a
/// separate slot list orders them most-recently-used first, so the
/// public index of a duplicate (as [`flip_data_bit`](Self::flip_data_bit)
/// takes it) is its MRU position, and reordering moves slot numbers, not
/// words.
#[derive(Debug, Clone)]
pub struct DuplicationCache {
    capacity: usize,
    words_per_block: usize,
    /// Physical slots: `order[..len]` hold duplicates, MRU first;
    /// `order[len..]` are free.
    order: Vec<usize>,
    len: usize,
    /// The block each occupied physical slot duplicates.
    blocks: Vec<BlockAddr>,
    /// Word `i` of physical slot `s` is `words[s * words_per_block + i]`.
    words: Vec<ProtectedWord>,
    writes: u64,
    hits: u64,
    probes: u64,
}

impl DuplicationCache {
    /// A duplicate store holding `capacity` blocks of `words_per_block`
    /// words.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, words_per_block: usize) -> Self {
        assert!(capacity > 0, "duplication cache needs at least one block");
        DuplicationCache {
            capacity,
            words_per_block,
            order: (0..capacity).collect(),
            len: 0,
            blocks: vec![BlockAddr(0); capacity],
            words: vec![ProtectedWord::default(); capacity * words_per_block],
            writes: 0,
            hits: 0,
            probes: 0,
        }
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Blocks currently duplicated.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing has been duplicated yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The MRU position of `block`'s duplicate, if held.
    fn position(&self, block: BlockAddr) -> Option<usize> {
        self.order[..self.len]
            .iter()
            .position(|&slot| self.blocks[slot] == block)
    }

    /// The words of the duplicate at MRU position `index`.
    fn words_mut(&mut self, index: usize) -> &mut [ProtectedWord] {
        let wpb = self.words_per_block;
        &mut self.words[self.order[index] * wpb..][..wpb]
    }

    /// Records a duplicate of `block`'s `data` words (called on every dL1
    /// store), LRU evicting the oldest duplicate when full.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not one block of this cache's size.
    pub fn record(&mut self, block: BlockAddr, data: &[u64]) {
        assert_eq!(data.len(), self.words_per_block, "block size mismatch");
        self.writes += 1;
        let pos = match self.position(block) {
            Some(pos) => pos,
            None if self.len == self.capacity => self.len - 1,
            None => {
                self.len += 1;
                self.len - 1
            }
        };
        self.order[..=pos].rotate_right(1);
        self.blocks[self.order[0]] = block;
        for (w, &value) in self.words_mut(0).iter_mut().zip(data) {
            *w = ProtectedWord::encode(value, Protection::Parity);
        }
    }

    /// Updates a single word of an existing duplicate, if present.
    pub fn update_word(&mut self, block: BlockAddr, word: usize, value: u64) -> bool {
        let Some(pos) = self.position(block) else {
            return false;
        };
        self.words_mut(pos)[word] = ProtectedWord::encode(value, Protection::Parity);
        self.order[..=pos].rotate_right(1);
        true
    }

    /// Looks up the duplicate of `block` and verifies `word`; returns the
    /// word's value when the duplicate is present and passes its own
    /// parity check. Counts a probe either way.
    pub fn recover(&mut self, block: BlockAddr, word: usize) -> Option<u64> {
        self.probes += 1;
        let pos = self.position(block)?;
        let mut w = self.words_mut(pos)[word];
        if w.check_and_correct().data_is_good() {
            self.hits += 1;
            Some(w.data())
        } else {
            None
        }
    }

    /// `true` if a duplicate of `block` is currently held (no counters).
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.position(block).is_some()
    }

    /// Invalidates the duplicate of `block`, if any.
    pub fn invalidate(&mut self, block: BlockAddr) {
        if let Some(pos) = self.position(block) {
            self.order[pos..self.len].rotate_left(1);
            self.len -= 1;
        }
    }

    /// Duplicates written (one per recorded store block).
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Recovery probes that found a usable duplicate.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Recovery probes made.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Flips a data bit in the duplicate at MRU position `index` (fault
    /// injection).
    pub fn flip_data_bit(&mut self, index: usize, word: usize, bit: u32) -> bool {
        if index >= self.len {
            return false;
        }
        self.words_mut(index)[word].flip_data_bit(bit);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icr_mem::DataBlock;

    fn blk(addr: u64) -> (BlockAddr, DataBlock) {
        let a = BlockAddr(addr);
        (a, DataBlock::pristine(a, 8))
    }

    fn dup(capacity: usize) -> DuplicationCache {
        DuplicationCache::new(capacity, 8)
    }

    #[test]
    fn records_and_recovers() {
        let mut d = dup(4);
        let (a, data) = blk(0x1000);
        d.record(a, data.words());
        assert_eq!(d.recover(a, 3), Some(data.word(3)));
        assert_eq!(d.hits(), 1);
    }

    #[test]
    fn lru_evicts_oldest_duplicate() {
        let mut d = dup(2);
        let (a, da) = blk(0x1000);
        let (b, db) = blk(0x2000);
        let (c, dc) = blk(0x3000);
        d.record(a, da.words());
        d.record(b, db.words());
        d.record(c, dc.words()); // evicts a
        assert!(!d.contains(a));
        assert!(d.contains(b));
        assert!(d.contains(c));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn rerecording_refreshes_recency() {
        let mut d = dup(2);
        let (a, da) = blk(0x1000);
        let (b, db) = blk(0x2000);
        let (c, dc) = blk(0x3000);
        d.record(a, da.words());
        d.record(b, db.words());
        d.record(a, da.words()); // a is MRU again
        d.record(c, dc.words()); // evicts b
        assert!(d.contains(a));
        assert!(!d.contains(b));
    }

    #[test]
    fn update_word_keeps_duplicate_coherent() {
        let mut d = dup(2);
        let (a, da) = blk(0x1000);
        d.record(a, da.words());
        assert!(d.update_word(a, 2, 0xFEED));
        assert_eq!(d.recover(a, 2), Some(0xFEED));
        assert!(!d.update_word(BlockAddr(0x9000), 0, 1), "absent block");
    }

    #[test]
    fn corrupted_duplicate_refuses_to_recover() {
        let mut d = dup(2);
        let (a, da) = blk(0x1000);
        d.record(a, da.words());
        assert!(d.flip_data_bit(0, 5, 17));
        assert_eq!(d.recover(a, 5), None, "bad duplicate must not be used");
        assert_eq!(d.hits(), 0);
    }

    #[test]
    fn invalidate_removes_duplicate() {
        let mut d = dup(2);
        let (a, da) = blk(0x1000);
        d.record(a, da.words());
        d.invalidate(a);
        assert!(d.is_empty());
        assert_eq!(d.recover(a, 0), None);
    }

    #[test]
    fn indices_follow_mru_order_across_reuse() {
        let mut d = dup(3);
        let (a, da) = blk(0x1000);
        let (b, db) = blk(0x2000);
        let (c, dc) = blk(0x3000);
        d.record(a, da.words());
        d.record(b, db.words());
        d.record(c, dc.words()); // MRU order: c, b, a
        d.invalidate(b); // c, a — b's slot is free again
        assert_eq!(d.len(), 2);
        let (e, de) = blk(0x4000);
        d.record(e, de.words()); // e, c, a
        assert!(d.update_word(a, 0, 7)); // a, e, c
                                         // Index 2 is now c: a flip there corrupts c only.
        assert!(d.flip_data_bit(2, 1, 5));
        assert_eq!(d.recover(c, 1), None);
        assert_eq!(d.recover(e, 1), Some(de.word(1)));
        assert_eq!(d.recover(a, 0), Some(7));
        assert!(!d.flip_data_bit(3, 0, 0), "index past the held duplicates");
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_capacity_panics() {
        dup(0);
    }
}
