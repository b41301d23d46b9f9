//! Addresses and cache geometry: how a byte address splits into
//! tag / set-index / block-offset for a given cache shape.
//!
//! Every dimension of a [`CacheGeometry`] is a power of two, so the split
//! is shifts and masks: the shift amounts come from `trailing_zeros` of
//! the stored sizes, and distance-k set arithmetic wraps with
//! `& (num_sets - 1)`. The geometry still stores the three sizes
//! themselves, because its `Debug` form is part of the simulation
//! configuration's run-memo key.

use crate::block::MAX_BLOCK_BYTES;
use std::fmt;

/// A byte address in the simulated machine.
///
/// A newtype keeps byte addresses, block addresses and set indices from
/// being mixed up in the replication logic, where "set (m+10) mod N"
/// arithmetic is easy to get wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The raw byte address.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// The address of a cache *block* (the byte address with the offset bits
/// cleared). All cache bookkeeping is done at block granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// The raw (aligned) byte address of the block's first byte.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Index of a set within a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SetIndex(pub usize);

/// Shape of a set-associative cache: total size, associativity, block size.
///
/// ```
/// use icr_mem::CacheGeometry;
///
/// // The paper's dL1: 16KB, 4-way, 64-byte blocks => 64 sets.
/// let g = CacheGeometry::new(16 * 1024, 4, 64);
/// assert_eq!(g.num_sets(), 64);
/// assert_eq!(g.words_per_block(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: usize,
    associativity: usize,
    block_bytes: usize,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes`, `associativity` and `block_bytes` are
    /// powers of two, `8 <= block_bytes <=` [`MAX_BLOCK_BYTES`], and the
    /// cache holds at least one set
    /// (`size_bytes >= associativity * block_bytes`).
    pub fn new(size_bytes: usize, associativity: usize, block_bytes: usize) -> Self {
        assert!(size_bytes.is_power_of_two(), "size must be a power of two");
        assert!(
            associativity.is_power_of_two(),
            "associativity must be a power of two"
        );
        assert!(
            block_bytes.is_power_of_two() && block_bytes >= 8,
            "block size must be a power of two of at least 8 bytes"
        );
        assert!(
            block_bytes <= MAX_BLOCK_BYTES,
            "block size {block_bytes} B exceeds the {MAX_BLOCK_BYTES} B block bound"
        );
        assert!(
            size_bytes >= associativity * block_bytes,
            "cache must hold at least one set"
        );
        CacheGeometry {
            size_bytes,
            associativity,
            block_bytes,
        }
    }

    /// Total capacity in bytes.
    pub fn size_bytes(self) -> usize {
        self.size_bytes
    }

    /// Ways per set.
    pub fn associativity(self) -> usize {
        self.associativity
    }

    /// Block (line) size in bytes.
    pub fn block_bytes(self) -> usize {
        self.block_bytes
    }

    /// Number of sets.
    #[inline]
    pub fn num_sets(self) -> usize {
        self.size_bytes >> (self.associativity.trailing_zeros() + self.block_bits())
    }

    /// Number of 64-bit words in one block.
    #[inline]
    pub fn words_per_block(self) -> usize {
        self.block_bytes >> 3
    }

    /// log2 of the block size: the width of the block-offset field.
    #[inline]
    fn block_bits(self) -> u32 {
        self.block_bytes.trailing_zeros()
    }

    /// log2 of the number of sets: the width of the set-index field.
    #[inline]
    fn set_bits(self) -> u32 {
        self.size_bytes.trailing_zeros() - self.associativity.trailing_zeros() - self.block_bits()
    }

    /// Clears the offset bits of a byte address, yielding its block address.
    #[inline]
    pub fn block_addr(self, addr: Addr) -> BlockAddr {
        BlockAddr(addr.0 & !(self.block_bytes as u64 - 1))
    }

    /// The set a block maps to.
    #[inline]
    pub fn set_index(self, block: BlockAddr) -> SetIndex {
        SetIndex((block.0 >> self.block_bits()) as usize & (self.num_sets() - 1))
    }

    /// The tag of a block (the address bits above the set index).
    #[inline]
    pub fn tag(self, block: BlockAddr) -> u64 {
        block.0 >> (self.block_bits() + self.set_bits())
    }

    /// Index of the 64-bit word within its block that `addr` falls into.
    #[inline]
    pub fn word_index(self, addr: Addr) -> usize {
        ((addr.0 as usize) & (self.block_bytes - 1)) >> 3
    }

    /// Reassembles a block address from a tag and set index (inverse of
    /// [`tag`](Self::tag) + [`set_index`](Self::set_index)).
    #[inline]
    pub fn block_addr_from_parts(self, tag: u64, set: SetIndex) -> BlockAddr {
        BlockAddr(((tag << self.set_bits()) | set.0 as u64) << self.block_bits())
    }

    /// The set at signed distance `k` from `set`, wrapping modulo the number
    /// of sets — the paper's "distance-k" replica placement. The number of
    /// sets divides 2^64, so a wrapping add and a mask give the Euclidean
    /// remainder for every `k`.
    #[inline]
    pub fn set_at_distance(self, set: SetIndex, k: isize) -> SetIndex {
        SetIndex(set.0.wrapping_add(k as usize) & (self.num_sets() - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dl1() -> CacheGeometry {
        CacheGeometry::new(16 * 1024, 4, 64)
    }

    #[test]
    fn paper_dl1_geometry() {
        let g = dl1();
        assert_eq!(g.num_sets(), 64);
        assert_eq!(g.words_per_block(), 8);
        assert_eq!(g.associativity(), 4);
    }

    #[test]
    fn paper_l1i_geometry() {
        let g = CacheGeometry::new(16 * 1024, 1, 32);
        assert_eq!(g.num_sets(), 512);
        assert_eq!(g.words_per_block(), 4);
    }

    #[test]
    fn paper_l2_geometry() {
        let g = CacheGeometry::new(256 * 1024, 4, 64);
        assert_eq!(g.num_sets(), 1024);
    }

    #[test]
    fn block_addr_clears_offset() {
        let g = dl1();
        assert_eq!(g.block_addr(Addr(0x1234)).raw(), 0x1200);
        assert_eq!(g.block_addr(Addr(0x123F)).raw(), 0x1200);
        assert_eq!(g.block_addr(Addr(0x1240)).raw(), 0x1240);
    }

    #[test]
    fn set_index_wraps_by_num_sets() {
        let g = dl1();
        let b0 = g.block_addr(Addr(0));
        let b_same = g.block_addr(Addr(64 * 64)); // one full stride of sets
        assert_eq!(g.set_index(b0), g.set_index(b_same));
        let b1 = g.block_addr(Addr(64));
        assert_eq!(g.set_index(b1).0, 1);
    }

    #[test]
    fn tag_and_set_roundtrip() {
        let g = dl1();
        for raw in [0u64, 64, 0x1240, 0xFFFF_FFC0, 0xDEAD_BEC0] {
            let b = g.block_addr(Addr(raw));
            let t = g.tag(b);
            let s = g.set_index(b);
            assert_eq!(g.block_addr_from_parts(t, s), b, "raw {raw:#x}");
        }
    }

    #[test]
    fn word_index_walks_the_block() {
        let g = dl1();
        assert_eq!(g.word_index(Addr(0x1200)), 0);
        assert_eq!(g.word_index(Addr(0x1208)), 1);
        assert_eq!(g.word_index(Addr(0x123F)), 7);
    }

    #[test]
    fn distance_k_wraps_modulo_sets() {
        let g = dl1(); // 64 sets
        assert_eq!(g.set_at_distance(SetIndex(0), 32).0, 32); // vertical N/2
        assert_eq!(g.set_at_distance(SetIndex(40), 32).0, 8); // wraps
        assert_eq!(g.set_at_distance(SetIndex(5), 0).0, 5); // horizontal
        assert_eq!(g.set_at_distance(SetIndex(0), -1).0, 63); // negative wraps
        assert_eq!(g.set_at_distance(SetIndex(10), -16).0, 58);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_size_panics() {
        CacheGeometry::new(1000, 4, 64);
    }

    #[test]
    fn block_bound_admits_128_byte_blocks() {
        let g = CacheGeometry::new(16 * 1024, 4, MAX_BLOCK_BYTES);
        assert_eq!(g.words_per_block(), 16);
        assert_eq!(g.num_sets(), 32);
    }

    #[test]
    #[should_panic(expected = "exceeds the 128 B block bound")]
    fn geometries_beyond_the_block_bound_panic() {
        CacheGeometry::new(16 * 1024, 4, 2 * MAX_BLOCK_BYTES);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn too_small_cache_panics() {
        CacheGeometry::new(64, 4, 64);
    }
}
