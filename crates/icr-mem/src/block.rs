//! Cache-block data storage.
//!
//! A [`DataBlock`] keeps its words inline (a fixed array plus a length),
//! so it is `Copy` and building, cloning or returning one never touches
//! the heap. The price is a bound on the block size,
//! [`MAX_BLOCK_BYTES`], which [`CacheGeometry::new`](crate::CacheGeometry::new)
//! enforces for every cache in the hierarchy.

use crate::addr::BlockAddr;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The largest cache block, in bytes, any geometry may use: the inline
/// capacity of a [`DataBlock`]. Every cache in the paper's machine uses
/// 32 or 64 B blocks.
pub const MAX_BLOCK_BYTES: usize = 128;

/// [`MAX_BLOCK_BYTES`] in 64-bit words.
pub const MAX_BLOCK_WORDS: usize = MAX_BLOCK_BYTES / 8;

/// The data payload of one cache block: `block_bytes / 8` 64-bit words,
/// stored inline.
///
/// Lower levels of the hierarchy (L2, DRAM) store plain words; only the
/// ICR-protected dL1 (in `icr-core`) wraps words in check bits. Equality,
/// hashing and `Debug` see only the block's own words, never the unused
/// tail of the inline array.
#[derive(Clone, Copy)]
pub struct DataBlock {
    len: usize,
    words: [u64; MAX_BLOCK_WORDS],
}

impl DataBlock {
    /// A block of `words_per_block` zero words.
    ///
    /// # Panics
    ///
    /// Panics if `words_per_block > MAX_BLOCK_WORDS`.
    pub fn zeroed(words_per_block: usize) -> Self {
        assert!(
            words_per_block <= MAX_BLOCK_WORDS,
            "a block holds at most {MAX_BLOCK_WORDS} words, not {words_per_block}"
        );
        DataBlock {
            len: words_per_block,
            words: [0; MAX_BLOCK_WORDS],
        }
    }

    /// Builds a block from its words.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() > MAX_BLOCK_WORDS`.
    pub fn from_words(words: &[u64]) -> Self {
        let mut block = DataBlock::zeroed(words.len());
        block.words[..words.len()].copy_from_slice(words);
        block
    }

    /// The deterministic "pristine" contents of an untouched memory block:
    /// a cheap address mix so every block has distinctive, reproducible
    /// data without storing the whole address space.
    ///
    /// # Panics
    ///
    /// Panics if `words_per_block > MAX_BLOCK_WORDS`.
    pub fn pristine(addr: BlockAddr, words_per_block: usize) -> Self {
        let mut block = DataBlock::zeroed(words_per_block);
        for (i, w) in block.words[..words_per_block].iter_mut().enumerate() {
            *w = splitmix64(addr.raw().wrapping_add((i as u64).wrapping_mul(8)));
        }
        block
    }

    /// Number of words in the block.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the block holds no words (never the case for blocks made
    /// by this crate's caches, whose blocks are at least 8 bytes).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads word `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn word(&self, i: usize) -> u64 {
        self.words()[i]
    }

    /// Writes word `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set_word(&mut self, i: usize, value: u64) {
        self.words[..self.len][i] = value;
    }

    /// All words, in block order.
    pub fn words(&self) -> &[u64] {
        &self.words[..self.len]
    }
}

impl PartialEq for DataBlock {
    fn eq(&self, other: &Self) -> bool {
        self.words() == other.words()
    }
}

impl Eq for DataBlock {}

impl Hash for DataBlock {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.words().hash(state);
    }
}

impl fmt::Debug for DataBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataBlock")
            .field("words", &self.words())
            .finish()
    }
}

/// SplitMix64 — a tiny, high-quality 64-bit mixer used to derive pristine
/// memory contents from addresses deterministically.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_block_is_all_zero() {
        let b = DataBlock::zeroed(8);
        assert_eq!(b.len(), 8);
        assert!(b.words().iter().all(|&w| w == 0));
    }

    #[test]
    fn pristine_is_deterministic_and_distinctive() {
        let a = DataBlock::pristine(BlockAddr(0x1000), 8);
        let b = DataBlock::pristine(BlockAddr(0x1000), 8);
        let c = DataBlock::pristine(BlockAddr(0x1040), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Words within a block differ from each other.
        assert_ne!(a.word(0), a.word(1));
    }

    #[test]
    fn set_word_roundtrips() {
        let mut b = DataBlock::zeroed(4);
        b.set_word(2, 0xFEED);
        assert_eq!(b.word(2), 0xFEED);
        assert_eq!(b.word(0), 0);
    }

    #[test]
    fn equality_and_debug_ignore_the_inline_tail() {
        let a = DataBlock::from_words(&[1, 2]);
        let mut b = DataBlock::from_words(&[1, 2, 3]);
        assert_ne!(a, b, "lengths differ");
        b = DataBlock::from_words(&b.words()[..2]);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "DataBlock { words: [1, 2] }");
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn words_past_the_length_are_out_of_bounds() {
        DataBlock::zeroed(4).set_word(4, 1);
    }

    #[test]
    #[should_panic(expected = "at most 16 words")]
    fn blocks_beyond_the_bound_panic() {
        DataBlock::zeroed(MAX_BLOCK_WORDS + 1);
    }

    #[test]
    fn splitmix_nonzero_and_spread() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
