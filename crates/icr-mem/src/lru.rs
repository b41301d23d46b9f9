//! Least-recently-used ordering within cache sets.
//!
//! Beyond plain LRU victim selection, ICR's replica placement needs
//! *restricted* LRU — "LRU only amongst the dead blocks", "LRU amongst
//! replicas" — so [`LruArray::victim_among`] selects the LRU way from an
//! eligibility mask. [`LruArray`] keeps the order of every set of a cache
//! in one flat array, and moves a way to the front or back in one pass
//! that shifts the entries in between by one place.

/// The recency order of every set of one cache, in one flat array: set
/// `s`'s ways, most-recently-used first, are entries
/// `s * ways .. (s + 1) * ways`. A cache of any size costs one
/// allocation. For the small associativities of real L1/L2 caches (≤ 16)
/// a short array per set beats any linked structure.
///
/// Each set starts with way 0 as MRU and way `ways - 1` as LRU, so an
/// empty set fills ways in reverse index order, matching hardware that
/// fills invalid ways first by index.
///
/// ```
/// use icr_mem::LruArray;
///
/// let mut lru = LruArray::new(2, 4);
/// lru.touch(1, 3);
/// assert_eq!(lru.mru_to_lru(1), &[3, 0, 1, 2]);
/// assert_eq!(lru.victim(1), 2);
/// assert_eq!(lru.victim(0), 3);          // set 0 is untouched
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LruArray {
    ways: usize,
    /// Way indices of every set, each set most-recently-used first.
    order: Vec<usize>,
}

impl LruArray {
    /// Recency for `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0`.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(ways > 0, "a set must have at least one way");
        LruArray {
            ways,
            order: (0..sets * ways).map(|i| i % ways).collect(),
        }
    }

    #[inline]
    fn set(&self, set: usize) -> &[usize] {
        &self.order[set * self.ways..][..self.ways]
    }

    /// Marks `way` of `set` as most-recently used.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of range.
    #[inline]
    pub fn touch(&mut self, set: usize, way: usize) {
        move_to_front(&mut self.order[set * self.ways..][..self.ways], way);
    }

    /// Marks `way` of `set` as *least*-recently used — used when a block
    /// is demoted (e.g. a replica that should be first in line for
    /// eviction).
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of range.
    pub fn demote(&mut self, set: usize, way: usize) {
        move_to_back(&mut self.order[set * self.ways..][..self.ways], way);
    }

    /// The least-recently-used way of `set`.
    #[inline]
    pub fn victim(&self, set: usize) -> usize {
        self.set(set)[self.ways - 1]
    }

    /// The least-recently-used way of `set` among those where
    /// `eligible[way]` is `true`, or `None` if no way is eligible.
    ///
    /// # Panics
    ///
    /// Panics if `eligible.len()` differs from the number of ways.
    #[inline]
    pub fn victim_among(&self, set: usize, eligible: &[bool]) -> Option<usize> {
        let order = self.set(set);
        assert_eq!(eligible.len(), order.len(), "mask length mismatch");
        order.iter().rev().copied().find(|&w| eligible[w])
    }

    /// The ways of `set` from most- to least-recently used (for
    /// inspection/tests).
    pub fn mru_to_lru(&self, set: usize) -> &[usize] {
        self.set(set)
    }
}

/// Moves `way` to the front of `order` in one pass: each entry before it
/// shifts back by one, in place.
#[inline]
fn move_to_front(order: &mut [usize], way: usize) {
    let mut carry = way;
    for entry in order.iter_mut() {
        let here = std::mem::replace(entry, carry);
        if here == way {
            return;
        }
        carry = here;
    }
    panic!("way out of range");
}

/// Moves `way` to the back of `order`, shifting the entries after it
/// forward by one, in place.
fn move_to_back(order: &mut [usize], way: usize) {
    let mut carry = way;
    for entry in order.iter_mut().rev() {
        let here = std::mem::replace(entry, carry);
        if here == way {
            return;
        }
        carry = here;
    }
    panic!("way out of range");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_order_fills_high_ways_first() {
        let q = LruArray::new(1, 4);
        assert_eq!(q.victim(0), 3);
    }

    #[test]
    fn touch_moves_to_mru() {
        let mut q = LruArray::new(1, 4);
        q.touch(0, 3);
        assert_eq!(q.mru_to_lru(0), &[3, 0, 1, 2]);
        assert_eq!(q.victim(0), 2);
    }

    #[test]
    fn repeated_touch_is_idempotent() {
        let mut q = LruArray::new(1, 4);
        q.touch(0, 1);
        q.touch(0, 1);
        assert_eq!(q.mru_to_lru(0), &[1, 0, 2, 3]);
    }

    #[test]
    fn demote_moves_to_lru() {
        let mut q = LruArray::new(1, 4);
        q.touch(0, 2); // [2,0,1,3]
        q.demote(0, 2);
        assert_eq!(q.victim(0), 2);
    }

    #[test]
    fn victim_among_respects_mask() {
        let mut q = LruArray::new(1, 4);
        // Make order [3,2,1,0]: LRU is 0.
        q.touch(0, 1);
        q.touch(0, 2);
        q.touch(0, 3);
        assert_eq!(q.victim(0), 0);
        // But only ways 2 and 3 are eligible: pick 2 (less recent than 3).
        assert_eq!(q.victim_among(0, &[false, false, true, true]), Some(2));
        assert_eq!(q.victim_among(0, &[false; 4]), None);
        assert_eq!(q.victim_among(0, &[true; 4]), Some(0));
    }

    #[test]
    #[should_panic(expected = "way out of range")]
    fn touching_a_missing_way_panics() {
        LruArray::new(1, 4).touch(0, 4);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        LruArray::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "mask length mismatch")]
    fn wrong_mask_length_panics() {
        LruArray::new(1, 4).victim_among(0, &[true; 3]);
    }
}
