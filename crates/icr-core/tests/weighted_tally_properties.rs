//! Property tests for [`WeightedTally`] shard merging: the algebra the
//! importance-sampled campaign rests on. The weighted sums are plain
//! `f64` additions, so the tests draw *dyadic* weights (multiples of
//! 1/1024 up to 64): every partial sum of `w` and `w²` is then exactly
//! representable, addition is associative on the nose, and the merge
//! algebra can be pinned bit-for-bit — the same guarantee the campaign
//! gets by fixing its accumulation order.

use icr_core::{ErrorOutcome, OutcomeTally, WeightedTally};
use proptest::prelude::*;

/// A trial outcome drawn uniformly from the full taxonomy.
fn arb_outcome() -> impl Strategy<Value = ErrorOutcome> {
    prop::sample::select(ErrorOutcome::ALL.to_vec())
}

/// One weighted trial: an outcome and a dyadic likelihood ratio
/// `k/1024` with `k` in `[1, 65536]` (weights in `(0, 64]`, the same
/// range the injection proposal clamps to).
fn arb_weighted_trial() -> impl Strategy<Value = (ErrorOutcome, u32)> {
    (arb_outcome(), 1u32..=65_536)
}

fn arb_trials() -> impl Strategy<Value = Vec<(ErrorOutcome, u32)>> {
    prop::collection::vec(arb_weighted_trial(), 0..200)
}

fn weight_of(k: u32) -> f64 {
    f64::from(k) / 1024.0
}

fn tally_of(trials: &[(ErrorOutcome, u32)]) -> WeightedTally {
    let mut t = WeightedTally::default();
    for &(o, k) in trials {
        t.record(o, weight_of(k));
    }
    t
}

/// The outcome counts of the same trials, which the campaign keeps in
/// the cell's [`OutcomeTally`].
fn counts_of(trials: &[(ErrorOutcome, u32)]) -> OutcomeTally {
    let mut t = OutcomeTally::default();
    for &(o, _) in trials {
        t.record(o);
    }
    t
}

proptest! {
    /// merge(a, merge(b, c)) == merge(merge(a, b), c), bit-for-bit.
    #[test]
    fn merge_is_associative(a in arb_trials(), b in arb_trials(), c in arb_trials()) {
        let (ta, tb, tc) = (tally_of(&a), tally_of(&b), tally_of(&c));
        let mut left = ta;
        let mut bc = tb;
        bc.merge(&tc);
        left.merge(&bc);
        let mut right = ta;
        right.merge(&tb);
        right.merge(&tc);
        prop_assert_eq!(left, right);
    }

    /// merge(a, b) == merge(b, a) — worker checkpoint directories can
    /// be handed to the merge in any order.
    #[test]
    fn merge_is_commutative(a in arb_trials(), b in arb_trials()) {
        let (ta, tb) = (tally_of(&a), tally_of(&b));
        let mut ab = ta;
        ab.merge(&tb);
        let mut ba = tb;
        ba.merge(&ta);
        prop_assert_eq!(ab, ba);
    }

    /// Any partition of a weighted trial sequence into contiguous
    /// shards merges back to exactly the single-process tally, and the
    /// self-normalized estimate agrees bit-for-bit.
    #[test]
    fn randomized_shard_splits_reproduce_the_whole(
        trials in arb_trials(),
        shard_size in 1usize..64,
    ) {
        let whole = tally_of(&trials);
        let mut merged = WeightedTally::default();
        for shard in trials.chunks(shard_size) {
            merged.merge(&tally_of(shard));
        }
        prop_assert_eq!(merged, whole);
        let (me, we) = (merged.survived_estimate(), whole.survived_estimate());
        prop_assert_eq!(me.p.to_bits(), we.p.to_bits(), "estimates must agree bit-for-bit");
        prop_assert_eq!(me.n_eff.to_bits(), we.n_eff.to_bits());
    }

    /// Every recorded tally — and every merge of recorded tallies —
    /// satisfies the internal consistency contract the checkpoint
    /// reader and the campaign's conservation check enforce.
    #[test]
    fn recorded_tallies_are_always_consistent(a in arb_trials(), b in arb_trials()) {
        let (mut t, mut counts) = (tally_of(&a), counts_of(&a));
        prop_assert!(t.check_consistent(&counts).is_ok());
        t.merge(&tally_of(&b));
        counts.merge(&counts_of(&b));
        prop_assert!(t.check_consistent(&counts).is_ok());
    }

    /// With all weights 1 the weighted estimator degenerates to the
    /// plain tally: the same survived fraction, and an effective sample
    /// size equal to the injected trial count.
    #[test]
    fn uniform_weights_reproduce_the_unweighted_tally(
        outcomes in prop::collection::vec(arb_outcome(), 1..200),
    ) {
        let mut plain = OutcomeTally::default();
        let mut weighted = WeightedTally::default();
        for &o in &outcomes {
            plain.record(o);
            weighted.record(o, 1.0);
        }
        let est = weighted.survived_estimate();
        if plain.injected() > 0 {
            let p = plain.survived_count() as f64 / plain.injected() as f64;
            prop_assert!((est.p - p).abs() <= 1e-12, "p {} vs {}", est.p, p);
            let n = plain.injected() as f64;
            prop_assert!(
                (est.n_eff - n).abs() <= n * 1e-9,
                "uniform n_eff {} must equal the injected count {}",
                est.n_eff,
                n
            );
        } else {
            prop_assert_eq!(est.p, 0.0);
            prop_assert_eq!(est.n_eff, 0.0);
        }
    }

    /// `from_parts` round-trips the accessor pair exactly.
    #[test]
    fn from_parts_round_trips(trials in arb_trials()) {
        let t = tally_of(&trials);
        let r = WeightedTally::from_parts(t.weights(), t.weight_squares());
        prop_assert_eq!(r, t);
    }
}
