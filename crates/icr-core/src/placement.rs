//! Where replicas go: the paper's "distance-k" placement family with its
//! fallback strategies (§3.1, "Where do we replicate?" / "How aggressively
//! should we replicate?").

use icr_mem::{CacheGeometry, SetIndex};

/// Replica-placement policy: an ordered list of set distances to try, and
/// how many replicas to maintain.
///
/// * the paper's default ("vertical") is a single attempt at distance N/2;
/// * "horizontal" is distance 0 (within the home set);
/// * the multi-attempt variant of Figures 1–2 tries N/2 then N/4;
/// * the two-replica variant of Figures 3–4 keeps replica 1 at N/2 and
///   replica 2 at N/4;
/// * `power2` generates the paper's k, k±k/2, … fallback chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementPolicy {
    /// Set distances to try, in order.
    pub attempts: Vec<isize>,
    /// Maximum replicas of one block to maintain (paper: 1, Fig. 3–4: 2).
    pub max_replicas: usize,
}

impl PlacementPolicy {
    /// Vertical replication: one attempt at distance N/2 (the default the
    /// paper fixes after §5.1).
    pub fn vertical(geometry: CacheGeometry) -> Self {
        PlacementPolicy {
            attempts: vec![(geometry.num_sets() / 2) as isize],
            max_replicas: 1,
        }
    }

    /// Horizontal replication: distance 0, i.e. within the ways of the
    /// home set (Figure 5's comparison point).
    pub fn horizontal() -> Self {
        PlacementPolicy {
            attempts: vec![0],
            max_replicas: 1,
        }
    }

    /// A single attempt at an arbitrary distance (e.g. the paper's
    /// distance-7 prime experiment).
    pub fn single(distance: isize) -> Self {
        PlacementPolicy {
            attempts: vec![distance],
            max_replicas: 1,
        }
    }

    /// The multi-attempt single-replica policy of Figures 1–2:
    /// try N/2, then N/4.
    pub fn multi_attempt(geometry: CacheGeometry) -> Self {
        let n = geometry.num_sets() as isize;
        PlacementPolicy {
            attempts: vec![n / 2, n / 4],
            max_replicas: 1,
        }
    }

    /// The two-replica policy of Figures 3–4: replica 1 at N/2, replica 2
    /// at N/4.
    pub fn two_replicas(geometry: CacheGeometry) -> Self {
        let n = geometry.num_sets() as isize;
        PlacementPolicy {
            attempts: vec![n / 2, n / 4],
            max_replicas: 2,
        }
    }

    /// The "power-2" fallback of §3.1: k, then k ± k/2, then k ± k/4, …,
    /// up to `tries` attempts (single replica).
    ///
    /// # Panics
    ///
    /// Panics if `base_k <= 0` or `tries == 0`.
    pub fn power2(base_k: isize, tries: usize) -> Self {
        assert!(base_k > 0, "power-2 needs a positive base distance");
        assert!(tries > 0, "power-2 needs at least one attempt");
        let mut attempts = vec![base_k];
        let mut delta = base_k / 2;
        while attempts.len() < tries && delta > 0 {
            attempts.push(base_k + delta);
            if attempts.len() < tries {
                attempts.push(base_k - delta);
            }
            delta /= 2;
        }
        attempts.truncate(tries);
        PlacementPolicy {
            attempts,
            max_replicas: 1,
        }
    }

    /// The candidate sets for the replicas of a block whose primary lives
    /// in `home`, in attempt order.
    pub fn candidate_sets(&self, geometry: CacheGeometry, home: SetIndex) -> Vec<SetIndex> {
        (0..self.attempts.len())
            .map(|attempt| self.candidate_set(geometry, home, attempt))
            .collect()
    }

    /// The candidate set of the `attempt`-th placement attempt for a block
    /// whose primary lives in `home`. Per-access paths index attempts
    /// through this rather than collect [`Self::candidate_sets`].
    ///
    /// # Panics
    ///
    /// Panics if `attempt` is not below the number of attempts.
    #[inline]
    pub fn candidate_set(
        &self,
        geometry: CacheGeometry,
        home: SetIndex,
        attempt: usize,
    ) -> SetIndex {
        geometry.set_at_distance(home, self.attempts[attempt])
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.attempts.is_empty() {
            return Err("placement needs at least one attempt distance".into());
        }
        if self.max_replicas == 0 {
            return Err("max_replicas must be at least 1".into());
        }
        if self.max_replicas > self.attempts.len() {
            return Err("cannot maintain more replicas than attempt distances".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dl1() -> CacheGeometry {
        CacheGeometry::new(16 * 1024, 4, 64) // 64 sets
    }

    #[test]
    fn vertical_is_half_the_sets() {
        let p = PlacementPolicy::vertical(dl1());
        assert_eq!(p.attempts, vec![32]);
        assert_eq!(p.max_replicas, 1);
        p.validate().unwrap();
    }

    #[test]
    fn horizontal_is_distance_zero() {
        let p = PlacementPolicy::horizontal();
        assert_eq!(p.attempts, vec![0]);
        assert_eq!(p.candidate_sets(dl1(), SetIndex(5)), vec![SetIndex(5)]);
    }

    #[test]
    fn multi_attempt_tries_half_then_quarter() {
        let p = PlacementPolicy::multi_attempt(dl1());
        assert_eq!(p.attempts, vec![32, 16]);
        assert_eq!(p.max_replicas, 1);
        assert_eq!(
            p.candidate_sets(dl1(), SetIndex(60)),
            vec![SetIndex(28), SetIndex(12)] // wraps modulo 64
        );
    }

    #[test]
    fn two_replicas_keeps_both_distances() {
        let p = PlacementPolicy::two_replicas(dl1());
        assert_eq!(p.max_replicas, 2);
        p.validate().unwrap();
    }

    #[test]
    fn power2_generates_the_fallback_chain() {
        let p = PlacementPolicy::power2(32, 5);
        assert_eq!(p.attempts, vec![32, 48, 16, 40, 24]);
        p.validate().unwrap();
        let p3 = PlacementPolicy::power2(32, 3);
        assert_eq!(p3.attempts, vec![32, 48, 16]);
    }

    #[test]
    fn more_replicas_than_attempts_rejected() {
        let p = PlacementPolicy {
            attempts: vec![32],
            max_replicas: 2,
        };
        assert!(p.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "positive base distance")]
    fn power2_rejects_nonpositive_base() {
        PlacementPolicy::power2(0, 3);
    }
}
