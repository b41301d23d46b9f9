//! Victim selection for replica placement — §3.1, "How do we place a
//! replica in a set?".
//!
//! All policies share one hard rule: a replica may never displace a
//! *live* (non-dead) primary copy, so performance is protected by
//! construction. They differ in how they order dead primaries vs existing
//! replicas.

/// The paper's four replica-victim policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VictimPolicy {
    /// LRU among dead primary blocks only. Reliability-biased: existing
    /// replicas are never displaced (the paper's §5.1–5.2 setting).
    DeadOnly,
    /// Dead primaries first, then replicas (the paper's §5.4+ setting).
    DeadFirst,
    /// Replicas first, then dead primaries. Performance-biased.
    ReplicaFirst,
    /// Replicas only. The paper deems this "not very meaningful" but it is
    /// implemented for completeness/ablation.
    ReplicaOnly,
}

/// What one candidate line looks like to the victim chooser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateLine {
    /// Line holds valid data.
    pub valid: bool,
    /// Line is a replica (vs a primary copy).
    pub is_replica: bool,
    /// Line's decay counter has saturated.
    pub is_dead: bool,
    /// Line must not be chosen (e.g. it is the primary being replicated,
    /// or a replica of the same block from an earlier attempt).
    pub excluded: bool,
}

impl VictimPolicy {
    /// The four policies, in the order the victim ablation reports them.
    pub const ALL: [VictimPolicy; 4] = [
        VictimPolicy::DeadOnly,
        VictimPolicy::DeadFirst,
        VictimPolicy::ReplicaFirst,
        VictimPolicy::ReplicaOnly,
    ];

    /// Builds the eligibility passes for this policy. Each pass is a mask
    /// predicate; the caller runs restricted LRU over pass 1, then pass 2.
    ///
    /// Invalid lines are free space and are always preferred, so callers
    /// should check for them before consulting the policy.
    pub fn passes(self) -> [fn(&CandidateLine) -> bool; 2] {
        fn dead_primary(c: &CandidateLine) -> bool {
            c.valid && !c.excluded && !c.is_replica && c.is_dead
        }
        fn replica(c: &CandidateLine) -> bool {
            c.valid && !c.excluded && c.is_replica
        }
        fn never(_: &CandidateLine) -> bool {
            false
        }
        match self {
            VictimPolicy::DeadOnly => [dead_primary, never],
            VictimPolicy::DeadFirst => [dead_primary, replica],
            VictimPolicy::ReplicaFirst => [replica, dead_primary],
            VictimPolicy::ReplicaOnly => [replica, never],
        }
    }

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            VictimPolicy::DeadOnly => "dead-only",
            VictimPolicy::DeadFirst => "dead-first",
            VictimPolicy::ReplicaFirst => "replica-first",
            VictimPolicy::ReplicaOnly => "replica-only",
        }
    }
}

impl std::str::FromStr for VictimPolicy {
    type Err = String;

    /// Parses a policy's [`name`](VictimPolicy::name).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        VictimPolicy::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| format!("unknown victim policy {s:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(valid: bool, is_replica: bool, is_dead: bool) -> CandidateLine {
        CandidateLine {
            valid,
            is_replica,
            is_dead,
            excluded: false,
        }
    }

    #[test]
    fn dead_only_accepts_only_dead_primaries() {
        let [p1, p2] = VictimPolicy::DeadOnly.passes();
        assert!(p1(&line(true, false, true)));
        assert!(!p1(&line(true, false, false))); // live primary
        assert!(!p1(&line(true, true, true))); // replica, even if dead
        assert!(!p1(&line(false, false, true))); // invalid
        assert!(!p2(&line(true, true, true))); // no second pass
    }

    #[test]
    fn dead_first_falls_back_to_replicas() {
        let [p1, p2] = VictimPolicy::DeadFirst.passes();
        assert!(p1(&line(true, false, true)));
        assert!(!p1(&line(true, true, false)));
        assert!(p2(&line(true, true, false)));
        assert!(p2(&line(true, true, true)));
        assert!(!p2(&line(true, false, true)));
    }

    #[test]
    fn replica_first_reverses_the_passes() {
        let [p1, p2] = VictimPolicy::ReplicaFirst.passes();
        assert!(p1(&line(true, true, false)));
        assert!(!p1(&line(true, false, true)));
        assert!(p2(&line(true, false, true)));
    }

    #[test]
    fn no_policy_ever_accepts_a_live_primary() {
        for policy in VictimPolicy::ALL {
            let live = line(true, false, false);
            let [p1, p2] = policy.passes();
            assert!(!p1(&live), "{}", policy.name());
            assert!(!p2(&live), "{}", policy.name());
        }
    }

    #[test]
    fn excluded_lines_are_never_chosen() {
        for policy in VictimPolicy::ALL {
            let mut c = line(true, true, true);
            c.excluded = true;
            let [p1, p2] = policy.passes();
            assert!(!p1(&c));
            assert!(!p2(&c));
            let mut c = line(true, false, true);
            c.excluded = true;
            assert!(!p1(&c));
            assert!(!p2(&c));
        }
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(VictimPolicy::DeadOnly.name(), "dead-only");
        assert_eq!(VictimPolicy::DeadFirst.name(), "dead-first");
    }

    #[test]
    fn names_parse_back_to_their_policy() {
        for p in VictimPolicy::ALL {
            assert_eq!(p.name().parse(), Ok(p));
        }
        assert_eq!(
            "oldest".parse::<VictimPolicy>(),
            Err("unknown victim policy \"oldest\"".to_string())
        );
    }
}
