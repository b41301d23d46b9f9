//! The scheme-descriptor algebra: protection × trigger × lookup ×
//! replica-placement tier, with the ten schemes of §3.2 (plus the
//! §5.8/§5.9 comparison variants and the spill-to-L2 extension tier)
//! as named preset constants.

use icr_ecc::Protection;
use std::fmt;
use std::str::FromStr;

/// When replication is attempted (§3.1, "When do we replicate?").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trigger {
    /// Replicate on dL1 stores only — the paper's `(S)` variants.
    StoreOnly,
    /// Replicate on dL1 load misses *and* stores — the `(LS)` variants.
    LoadMissAndStore,
}

impl Trigger {
    /// `true` when load misses trigger replication.
    pub fn on_load_miss(self) -> bool {
        matches!(self, Trigger::LoadMissAndStore)
    }
}

/// How replicas are consulted on loads (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicaLookup {
    /// `PS`: the primary alone is read (1 cycle, parity); the replica is
    /// consulted only when the primary's parity fails.
    Sequential,
    /// `PP`: primary and replica are read and compared in parallel on
    /// every load to a replicated block (2 cycles, conservatively).
    Parallel,
}

/// Where a block's replica may live (the placement axis of the
/// descriptor algebra; an extension beyond the paper's dL1-only tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplicaTier {
    /// Replicas live only in dead dL1 blocks — the paper's schemes.
    #[default]
    DeadBlocksOnly,
    /// When no dL1 dead block can host the replica, it spills into a
    /// replica-aware L2 region (invalidated on dL1 writeback, consulted
    /// with verified read-back on dL1 load misses and as a recovery
    /// rung between the dL1 replicas and the L2 refetch).
    SpillToL2,
}

/// The replication half of a scheme descriptor: how replicas are looked
/// up, when they are created, and which tier may host them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplicationSpec {
    /// Sequential (`PS`) or parallel (`PP`) replica lookup.
    pub lookup: ReplicaLookup,
    /// Replication on stores (`S`) or load-misses-and-stores (`LS`).
    pub trigger: Trigger,
    /// Replica placement tier (dL1 dead blocks only, or spill to L2).
    pub tier: ReplicaTier,
}

/// A composable dL1 protection-scheme descriptor.
///
/// A scheme is the product of four axes: the protection code applied to
/// unreplicated lines (parity or SEC-DED), whether ECC checks complete
/// speculatively, and — when the scheme replicates — a
/// [`ReplicationSpec`] (lookup × trigger × placement tier). The ten
/// paper schemes are exposed as associated constants ([`Scheme::BASE_P`],
/// [`Scheme::ICR_P_PS_S`], …); arbitrary points in the axis product are
/// reachable through [`Scheme::base`], [`Scheme::icr`] and the
/// `with_*` combinators.
///
/// [`Display`](fmt::Display) emits the paper's name grammar and
/// [`FromStr`] parses it back (case-insensitively, also accepting the
/// kebab-case CLI spelling), so every name a `--json` report emits
/// round-trips through one shared parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchemeSpec {
    unreplicated: Protection,
    speculative: bool,
    replication: Option<ReplicationSpec>,
}

/// The scheme vocabulary used across the workspace. `Scheme` predates
/// the descriptor redesign; the alias keeps every `Scheme::…` path
/// working over the composable [`SchemeSpec`].
pub type Scheme = SchemeSpec;

impl SchemeSpec {
    /// Plain parity-protected dL1, no replication. 1-cycle loads.
    pub const BASE_P: Scheme = Scheme::base(Protection::Parity);
    /// SEC-DED on every line, no replication. 2-cycle loads.
    pub const BASE_ECC: Scheme = Scheme::base(Protection::SecDed);
    /// SEC-DED with background (speculative) checking: 1-cycle loads (§5.9).
    pub const BASE_ECC_SPEC: Scheme = Scheme::base(Protection::SecDed).with_speculative();

    /// `ICR-P-PS (LS)`.
    pub const ICR_P_PS_LS: Scheme = Scheme::icr(
        Protection::Parity,
        ReplicaLookup::Sequential,
        Trigger::LoadMissAndStore,
    );
    /// `ICR-P-PS (S)` — one of the paper's two recommended schemes.
    pub const ICR_P_PS_S: Scheme = Scheme::icr(
        Protection::Parity,
        ReplicaLookup::Sequential,
        Trigger::StoreOnly,
    );
    /// `ICR-P-PP (LS)`.
    pub const ICR_P_PP_LS: Scheme = Scheme::icr(
        Protection::Parity,
        ReplicaLookup::Parallel,
        Trigger::LoadMissAndStore,
    );
    /// `ICR-P-PP (S)`.
    pub const ICR_P_PP_S: Scheme = Scheme::icr(
        Protection::Parity,
        ReplicaLookup::Parallel,
        Trigger::StoreOnly,
    );
    /// `ICR-ECC-PS (LS)`.
    pub const ICR_ECC_PS_LS: Scheme = Scheme::icr(
        Protection::SecDed,
        ReplicaLookup::Sequential,
        Trigger::LoadMissAndStore,
    );
    /// `ICR-ECC-PS (S)` — the paper's other recommended scheme.
    pub const ICR_ECC_PS_S: Scheme = Scheme::icr(
        Protection::SecDed,
        ReplicaLookup::Sequential,
        Trigger::StoreOnly,
    );
    /// `ICR-ECC-PP (LS)`.
    pub const ICR_ECC_PP_LS: Scheme = Scheme::icr(
        Protection::SecDed,
        ReplicaLookup::Parallel,
        Trigger::LoadMissAndStore,
    );
    /// `ICR-ECC-PP (S)`.
    pub const ICR_ECC_PP_S: Scheme = Scheme::icr(
        Protection::SecDed,
        ReplicaLookup::Parallel,
        Trigger::StoreOnly,
    );

    /// `ICR-P-PS-L2 (LS)`: [`Scheme::ICR_P_PS_LS`] with spill-to-L2.
    pub const ICR_P_PS_LS_L2: Scheme = Scheme::ICR_P_PS_LS.with_tier(ReplicaTier::SpillToL2);
    /// `ICR-P-PS-L2 (S)`: [`Scheme::ICR_P_PS_S`] with spill-to-L2.
    pub const ICR_P_PS_S_L2: Scheme = Scheme::ICR_P_PS_S.with_tier(ReplicaTier::SpillToL2);
    /// `ICR-P-PP-L2 (LS)`: [`Scheme::ICR_P_PP_LS`] with spill-to-L2.
    pub const ICR_P_PP_LS_L2: Scheme = Scheme::ICR_P_PP_LS.with_tier(ReplicaTier::SpillToL2);
    /// `ICR-P-PP-L2 (S)`: [`Scheme::ICR_P_PP_S`] with spill-to-L2.
    pub const ICR_P_PP_S_L2: Scheme = Scheme::ICR_P_PP_S.with_tier(ReplicaTier::SpillToL2);
    /// `ICR-ECC-PS-L2 (LS)`: [`Scheme::ICR_ECC_PS_LS`] with spill-to-L2.
    pub const ICR_ECC_PS_LS_L2: Scheme = Scheme::ICR_ECC_PS_LS.with_tier(ReplicaTier::SpillToL2);
    /// `ICR-ECC-PS-L2 (S)`: [`Scheme::ICR_ECC_PS_S`] with spill-to-L2.
    pub const ICR_ECC_PS_S_L2: Scheme = Scheme::ICR_ECC_PS_S.with_tier(ReplicaTier::SpillToL2);
    /// `ICR-ECC-PP-L2 (LS)`: [`Scheme::ICR_ECC_PP_LS`] with spill-to-L2.
    pub const ICR_ECC_PP_LS_L2: Scheme = Scheme::ICR_ECC_PP_LS.with_tier(ReplicaTier::SpillToL2);
    /// `ICR-ECC-PP-L2 (S)`: [`Scheme::ICR_ECC_PP_S`] with spill-to-L2.
    pub const ICR_ECC_PP_S_L2: Scheme = Scheme::ICR_ECC_PP_S.with_tier(ReplicaTier::SpillToL2);

    /// A non-replicating base scheme protected by `code` on every line.
    pub const fn base(code: Protection) -> Self {
        SchemeSpec {
            unreplicated: code,
            speculative: false,
            replication: None,
        }
    }

    /// An in-cache-replication scheme: `unreplicated` protection on
    /// lines without a replica, `lookup` × `trigger` replication, and
    /// the paper's dL1-dead-blocks-only placement tier.
    pub const fn icr(unreplicated: Protection, lookup: ReplicaLookup, trigger: Trigger) -> Self {
        SchemeSpec {
            unreplicated,
            speculative: false,
            replication: Some(ReplicationSpec {
                lookup,
                trigger,
                tier: ReplicaTier::DeadBlocksOnly,
            }),
        }
    }

    /// The same scheme with background (speculative) ECC checking:
    /// loads complete in 1 cycle while the check finishes behind them.
    pub const fn with_speculative(mut self) -> Self {
        self.speculative = true;
        self
    }

    /// The same scheme with its replica placement tier replaced.
    /// No-op on non-replicating schemes (there is nothing to place).
    pub const fn with_tier(mut self, tier: ReplicaTier) -> Self {
        self.replication = match self.replication {
            Some(r) => Some(ReplicationSpec {
                lookup: r.lookup,
                trigger: r.trigger,
                tier,
            }),
            None => None,
        };
        self
    }

    /// Shorthand for [`Scheme::with_tier`]`(ReplicaTier::SpillToL2)`.
    pub const fn spill_to_l2(self) -> Self {
        self.with_tier(ReplicaTier::SpillToL2)
    }

    /// The ten schemes of Figure 9, in the paper's order.
    pub fn all_paper_schemes() -> Vec<Scheme> {
        vec![
            Scheme::BASE_P,
            Scheme::BASE_ECC,
            Scheme::ICR_P_PS_LS,
            Scheme::ICR_P_PS_S,
            Scheme::ICR_P_PP_LS,
            Scheme::ICR_P_PP_S,
            Scheme::ICR_ECC_PS_LS,
            Scheme::ICR_ECC_PS_S,
            Scheme::ICR_ECC_PP_LS,
            Scheme::ICR_ECC_PP_S,
        ]
    }

    /// The eight spill-to-L2 variants, in the same order as the paper's
    /// eight ICR schemes.
    pub fn all_spill_schemes() -> Vec<Scheme> {
        vec![
            Scheme::ICR_P_PS_LS_L2,
            Scheme::ICR_P_PS_S_L2,
            Scheme::ICR_P_PP_LS_L2,
            Scheme::ICR_P_PP_S_L2,
            Scheme::ICR_ECC_PS_LS_L2,
            Scheme::ICR_ECC_PS_S_L2,
            Scheme::ICR_ECC_PP_LS_L2,
            Scheme::ICR_ECC_PP_S_L2,
        ]
    }

    /// Every named preset: the ten paper schemes, the speculative-ECC
    /// comparison variant, and the eight spill-to-L2 variants. This is
    /// the vocabulary the shared [`FromStr`] parser accepts.
    pub fn all_named_schemes() -> Vec<Scheme> {
        let mut v = Scheme::all_paper_schemes();
        v.push(Scheme::BASE_ECC_SPEC);
        v.extend(Scheme::all_spill_schemes());
        v
    }

    /// `true` for the ICR variants (the schemes that replicate).
    pub fn replicates(self) -> bool {
        self.replication.is_some()
    }

    /// The replication trigger, if this scheme replicates.
    pub fn trigger(self) -> Option<Trigger> {
        self.replication.map(|r| r.trigger)
    }

    /// The replica-lookup policy, if this scheme replicates.
    pub fn lookup(self) -> Option<ReplicaLookup> {
        self.replication.map(|r| r.lookup)
    }

    /// The replica placement tier, if this scheme replicates.
    pub fn tier(self) -> Option<ReplicaTier> {
        self.replication.map(|r| r.tier)
    }

    /// `true` when replicas may spill into the L2 replica region.
    pub fn spills_to_l2(self) -> bool {
        self.tier() == Some(ReplicaTier::SpillToL2)
    }

    /// `true` when ECC checks complete speculatively (in the background).
    pub fn speculative(self) -> bool {
        self.speculative
    }

    /// Protection applied to a line that currently has no replica.
    pub fn unreplicated_protection(self) -> Protection {
        self.unreplicated
    }

    /// Load-hit latency in cycles, given whether the block has a replica.
    ///
    /// Encodes §3.2's latency table: parity checks fit in the 1-cycle
    /// access; ECC verification adds a cycle (unless speculative); parallel
    /// replica compares add a cycle.
    pub fn load_hit_latency(self, has_replica: bool) -> u64 {
        match self.replication {
            Some(r) if has_replica => match r.lookup {
                ReplicaLookup::Sequential => 1,
                ReplicaLookup::Parallel => 2,
            },
            _ => match (self.unreplicated, self.speculative) {
                (Protection::Parity, _) => 1,
                (Protection::SecDed, true) => 1,
                (Protection::SecDed, false) => 2,
            },
        }
    }

    /// The paper's display name for the scheme (`BaseP`, `BaseECC`,
    /// `ICR-P-PS (S)`, …; spill variants insert `-L2` after the lookup,
    /// e.g. `ICR-P-PS-L2 (S)`).
    pub fn name(self) -> String {
        match self.replication {
            None => match (self.unreplicated, self.speculative) {
                (Protection::Parity, false) => "BaseP".into(),
                (Protection::Parity, true) => "BaseP-spec".into(),
                (Protection::SecDed, false) => "BaseECC".into(),
                (Protection::SecDed, true) => "BaseECC-spec".into(),
            },
            Some(r) => {
                let p = match self.unreplicated {
                    Protection::Parity => "P",
                    Protection::SecDed => "ECC",
                };
                let l = match r.lookup {
                    ReplicaLookup::Sequential => "PS",
                    ReplicaLookup::Parallel => "PP",
                };
                let tier = match r.tier {
                    ReplicaTier::DeadBlocksOnly => "",
                    ReplicaTier::SpillToL2 => "-L2",
                };
                let t = match r.trigger {
                    Trigger::StoreOnly => "S",
                    Trigger::LoadMissAndStore => "LS",
                };
                format!("ICR-{p}-{l}{tier} ({t})")
            }
        }
    }
}

impl fmt::Display for SchemeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Error returned when a scheme name fails to parse; carries the
/// offending input for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchemeError {
    input: String,
}

impl ParseSchemeError {
    /// The string that failed to parse.
    pub fn input(&self) -> &str {
        &self.input
    }

    /// The accepted kebab-case spellings, for CLI diagnostics.
    pub fn valid_names() -> Vec<String> {
        Scheme::all_named_schemes()
            .iter()
            .map(|s| normalize(&s.name()))
            .collect()
    }
}

impl fmt::Display for ParseSchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown scheme \"{}\"", self.input)
    }
}

impl std::error::Error for ParseSchemeError {}

/// Canonical comparison form of a scheme name: lowercase, parentheses
/// stripped, runs of spaces/dashes collapsed to one dash. Maps both the
/// display grammar (`ICR-P-PS (S)`) and the CLI kebab spelling
/// (`icr-p-ps-s`) onto the same key.
fn normalize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '(' | ')' => {}
            ' ' | '-' | '_' => {
                if !out.ends_with('-') && !out.is_empty() {
                    out.push('-');
                }
            }
            _ => out.extend(c.to_lowercase()),
        }
    }
    while out.ends_with('-') {
        out.pop();
    }
    out
}

impl FromStr for SchemeSpec {
    type Err = ParseSchemeError;

    /// Parses both the display grammar (`ICR-P-PS (S)`) and the CLI
    /// kebab spelling (`icr-p-ps-s`), case-insensitively, over the full
    /// named-preset vocabulary ([`Scheme::all_named_schemes`]).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let key = normalize(s.trim());
        Scheme::all_named_schemes()
            .into_iter()
            .find(|scheme| normalize(&scheme.name()) == key)
            .ok_or_else(|| ParseSchemeError {
                input: s.trim().to_owned(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ten_schemes_in_paper_order() {
        let names: Vec<String> = Scheme::all_paper_schemes()
            .iter()
            .map(|s| s.name())
            .collect();
        assert_eq!(
            names,
            vec![
                "BaseP",
                "BaseECC",
                "ICR-P-PS (LS)",
                "ICR-P-PS (S)",
                "ICR-P-PP (LS)",
                "ICR-P-PP (S)",
                "ICR-ECC-PS (LS)",
                "ICR-ECC-PS (S)",
                "ICR-ECC-PP (LS)",
                "ICR-ECC-PP (S)",
            ]
        );
    }

    #[test]
    fn spill_schemes_insert_l2_in_the_name() {
        let names: Vec<String> = Scheme::all_spill_schemes()
            .iter()
            .map(|s| s.name())
            .collect();
        assert_eq!(
            names,
            vec![
                "ICR-P-PS-L2 (LS)",
                "ICR-P-PS-L2 (S)",
                "ICR-P-PP-L2 (LS)",
                "ICR-P-PP-L2 (S)",
                "ICR-ECC-PS-L2 (LS)",
                "ICR-ECC-PS-L2 (S)",
                "ICR-ECC-PP-L2 (LS)",
                "ICR-ECC-PP-L2 (S)",
            ]
        );
    }

    #[test]
    fn latency_table_matches_section_3_2() {
        // BaseP loads: 1 cycle. BaseECC loads: 2 (1 speculative).
        assert_eq!(Scheme::BASE_P.load_hit_latency(false), 1);
        assert_eq!(Scheme::BASE_ECC.load_hit_latency(false), 2);
        assert_eq!(Scheme::BASE_ECC_SPEC.load_hit_latency(false), 1);
        // PS schemes: replicated lines are 1-cycle parity.
        assert_eq!(Scheme::ICR_P_PS_S.load_hit_latency(true), 1);
        assert_eq!(Scheme::ICR_ECC_PS_S.load_hit_latency(true), 1);
        // ECC-PS unreplicated lines pay the ECC cycle.
        assert_eq!(Scheme::ICR_ECC_PS_S.load_hit_latency(false), 2);
        // PP schemes pay 2 cycles on replicated loads.
        assert_eq!(Scheme::ICR_P_PP_S.load_hit_latency(true), 2);
        assert_eq!(Scheme::ICR_ECC_PP_LS.load_hit_latency(true), 2);
        // P-PP unreplicated lines are plain parity: 1 cycle.
        assert_eq!(Scheme::ICR_P_PP_S.load_hit_latency(false), 1);
        // The placement tier never changes the latency table.
        for (dl1, l2) in Scheme::all_paper_schemes()[2..]
            .iter()
            .zip(Scheme::all_spill_schemes().iter())
        {
            assert_eq!(dl1.load_hit_latency(true), l2.load_hit_latency(true));
            assert_eq!(dl1.load_hit_latency(false), l2.load_hit_latency(false));
        }
    }

    #[test]
    fn triggers_and_replication_flags() {
        assert!(!Scheme::BASE_P.replicates());
        assert!(Scheme::ICR_P_PS_S.replicates());
        assert_eq!(Scheme::ICR_P_PS_S.trigger(), Some(Trigger::StoreOnly));
        assert!(Scheme::ICR_P_PS_LS
            .trigger()
            .expect("ICR has trigger")
            .on_load_miss());
        assert_eq!(Scheme::BASE_P.trigger(), None);
    }

    #[test]
    fn unreplicated_protection_follows_the_scheme_letter() {
        assert_eq!(Scheme::BASE_P.unreplicated_protection(), Protection::Parity);
        assert_eq!(
            Scheme::BASE_ECC.unreplicated_protection(),
            Protection::SecDed
        );
        assert_eq!(
            Scheme::ICR_ECC_PP_S.unreplicated_protection(),
            Protection::SecDed
        );
        assert_eq!(
            Scheme::ICR_P_PP_LS.unreplicated_protection(),
            Protection::Parity
        );
    }

    #[test]
    fn tier_axis_is_orthogonal() {
        assert_eq!(Scheme::BASE_P.tier(), None);
        assert!(!Scheme::BASE_P.spills_to_l2());
        assert_eq!(Scheme::ICR_P_PS_S.tier(), Some(ReplicaTier::DeadBlocksOnly));
        assert_eq!(Scheme::ICR_P_PS_S_L2.tier(), Some(ReplicaTier::SpillToL2));
        assert!(Scheme::ICR_ECC_PP_LS_L2.spills_to_l2());
        // spill_to_l2 on a base scheme stays non-replicating.
        assert_eq!(Scheme::BASE_ECC.spill_to_l2(), Scheme::BASE_ECC);
        // The combinator and the preset agree.
        assert_eq!(Scheme::ICR_P_PS_S.spill_to_l2(), Scheme::ICR_P_PS_S_L2);
        // Everything else about the spill variant matches its dL1 twin.
        assert_eq!(
            Scheme::ICR_ECC_PS_S_L2.lookup(),
            Scheme::ICR_ECC_PS_S.lookup()
        );
        assert_eq!(
            Scheme::ICR_ECC_PS_S_L2.trigger(),
            Scheme::ICR_ECC_PS_S.trigger()
        );
    }

    #[test]
    fn names_round_trip_through_the_parser() {
        for scheme in Scheme::all_named_schemes() {
            let display = scheme.name();
            assert_eq!(display.parse::<Scheme>().unwrap(), scheme, "{display}");
            // The kebab CLI spelling parses to the same scheme.
            let kebab = super::normalize(&display);
            assert_eq!(kebab.parse::<Scheme>().unwrap(), scheme, "{kebab}");
            // Case-insensitively.
            assert_eq!(
                display.to_uppercase().parse::<Scheme>().unwrap(),
                scheme,
                "{display}"
            );
        }
        assert!("tmr".parse::<Scheme>().is_err());
        assert_eq!(
            "tmr".parse::<Scheme>().unwrap_err().to_string(),
            "unknown scheme \"tmr\""
        );
    }
}
