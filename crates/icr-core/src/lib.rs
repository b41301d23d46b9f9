//! ICR — In-Cache Replication for data-cache reliability (Zhang,
//! Gurumurthi, Kandemir & Sivasubramaniam, DSN 2003).
//!
//! The idea: most L1 data-cache lines are *dead* — they will not be
//! referenced again before eviction. ICR recycles that space to hold
//! parity-protected **replicas** of the blocks that are in active use, so
//! a transient fault detected by parity can be healed from the replica at
//! L1 speed instead of requiring per-line SEC-DED (which costs an extra
//! cycle on every load) or being unrecoverable (plain parity on a dirty
//! line).
//!
//! This crate is the paper's contribution, built on the `icr-mem`
//! substrate and `icr-ecc` codes:
//!
//! * [`decay`] — dead-block prediction (2-bit cache-decay counters);
//! * [`placement`] — distance-k replica placement with multi-attempt,
//!   multi-replica and power-2 fallback policies;
//! * [`victim`] — the dead-only / dead-first / replica-first /
//!   replica-only victim-selection policies;
//! * [`scheme`] — the ten §3.2 schemes (`BaseP`, `BaseECC`,
//!   `ICR-{P,ECC}-{PS,PP} ({S,LS})`) plus the speculative-ECC and
//!   write-through comparison points;
//! * [`dl1`] — the replica-aware data L1 itself;
//! * [`stats`] — replication ability, loads-with-replica, and the error
//!   and energy accounting the experiments report.
//!
//! ```
//! use icr_core::{DataL1, DataL1Config, Scheme};
//! use icr_mem::{Addr, HierarchyConfig, MemoryBackend};
//!
//! let mut backend = MemoryBackend::new(&HierarchyConfig::default());
//! let mut dl1 = DataL1::new(DataL1Config::aggressive(Scheme::ICR_P_PS_S));
//!
//! // Writing a block replicates it; a later load finds the replica.
//! dl1.store(Addr(0x1000_0000), 0, &mut backend);
//! dl1.load(Addr(0x1000_0000), 1, &mut backend);
//! assert_eq!(dl1.stats().loads_with_replica(), 1.0);
//! ```

pub mod decay;
pub mod dl1;
pub mod hints;
pub mod placement;
pub mod scheme;
pub mod side_cache;
pub mod stats;
pub mod victim;

pub use decay::{DecayConfig, DecayState};
pub use dl1::{DataL1, DataL1Config, LineView, WritePolicy};
pub use hints::{HintAction, ReplicationHints};
pub use placement::PlacementPolicy;
pub use scheme::{
    ParseSchemeError, ReplicaLookup, ReplicaTier, ReplicationSpec, Scheme, SchemeSpec, Trigger,
};
pub use side_cache::DuplicationCache;
pub use stats::{ErrorOutcome, IcrStats, OutcomeTally, WeightedEstimate, WeightedTally};
pub use victim::{CandidateLine, VictimPolicy};
// Vulnerability-window accounting vocabulary (the ledger lives in
// `icr-vuln`; the dL1 drives it inline).
pub use icr_vuln::{
    Arrival, ExposureLedger, ExposureWindows, InjectionProposal, LaunderKind, ProtState, VulnClass,
    VulnModel,
};
