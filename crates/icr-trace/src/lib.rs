//! Synthetic SPEC2000-like workload generators for the ICR reproduction.
//!
//! The paper drives its SimpleScalar machine with eight SPEC2000
//! applications for 500M instructions each. SPEC binaries and a PISA/Alpha
//! front-end are out of scope for a from-scratch reproduction, so this
//! crate substitutes *profile-driven synthetic traces*: each application is
//! characterised by an instruction mix, a three-tier data working set
//! (hot/warm/cold), streaming vs pointer-chasing cold behaviour, and branch
//! predictability ([`AppProfile`]); a seeded generator
//! ([`TraceGenerator`]) expands a profile into a deterministic dynamic
//! instruction stream.
//!
//! What matters for ICR is preserved by construction:
//!
//! * hot data is a small set of blocks referenced constantly — these are
//!   the blocks ICR automatically replicates;
//! * footprints exceed the 16KB dL1, so dead blocks exist to hold
//!   replicas;
//! * mcf pointer-chases a huge region (worst locality, Fig. 7/8 behaviour)
//!   while mesa's working set is cache-scale (Fig. 4 behaviour).
//!
//! ```
//! use icr_trace::{apps, TraceGenerator, TraceStats};
//!
//! let stats = TraceStats::collect(
//!     TraceGenerator::new(apps::try_profile("mcf").unwrap(), 42).take(10_000),
//! );
//! assert!(stats.unique_data_blocks > 256); // spills the 256-block dL1
//! ```

pub mod apps;
pub mod disk;
pub mod generator;
pub mod inst;
pub mod profile;
pub mod stats;
pub mod store;

pub use disk::{DiskError, StoredTrace, TraceReader, TraceWriter};
pub use generator::{TraceGenerator, INST_BYTES};
pub use inst::{Inst, OpClass, Reg};
pub use profile::{AppProfile, BranchProfile, LocalityProfile, OpMix};
pub use stats::TraceStats;
pub use store::{WorkloadSource, WorkloadStore};
