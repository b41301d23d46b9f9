//! Top-level simulator and experiment harness for the ICR reproduction.
//!
//! This crate assembles the full machine of the paper — the out-of-order
//! core (`icr-cpu`), the instruction L1 / unified L2 / memory
//! (`icr-mem`), the replica-aware data L1 (`icr-core`), transient-fault
//! injection (`icr-fault`) and energy accounting (`icr-energy`) — and
//! provides one experiment runner per table/figure of the paper's
//! evaluation.
//!
//! * [`simulator`] — [`SimConfig`] → [`run_sim`] → [`SimResult`];
//! * [`engine`] — the memoizing execution engine every runner funnels
//!   through: each distinct cell executes once per process and is shared
//!   behind `Arc`s, workload traces are materialised once in the
//!   process-wide `icr_trace::store`;
//! * [`exec`] — the unified job layer: an order-preserving work-stealing
//!   [`Pool`] with per-job timing and progress callbacks;
//! * [`experiment`] — `table1`, `fig1` … `fig17`, `sensitivity`,
//!   `victim_ablation`;
//! * [`campaign`] — deterministic parallel Monte-Carlo fault-injection
//!   campaigns, exposed by the `icr-campaign` binary. One shard loop
//!   ([`ShardedCampaignSpec`] → [`run_sharded_campaign`] →
//!   [`ShardedReport`]) partitions the trial space into seed-range
//!   shards and, given a directory, persists digest-verified
//!   checkpoints so a killed campaign resumes to byte-identical output;
//!   a plain campaign ([`CampaignSpec`] → [`run_campaign`] →
//!   [`CampaignReport`]) is the same loop in memory, with
//!   [`CampaignSpec::batch`] trials per cell per shard;
//! * [`checkpoint`] — the durable per-shard checkpoint format behind
//!   resume: versioned `ICRC` header, FNV-1a payload digest, spec
//!   fingerprint, quarantine-on-corruption;
//! * [`vuln`] — analytic vulnerability profiles ([`VulnSpec`] →
//!   [`run_vuln`] → [`VulnReport`]): the same outcome distribution the
//!   campaign estimates, from one fault-free pass per cell;
//! * [`audit`] — lockstep reference-model auditing ([`AuditSpec`] →
//!   [`run_audit`] → [`AuditReport`]): every dL1 access diffed against
//!   the naive `icr-check` model under [`CheckMode::Lockstep`];
//! * [`report`] — [`FigureResult`], a printable series-per-scheme table;
//! * [`cli`] — the front end of the three binaries: one argument
//!   parser, one value vocabulary and one exit-code contract.
//!
//! The `icr-exp` binary exposes all of it from the command line:
//!
//! ```text
//! cargo run --release -p icr-sim --bin icr-exp -- fig9 --insts 500000
//! ```
//!
//! ```
//! use icr_sim::{run_sim, SimConfig};
//! use icr_core::{DataL1Config, Scheme};
//!
//! let cfg = SimConfig::paper(
//!     "gzip",
//!     DataL1Config::paper_default(Scheme::ICR_P_PS_S),
//!     10_000,
//!     42,
//! );
//! let result = run_sim(&cfg);
//! assert_eq!(result.pipeline.committed, 10_000);
//! ```

pub mod audit;
pub mod campaign;
pub mod checkpoint;
pub mod cli;
pub mod engine;
pub mod exec;
pub mod experiment;
pub mod json;
mod replay;
pub mod report;
pub mod simulator;
pub mod stats;
pub mod vuln;

pub use audit::{run_audit, AuditCell, AuditReport, AuditSpec, LockstepChecker};
pub use campaign::{
    merge_sharded_campaign, run_campaign, run_sharded_campaign, run_sharded_campaign_observed,
    CampaignReport, CampaignSpec, CellReport, ShardEvent, ShardProgress, ShardedCampaignSpec,
    ShardedReport,
};
pub use engine::{Engine, EngineStats};
pub use exec::{JobProgress, Pool};
pub use experiment::ExpOptions;
pub use report::{FigureResult, Series};
pub use simulator::{
    run_sim, CheckMode, FaultConfig, ScrubConfig, SimConfig, SimConfigBuilder, SimResult,
};
pub use stats::{wilson_ci95, wilson_ci95_f, Summary};
pub use vuln::{run_vuln, VulnCell, VulnReport, VulnSpec};
