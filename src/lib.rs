//! # ICR — In-Cache Replication, reproduced in Rust
//!
//! A from-scratch reproduction of *"ICR: In-Cache Replication for
//! Enhancing Data Cache Reliability"* (Zhang, Gurumurthi, Kandemir,
//! Sivasubramaniam — DSN 2003), including every substrate the paper's
//! evaluation rests on:
//!
//! | crate | what it provides |
//! |---|---|
//! | [`ecc`] | byte parity and Hamming(72,64) SEC-DED, bit-for-bit |
//! | [`mem`] | set-associative caches, write buffer, L2 + memory hierarchy |
//! | [`trace`] | synthetic SPEC2000-like workload generators, the shared workload store, and the `.icrt` on-disk trace format |
//! | [`isa`] | deterministic RV32IM interpreter + assembler and seven embedded kernels behind the `isa:*` execution-driven workloads |
//! | [`cpu`] | cycle-level out-of-order superscalar core (Table 1) |
//! | [`core`] | **the paper's contribution**: the replica-aware data L1 |
//! | [`fault`] | transient-fault injection (direct/adjacent/column/random) |
//! | [`vuln`] | analytic vulnerability-window (AVF) accounting: single-pass exposure ledger, arrival weighting, FIT/MTTF model |
//! | [`energy`] | CACTI-style dynamic-energy accounting |
//! | [`sim`] | the assembled machine, one runner per table/figure, the memoizing execution engine + job pool behind them, the Monte-Carlo fault-injection campaign engine, and the analytic vulnerability profiler |
//!
//! # Quickstart
//!
//! ```
//! use icr::core::{DataL1Config, Scheme};
//! use icr::sim::{run_sim, SimConfig};
//!
//! // Run gzip on the paper's machine with the recommended ICR-P-PS (S)
//! // scheme and read out the paper's headline metric.
//! let cfg = SimConfig::paper(
//!     "gzip",
//!     DataL1Config::paper_default(Scheme::ICR_P_PS_S),
//!     20_000,
//!     42,
//! );
//! let result = run_sim(&cfg);
//! println!(
//!     "{:.0}% of gzip's read hits found a replica",
//!     100.0 * result.icr.loads_with_replica(),
//! );
//! assert!(result.icr.loads_with_replica() > 0.5);
//! ```
//!
//! To regenerate a paper figure from the command line:
//!
//! ```text
//! cargo run --release -p icr-sim --bin icr-exp -- fig9
//! ```

pub use icr_core as core;
pub use icr_cpu as cpu;
pub use icr_ecc as ecc;
pub use icr_energy as energy;
pub use icr_fault as fault;
pub use icr_isa as isa;
pub use icr_mem as mem;
pub use icr_sim as sim;
pub use icr_trace as trace;
pub use icr_vuln as vuln;
