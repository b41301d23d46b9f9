//! Cycle-level out-of-order superscalar timing model for the ICR
//! reproduction — a from-scratch stand-in for SimpleScalar 3.0's
//! `sim-outorder` (the paper's simulation vehicle).
//!
//! The machine implements Table 1 of the paper: 4-wide fetch/issue/commit,
//! a 16-entry register update unit, an 8-entry load/store queue, the
//! 4+1/4+1 functional-unit pool, a combined (bimodal + two-level) branch
//! predictor with a 512-entry 4-way BTB and a 3-cycle misprediction
//! penalty. The memory system is abstracted behind the [`DataMemory`] and
//! [`InstrMemory`] traits so that every dL1 scheme under study (BaseP,
//! BaseECC, all ICR variants) plugs in unchanged.
//!
//! ```
//! use icr_cpu::{Pipeline, CpuConfig, PerfectMemory, FixedLatencyMemory};
//! use icr_trace::{apps, TraceGenerator};
//!
//! // The BaseECC effect in miniature: 2-cycle loads cost real time even
//! // though the out-of-order core hides part of the latency.
//! let trace = || TraceGenerator::new(apps::try_profile("gzip").unwrap(), 7).take(20_000);
//! let mut cpu = Pipeline::new(CpuConfig::default());
//! let fast = cpu.run(trace(), &mut PerfectMemory, &mut PerfectMemory);
//! let mut cpu = Pipeline::new(CpuConfig::default());
//! let mut slow_mem = FixedLatencyMemory { load_latency: 2, store_latency: 1 };
//! let slow = cpu.run(trace(), &mut PerfectMemory, &mut slow_mem);
//! assert!(slow.cycles > fast.cycles);
//! ```

pub mod bpred;
pub mod config;
pub mod fu;
pub mod mem;
pub mod pipeline;

pub use bpred::{Bimodal, Btb, Combined, DirPredictor, TwoLevel};
pub use config::CpuConfig;
pub use fu::{op_latency, FuPool};
pub use mem::{DataMemory, FixedLatencyMemory, InstrMemory, PerfectMemory};
pub use pipeline::{Pipeline, PipelineStats};
