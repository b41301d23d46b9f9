//! Execution-driven RV32IM workloads for the ICR reproduction.
//!
//! Everything upstream of the timing model in this repo was synthetic:
//! profile-driven traces with the right *statistics* but no real program
//! semantics. This crate closes that gap with a small deterministic
//! RV32IM interpreter ([`interp::Machine`]), an in-crate two-pass
//! assembler ([`asm::assemble`]), and seven embedded kernels
//! ([`kernels::KERNELS`]: sorts, matmul, pointer chase, string search,
//! an LZ match finder and a checksum) that run to architectural
//! completion and emit the existing [`icr_trace::Inst`] record per
//! retired instruction — so the cache hierarchy, the 10-scheme matrix,
//! fault campaigns and the lockstep audit all consume real instruction
//! streams with zero contract changes.
//!
//! [`install`] registers a [`KernelSource`] with the process-wide
//! [`icr_trace::store`], after which `isa:<kernel>` application names
//! resolve like any other workload:
//!
//! ```
//! icr_isa::install();
//! let trace = icr_trace::store::global().get("isa:bubble", 42, 10_000);
//! assert!(!trace.is_empty());
//! ```
//!
//! The store caches each `(kernel, seed, instructions)` trace once, like
//! every other workload's; the kernel source itself keeps nothing.

#![warn(missing_docs)]

pub mod asm;
pub mod decode;
pub mod interp;
pub mod kernels;

pub use asm::{assemble, AsmError};
pub use decode::{decode, Decoded};
pub use interp::{ExecError, Machine};

use icr_trace::store::WorkloadSource;
use icr_trace::Inst;
use std::sync::{Arc, Once};

/// Ceiling on retired instructions per kernel run; the embedded kernels
/// finish far below it, so hitting this means a kernel bug.
pub const MAX_KERNEL_INSTRUCTIONS: u64 = 5_000_000;

/// Interprets the named kernel to completion with a fresh machine.
/// Returns the full trace, the retired count and the kernel's exit
/// checksum (`a0`).
///
/// # Panics
///
/// Panics on an unknown kernel name or an execution fault (the embedded
/// kernels are bugs if they fault).
pub fn run_kernel(app: &str, seed: u64) -> (Vec<Inst>, u64, u32) {
    let program = kernels::program(app)
        .unwrap_or_else(|| panic!("unknown ISA kernel {app:?}"))
        .unwrap_or_else(|e| panic!("{app} does not assemble: {e}"));
    let mut machine = Machine::new(&program, seed);
    let mut trace = Vec::new();
    machine
        .run(MAX_KERNEL_INSTRUCTIONS, |inst| trace.push(inst))
        .unwrap_or_else(|e| panic!("{app} faulted: {e}"));
    (trace, machine.retired, machine.exit_value())
}

/// The [`WorkloadSource`] serving `isa:*` app names from the embedded
/// kernels: each request interprets the kernel to completion and
/// truncates the trace to the requested instruction budget. A
/// shorter-than-requested result means the kernel retired to completion
/// first; the store's contract allows that for execution-driven sources.
pub struct KernelSource;

impl WorkloadSource for KernelSource {
    fn matches(&self, app: &str) -> bool {
        kernels::KERNELS.iter().any(|(name, _)| *name == app)
    }

    fn materialise(&self, app: &str, seed: u64, instructions: u64) -> Arc<[Inst]> {
        let (mut trace, _, _) = run_kernel(app, seed);
        trace.truncate(usize::try_from(instructions).unwrap_or(usize::MAX));
        trace.into()
    }
}

/// Registers the kernel source with [`icr_trace::store::global`] so
/// `isa:*` app names resolve through the interpreter. Idempotent and
/// cheap; simulation entry points call it unconditionally.
pub fn install() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        icr_trace::store::global().register_source(Arc::new(KernelSource));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_source_slices_to_budget() {
        let source = KernelSource;
        assert!(source.matches("isa:bubble"));
        assert!(!source.matches("gzip"));
        let short = source.materialise("isa:bubble", 7, 100);
        assert_eq!(short.len(), 100);
        let full = source.materialise("isa:bubble", 7, u64::MAX);
        assert!(full.len() > 1_000);
        assert_eq!(&full[..100], &short[..]);
    }

    #[test]
    fn install_routes_store_lookups() {
        install();
        install(); // idempotent
        let trace = icr_trace::store::global().get("isa:checksum", 5, 2_000);
        assert_eq!(trace.len(), 2_000);
    }
}
