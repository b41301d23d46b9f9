//! Execution-driven workloads: run the embedded RV32IM kernels through
//! the full ICR machine and compare them with a synthetic profile
//! workload under the paper's recommended scheme.
//!
//! ```text
//! cargo run --release --example isa_workload
//! ```
//!
//! The `isa:*` app names resolve through the `icr-isa` interpreter: each
//! kernel is a real program (assembled in-crate, executed to
//! architectural completion) whose retired instructions become the trace
//! the timing model consumes. Everything else — schemes, decay, fault
//! recovery — is untouched; the kernels are just another workload.

use icr::core::{DataL1Config, Scheme};
use icr::sim::cli;
use icr::sim::{run_sim, SimConfig};
use icr::trace::apps::ISA_APP_NAMES;
use std::fmt;
use std::process::ExitCode;

fn main() -> ExitCode {
    cli::print(fmt::from_fn(run))
}

fn run(f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let instructions = 100_000;
    let seed = 42;

    // Interpret one kernel directly to show what the workloads are:
    // real programs with architectural results.
    let (trace, retired, checksum) = icr::isa::run_kernel("isa:bubble", seed);
    writeln!(
        f,
        "isa:bubble retires {retired} instructions (checksum {checksum:#010x}); \
         first load at pc {:#x}",
        trace
            .iter()
            .find(|i| i.op == icr::trace::OpClass::Load)
            .map(|i| i.pc)
            .unwrap_or(0)
    )?;
    writeln!(f)?;

    writeln!(
        f,
        "{:<15} {:>8} {:>8} {:>10} {:>14}",
        "workload", "cycles", "IPC", "miss rate", "loads w/ repl"
    )?;
    let dl1 = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
    for app in ISA_APP_NAMES.iter().copied().chain(["gzip"]) {
        let cfg = SimConfig::paper(app, dl1.clone(), instructions, seed);
        let r = run_sim(&cfg);
        writeln!(
            f,
            "{:<15} {:>8} {:>8.2} {:>9.1}% {:>13.1}%",
            app,
            r.pipeline.cycles,
            r.pipeline.ipc(),
            100.0 * r.icr.miss_rate(),
            100.0 * r.icr.loads_with_replica(),
        )?;
    }
    writeln!(f)?;
    writeln!(
        f,
        "(kernels shorter than the budget retire to completion first;"
    )?;
    writeln!(f, " gzip is the synthetic profile stand-in for comparison)")
}
