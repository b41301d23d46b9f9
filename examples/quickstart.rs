//! Quickstart: run one workload on the paper's machine under the two
//! baselines and the paper's recommended scheme, and print the trade-off
//! ICR is about — reliability coverage vs execution time.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use icr::core::{DataL1Config, Scheme};
use icr::sim::cli;
use icr::sim::{run_sim, SimConfig};
use std::fmt;
use std::process::ExitCode;

fn main() -> ExitCode {
    cli::print(fmt::from_fn(run))
}

fn run(f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let app = "gzip";
    let instructions = 200_000;
    let seed = 42;

    writeln!(
        f,
        "machine: Table 1 of the paper; workload: synthetic {app}"
    )?;
    writeln!(
        f,
        "{:<16} {:>10} {:>8} {:>10} {:>14} {:>12}",
        "scheme", "cycles", "IPC", "miss rate", "loads w/ repl", "norm cycles"
    )?;

    let schemes = [
        Scheme::BASE_P,
        Scheme::BASE_ECC,
        Scheme::ICR_P_PS_S,
        Scheme::ICR_ECC_PS_S,
    ];

    let mut base_cycles = None;
    for scheme in schemes {
        let cfg = SimConfig::paper(app, DataL1Config::paper_default(scheme), instructions, seed);
        let r = run_sim(&cfg);
        let base = *base_cycles.get_or_insert(r.pipeline.cycles);
        writeln!(
            f,
            "{:<16} {:>10} {:>8.2} {:>9.1}% {:>13.1}% {:>11.3}x",
            r.scheme,
            r.pipeline.cycles,
            r.pipeline.ipc(),
            100.0 * r.icr.miss_rate(),
            100.0 * r.icr.loads_with_replica(),
            r.pipeline.cycles as f64 / base as f64,
        )?;
    }

    writeln!(f)?;
    f.write_str(
        "The story of the paper in one table: BaseECC pays an extra cycle\n\
         (and port occupancy) on every load; ICR-P-PS (S) keeps 1-cycle\n\
         parity loads while most read hits have an in-cache replica to\n\
         recover from if parity ever trips.\n",
    )
}
