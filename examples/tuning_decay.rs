//! Decay-window tuning (the paper's §5.3): how aggressively should blocks
//! be declared dead? Sweeps the window on one application and prints the
//! three quantities the decision trades off.
//!
//! ```text
//! cargo run --release --example tuning_decay [app]
//! ```

use icr::core::{DataL1Config, DecayConfig, Scheme, VictimPolicy};
use icr::sim::cli;
use icr::sim::{run_sim, SimConfig};
use std::fmt;
use std::process::ExitCode;

fn main() -> ExitCode {
    cli::print(fmt::from_fn(run))
}

fn run(f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let app = std::env::args().nth(1).unwrap_or_else(|| "vpr".into());
    let instructions = 150_000;

    // BaseP reference for normalization.
    let base = run_sim(&SimConfig::paper(
        &app,
        DataL1Config::paper_default(Scheme::BASE_P),
        instructions,
        42,
    ));

    writeln!(
        f,
        "workload: {app}; scheme: ICR-P-PS (S), dead-only victims"
    )?;
    writeln!(
        f,
        "{:>8} {:>10} {:>14} {:>12} {:>12}",
        "window", "ability", "loads w/ repl", "miss rate", "norm cycles"
    )?;
    for window in [0u64, 250, 500, 1000, 2500, 5000, 10_000, 50_000] {
        let mut dl1 = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
        dl1.decay = DecayConfig { window };
        dl1.victim = VictimPolicy::DeadOnly;
        let r = run_sim(&SimConfig::paper(&app, dl1, instructions, 42));
        writeln!(
            f,
            "{:>8} {:>9.1}% {:>13.1}% {:>11.1}% {:>11.3}x",
            window,
            100.0 * r.icr.replication_ability(),
            100.0 * r.icr.loads_with_replica(),
            100.0 * r.icr.miss_rate(),
            r.pipeline.cycles as f64 / base.pipeline.cycles as f64,
        )?;
    }

    writeln!(f)?;
    f.write_str(
        "The paper settles on 1000 cycles: replica coverage is still high\n\
         while the miss-rate (and cycle) overhead of premature deaths\n\
         fades. Window 0 is the most reliability-biased point.\n",
    )
}
