//! The ten-scheme shoot-out (the paper's Figure 9/12 in miniature): every
//! §3.2 scheme on every application, normalized to BaseP.
//!
//! ```text
//! cargo run --release --example scheme_shootout [instructions]
//! ```

use icr::core::{DataL1Config, Scheme};
use icr::sim::cli;
use icr::sim::exec::Pool;
use icr::sim::{run_sim, SimConfig};
use icr::trace::apps::APP_NAMES;
use std::fmt;
use std::process::ExitCode;

fn main() -> ExitCode {
    cli::print(fmt::from_fn(run))
}

fn run(f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let instructions: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let schemes = Scheme::all_paper_schemes();

    // One simulation per (scheme, app), fanned out over all cores.
    let jobs: Vec<(Scheme, &str)> = schemes
        .iter()
        .flat_map(|&s| APP_NAMES.iter().map(move |&a| (s, a)))
        .collect();
    let results = Pool::default().run(jobs, |(scheme, app)| {
        let cfg = SimConfig::paper(app, DataL1Config::paper_default(scheme), instructions, 42);
        ((scheme.name(), app), run_sim(&cfg).pipeline.cycles)
    });
    let cycles = |scheme: &str, app: &str| -> u64 {
        results
            .iter()
            .find(|((s, a), _)| s == scheme && *a == app)
            .map(|(_, c)| *c)
            .expect("every job ran")
    };

    write!(f, "{:<18}", "scheme")?;
    for app in APP_NAMES {
        write!(f, " {app:>7}")?;
    }
    writeln!(f, " {:>7}", "AVG")?;
    for scheme in &schemes {
        let name = scheme.name();
        write!(f, "{name:<18}")?;
        let mut sum = 0.0;
        for app in APP_NAMES {
            let norm = cycles(&name, app) as f64 / cycles("BaseP", app) as f64;
            sum += norm;
            write!(f, " {norm:>7.3}")?;
        }
        writeln!(f, " {:>7.3}", sum / APP_NAMES.len() as f64)?;
    }

    writeln!(f)?;
    f.write_str(
        "Paper shape: BaseP fastest; ICR-*-PS (S) within a few percent;\n\
         PP variants and BaseECC pay the 2-cycle load path on every hit.\n",
    )
}
