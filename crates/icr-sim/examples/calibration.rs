//! Workload-calibration report: the per-application machine behaviour the
//! synthetic profiles are tuned to (DESIGN.md §2). Run this after touching
//! `icr_trace::apps` to confirm miss rates, IPC and the ECC slowdown stay
//! in the regimes the paper's qualitative claims rest on.
//!
//! ```text
//! cargo run --release -p icr-sim --example calibration
//! ```

use icr_core::{DataL1Config, Scheme};
use icr_sim::cli;
use icr_sim::exec::Pool;
use icr_sim::{run_sim, SimConfig};
use icr_trace::apps::APP_NAMES;
use std::fmt;
use std::process::ExitCode;

fn main() -> ExitCode {
    cli::print(fmt::from_fn(run))
}

fn run(f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let instructions = 100_000;
    let jobs: Vec<(&str, bool)> = APP_NAMES
        .iter()
        .flat_map(|&a| [(a, false), (a, true)])
        .collect();
    let results = Pool::default().run(jobs, |(app, ecc)| {
        let scheme = if ecc {
            Scheme::BASE_ECC
        } else {
            Scheme::BASE_P
        };
        let cfg = SimConfig::paper(app, DataL1Config::paper_default(scheme), instructions, 42);
        ((app, ecc), run_sim(&cfg))
    });
    let get = |app: &str, ecc: bool| {
        results
            .iter()
            .find(|((a, e), _)| *a == app && *e == ecc)
            .map(|(_, r)| r)
            .expect("ran")
    };

    writeln!(
        f,
        "{:<8} {:>6} {:>10} {:>14} {:>10} {:>13}",
        "app", "IPC", "miss rate", "mean load lat", "mispred", "ECC slowdown"
    )?;
    for app in APP_NAMES {
        let p = get(app, false);
        let e = get(app, true);
        writeln!(
            f,
            "{:<8} {:>6.2} {:>9.1}% {:>14.2} {:>9.1}% {:>12.3}x",
            app,
            p.pipeline.ipc(),
            100.0 * p.icr.miss_rate(),
            p.pipeline.mean_load_latency(),
            100.0 * p.pipeline.mispredict_rate(),
            e.pipeline.cycles as f64 / p.pipeline.cycles as f64,
        )?;
    }

    writeln!(f)?;
    f.write_str(
        "Calibration targets: SPEC2000-plausible dL1 miss rates on 16KB\n\
         (~2-6% integer codes, mcf worst at ~25%+), IPC well under the\n\
         4-wide ceiling, and a visible BaseECC penalty — the regimes the\n\
         paper's comparisons live in.\n",
    )
}
