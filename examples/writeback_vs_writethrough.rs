//! Write-back ICR vs write-through BaseP (the paper's §5.8): the POWER4
//! route to dL1 integrity is forcing every store through to L2. This
//! example reproduces the comparison with the full energy breakdown.
//!
//! ```text
//! cargo run --release --example writeback_vs_writethrough
//! ```

use icr::core::{DataL1Config, Scheme, WritePolicy};
use icr::energy::EnergyModel;
use icr::sim::cli;
use icr::sim::{run_sim, SimConfig};
use icr::trace::apps::APP_NAMES;
use std::fmt;
use std::process::ExitCode;

fn main() -> ExitCode {
    cli::print(fmt::from_fn(run))
}

fn run(f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let instructions = 100_000;
    let energy = EnergyModel::default();

    writeln!(
        f,
        "{:<8} {:>12} {:>12} | {:>10} {:>10} {:>10} | {:>12}",
        "app", "ICR cycles", "WT cycles", "ICR L1", "ICR L2", "ICR total", "WT/ICR energy"
    )?;
    for app in APP_NAMES {
        let icr_cfg = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
        let icr = run_sim(&SimConfig::paper(app, icr_cfg, instructions, 42));

        let mut wt_cfg = DataL1Config::paper_default(Scheme::BASE_P);
        wt_cfg.write_policy = WritePolicy::WriteThrough { buffer_entries: 8 };
        let wt = run_sim(&SimConfig::paper(app, wt_cfg, instructions, 42));

        let e_icr = energy.energy(&icr.energy_counts);
        let e_wt = energy.energy(&wt.energy_counts);
        writeln!(
            f,
            "{:<8} {:>12} {:>12} | {:>10.0} {:>10.0} {:>10.0} | {:>12.2}",
            app,
            icr.pipeline.cycles,
            wt.pipeline.cycles,
            e_icr.l1,
            e_icr.l2,
            e_icr.total(),
            e_wt.total() / e_icr.total(),
        )?;
    }

    writeln!(f)?;
    f.write_str(
        "Write-through buys recoverability (L2 always has current data)\n\
         but pays for it twice: write-buffer stalls when stores burst, and\n\
         an L2 write's worth of energy on every distinct store block.\n\
         ICR gets the recoverability from in-cache replicas instead.\n",
    )
}
