//! Monte-Carlo fault-injection campaign through the library API: N
//! independent single-soft-error trials per (scheme × app) cell, run in
//! parallel yet bit-identical for a given master seed, with per-cell
//! Wilson 95% confidence intervals on the survival rate.
//!
//! ```text
//! cargo run --release --example soft_error_campaign
//! ```
//!
//! The `icr-campaign` binary wraps the same engine with CLI flags and a
//! JSON report; this example shows the programmatic shape.

use icr::core::Scheme;
use icr::sim::campaign::{run_campaign, CampaignSpec};
use icr::sim::cli;
use std::fmt;
use std::process::ExitCode;

fn main() -> ExitCode {
    cli::print(fmt::from_fn(run))
}

fn run(f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let mut spec = CampaignSpec::new(
        vec![
            Scheme::BASE_P,
            Scheme::BASE_ECC,
            Scheme::ICR_P_PS_S,
            Scheme::ICR_ECC_PS_S,
        ],
        vec!["gzip".into(), "gcc".into(), "mcf".into()],
        60, // trials per cell
        2003,
    );
    spec.instructions = 20_000;
    spec.batch = 20;
    // Stop a cell early once its Wilson interval is this narrow.
    spec.target_ci_width = Some(0.25);

    writeln!(
        f,
        "campaign: {} schemes × {} apps × ≤{} single-fault trials each\n",
        spec.schemes.len(),
        spec.apps.len(),
        spec.trials_per_cell
    )?;

    let report = run_campaign(&spec).expect("campaign tallies stay conserved");
    for cell in &report.cells {
        let (lo, hi) = cell.wilson95();
        writeln!(
            f,
            "  {:<16} {:<6} {:>3} trials  survived {:.3} [{:.3}, {:.3}]{}",
            cell.scheme.name(),
            cell.app,
            cell.trials,
            cell.tally.survived_fraction(),
            lo,
            hi,
            if cell.stopped_early { "  (early)" } else { "" },
        )?;
    }

    writeln!(f, "\n{}", report.summary_table())?;

    // The paper's claim, checked on the spot: ICR heals strictly more
    // faults than the parity-only baseline.
    let totals = report.scheme_totals();
    let recovered = |scheme: Scheme| {
        totals
            .iter()
            .find(|(s, _)| *s == scheme)
            .map(|(_, t)| t.recovered())
            .unwrap_or(0)
    };
    let base_p = recovered(Scheme::BASE_P);
    let icr_p = recovered(Scheme::ICR_P_PS_S);
    writeln!(f, "recovered faults: ICR-P-PS(S) {icr_p} vs BaseP {base_p}")?;
    assert!(
        icr_p > base_p,
        "ICR should recover strictly more faults than BaseP"
    );
    Ok(())
}
