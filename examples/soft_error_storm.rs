//! Fault-injection study (the paper's §5.5, widened): bombard the dL1 with
//! transient faults under each error model and watch where every error
//! ends up — corrected by ECC, healed from a replica, refetched from L2,
//! or lost.
//!
//! ```text
//! cargo run --release --example soft_error_storm
//! ```

use icr::core::{DataL1Config, Scheme};
use icr::fault::ErrorModel;
use icr::sim::cli;
use icr::sim::{run_sim, FaultConfig, SimConfig};
use icr::vuln::{ProtState, VulnClass};
use std::fmt;
use std::process::ExitCode;

fn main() -> ExitCode {
    cli::print(fmt::from_fn(run))
}

fn run(f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let app = "vortex";
    let instructions = 100_000;
    let p = 1e-3; // one fault every ~1000 cycles: a storm, deliberately

    writeln!(
        f,
        "workload: {app}; random single-bit fault every ~{:.0} cycles",
        1.0 / p
    )?;
    writeln!(f)?;

    for scheme in [
        Scheme::BASE_P,
        Scheme::ICR_P_PS_S,
        Scheme::ICR_ECC_PS_S,
        Scheme::BASE_ECC,
    ] {
        writeln!(f, "--- {} ---", scheme.name())?;
        writeln!(
            f,
            "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>12}",
            "model", "injected", "detected", "ECC-fix", "replica", "L2-fetch", "lost loads"
        )?;
        for model in ErrorModel::all() {
            let cfg = SimConfig::builder(app, DataL1Config::paper_default(scheme))
                .instructions(instructions)
                .seed(7)
                .fault(FaultConfig {
                    model,
                    p_per_cycle: p,
                    seed: 99,
                    max_faults: None,
                })
                .build();
            let r = run_sim(&cfg);
            writeln!(
                f,
                "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>12}",
                model.name(),
                r.faults_injected,
                r.icr.errors_detected,
                r.icr.errors_corrected_ecc,
                r.icr.errors_recovered_replica,
                r.icr.errors_recovered_l2,
                r.icr.unrecoverable_loads,
            )?;
        }

        // Residency-weighted exposure from a fault-free run: how long
        // words actually sat in each protection state, and the analytic
        // one-shot survival the icr-vuln ledger predicts from it.
        let cfg = SimConfig::paper(app, DataL1Config::paper_default(scheme), instructions, 7);
        let w = run_sim(&cfg).exposure;
        let total = w.total_word_cycles.max(1) as f64;
        let share = |s: ProtState| 100.0 * w.residency[s.index()] as f64 / total;
        writeln!(
            f,
            "exposure: replicated {:.1}% / dirty-parity {:.1}% / ecc {:.1}% of \
             word-cycles; avg {:.0} unprotected words; one-shot survival {:.3} \
             (unrecoverable {:.3})",
            share(ProtState::Replicated),
            share(ProtState::DirtyParity),
            share(ProtState::Ecc),
            w.avg_words_in(ProtState::DirtyParity),
            w.one_shot_survived(),
            w.one_shot_probability(VulnClass::Unrecoverable),
        )?;
        writeln!(f)?;
    }

    f.write_str(
        "Expected: BaseP loses dirty-line errors; ICR-P heals most from\n\
         replicas; ICR-ECC and BaseECC correct single-bit strikes, but the\n\
         adjacent-bit model defeats parity (silent) and ECC can only\n\
         detect it — the case the paper's NMR discussion worries about.\n",
    )
}
