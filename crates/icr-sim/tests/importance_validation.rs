//! Cross-validation: the importance-sampled estimator against the
//! uniform Monte-Carlo campaign it replaces.
//!
//! Both sides run the same (scheme × app) matrix with the same master
//! seed. The uniform campaign yields an unbiased survival estimate with
//! a Wilson 95% interval; the importance campaign tilts injection sites
//! toward dirty-parity lines and reweights each trial by its likelihood
//! ratio. For every cell the self-normalized weighted estimate must
//! land inside the uniform interval (plus a small self-normalization
//! allowance) — the tilt changes the variance, never the target.

use icr_core::Scheme;
use icr_sim::{run_campaign, CampaignSpec};

/// Extra slack on top of the uniform Wilson interval: the
/// self-normalized ratio estimator carries O(1/n) bias and both sides
/// are finite samples of the same distribution.
const EPS: f64 = 0.03;

fn campaign_spec() -> CampaignSpec {
    // Parity schemes, where the dirty-parity exposure window dominates
    // the failure probability and the proposal actually tilts; an ECC
    // baseline cell would have weight ≡ 1 and validate nothing.
    let mut spec = CampaignSpec::new(
        vec![Scheme::BASE_P, Scheme::ICR_P_PS_S, Scheme::ICR_P_PS_LS],
        vec!["gzip".into(), "vpr".into()],
        240,
        20_260_807,
    );
    spec.instructions = 6_000;
    spec
}

#[test]
fn importance_estimates_sit_inside_uniform_wilson_intervals() {
    let uniform_spec = campaign_spec();
    let mut importance_spec = campaign_spec();
    importance_spec.importance = true;

    let uniform = run_campaign(&uniform_spec).expect("uniform campaign runs");
    let weighted = run_campaign(&importance_spec).expect("importance campaign runs");
    assert_eq!(uniform.cells.len(), weighted.cells.len());

    for (u, w) in uniform.cells.iter().zip(&weighted.cells) {
        assert_eq!(
            (u.scheme, &u.app),
            (w.scheme, &w.app),
            "cell order is fixed"
        );
        let tally = w.weighted.as_ref().expect("importance cells carry weights");
        tally
            .check_consistent(&w.tally)
            .expect("weights stay consistent");
        let injected = w.tally.injected();
        assert!(
            injected >= importance_spec.trials_per_cell / 2,
            "{} × {}: too few injected trials ({injected}) to validate",
            u.scheme.name(),
            u.app
        );

        let est = tally.survived_estimate();
        let (lo, hi) = u.wilson95();
        assert!(
            est.p >= lo - EPS && est.p <= hi + EPS,
            "{} × {}: weighted estimate {:.4} (n_eff {:.1}) outside the \
             uniform Wilson 95% interval [{lo:.4}, {hi:.4}] \
             (uniform point estimate {:.4})",
            u.scheme.name(),
            u.app,
            est.p,
            est.n_eff,
            u.tally.survived_fraction(),
        );

        // And symmetrically: the uniform point estimate sits inside the
        // weighted interval, so neither side's CI excludes the other.
        let (wlo, whi) = w.weighted_wilson95().expect("weighted interval exists");
        let p_uniform = u.tally.survived_fraction();
        assert!(
            p_uniform >= wlo - EPS && p_uniform <= whi + EPS,
            "{} × {}: uniform estimate {p_uniform:.4} outside the weighted \
             interval [{wlo:.4}, {whi:.4}]",
            u.scheme.name(),
            u.app,
        );
    }
}

#[test]
fn importance_sampling_preserves_the_scheme_ordering() {
    // The headline comparison the paper draws must survive the tilt:
    // ICR replication beats the unprotected parity baseline on the
    // weighted estimates exactly as it does on the uniform ones.
    let mut spec = campaign_spec();
    spec.importance = true;
    let report = run_campaign(&spec).expect("importance campaign runs");
    for app in &spec.apps {
        let survived = |scheme: Scheme| {
            report
                .cells
                .iter()
                .find(|c| c.scheme == scheme && &c.app == app)
                .and_then(|c| c.weighted.as_ref())
                .map(|w| w.survived_estimate().p)
                .expect("cell exists with weights")
        };
        let base = survived(Scheme::BASE_P);
        let icr = survived(Scheme::ICR_P_PS_S);
        assert!(
            icr > base,
            "{app}: weighted ICR-P-PS(S) {icr:.4} must beat BaseP {base:.4}"
        );
    }
}
