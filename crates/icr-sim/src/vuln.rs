//! Analytic vulnerability profiles (single-pass AVF; the `icr-vuln`
//! model at experiment scale).
//!
//! Where the Monte-Carlo [`campaign`](crate::campaign) engine estimates
//! outcome probabilities from hundreds of injected-fault trials per
//! (scheme × app) cell, this runner computes the same distribution from
//! **one fault-free simulation per cell**: the dL1's exposure ledger
//! accumulates per-state residency and per-class consumed windows
//! inline, and the one-shot probabilities fall out analytically —
//! roughly two orders of magnitude cheaper than the campaign it
//! cross-validates against (see `icr-sim/tests/vuln_validation.rs`).

use crate::engine::Engine;
use crate::exec::Pool;
use crate::json::{arr, count, number, obj, text, Value};
use crate::simulator::SimConfig;
use icr_core::{
    DataL1Config, ErrorOutcome, ExposureWindows, ProtState, Scheme, VulnClass, VulnModel,
};

/// Everything that defines a vulnerability analysis. Echoed into the
/// JSON report so a result file is self-describing.
#[derive(Debug, Clone, PartialEq)]
pub struct VulnSpec {
    /// Cache schemes under test (rows of the matrix).
    pub schemes: Vec<Scheme>,
    /// Workloads (columns of the matrix).
    pub apps: Vec<String>,
    /// Dynamic instructions per (single) simulation.
    pub instructions: u64,
    /// Workload seed.
    pub seed: u64,
    /// Per-cycle arrival probability for the weighted windows (`None` =
    /// uniform arrival). Match a campaign's `effective_p()` when
    /// cross-checking against Monte-Carlo trials.
    pub arrival_p: Option<f64>,
    /// Raw flip-rate model for the FIT/MTTF summaries.
    pub model: VulnModel,
    /// Worker threads (`0` = all available cores).
    pub threads: usize,
}

impl VulnSpec {
    /// An analysis over `schemes × apps` with the repo's defaults:
    /// 200k-instruction runs, uniform arrival, the paper-default raw
    /// flip rate, all cores.
    pub fn new(schemes: Vec<Scheme>, apps: Vec<String>, instructions: u64, seed: u64) -> Self {
        VulnSpec {
            schemes,
            apps,
            instructions,
            seed,
            arrival_p: None,
            model: VulnModel::paper_default(),
            threads: 0,
        }
    }

    fn validate(&self) {
        assert!(
            !self.schemes.is_empty(),
            "vulnerability analysis needs at least one scheme"
        );
        assert!(!self.apps.is_empty(), "needs at least one app");
        assert!(self.instructions > 0, "needs instructions to run");
    }
}

/// The analytic profile of one (scheme × app) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct VulnCell {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Workload name.
    pub app: String,
    /// Cycles the (single) simulation ran for.
    pub cycles: u64,
    /// The accumulated exposure windows.
    pub windows: ExposureWindows,
}

impl VulnCell {
    /// Analytic probability that a single delivered strike ends as
    /// `outcome`. Classes map onto the campaign's
    /// [`ErrorOutcome`] vocabulary via [`ErrorOutcome::from_vuln_class`];
    /// outcomes with no analytic counterpart return 0.
    pub fn outcome_probability(&self, outcome: ErrorOutcome) -> f64 {
        VulnClass::ALL
            .iter()
            .filter(|&&c| ErrorOutcome::from_vuln_class(c) == outcome)
            .map(|&c| self.windows.one_shot_probability(c))
            .sum()
    }

    /// Analytic survived fraction — the campaign's headline number.
    pub fn survived_fraction(&self) -> f64 {
        self.windows.one_shot_survived()
    }
}

/// A finished analysis: the spec echo plus one cell per (scheme, app),
/// row-major in spec order.
#[derive(Debug, Clone, PartialEq)]
pub struct VulnReport {
    /// The spec that produced this report.
    pub spec: VulnSpec,
    /// Per-cell profiles.
    pub cells: Vec<VulnCell>,
}

/// Runs the analysis: one fault-free simulation per (scheme × app)
/// cell, fanned out over the worker pool. Deterministic for a given
/// spec — there is no randomness beyond the workload seed.
///
/// # Panics
///
/// Panics on an empty spec or an unknown application name.
pub fn run_vuln(spec: &VulnSpec) -> VulnReport {
    spec.validate();
    let pool = Pool::new(spec.threads);
    // The engine memoizes each cell: one a figure runner already
    // produced (or a repeated sweep) costs one cache hit.
    let grid = pool.run_grid(&spec.schemes, &spec.apps, |&scheme, app| {
        let dl1 = DataL1Config::paper_default(scheme);
        let mut cfg = SimConfig::paper(app, dl1, spec.instructions, spec.seed);
        cfg.vuln_arrival_p = spec.arrival_p;
        let r = Engine::global().run(&cfg);
        VulnCell {
            scheme,
            app: app.clone(),
            cycles: r.pipeline.cycles,
            windows: r.exposure.clone(),
        }
    });
    VulnReport {
        spec: spec.clone(),
        cells: grid.into_iter().flatten().collect(),
    }
}

impl VulnReport {
    /// The cell for `(scheme, app)`, if the spec contained it.
    pub fn cell(&self, scheme: Scheme, app: &str) -> Option<&VulnCell> {
        self.cells
            .iter()
            .find(|c| c.scheme == scheme && c.app == app)
    }

    /// Per-scheme windows merged over all apps, in spec order.
    pub fn scheme_totals(&self) -> Vec<(Scheme, ExposureWindows)> {
        self.spec
            .schemes
            .iter()
            .map(|&s| {
                let mut cells = self.cells.iter().filter(|c| c.scheme == s);
                let mut total = cells.next().expect("spec cells present").windows.clone();
                for c in cells {
                    total.merge(&c.windows);
                }
                (s, total)
            })
            .collect()
    }

    /// A human-readable per-scheme summary table: analytic one-shot
    /// probabilities, residency-weighted exposure, and FIT/MTTF under
    /// the spec's raw-rate model.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>8} {:>8} {:>8} {:>7} {:>7} {:>7} {:>10} {:>10} {:>12}\n",
            "scheme",
            "replica",
            "ecc",
            "refetch",
            "lost",
            "silent",
            "masked",
            "survived",
            "vuln.words",
            "FIT"
        ));
        for (scheme, w) in self.scheme_totals() {
            out.push_str(&format!(
                "{:<16} {:>8.4} {:>8.4} {:>8.4} {:>7.4} {:>7.4} {:>7.4} {:>10.4} {:>10.1} {:>12.3e}\n",
                scheme.name(),
                w.one_shot_probability(VulnClass::ByReplica),
                w.one_shot_probability(VulnClass::ByEcc),
                w.one_shot_probability(VulnClass::ByRefetch),
                w.one_shot_probability(VulnClass::Unrecoverable),
                w.one_shot_probability(VulnClass::Laundered),
                w.one_shot_masked(),
                w.one_shot_survived(),
                w.avg_words_in(ProtState::DirtyParity),
                self.spec.model.fit(&w),
            ));
        }
        out
    }

    /// The report as JSON, printed by [`Value::pretty`] (the workspace
    /// deliberately carries no JSON dependency) and free of timing or
    /// host information, so two runs of the same spec produce
    /// byte-identical files.
    pub fn to_json(&self) -> String {
        let spec = &self.spec;
        let vuln = obj([
            ("seed", count(spec.seed)),
            ("instructions", count(spec.instructions)),
            ("arrival_p", spec.arrival_p.map_or(Value::Null, number)),
            (
                "flips_per_bit_cycle",
                number(spec.model.flips_per_bit_cycle),
            ),
            ("bits_per_word", count(spec.model.bits_per_word)),
            ("clock_hz", number(spec.model.clock_hz)),
            ("schemes", arr(spec.schemes.iter().map(|s| text(&s.name())))),
            ("apps", arr(spec.apps.iter().map(|a| text(a)))),
        ]);
        let cells = self.cells.iter().map(|cell| {
            let w = &cell.windows;
            let residency = ProtState::ALL
                .iter()
                .map(|&s| (s.name(), count(w.residency_of(s))));
            let consumed = VulnClass::ALL
                .iter()
                .map(|&c| (c.name(), count(w.consumed_of(c))));
            let probabilities = VulnClass::ALL
                .iter()
                .map(|&c| {
                    let name = ErrorOutcome::from_vuln_class(c).name();
                    (name, number(w.one_shot_probability(c)))
                })
                .chain([("masked", number(w.one_shot_masked()))]);
            obj([
                ("scheme", text(&cell.scheme.name())),
                ("app", text(&cell.app)),
                ("cycles", count(cell.cycles)),
                ("total_word_cycles", count(w.total_word_cycles)),
                ("residency_word_cycles", obj(residency)),
                ("consumed_word_cycles", obj(consumed)),
                ("one_shot_probabilities", obj(probabilities)),
                ("survived_fraction", number(cell.survived_fraction())),
                (
                    "avg_vulnerable_words",
                    number(w.avg_words_in(ProtState::DirtyParity)),
                ),
                ("mttf_hours", number(spec.model.mttf_hours(w))),
                ("fit", number(spec.model.fit(w))),
            ])
        });
        let doc = obj([("vuln", vuln), ("cells", arr(cells))]);
        format!("{}\n", doc.pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> VulnSpec {
        VulnSpec::new(
            vec![Scheme::BASE_P, Scheme::ICR_P_PS_S],
            vec!["gzip".into()],
            5_000,
            7,
        )
    }

    #[test]
    fn run_vuln_produces_partitioned_windows_per_cell() {
        let report = run_vuln(&tiny_spec());
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            let total: u128 = cell.windows.residency.iter().sum();
            assert_eq!(total, cell.windows.total_word_cycles);
            assert!(cell.windows.total_word_cycles > 0);
        }
    }

    #[test]
    fn replication_improves_analytic_survival() {
        let report = run_vuln(&tiny_spec());
        let base = report.cell(Scheme::BASE_P, "gzip").unwrap();
        let icr = report.cell(Scheme::ICR_P_PS_S, "gzip").unwrap();
        assert!(
            icr.survived_fraction() >= base.survived_fraction(),
            "ICR must not be analytically worse than BaseP: {} vs {}",
            icr.survived_fraction(),
            base.survived_fraction()
        );
    }

    #[test]
    fn report_is_deterministic_and_json_is_stable() {
        let a = run_vuln(&tiny_spec());
        let b = run_vuln(&tiny_spec());
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("\"survived_fraction\""));
    }

    #[test]
    fn outcome_probabilities_cover_the_mapped_taxonomy() {
        let report = run_vuln(&tiny_spec());
        let cell = &report.cells[0];
        let total: f64 = ErrorOutcome::ALL
            .iter()
            .map(|&o| cell.outcome_probability(o))
            .sum();
        let masked = cell.windows.one_shot_masked();
        assert!((total + masked - 1.0).abs() < 1e-9);
    }
}
