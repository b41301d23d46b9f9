//! Statistical summaries across seeds — reproduction hygiene the original
//! paper (single SimpleScalar runs) could not offer: every headline number
//! here can be reported as mean ± 95% confidence interval over independent
//! workload seeds.

/// Mean and spread of one metric over independent runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 95% confidence interval (t-distribution).
    pub ci95: f64,
    /// Sample standard deviation.
    pub stddev: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises a set of samples.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn from_samples(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "cannot summarise zero samples");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return Summary {
                mean,
                ci95: 0.0,
                stddev: 0.0,
                n,
            };
        }
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let stddev = var.sqrt();
        let t = t_critical_95(n - 1);
        Summary {
            mean,
            ci95: t * stddev / (n as f64).sqrt(),
            stddev,
            n,
        }
    }

    /// `true` when `other`'s mean lies outside this summary's 95% CI —
    /// a quick "statistically distinguishable" check.
    pub fn distinguishable_from(&self, other: &Summary) -> bool {
        (self.mean - other.mean).abs() > self.ci95 + other.ci95
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ± {:.4}", self.mean, self.ci95)
    }
}

/// Wilson score interval for a binomial proportion at 95% confidence.
///
/// Unlike the normal (Wald) interval it never leaves `[0, 1]` and stays
/// honest near 0 and 1 — exactly where fault-injection campaigns live
/// (recovery fractions close to 1, silent-corruption rates close to 0).
/// `(0, 1)` for zero trials; panics when `successes > trials`.
pub fn wilson_ci95(successes: u64, trials: u64) -> (f64, f64) {
    assert!(
        successes <= trials,
        "successes {successes} > trials {trials}"
    );
    wilson_ci95_f(successes as f64, trials as f64)
}

/// Wilson score interval at 95% confidence over *fractional* counts —
/// the generalization the importance-sampled campaign needs.
///
/// A self-normalized weighted estimator yields a probability estimate
/// `p` with an effective sample size `n_eff`; treating it as if it were
/// a binomial observation of `p·n_eff` successes in `n_eff` trials
/// gives the weighted analogue of [`wilson_ci95`], reducing to it
/// exactly when the inputs are the integer counts. Inputs are clamped
/// (`successes` into `[0, trials]`); `(0, 1)` when `trials` is not
/// positive.
pub fn wilson_ci95_f(successes: f64, trials: f64) -> (f64, f64) {
    if trials.is_nan() || trials <= 0.0 || !successes.is_finite() {
        return (0.0, 1.0);
    }
    let n = trials;
    let p = (successes / n).clamp(0.0, 1.0);
    let z = 1.96;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Two-sided 95% critical values of Student's t: exact rows for df 1–30,
/// then the standard printed-table rows at df 40, 60 and 120, and the
/// normal approximation beyond.
///
/// Between tabulated rows the value for the next *smaller* tabulated df
/// is used (df 31–39 → the df-30 row, df 40–59 → the df-40 row, …), so
/// the interval is always at least as wide as the exact t value demands
/// — conservative, never anti-conservative.
pub fn t_critical_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::INFINITY
    } else if df <= TABLE.len() {
        TABLE[df - 1]
    } else if df < 40 {
        TABLE[TABLE.len() - 1] // 2.042: the df-30 row, conservative for 31–39
    } else if df < 60 {
        2.021 // df-40 row
    } else if df < 120 {
        2.000 // df-60 row
    } else if df < 1000 {
        1.980 // df-120 row
    } else {
        1.96
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sample_has_zero_spread() {
        let s = Summary::from_samples(&[5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.n, 1);
    }

    #[test]
    fn identical_samples_have_zero_spread() {
        let s = Summary::from_samples(&[2.0; 10]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn known_small_sample() {
        // samples 1..=5: mean 3, sd sqrt(2.5), t(4)=2.776
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.stddev - 2.5f64.sqrt()).abs() < 1e-12);
        let expected_ci = 2.776 * 2.5f64.sqrt() / 5f64.sqrt();
        assert!((s.ci95 - expected_ci).abs() < 1e-9);
    }

    #[test]
    fn distinguishable_means_do_not_overlap() {
        let a = Summary::from_samples(&[1.0, 1.1, 0.9, 1.05]);
        let b = Summary::from_samples(&[2.0, 2.1, 1.9, 2.05]);
        assert!(a.distinguishable_from(&b));
        let c = Summary::from_samples(&[1.0, 1.2, 0.8, 1.1]);
        assert!(!a.distinguishable_from(&c));
    }

    #[test]
    fn t_table_decreases_toward_normal() {
        assert!(t_critical_95(1) > t_critical_95(5));
        assert!(t_critical_95(5) > t_critical_95(30));
        // The large-df rows of the standard table, no longer a jump
        // straight from 2.042 to 1.96 at df 31.
        assert_eq!(t_critical_95(31), 2.042);
        assert_eq!(t_critical_95(40), 2.021);
        assert_eq!(t_critical_95(60), 2.000);
        assert_eq!(t_critical_95(120), 1.980);
        assert_eq!(t_critical_95(1000), 1.96);
    }

    #[test]
    fn t_table_is_monotone_and_bounded_over_the_full_range() {
        // Property over the whole table: non-increasing in df, always at
        // least the normal critical value, and exactly the textbook
        // endpoints.
        assert_eq!(t_critical_95(0), f64::INFINITY);
        assert_eq!(t_critical_95(1), 12.706);
        let mut prev = f64::INFINITY;
        for df in 1..=2000 {
            let t = t_critical_95(df);
            assert!(t <= prev, "t rose at df {df}: {t} > {prev}");
            assert!(t >= 1.96, "t below the normal value at df {df}: {t}");
            assert!(t.is_finite());
            prev = t;
        }
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_samples_panic() {
        Summary::from_samples(&[]);
    }

    #[test]
    fn fractional_wilson_reduces_to_the_integer_interval() {
        for &(s, n) in &[(0u64, 10u64), (3, 10), (10, 10), (997, 1000), (0, 1)] {
            let (lo, hi) = wilson_ci95(s, n);
            let (flo, fhi) = wilson_ci95_f(s as f64, n as f64);
            assert!((lo - flo).abs() < 1e-12, "lo mismatch at {s}/{n}");
            assert!((hi - fhi).abs() < 1e-12, "hi mismatch at {s}/{n}");
        }
    }

    #[test]
    fn fractional_wilson_handles_degenerate_inputs() {
        assert_eq!(wilson_ci95_f(1.0, 0.0), (0.0, 1.0));
        assert_eq!(wilson_ci95_f(1.0, -3.0), (0.0, 1.0));
        assert_eq!(wilson_ci95_f(f64::NAN, 5.0), (0.0, 1.0));
        // Out-of-range successes clamp instead of panicking.
        let (lo, hi) = wilson_ci95_f(7.0, 5.0);
        assert!((0.0..=1.0).contains(&lo) && lo <= hi && hi <= 1.0);
        // Wider effective samples tighten the interval.
        let (a_lo, a_hi) = wilson_ci95_f(45.0, 50.0);
        let (b_lo, b_hi) = wilson_ci95_f(450.0, 500.0);
        assert!(b_hi - b_lo < a_hi - a_lo);
    }
}
