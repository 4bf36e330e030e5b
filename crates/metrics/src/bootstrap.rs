//! Bootstrap confidence intervals.
//!
//! The paper reports point estimates from one 12-hour run. For the
//! replication harness we quantify uncertainty two ways:
//!
//! * [`bootstrap_mean_ci`] — a percentile-bootstrap CI for a statistic of
//!   per-job values within one run (e.g. the mean performance ratio);
//! * [`summarize_replications`] — mean ± sample standard deviation across
//!   independent seeds.
//!
//! The resampler uses a seeded [`DetRng`], so reported intervals are as
//! reproducible as everything else.

use ppc_simkit::{DetRng, RunningStats};
use serde::{Deserialize, Serialize};

/// A two-sided confidence interval for a mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Point estimate (the sample mean).
    pub mean: f64,
    /// Lower percentile bound.
    pub lo: f64,
    /// Upper percentile bound.
    pub hi: f64,
    /// Confidence level, e.g. 0.95.
    pub level: f64,
}

impl ConfidenceInterval {
    /// True if `value` lies inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        (self.lo..=self.hi).contains(&value)
    }
}

/// Percentile-bootstrap CI for the mean of `values`.
///
/// # Panics
/// Panics if `values` is empty, `resamples == 0`, or `level ∉ (0, 1)`.
pub fn bootstrap_mean_ci(
    values: &[f64],
    resamples: usize,
    level: f64,
    rng: &mut DetRng,
) -> ConfidenceInterval {
    assert!(!values.is_empty(), "cannot bootstrap an empty sample");
    assert!(resamples > 0, "need at least one resample");
    assert!((0.0..1.0).contains(&level) && level > 0.0, "level in (0,1)");
    let n = values.len();
    let mean = values.iter().sum::<f64>() / n as f64;
    let mut means = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let mut acc = 0.0;
        for _ in 0..n {
            acc += values[rng.index(n)];
        }
        means.push(acc / n as f64);
    }
    means.sort_by(|a, b| a.total_cmp(b));
    let alpha = (1.0 - level) / 2.0;
    let idx = |q: f64| {
        (((resamples - 1) as f64) * q)
            .round()
            .clamp(0.0, (resamples - 1) as f64) as usize
    };
    ConfidenceInterval {
        mean,
        lo: means[idx(alpha)],
        hi: means[idx(1.0 - alpha)],
        level,
    }
}

/// Mean ± sample standard deviation over replication results.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplicationSummary {
    /// Mean over replications.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n = 1).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Number of replications.
    pub n: usize,
}

/// Summarizes one metric across independent replications.
///
/// # Panics
/// Panics if `values` is empty.
pub fn summarize_replications(values: &[f64]) -> ReplicationSummary {
    assert!(!values.is_empty(), "no replications to summarize");
    let mut stats = RunningStats::new();
    for &v in values {
        stats.push(v);
    }
    let n = values.len();
    let sample_var = if n > 1 {
        stats.variance() * n as f64 / (n - 1) as f64
    } else {
        0.0
    };
    ReplicationSummary {
        mean: stats.mean(),
        std_dev: sample_var.sqrt(),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_simkit::RngFactory;

    fn rng() -> DetRng {
        RngFactory::new(17).stream("bootstrap-test", 0)
    }

    #[test]
    fn ci_brackets_the_true_mean_of_a_clean_sample() {
        let values: Vec<f64> = (0..200).map(|i| 10.0 + (i % 7) as f64).collect();
        let true_mean = values.iter().sum::<f64>() / values.len() as f64;
        let ci = bootstrap_mean_ci(&values, 1_000, 0.95, &mut rng());
        assert!((ci.mean - true_mean).abs() < 1e-12);
        assert!(ci.contains(true_mean));
        assert!(ci.lo <= ci.mean && ci.mean <= ci.hi);
        assert!(ci.hi - ci.lo < 1.0, "tight sample ⇒ tight CI");
    }

    #[test]
    fn wider_spread_gives_wider_ci() {
        let tight: Vec<f64> = (0..100).map(|i| 50.0 + (i % 3) as f64).collect();
        let wide: Vec<f64> = (0..100).map(|i| 50.0 + (i % 3) as f64 * 30.0).collect();
        let ci_tight = bootstrap_mean_ci(&tight, 500, 0.95, &mut rng());
        let ci_wide = bootstrap_mean_ci(&wide, 500, 0.95, &mut rng());
        assert!(ci_wide.hi - ci_wide.lo > (ci_tight.hi - ci_tight.lo) * 5.0);
    }

    #[test]
    fn ci_is_deterministic_for_a_seeded_rng() {
        let values: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let a = bootstrap_mean_ci(&values, 300, 0.9, &mut rng());
        let b = bootstrap_mean_ci(&values, 300, 0.9, &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn single_value_sample_degenerates_cleanly() {
        let ci = bootstrap_mean_ci(&[42.0], 100, 0.95, &mut rng());
        assert_eq!(ci.mean, 42.0);
        assert_eq!(ci.lo, 42.0);
        assert_eq!(ci.hi, 42.0);
    }

    #[test]
    fn replication_summary_matches_hand_math() {
        let s = summarize_replications(&[2.0, 4.0, 6.0]);
        assert_eq!(s.mean, 4.0);
        assert!(
            (s.std_dev - 2.0).abs() < 1e-12,
            "sample std of [2,4,6] is 2"
        );
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 6.0);
        assert_eq!(s.n, 3);
        let one = summarize_replications(&[5.0]);
        assert_eq!(one.std_dev, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_rejected() {
        bootstrap_mean_ci(&[], 10, 0.95, &mut rng());
    }
}
