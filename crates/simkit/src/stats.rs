//! Running statistics and histograms.
//!
//! [`RunningStats`] uses Welford's algorithm so long traces can be
//! summarized in O(1) memory; [`Histogram`] gives fixed-bin distributions
//! and approximate percentiles for report tables.

use serde::{Deserialize, Serialize};

/// Single-pass mean/variance/min/max accumulator (Welford).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    /// Panics if `x` is not finite.
    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "observation must be finite, got {x}");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// Fixed-width-bin histogram over `[lo, hi)` with under/overflow bins.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "invalid histogram range [{lo}, {hi})");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        assert!(x.is_finite(), "observation must be finite, got {x}");
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            // Guard against rounding landing exactly on bins.len().
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total observations recorded (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Per-bin counts (excluding under/overflow).
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Approximate `q`-quantile (`0 ≤ q ≤ 1`): the left edge of the bin
    /// containing the q-th observation. Returns `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return Some(self.lo);
        }
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.lo + i as f64 * width);
            }
        }
        Some(self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn histogram_bins_and_outliers() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [-1.0, 0.0, 0.5, 5.0, 9.99, 10.0, 42.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 7);
        // -1.0 falls under the range, 10.0 and 42.0 over it.
        assert_eq!(h.bins().iter().sum::<u64>(), 4);
        assert_eq!(h.bins()[0], 2); // 0.0 and 0.5
        assert_eq!(h.bins()[5], 1); // 5.0
        assert_eq!(h.bins()[9], 1); // 9.99
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        assert_eq!(h.quantile(0.0), Some(0.0));
        let median = h.quantile(0.5).unwrap();
        assert!((49.0..=51.0).contains(&median), "median={median}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((97.0..=99.0).contains(&p99), "p99={p99}");
        assert_eq!(Histogram::new(0.0, 1.0, 4).quantile(0.5), None);
    }

    proptest! {
        #[test]
        fn prop_welford_matches_naive(data in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut s = RunningStats::new();
            for &x in &data {
                s.push(x);
            }
            let n = data.len() as f64;
            let mean: f64 = data.iter().sum::<f64>() / n;
            let var: f64 = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
            prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
            prop_assert!((s.variance() - var).abs() < 1e-5 * (1.0 + var.abs()));
        }

        #[test]
        fn prop_histogram_conserves_counts(data in proptest::collection::vec(-10.0f64..110.0, 0..300)) {
            let mut h = Histogram::new(0.0, 100.0, 13);
            for &x in &data {
                h.record(x);
            }
            let binned: u64 = h.bins().iter().sum();
            let in_range = data.iter().filter(|x| (0.0..100.0).contains(*x)).count();
            prop_assert_eq!(h.count(), data.len() as u64);
            prop_assert_eq!(binned, in_range as u64);
        }
    }
}
