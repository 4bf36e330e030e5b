//! Running statistics.
//!
//! [`RunningStats`] uses Welford's algorithm so long traces can be
//! summarized in O(1) memory.

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
    }
}
