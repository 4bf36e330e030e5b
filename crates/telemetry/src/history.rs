//! Bounded per-node sample history.
//!
//! The change-based policies differentiate consecutive samples; a single
//! noisy interval can therefore mislabel the "fastest-ramping job".
//! [`PowerHistory`] keeps the last `depth` power estimates per node so
//! library users can compute *windowed* rates (rate over the last `k`
//! intervals) — the robustness knob the paper's future work alludes to
//! when it speaks of "other selection policies".

use ppc_simkit::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A bounded ring of `(time, power)` samples for one node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerHistory {
    depth: usize,
    samples: VecDeque<(SimTime, f64)>,
}

impl PowerHistory {
    /// Creates a history holding at most `depth` samples.
    ///
    /// # Panics
    /// Panics if `depth < 2` (a rate needs two points).
    pub fn new(depth: usize) -> Self {
        assert!(depth >= 2, "history depth must be at least 2");
        PowerHistory {
            depth,
            samples: VecDeque::with_capacity(depth),
        }
    }

    /// Appends a sample, evicting the oldest beyond the depth.
    ///
    /// # Panics
    /// Panics if `at` precedes the newest stored sample.
    pub fn push(&mut self, at: SimTime, power_w: f64) {
        if let Some(&(last, _)) = self.samples.back() {
            assert!(at >= last, "history samples must be time-ordered");
        }
        if self.samples.len() == self.depth {
            self.samples.pop_front();
        }
        self.samples.push_back((at, power_w));
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The newest sample.
    pub fn latest(&self) -> Option<(SimTime, f64)> {
        self.samples.back().copied()
    }

    /// Relative rate of increase over the last `k` intervals:
    /// `(P_newest − P_{newest−k}) / P_{newest−k}`. `None` without enough
    /// samples or with a non-positive base.
    pub fn windowed_rate(&self, k: usize) -> Option<f64> {
        if k == 0 || self.samples.len() <= k {
            return None;
        }
        let newest = self.samples[self.samples.len() - 1].1;
        let base = self.samples[self.samples.len() - 1 - k].1;
        if base <= 0.0 {
            return None;
        }
        Some((newest - base) / base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hist(vals: &[f64]) -> PowerHistory {
        let mut h = PowerHistory::new(8);
        for (i, &v) in vals.iter().enumerate() {
            h.push(SimTime::from_secs(i as u64), v);
        }
        h
    }

    #[test]
    fn eviction_keeps_depth() {
        let mut h = PowerHistory::new(3);
        for i in 0..10u64 {
            h.push(SimTime::from_secs(i), i as f64);
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.latest(), Some((SimTime::from_secs(9), 9.0)));
    }

    #[test]
    fn windowed_rate_spans_k_intervals() {
        let h = hist(&[100.0, 110.0, 121.0, 133.1]);
        // 1-interval rate: 133.1/121 − 1 = 0.1.
        assert!((h.windowed_rate(1).unwrap() - 0.1).abs() < 1e-9);
        // 3-interval rate: 133.1/100 − 1 = 0.331.
        assert!((h.windowed_rate(3).unwrap() - 0.331).abs() < 1e-9);
        assert_eq!(h.windowed_rate(4), None, "not enough samples");
        assert_eq!(h.windowed_rate(0), None);
    }

    #[test]
    fn zero_base_gives_no_rate() {
        let h = hist(&[0.0, 50.0]);
        assert_eq!(h.windowed_rate(1), None);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn time_regression_rejected() {
        let mut h = PowerHistory::new(4);
        h.push(SimTime::from_secs(5), 1.0);
        h.push(SimTime::from_secs(3), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_depth_rejected() {
        PowerHistory::new(1);
    }

    proptest! {
        /// A windowed rate over smoothed data is bounded by the min/max
        /// single-interval rates in the window (sanity of the definition),
        /// and depth is never exceeded.
        #[test]
        fn prop_depth_and_rate_consistency(vals in proptest::collection::vec(1.0f64..1000.0, 2..40)) {
            let mut h = PowerHistory::new(8);
            for (i, &v) in vals.iter().enumerate() {
                h.push(SimTime::from_secs(i as u64), v);
                prop_assert!(h.len() <= 8);
            }
            if let Some(r) = h.windowed_rate(1) {
                let n = vals.len();
                let expect = (vals[n - 1] - vals[n - 2]) / vals[n - 2];
                prop_assert!((r - expect).abs() < 1e-9);
            }
        }
    }
}
