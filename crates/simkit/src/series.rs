//! Append-only time series with integration helpers.
//!
//! Power traces are recorded as `(SimTime, f64)` samples. The ΔP×T metric
//! needs `∫ P(t) dt` and `∫_{P>P_th} (P(t) − P_th) dt`; both are provided
//! here under step-wise (sample-and-hold, matching a metered trace) and
//! trapezoid interpolation.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// How to interpolate between samples when integrating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Interp {
    /// Sample-and-hold: the value at `t_i` holds until `t_{i+1}`. This is
    /// what a polling power meter actually observes and is the default for
    /// all paper metrics.
    Step,
    /// Linear interpolation between consecutive samples.
    Trapezoid,
}

/// An append-only series of `(time, value)` samples with non-decreasing time.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    times: Vec<SimTime>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty series with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        TimeSeries {
            times: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
        }
    }

    /// Appends a sample.
    ///
    /// # Panics
    /// Panics if `t` precedes the last recorded sample or `v` is not finite.
    pub fn push(&mut self, t: SimTime, v: f64) {
        assert!(v.is_finite(), "sample value must be finite, got {v}");
        if let Some(&last) = self.times.last() {
            assert!(t >= last, "samples must have non-decreasing time");
        }
        self.times.push(t);
        self.values.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True if no samples are recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Sample iterator.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// FNV-1a fingerprint over the raw bits of every value (byte
    /// discipline): equal fingerprints mean a bit-identical trace.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::Fnv1a::new();
        for v in &self.values {
            h.write_u64(v.to_bits());
        }
        h.finish()
    }

    /// The raw value slice.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The raw time slice.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    /// Largest recorded value, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Smallest recorded value, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Time-weighted mean over the recorded span (step interpolation),
    /// or `None` with fewer than two samples.
    pub fn time_weighted_mean(&self) -> Option<f64> {
        let total = self.span()?.as_secs_f64();
        if total == 0.0 {
            return None;
        }
        Some(self.integrate(Interp::Step) / total)
    }

    /// Recorded span (first to last sample time).
    pub fn span(&self) -> Option<SimDuration> {
        match (self.times.first(), self.times.last()) {
            (Some(&a), Some(&b)) => Some(b - a),
            _ => None,
        }
    }

    /// `∫ v(t) dt` over the recorded span, in value·seconds.
    pub fn integrate(&self, interp: Interp) -> f64 {
        if self.times.len() < 2 {
            return 0.0;
        }
        let mut acc = 0.0;
        for i in 0..self.times.len() - 1 {
            let dt = (self.times[i + 1] - self.times[i]).as_secs_f64();
            acc += match interp {
                Interp::Step => self.values[i] * dt,
                Interp::Trapezoid => 0.5 * (self.values[i] + self.values[i + 1]) * dt,
            };
        }
        acc
    }

    /// `∫ max(v(t) − threshold, 0) dt` over the recorded span.
    ///
    /// With `Interp::Step` each sample's value is held until the next
    /// sample. With `Interp::Trapezoid`, segments crossing the threshold are
    /// split analytically at the crossing point.
    pub fn integrate_excess_above(&self, threshold: f64, interp: Interp) -> f64 {
        if self.times.len() < 2 {
            return 0.0;
        }
        let mut acc = 0.0;
        for i in 0..self.times.len() - 1 {
            let dt = (self.times[i + 1] - self.times[i]).as_secs_f64();
            if dt == 0.0 {
                continue;
            }
            let v0 = self.values[i];
            let v1 = self.values[i + 1];
            acc += match interp {
                Interp::Step => (v0 - threshold).max(0.0) * dt,
                Interp::Trapezoid => trapezoid_excess(v0, v1, threshold, dt),
            };
        }
        acc
    }

    /// Fraction of the recorded span during which `v(t) > threshold`
    /// (step interpolation). Returns 0 for fewer than two samples.
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.times.len() < 2 {
            return 0.0;
        }
        let Some(span) = self.span() else { return 0.0 };
        let total = span.as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        let mut above = 0.0;
        for i in 0..self.times.len() - 1 {
            if self.values[i] > threshold {
                above += (self.times[i + 1] - self.times[i]).as_secs_f64();
            }
        }
        above / total
    }

    /// The sub-series of samples at or after `t0` (e.g. the measurement
    /// window of a trace that includes a training prefix).
    pub fn since(&self, t0: SimTime) -> TimeSeries {
        let start = self.times.partition_point(|&t| t < t0);
        TimeSeries {
            times: self.times[start..].to_vec(),
            values: self.values[start..].to_vec(),
        }
    }

    /// Downsamples by keeping every `stride`-th sample (always keeping the
    /// first and last). Useful for plotting long traces.
    pub fn decimate(&self, stride: usize) -> TimeSeries {
        assert!(stride > 0, "stride must be positive");
        let n = self.len();
        let mut out = TimeSeries::new();
        for i in (0..n).step_by(stride) {
            out.push(self.times[i], self.values[i]);
        }
        if n > 0 && !(n - 1).is_multiple_of(stride) {
            out.push(self.times[n - 1], self.values[n - 1]);
        }
        out
    }
}

/// Excess-above-threshold area of one linear segment of length `dt` going
/// from `v0` to `v1`.
fn trapezoid_excess(v0: f64, v1: f64, threshold: f64, dt: f64) -> f64 {
    let e0 = v0 - threshold;
    let e1 = v1 - threshold;
    match (e0 > 0.0, e1 > 0.0) {
        (true, true) => 0.5 * (e0 + e1) * dt,
        (false, false) => 0.0,
        // The segment crosses the threshold once; integrate the triangular
        // part on the positive side of the crossing.
        (true, false) => {
            let frac = e0 / (e0 - e1);
            0.5 * e0 * frac * dt
        }
        (false, true) => {
            let frac = e1 / (e1 - e0);
            0.5 * e1 * frac * dt
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn series(samples: &[(u64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &(t, v) in samples {
            s.push(SimTime::from_secs(t), v);
        }
        s
    }

    #[test]
    fn push_rejects_time_regression() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs(2), 1.0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.push(SimTime::from_secs(1), 1.0)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn push_rejects_nan() {
        let mut s = TimeSeries::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.push(SimTime::ZERO, f64::NAN)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn step_integration_of_constant() {
        let s = series(&[(0, 5.0), (10, 5.0)]);
        assert_eq!(s.integrate(Interp::Step), 50.0);
        assert_eq!(s.integrate(Interp::Trapezoid), 50.0);
    }

    #[test]
    fn trapezoid_integration_of_ramp() {
        let s = series(&[(0, 0.0), (10, 10.0)]);
        assert_eq!(s.integrate(Interp::Trapezoid), 50.0);
        // Step holds 0.0 for the whole segment.
        assert_eq!(s.integrate(Interp::Step), 0.0);
    }

    #[test]
    fn excess_above_threshold_step() {
        // 10s at 8.0 (excess 3), 10s at 4.0 (no excess), threshold 5.
        let s = series(&[(0, 8.0), (10, 4.0), (20, 4.0)]);
        assert_eq!(s.integrate_excess_above(5.0, Interp::Step), 30.0);
    }

    #[test]
    fn excess_above_threshold_trapezoid_crossing() {
        // Ramp 0→10 over 10s, threshold 5: excess area is a triangle with
        // base 5s and height 5 → 12.5.
        let s = series(&[(0, 0.0), (10, 10.0)]);
        let e = s.integrate_excess_above(5.0, Interp::Trapezoid);
        assert!((e - 12.5).abs() < 1e-9, "e={e}");
        // Falling ramp is symmetric.
        let s2 = series(&[(0, 10.0), (10, 0.0)]);
        let e2 = s2.integrate_excess_above(5.0, Interp::Trapezoid);
        assert!((e2 - 12.5).abs() < 1e-9, "e2={e2}");
    }

    #[test]
    fn fraction_above_counts_held_intervals() {
        let s = series(&[(0, 9.0), (10, 1.0), (30, 9.0), (40, 9.0)]);
        // Above 5: [0,10) and [30,40) → 20 of 40 seconds.
        assert!((s.fraction_above(5.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn max_min_mean_span() {
        let s = series(&[(0, 2.0), (10, 6.0), (20, 4.0)]);
        assert_eq!(s.max(), Some(6.0));
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.span(), Some(SimDuration::from_secs(20)));
        // Step mean: (2*10 + 6*10) / 20 = 4.
        assert_eq!(s.time_weighted_mean(), Some(4.0));
    }

    #[test]
    fn empty_and_single_sample_edge_cases() {
        let s = TimeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.max(), None);
        assert_eq!(s.integrate(Interp::Step), 0.0);
        let one = series(&[(5, 3.0)]);
        assert_eq!(one.integrate(Interp::Step), 0.0);
        assert_eq!(one.time_weighted_mean(), None);
        assert_eq!(one.fraction_above(0.0), 0.0);
    }

    #[test]
    fn since_slices_at_boundary() {
        let s = series(&[(0, 1.0), (5, 2.0), (10, 3.0), (15, 4.0)]);
        let tail = s.since(SimTime::from_secs(5));
        assert_eq!(tail.len(), 3);
        assert_eq!(tail.values(), &[2.0, 3.0, 4.0]);
        assert_eq!(s.since(SimTime::from_secs(99)).len(), 0);
        assert_eq!(s.since(SimTime::ZERO).len(), 4);
    }

    #[test]
    fn decimate_keeps_endpoints() {
        let s = series(&[(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)]);
        let d = s.decimate(2);
        let times: Vec<u64> = d.times().iter().map(|t| t.as_millis() / 1000).collect();
        assert_eq!(times, vec![0, 2, 4]);
        let d3 = s.decimate(3);
        let times3: Vec<u64> = d3.times().iter().map(|t| t.as_millis() / 1000).collect();
        assert_eq!(times3, vec![0, 3, 4], "last sample must be kept");
    }

    proptest! {
        /// Excess integral is within [0, full integral shifted], and zero when
        /// the threshold is above the maximum.
        #[test]
        fn prop_excess_bounds(vals in proptest::collection::vec(0.0f64..100.0, 2..50), th in 0.0f64..120.0) {
            let mut s = TimeSeries::new();
            for (i, &v) in vals.iter().enumerate() {
                s.push(SimTime::from_secs(i as u64), v);
            }
            for interp in [Interp::Step, Interp::Trapezoid] {
                let excess = s.integrate_excess_above(th, interp);
                prop_assert!(excess >= 0.0);
                let max = s.max().unwrap();
                if th >= max {
                    prop_assert!(excess == 0.0);
                }
                // Excess can never exceed the integral of the trace itself
                // when the threshold is non-negative.
                prop_assert!(excess <= s.integrate(interp) + 1e-9);
            }
        }

        /// Integration is additive when splitting a series at any sample.
        #[test]
        fn prop_integral_additive(vals in proptest::collection::vec(0.0f64..50.0, 3..30), split in 1usize..28) {
            prop_assume!(split < vals.len() - 1);
            let build = |range: std::ops::Range<usize>| {
                let mut s = TimeSeries::new();
                for i in range {
                    s.push(SimTime::from_secs(i as u64), vals[i]);
                }
                s
            };
            let whole = build(0..vals.len());
            let left = build(0..split + 1);
            let right = build(split..vals.len());
            let sum = left.integrate(Interp::Trapezoid) + right.integrate(Interp::Trapezoid);
            prop_assert!((whole.integrate(Interp::Trapezoid) - sum).abs() < 1e-6);
        }
    }
}
