//! Assembled run metrics and baseline normalization.
//!
//! Figures 6 and 7 present every measurement *normalized against the
//! unmanaged run* (candidate-set size 0): [`RunMetrics`] captures one
//! run's absolute numbers, [`RunMetrics::normalize_against`] produces the
//! ratios the figures plot.

use crate::{cplj, energy, overspend, peak, performance};
use ppc_simkit::TimeSeries;
use ppc_workload::JobRecord;
use serde::{Deserialize, Serialize};

/// Absolute metrics of one experimental run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Label (policy name, sweep point, …).
    pub label: String,
    /// `Performance(cap)` ∈ (0, 1].
    pub performance: f64,
    /// Count of performance-lossless jobs.
    pub cplj: usize,
    /// Lossless fraction ∈ [0, 1].
    pub cplj_fraction: f64,
    /// Finished-job count `J`.
    pub jobs_finished: usize,
    /// Peak power `P_max`, watts.
    pub p_max_w: f64,
    /// Time-weighted mean power, watts.
    pub p_mean_w: f64,
    /// ΔP×T against the provision threshold.
    pub overspend: f64,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Fraction of time above the provision threshold.
    pub time_above: f64,
}

impl RunMetrics {
    /// Computes all metrics from a power trace and job records.
    ///
    /// `p_th_w` is the provision capability used by ΔP×T;
    /// `lossless_tolerance` the CPLJ tick-quantization allowance.
    pub fn compute(
        label: impl Into<String>,
        trace: &TimeSeries,
        records: &[JobRecord],
        p_th_w: f64,
        lossless_tolerance: f64,
    ) -> Self {
        RunMetrics {
            label: label.into(),
            performance: performance::performance(records),
            cplj: cplj::cplj(records, lossless_tolerance),
            cplj_fraction: cplj::cplj_fraction(records, lossless_tolerance),
            jobs_finished: records.len(),
            p_max_w: peak::peak_power_w(trace),
            p_mean_w: peak::mean_power_w(trace),
            overspend: overspend::overspend_ratio(trace, p_th_w),
            energy_j: energy::total_energy_j(trace),
            time_above: overspend::time_above_fraction(trace, p_th_w),
        }
    }

    /// Normalizes against a baseline (typically the unmanaged run).
    pub fn normalize_against(&self, baseline: &RunMetrics) -> NormalizedMetrics {
        let ratio = |v: f64, b: f64| if b > 0.0 { v / b } else { 0.0 };
        NormalizedMetrics {
            label: self.label.clone(),
            performance: ratio(self.performance, baseline.performance),
            p_max: ratio(self.p_max_w, baseline.p_max_w),
            overspend: ratio(self.overspend, baseline.overspend),
            cplj_fraction: ratio(self.cplj_fraction, baseline.cplj_fraction),
            energy: ratio(self.energy_j, baseline.energy_j),
        }
    }
}

/// Ratios of one run's metrics over a baseline run's (1.0 = unchanged).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NormalizedMetrics {
    /// Label of the normalized run.
    pub label: String,
    /// Performance ratio.
    pub performance: f64,
    /// `P_max` ratio.
    pub p_max: f64,
    /// ΔP×T ratio.
    pub overspend: f64,
    /// CPLJ-fraction ratio.
    pub cplj_fraction: f64,
    /// Energy ratio.
    pub energy: f64,
}

#[cfg(any(test, feature = "testutil"))]
pub mod testutil {
    //! Record fixtures shared by the metric tests.
    use ppc_simkit::SimTime;
    use ppc_workload::app::{Class, NpbApp};
    use ppc_workload::{JobId, JobPriority, JobRecord};

    /// A finished-job record with the given baseline and actual seconds.
    pub fn record(id: u64, baseline: f64, actual: f64) -> JobRecord {
        JobRecord {
            id: JobId(id),
            app: NpbApp::Ep,
            class: Class::D,
            nprocs: 8,
            priority: JobPriority::Normal,
            submitted_at: SimTime::ZERO,
            started_at: SimTime::ZERO,
            finished_at: SimTime::from_millis((actual * 1000.0).round() as u64),
            baseline_secs: baseline,
            actual_secs: actual,
            throttled_secs: (actual - baseline).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::record;
    use super::*;
    use ppc_simkit::SimTime;

    fn trace(samples: &[(u64, f64)]) -> TimeSeries {
        let mut t = TimeSeries::new();
        for &(s, v) in samples {
            t.push(SimTime::from_secs(s), v);
        }
        t
    }

    #[test]
    fn compute_assembles_all_fields() {
        let t = trace(&[(0, 120.0), (10, 80.0), (20, 80.0)]);
        let records = vec![record(1, 10.0, 10.0), record(2, 10.0, 20.0)];
        let m = RunMetrics::compute("MPC", &t, &records, 100.0, 0.01);
        assert_eq!(m.label, "MPC");
        assert!((m.performance - 0.75).abs() < 1e-12);
        assert_eq!(m.cplj, 1);
        assert_eq!(m.jobs_finished, 2);
        assert_eq!(m.p_max_w, 120.0);
        assert!((m.overspend - 0.1).abs() < 1e-12);
        assert_eq!(m.energy_j, 2_000.0);
    }

    #[test]
    fn normalization_gives_unit_self_ratio() {
        let t = trace(&[(0, 120.0), (10, 80.0), (20, 80.0)]);
        let records = vec![record(1, 10.0, 10.0)];
        let m = RunMetrics::compute("x", &t, &records, 100.0, 0.01);
        let n = m.normalize_against(&m);
        assert!((n.performance - 1.0).abs() < 1e-12);
        assert!((n.p_max - 1.0).abs() < 1e-12);
        assert!((n.overspend - 1.0).abs() < 1e-12);
        assert!((n.energy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_shows_capping_wins() {
        let uncapped = RunMetrics::compute(
            "none",
            &trace(&[(0, 150.0), (10, 150.0), (20, 100.0), (30, 100.0)]),
            &[record(1, 10.0, 10.0)],
            120.0,
            0.01,
        );
        let capped = RunMetrics::compute(
            "MPC",
            &trace(&[(0, 125.0), (10, 125.0), (20, 100.0), (30, 100.0)]),
            &[record(1, 10.0, 10.5)],
            120.0,
            0.01,
        );
        let n = capped.normalize_against(&uncapped);
        assert!(n.p_max < 1.0, "peak reduced");
        assert!(n.overspend < 1.0, "ΔP×T reduced");
        assert!(n.performance <= 1.0, "performance not inflated");
    }

    #[test]
    fn zero_baseline_fields_normalize_to_zero() {
        let idle = RunMetrics::compute("idle", &TimeSeries::new(), &[], 100.0, 0.01);
        let n = idle.normalize_against(&idle);
        assert_eq!(n.p_max, 0.0);
        assert_eq!(n.overspend, 0.0);
    }

    #[test]
    fn empty_run_is_well_defined() {
        let m = RunMetrics::compute("HRI", &TimeSeries::new(), &[], 90.0, 0.01);
        assert_eq!(m.performance, 1.0);
        assert_eq!(m.cplj_fraction, 1.0);
        assert_eq!(m.jobs_finished, 0);
        assert_eq!(m.p_max_w, 0.0);
        assert_eq!(m.overspend, 0.0);
    }
}
