//! Management-cost accounting (the paper's Figure 5).
//!
//! "The cost of central power management rises with the number of nodes to
//! be monitored … CPU utilizations of the central management node increase
//! non-linearly with the sizes of A_candidate."
//!
//! Two complementary instruments:
//!
//! * [`CycleCostMeter`] measures the *real* wall-clock cost of our
//!   collector + policy code per control cycle (used by the Figure-5
//!   regenerator; a simulation reads the same cost from its profiler's
//!   `control` stage);
//! * [`ManagementCostModel`] is the calibrated analytic curve — a linear
//!   per-sample term (ingest, Formula-1 evaluation) plus a super-linear
//!   aggregation/coordination term (job grouping, sorting, and the
//!   management network's incast contention) — used inside simulations,
//!   where wall-clock time of the host machine must not leak into results.

use ppc_simkit::RunningStats;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Measures real per-cycle management cost.
#[derive(Debug, Clone, Default)]
pub struct CycleCostMeter {
    stats: RunningStats,
}

impl CycleCostMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f`, recording its wall-clock cost; returns `f`'s output.
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.stats.push(start.elapsed().as_secs_f64());
        out
    }

    /// Mean measured cost per cycle, seconds.
    pub fn mean_cycle_secs(&self) -> f64 {
        self.stats.mean()
    }
}

/// Calibrated analytic management-cost curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ManagementCostModel {
    /// Per-monitored-node cost per cycle, seconds (ingest + estimate).
    pub per_node_secs: f64,
    /// Pairwise coordination cost coefficient, seconds per node² per
    /// cycle (aggregation contention, job grouping).
    pub pairwise_secs: f64,
    /// Control cycle period, seconds.
    pub cycle_period_secs: f64,
}

impl ManagementCostModel {
    /// Calibration matching the paper's testbed shape: ≈3% utilization at
    /// 16 monitored nodes rising non-linearly to ≈40% at 128.
    pub fn tianhe_1a() -> Self {
        ManagementCostModel {
            per_node_secs: 1.70e-3,
            pairwise_secs: 1.12e-5,
            cycle_period_secs: 1.0,
        }
    }

    /// Per-cycle management cost for `n` monitored nodes, seconds.
    pub fn cycle_cost_secs(&self, n: usize) -> f64 {
        let n = n as f64;
        self.per_node_secs * n + self.pairwise_secs * n * n
    }

    /// Management-node CPU utilization for `n` monitored nodes, in [0, 1].
    pub fn utilization(&self, n: usize) -> f64 {
        (self.cycle_cost_secs(n) / self.cycle_period_secs).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates_cycles() {
        let mut m = CycleCostMeter::new();
        let out = m.measure(|| {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(out > 0);
        assert!(m.mean_cycle_secs() >= 0.0);
        assert_eq!(CycleCostMeter::new().mean_cycle_secs(), 0.0);
    }

    #[test]
    fn model_is_calibrated_to_paper_shape() {
        let m = ManagementCostModel::tianhe_1a();
        let u16 = m.utilization(16);
        let u128 = m.utilization(128);
        assert!((0.02..0.05).contains(&u16), "u(16)={u16}");
        assert!((0.3..0.5).contains(&u128), "u(128)={u128}");
    }

    #[test]
    fn model_grows_superlinearly() {
        let m = ManagementCostModel::tianhe_1a();
        // Doubling the nodes must more than double the cost.
        for n in [16usize, 32, 64] {
            assert!(
                m.cycle_cost_secs(2 * n) > 2.0 * m.cycle_cost_secs(n),
                "n={n}"
            );
        }
    }

    #[test]
    fn utilization_saturates_at_one() {
        let m = ManagementCostModel {
            per_node_secs: 1.0,
            pairwise_secs: 0.0,
            cycle_period_secs: 1.0,
        };
        assert_eq!(m.utilization(1000), 1.0);
    }

    #[test]
    fn zero_nodes_cost_nothing() {
        let m = ManagementCostModel::tianhe_1a();
        assert_eq!(m.cycle_cost_secs(0), 0.0);
        assert_eq!(m.utilization(0), 0.0);
    }
}
