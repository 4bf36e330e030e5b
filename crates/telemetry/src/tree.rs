//! Management-network aggregation tree.
//!
//! Figure 5's convexity does not come from the manager's CPU alone: on a
//! real machine the per-cycle samples of `n` monitored nodes must *reach*
//! the management node through an aggregation hierarchy, and the last hop
//! — everyone's reports converging on one endpoint — serializes. This
//! module models that mechanism so the "modeled" Figure-5 series has a
//! physical story, not just a fitted polynomial:
//!
//! * samples climb a `fan_in`-ary tree of aggregation switches; each
//!   message costs the receiving endpoint processing time;
//! * an aggregator can merge its children's reports (cheap, paid per
//!   child) but the **root** — the management node — must ingest one
//!   merged report per child *and* demultiplex all `n` node records it
//!   contains;
//! * incast contention at the root grows with the number of simultaneous
//!   senders: queueing delay scales superlinearly once arrival pressure
//!   approaches the root's service capacity (an M/D/1-flavored term).

use serde::{Deserialize, Serialize};

/// Parameters of the aggregation hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AggregationTree {
    /// Children per aggregation switch.
    pub fan_in: usize,
    /// Root CPU cost to demultiplex and store one node record, seconds.
    pub per_record_s: f64,
    /// Root service capacity: records it can absorb per second before
    /// queueing effects dominate.
    pub root_capacity_rec_per_s: f64,
}

impl AggregationTree {
    /// A management plane typical of 2012-era clusters: 16-port
    /// aggregation switches, and ~2 ms of root-side
    /// work per node record (daemon protocol handling, text parsing,
    /// database update — the pre-telemetry-era reality), saturating
    /// around 350 records/s.
    pub fn management_ethernet() -> Self {
        AggregationTree {
            fan_in: 16,
            per_record_s: 2.0e-3,
            root_capacity_rec_per_s: 350.0,
        }
    }

    /// Validates parameters.
    ///
    /// # Panics
    /// Panics on non-physical values.
    pub fn validate(&self) {
        assert!(self.fan_in >= 2, "tree fan-in must be at least 2");
        assert!(self.per_record_s > 0.0);
        assert!(self.root_capacity_rec_per_s > 0.0);
    }

    /// Tree depth needed to aggregate `n` leaves (0 for n ≤ 1).
    pub fn depth(&self, n: usize) -> u32 {
        if n <= 1 {
            return 0;
        }
        let mut depth = 0;
        let mut reach = 1usize;
        while reach < n {
            reach = reach.saturating_mul(self.fan_in);
            depth += 1;
        }
        depth
    }

    /// Root-side processing time per collection cycle, seconds: linear
    /// demultiplexing plus the incast queueing term
    /// `ρ/(2(1−ρ))·per_record·n` with utilization `ρ = n/capacity`
    /// (per 1-second cycle), clamped before saturation.
    pub fn root_busy_s(&self, n: usize) -> f64 {
        let n_f = n as f64;
        let linear = self.per_record_s * n_f;
        let rho = (n_f / self.root_capacity_rec_per_s).min(0.95);
        let queueing = if n == 0 {
            0.0
        } else {
            rho / (2.0 * (1.0 - rho)) * self.per_record_s * n_f
        };
        linear + queueing
    }

    /// Management-node utilization for an `n`-node candidate set at the
    /// given control-cycle period.
    ///
    /// # Panics
    /// Panics if `cycle_period_s` is not positive.
    pub fn utilization(&self, n: usize, cycle_period_s: f64) -> f64 {
        assert!(cycle_period_s > 0.0, "cycle period must be positive");
        (self.root_busy_s(n) / cycle_period_s).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tree() -> AggregationTree {
        let t = AggregationTree::management_ethernet();
        t.validate();
        t
    }

    #[test]
    fn depth_follows_fan_in() {
        let t = tree(); // fan-in 16
        assert_eq!(t.depth(0), 0);
        assert_eq!(t.depth(1), 0);
        assert_eq!(t.depth(2), 1);
        assert_eq!(t.depth(16), 1);
        assert_eq!(t.depth(17), 2);
        assert_eq!(t.depth(128), 2);
        assert_eq!(t.depth(257), 3);
    }

    #[test]
    fn root_cost_is_superlinear() {
        let t = tree();
        // Doubling the nodes must more than double the root cost once the
        // incast term matters.
        let c64 = t.root_busy_s(64);
        let c128 = t.root_busy_s(128);
        assert!(c128 > 2.0 * c64, "c64={c64} c128={c128}");
        assert_eq!(t.root_busy_s(0), 0.0);
    }

    #[test]
    fn utilization_is_clamped_and_scaled() {
        let t = tree();
        let u = t.utilization(128, 1.0);
        assert!((0.0..=1.0).contains(&u));
        assert!(t.utilization(128, 0.001) <= 1.0);
        // Faster cycles mean proportionally higher utilization (pre-clamp).
        assert!(t.utilization(64, 0.5) > t.utilization(64, 1.0));
    }

    proptest! {
        /// Monotonicity: more nodes never cost less, never exceed
        /// saturation, and depth is logarithmic (≤ log_2 n for fan-in ≥ 2).
        #[test]
        fn prop_monotone_and_bounded(n1 in 0usize..2_000, n2 in 0usize..2_000) {
            let t = tree();
            let (lo, hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
            prop_assert!(t.root_busy_s(lo) <= t.root_busy_s(hi) + 1e-15);
            prop_assert!(t.depth(lo) <= t.depth(hi));
            if hi > 1 {
                prop_assert!(t.depth(hi) as f64 <= (hi as f64).log2().ceil());
            }
            prop_assert!(t.utilization(hi, 1.0) <= 1.0);
        }
    }
}
