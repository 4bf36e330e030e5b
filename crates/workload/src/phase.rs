//! Execution phases.
//!
//! A job is a sequence of phases; each phase carries the device-utilization
//! signature its member nodes exhibit while the phase runs, plus the
//! compute-boundness α that couples node frequency to progress rate.

use serde::{Deserialize, Serialize};

/// What kind of work a phase does (determines its signature defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhaseKind {
    /// Application startup: MPI initialization, input distribution —
    /// utilization ramps up over these phases, so a large job's power
    /// rises over several sampling intervals instead of one step.
    Startup,
    /// CPU-dominated computation.
    Compute,
    /// Memory-bandwidth-dominated computation.
    Memory,
    /// Interconnect-dominated exchange.
    Comm,
}

/// One phase of a job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// The phase kind.
    pub kind: PhaseKind,
    /// Work in full-speed seconds: time this phase takes with every member
    /// node at its top frequency.
    pub work_secs: f64,
    /// Compute-boundness α ∈ [0, 1]: fraction of the phase's critical path
    /// that scales with 1/f. At relative speed `s = f/f_max`, the phase
    /// progresses at rate `1 / (α/s + (1 − α))`.
    pub alpha: f64,
    /// CPU utilization of each member node during the phase.
    pub cpu_util: f64,
    /// NIC traffic per member node, as a fraction of link bandwidth.
    pub nic_fraction: f64,
}

impl Phase {
    /// Progress rate (full-speed work seconds per wall second) of a node at
    /// relative speed `s ∈ (0, 1]`.
    ///
    /// # Panics
    /// Panics (debug) if `s` is out of `(0, 1]`.
    pub fn rate_at_speed(&self, s: f64) -> f64 {
        debug_assert!(
            s > 0.0 && s <= 1.0 + 1e-12,
            "relative speed {s} out of range"
        );
        1.0 / (self.alpha / s + (1.0 - self.alpha))
    }

    /// Validates the phase invariants; used by constructors and tests.
    pub fn is_valid(&self) -> bool {
        self.work_secs > 0.0
            && (0.0..=1.0).contains(&self.alpha)
            && (0.0..=1.0).contains(&self.cpu_util)
            && (0.0..=1.0).contains(&self.nic_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn phase(alpha: f64) -> Phase {
        Phase {
            kind: PhaseKind::Compute,
            work_secs: 100.0,
            alpha,
            cpu_util: 0.9,
            nic_fraction: 0.1,
        }
    }

    #[test]
    fn full_speed_rate_is_one() {
        for alpha in [0.0, 0.3, 0.7, 1.0] {
            assert!((phase(alpha).rate_at_speed(1.0) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fully_compute_bound_scales_linearly() {
        let p = phase(1.0);
        assert!((p.rate_at_speed(0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fully_memory_bound_is_frequency_insensitive() {
        let p = phase(0.0);
        assert!((p.rate_at_speed(0.5) - 1.0).abs() < 1e-12);
        assert!((p.rate_at_speed(0.55) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_alpha_interpolates() {
        // α=0.5 at half speed: rate = 1/(0.5/0.5 + 0.5) = 1/1.5.
        let p = phase(0.5);
        assert!((p.rate_at_speed(0.5) - 1.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn validity_checks() {
        assert!(phase(0.5).is_valid());
        assert!(!Phase {
            work_secs: 0.0,
            ..phase(0.5)
        }
        .is_valid());
        assert!(!Phase {
            alpha: 1.5,
            ..phase(0.5)
        }
        .is_valid());
        assert!(!Phase {
            cpu_util: -0.1,
            ..phase(0.5)
        }
        .is_valid());
        assert!(!Phase {
            nic_fraction: 2.0,
            ..phase(0.5)
        }
        .is_valid());
    }

    proptest! {
        /// Rate is monotone in speed and bounded by (0, 1].
        #[test]
        fn prop_rate_monotone_in_speed(alpha in 0.0f64..1.0, s1 in 0.05f64..1.0, s2 in 0.05f64..1.0) {
            let p = phase(alpha);
            let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
            prop_assert!(p.rate_at_speed(lo) <= p.rate_at_speed(hi) + 1e-12);
            prop_assert!(p.rate_at_speed(hi) <= 1.0 + 1e-12);
            prop_assert!(p.rate_at_speed(lo) > 0.0);
        }

        /// Higher α ⇒ more slowdown at any sub-maximal speed.
        #[test]
        fn prop_alpha_orders_sensitivity(a1 in 0.0f64..1.0, a2 in 0.0f64..1.0, s in 0.05f64..0.99) {
            let (lo, hi) = if a1 <= a2 { (a1, a2) } else { (a2, a1) };
            prop_assert!(phase(hi).rate_at_speed(s) <= phase(lo).rate_at_speed(s) + 1e-12);
        }
    }
}
