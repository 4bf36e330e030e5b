//! Threshold setting and adjustment (paper §III.A).
//!
//! The thresholds are configurable — an administrator can pin them — but
//! the paper proposes a simple learning scheme:
//!
//! 1. Initialize `P_peak := P_Max` (the power provision capability).
//! 2. Run a training period (24 h on the testbed) recording the observed
//!    peak; at its end adopt the recorded peak as `P_peak`.
//! 3. Keep observing the peak for the whole execution; re-derive
//!    `P_H = 93%·P_peak`, `P_L = 84%·P_peak` every `t_p` control cycles
//!    (`t_p` large, so adjustment is much rarer than capping).

use crate::error::CoreError;
use crate::state::Thresholds;
use serde::{Deserialize, Serialize};

/// The 7%/16% margins reported by Fan et al. between achieved and
/// theoretical aggregate power.
pub const HIGH_MARGIN: f64 = 0.07;
/// See [`HIGH_MARGIN`].
pub const LOW_MARGIN: f64 = 0.16;

/// Learns and periodically re-derives the `(P_L, P_H)` pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThresholdLearner {
    low_margin: f64,
    high_margin: f64,
    /// Cycles remaining in the training period.
    training_cycles_left: u64,
    /// Adjustment period after training, in control cycles.
    t_p_cycles: u64,
    cycles_since_adjust: u64,
    /// Current basis for the thresholds.
    p_peak_w: f64,
    /// Running peak observed since start (observation never stops).
    observed_peak_w: f64,
    thresholds: Thresholds,
    /// Frozen learners keep the administrator-set pair forever (the
    /// paper's manual-configuration mode); the peak is still tracked for
    /// reporting.
    frozen: bool,
}

impl ThresholdLearner {
    /// Creates a learner seeded with the provision capability `P_Max`.
    ///
    /// `training_cycles` is the length of the initial training period and
    /// `t_p_cycles` the adjustment period after it (both in control
    /// cycles).
    pub fn new(
        p_provision_w: f64,
        training_cycles: u64,
        t_p_cycles: u64,
    ) -> Result<Self, CoreError> {
        Self::with_margins(
            p_provision_w,
            training_cycles,
            t_p_cycles,
            LOW_MARGIN,
            HIGH_MARGIN,
        )
    }

    /// As [`ThresholdLearner::new`] with explicit margins (ablations).
    pub fn with_margins(
        p_provision_w: f64,
        training_cycles: u64,
        t_p_cycles: u64,
        low_margin: f64,
        high_margin: f64,
    ) -> Result<Self, CoreError> {
        if t_p_cycles == 0 {
            return Err(CoreError::InvalidConfig(
                "t_p must be at least one cycle".to_string(),
            ));
        }
        let thresholds = Thresholds::from_peak(p_provision_w, low_margin, high_margin)?;
        Ok(ThresholdLearner {
            low_margin,
            high_margin,
            training_cycles_left: training_cycles,
            t_p_cycles,
            cycles_since_adjust: 0,
            p_peak_w: p_provision_w,
            observed_peak_w: 0.0,
            thresholds,
            frozen: false,
        })
    }

    /// Freezes the thresholds at their current (administrator-set) pair;
    /// observation continues but adjustment never fires.
    pub fn frozen(mut self) -> Self {
        self.frozen = true;
        self
    }

    /// Current thresholds.
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// Current `P_peak` basis, watts.
    pub fn p_peak_w(&self) -> f64 {
        self.p_peak_w
    }

    /// Highest power observed so far, watts.
    pub fn observed_peak_w(&self) -> f64 {
        self.observed_peak_w
    }

    /// True while still in the training period.
    pub fn in_training(&self) -> bool {
        self.training_cycles_left > 0
    }

    /// Feeds one control cycle's power reading; returns `true` when the
    /// thresholds were re-derived this cycle.
    pub fn observe_cycle(&mut self, power_w: f64) -> bool {
        assert!(power_w >= 0.0, "power cannot be negative");
        self.observed_peak_w = self.observed_peak_w.max(power_w);
        if self.frozen {
            return false;
        }
        if self.training_cycles_left > 0 {
            self.training_cycles_left -= 1;
            if self.training_cycles_left == 0 {
                self.adopt_observed_peak();
                return true;
            }
            return false;
        }
        self.cycles_since_adjust += 1;
        if self.cycles_since_adjust >= self.t_p_cycles {
            self.cycles_since_adjust = 0;
            self.adopt_observed_peak();
            return true;
        }
        false
    }

    /// Re-seeds the learner with a new provision capability `P_Max` —
    /// the what-if "raise/lower the cap" operation. The threshold pair
    /// is re-derived from the new basis immediately; peak observation
    /// restarts so a later adjustment reflects only post-change history.
    pub fn reprovision(&mut self, p_provision_w: f64) -> Result<(), CoreError> {
        self.thresholds = Thresholds::from_peak(p_provision_w, self.low_margin, self.high_margin)?;
        self.p_peak_w = p_provision_w;
        self.observed_peak_w = 0.0;
        self.cycles_since_adjust = 0;
        Ok(())
    }

    /// Re-derives thresholds from the observed peak (if any observation
    /// was made; an idle training period keeps the provision-based pair).
    fn adopt_observed_peak(&mut self) {
        if self.observed_peak_w > 0.0 {
            self.p_peak_w = self.observed_peak_w;
            self.thresholds =
                Thresholds::from_peak(self.p_peak_w, self.low_margin, self.high_margin)
                    // ppc-lint: allow(panic-path): peak > 0 checked above; margins were validated at construction
                    .expect("peak > 0 and validated margins always yield thresholds");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn starts_from_provision_capability() {
        let l = ThresholdLearner::new(10_000.0, 10, 100).unwrap();
        assert!(l.in_training());
        assert!((l.thresholds().p_high_w() - 9_300.0).abs() < 1e-9);
        assert!((l.thresholds().p_low_w() - 8_400.0).abs() < 1e-9);
    }

    #[test]
    fn training_end_adopts_observed_peak() {
        let mut l = ThresholdLearner::new(10_000.0, 3, 100).unwrap();
        assert!(!l.observe_cycle(7_000.0));
        assert!(!l.observe_cycle(8_000.0));
        let adjusted = l.observe_cycle(7_500.0);
        assert!(adjusted, "last training cycle must adjust");
        assert!(!l.in_training());
        assert_eq!(l.p_peak_w(), 8_000.0);
        assert!((l.thresholds().p_high_w() - 0.93 * 8_000.0).abs() < 1e-9);
        assert!((l.thresholds().p_low_w() - 0.84 * 8_000.0).abs() < 1e-9);
    }

    #[test]
    fn periodic_adjustment_every_t_p_cycles() {
        let mut l = ThresholdLearner::new(10_000.0, 1, 5).unwrap();
        l.observe_cycle(6_000.0); // training ends, peak 6000
        assert_eq!(l.p_peak_w(), 6_000.0);
        // 4 cycles: no adjustment even though the peak rises.
        for _ in 0..4 {
            assert!(!l.observe_cycle(9_000.0));
            assert_eq!(l.p_peak_w(), 6_000.0);
        }
        // 5th cycle adjusts.
        assert!(l.observe_cycle(9_000.0));
        assert_eq!(l.p_peak_w(), 9_000.0);
    }

    #[test]
    fn peak_observation_is_cumulative_across_periods() {
        let mut l = ThresholdLearner::new(10_000.0, 1, 2).unwrap();
        l.observe_cycle(9_500.0);
        l.observe_cycle(100.0);
        l.observe_cycle(100.0); // adjust: cumulative peak is still 9500
        assert_eq!(l.p_peak_w(), 9_500.0);
    }

    #[test]
    fn idle_training_keeps_provision_pair() {
        let mut l = ThresholdLearner::new(10_000.0, 2, 5).unwrap();
        l.observe_cycle(0.0);
        l.observe_cycle(0.0);
        assert_eq!(l.p_peak_w(), 10_000.0);
    }

    #[test]
    fn frozen_learner_never_adjusts() {
        let mut l = ThresholdLearner::new(10_000.0, 1, 1).unwrap().frozen();
        for _ in 0..10 {
            assert!(!l.observe_cycle(99_000.0));
        }
        assert_eq!(l.p_peak_w(), 10_000.0, "basis stays at the manual value");
        assert_eq!(l.observed_peak_w(), 99_000.0, "observation continues");
        assert!((l.thresholds().p_high_w() - 9_300.0).abs() < 1e-9);
    }

    #[test]
    fn zero_t_p_rejected() {
        assert!(ThresholdLearner::new(1_000.0, 10, 0).is_err());
    }

    proptest! {
        /// Invariants: P_L ≤ P_H ≤ P_peak, and P_peak never exceeds the max
        /// of provision capability and the observed maximum.
        #[test]
        fn prop_learner_invariants(
            provision in 100.0f64..1e6,
            training in 0u64..20,
            t_p in 1u64..20,
            readings in proptest::collection::vec(0.0f64..2e6, 1..100),
        ) {
            let mut l = ThresholdLearner::new(provision, training, t_p).unwrap();
            let mut max_seen = 0.0f64;
            for r in readings {
                max_seen = max_seen.max(r);
                l.observe_cycle(r);
                let t = l.thresholds();
                prop_assert!(t.p_low_w() <= t.p_high_w());
                prop_assert!(t.p_high_w() <= l.p_peak_w());
                prop_assert!(l.p_peak_w() <= provision.max(max_seen) + 1e-9);
                prop_assert!(l.observed_peak_w() <= max_seen + 1e-9);
            }
        }
    }
}
