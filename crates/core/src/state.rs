//! Power-consumption states and the two-threshold scheme.
//!
//! Two thresholds `P_L ≤ P_H` partition total system power into three
//! states. The gap between them is the safety buffer that lets the system
//! hover near `P_L` (performance) without spilling into Red (safety).

use crate::error::CoreError;
use serde::{Deserialize, Serialize};

/// The three power-consumption states, defined in `ppc-obs` so the
/// health rollup folds the controller's own classification.
pub use ppc_obs::PowerState;

/// A validated `(P_L, P_H)` pair, watts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Thresholds {
    p_low_w: f64,
    p_high_w: f64,
}

impl Thresholds {
    /// Builds a threshold pair, enforcing `0 < P_L ≤ P_H`.
    pub fn new(p_low_w: f64, p_high_w: f64) -> Result<Self, CoreError> {
        if !(p_low_w > 0.0 && p_low_w <= p_high_w && p_high_w.is_finite()) {
            return Err(CoreError::InvalidThresholds { p_low_w, p_high_w });
        }
        Ok(Thresholds { p_low_w, p_high_w })
    }

    /// Derives thresholds from a peak observation with the paper's
    /// margins: `P_H = (1 − high_margin)·P_peak`, `P_L = (1 − low_margin)·P_peak`.
    pub fn from_peak(p_peak_w: f64, low_margin: f64, high_margin: f64) -> Result<Self, CoreError> {
        if p_peak_w.is_nan() || p_peak_w <= 0.0 {
            return Err(CoreError::InvalidThresholds {
                p_low_w: 0.0,
                p_high_w: 0.0,
            });
        }
        if !(0.0..1.0).contains(&high_margin) || !(high_margin..1.0).contains(&low_margin) {
            return Err(CoreError::InvalidConfig(format!(
                "margins must satisfy 0 <= high ({high_margin}) <= low ({low_margin}) < 1"
            )));
        }
        Thresholds::new(
            (1.0 - low_margin) * p_peak_w,
            (1.0 - high_margin) * p_peak_w,
        )
    }

    /// `P_L`, watts.
    pub fn p_low_w(&self) -> f64 {
        self.p_low_w
    }

    /// `P_H`, watts.
    pub fn p_high_w(&self) -> f64 {
        self.p_high_w
    }

    /// Classifies a power reading.
    pub fn classify(&self, power_w: f64) -> PowerState {
        if power_w < self.p_low_w {
            PowerState::Green
        } else if power_w < self.p_high_w {
            PowerState::Yellow
        } else {
            PowerState::Red
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn classification_boundaries_are_half_open() {
        let t = Thresholds::new(100.0, 200.0).unwrap();
        assert_eq!(t.classify(99.9), PowerState::Green);
        assert_eq!(t.classify(100.0), PowerState::Yellow);
        assert_eq!(t.classify(199.9), PowerState::Yellow);
        assert_eq!(t.classify(200.0), PowerState::Red);
        assert_eq!(t.classify(1e9), PowerState::Red);
    }

    #[test]
    fn equal_thresholds_skip_yellow() {
        let t = Thresholds::new(100.0, 100.0).unwrap();
        assert_eq!(t.classify(99.0), PowerState::Green);
        assert_eq!(t.classify(100.0), PowerState::Red);
    }

    #[test]
    fn invalid_pairs_rejected() {
        assert!(Thresholds::new(200.0, 100.0).is_err());
        assert!(Thresholds::new(0.0, 100.0).is_err());
        assert!(Thresholds::new(-5.0, 100.0).is_err());
        assert!(Thresholds::new(1.0, f64::INFINITY).is_err());
    }

    #[test]
    fn paper_margins_give_84_and_93_percent() {
        let t = Thresholds::from_peak(1000.0, 0.16, 0.07).unwrap();
        assert!((t.p_low_w() - 840.0).abs() < 1e-9);
        assert!((t.p_high_w() - 930.0).abs() < 1e-9);
    }

    #[test]
    fn from_peak_validates_margins() {
        assert!(
            Thresholds::from_peak(1000.0, 0.07, 0.16).is_err(),
            "swapped"
        );
        assert!(Thresholds::from_peak(1000.0, 1.2, 0.07).is_err());
        assert!(Thresholds::from_peak(0.0, 0.16, 0.07).is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(PowerState::Green.to_string(), "green");
        assert_eq!(PowerState::Red.to_string(), "red");
    }

    proptest! {
        /// Classification is monotone: more power never yields a "safer"
        /// state.
        #[test]
        fn prop_classification_monotone(pl in 1.0f64..1e6, gap in 0.0f64..1e5, p1 in 0.0f64..2e6, p2 in 0.0f64..2e6) {
            let t = Thresholds::new(pl, pl + gap).unwrap();
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(t.classify(lo) <= t.classify(hi));
        }

        /// from_peak always yields valid, ordered thresholds below peak.
        #[test]
        fn prop_from_peak_ordering(peak in 1.0f64..1e7) {
            let t = Thresholds::from_peak(peak, 0.16, 0.07).unwrap();
            prop_assert!(t.p_low_w() <= t.p_high_w());
            prop_assert!(t.p_high_w() < peak);
            prop_assert!(t.p_low_w() > 0.0);
        }
    }
}
