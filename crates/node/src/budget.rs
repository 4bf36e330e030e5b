//! Node-level power-budget allocation.
//!
//! The paper's related work (§I.B) describes the classic two-level
//! structure of Femal et al.: a cluster-level manager hands each node a
//! watt budget, and "the node-level power manager then allocates its
//! power budget to each device in the node, making sure that its power
//! expenditure is beneath its local threshold". This module is that
//! node-level half: given a budget and the node's operating state, find
//! the operating point that fits.
//!
//! On DVFS-only hardware (the testbed), the allocation degenerates to
//! picking the highest frequency level whose Formula-(1) prediction stays
//! within budget — [`level_for_budget`].

use crate::freq::Level;
use crate::profile::{OperatingState, PowerModel};

/// Picks the highest level whose predicted power fits `budget_w` for the
/// given operating state; the lowest level when none fits.
///
/// # Panics
/// Panics if `budget_w` is not finite.
pub fn level_for_budget(model: &PowerModel, state: &OperatingState, budget_w: f64) -> Level {
    assert!(budget_w.is_finite(), "budget must be finite");
    let levels = model.table().len();
    debug_assert!(levels >= 1);
    // Power is monotone in level, so scan downward for the first fit.
    (0..levels)
        .rev()
        .map(|idx| Level::new(idx as u8))
        .find(|&level| model.power_w(level, state) <= budget_w)
        .unwrap_or(Level::LOWEST)
}

/// Splits a cluster budget across nodes proportionally to their current
/// power draws (the ensemble-style division of Ranganathan et al.).
/// Returns one budget per input entry; zero-draw nodes receive an equal
/// share of whatever the positive-draw nodes do not claim.
///
/// # Panics
/// Panics if `total_budget_w` is negative or not finite.
pub fn proportional_budgets(draws_w: &[f64], total_budget_w: f64) -> Vec<f64> {
    assert!(
        total_budget_w.is_finite() && total_budget_w >= 0.0,
        "budget must be finite and non-negative"
    );
    let total_draw: f64 = draws_w.iter().sum();
    if draws_w.is_empty() {
        return Vec::new();
    }
    if total_draw <= 0.0 {
        let share = total_budget_w / draws_w.len() as f64;
        return vec![share; draws_w.len()];
    }
    draws_w
        .iter()
        .map(|&d| total_budget_w * d / total_draw)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NodeSpec;
    use proptest::prelude::*;

    fn fixture() -> (std::sync::Arc<PowerModel>, OperatingState) {
        let spec = NodeSpec::tianhe_1a();
        let model = spec.power_model(1.0);
        let busy = OperatingState {
            cpu_util: 0.9,
            mem_used_bytes: 12 << 30,
            nic_bytes: 500_000_000,
        };
        (model, busy)
    }

    #[test]
    fn generous_budget_is_unconstrained() {
        let (model, busy) = fixture();
        assert_eq!(level_for_budget(&model, &busy, 10_000.0), Level::new(9));
    }

    #[test]
    fn tight_budget_picks_highest_fitting_level() {
        let (model, busy) = fixture();
        let top_power = model.power_w(Level::new(9), &busy);
        let budget = top_power - 30.0; // force at least one step down
        let level = level_for_budget(&model, &busy, budget);
        assert!(level < Level::new(9));
        assert!(model.power_w(level, &busy) <= budget);
        // The next level up must NOT fit (highest-fitting property).
        assert!(model.power_w(level.up(), &busy) > budget);
    }

    #[test]
    fn impossible_budget_reports_excess() {
        let (model, busy) = fixture();
        // Nothing fits: the node is pinned to the floor, which overshoots.
        assert_eq!(level_for_budget(&model, &busy, 50.0), Level::LOWEST);
        assert!(model.power_w(Level::LOWEST, &busy) > 50.0);
    }

    #[test]
    fn proportional_split_preserves_total_and_ratios() {
        let draws = [300.0, 150.0, 50.0];
        let budgets = proportional_budgets(&draws, 400.0);
        assert!((budgets.iter().sum::<f64>() - 400.0).abs() < 1e-9);
        assert!((budgets[0] / budgets[1] - 2.0).abs() < 1e-9);
        assert!((budgets[1] / budgets[2] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn proportional_split_handles_idle_cluster() {
        let budgets = proportional_budgets(&[0.0, 0.0], 100.0);
        assert_eq!(budgets, vec![50.0, 50.0]);
        assert!(proportional_budgets(&[], 100.0).is_empty());
    }

    proptest! {
        /// The chosen level always fits when any level fits, is the
        /// highest that does, and is the floor when none does.
        #[test]
        fn prop_budget_fit_consistency(
            util in 0.0f64..1.0,
            budget in 100.0f64..400.0,
        ) {
            let spec = NodeSpec::tianhe_1a();
            let model = spec.power_model(1.0);
            let state = OperatingState { cpu_util: util, mem_used_bytes: 0, nic_bytes: 0 };
            let level = level_for_budget(&model, &state, budget);
            let p = model.power_w(level, &state);
            if p <= budget {
                prop_assert!(level == Level::new(9) || model.power_w(level.up(), &state) > budget);
            } else {
                prop_assert_eq!(level, Level::LOWEST);
            }
        }

        /// Proportional budgets conserve the total.
        #[test]
        fn prop_split_conserves(draws in proptest::collection::vec(0.0f64..500.0, 1..20), total in 0.0f64..10_000.0) {
            let budgets = proportional_budgets(&draws, total);
            prop_assert_eq!(budgets.len(), draws.len());
            let sum: f64 = budgets.iter().sum();
            prop_assert!((sum - total).abs() < 1e-6 * (1.0 + total));
        }
    }
}
