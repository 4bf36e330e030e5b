//! The proportional-budget controller — a related-work *architecture*
//! baseline (not just a selection policy).
//!
//! Prior cluster power managers (Femal's two-level allocation,
//! Ranganathan's ensemble controller) work budget-first: the cluster
//! budget is divided across **all** nodes each cycle — proportionally to
//! their current draws — and every node locally picks the highest
//! operating point that fits its share. All nodes are equally important,
//! all nodes are monitored, and jobs are invisible.
//!
//! Running this controller against the paper's Algorithm 1 quantifies the
//! two claims the paper makes for its architecture: (1) job-aware target
//! selection loses less performance for the same cap, and (2) monitoring
//! a candidate subset is dramatically cheaper than the whole machine.

//! It also hosts the parent→child **budget delegation** primitives the
//! hierarchical control plane is built on: [`split_proportional`] cuts a
//! parent budget into child shares along telescoping cumulative-weight
//! cuts, [`delegate_with_headroom`] re-lends surplus between siblings
//! each control cycle, and [`conserves_budget`] is the bit-exact
//! conservation checker (Σ child budgets ≤ parent, expressed as a
//! sequential draw-down so it is verifiable without re-summing floats).

use crate::capping::NodeCommand;
use crate::state::{PowerState, Thresholds};
use ppc_node::budget::{level_for_budget, proportional_budgets};
use ppc_node::node::Node;
use ppc_telemetry::NodeSample;

/// `true` iff `x` compares greater than zero. Spelled as a named guard
/// because every use site wants the *negation* to catch NaN too: a NaN
/// weight, budget or pool must take the "nothing to delegate" path, and
/// `!is_positive(NaN)` is true where `NaN <= 0.0` would be false.
pub(crate) fn is_positive(x: f64) -> bool {
    x > 0.0
}

/// Splits `total` watts across children proportionally to `weights`.
///
/// Shares are computed as differences of telescoping cumulative cuts
/// `cut_k = total · (Σ_{i≤k} w_i / Σ w_i)`, each clamped into the budget
/// still remaining, so the output satisfies the sequential draw-down
/// invariant of [`conserves_budget`] **exactly** — no epsilon. The final
/// cumulative weight is the same left-to-right fold as `weights.sum()`,
/// so the last cut is exactly `total`: a lone positive-weight child
/// receives the whole parent budget bit for bit (the degenerate
/// single-rack topology delegates losslessly).
///
/// Children with nonpositive weight receive exactly `0.0`. A nonpositive
/// `total` or all-nonpositive weights yield all-zero shares.
pub fn split_proportional(total: f64, weights: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; weights.len()];
    if !is_positive(total) {
        return out;
    }
    let w_total: f64 = weights.iter().map(|&w| w.max(0.0)).sum();
    if !is_positive(w_total) {
        return out;
    }
    let mut cum = 0.0f64;
    let mut prev_cut = 0.0f64;
    let mut remaining = total;
    for (share, &w) in out.iter_mut().zip(weights) {
        cum += w.max(0.0);
        // The last child's cut is exactly `total`: `cum` reaches `w_total`
        // through the identical fold that produced it.
        let cut = if cum >= w_total {
            total
        } else {
            total * (cum / w_total)
        };
        *share = (cut - prev_cut).max(0.0).min(remaining);
        remaining -= *share;
        prev_cut = cut;
    }
    out
}

/// The bit-exact conservation invariant: replaying the children against
/// the parent budget as a sequential draw-down, every child's share is
/// nonnegative and fits the budget still remaining.
///
/// This is the checkable form of "Σ child budgets ≤ parent": iterated
/// float re-summation of the shares can drift past the parent by ulps
/// even for a perfectly fair split, but the draw-down replay uses the
/// same subtraction order [`split_proportional`] clamped against, so a
/// conforming delegation verifies exactly.
pub fn conserves_budget(parent_w: f64, children_w: &[f64]) -> bool {
    let mut remaining = parent_w;
    for &c in children_w {
        if c < 0.0 || c > remaining {
            return false;
        }
        remaining -= c;
    }
    true
}

/// One cycle of sibling headroom re-delegation.
///
/// Starting from the weight-proportional base split, each child's *need*
/// is its current demand inflated to the P_L margin (`demand / (1 −
/// low_margin)` — the budget at which the child's learner would classify
/// that demand Green). Children with base share above need offer
/// `lend_fraction` of the surplus; children below need bid for their
/// deficit. The lending pool is `min(Σ offered, Σ wanted)` — surplus is
/// only moved where a sibling can use it — and the effective weights
/// (base − pro-rata lend + pro-rata borrow) are re-split through
/// [`split_proportional`], so the result inherits its exact draw-down
/// conservation.
///
/// With fewer than two children, or when nobody can lend or nobody needs
/// to borrow, this returns the base split unchanged — the single-rack
/// topology never sees its budget move.
pub fn delegate_with_headroom(
    total: f64,
    weights: &[f64],
    demands_w: &[f64],
    low_margin: f64,
    lend_fraction: f64,
) -> Vec<f64> {
    debug_assert_eq!(weights.len(), demands_w.len());
    let base = split_proportional(total, weights);
    if base.len() < 2 || !is_positive(lend_fraction) {
        return base;
    }
    let margin = low_margin.clamp(0.0, 0.95);
    let mut surplus = 0.0f64;
    let mut deficit = 0.0f64;
    let mut need = vec![0.0f64; base.len()];
    for ((&b, &d), n) in base.iter().zip(demands_w).zip(need.iter_mut()) {
        *n = d.max(0.0) / (1.0 - margin);
        if b > *n {
            surplus += (b - *n) * lend_fraction;
        } else {
            deficit += *n - b;
        }
    }
    let pool = surplus.min(deficit);
    if !is_positive(pool) {
        return base;
    }
    let mut effective = base.clone();
    for ((e, &n), &b) in effective.iter_mut().zip(&need).zip(&base) {
        if b > n {
            *e = b - (b - n) * lend_fraction * (pool / surplus);
        } else {
            *e = b + (n - b) * (pool / deficit);
        }
    }
    split_proportional(total, &effective)
}

/// Cycle statistics of the budget controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetStats {
    /// Control cycles run.
    pub cycles: u64,
    /// Cycles spent above the activation threshold (capping active).
    pub active_cycles: u64,
    /// Commands issued.
    pub commands_issued: u64,
}

/// The ensemble/two-level budget controller.
#[derive(Debug, Clone)]
pub struct ProportionalBudgetController {
    thresholds: Thresholds,
    stats: BudgetStats,
}

impl ProportionalBudgetController {
    /// Creates the controller with administrator-set thresholds (budget
    /// controllers do not learn; they protect the configured budget).
    pub fn new(thresholds: Thresholds) -> Self {
        ProportionalBudgetController {
            thresholds,
            stats: BudgetStats::default(),
        }
    }

    /// The configured thresholds.
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// Cycle statistics.
    pub fn stats(&self) -> BudgetStats {
        self.stats
    }

    /// Runs one control cycle over the nodes sampled this cycle.
    ///
    /// Above `P_L`, the budget `P_L` is split across the sampled nodes
    /// proportionally to their sampled draws and each node is set to the
    /// highest level that fits its share. At or below `P_L`, every sampled
    /// node is restored to its top (budget controllers re-derive the full
    /// allocation every cycle; there is no gradual recovery). A sample
    /// carries the node's level, state and draw; `nodes`, indexed by id,
    /// gives its highest level and power model.
    pub fn cycle(
        &mut self,
        metered_w: f64,
        samples: &[NodeSample],
        nodes: &[Node],
    ) -> (PowerState, Vec<NodeCommand>) {
        self.stats.cycles += 1;
        let state = self.thresholds.classify(metered_w);
        let mut commands = Vec::new();
        if state == PowerState::Green {
            // Full restoration: budget is not under pressure.
            for s in samples {
                let highest = nodes[s.node.0 as usize].highest_level();
                if s.level < highest {
                    commands.push(NodeCommand {
                        node: s.node,
                        level: highest,
                    });
                }
            }
        } else {
            self.stats.active_cycles += 1;
            let draws: Vec<f64> = samples.iter().map(|s| s.power_w).collect();
            let budgets = proportional_budgets(&draws, self.thresholds.p_low_w());
            for (s, &budget) in samples.iter().zip(&budgets) {
                let model = nodes[s.node.0 as usize].model();
                let level = level_for_budget(model, &s.state, budget);
                if level != s.level {
                    commands.push(NodeCommand {
                        node: s.node,
                        level,
                    });
                }
            }
        }
        self.stats.commands_issued += commands.len() as u64;
        (state, commands)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_node::spec::NodeSpec;
    use ppc_node::{Level, NodeId, OperatingState};
    use ppc_simkit::SimTime;
    use std::sync::Arc;

    /// Four busy Tianhe-1A nodes at their top level, one sample each.
    fn setup() -> (Vec<Node>, Vec<NodeSample>, Thresholds) {
        let spec = Arc::new(NodeSpec::tianhe_1a());
        let model = spec.power_model(1.0);
        let busy = OperatingState {
            cpu_util: 0.9,
            mem_used_bytes: 12 << 30,
            nic_bytes: 100_000_000,
        };
        let nodes: Vec<Node> = (0..4)
            .map(|i| Node::new(NodeId(i), Arc::clone(&spec), Arc::clone(&model)))
            .collect();
        let samples = nodes
            .iter()
            .map(|n| NodeSample {
                node: n.id(),
                at: SimTime::from_secs(1),
                state: busy,
                level: Level::new(9),
                power_w: model.power_w(Level::new(9), &busy),
            })
            .collect();
        // P_L = 4 × ~200 W: forces real throttling on ~300 W draws.
        let thresholds = Thresholds::new(800.0, 1_000.0).unwrap();
        (nodes, samples, thresholds)
    }

    #[test]
    fn over_budget_throttles_everyone_proportionally() {
        let (nodes, samples, thresholds) = setup();
        let mut c = ProportionalBudgetController::new(thresholds);
        let total: f64 = samples.iter().map(|s| s.power_w).sum();
        let (state, commands) = c.cycle(total, &samples, &nodes);
        assert_eq!(state, PowerState::Red);
        // Identical nodes, identical shares: every node commanded down.
        assert_eq!(commands.len(), 4);
        let level = commands[0].level;
        assert!(commands.iter().all(|cmd| cmd.level == level));
        assert!(level < Level::new(9));
        // The commanded level fits the per-node share (200 W).
        let p = nodes[0].model().power_w(level, &samples[0].state);
        assert!(p <= 200.0 + 1e-9, "p={p}");
        assert_eq!(c.stats().active_cycles, 1);
    }

    #[test]
    fn under_budget_restores_everything_at_once() {
        let (mut nodes, mut samples, thresholds) = setup();
        // Previously throttled.
        for (n, s) in nodes.iter_mut().zip(&mut samples) {
            n.set_level(Level::new(2)).unwrap();
            s.level = Level::new(2);
        }
        let mut c = ProportionalBudgetController::new(thresholds);
        let (state, commands) = c.cycle(500.0, &samples, &nodes);
        assert_eq!(state, PowerState::Green);
        assert_eq!(commands.len(), 4, "all nodes restored");
        assert!(commands.iter().all(|cmd| cmd.level == Level::new(9)));
    }

    #[test]
    fn no_redundant_commands_at_steady_state() {
        let (nodes, samples, thresholds) = setup();
        let mut c = ProportionalBudgetController::new(thresholds);
        let (_, commands) = c.cycle(500.0, &samples, &nodes);
        assert!(commands.is_empty(), "already at top under budget");
    }

    /// Each node is restored to its own top and throttled under its own
    /// power model: two X5670 nodes (10 levels) beside two X5650 nodes
    /// (7 levels, a smaller envelope).
    #[test]
    fn mixed_ladders_use_each_nodes_own_model() {
        let busy = OperatingState {
            cpu_util: 0.9,
            mem_used_bytes: 12 << 30,
            nic_bytes: 100_000_000,
        };
        let nodes: Vec<Node> = [NodeSpec::tianhe_1a(), NodeSpec::tianhe_1a_x5650()]
            .into_iter()
            .flat_map(|spec| {
                let spec = Arc::new(spec);
                let model = spec.power_model(1.0);
                [0, 1].map(|_| (Arc::clone(&spec), Arc::clone(&model)))
            })
            .enumerate()
            .map(|(i, (spec, model))| Node::new(NodeId(i as u32), spec, model))
            .collect();
        let sample = |n: &Node, level: Level| NodeSample {
            node: n.id(),
            at: SimTime::from_secs(1),
            state: busy,
            level,
            power_w: n.model().power_w(level, &busy),
        };
        let top: Vec<NodeSample> = nodes.iter().map(|n| sample(n, n.highest_level())).collect();
        let total: f64 = top.iter().map(|s| s.power_w).sum();
        // P_L at 90 % of the top draw: each node's share fits a level
        // above its floor and below its top, and a different one on the
        // other model.
        let thresholds = Thresholds::new(0.9 * total, 0.95 * total).unwrap();
        let mut c = ProportionalBudgetController::new(thresholds);

        let low: Vec<NodeSample> = nodes.iter().map(|n| sample(n, Level::new(2))).collect();
        let (_, restore) = c.cycle(0.5 * total, &low, &nodes);
        let tops: Vec<Level> = restore.iter().map(|cmd| cmd.level).collect();
        assert_eq!(tops, [9, 9, 6, 6].map(Level::new));

        let (state, commands) = c.cycle(total, &top, &nodes);
        assert_eq!(state, PowerState::Red);
        assert_eq!(commands.len(), 4);
        assert!(commands.iter().all(|cmd| cmd.level > Level::LOWEST));
        let draws: Vec<f64> = top.iter().map(|s| s.power_w).collect();
        let shares = proportional_budgets(&draws, thresholds.p_low_w());
        for (cmd, share) in commands.iter().zip(shares) {
            let node = &nodes[cmd.node.0 as usize];
            let model = node.model();
            assert!(model.power_w(cmd.level, &busy) <= share, "{cmd:?}");
            assert!(model.power_w(cmd.level.up(), &busy) > share, "{cmd:?}");
        }
    }

    #[test]
    fn split_is_proportional_and_conserving() {
        let shares = split_proportional(1000.0, &[1.0, 1.0, 2.0]);
        assert_eq!(shares.len(), 3);
        assert!(conserves_budget(1000.0, &shares));
        assert!((shares[0] - 250.0).abs() < 1e-9);
        assert!((shares[1] - 250.0).abs() < 1e-9);
        assert!((shares[2] - 500.0).abs() < 1e-9);
    }

    #[test]
    fn single_child_takes_the_whole_budget_exactly() {
        let total = 123_456.789_012_345;
        let shares = split_proportional(total, &[std::f64::consts::PI]);
        assert_eq!(shares[0].to_bits(), total.to_bits());
    }

    #[test]
    fn zero_weight_children_get_exactly_zero() {
        let shares = split_proportional(500.0, &[0.0, 3.0, 0.0, -1.0]);
        assert_eq!(shares[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(shares[2].to_bits(), 0.0f64.to_bits());
        assert_eq!(shares[3].to_bits(), 0.0f64.to_bits());
        assert_eq!(shares[1].to_bits(), 500.0f64.to_bits());
    }

    #[test]
    fn degenerate_splits_are_all_zero() {
        assert!(split_proportional(0.0, &[1.0, 2.0])
            .iter()
            .all(|&s| s <= 0.0));
        assert!(split_proportional(-5.0, &[1.0]).iter().all(|&s| s <= 0.0));
        assert!(split_proportional(100.0, &[0.0, 0.0])
            .iter()
            .all(|&s| s <= 0.0));
        assert!(split_proportional(f64::NAN, &[1.0])
            .iter()
            .all(|&s| s <= 0.0));
    }

    #[test]
    fn conserves_budget_rejects_overspend_and_negatives() {
        assert!(conserves_budget(100.0, &[60.0, 40.0]));
        assert!(!conserves_budget(100.0, &[60.0, 40.1]));
        assert!(!conserves_budget(100.0, &[-1.0, 50.0]));
        assert!(conserves_budget(100.0, &[]));
    }

    #[test]
    fn headroom_moves_from_idle_to_pressed_sibling() {
        // Equal weights, but child 0 is idle and child 1 is over its share.
        let base = split_proportional(1000.0, &[1.0, 1.0]);
        let shares = delegate_with_headroom(1000.0, &[1.0, 1.0], &[100.0, 700.0], 0.16, 0.5);
        assert!(conserves_budget(1000.0, &shares));
        assert!(shares[0] < base[0], "idle child lends");
        assert!(shares[1] > base[1], "pressed child borrows");
        let total: f64 = shares.iter().sum();
        assert!((total - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn headroom_is_a_noop_without_pressure() {
        // Both children comfortably inside their shares: nothing moves.
        let base = split_proportional(1000.0, &[1.0, 1.0]);
        let shares = delegate_with_headroom(1000.0, &[1.0, 1.0], &[100.0, 120.0], 0.16, 0.5);
        assert_eq!(shares[0].to_bits(), base[0].to_bits());
        assert_eq!(shares[1].to_bits(), base[1].to_bits());
    }

    #[test]
    fn headroom_single_child_is_bitwise_noop() {
        let shares = delegate_with_headroom(777.25, &[3.0], &[9_999.0], 0.16, 0.5);
        assert_eq!(shares[0].to_bits(), 777.25f64.to_bits());
    }

    mod delegation_props {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn split_always_conserves(
                total in 0.0f64..1e9,
                weights in proptest::collection::vec(-10.0f64..1e6, 0..32),
            ) {
                let shares = split_proportional(total, &weights);
                prop_assert!(conserves_budget(total.max(0.0), &shares));
            }

            #[test]
            fn split_spends_whole_budget_when_weighted(
                total in 1.0f64..1e9,
                weights in proptest::collection::vec(0.1f64..1e6, 1..32),
            ) {
                let shares = split_proportional(total, &weights);
                let spent: f64 = shares.iter().sum();
                // Draw-down conservation is exact; equality to the parent
                // holds to float-summation tolerance.
                prop_assert!((spent - total).abs() <= total * 1e-12);
            }

            #[test]
            fn headroom_always_conserves(
                total in 1.0f64..1e9,
                pairs in proptest::collection::vec((0.1f64..1e6, 0.0f64..1e6), 2..32),
                lend in 0.0f64..1.0,
            ) {
                let weights: Vec<f64> = pairs.iter().map(|p| p.0).collect();
                let demands: Vec<f64> = pairs.iter().map(|p| p.1).collect();
                let shares = delegate_with_headroom(total, &weights, &demands, 0.16, lend);
                prop_assert!(conserves_budget(total, &shares));
            }
        }
    }

    #[test]
    fn idle_nodes_share_budget_equally() {
        let (nodes, mut samples, thresholds) = setup();
        for s in &mut samples {
            s.state = OperatingState::IDLE;
            s.power_w = 0.0;
        }
        let mut c = ProportionalBudgetController::new(thresholds);
        // Metered above P_L but the per-node equal share (200 W) fits idle
        // draw (~160 W) at the top level: no commands needed.
        let (_, commands) = c.cycle(900.0, &samples, &nodes);
        assert!(commands.is_empty());
    }
}
