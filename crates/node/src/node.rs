//! The compute node: spec + power level + operating state + `/proc`.
//!
//! A [`Node`] is the unit the power manager senses and throttles. The
//! *privileged* flag marks the paper's uncontrollable nodes — those whose
//! tasks must not be degraded (or that lack DVFS); every state-changing
//! method refuses to act on them.

use crate::error::NodeError;
use crate::freq::Level;
use crate::procfs::ProcCounters;
use crate::profile::{OperatingState, PowerModel};
use crate::spec::NodeSpec;
use crate::thermal::ThermalState;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Cluster-unique node identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{:03}", self.0)
    }
}

/// One compute node.
#[derive(Debug, Clone)]
pub struct Node {
    id: NodeId,
    spec: Arc<NodeSpec>,
    model: Arc<PowerModel>,
    level: Level,
    state: OperatingState,
    privileged: bool,
    proc_counters: ProcCounters,
    /// Boxed: a thermal model forces the simulator's dense path, so the
    /// incremental path, which touches only dirty nodes, never reads it
    /// and a pointer keeps each node small.
    thermal: Option<Box<ThermalState>>,
}

impl Node {
    /// Creates a node at the top (unthrottled) power level, idle.
    pub fn new(id: NodeId, spec: Arc<NodeSpec>, model: Arc<PowerModel>) -> Self {
        let level = spec.ladder.highest();
        let thermal = spec.thermal.map(|t| Box::new(ThermalState::new(t)));
        Node {
            id,
            spec,
            model,
            level,
            state: OperatingState::IDLE,
            privileged: false,
            proc_counters: ProcCounters::default(),
            thermal,
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's hardware spec.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// The node's Formula-(1) power model.
    pub fn model(&self) -> &Arc<PowerModel> {
        &self.model
    }

    /// Current power level.
    pub fn level(&self) -> Level {
        self.level
    }

    /// Highest level on this node's ladder.
    pub fn highest_level(&self) -> Level {
        self.spec.ladder.highest()
    }

    /// True if the node may not be power-managed.
    pub fn is_privileged(&self) -> bool {
        self.privileged
    }

    /// Marks the node as privileged (uncontrollable) or not.
    pub fn set_privileged(&mut self, privileged: bool) {
        self.privileged = privileged;
    }

    /// Current operating state.
    pub fn state(&self) -> &OperatingState {
        &self.state
    }

    /// True if the node is currently idle.
    pub fn is_idle(&self) -> bool {
        self.state.is_idle()
    }

    /// Cumulative `/proc` counters (what an on-node agent samples).
    pub fn proc_counters(&self) -> &ProcCounters {
        &self.proc_counters
    }

    /// Relative compute speed at the current level (`f_l / f_max`).
    pub fn relative_speed(&self) -> f64 {
        self.spec.ladder.relative_speed(self.level)
    }

    /// Sets the operating state for the next interval and advances the
    /// `/proc` counters — and, when the thermal model is enabled, the die
    /// temperature — by `dt_secs` in that state. The temperature advances
    /// on the *current* power draw (which itself includes the previous
    /// interval's thermal leakage): the paper's positive feedback loop.
    pub fn run_interval(&mut self, state: OperatingState, dt_secs: f64) {
        self.state = state;
        self.proc_counters.advance(&state, dt_secs);
        if self.thermal.is_some() {
            let p = self.power_w();
            if let Some(thermal) = &mut self.thermal {
                thermal.advance(p, dt_secs);
            }
        }
    }

    /// Fast-forwards the `/proc` counters by `ticks` further intervals of
    /// `dt_secs` in the *current* operating state, without changing it.
    ///
    /// This is the quiescent-node catch-up used by the incremental
    /// evaluation path: a node whose inputs did not change for `k` ticks
    /// accrues exactly `k` identical counter increments, which
    /// [`ProcCounters::advance_many`] applies in closed form. Bit-identical
    /// to calling [`run_interval`](Self::run_interval) `ticks` times with
    /// the same state. Callers must not use this on thermally modelled
    /// nodes (temperature integration is not linear in time).
    pub fn catch_up(&mut self, dt_secs: f64, ticks: u64) {
        debug_assert!(
            self.thermal.is_none(),
            "catch_up is only valid without a thermal model"
        );
        self.proc_counters.advance_many(&self.state, dt_secs, ticks);
    }

    /// True ("metered") power draw in the current state, watts. With the
    /// thermal model enabled this includes temperature-dependent leakage
    /// above the calibrated tables.
    pub fn power_w(&self) -> f64 {
        let base = self.model.power_w(self.level, &self.state);
        match &self.thermal {
            Some(t) => base + t.leakage_excess_w(self.model.table().idle_power_w(self.level)),
            None => base,
        }
    }

    /// Current die temperature, °C (`None` without a thermal model).
    pub fn temperature_c(&self) -> Option<f64> {
        self.thermal.as_ref().map(|t| t.temperature_c())
    }

    /// Relative failure rate vs. `reference_c` (doubles every 10 °C),
    /// `None` without a thermal model.
    pub fn relative_failure_rate(&self, reference_c: f64) -> Option<f64> {
        self.thermal
            .as_ref()
            .map(|t| t.relative_failure_rate(reference_c))
    }

    /// Sets an absolute power level.
    pub fn set_level(&mut self, level: Level) -> Result<(), NodeError> {
        if self.privileged {
            return Err(NodeError::Privileged);
        }
        if !self.spec.ladder.contains(level) {
            return Err(NodeError::InvalidLevel {
                requested: level,
                highest: self.spec.ladder.highest(),
            });
        }
        self.level = level;
        Ok(())
    }

    /// Forces the lowest level (the Red-state action).
    pub fn force_lowest(&mut self) -> Result<(), NodeError> {
        if self.privileged {
            return Err(NodeError::Privileged);
        }
        self.level = Level::LOWEST;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        let spec = Arc::new(NodeSpec::tianhe_1a());
        let model = spec.power_model(1.0);
        Node::new(NodeId(7), spec, model)
    }

    #[test]
    fn new_node_is_unthrottled_and_idle() {
        let n = node();
        assert_eq!(n.level(), Level::new(9));
        assert!(n.is_idle());
        assert!(!n.is_privileged());
        assert_eq!(n.relative_speed(), 1.0);
        assert_eq!(n.id().to_string(), "n007");
    }

    #[test]
    fn privileged_node_refuses_all_commands() {
        let mut n = node();
        n.set_privileged(true);
        assert_eq!(n.force_lowest(), Err(NodeError::Privileged));
        assert_eq!(n.set_level(Level::new(1)), Err(NodeError::Privileged));
        assert_eq!(n.level(), Level::new(9), "level untouched");
    }

    #[test]
    fn set_level_validates_range() {
        let mut n = node();
        assert!(n.set_level(Level::new(3)).is_ok());
        assert_eq!(n.level(), Level::new(3));
        assert!(matches!(
            n.set_level(Level::new(10)),
            Err(NodeError::InvalidLevel { .. })
        ));
    }

    #[test]
    fn power_tracks_level_and_load() {
        let mut n = node();
        let idle_top = n.power_w();
        n.run_interval(
            OperatingState {
                cpu_util: 1.0,
                mem_used_bytes: 24 << 30,
                nic_bytes: 5_000_000_000,
            },
            1.0,
        );
        let busy_top = n.power_w();
        assert!(busy_top > idle_top + 100.0);
        n.force_lowest().unwrap();
        let busy_bottom = n.power_w();
        assert!(busy_bottom < busy_top);
        assert!(n.relative_speed() < 0.6);
    }

    #[test]
    fn thermal_node_heats_under_load_and_draws_more() {
        let spec = Arc::new(NodeSpec::tianhe_1a_thermal());
        let model = spec.power_model(1.0);
        let mut n = Node::new(NodeId(1), Arc::clone(&spec), model);
        assert_eq!(n.temperature_c(), Some(25.0));
        let cold_power = {
            let mut m = n.clone();
            m.run_interval(
                OperatingState {
                    cpu_util: 1.0,
                    mem_used_bytes: 24 << 30,
                    nic_bytes: 0,
                },
                1.0,
            );
            m.power_w()
        };
        // Run hot for two hours of simulated time.
        for _ in 0..7_200 {
            n.run_interval(
                OperatingState {
                    cpu_util: 1.0,
                    mem_used_bytes: 24 << 30,
                    nic_bytes: 0,
                },
                1.0,
            );
        }
        let temp = n.temperature_c().unwrap();
        assert!(temp > 55.0, "hot node should exceed 55 °C, got {temp}");
        assert!(
            n.power_w() > cold_power + 3.0,
            "thermal leakage must add power: hot {} vs cold {}",
            n.power_w(),
            cold_power
        );
        assert!(n.relative_failure_rate(25.0).unwrap() > 4.0);
        // A non-thermal node reports None.
        let plain = node();
        assert_eq!(plain.temperature_c(), None);
        assert_eq!(plain.relative_failure_rate(25.0), None);
    }

    #[test]
    fn catch_up_matches_repeated_run_interval() {
        let state = OperatingState {
            cpu_util: 0.37,
            mem_used_bytes: 3 << 30,
            nic_bytes: 12_345,
        };
        let mut stepped = node();
        stepped.run_interval(state, 1.0);
        for _ in 0..9 {
            stepped.run_interval(state, 1.0);
        }
        let mut jumped = node();
        jumped.run_interval(state, 1.0);
        jumped.catch_up(1.0, 9);
        assert_eq!(stepped.proc_counters(), jumped.proc_counters());
        assert_eq!(stepped.power_w().to_bits(), jumped.power_w().to_bits());
    }

    #[test]
    fn run_interval_updates_proc_counters() {
        let mut n = node();
        n.run_interval(
            OperatingState {
                cpu_util: 0.5,
                mem_used_bytes: 1 << 30,
                nic_bytes: 777,
            },
            2.0,
        );
        let c = n.proc_counters();
        assert_eq!(c.busy_jiffies + c.idle_jiffies, 200);
        assert_eq!(c.mem_used_bytes, 1 << 30);
        assert_eq!(c.nic_bytes_wrapping, 777);
    }
}
