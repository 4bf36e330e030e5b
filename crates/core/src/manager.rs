//! The power manager: the per-cycle control loop.
//!
//! Each control cycle the manager
//!
//! 1. feeds the metered system power to the threshold learner (peak
//!    observation + periodic adjustment),
//! 2. classifies the power state against the current `(P_L, P_H)`,
//! 3. prunes `A_degraded` to the candidate set if the set changed since
//!    the last cycle, then runs Algorithm 1 with the configured selection
//!    policy (or the conservative fallback under low telemetry coverage),
//! 4. returns the throttling commands for the actuation layer to apply,
//!
//! and keeps cycle statistics (state occupancy, commands issued,
//! adjustments) for the evaluation reports. [`PowerManager::control_cycle`]
//! runs a whole cycle. It is the composition of its two halves, which a
//! caller that builds job observations on demand runs apart: steps 1–2
//! ([`PowerManager::classify`]) read no job observation, and steps 3–4
//! ([`PowerManager::cap`]) read them only in a Yellow cycle
//! ([`PowerManager::reads_jobs`]).

use crate::capping::{CappingAlgorithm, LevelView, NodeCommand};
use crate::config::ManagerConfig;
use crate::error::CoreError;
use crate::observe::{JobObservation, SelectionContext};
use crate::policy::TargetSelectionPolicy;
use crate::sets::{NodeMask, NodeSets};
use crate::state::{PowerState, Thresholds};
use crate::thresholds::ThresholdLearner;
use ppc_obs::{AttrValue, SpanRecorder};
use ppc_simkit::SimTime;
use serde::{Deserialize, Serialize};

/// What one control cycle decided.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleOutcome {
    /// The classified power state this cycle.
    pub state: PowerState,
    /// Commands to apply to nodes.
    pub commands: Vec<NodeCommand>,
    /// Thresholds in force this cycle.
    pub thresholds: Thresholds,
    /// True if the thresholds were re-derived this cycle.
    pub thresholds_adjusted: bool,
}

/// What the classify half of a control cycle decided
/// ([`PowerManager::classify`]), handed to its capping half
/// ([`PowerManager::cap`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Classification {
    /// The classified power state.
    pub state: PowerState,
    /// Thresholds in force this cycle.
    pub thresholds: Thresholds,
    /// True if the thresholds were re-derived this cycle.
    pub thresholds_adjusted: bool,
    /// The metered power classified, watts.
    pub power_w: f64,
}

/// Running statistics over all cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManagerStats {
    /// Total control cycles run.
    pub cycles: u64,
    /// Cycles classified Green.
    pub green_cycles: u64,
    /// Cycles classified Yellow.
    pub yellow_cycles: u64,
    /// Cycles classified Red.
    pub red_cycles: u64,
    /// Total throttling commands issued.
    pub commands_issued: u64,
    /// Threshold adjustments performed.
    pub threshold_adjustments: u64,
    /// Cycles run in the conservative degraded-telemetry mode (candidate
    /// coverage below the configured floor).
    pub conservative_cycles: u64,
}

/// The cluster-level power manager.
///
/// `Clone` (via [`TargetSelectionPolicy::clone_box`] for the boxed
/// policy) so a snapshot of the whole control stack can be branched for
/// what-if evaluation.
#[derive(Clone)]
pub struct PowerManager {
    config: ManagerConfig,
    sets: NodeSets,
    learner: ThresholdLearner,
    capping: CappingAlgorithm,
    policy: Box<dyn TargetSelectionPolicy>,
    stats: ManagerStats,
}

impl PowerManager {
    /// Builds a manager from a validated config and node classification.
    pub fn new(config: ManagerConfig, sets: NodeSets) -> Result<Self, CoreError> {
        config.validate()?;
        let learner = ThresholdLearner::with_margins(
            config.p_provision_w,
            // Frozen mode: no training period, no adjustment — the pair
            // derived from the provision capability stands forever.
            if config.frozen_thresholds {
                0
            } else {
                config.training_cycles
            },
            config.t_p_cycles,
            config.low_margin,
            config.high_margin,
        )?;
        let learner = if config.frozen_thresholds {
            learner.frozen()
        } else {
            learner
        };
        Ok(PowerManager {
            learner,
            capping: CappingAlgorithm::new(config.t_g_cycles),
            policy: config.policy.build(),
            config,
            sets,
            stats: ManagerStats::default(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &ManagerConfig {
        &self.config
    }

    /// The node classification (mutable: the candidate set may vary at
    /// runtime, per the architecture).
    pub fn sets_mut(&mut self) -> &mut NodeSets {
        &mut self.sets
    }

    /// The node classification.
    pub fn sets(&self) -> &NodeSets {
        &self.sets
    }

    /// Current thresholds.
    pub fn thresholds(&self) -> Thresholds {
        self.learner.thresholds()
    }

    /// The threshold learner (peak observations etc.).
    pub fn learner(&self) -> &ThresholdLearner {
        &self.learner
    }

    /// Cycle statistics.
    pub fn stats(&self) -> ManagerStats {
        self.stats
    }

    /// The capping algorithm's current `A_degraded` set.
    pub fn capping_degraded(&self) -> &NodeMask {
        self.capping.degraded()
    }

    /// Marks a crashed node offline: it leaves `A_candidate` until it
    /// rejoins, so no selection, observation, or command will touch it.
    pub fn note_node_down(&mut self, node: ppc_node::NodeId) {
        self.sets.set_offline(node, true);
    }

    /// Marks a rebooted node back online. The fault path restarts crashed
    /// nodes at their lowest DVFS level, so the node is also adopted into
    /// `A_degraded`: steady-green recovery promotes it back to full speed
    /// one level at a time instead of leaving it throttled forever.
    pub fn note_node_rejoined(&mut self, node: ppc_node::NodeId) {
        self.sets.set_offline(node, false);
        if self.sets.is_candidate(node) {
            self.capping.adopt(node);
        }
    }

    /// Swaps the target-selection policy in place (what-if "swap policy"
    /// operation). The new policy starts from its initial state; all
    /// other controller state — thresholds, `A_degraded`, statistics —
    /// carries over unchanged.
    pub fn set_policy(&mut self, kind: crate::policy::PolicyKind) {
        self.policy = kind.build();
        self.config.policy = kind;
    }

    /// Changes the power provision capability `P_Max` in place (what-if
    /// "raise/lower the cap" operation). Thresholds are re-derived from
    /// the new provision immediately; see [`ThresholdLearner::reprovision`].
    pub fn reprovision(&mut self, p_provision_w: f64) -> Result<(), CoreError> {
        self.learner.reprovision(p_provision_w)?;
        self.config.p_provision_w = p_provision_w;
        Ok(())
    }

    /// Runs one control cycle at sim time `at`: [`PowerManager::classify`]
    /// then [`PowerManager::cap`].
    ///
    /// * `power_w` — the metered total system power;
    /// * `jobs` — this cycle's job observations (built via
    ///   [`crate::observe::observe_jobs`]);
    /// * `view` — current/highest level lookup for candidate nodes;
    /// * `coverage` — the fraction of candidate nodes whose collector
    ///   samples are fresh (1.0 with full telemetry);
    /// * `spans` — a `classify` span carries the metered power, classified
    ///   state and deficit; a `capping` span wraps Algorithm 1 (the Yellow
    ///   selection opens a nested `select` span) and carries the command
    ///   count. Pass [`SpanRecorder::disabled`] to record nothing.
    pub fn control_cycle(
        &mut self,
        power_w: f64,
        jobs: &[JobObservation],
        view: &dyn LevelView,
        coverage: f64,
        at: SimTime,
        spans: &mut SpanRecorder,
    ) -> CycleOutcome {
        let classified = self.classify(power_w, at, spans);
        self.cap(classified, jobs, view, coverage, at, spans)
    }

    /// The classify half of a control cycle: feeds the metered `power_w`
    /// to the threshold learner and classifies it against the thresholds
    /// then in force, under a `classify` span at `at`. It reads no job
    /// observation, so a caller can build them only for the cycles whose
    /// capping half reads them ([`PowerManager::reads_jobs`]).
    pub fn classify(
        &mut self,
        power_w: f64,
        at: SimTime,
        spans: &mut SpanRecorder,
    ) -> Classification {
        spans.open("classify", at);
        let thresholds_adjusted = self.learner.observe_cycle(power_w);
        let thresholds = self.learner.thresholds();
        let state = thresholds.classify(power_w);
        spans.attr("state", AttrValue::Str(state.name()));
        spans.attr("power_w", AttrValue::F64(power_w));
        spans.attr(
            "deficit_w",
            AttrValue::F64((power_w - thresholds.p_low_w()).max(0.0)),
        );
        if thresholds_adjusted {
            spans.attr("thresholds_adjusted", AttrValue::U64(1));
        }
        spans.close(at);
        Classification {
            state,
            thresholds,
            thresholds_adjusted,
            power_w,
        }
    }

    /// True if the capping half of a cycle classified `classified` reads
    /// its job observations: a Yellow cycle over a non-empty candidate set
    /// (the policy's selection, or the conservative sweep under low
    /// coverage). Green promotes `A_degraded` and Red floors every
    /// candidate, neither from telemetry.
    pub fn reads_jobs(&self, classified: &Classification) -> bool {
        classified.state == PowerState::Yellow && self.sets.candidate_count() > 0
    }

    /// The capping half of a control cycle: Algorithm 1 on the
    /// `classified` state over the job observations `jobs`, under a
    /// `capping` span at `at`, and the cycle statistics. `jobs` is read
    /// only when [`PowerManager::reads_jobs`] holds.
    ///
    /// `A_degraded` is pruned to the candidate set whenever the set's
    /// generation has moved, before Algorithm 1 runs, whatever the state
    /// and coverage.
    ///
    /// When coverage drops below the configured floor the manager stops
    /// trusting the selection policy's savings estimates: Yellow degrades
    /// every observed candidate (strictly more conservative than any
    /// policy pick), Green holds recovery rather than promote blind, and
    /// Red floors everything as usual (it needs no telemetry). This keeps
    /// the capping guarantee intact while the telemetry fabric is dark.
    pub fn cap(
        &mut self,
        classified: Classification,
        jobs: &[JobObservation],
        view: &dyn LevelView,
        coverage: f64,
        at: SimTime,
        spans: &mut SpanRecorder,
    ) -> CycleOutcome {
        let Classification {
            state,
            thresholds,
            thresholds_adjusted,
            power_w,
        } = classified;
        let candidates = self.sets.candidate_mask();
        self.capping.prune_for(candidates, self.sets.generation());
        let ctx = SelectionContext {
            jobs,
            power_w,
            p_low_w: thresholds.p_low_w(),
        };
        let conservative = coverage < self.config.coverage_floor;
        spans.open("capping", at);
        spans.attr("state", AttrValue::Str(state.name()));
        let commands = if candidates.is_empty() {
            // Size-0 candidate set: monitoring-only deployment, no capping.
            Vec::new()
        } else if conservative {
            self.stats.conservative_cycles += 1;
            spans.attr("conservative", AttrValue::U64(1));
            match state {
                // Promoting on stale estimates risks overshooting the
                // provision; recovery can wait for telemetry.
                PowerState::Green => Vec::new(),
                PowerState::Yellow => self.capping.conservative_yellow(&ctx, candidates, view),
                // Red is telemetry-free: flatten everything.
                PowerState::Red => self.capping.cycle(
                    state,
                    &ctx,
                    self.policy.as_mut(),
                    candidates,
                    view,
                    at,
                    spans,
                ),
            }
        } else {
            self.capping.cycle(
                state,
                &ctx,
                self.policy.as_mut(),
                candidates,
                view,
                at,
                spans,
            )
        };
        spans.attr("commands", AttrValue::U64(commands.len() as u64));
        spans.close(at);

        self.stats.cycles += 1;
        match state {
            PowerState::Green => self.stats.green_cycles += 1,
            PowerState::Yellow => self.stats.yellow_cycles += 1,
            PowerState::Red => self.stats.red_cycles += 1,
        }
        self.stats.commands_issued += commands.len() as u64;
        self.stats.threshold_adjustments += u64::from(thresholds_adjusted);

        CycleOutcome {
            state,
            commands,
            thresholds,
            thresholds_adjusted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::testutil::{jobs_obs, nobs};
    use crate::policy::PolicyKind;
    use ppc_node::{Level, NodeId};

    struct FlatView(Level, Level);
    impl LevelView for FlatView {
        fn level_of(&self, _: NodeId) -> Level {
            self.0
        }
        fn highest_of(&self, _: NodeId) -> Level {
            self.1
        }
    }

    impl PowerManager {
        /// [`PowerManager::control_cycle`] with no spans recorded.
        fn run(
            &mut self,
            power_w: f64,
            jobs: &[JobObservation],
            view: &dyn LevelView,
            coverage: f64,
        ) -> CycleOutcome {
            let mut spans = SpanRecorder::disabled();
            self.control_cycle(power_w, jobs, view, coverage, SimTime::ZERO, &mut spans)
        }
    }

    fn manager(policy: PolicyKind, candidate_cap: Option<usize>) -> PowerManager {
        let sets = NodeSets::new((0..8).map(NodeId), []).with_candidate_cap(candidate_cap);
        let config = ManagerConfig {
            training_cycles: 0,
            ..ManagerConfig::paper_defaults(1_000.0, policy)
        };
        PowerManager::new(config, sets).unwrap()
    }

    #[test]
    fn green_cycle_issues_nothing_and_counts() {
        let mut m = manager(PolicyKind::Mpc, None);
        // P_L = 840: 500 W is Green.
        let out = m.run(500.0, &[], &FlatView(Level::new(9), Level::new(9)), 1.0);
        assert_eq!(out.state, PowerState::Green);
        assert!(out.commands.is_empty());
        assert_eq!(m.stats().green_cycles, 1);
        assert_eq!(m.stats().cycles, 1);
    }

    #[test]
    fn yellow_cycle_degrades_target_job() {
        let mut m = manager(PolicyKind::Mpc, None);
        let jobs = vec![jobs_obs(
            1,
            vec![nobs(0, 9, 300.0), nobs(1, 9, 280.0)],
            None,
        )];
        // P in [840, 930): Yellow.
        let out = m.run(900.0, &jobs, &FlatView(Level::new(9), Level::new(9)), 1.0);
        assert_eq!(out.state, PowerState::Yellow);
        assert_eq!(out.commands.len(), 2);
        assert!(out.commands.iter().all(|c| c.level == Level::new(8)));
        assert_eq!(m.capping_degraded().len(), 2);
        assert_eq!(m.stats().commands_issued, 2);
    }

    #[test]
    fn red_cycle_floors_all_candidates() {
        let mut m = manager(PolicyKind::Hri, None);
        let out = m.run(950.0, &[], &FlatView(Level::new(9), Level::new(9)), 1.0);
        assert_eq!(out.state, PowerState::Red);
        assert_eq!(out.commands.len(), 8);
        assert!(out.commands.iter().all(|c| c.level == Level::LOWEST));
    }

    #[test]
    fn zero_candidate_cap_never_commands() {
        let mut m = manager(PolicyKind::Mpc, Some(0));
        let out = m.run(5_000.0, &[], &FlatView(Level::new(9), Level::new(9)), 1.0);
        assert_eq!(out.state, PowerState::Red);
        assert!(out.commands.is_empty(), "monitoring-only mode");
    }

    #[test]
    fn training_then_adjustment_counts() {
        let sets = NodeSets::new((0..2).map(NodeId), []);
        let config = ManagerConfig {
            training_cycles: 2,
            t_p_cycles: 3,
            ..ManagerConfig::paper_defaults(1_000.0, PolicyKind::Mpc)
        };
        let mut m = PowerManager::new(config, sets).unwrap();
        let view = FlatView(Level::new(9), Level::new(9));
        m.run(700.0, &[], &view, 1.0);
        let out = m.run(750.0, &[], &view, 1.0);
        assert!(out.thresholds_adjusted, "training ends on cycle 2");
        assert_eq!(m.learner().p_peak_w(), 750.0);
        assert_eq!(m.stats().threshold_adjustments, 1);
        // Next adjustment after t_p = 3 more cycles.
        m.run(740.0, &[], &view, 1.0);
        m.run(740.0, &[], &view, 1.0);
        let out = m.run(740.0, &[], &view, 1.0);
        assert!(out.thresholds_adjusted);
    }

    #[test]
    fn low_coverage_yellow_degrades_every_observed_candidate() {
        let mut m = manager(PolicyKind::Mpc, None);
        assert_eq!(m.config().coverage_floor, 0.5);
        let jobs = vec![jobs_obs(
            1,
            vec![nobs(0, 9, 300.0), nobs(1, 9, 280.0)],
            None,
        )];
        // Coverage 0.25 < floor 0.5: conservative Yellow, no policy.
        let out = m.run(900.0, &jobs, &FlatView(Level::new(9), Level::new(9)), 0.25);
        assert_eq!(out.state, PowerState::Yellow);
        assert_eq!(out.commands.len(), 2, "all observed candidates degraded");
        assert!(out.commands.iter().all(|c| c.level == Level::new(8)));
        assert_eq!(m.stats().conservative_cycles, 1);
    }

    #[test]
    fn low_coverage_green_holds_recovery() {
        let mut m = manager(PolicyKind::Mpc, None);
        // Degrade via a normal Yellow first.
        let jobs = vec![jobs_obs(1, vec![nobs(0, 9, 300.0)], None)];
        m.run(900.0, &jobs, &FlatView(Level::new(9), Level::new(9)), 1.0);
        assert_eq!(m.capping_degraded().len(), 1);
        // t_g = 10; run plenty of blind Green cycles: no promotion.
        for _ in 0..20 {
            let out = m.run(500.0, &[], &FlatView(Level::new(8), Level::new(9)), 0.0);
            assert_eq!(out.state, PowerState::Green);
            assert!(out.commands.is_empty(), "no blind promotion");
        }
        assert_eq!(m.capping_degraded().len(), 1, "still waiting for telemetry");
        assert_eq!(m.stats().conservative_cycles, 20);
    }

    #[test]
    fn low_coverage_red_still_floors_everything() {
        let mut m = manager(PolicyKind::Mpc, None);
        let out = m.run(5_000.0, &[], &FlatView(Level::new(9), Level::new(9)), 0.0);
        assert_eq!(out.state, PowerState::Red);
        assert_eq!(out.commands.len(), 8, "red needs no telemetry");
        assert!(out.commands.iter().all(|c| c.level == Level::LOWEST));
    }

    #[test]
    fn node_down_and_rejoin_churn_the_candidate_set() {
        let mut m = manager(PolicyKind::Mpc, None);
        assert_eq!(m.sets().candidate_count(), 8);
        m.note_node_down(NodeId(3));
        assert_eq!(m.sets().candidate_count(), 7);
        assert!(!m.sets().is_candidate(NodeId(3)));
        // Red while the node is down: commands must skip it.
        let out = m.run(5_000.0, &[], &FlatView(Level::new(9), Level::new(9)), 1.0);
        assert_eq!(out.commands.len(), 7);
        assert!(out.commands.iter().all(|c| c.node != NodeId(3)));
        // Rejoin at the lowest level: adopted for green recovery.
        m.note_node_rejoined(NodeId(3));
        assert!(m.sets().is_candidate(NodeId(3)));
        assert!(m.capping_degraded().contains(NodeId(3)));
    }

    /// The manager prunes `A_degraded` whenever the candidate set's
    /// generation moves, whatever the cycle then does: a node that left
    /// the candidates is dropped even by a conservative Green cycle, which
    /// never reaches Algorithm 1.
    #[test]
    fn degraded_set_is_pruned_when_the_generation_moves_even_on_conservative_green() {
        let mut m = manager(PolicyKind::Mpc, None);
        let out = m.run(5_000.0, &[], &FlatView(Level::new(9), Level::new(9)), 1.0);
        assert_eq!(out.state, PowerState::Red);
        assert_eq!(m.capping_degraded().len(), 8);
        let generation = m.sets().generation();
        m.note_node_down(NodeId(3));
        assert_ne!(m.sets().generation(), generation);
        // Coverage 0 < floor: Green holds recovery and issues nothing.
        let out = m.run(500.0, &[], &FlatView(Level::LOWEST, Level::new(9)), 0.0);
        assert_eq!(out.state, PowerState::Green);
        assert!(out.commands.is_empty());
        assert_eq!(m.stats().conservative_cycles, 1);
        assert_eq!(m.capping_degraded().len(), 7);
        assert!(!m.capping_degraded().contains(NodeId(3)));
    }

    /// A whole cycle is its classify half followed by its capping half,
    /// bit for bit, in every state and under low coverage: the same
    /// outcomes, statistics, `A_degraded` and recorded spans. Only a
    /// Yellow cycle over candidates reads the job observations.
    #[test]
    fn control_cycle_is_classify_then_cap_in_every_state() {
        let jobs = vec![
            jobs_obs(1, vec![nobs(0, 9, 300.0), nobs(1, 9, 280.0)], None),
            jobs_obs(2, vec![nobs(2, 9, 250.0)], Some(240.0)),
        ];
        let view = FlatView(Level::new(9), Level::new(9));
        // P_L = 840, P_H = 930 (training off): Green, Yellow, Red, then
        // Green long enough (t_g = 10) to promote, and Yellow again under
        // low coverage.
        let mut cycles: Vec<(f64, f64)> = vec![(500.0, 1.0), (900.0, 1.0), (950.0, 1.0)];
        cycles.extend([(500.0, 1.0); 12]);
        cycles.extend([(900.0, 0.25), (500.0, 0.25), (950.0, 0.25)]);
        let mut whole = manager(PolicyKind::Mpc, None);
        let mut halves = manager(PolicyKind::Mpc, None);
        let mut whole_spans = SpanRecorder::new(256);
        let mut halves_spans = SpanRecorder::new(256);
        let mut states = Vec::new();
        for (i, &(power_w, coverage)) in cycles.iter().enumerate() {
            let at = SimTime::from_secs(i as u64);
            let want = whole.control_cycle(power_w, &jobs, &view, coverage, at, &mut whole_spans);
            let classified = halves.classify(power_w, at, &mut halves_spans);
            assert_eq!(
                halves.reads_jobs(&classified),
                classified.state == PowerState::Yellow,
                "cycle {i}"
            );
            let got = halves.cap(classified, &jobs, &view, coverage, at, &mut halves_spans);
            assert_eq!(got, want, "cycle {i}");
            assert_eq!(halves.stats(), whole.stats(), "cycle {i}");
            assert_eq!(halves.capping_degraded(), whole.capping_degraded());
            states.push(got.state);
        }
        assert_eq!(halves_spans.fingerprint(), whole_spans.fingerprint());
        assert_eq!(halves_spans.closed(), whole_spans.closed());
        for state in [PowerState::Green, PowerState::Yellow, PowerState::Red] {
            assert!(states.contains(&state), "{state} never ran");
        }
        assert!(whole.stats().conservative_cycles >= 3);
        // With no candidate no state reads the jobs.
        let mut idle = manager(PolicyKind::Mpc, Some(0));
        let mut spans = SpanRecorder::disabled();
        let classified = idle.classify(900.0, SimTime::ZERO, &mut spans);
        assert_eq!(classified.state, PowerState::Yellow);
        assert!(!idle.reads_jobs(&classified));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let sets = NodeSets::new((0..2).map(NodeId), []);
        let config = ManagerConfig {
            t_g_cycles: 0,
            ..ManagerConfig::paper_defaults(1_000.0, PolicyKind::Mpc)
        };
        assert!(PowerManager::new(config, sets).is_err());
    }
}
