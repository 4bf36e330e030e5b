//! Algorithm 1 — the power capping algorithm.
//!
//! Runs once per control cycle on the classified power state:
//!
//! * **Green** — increment the steady-green timer `Time_g`; once the
//!   system has stayed Green for `T_g` cycles and some nodes are still
//!   degraded, promote every degraded node one level (removing those that
//!   reach their top level from `A_degraded`) — gradual recovery that also
//!   lets the machine cool down after an excursion.
//! * **Yellow** — reset `Time_g`; ask the selection policy for `A_target`
//!   and degrade each target one level, recording it in `A_degraded`.
//!   One level at a time is deliberately mild to avoid over-correction.
//! * **Red** — reset `Time_g`; force *every* candidate node to its lowest
//!   power state. Under the Controllability assumption this is guaranteed
//!   to bring the system back under the provision capability.
//!
//! The algorithm works on any ladder height per node (heterogeneous
//! clusters), never commands a privileged node (they are not candidates),
//! never degrades below the lowest level, and never promotes above the
//! highest.
//!
//! [`CappingAlgorithm::cycle`] is the one cycle entry point. Its owner
//! (the power manager) prunes `A_degraded` to the candidate set first,
//! once per candidate-set generation ([`CappingAlgorithm::prune_for`]).
//!
//! The node sets are [`NodeMask`]s, not trees rebuilt per cycle.
//! `A_candidate` is the manager's own candidate mask; `A_degraded` and
//! the Yellow screening set are masks sized to that mask's id span
//! ([`NodeMask::span`]), and the screening set is emptied after each use
//! so its words are reused. A Red cycle floors the candidates and a
//! steady-Green cycle promotes `A_degraded` by walking set bits in
//! ascending id, the order the commands had when the sets were
//! `BTreeSet`s; a membership test is one word load. The span matters: a
//! mask left to grow from id 0 costs a rack at the far end of a
//! 102 400-node fleet 1 600 words instead of two, and over 800 racks that
//! raised the 102 400-node benchmark's peak RSS from 105.7 to 111.9 MiB.

use crate::observe::SelectionContext;
use crate::policy::TargetSelectionPolicy;
use crate::sets::NodeMask;
use crate::state::PowerState;
use ppc_node::{Level, NodeId};
use ppc_obs::{AttrValue, SpanRecorder};
use ppc_simkit::SimTime;
use serde::{Deserialize, Serialize};

/// One throttling command: set `node` to `level`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeCommand {
    /// The commanded node.
    pub node: NodeId,
    /// The absolute level to apply.
    pub level: Level,
}

/// Read-only node facts the algorithm needs each cycle.
pub trait LevelView {
    /// The node's current power level.
    fn level_of(&self, node: NodeId) -> Level;
    /// The node's highest (unthrottled) level.
    fn highest_of(&self, node: NodeId) -> Level;
}

/// Algorithm 1's persistent state across cycles.
#[derive(Debug, Clone)]
pub struct CappingAlgorithm {
    /// `A_degraded`: candidate nodes currently below their top level due
    /// to capping, over the candidate mask's span.
    degraded: NodeMask,
    /// The Yellow cycles' screening set (policy targets already taken),
    /// empty between cycles; kept to reuse its words.
    screened: NodeMask,
    /// `Time_g`: consecutive Green cycles.
    time_g: u64,
    /// `T_g`: Green cycles required before recovery starts.
    t_g: u64,
    /// Candidate-set generation `A_degraded` was last pruned against
    /// (see [`CappingAlgorithm::prune_for`]).
    pruned_gen: Option<u64>,
}

impl CappingAlgorithm {
    /// Creates the algorithm with recovery patience `T_g` (in cycles).
    pub fn new(t_g: u64) -> Self {
        CappingAlgorithm {
            degraded: NodeMask::default(),
            screened: NodeMask::default(),
            time_g: 0,
            t_g,
            pruned_gen: None,
        }
    }

    /// Prunes `A_degraded` to the candidate set (a node that left it is no
    /// longer ours to manage), memoized on the set's generation: nodes
    /// only ever enter `A_degraded` while they are candidates, and
    /// candidate membership can't change without bumping the generation —
    /// so until it moves, the prune is a no-op. The owner calls this
    /// before every cycle, whatever the cycle then does. Each prune also
    /// sizes `A_degraded` and the screening set to the candidates' span.
    pub fn prune_for(&mut self, candidates: &NodeMask, generation: u64) {
        if self.pruned_gen == Some(generation) {
            return;
        }
        // Refill the (empty) screening mask with the members kept, swap it
        // in as `A_degraded`, and empty the old one for screening.
        self.screened.reset(candidates.span());
        for node in self.degraded.iter().filter(|&n| candidates.contains(n)) {
            self.screened.insert(node);
        }
        std::mem::swap(&mut self.degraded, &mut self.screened);
        self.screened.reset(candidates.span());
        self.pruned_gen = Some(generation);
    }

    /// Current `A_degraded`.
    pub fn degraded(&self) -> &NodeMask {
        &self.degraded
    }

    /// Current `Time_g`.
    pub fn time_g(&self) -> u64 {
        self.time_g
    }

    /// Runs one cycle of Algorithm 1 and returns the commands to issue.
    ///
    /// `candidates` is the current `A_candidate`, to which `A_degraded`
    /// must already be pruned ([`CappingAlgorithm::prune_for`]). Yellow
    /// wraps the policy selection in a `select` span at `at` carrying the
    /// policy name, `|A_target|` and the deficit driving it.
    #[allow(clippy::too_many_arguments)]
    pub fn cycle(
        &mut self,
        state: PowerState,
        ctx: &SelectionContext,
        policy: &mut dyn TargetSelectionPolicy,
        candidates: &NodeMask,
        view: &dyn LevelView,
        at: SimTime,
        spans: &mut SpanRecorder,
    ) -> Vec<NodeCommand> {
        match state {
            PowerState::Green => self.green_cycle(view),
            PowerState::Yellow => self.yellow_cycle(ctx, policy, candidates, view, at, spans),
            PowerState::Red => self.red_cycle(candidates, view),
        }
    }

    /// Adopts a node into `A_degraded` without issuing a command — used
    /// when a crashed node rejoins the cluster at its lowest level: the
    /// fault path already set the level, and adoption makes steady-green
    /// recovery promote the node back up exactly like a capped one.
    pub fn adopt(&mut self, node: NodeId) {
        self.degraded.insert(node);
    }

    /// Degraded-telemetry Yellow cycle: too few candidates have fresh
    /// samples for the selection policy's savings estimates to mean
    /// anything, so instead of optimizing, degrade *every* observed
    /// degradable candidate one level. Strictly more conservative than any
    /// policy selection (the policy picks a subset of these nodes), so the
    /// capping guarantee survives telemetry loss at the cost of
    /// performance.
    pub(crate) fn conservative_yellow(
        &mut self,
        ctx: &SelectionContext,
        candidates: &NodeMask,
        view: &dyn LevelView,
    ) -> Vec<NodeCommand> {
        self.time_g = 0;
        let nodes = ctx
            .jobs
            .iter()
            .flat_map(|job| &job.nodes)
            .map(|obs| obs.node);
        self.degrade_screened(nodes, candidates, view, false)
    }

    /// Degrades each of `nodes` one level, in order, and records it in
    /// `A_degraded`, skipping non-candidates, repeats and floored nodes.
    /// A non-candidate or repeat is a policy bug when `from_policy`.
    fn degrade_screened(
        &mut self,
        nodes: impl Iterator<Item = NodeId>,
        candidates: &NodeMask,
        view: &dyn LevelView,
        from_policy: bool,
    ) -> Vec<NodeCommand> {
        let mut commands = Vec::with_capacity(nodes.size_hint().0);
        for node in nodes {
            if !candidates.contains(node) || !self.screened.insert(node) {
                debug_assert!(!from_policy, "policy returned invalid target {node}");
                continue;
            }
            let Some(lower) = view.level_of(node).down() else {
                // Not a policy bug: under fault injection a node's freshest
                // observation can be one control cycle stale (a dropped
                // sample right after a Red floor), so a just-floored node
                // may still look degradable to the policy. Screening it
                // out here is the contract.
                continue;
            };
            commands.push(NodeCommand { node, level: lower });
            self.degraded.insert(node);
        }
        self.screened.clear();
        commands
    }

    fn green_cycle(&mut self, view: &dyn LevelView) -> Vec<NodeCommand> {
        self.time_g += 1;
        if self.time_g < self.t_g || self.degraded.is_empty() {
            return Vec::new();
        }
        // Steady green: promote every degraded node one level.
        let mut commands = Vec::with_capacity(self.degraded.len());
        let mut recovered = Vec::new();
        for node in self.degraded.iter() {
            let current = view.level_of(node);
            let highest = view.highest_of(node);
            if current >= highest {
                // Already back at the top (e.g. externally reset): just
                // drop it from the degraded set.
                recovered.push(node);
                continue;
            }
            let next = current.up();
            commands.push(NodeCommand { node, level: next });
            if next >= highest {
                recovered.push(node);
            }
        }
        for node in recovered {
            self.degraded.remove(node);
        }
        commands
    }

    fn yellow_cycle(
        &mut self,
        ctx: &SelectionContext,
        policy: &mut dyn TargetSelectionPolicy,
        candidates: &NodeMask,
        view: &dyn LevelView,
        at: SimTime,
        spans: &mut SpanRecorder,
    ) -> Vec<NodeCommand> {
        self.time_g = 0;
        spans.open("select", at);
        spans.attr("policy", AttrValue::Str(policy.name()));
        spans.attr("deficit_w", AttrValue::F64(ctx.deficit_w()));
        let targets = policy.select(ctx);
        spans.attr("a_target", AttrValue::U64(targets.len() as u64));
        spans.close(at);
        // Defensive screening of policy output: each target must be a
        // candidate, not a duplicate, and still degradable.
        self.degrade_screened(targets.into_iter(), candidates, view, true)
    }

    fn red_cycle(&mut self, candidates: &NodeMask, view: &dyn LevelView) -> Vec<NodeCommand> {
        self.time_g = 0;
        // Emergency: every candidate to its lowest state, even those
        // already there (the command is idempotent; re-sending costs
        // nothing and tolerates lost earlier commands). A_degraded :=
        // A_candidate — but only nodes whose ladder has more than one
        // level can ever recover; all candidates qualify by the
        // Controllability assumption.
        let mut commands = Vec::with_capacity(candidates.len());
        self.degraded.reset(candidates.span());
        for node in candidates.iter() {
            commands.push(NodeCommand {
                node,
                level: Level::LOWEST,
            });
            if view.highest_of(node) > Level::LOWEST {
                self.degraded.insert(node);
            }
        }
        commands
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::testutil::{ctx, jobs_obs, nobs};
    use crate::policy::PolicyKind;
    use std::cell::RefCell;
    use std::collections::BTreeMap;

    /// Mutable level store standing in for the cluster.
    struct Levels {
        map: RefCell<BTreeMap<NodeId, Level>>,
        highest: Level,
    }

    impl Levels {
        fn new(nodes: &[u32], highest: u8) -> Self {
            Levels {
                map: RefCell::new(
                    nodes
                        .iter()
                        .map(|&n| (NodeId(n), Level::new(highest)))
                        .collect(),
                ),
                highest: Level::new(highest),
            }
        }
        fn apply(&self, commands: &[NodeCommand]) {
            let mut map = self.map.borrow_mut();
            for c in commands {
                map.insert(c.node, c.level);
            }
        }
        fn level(&self, n: u32) -> Level {
            self.map.borrow()[&NodeId(n)]
        }
    }

    impl LevelView for Levels {
        fn level_of(&self, node: NodeId) -> Level {
            self.map.borrow()[&node]
        }
        fn highest_of(&self, _node: NodeId) -> Level {
            self.highest
        }
    }

    fn cands(ids: &[u32]) -> NodeMask {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    impl CappingAlgorithm {
        /// [`CappingAlgorithm::cycle`] with no spans recorded.
        fn run(
            &mut self,
            state: PowerState,
            ctx: &SelectionContext,
            policy: &mut dyn TargetSelectionPolicy,
            candidates: &NodeMask,
            view: &dyn LevelView,
        ) -> Vec<NodeCommand> {
            let mut spans = SpanRecorder::disabled();
            self.cycle(
                state,
                ctx,
                policy,
                candidates,
                view,
                SimTime::ZERO,
                &mut spans,
            )
        }
    }

    #[test]
    fn yellow_degrades_policy_targets_one_level() {
        let levels = Levels::new(&[0, 1, 2], 9);
        let mut alg = CappingAlgorithm::new(10);
        let mut policy = PolicyKind::Mpc.build();
        let c = ctx(
            vec![jobs_obs(
                1,
                vec![nobs(0, 9, 300.0), nobs(1, 9, 300.0)],
                None,
            )],
            1_100.0,
            1_000.0,
        );
        let commands = alg.run(
            PowerState::Yellow,
            &c,
            policy.as_mut(),
            &cands(&[0, 1, 2]),
            &levels,
        );
        levels.apply(&commands);
        assert_eq!(commands.len(), 2);
        assert_eq!(levels.level(0), Level::new(8));
        assert_eq!(levels.level(1), Level::new(8));
        assert_eq!(levels.level(2), Level::new(9), "non-target untouched");
        assert_eq!(alg.degraded().len(), 2);
        assert_eq!(alg.time_g(), 0);
    }

    #[test]
    fn red_forces_all_candidates_to_lowest() {
        let levels = Levels::new(&[0, 1, 2, 3], 9);
        let mut alg = CappingAlgorithm::new(10);
        let mut policy = PolicyKind::Hri.build();
        let c = ctx(vec![], 2_000.0, 1_000.0);
        let commands = alg.run(
            PowerState::Red,
            &c,
            policy.as_mut(),
            &cands(&[0, 1, 2]),
            &levels,
        );
        levels.apply(&commands);
        assert_eq!(commands.len(), 3);
        for n in [0, 1, 2] {
            assert_eq!(levels.level(n), Level::LOWEST);
        }
        assert_eq!(levels.level(3), Level::new(9), "non-candidate untouched");
        assert_eq!(alg.degraded().len(), 3);
    }

    #[test]
    fn green_recovery_waits_for_t_g_then_steps_up() {
        let levels = Levels::new(&[0], 2);
        let mut alg = CappingAlgorithm::new(3);
        let mut policy = PolicyKind::Mpc.build();
        let cand = cands(&[0]);
        // Degrade twice via red.
        let c_red = ctx(vec![], 9_999.0, 1_000.0);
        let cmds = alg.run(PowerState::Red, &c_red, policy.as_mut(), &cand, &levels);
        levels.apply(&cmds);
        assert_eq!(levels.level(0), Level::new(0));

        let c_green = ctx(vec![], 1.0, 1_000.0);
        // Two green cycles: below T_g, nothing happens.
        for expected_tg in [1, 2] {
            let cmds = alg.run(PowerState::Green, &c_green, policy.as_mut(), &cand, &levels);
            assert!(cmds.is_empty());
            assert_eq!(alg.time_g(), expected_tg);
        }
        // Third green cycle: promote 0 → 1.
        let cmds = alg.run(PowerState::Green, &c_green, policy.as_mut(), &cand, &levels);
        levels.apply(&cmds);
        assert_eq!(levels.level(0), Level::new(1));
        assert_eq!(alg.degraded().len(), 1, "not yet at top");
        // Fourth green cycle: promote 1 → 2 (top) and forget the node.
        let cmds = alg.run(PowerState::Green, &c_green, policy.as_mut(), &cand, &levels);
        levels.apply(&cmds);
        assert_eq!(levels.level(0), Level::new(2));
        assert!(alg.degraded().is_empty());
        // Fifth: nothing left to do.
        let cmds = alg.run(PowerState::Green, &c_green, policy.as_mut(), &cand, &levels);
        assert!(cmds.is_empty());
    }

    #[test]
    fn yellow_resets_green_timer() {
        let levels = Levels::new(&[0], 9);
        let mut alg = CappingAlgorithm::new(5);
        let mut policy = PolicyKind::Mpc.build();
        let cand = cands(&[0]);
        let c_green = ctx(vec![], 1.0, 1_000.0);
        for _ in 0..3 {
            alg.run(PowerState::Green, &c_green, policy.as_mut(), &cand, &levels);
        }
        assert_eq!(alg.time_g(), 3);
        let c_yellow = ctx(
            vec![jobs_obs(1, vec![nobs(0, 9, 300.0)], None)],
            1_100.0,
            1_000.0,
        );
        let cmds = alg.run(
            PowerState::Yellow,
            &c_yellow,
            policy.as_mut(),
            &cand,
            &levels,
        );
        levels.apply(&cmds);
        assert_eq!(alg.time_g(), 0);
    }

    #[test]
    fn degraded_set_prunes_nodes_leaving_candidates() {
        let levels = Levels::new(&[0, 1], 9);
        let mut alg = CappingAlgorithm::new(1);
        let mut policy = PolicyKind::Mpc.build();
        let (both, rest) = (cands(&[0, 1]), cands(&[0]));
        alg.prune_for(&both, 0);
        let c_red = ctx(vec![], 9_999.0, 1_000.0);
        let cmds = alg.run(PowerState::Red, &c_red, policy.as_mut(), &both, &levels);
        levels.apply(&cmds);
        assert_eq!(alg.degraded().len(), 2);
        // Node 1 becomes privileged (leaves the candidate set), which
        // moves the set's generation: only then does the prune run.
        alg.prune_for(&rest, 0);
        assert_eq!(alg.degraded().len(), 2, "same generation: memoized");
        alg.prune_for(&rest, 1);
        let c_green = ctx(vec![], 1.0, 1_000.0);
        let cmds = alg.run(PowerState::Green, &c_green, policy.as_mut(), &rest, &levels);
        assert!(alg.degraded().iter().all(|n| n == NodeId(0)));
        // Only node 0 gets a recovery command.
        assert!(cmds.iter().all(|c| c.node == NodeId(0)));
    }

    #[test]
    fn externally_restored_node_is_dropped_without_command() {
        let levels = Levels::new(&[0], 9);
        let mut alg = CappingAlgorithm::new(1);
        let mut policy = PolicyKind::Mpc.build();
        let cand = cands(&[0]);
        let c_yellow = ctx(
            vec![jobs_obs(1, vec![nobs(0, 9, 300.0)], None)],
            1_100.0,
            1_000.0,
        );
        let cmds = alg.run(
            PowerState::Yellow,
            &c_yellow,
            policy.as_mut(),
            &cand,
            &levels,
        );
        levels.apply(&cmds);
        assert_eq!(alg.degraded().len(), 1);
        // An operator resets the node to top level out-of-band.
        levels.apply(&[NodeCommand {
            node: NodeId(0),
            level: Level::new(9),
        }]);
        let c_green = ctx(vec![], 1.0, 1_000.0);
        let cmds = alg.run(PowerState::Green, &c_green, policy.as_mut(), &cand, &levels);
        assert!(cmds.is_empty());
        assert!(alg.degraded().is_empty());
    }

    #[test]
    fn adopted_node_recovers_via_green_cycles() {
        let levels = Levels::new(&[0, 1], 2);
        // Node 0 rejoined after a crash at the lowest level.
        levels.apply(&[NodeCommand {
            node: NodeId(0),
            level: Level::LOWEST,
        }]);
        let mut alg = CappingAlgorithm::new(1);
        alg.adopt(NodeId(0));
        let mut policy = PolicyKind::Mpc.build();
        let cand = cands(&[0, 1]);
        let c_green = ctx(vec![], 1.0, 1_000.0);
        let cmds = alg.run(PowerState::Green, &c_green, policy.as_mut(), &cand, &levels);
        levels.apply(&cmds);
        assert_eq!(levels.level(0), Level::new(1), "adopted node promoted");
        assert_eq!(levels.level(1), Level::new(2), "untouched");
        let cmds = alg.run(PowerState::Green, &c_green, policy.as_mut(), &cand, &levels);
        levels.apply(&cmds);
        assert_eq!(levels.level(0), Level::new(2));
        assert!(alg.degraded().is_empty());
    }

    #[test]
    fn conservative_yellow_degrades_every_observed_candidate() {
        let levels = Levels::new(&[0, 1, 2, 3], 9);
        let mut alg = CappingAlgorithm::new(10);
        // Job spans nodes 0-2; node 3 idle, node 2 not a candidate.
        let c = ctx(
            vec![jobs_obs(
                1,
                vec![nobs(0, 9, 300.0), nobs(1, 9, 300.0), nobs(2, 9, 300.0)],
                None,
            )],
            1_100.0,
            1_000.0,
        );
        let commands = alg.conservative_yellow(&c, &cands(&[0, 1, 3]), &levels);
        levels.apply(&commands);
        assert_eq!(commands.len(), 2, "all observed candidates, nothing else");
        assert_eq!(levels.level(0), Level::new(8));
        assert_eq!(levels.level(1), Level::new(8));
        assert_eq!(levels.level(2), Level::new(9), "non-candidate untouched");
        assert_eq!(levels.level(3), Level::new(9), "idle node untouched");
        assert_eq!(alg.degraded().len(), 2);
        assert_eq!(alg.time_g(), 0);
    }

    /// Algorithm 1 over ordered sets, as it was written before its sets
    /// became masks: the reference the mask implementation must match
    /// command for command and set for set, over random cycles.
    mod reference {
        use super::*;
        use crate::observe::{JobObservation, NodeObservation};
        use crate::sets::NodeSets;
        use ppc_workload::JobId;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        /// The ordered-set form of [`CappingAlgorithm`].
        struct SetAlgorithm {
            degraded: BTreeSet<NodeId>,
            time_g: u64,
            t_g: u64,
            pruned_gen: Option<u64>,
        }

        impl SetAlgorithm {
            fn prune_for(&mut self, candidates: &BTreeSet<NodeId>, generation: u64) {
                if self.pruned_gen != Some(generation) {
                    self.degraded.retain(|n| candidates.contains(n));
                    self.pruned_gen = Some(generation);
                }
            }

            fn cycle(
                &mut self,
                state: PowerState,
                ctx: &SelectionContext,
                policy: &mut dyn TargetSelectionPolicy,
                candidates: &BTreeSet<NodeId>,
                view: &dyn LevelView,
            ) -> Vec<NodeCommand> {
                match state {
                    PowerState::Green => self.green_cycle(view),
                    PowerState::Yellow => {
                        self.time_g = 0;
                        let targets = policy.select(ctx);
                        self.degrade(targets, candidates, view)
                    }
                    PowerState::Red => self.red_cycle(candidates, view),
                }
            }

            fn conservative_yellow(
                &mut self,
                ctx: &SelectionContext,
                candidates: &BTreeSet<NodeId>,
                view: &dyn LevelView,
            ) -> Vec<NodeCommand> {
                self.time_g = 0;
                let nodes = ctx.jobs.iter().flat_map(|j| &j.nodes).map(|o| o.node);
                self.degrade(nodes.collect(), candidates, view)
            }

            fn degrade(
                &mut self,
                nodes: Vec<NodeId>,
                candidates: &BTreeSet<NodeId>,
                view: &dyn LevelView,
            ) -> Vec<NodeCommand> {
                let mut commands = Vec::new();
                let mut seen = BTreeSet::new();
                for node in nodes {
                    if !candidates.contains(&node) || !seen.insert(node) {
                        continue;
                    }
                    let Some(lower) = view.level_of(node).down() else {
                        continue;
                    };
                    commands.push(NodeCommand { node, level: lower });
                    self.degraded.insert(node);
                }
                commands
            }

            fn green_cycle(&mut self, view: &dyn LevelView) -> Vec<NodeCommand> {
                self.time_g += 1;
                if self.time_g < self.t_g || self.degraded.is_empty() {
                    return Vec::new();
                }
                let mut commands = Vec::new();
                let mut recovered = Vec::new();
                for &node in &self.degraded {
                    let current = view.level_of(node);
                    let highest = view.highest_of(node);
                    if current >= highest {
                        recovered.push(node);
                        continue;
                    }
                    let next = current.up();
                    commands.push(NodeCommand { node, level: next });
                    if next >= highest {
                        recovered.push(node);
                    }
                }
                for node in recovered {
                    self.degraded.remove(&node);
                }
                commands
            }

            fn red_cycle(
                &mut self,
                candidates: &BTreeSet<NodeId>,
                view: &dyn LevelView,
            ) -> Vec<NodeCommand> {
                self.time_g = 0;
                let commands = candidates
                    .iter()
                    .map(|&node| NodeCommand {
                        node,
                        level: Level::LOWEST,
                    })
                    .collect();
                self.degraded = candidates
                    .iter()
                    .copied()
                    .filter(|&n| view.highest_of(n) > Level::LOWEST)
                    .collect();
                commands
            }
        }

        /// A rack of `highest.len()` nodes from id `base`, each on a
        /// ladder of its own height (some of a single level).
        struct Rack {
            base: u32,
            levels: RefCell<Vec<Level>>,
            highest: Vec<Level>,
        }

        impl Rack {
            fn slot(&self, node: NodeId) -> usize {
                (node.0 - self.base) as usize
            }
            fn apply(&self, commands: &[NodeCommand]) {
                let mut levels = self.levels.borrow_mut();
                for c in commands {
                    levels[self.slot(c.node)] = c.level;
                }
            }
        }

        impl LevelView for Rack {
            fn level_of(&self, node: NodeId) -> Level {
                self.levels.borrow()[self.slot(node)]
            }
            fn highest_of(&self, node: NodeId) -> Level {
                self.highest[self.slot(node)]
            }
        }

        /// This cycle's job observations: the rack cut into jobs of
        /// `width` nodes, each node observed at its level or, when
        /// `stale` picks it, at its top level (an observation one cycle
        /// old). Non-candidates are observed only when `all` holds (the
        /// conservative sweep screens them); powers repeat, so jobs tie.
        fn observe(
            rack: &Rack,
            sets: &NodeSets,
            width: usize,
            stale: u32,
            all: bool,
        ) -> Vec<JobObservation> {
            let levels = rack.levels.borrow();
            let mut jobs: Vec<JobObservation> = Vec::new();
            for (slot, &actual) in levels.iter().enumerate() {
                let node = NodeId(rack.base + slot as u32);
                if !all && !sets.is_candidate(node) {
                    continue;
                }
                let level = if (slot as u32 + stale).is_multiple_of(7) {
                    rack.highest[slot]
                } else {
                    actual
                };
                let id = (slot / width) as u64;
                if jobs.last().map(|j| j.id) != Some(JobId(id)) {
                    let prev = id.is_multiple_of(2).then_some(50.0 + id as f64);
                    jobs.push(JobObservation {
                        id: JobId(id),
                        nodes: Vec::new(),
                        prev_power_w: prev,
                    });
                }
                let job = jobs.last_mut().expect("pushed above");
                job.nodes.push(NodeObservation {
                    node,
                    level,
                    power_w: 100.0 + (slot % 3) as f64 * 50.0,
                    saving_w: if level > Level::LOWEST { 10.0 } else { 0.0 },
                });
            }
            jobs
        }

        /// Runs the mask algorithm and the reference through the same
        /// operations, as the manager drives them (prune before every
        /// cycle, then the conservative or the policy path), asserting
        /// identical commands and `A_degraded` after each.
        fn drive(
            base: u32,
            highest: Vec<u8>,
            t_g: u64,
            kind: PolicyKind,
            ops: Vec<(u8, u32, u32)>,
        ) -> Result<(), TestCaseError> {
            let n = highest.len() as u32;
            let rack = Rack {
                base,
                levels: RefCell::new(highest.iter().map(|&h| Level::new(h)).collect()),
                highest: highest.iter().map(|&h| Level::new(h)).collect(),
            };
            let mut sets = NodeSets::new((base..base + n).map(NodeId), []);
            let mut alg = CappingAlgorithm::new(t_g);
            let mut reference = SetAlgorithm {
                degraded: BTreeSet::new(),
                time_g: 0,
                t_g,
                pruned_gen: None,
            };
            let (mut policy, mut ref_policy) = (kind.build(), kind.build());
            for (op, a, b) in ops {
                let node = NodeId(base + a % n);
                match op % 8 {
                    0 => {
                        let on = b.is_multiple_of(2);
                        sets.set_privileged(node, on);
                    }
                    1 => sets.set_offline(node, b.is_multiple_of(2)),
                    2 => {
                        if sets.is_candidate(node) {
                            alg.adopt(node);
                            reference.degraded.insert(node);
                        }
                    }
                    3 => {
                        // An operator restores the node out of band.
                        let top = rack.highest_of(node);
                        rack.apply(&[NodeCommand { node, level: top }]);
                    }
                    _ => {
                        let state = [PowerState::Green, PowerState::Yellow, PowerState::Red]
                            [(b % 3) as usize];
                        let conservative = op % 8 == 7;
                        let width = 1 + (a % 17) as usize;
                        let jobs = observe(&rack, &sets, width, b, conservative);
                        let c = ctx(jobs, 1_000.0 + (b % 400) as f64, 1_000.0);
                        let mask = sets.candidate_mask();
                        let set: BTreeSet<NodeId> = mask.iter().collect();
                        let set = &set;
                        alg.prune_for(mask, sets.generation());
                        reference.prune_for(set, sets.generation());
                        let (got, want) = if set.is_empty() {
                            (Vec::new(), Vec::new())
                        } else if conservative {
                            match state {
                                PowerState::Green => (Vec::new(), Vec::new()),
                                PowerState::Yellow => (
                                    alg.conservative_yellow(&c, mask, &rack),
                                    reference.conservative_yellow(&c, set, &rack),
                                ),
                                PowerState::Red => (
                                    alg.run(state, &c, policy.as_mut(), mask, &rack),
                                    reference.cycle(state, &c, ref_policy.as_mut(), set, &rack),
                                ),
                            }
                        } else {
                            (
                                alg.run(state, &c, policy.as_mut(), mask, &rack),
                                reference.cycle(state, &c, ref_policy.as_mut(), set, &rack),
                            )
                        };
                        prop_assert!(got == want, "{state} cycle: got {got:?}, want {want:?}");
                        rack.apply(&got);
                        prop_assert_eq!(alg.time_g(), reference.time_g);
                        prop_assert!(alg.screened.is_empty(), "screening set left full");
                        // Both masks are sized to the candidates' span.
                        prop_assert_eq!(alg.degraded().span(), mask.span());
                        prop_assert_eq!(alg.screened.span(), mask.span());
                    }
                }
                let degraded: BTreeSet<NodeId> = alg.degraded().iter().collect();
                prop_assert_eq!(&degraded, &reference.degraded);
                prop_assert_eq!(alg.degraded().len(), reference.degraded.len());
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn prop_mask_algorithm_matches_the_set_reference(
                base in 0usize..4,
                highest in proptest::collection::vec(0u8..6, 1..150),
                t_g in 1u64..4,
                kind in 0usize..PolicyKind::ALL.len(),
                ops in proptest::collection::vec((0u8..8, 0u32..10_000, 0u32..10_000), 1..80),
            ) {
                // Racks at id 0, one word in, off a word boundary, and at
                // the far end of a 102 400-node fleet.
                let base = [0, 64, 1_000, 102_272][base];
                drive(base, highest, t_g, PolicyKind::ALL[kind], ops)?;
            }
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// Drives the algorithm through an arbitrary state sequence on a
        /// mutable level store, checking the structural invariants after
        /// every cycle.
        fn drive(states: Vec<u8>, n_nodes: u32, highest: u8) {
            let levels = Levels::new(&(0..n_nodes).collect::<Vec<_>>(), highest);
            let cand = cands(&(0..n_nodes).collect::<Vec<_>>());
            let mut alg = CappingAlgorithm::new(3);
            let mut policy = PolicyKind::MpcC.build();
            for code in states {
                let state = match code % 3 {
                    0 => PowerState::Green,
                    1 => PowerState::Yellow,
                    _ => PowerState::Red,
                };
                // Build a context reflecting the *current* levels so the
                // policy only sees degradable nodes.
                let nodes: Vec<crate::observe::NodeObservation> = (0..n_nodes)
                    .map(|i| {
                        let l = levels.level(i);
                        crate::observe::NodeObservation {
                            node: NodeId(i),
                            level: l,
                            power_w: 200.0 + i as f64,
                            saving_w: if l > Level::LOWEST { 10.0 } else { 0.0 },
                        }
                    })
                    .collect();
                let c = ctx(vec![jobs_obs(1, nodes, None)], 1_100.0, 1_000.0);
                let commands = alg.run(state, &c, policy.as_mut(), &cand, &levels);
                // Invariants on the issued commands.
                for cmd in &commands {
                    assert!(cand.contains(cmd.node), "command to non-candidate");
                    assert!(cmd.level.index() <= highest as usize, "level off ladder");
                    match state {
                        PowerState::Yellow => {
                            assert_eq!(
                                cmd.level.index() + 1,
                                levels.level(cmd.node.0).index(),
                                "yellow degrades exactly one level"
                            );
                        }
                        PowerState::Red => assert_eq!(cmd.level, Level::LOWEST),
                        PowerState::Green => {
                            assert_eq!(
                                cmd.level.index(),
                                levels.level(cmd.node.0).index() + 1,
                                "green promotes exactly one level"
                            );
                        }
                    }
                }
                levels.apply(&commands);
                // A_degraded ⊆ candidates, and every degraded node is
                // actually below its top level (or about to recover).
                for d in alg.degraded().iter() {
                    assert!(cand.contains(d));
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn prop_invariants_hold_over_random_state_sequences(
                states in proptest::collection::vec(0u8..3, 1..60),
                n_nodes in 1u32..12,
                highest in 1u8..10,
            ) {
                drive(states, n_nodes, highest);
            }
        }
    }

    #[test]
    fn empty_candidate_set_is_inert() {
        let levels = Levels::new(&[], 9);
        let mut alg = CappingAlgorithm::new(1);
        let mut policy = PolicyKind::MpcC.build();
        let none = NodeMask::default();
        for state in [PowerState::Green, PowerState::Yellow, PowerState::Red] {
            let cmds = alg.run(
                state,
                &ctx(vec![], 5_000.0, 1_000.0),
                policy.as_mut(),
                &none,
                &levels,
            );
            assert!(cmds.is_empty(), "{state}");
        }
    }
}
