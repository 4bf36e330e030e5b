//! The hierarchical control plane: facility → row → rack sub-managers.
//!
//! The paper's manager is flat — one collector and one capping loop over
//! every node — which stops scaling long before 100k nodes. This module
//! delegates instead: the facility budget (`P_provision`) is cut across
//! rows, each row's cut across its racks, and **each rack runs the
//! paper's full flat control stack** ([`PowerManager`]: learner,
//! Algorithm 1, the seven node-scoped policies) against its delegated
//! budget. Classification rolls back up the tree each cycle — the
//! facility is Yellow/Red when any rack's rollup is — and sibling
//! headroom is re-delegated every control cycle through
//! [`crate::budget::delegate_with_headroom`], so an idle rack's slack
//! flows to a pressed one instead of sitting stranded.
//!
//! Conservation is structural: both delegation stages go through
//! [`crate::budget::split_proportional`], whose output satisfies the
//! sequential draw-down invariant of [`crate::budget::conserves_budget`]
//! exactly — Σ rack budgets ≤ row budget ≤ facility budget at every
//! cycle, bit for bit, including under fault churn (a dead rack's online
//! weight is exactly zero, so its budget drains back to the row and its
//! siblings absorb the headroom).
//!
//! **Flat equivalence.** The flat architecture *is* the one-rack tree:
//! [`HierarchicalManager::from_racks`] adopts a ready-built flat
//! [`PowerManager`] unchanged as the lone rack of a
//! [`Topology::single_rack`], and [`HierarchicalManager::new`] assembles
//! every tree through the same constructor. On one rack the hierarchy is
//! a pure passthrough: the rack's budget is the facility budget bit for
//! bit (single-child split is exact), [`HierarchicalManager::delegate`]
//! never moves it, the cycle runs the rack directly
//! ([`HierarchicalManager::single_rack_classify`] and
//! [`HierarchicalManager::single_rack_cap`]), and every query
//! (`sets`, `stats`, `thresholds`, `in_training`) is the sub-manager's
//! own. The behaviour pin (`tests/fingerprints.rs`, the `gate8` row)
//! holds an adopted flat manager bit-identical to a one-rack tree built
//! by `new` on every determinism fingerprint.

use crate::budget::{conserves_budget, delegate_with_headroom, is_positive, split_proportional};
use crate::capping::LevelView;
use crate::config::ManagerConfig;
use crate::error::CoreError;
use crate::manager::{Classification, CycleOutcome, ManagerStats, PowerManager};
use crate::observe::JobObservation;
use crate::policy::PolicyKind;
use crate::sets::NodeSets;
use crate::state::{PowerState, Thresholds};
use crate::topology::Topology;
use ppc_node::NodeId;
use ppc_obs::SpanRecorder;
use ppc_simkit::SimTime;
use std::collections::BTreeSet;

/// Fraction of a sibling's surplus headroom (its proportional base share
/// above its need) offered to the lending pool. Delegation keeps no state
/// between cycles: [`delegate_with_headroom`] re-cuts every budget from
/// the proportional base on each call, so this is not a rate. However
/// many cycles pass, a lender keeps at least half of its surplus, and the
/// borrowers together get at most half of what their siblings have spare.
const LEND_FRACTION: f64 = 0.5;

/// What one delegation pass changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DelegationOutcome {
    /// Racks whose delegated budget changed (bitwise) this pass.
    pub changed: u32,
    /// Racks whose budget drained to zero this pass (all nodes offline;
    /// their headroom was reclaimed by siblings).
    pub drained: Vec<u32>,
}

/// The facility-level hierarchical power manager.
///
/// Owns one [`PowerManager`] per rack plus the facility-wide node
/// classification mirror, and moves budgets between them each control
/// cycle. `Clone` so what-if snapshots can branch the whole tree.
#[derive(Clone)]
pub struct HierarchicalManager {
    topology: Topology,
    config: ManagerConfig,
    /// Facility-wide classification mirror (the union of every rack's
    /// sets): the simulator samples work-lists and computes global
    /// coverage against this, exactly as it would against a flat manager.
    global_sets: NodeSets,
    subs: Vec<PowerManager>,
    node_weight_w: Vec<f64>,
    rack_budget_w: Vec<f64>,
    row_budget_w: Vec<f64>,
    /// Σ online node weights per rack, maintained incrementally (O(1) per
    /// down/up edge) and forced to exactly `0.0` when a rack empties so
    /// float residue can never keep a dead rack funded.
    rack_online_weight_w: Vec<f64>,
    rack_online_count: Vec<u32>,
    stats: ManagerStats,
    last_conservative_total: u64,
    last_rack_states: Vec<PowerState>,
    facility_thresholds: Thresholds,
}

impl HierarchicalManager {
    /// Builds the tree: facility budget split weight-proportionally over
    /// rows then racks, one flat [`PowerManager`] per rack scoped to its
    /// contiguous node range. `node_weight_w[i]` is node `i`'s share
    /// weight (its theoretical max draw). Every rack must come up funded.
    pub fn new(
        config: ManagerConfig,
        topology: Topology,
        privileged: &BTreeSet<NodeId>,
        node_weight_w: Vec<f64>,
    ) -> Result<Self, CoreError> {
        let (_, _, rack_budget_w) = construction_cut(&config, &topology, &node_weight_w)?;
        if let Some(n) = privileged.iter().find(|n| n.0 >= topology.node_count()) {
            return Err(CoreError::InvalidConfig(format!(
                "privileged node {n} is outside the topology"
            )));
        }
        let subs = rack_budget_w
            .iter()
            .enumerate()
            .map(|(r, &budget)| {
                let range = topology.rack_nodes(r);
                let rack_privileged = privileged.iter().copied().filter(|n| range.contains(&n.0));
                let sets = NodeSets::new(range.clone().map(NodeId), rack_privileged);
                PowerManager::new(
                    ManagerConfig {
                        p_provision_w: budget,
                        ..config
                    },
                    sets,
                )
            })
            .collect::<Result<_, _>>()?;
        Self::from_racks(config, topology, subs, node_weight_w)
    }

    /// Assembles the tree around ready-built rack sub-managers, adopted
    /// unchanged (learner state, node sets, candidate cap): `subs[r]` must
    /// cover exactly rack `r`'s nodes and hold exactly its construction
    /// cut. On a [`Topology::single_rack`] that cut is the facility
    /// budget, so a flat manager adopts with `config = *manager.config()`.
    pub fn from_racks(
        config: ManagerConfig,
        topology: Topology,
        subs: Vec<PowerManager>,
        node_weight_w: Vec<f64>,
    ) -> Result<Self, CoreError> {
        let (rack_weight_w, row_budget_w, rack_budget_w) =
            construction_cut(&config, &topology, &node_weight_w)?;
        let fits = |(r, sub): (usize, &PowerManager)| {
            sub.config().p_provision_w.to_bits() == rack_budget_w[r].to_bits()
                && sub.sets().total() == topology.rack_nodes(r)
        };
        if subs.len() != topology.racks() || !subs.iter().enumerate().all(fits) {
            return Err(CoreError::InvalidConfig(
                "each rack needs one sub-manager over its nodes holding its budget cut".into(),
            ));
        }
        // The facility mirror: the lone rack's own sets, else the union.
        let global_sets = match subs.as_slice() {
            [only] => only.sets().clone(),
            _ => NodeSets::new(
                (0..topology.node_count()).map(NodeId),
                subs.iter().flat_map(|s| s.sets().privileged().iter()),
            ),
        };
        let racks = topology.racks();
        let facility_thresholds =
            Thresholds::from_peak(config.p_provision_w, config.low_margin, config.high_margin)?;
        Ok(HierarchicalManager {
            topology,
            config,
            global_sets,
            subs,
            node_weight_w,
            rack_budget_w,
            row_budget_w,
            rack_online_weight_w: rack_weight_w,
            rack_online_count: (0..racks)
                .map(|r| topology.rack_nodes(r).len() as u32)
                .collect(),
            stats: ManagerStats::default(),
            last_conservative_total: 0,
            last_rack_states: vec![PowerState::Green; racks],
            facility_thresholds,
        })
    }

    /// True on the degenerate one-rack topology (flat passthrough mode).
    pub fn is_single_rack(&self) -> bool {
        self.topology.is_single_rack()
    }

    /// The facility topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The facility-level configuration (its `p_provision_w` is the root
    /// budget delegated down the tree).
    pub fn config(&self) -> &ManagerConfig {
        &self.config
    }

    /// The facility-wide classification mirror.
    pub fn sets(&self) -> &NodeSets {
        &self.global_sets
    }

    /// The per-rack sub-managers, rack order.
    pub fn subs(&self) -> &[PowerManager] {
        &self.subs
    }

    /// The per-rack sub-managers, mutable.
    pub fn subs_mut(&mut self) -> &mut [PowerManager] {
        &mut self.subs
    }

    /// Current delegated budget per rack, watts.
    pub fn rack_budget_w(&self) -> &[f64] {
        &self.rack_budget_w
    }

    /// Current delegated budget per row, watts.
    pub fn row_budget_w(&self) -> &[f64] {
        &self.row_budget_w
    }

    /// Each rack's classified state on the most recent rolled-up cycle.
    pub fn last_rack_states(&self) -> &[PowerState] {
        &self.last_rack_states
    }

    /// Facility-level statistics. On a single-rack topology this *is* the
    /// lone sub-manager's view (flat equivalence); on a real tree it is
    /// the rolled-up facility view.
    pub fn stats(&self) -> ManagerStats {
        if self.is_single_rack() {
            self.subs[0].stats()
        } else {
            self.stats
        }
    }

    /// Facility-level thresholds: the lone rack's learned pair on a
    /// single-rack topology, the static pair derived from the facility
    /// provision on a real tree (rack learners adjust locally against
    /// their delegated budgets; the facility classifies the rollup).
    pub fn thresholds(&self) -> Thresholds {
        if self.is_single_rack() {
            self.subs[0].thresholds()
        } else {
            self.facility_thresholds
        }
    }

    /// True while rack 0's learner is still in its training period (all
    /// racks share the training schedule; they start together).
    pub fn in_training(&self) -> bool {
        self.subs[0].learner().in_training()
    }

    /// Marks `node` privileged/unprivileged in the facility mirror and in
    /// its owning rack.
    pub fn set_privileged(&mut self, node: NodeId, privileged: bool) {
        self.global_sets.set_privileged(node, privileged);
        let r = self.topology.rack_of(node);
        self.subs[r].sets_mut().set_privileged(node, privileged);
    }

    /// Routes a crash to the owning rack and maintains the rack's online
    /// weight so the next delegation pass reclaims the node's share.
    pub fn note_node_down(&mut self, node: NodeId) {
        if self.global_sets.offline().contains(node) {
            return;
        }
        self.global_sets.set_offline(node, true);
        let r = self.topology.rack_of(node);
        self.subs[r].note_node_down(node);
        self.rack_online_count[r] -= 1;
        if self.rack_online_count[r] == 0 {
            // Exactly zero: no float residue may keep a dead rack funded.
            self.rack_online_weight_w[r] = 0.0;
        } else {
            self.rack_online_weight_w[r] -= self.node_weight_w[node.0 as usize];
        }
    }

    /// Routes a reboot to the owning rack and restores its weight share.
    pub fn note_node_rejoined(&mut self, node: NodeId) {
        if !self.global_sets.offline().contains(node) {
            return;
        }
        self.global_sets.set_offline(node, false);
        let r = self.topology.rack_of(node);
        self.subs[r].note_node_rejoined(node);
        self.rack_online_count[r] += 1;
        self.rack_online_weight_w[r] += self.node_weight_w[node.0 as usize];
    }

    /// Swaps the target-selection policy on every rack.
    pub fn set_policy(&mut self, kind: PolicyKind) {
        self.config.policy = kind;
        for sub in &mut self.subs {
            sub.set_policy(kind);
        }
    }

    /// Changes the facility provision capability in place (what-if
    /// "raise/lower the cap"). The new budget is re-split weight-only
    /// down the tree and changed racks are reprovisioned; the next
    /// delegation pass resumes demand-aware headroom movement.
    pub fn reprovision(&mut self, p_provision_w: f64) -> Result<(), CoreError> {
        self.facility_thresholds = Thresholds::from_peak(
            p_provision_w,
            self.config.low_margin,
            self.config.high_margin,
        )?;
        self.config.p_provision_w = p_provision_w;
        if self.is_single_rack() {
            // The lone row and rack own the facility budget. The rack's
            // learner re-derives its pair even when the value is
            // unchanged, so it is reprovisioned unconditionally.
            self.row_budget_w[0] = p_provision_w;
            self.rack_budget_w[0] = p_provision_w;
            return self.subs[0].reprovision(p_provision_w);
        }
        let (row_budget_w, rack_budget_w) =
            split_two_stage(p_provision_w, &self.topology, &self.rack_online_weight_w);
        self.adopt_budgets(row_budget_w, rack_budget_w);
        Ok(())
    }

    /// One delegation pass: re-cut the facility budget facility → rows →
    /// racks from current online weights and rack power demands, lending
    /// surplus headroom between siblings, and reprovision the racks whose
    /// budget moved. `rack_demand_w[r]` is rack `r`'s current true power.
    ///
    /// Purely a function of manager state — the call sits on the
    /// simulator's single-threaded control path, so the budget trajectory
    /// replays exactly. On a single-rack topology this is a no-op (flat
    /// equivalence).
    pub fn delegate(&mut self, rack_demand_w: &[f64]) -> DelegationOutcome {
        debug_assert_eq!(rack_demand_w.len(), self.topology.racks());
        if self.is_single_rack() {
            return DelegationOutcome::default();
        }
        let rows = self.topology.rows();
        // Stage 1: facility → rows. A row's weight/demand is the sum over
        // its racks (dense index-order folds over contiguous rack ranges).
        let mut row_weight_w = vec![0.0f64; rows];
        let mut row_demand_w = vec![0.0f64; rows];
        for row in 0..rows {
            let racks = self.topology.row_racks(row);
            row_weight_w[row] = self.rack_online_weight_w[racks.clone()].iter().sum();
            row_demand_w[row] = rack_demand_w[racks].iter().sum();
        }
        let row_budget_w = delegate_with_headroom(
            self.config.p_provision_w,
            &row_weight_w,
            &row_demand_w,
            self.config.low_margin,
            LEND_FRACTION,
        );
        // Stage 2: each row → its racks.
        let mut rack_budget_w = vec![0.0f64; self.topology.racks()];
        for (row, &budget) in row_budget_w.iter().enumerate() {
            let racks = self.topology.row_racks(row);
            let shares = delegate_with_headroom(
                budget,
                &self.rack_online_weight_w[racks.clone()],
                &rack_demand_w[racks.clone()],
                self.config.low_margin,
                LEND_FRACTION,
            );
            rack_budget_w[racks].copy_from_slice(&shares);
        }
        debug_assert!(conserves_budget(self.config.p_provision_w, &row_budget_w));
        self.adopt_budgets(row_budget_w, rack_budget_w)
    }

    /// Installs freshly cut budgets, reprovisioning every rack whose
    /// budget moved and recording drains (funded → unfunded).
    fn adopt_budgets(
        &mut self,
        row_budget_w: Vec<f64>,
        rack_budget_w: Vec<f64>,
    ) -> DelegationOutcome {
        let mut outcome = DelegationOutcome::default();
        for (r, (&new_w, old_w)) in rack_budget_w
            .iter()
            .zip(&mut self.rack_budget_w)
            .enumerate()
        {
            if new_w.to_bits() == old_w.to_bits() {
                continue;
            }
            if new_w > 0.0 {
                let sub = &mut self.subs[r];
                // ppc-lint: allow(panic-path): new_w > 0 is exactly reprovision's precondition
                sub.reprovision(new_w).expect("positive reprovision");
                outcome.changed += 1;
            } else if *old_w > 0.0 {
                // Rack fully drained: its nodes are all offline, so its
                // sub-manager runs no meaningful cycles until a rejoin
                // refunds it. Siblings have already absorbed the share.
                outcome.drained.push(r as u32);
            }
            *old_w = new_w;
        }
        self.row_budget_w = row_budget_w;
        outcome
    }

    /// Classifies the lone rack's cycle on a single-rack topology (the
    /// flat passthrough: no delegation, no rollup; the facility stats are
    /// the rack's own): [`PowerManager::classify`] of the rack.
    pub fn single_rack_classify(
        &mut self,
        power_w: f64,
        at: SimTime,
        spans: &mut SpanRecorder,
    ) -> Classification {
        debug_assert!(self.is_single_rack(), "multi-rack cycles roll up");
        self.subs[0].classify(power_w, at, spans)
    }

    /// Runs the capping half of the lone rack's cycle classified by
    /// [`HierarchicalManager::single_rack_classify`]
    /// ([`PowerManager::cap`]) and records its state in
    /// [`HierarchicalManager::last_rack_states`].
    pub fn single_rack_cap(
        &mut self,
        classified: Classification,
        jobs: &[JobObservation],
        view: &dyn LevelView,
        coverage: f64,
        at: SimTime,
        spans: &mut SpanRecorder,
    ) -> CycleOutcome {
        let outcome = self.subs[0].cap(classified, jobs, view, coverage, at, spans);
        self.last_rack_states[0] = outcome.state;
        outcome
    }

    /// Rolls per-rack cycle outcomes (rack order) up into the facility
    /// view: worst rack state wins, commands concatenate in rack order,
    /// facility thresholds stand in for the per-rack pairs. Updates the
    /// facility statistics. Called once every rack's cycle has run.
    pub fn rollup(&mut self, outcomes: impl IntoIterator<Item = CycleOutcome>) -> CycleOutcome {
        let mut state = PowerState::Green;
        let mut commands = Vec::new();
        let mut adjusted = false;
        let mut racks = 0;
        for (outcome, last) in outcomes.into_iter().zip(&mut self.last_rack_states) {
            racks += 1;
            state = state.max(outcome.state);
            adjusted |= outcome.thresholds_adjusted;
            *last = outcome.state;
            commands.extend(outcome.commands);
        }
        debug_assert_eq!(racks, self.subs.len(), "one outcome per rack");
        self.stats.cycles += 1;
        match state {
            PowerState::Green => self.stats.green_cycles += 1,
            PowerState::Yellow => self.stats.yellow_cycles += 1,
            PowerState::Red => self.stats.red_cycles += 1,
        }
        self.stats.commands_issued += commands.len() as u64;
        self.stats.threshold_adjustments += u64::from(adjusted);
        // A facility cycle is conservative if any rack ran conservative
        // this cycle: detected as movement in the summed rack counters.
        let conservative_total: u64 = self
            .subs
            .iter()
            .map(|s| s.stats().conservative_cycles)
            .sum();
        self.stats.conservative_cycles +=
            u64::from(conservative_total > self.last_conservative_total);
        self.last_conservative_total = conservative_total;
        CycleOutcome {
            state,
            commands,
            thresholds: self.facility_thresholds,
            thresholds_adjusted: adjusted,
        }
    }
}

impl std::fmt::Debug for HierarchicalManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HierarchicalManager")
            .field("topology", &self.topology)
            .field("racks", &self.subs.len())
            .field("rack_budget_w", &self.rack_budget_w)
            .finish_non_exhaustive()
    }
}

/// Per-rack node weights, row budgets and rack budgets, watts.
type Cut = (Vec<f64>, Vec<f64>, Vec<f64>);

/// Validates a construction's config and node weights, then cuts the
/// facility budget weight-only over rows then racks; every rack must come
/// up funded.
fn construction_cut(
    config: &ManagerConfig,
    topology: &Topology,
    node_weight_w: &[f64],
) -> Result<Cut, CoreError> {
    config.validate()?;
    if node_weight_w.len() != topology.node_count() as usize {
        return Err(CoreError::InvalidConfig(format!(
            "{} node weights for a {}-node topology",
            node_weight_w.len(),
            topology.node_count()
        )));
    }
    if let Some(&w) = node_weight_w.iter().find(|&&w| !is_positive(w)) {
        return Err(CoreError::InvalidConfig(format!(
            "node weights must be positive and finite, got {w}"
        )));
    }
    // Dense index-order fold over each rack's contiguous id range.
    let rack_weight_w: Vec<f64> = (0..topology.racks())
        .map(|r| {
            let range = topology.rack_nodes(r);
            node_weight_w[range.start as usize..range.end as usize]
                .iter()
                .sum()
        })
        .collect();
    let (row_budget_w, rack_budget_w) =
        split_two_stage(config.p_provision_w, topology, &rack_weight_w);
    if let Some(r) = rack_budget_w.iter().position(|&b| !is_positive(b)) {
        return Err(CoreError::InvalidConfig(format!(
            "rack {r} starts with no delegated budget"
        )));
    }
    Ok((rack_weight_w, row_budget_w, rack_budget_w))
}

/// Weight-only two-stage cut: facility → rows → racks. Used at
/// construction and reprovision, before any demand telemetry exists.
fn split_two_stage(
    facility_w: f64,
    topology: &Topology,
    rack_weight_w: &[f64],
) -> (Vec<f64>, Vec<f64>) {
    let rows = topology.rows();
    let mut row_weight_w = vec![0.0f64; rows];
    for (row, w) in row_weight_w.iter_mut().enumerate() {
        *w = rack_weight_w[topology.row_racks(row)].iter().sum();
    }
    let row_budget_w = split_proportional(facility_w, &row_weight_w);
    let mut rack_budget_w = vec![0.0f64; topology.racks()];
    for (row, &budget) in row_budget_w.iter().enumerate() {
        let racks = topology.row_racks(row);
        let shares = split_proportional(budget, &rack_weight_w[racks.clone()]);
        rack_budget_w[racks].copy_from_slice(&shares);
    }
    (row_budget_w, rack_budget_w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capping::LevelView;
    use ppc_node::Level;

    struct FlatView(Level, Level);
    impl LevelView for FlatView {
        fn level_of(&self, _: NodeId) -> Level {
            self.0
        }
        fn highest_of(&self, _: NodeId) -> Level {
            self.1
        }
    }

    fn hier(nodes: u32, per_rack: u32, per_row: u32, provision_w: f64) -> HierarchicalManager {
        let topology = Topology::new(nodes, per_rack, per_row).unwrap();
        let config = ManagerConfig {
            training_cycles: 0,
            ..ManagerConfig::paper_defaults(provision_w, PolicyKind::Mpc)
        };
        let weights = vec![250.0; nodes as usize];
        HierarchicalManager::new(config, topology, &BTreeSet::new(), weights).unwrap()
    }

    #[test]
    fn construction_splits_budget_conservingly() {
        let h = hier(16, 4, 2, 4_000.0);
        assert_eq!(h.subs().len(), 4);
        assert!(conserves_budget(4_000.0, h.rack_budget_w()));
        assert!(conserves_budget(4_000.0, h.row_budget_w()));
        for (r, sub) in h.subs().iter().enumerate() {
            assert_eq!(sub.config().p_provision_w, h.rack_budget_w()[r]);
            assert_eq!(sub.sets().total().len(), 4);
        }
    }

    #[test]
    fn single_rack_owns_facility_budget_bitwise() {
        let h = hier(8, 8, 1, 2_345.678);
        assert!(h.is_single_rack());
        assert_eq!(h.rack_budget_w()[0].to_bits(), 2_345.678f64.to_bits());
        // Delegation never moves it.
        let mut h = h;
        let out = h.delegate(&[9_999.0]);
        assert_eq!(out, DelegationOutcome::default());
        assert_eq!(h.rack_budget_w()[0].to_bits(), 2_345.678f64.to_bits());
    }

    #[test]
    fn delegation_lends_headroom_toward_demand() {
        let mut h = hier(16, 4, 2, 4_000.0);
        let base = h.rack_budget_w().to_vec();
        // Rack 0 pressed, others idle: rack 0's budget must grow.
        let out = h.delegate(&[1_200.0, 50.0, 50.0, 50.0]);
        assert!(out.changed > 0);
        assert!(h.rack_budget_w()[0] > base[0]);
        assert!(conserves_budget(4_000.0, h.row_budget_w()));
        for row in 0..2 {
            assert!(conserves_budget(
                h.row_budget_w()[row],
                &h.rack_budget_w()[row * 2..row * 2 + 2]
            ));
        }
    }

    #[test]
    fn dead_rack_drains_and_rejoin_refunds() {
        let mut h = hier(8, 2, 2, 2_000.0);
        for n in [NodeId(2), NodeId(3)] {
            h.note_node_down(n);
        }
        assert_eq!(h.rack_online_weight_w[1].to_bits(), 0.0f64.to_bits());
        let out = h.delegate(&[400.0, 0.0, 400.0, 400.0]);
        assert_eq!(out.drained, vec![1]);
        assert!(h.rack_budget_w()[1] <= 0.0);
        assert!(conserves_budget(2_000.0, h.row_budget_w()));
        // Rejoin refunds the rack on the next pass.
        h.note_node_rejoined(NodeId(2));
        let _ = h.delegate(&[400.0, 100.0, 400.0, 400.0]);
        assert!(h.rack_budget_w()[1] > 0.0);
    }

    #[test]
    fn down_up_routing_is_idempotent() {
        let mut h = hier(8, 4, 1, 2_000.0);
        let w0 = h.rack_online_weight_w[0];
        h.note_node_down(NodeId(1));
        h.note_node_down(NodeId(1)); // duplicate edge: ignored
        assert_eq!(h.rack_online_count[0], 3);
        h.note_node_rejoined(NodeId(1));
        h.note_node_rejoined(NodeId(1));
        assert_eq!(h.rack_online_count[0], 4);
        assert!((h.rack_online_weight_w[0] - w0).abs() < 1e-9);
        assert!(!h.sets().offline().contains(NodeId(1)));
    }

    #[test]
    fn rollup_takes_worst_state_and_concatenates_commands() {
        let mut h = hier(16, 4, 2, 4_000.0);
        let view = FlatView(Level::new(9), Level::new(9));
        let mut outcomes = Vec::new();
        // Rack 0 far over its ~1000 W budget → Red; others idle → Green.
        for (r, sub) in h.subs_mut().iter_mut().enumerate() {
            let power = if r == 0 { 3_000.0 } else { 100.0 };
            let mut spans = SpanRecorder::disabled();
            outcomes.push(sub.control_cycle(power, &[], &view, 1.0, SimTime::ZERO, &mut spans));
        }
        let rolled = h.rollup(outcomes);
        assert_eq!(rolled.state, PowerState::Red);
        assert_eq!(rolled.commands.len(), 4, "rack 0 floors its 4 nodes");
        assert_eq!(h.last_rack_states()[0], PowerState::Red);
        assert_eq!(h.last_rack_states()[1], PowerState::Green);
        assert_eq!(h.stats().cycles, 1);
        assert_eq!(h.stats().red_cycles, 1);
        assert_eq!(h.stats().commands_issued, 4);
    }

    #[test]
    fn reprovision_resplits_the_tree() {
        // A real tree and the one-rack passthrough.
        for mut h in [hier(16, 4, 2, 4_000.0), hier(8, 8, 1, 4_000.0)] {
            h.reprovision(2_000.0).unwrap();
            assert_eq!(h.config().p_provision_w, 2_000.0);
            assert!(conserves_budget(2_000.0, h.row_budget_w()));
            let total: f64 = h.rack_budget_w().iter().sum();
            assert!((total - 2_000.0).abs() < 1e-9);
            for (r, sub) in h.subs().iter().enumerate() {
                assert_eq!(sub.config().p_provision_w, h.rack_budget_w()[r]);
            }
            assert!(h.reprovision(-5.0).is_err());
        }
    }

    #[test]
    fn from_racks_adopts_a_flat_manager_unchanged() {
        let config = ManagerConfig {
            training_cycles: 0,
            ..ManagerConfig::paper_defaults(1_000.0, PolicyKind::Mpc)
        };
        let sets = NodeSets::new((0..4).map(NodeId), [NodeId(1)]).with_candidate_cap(Some(2));
        let mut flat = PowerManager::new(config, sets).unwrap();
        let view = FlatView(Level::new(9), Level::new(9));
        let mut spans = SpanRecorder::disabled();
        let _ = flat.control_cycle(3_000.0, &[], &view, 1.0, SimTime::ZERO, &mut spans);
        let topology = Topology::single_rack(4).unwrap();
        let h =
            HierarchicalManager::from_racks(config, topology, vec![flat.clone()], vec![250.0; 4])
                .unwrap();
        assert_eq!(h.stats(), flat.stats());
        assert_eq!(h.sets().candidates(), flat.sets().candidates());
        assert_eq!(h.sets().privileged(), flat.sets().privileged());
        assert_eq!(h.rack_budget_w()[0].to_bits(), 1_000.0f64.to_bits());
        assert_eq!(h.row_budget_w()[0].to_bits(), 1_000.0f64.to_bits());

        // A manager over the wrong nodes or budget is refused.
        let narrow = PowerManager::new(config, NodeSets::new((0..3).map(NodeId), [])).unwrap();
        assert!(
            HierarchicalManager::from_racks(config, topology, vec![narrow], vec![250.0; 4])
                .is_err()
        );
        let other = ManagerConfig {
            p_provision_w: 900.0,
            ..config
        };
        assert!(
            HierarchicalManager::from_racks(other, topology, vec![flat], vec![250.0; 4]).is_err()
        );
    }

    #[test]
    fn privileged_routing_reaches_the_owning_rack() {
        let mut h = hier(8, 4, 1, 2_000.0);
        h.set_privileged(NodeId(5), true);
        assert!(h.sets().privileged().contains(NodeId(5)));
        assert!(h.subs()[1].sets().privileged().contains(NodeId(5)));
        assert!(!h.subs()[0].sets().privileged().contains(NodeId(5)));
        h.set_privileged(NodeId(5), false);
        assert!(!h.subs()[1].sets().privileged().contains(NodeId(5)));
    }

    #[test]
    fn bad_construction_is_rejected() {
        let topology = Topology::new(4, 2, 1).unwrap();
        let config = ManagerConfig::paper_defaults(1_000.0, PolicyKind::Mpc);
        // Wrong weight count.
        assert!(
            HierarchicalManager::new(config, topology, &BTreeSet::new(), vec![250.0; 3]).is_err()
        );
        // Privileged node outside the topology.
        let outside = BTreeSet::from([NodeId(4)]);
        assert!(HierarchicalManager::new(config, topology, &outside, vec![250.0; 4]).is_err());
        // Nonpositive weight.
        assert!(HierarchicalManager::new(
            config,
            topology,
            &BTreeSet::new(),
            vec![250.0, 250.0, 0.0, 250.0]
        )
        .is_err());
    }
}
