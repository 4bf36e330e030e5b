//! Node-set classification.
//!
//! The architecture's first move is to stop treating all nodes alike:
//!
//! * `A_total` — every node that consumes power budget;
//! * `A_uncontrollable` — privileged nodes (no DVFS facility, or running
//!   work that must not be degraded); never sensed, never throttled;
//! * `A_candidate = A_total − A_uncontrollable` — the monitored pool,
//!   possibly further capped to bound management cost (Figures 5/6 sweep
//!   this cap);
//! * `A_target ⊆ A_candidate` — chosen per cycle by the selection policy.
//!
//! `A_total` is a contiguous id range and every other set a [`NodeMask`]
//! over it, walked in ascending id order: iteration is deterministic and
//! a membership test is one word load. With first-fit scheduling, taking
//! the *lowest-indexed* `k` controllable nodes as candidates covers most
//! running work (the paper's saturation-at-48 effect).

use ppc_node::NodeId;
use std::ops::Range;

pub use ppc_node::NodeMask;

/// The architecture's node classification.
///
/// The candidate mask is kept current, so the per-cycle read path
/// ([`NodeSets::candidate_mask`], [`NodeSets::is_candidate`]) never
/// allocates. Without a cap a privilege or offline toggle moves that one
/// node; a capped set (whose lowest-indexed members shift when one
/// leaves) is rebuilt whole.
#[derive(Debug, Clone)]
pub struct NodeSets {
    /// `A_total`: every id in the range.
    total: Range<u32>,
    privileged: NodeMask,
    /// Nodes currently down (crashed, awaiting reboot). Offline nodes
    /// consume no power and accept no commands, so they leave
    /// `A_candidate` until they rejoin.
    offline: NodeMask,
    /// Optional cap on the candidate count (`None` = all controllable).
    candidate_cap: Option<usize>,
    /// `A_candidate`, sized to `total` so a toggle never grows it and a
    /// rack's mask covers its own ids only.
    candidates: NodeMask,
    /// Bumped on every candidate-set change; consumers memoizing work
    /// against the candidate set (e.g. the capping algorithm's degraded-set
    /// prune) re-run only when this moves.
    generation: u64,
}

impl NodeSets {
    /// Classifies `total` nodes with the given privileged subset.
    ///
    /// # Panics
    /// Panics if the total ids leave a gap, or a privileged node is not in
    /// the total set.
    pub fn new(
        total: impl IntoIterator<Item = NodeId>,
        privileged: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        let mut ids: Vec<u32> = total.into_iter().map(|n| n.0).collect();
        ids.sort_unstable();
        ids.dedup();
        let total = match (ids.first(), ids.last()) {
            (Some(&lo), Some(&hi)) => lo..hi + 1,
            _ => 0..0,
        };
        assert_eq!(
            total.len(),
            ids.len(),
            "the total set must be a contiguous id range"
        );
        let mut sets = NodeSets {
            privileged: NodeMask::default(),
            offline: NodeMask::default(),
            candidate_cap: None,
            candidates: NodeMask::default(),
            generation: 0,
            total,
        };
        sets.privileged.reset(sets.total.clone());
        sets.offline.reset(sets.total.clone());
        for n in privileged {
            assert!(
                sets.total.contains(&n.0),
                "privileged nodes must be part of the total set"
            );
            sets.privileged.insert(n);
        }
        sets.rebuild();
        sets
    }

    /// Recomputes the candidate mask from the other sets.
    fn rebuild(&mut self) {
        self.candidates.reset(self.total.clone());
        let cap = self.candidate_cap.unwrap_or(usize::MAX);
        for id in self.total.clone().map(NodeId) {
            if self.candidates.len() == cap {
                break;
            }
            if !self.privileged.contains(id) && !self.offline.contains(id) {
                self.candidates.insert(id);
            }
        }
        self.generation += 1;
    }

    /// Sets or clears `node`'s membership of the flag set `flags` picks
    /// (privileged or offline) and, if that changed it, brings the
    /// candidate mask up to date. Without a cap a node's membership
    /// depends on its own flags alone, so only that node moves; a capped
    /// set is rebuilt.
    fn flag(&mut self, node: NodeId, on: bool, flags: fn(&mut Self) -> &mut NodeMask) {
        assert!(self.total.contains(&node.0), "unknown node {node}");
        let set = flags(self);
        let changed = if on {
            set.insert(node)
        } else {
            set.remove(node)
        };
        if !changed {
            return;
        }
        if self.candidate_cap.is_some() {
            self.rebuild();
            return;
        }
        if self.privileged.contains(node) || self.offline.contains(node) {
            self.candidates.remove(node);
        } else {
            self.candidates.insert(node);
        }
        self.generation += 1;
    }

    /// Caps the candidate set to its lowest-indexed `cap` members (the
    /// Figure 5/6 sweep knob). `None` removes the cap.
    pub fn with_candidate_cap(mut self, cap: Option<usize>) -> Self {
        self.set_candidate_cap(cap);
        self
    }

    /// Adjusts the candidate cap in place.
    pub fn set_candidate_cap(&mut self, cap: Option<usize>) {
        self.candidate_cap = cap;
        self.rebuild();
    }

    /// Marks a node privileged (joins `A_uncontrollable`) or not. The
    /// candidate set "may vary during the execution of the system".
    ///
    /// # Panics
    /// Panics if the node is not in the total set.
    pub fn set_privileged(&mut self, node: NodeId, privileged: bool) {
        self.flag(node, privileged, |s| &mut s.privileged);
    }

    /// Marks a node offline (down) or back online. Offline nodes leave
    /// `A_candidate` immediately and a rejoining node re-enters at once
    /// (membership churn under faults).
    ///
    /// # Panics
    /// Panics if the node is not in the total set.
    pub fn set_offline(&mut self, node: NodeId, offline: bool) {
        self.flag(node, offline, |s| &mut s.offline);
    }

    /// The cap on the candidate count (`None` = all controllable).
    pub fn candidate_cap(&self) -> Option<usize> {
        self.candidate_cap
    }

    /// Nodes currently offline.
    pub fn offline(&self) -> &NodeMask {
        &self.offline
    }

    /// `A_total`: the node ids in this range.
    pub fn total(&self) -> Range<u32> {
        self.total.clone()
    }

    /// `A_uncontrollable`.
    pub fn privileged(&self) -> &NodeMask {
        &self.privileged
    }

    /// `A_candidate = A_total − A_uncontrollable`, truncated to the cap,
    /// in ascending id order. Allocates; the per-tick paths read
    /// [`NodeSets::candidate_mask`] instead.
    pub fn candidates(&self) -> Vec<NodeId> {
        self.candidates.iter().collect()
    }

    /// Number of candidates.
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// True if `node` is currently a candidate — a single word load.
    pub fn is_candidate(&self, node: NodeId) -> bool {
        self.candidates.contains(node)
    }

    /// The candidates as a bitmask, the filter the per-tick observation
    /// paths test members against.
    pub fn candidate_mask(&self) -> &NodeMask {
        &self.candidates
    }

    /// The candidate-set generation: bumped on every effective privilege,
    /// offline or cap change. Equal generations guarantee an identical
    /// candidate set, so memoized per-set work can be skipped.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn ids(v: impl IntoIterator<Item = u32>) -> Vec<NodeId> {
        v.into_iter().map(NodeId).collect()
    }

    #[test]
    fn candidate_is_total_minus_privileged() {
        let s = NodeSets::new(ids(0..8), ids([1, 3]));
        let cand = s.candidates();
        assert_eq!(cand.len(), 6);
        assert!(!cand.contains(&NodeId(1)));
        assert!(!cand.contains(&NodeId(3)));
        assert!(s.is_candidate(NodeId(0)));
        assert!(!s.is_candidate(NodeId(3)));
        assert_eq!(s.candidate_count(), 6);
    }

    #[test]
    fn cap_takes_lowest_indices() {
        let s = NodeSets::new(ids(0..10), ids([0])).with_candidate_cap(Some(3));
        assert_eq!(s.candidates(), ids([1, 2, 3]));
        assert_eq!(s.candidate_count(), 3);
        assert!(!s.is_candidate(NodeId(4)));
    }

    #[test]
    fn cap_larger_than_pool_is_harmless() {
        let s = NodeSets::new(ids(0..4), ids([])).with_candidate_cap(Some(100));
        assert_eq!(s.candidate_count(), 4);
    }

    #[test]
    fn zero_cap_disables_management() {
        let s = NodeSets::new(ids(0..4), ids([])).with_candidate_cap(Some(0));
        assert!(s.candidates().is_empty());
        assert_eq!(s.candidate_count(), 0);
    }

    #[test]
    fn privilege_can_change_at_runtime() {
        let mut s = NodeSets::new(ids(0..4), ids([]));
        assert_eq!(s.candidate_count(), 4);
        s.set_privileged(NodeId(2), true);
        assert_eq!(s.candidate_count(), 3);
        s.set_privileged(NodeId(2), false);
        assert_eq!(s.candidate_count(), 4);
    }

    #[test]
    #[should_panic(expected = "part of the total set")]
    fn foreign_privileged_node_rejected() {
        NodeSets::new(ids(0..4), ids([9]));
    }

    #[test]
    fn offline_nodes_leave_and_rejoin_the_candidate_pool() {
        let mut s = NodeSets::new(ids(0..6), ids([0]));
        assert_eq!(s.candidate_count(), 5);
        s.set_offline(NodeId(2), true);
        s.set_offline(NodeId(3), true);
        assert_eq!(s.candidate_count(), 3);
        assert!(!s.is_candidate(NodeId(2)));
        assert_eq!(s.offline().len(), 2);
        // Redundant marking is a no-op.
        s.set_offline(NodeId(2), true);
        assert_eq!(s.candidate_count(), 3);
        // Rejoin restores membership.
        s.set_offline(NodeId(2), false);
        assert!(s.is_candidate(NodeId(2)));
        assert_eq!(s.candidate_count(), 4);
    }

    #[test]
    fn offline_interacts_with_the_cap_by_backfilling() {
        // Cap 2 takes the lowest controllable online nodes; when one goes
        // offline the next-lowest node backfills the capped set.
        let mut s = NodeSets::new(ids(0..5), ids([])).with_candidate_cap(Some(2));
        assert_eq!(s.candidates(), ids([0, 1]));
        s.set_offline(NodeId(0), true);
        assert_eq!(s.candidates(), ids([1, 2]));
        s.set_offline(NodeId(0), false);
        assert_eq!(s.candidates(), ids([0, 1]));
    }

    #[test]
    #[should_panic(expected = "contiguous id range")]
    fn total_with_a_gap_rejected() {
        NodeSets::new(ids([0, 1, 3]), ids([]));
    }

    proptest! {
        /// Toggles leave the sets where a plain ordered-set model puts
        /// them (ids − privileged − offline, truncated to the lowest
        /// `cap`), capped or not, for id ranges at word 0 and past it, and
        /// bump the generation once per effective change. A cap no set
        /// reaches rebuilds on every toggle, so the rebuild path must
        /// match the uncapped model too.
        #[test]
        fn prop_toggles_match_a_fresh_rebuild(
            (base, total, cap, toggles) in (0usize..3, 1u32..150, proptest::option::of(0usize..160))
                .prop_flat_map(|(base, total, cap)| {
                    let base = [0, 64, 102_272][base];
                    let toggle = (0..total, any::<bool>(), any::<bool>());
                    (Just(base), Just(total), Just(cap), proptest::collection::vec(toggle, 0..60))
                }),
        ) {
            let range = base..base + total;
            let mut sets = NodeSets::new(ids(range.clone()), []).with_candidate_cap(cap);
            let mut rebuilt = NodeSets::new(ids(range.clone()), []).with_candidate_cap(Some(usize::MAX));
            let (g0, r0) = (sets.generation(), rebuilt.generation());
            let (mut privileged, mut offline) = (BTreeSet::new(), BTreeSet::new());
            let mut effective = 0u64;
            // Each toggle sets or clears node `base + n`'s privileged flag
            // (`is_privileged`) or its offline flag.
            for (n, is_privileged, on) in toggles {
                let id = NodeId(base + n);
                let model = if is_privileged {
                    sets.set_privileged(id, on);
                    rebuilt.set_privileged(id, on);
                    &mut privileged
                } else {
                    sets.set_offline(id, on);
                    rebuilt.set_offline(id, on);
                    &mut offline
                };
                let changed = if on { model.insert(id.0) } else { model.remove(&id.0) };
                effective += u64::from(changed);
            }
            let all: Vec<NodeId> = range
                .clone()
                .filter(|n| !privileged.contains(n) && !offline.contains(n))
                .map(NodeId)
                .collect();
            let want = &all[..all.len().min(cap.unwrap_or(usize::MAX))];
            prop_assert_eq!(sets.candidates(), want);
            prop_assert_eq!(sets.candidate_count(), want.len());
            prop_assert_eq!(rebuilt.candidates(), all);
            for n in base.saturating_sub(70)..base + total + 70 {
                let id = NodeId(n);
                prop_assert_eq!(sets.is_candidate(id), want.contains(&id));
                prop_assert_eq!(sets.privileged().contains(id), privileged.contains(&n));
                prop_assert_eq!(sets.offline().contains(id), offline.contains(&n));
            }
            prop_assert_eq!(sets.generation() - g0, effective);
            prop_assert_eq!(rebuilt.generation() - r0, effective);
            // The masks cover the range's own words, not ids 0.. up to it.
            prop_assert_eq!(sets.candidate_mask().span(), base / 64 * 64..(base + total).div_ceil(64) * 64);
        }

        /// Candidates are always a subset of total, disjoint from
        /// privileged, and respect the cap.
        #[test]
        fn prop_set_algebra(total in 1u32..64, npriv in 0u32..32, cap in proptest::option::of(0usize..70)) {
            let privileged: Vec<NodeId> = (0..npriv.min(total)).map(|i| NodeId(i * 2 % total)).collect();
            let s = NodeSets::new((0..total).map(NodeId), privileged.clone())
                .with_candidate_cap(cap);
            let cand = s.candidates();
            prop_assert!(cand.iter().all(|n| s.total().contains(&n.0) && !s.privileged().contains(*n)));
            if let Some(c) = cap {
                prop_assert!(cand.len() <= c);
            }
            prop_assert_eq!(cand.len(), s.candidate_count());
        }
    }
}
