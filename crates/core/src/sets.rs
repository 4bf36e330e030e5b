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
//! `BTreeSet` keeps iteration order deterministic; with first-fit
//! scheduling, taking the *lowest-indexed* `k` controllable nodes as
//! candidates covers most running work (the paper's saturation-at-48
//! effect). Per-member membership tests on hot paths go through a dense
//! [`NodeMask`] instead.

use ppc_node::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::ops::Range;

/// A dense set of node ids: one bit per id, 64 ids to a `u64` word, plus
/// a member count.
///
/// The words cover one span of ids, starting at word `first`: a rack's
/// mask holds the rack's own ids only, whatever their offset in the
/// fleet. Membership is one word load and a rack's share of the set
/// (node ids are contiguous per rack, see [`crate::Topology`]) is a
/// popcount over the words its id range spans, so a per-tick set can be
/// reset and refilled in place instead of being rebuilt as a tree.
#[derive(Debug, Clone, Default)]
pub struct NodeMask {
    /// Word index (id / 64) of `words[0]`.
    first: usize,
    words: Vec<u64>,
    len: usize,
}

/// The word index and bit of `node` in a [`NodeMask`].
fn word_bit(node: NodeId) -> (usize, u64) {
    (node.0 as usize / 64, 1u64 << (node.0 % 64))
}

impl NodeMask {
    /// Removes every member and sizes the mask for the ids in `ids`,
    /// reusing its words. Ids outside still insert; the mask grows to fit.
    pub fn reset(&mut self, ids: Range<u32>) {
        self.first = ids.start as usize / 64;
        self.words.clear();
        self.words.resize(
            (ids.end as usize).div_ceil(64).saturating_sub(self.first),
            0,
        );
        self.len = 0;
    }

    /// The word holding absolute word index `w` (0 outside the span).
    fn word(&self, w: usize) -> u64 {
        w.checked_sub(self.first)
            .and_then(|i| self.words.get(i))
            .copied()
            .unwrap_or(0)
    }

    /// Adds `node`; true if it was not already a member.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let (w, bit) = word_bit(node);
        if w < self.first {
            let grow = self.first - w;
            self.words.splice(0..0, std::iter::repeat_n(0, grow));
            self.first = w;
        }
        let i = w - self.first;
        if i >= self.words.len() {
            self.words.resize(i + 1, 0);
        }
        let added = self.words[i] & bit == 0;
        self.words[i] |= bit;
        self.len += usize::from(added);
        added
    }

    /// Removes `node`; true if it was a member.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let (w, bit) = word_bit(node);
        let Some(word) = w
            .checked_sub(self.first)
            .and_then(|i| self.words.get_mut(i))
        else {
            return false;
        };
        let removed = *word & bit != 0;
        *word &= !bit;
        self.len -= usize::from(removed);
        removed
    }

    /// True if `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        let (w, bit) = word_bit(node);
        self.word(w) & bit != 0
    }

    /// Removes every member, keeping the span and its words.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// The ids the mask's words cover: whole words, from the first id of
    /// its first word to one past the last id of its last. `reset` with
    /// this range gives another mask the same words.
    pub fn span(&self) -> Range<u32> {
        let id = |w: usize| u32::try_from(w * 64).unwrap_or(u32::MAX);
        id(self.first)..id(self.first + self.words.len())
    }

    /// Members in ascending id order.
    pub fn iter(&self) -> MaskIter<'_> {
        let (word, words) = self
            .words
            .split_first()
            .map_or((0, &[][..]), |(&w, rest)| (w, rest));
        MaskIter {
            words,
            word,
            base: self.first * 64,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the mask has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Members with ids in `range`: a popcount over the words it spans,
    /// the two edge words masked to the range.
    pub fn count_in(&self, range: Range<u32>) -> usize {
        let start = (range.start as usize).max(self.first * 64);
        let end = (range.end as usize).min((self.first + self.words.len()) * 64);
        if start >= end {
            return 0;
        }
        let (first, last) = (start / 64 - self.first, (end - 1) / 64 - self.first);
        let head = !0u64 << (start % 64);
        let tail = !0u64 >> (63 - (end - 1) % 64);
        if first == last {
            return (self.words[first] & head & tail).count_ones() as usize;
        }
        let inner: u32 = self.words[first + 1..last]
            .iter()
            .map(|w| w.count_ones())
            .sum();
        (inner + (self.words[first] & head).count_ones() + (self.words[last] & tail).count_ones())
            as usize
    }
}

/// The members of a [`NodeMask`] in ascending id order
/// ([`NodeMask::iter`]): each word's set bits, lowest first.
#[derive(Debug, Clone)]
pub struct MaskIter<'a> {
    /// The words after the current one.
    words: &'a [u64],
    /// The current word's members not yet yielded.
    word: u64,
    /// The id of the current word's bit 0.
    base: usize,
}

impl Iterator for MaskIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.word == 0 {
            let (&next, rest) = self.words.split_first()?;
            self.words = rest;
            self.word = next;
            self.base += 64;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(NodeId((self.base + bit) as u32))
    }
}

/// Two masks are equal when they hold the same members, however many
/// words each was sized to and wherever its span starts.
impl PartialEq for NodeMask {
    fn eq(&self, other: &Self) -> bool {
        let lo = self.first.min(other.first);
        let hi = (self.first + self.words.len()).max(other.first + other.words.len());
        self.len == other.len && (lo..hi).all(|w| self.word(w) == other.word(w))
    }
}

impl Eq for NodeMask {}

impl crate::observe::CandidateFilter for NodeMask {
    fn admits(&self, node: NodeId) -> bool {
        self.contains(node)
    }
}

/// The architecture's node classification.
///
/// The candidate set is cached, so the per-cycle read path
/// ([`NodeSets::candidates`], [`NodeSets::is_candidate`]) never
/// allocates. Without a cap a privilege or offline toggle updates the
/// cache for that one node; a capped set (whose lowest-indexed members
/// shift when one leaves) and a deserialized one are rebuilt whole.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(from = "NodeSetsWire")]
pub struct NodeSets {
    total: BTreeSet<NodeId>,
    privileged: BTreeSet<NodeId>,
    /// Dense bitmask mirror of `candidates`, for O(1) membership tests on
    /// the per-tick hot path (one word load instead of a tree descent).
    #[serde(skip)]
    candidate_mask: NodeMask,
    /// Bumped on every candidate-set change; consumers memoizing work
    /// against the candidate set (e.g. the capping algorithm's degraded-set
    /// prune) re-run only when this moves.
    #[serde(skip)]
    generation: u64,
    /// Nodes currently down (crashed, awaiting reboot). Offline nodes
    /// consume no power and accept no commands, so they leave
    /// `A_candidate` until they rejoin.
    offline: BTreeSet<NodeId>,
    /// Optional cap on the candidate count (`None` = all controllable).
    candidate_cap: Option<usize>,
    /// Cached `A_candidate` (derived; excluded from the wire format).
    #[serde(skip)]
    candidates: BTreeSet<NodeId>,
}

/// Wire shape of [`NodeSets`]: the source fields only; the candidate
/// cache is rebuilt on deserialization.
#[derive(Deserialize)]
struct NodeSetsWire {
    total: BTreeSet<NodeId>,
    privileged: BTreeSet<NodeId>,
    offline: BTreeSet<NodeId>,
    candidate_cap: Option<usize>,
}

impl From<NodeSetsWire> for NodeSets {
    fn from(wire: NodeSetsWire) -> Self {
        let mut sets = NodeSets {
            total: wire.total,
            privileged: wire.privileged,
            offline: wire.offline,
            candidate_cap: wire.candidate_cap,
            candidates: BTreeSet::new(),
            candidate_mask: NodeMask::default(),
            generation: 0,
        };
        sets.rebuild();
        sets
    }
}

impl NodeSets {
    /// Classifies `total` nodes with the given privileged subset.
    ///
    /// # Panics
    /// Panics if a privileged node is not in the total set.
    pub fn new(
        total: impl IntoIterator<Item = NodeId>,
        privileged: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        let total: BTreeSet<NodeId> = total.into_iter().collect();
        let privileged: BTreeSet<NodeId> = privileged.into_iter().collect();
        assert!(
            privileged.is_subset(&total),
            "privileged nodes must be part of the total set"
        );
        let mut sets = NodeSets {
            total,
            privileged,
            offline: BTreeSet::new(),
            candidate_cap: None,
            candidates: BTreeSet::new(),
            candidate_mask: NodeMask::default(),
            generation: 0,
        };
        sets.rebuild();
        sets
    }

    /// Recomputes the cached candidate set from the source fields.
    fn rebuild(&mut self) {
        let it = self
            .total
            .difference(&self.privileged)
            .filter(|n| !self.offline.contains(n))
            .copied();
        self.candidates = match self.candidate_cap {
            Some(cap) => it.take(cap).collect(),
            None => it.collect(),
        };
        // Sized to the span of the node set, so a later in-place toggle
        // never grows it and a rack's mask covers its own ids only.
        let span = match (self.total.first(), self.total.last()) {
            (Some(lo), Some(hi)) => lo.0..hi.0 + 1,
            _ => 0..0,
        };
        self.candidate_mask.reset(span);
        for &n in &self.candidates {
            self.candidate_mask.insert(n);
        }
        self.generation += 1;
    }

    /// Brings the cache up to date after `node`'s privilege or offline
    /// flag changed. Without a cap a node's membership depends on its own
    /// flags alone, so only that node moves; a capped set is rebuilt.
    fn toggled(&mut self, node: NodeId) {
        if self.candidate_cap.is_some() {
            self.rebuild();
            return;
        }
        if self.privileged.contains(&node) || self.offline.contains(&node) {
            self.candidates.remove(&node);
            self.candidate_mask.remove(node);
        } else {
            self.candidates.insert(node);
            self.candidate_mask.insert(node);
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
        assert!(self.total.contains(&node), "unknown node {node}");
        let changed = if privileged {
            self.privileged.insert(node)
        } else {
            self.privileged.remove(&node)
        };
        if changed {
            self.toggled(node);
        }
    }

    /// Marks a node offline (down) or back online. Offline nodes leave
    /// `A_candidate` immediately and a rejoining node re-enters at once
    /// (membership churn under faults).
    ///
    /// # Panics
    /// Panics if the node is not in the total set.
    pub fn set_offline(&mut self, node: NodeId, offline: bool) {
        assert!(self.total.contains(&node), "unknown node {node}");
        let changed = if offline {
            self.offline.insert(node)
        } else {
            self.offline.remove(&node)
        };
        if changed {
            self.toggled(node);
        }
    }

    /// The cap on the candidate count (`None` = all controllable).
    pub fn candidate_cap(&self) -> Option<usize> {
        self.candidate_cap
    }

    /// Nodes currently offline.
    pub fn offline(&self) -> &BTreeSet<NodeId> {
        &self.offline
    }

    /// `A_total`.
    pub fn total(&self) -> &BTreeSet<NodeId> {
        &self.total
    }

    /// `A_uncontrollable`.
    pub fn privileged(&self) -> &BTreeSet<NodeId> {
        &self.privileged
    }

    /// `A_candidate = A_total − A_uncontrollable`, truncated to the cap.
    /// Borrowed from the cache — no per-call allocation.
    pub fn candidates(&self) -> &BTreeSet<NodeId> {
        &self.candidates
    }

    /// Number of candidates.
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// True if `node` is currently a candidate — a single word load
    /// against the dense bitmask, for per-member tests on hot paths.
    pub fn is_candidate(&self, node: NodeId) -> bool {
        self.candidate_mask.contains(node)
    }

    /// The candidates as a dense bitmask, the filter the per-tick
    /// observation paths test members against.
    pub fn candidate_mask(&self) -> &NodeMask {
        &self.candidate_mask
    }

    /// The candidate-set generation: bumped on every effective privilege,
    /// offline or cap change. Equal generations guarantee an identical
    /// candidate set, so memoized per-set work can be skipped.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

impl crate::observe::CandidateFilter for NodeSets {
    fn admits(&self, node: NodeId) -> bool {
        self.is_candidate(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(v: impl IntoIterator<Item = u32>) -> Vec<NodeId> {
        v.into_iter().map(NodeId).collect()
    }

    fn mask(v: impl IntoIterator<Item = u32>) -> NodeMask {
        let mut m = NodeMask::default();
        for n in v {
            m.insert(NodeId(n));
        }
        m
    }

    #[test]
    fn masks_compare_by_members_not_size() {
        let mut sized = NodeMask::default();
        sized.reset(0..256);
        sized.insert(NodeId(3));
        assert_eq!(sized, mask([3]));
        assert_ne!(sized, mask([3, 200]));
        sized.insert(NodeId(200));
        assert_eq!(mask([3, 200]), sized);
        assert_ne!(mask([]), mask([0]));
        assert_eq!(NodeMask::default(), mask([]));
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
        let cand: Vec<NodeId> = s.candidates().iter().copied().collect();
        assert_eq!(cand, ids([1, 2, 3]));
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
        assert_eq!(
            s.candidates().iter().copied().collect::<Vec<_>>(),
            ids([0, 1])
        );
        s.set_offline(NodeId(0), true);
        assert_eq!(
            s.candidates().iter().copied().collect::<Vec<_>>(),
            ids([1, 2])
        );
        s.set_offline(NodeId(0), false);
        assert_eq!(
            s.candidates().iter().copied().collect::<Vec<_>>(),
            ids([0, 1])
        );
    }

    #[test]
    fn mask_counts_members_and_ignores_repeats() {
        let mut m = NodeMask::default();
        m.reset(0..100);
        assert!(m.is_empty());
        assert!(m.insert(NodeId(3)));
        assert!(!m.insert(NodeId(3)));
        assert!(m.insert(NodeId(64)));
        assert!(m.insert(NodeId(300)), "ids past the capacity grow the mask");
        assert_eq!(m.len(), 3);
        assert!(m.contains(NodeId(300)) && !m.contains(NodeId(4)));
        assert!(m.remove(NodeId(3)));
        assert!(!m.remove(NodeId(3)));
        assert!(!m.remove(NodeId(10_000)));
        assert_eq!(m.len(), 2);
        m.reset(0..100);
        assert!(m.is_empty() && !m.contains(NodeId(64)));
        assert!(
            !m.contains(NodeId(300)),
            "a reset drops words past its size"
        );
    }

    #[test]
    fn masks_span_their_own_ids() {
        let mut m = NodeMask::default();
        m.reset(1_280..1_408);
        assert_eq!(m.words.len(), 2, "two words for 128 ids at any offset");
        assert!(m.insert(NodeId(1_300)));
        assert!(m.contains(NodeId(1_300)) && !m.contains(NodeId(44)));
        assert!(!m.remove(NodeId(44)), "ids below the span are absent");
        assert!(m.insert(NodeId(44)), "ids below the span grow the mask");
        assert!(m.insert(NodeId(5_000)), "so do ids above it");
        assert_eq!(m, mask([44, 1_300, 5_000]));
        assert_eq!(m.count_in(0..1_300), 1);
        assert_eq!(m.count_in(45..10_000), 2);
        assert_eq!(m.len(), 3);

        // A rack's candidate mask covers the rack, not ids 0.. up to it.
        let rack = NodeSets::new(ids(102_272..102_400), ids([]));
        assert_eq!(rack.candidate_mask.words.len(), 2);
        assert!(rack.is_candidate(NodeId(102_399)) && !rack.is_candidate(NodeId(0)));
    }

    #[test]
    fn mask_range_count_edges() {
        let m = mask([0, 63, 64, 127, 128, 200]);
        assert_eq!(m.count_in(0..1), 1);
        assert_eq!(m.count_in(63..64), 1);
        assert_eq!(m.count_in(63..65), 2);
        assert_eq!(m.count_in(1..63), 0);
        assert_eq!(m.count_in(0..129), 5);
        assert_eq!(m.count_in(64..128), 2);
        assert_eq!(m.count_in(129..200), 0);
        assert_eq!(m.count_in(0..10_000), 6, "a range past the words clamps");
        assert_eq!(m.count_in(5_000..10_000), 0);
        assert_eq!(m.count_in(7..7), 0);
    }

    #[test]
    fn mask_iterates_the_word_edges_in_order() {
        let n = 200;
        let mut m = NodeMask::default();
        m.reset(0..n);
        for id in [n - 1, 64, 0, 63, 127, 128] {
            m.insert(NodeId(id));
        }
        let got: Vec<u32> = m.iter().map(|id| id.0).collect();
        assert_eq!(got, [0, 63, 64, 127, 128, n - 1]);
        assert_eq!(m.span(), 0..256);
        m.clear();
        assert!(m.is_empty() && m.iter().next().is_none());
        assert_eq!(m.span(), 0..256, "clear keeps the words");
        assert!(!m.contains(NodeId(63)));

        // A mask reset to a rack far into the fleet spans two words, not
        // 1 600; one never sized grows from id 0.
        let mut rack = NodeMask::default();
        rack.reset(102_272..102_400);
        rack.insert(NodeId(102_399));
        assert_eq!(rack.span(), 102_272..102_400);
        assert_eq!(mask([102_399]).span(), 0..102_400);
        assert_eq!(NodeMask::default().span(), 0..0);
        assert_eq!(NodeMask::default().iter().count(), 0);
    }

    /// The ids a mask's words must cover: the words of the `reset` range
    /// (from word 0 when never sized), widened to the words of the
    /// members.
    fn covering_words(reset: Option<(u32, u32)>, members: &BTreeSet<NodeId>) -> Range<u32> {
        let (mut lo, mut hi) =
            reset.map_or((0, 0), |(lo, hi)| (lo / 64, hi.div_ceil(64).max(lo / 64)));
        if let (Some(first), Some(last)) = (members.first(), members.last()) {
            lo = lo.min(first.0 / 64);
            hi = hi.max(last.0 / 64 + 1);
        }
        lo * 64..hi * 64
    }

    /// One privilege or offline flip, applied to the sets and to the model.
    #[derive(Debug, Clone, Copy)]
    enum Toggle {
        Privileged(u32, bool),
        Offline(u32, bool),
    }

    fn arb_toggle(total: u32) -> impl Strategy<Value = Toggle> {
        (0..total, any::<bool>(), any::<bool>()).prop_map(|(n, privileged, on)| {
            if privileged {
                Toggle::Privileged(n, on)
            } else {
                Toggle::Offline(n, on)
            }
        })
    }

    proptest! {
        /// The popcount range count equals an ordered-set range count on
        /// random masks, over ranges that start and end anywhere in a word
        /// (single-node and empty ranges included), whatever span the mask
        /// was sized to.
        #[test]
        fn prop_mask_range_count_matches_btreeset(
            members in proptest::collection::vec(0u32..600, 0..300),
            ranges in proptest::collection::vec((0u32..700, 0u32..70), 1..40),
            span in (0u32..600, 0u32..300),
        ) {
            let set: BTreeSet<NodeId> = members.iter().copied().map(NodeId).collect();
            let m = mask(members.iter().copied());
            prop_assert_eq!(m.len(), set.len());
            // The same members inserted into a mask sized to another span.
            let mut offset = NodeMask::default();
            offset.reset(span.0..span.0 + span.1);
            for &n in &members {
                offset.insert(NodeId(n));
            }
            prop_assert_eq!(&offset, &m);
            for (start, width) in ranges {
                let want = set.range(NodeId(start)..NodeId(start + width)).count();
                prop_assert_eq!(m.count_in(start..start + width), want);
                prop_assert_eq!(offset.count_in(start..start + width), want);
                let single = set.contains(&NodeId(start)) as usize;
                prop_assert_eq!(m.count_in(start..start + 1), single);
            }
        }

        /// `iter`, `span` and `clear` agree with an ordered set, for masks
        /// grown from nothing (down as well as up) and masks sized to a
        /// span that need not start at 0, with members at a word's last
        /// and first ids and at the span's last id.
        #[test]
        fn prop_mask_iter_span_clear_match_btreeset(
            base in 0usize..4,
            members in proptest::collection::vec(0u32..300, 0..120),
            sized in any::<bool>(),
            span in (0u32..300, 0u32..300),
        ) {
            let base = [0, 64, 1_000, 102_272][base];
            let mut ids: Vec<u32> = members.iter().map(|m| base + m).collect();
            if sized {
                let n = span.0 + span.1;
                ids.extend([63, 64, n.saturating_sub(1)].map(|i| base + i).into_iter().filter(|&i| i < base + n));
            }
            let set: BTreeSet<NodeId> = ids.iter().copied().map(NodeId).collect();
            let reset = sized.then_some((base + span.0, base + span.0 + span.1));
            let mut m = NodeMask::default();
            if let Some((lo, hi)) = reset {
                m.reset(lo..hi);
            }
            for &id in &ids {
                m.insert(NodeId(id));
            }
            let walked: Vec<NodeId> = m.iter().collect();
            let want: Vec<NodeId> = set.iter().copied().collect();
            prop_assert_eq!(&walked, &want);
            prop_assert_eq!(m.len(), set.len());
            prop_assert_eq!(m.span(), covering_words(reset, &set));
            prop_assert!(set.iter().all(|n| m.span().contains(&n.0)));
            // Another mask reset to this span holds the same words.
            let mut copy = NodeMask::default();
            copy.reset(m.span());
            for &n in &set {
                copy.insert(n);
            }
            prop_assert_eq!(copy.span(), m.span());
            prop_assert_eq!(&copy, &m);
            let before = m.span();
            m.clear();
            prop_assert!(m.is_empty() && m.iter().next().is_none());
            prop_assert_eq!(m.span(), before);
            prop_assert!(set.iter().all(|&n| !m.contains(n)));
            for &n in &set {
                m.insert(n);
            }
            prop_assert_eq!(m.iter().collect::<Vec<_>>(), want);
            prop_assert_eq!(m.span(), before, "refilling inside the span never grows it");
        }

        /// In-place toggles leave the uncapped sets exactly where a fresh
        /// rebuild from the same flags puts them, and bump the generation
        /// once per effective change, as the rebuild path does.
        #[test]
        fn prop_toggles_match_a_fresh_rebuild(
            (total, toggles) in (1u32..150).prop_flat_map(|total| {
                (Just(total), proptest::collection::vec(arb_toggle(total), 0..60))
            }),
        ) {
            let mut sets = NodeSets::new(ids(0..total), []);
            // The capped path rebuilds on every toggle; a cap no set
            // reaches keeps its members equal to the uncapped set's.
            let mut rebuilt = NodeSets::new(ids(0..total), []).with_candidate_cap(Some(usize::MAX));
            let (g0, r0) = (sets.generation(), rebuilt.generation());
            let (mut privileged, mut offline) = (BTreeSet::new(), BTreeSet::new());
            let mut effective = 0u64;
            for t in toggles {
                let changed = match t {
                    Toggle::Privileged(n, on) => {
                        sets.set_privileged(NodeId(n), on);
                        rebuilt.set_privileged(NodeId(n), on);
                        if on { privileged.insert(n) } else { privileged.remove(&n) }
                    }
                    Toggle::Offline(n, on) => {
                        sets.set_offline(NodeId(n), on);
                        rebuilt.set_offline(NodeId(n), on);
                        if on { offline.insert(n) } else { offline.remove(&n) }
                    }
                };
                effective += u64::from(changed);
            }
            let mut fresh = NodeSets::new(ids(0..total), privileged.iter().copied().map(NodeId));
            for &n in &offline {
                fresh.offline.insert(NodeId(n));
            }
            fresh.rebuild();
            prop_assert_eq!(sets.candidates(), fresh.candidates());
            prop_assert_eq!(rebuilt.candidates(), fresh.candidates());
            prop_assert_eq!(sets.candidate_count(), fresh.candidate_count());
            for n in 0..total + 70 {
                prop_assert_eq!(sets.is_candidate(NodeId(n)), fresh.is_candidate(NodeId(n)));
            }
            prop_assert_eq!(sets.generation() - g0, effective);
            prop_assert_eq!(rebuilt.generation() - r0, effective);
        }

        /// Candidates are always a subset of total, disjoint from
        /// privileged, and respect the cap.
        #[test]
        fn prop_set_algebra(total in 1u32..64, npriv in 0u32..32, cap in proptest::option::of(0usize..70)) {
            let privileged: Vec<NodeId> = (0..npriv.min(total)).map(|i| NodeId(i * 2 % total)).collect();
            let s = NodeSets::new((0..total).map(NodeId), privileged.clone())
                .with_candidate_cap(cap);
            let cand = s.candidates();
            prop_assert!(cand.is_subset(s.total()));
            prop_assert!(cand.is_disjoint(s.privileged()));
            if let Some(c) = cap {
                prop_assert!(cand.len() <= c);
            }
            prop_assert_eq!(cand.len(), s.candidate_count());
        }
    }
}
