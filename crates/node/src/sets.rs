//! Node sets.
//!
//! Every set of node ids the control plane, the scheduler and the
//! simulator hold (the architecture's `A_uncontrollable` and
//! `A_candidate`, Algorithm 1's `A_degraded`, the free and down nodes) is
//! a [`NodeMask`]: a bitmask over the ids, walked in ascending id order.

use crate::NodeId;
use std::ops::Range;

/// A dense set of node ids: one bit per id, 64 ids to a `u64` word, plus
/// a member count.
///
/// The words cover one span of ids, starting at word `first`: a rack's
/// mask holds the rack's own ids only, whatever their offset in the
/// fleet. Membership is one word load, a contiguous id range's share of
/// the set (a rack's, say) is a popcount over the words the range spans,
/// and a per-tick set is reset and refilled in place, reusing its words.
/// The per-member operations are `#[inline]`, with an `insert` that must
/// grow the words kept off the inlined path: the simulator's dirty set
/// calls them from another crate for every dirty node of every tick.
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
    #[inline]
    fn word(&self, w: usize) -> u64 {
        w.checked_sub(self.first)
            .and_then(|i| self.words.get(i))
            .copied()
            .unwrap_or(0)
    }

    /// Adds `node`; true if it was not already a member.
    #[inline]
    pub fn insert(&mut self, node: NodeId) -> bool {
        let (w, bit) = word_bit(node);
        let i = match w.checked_sub(self.first) {
            Some(i) if i < self.words.len() => i,
            _ => self.grow_to(w),
        };
        let added = self.words[i] & bit == 0;
        self.words[i] |= bit;
        self.len += usize::from(added);
        added
    }

    /// Grows the words to cover absolute word index `w`, which they do
    /// not yet; returns its index into `words`.
    #[cold]
    fn grow_to(&mut self, w: usize) -> usize {
        if w < self.first {
            let grow = self.first - w;
            self.words.splice(0..0, std::iter::repeat_n(0, grow));
            self.first = w;
        }
        let i = w - self.first;
        if i >= self.words.len() {
            self.words.resize(i + 1, 0);
        }
        i
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
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        let (w, bit) = word_bit(node);
        self.word(w) & bit != 0
    }

    /// Removes every member, keeping the span and its words.
    #[inline]
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
    #[inline]
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
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the mask has no members.
    #[inline]
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

    #[inline]
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

/// A mask grown from id 0 to fit the collected ids.
impl FromIterator<NodeId> for NodeMask {
    fn from_iter<I: IntoIterator<Item = NodeId>>(ids: I) -> Self {
        let mut mask = NodeMask::default();
        for id in ids {
            mask.insert(id);
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn mask(v: impl IntoIterator<Item = u32>) -> NodeMask {
        v.into_iter().map(NodeId).collect()
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
    }
}
