//! Struct-of-arrays node columns and the deterministic dirty set.
//!
//! The tick loop's hot quantities — per-node power and relative speed —
//! live here as dense parallel `Vec`s indexed by `NodeId.0`, so the fleet
//! power sum is a straight index-order fold over an `f64` slice (no
//! closure dispatch, no per-node branch: downed nodes simply hold `0.0`)
//! and incremental evaluation can touch only the entries whose inputs
//! changed. Whether a node is down is the scheduler's fact, not the
//! columns': they only zero its power and freeze its stamp.
//!
//! ## Dirty-set invariants
//!
//! * A node is *dirty at tick T* iff any power-relevant input changed for
//!   T: its job load (start/finish/phase boundary/eviction), its DVFS
//!   level, or its up/down state. Clean nodes' cached `power_w` entries
//!   are exact — the evaluator never recomputes them.
//! * The set is a [`NodeMask`]: the evaluator walks its members in
//!   ascending id, with no copy or sort, and the order is a pure function
//!   of the marked ids — identical across runs.
//! * Marks for effects that only materialize *next* tick (a phase
//!   boundary or job finish observed while advancing tick T changes loads
//!   starting at T+1; a level command applied during T's control cycle
//!   changes power first summed at T+1) go to a staged mask that
//!   [`DirtySet::begin_tick`] promotes, swapping the two without
//!   allocating.
//! * `stamp[i]` records the last tick node `i`'s columns were
//!   materialized; the gap to the current tick is exactly how many
//!   identical intervals a quiescent node skipped (what
//!   [`ppc_node::procfs::ProcCounters::advance_many`] replays in closed
//!   form). Stamps freeze while a node is down and resume on the up edge.

use ppc_node::{NodeId, NodeMask};

/// Deterministic dirty set: the nodes dirty this tick, and the nodes
/// already marked for the next.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySet {
    /// Dirty this tick.
    live: NodeMask,
    /// Dirty next tick: promoted by [`begin_tick`](Self::begin_tick).
    next: NodeMask,
}

impl DirtySet {
    fn with_len(n: usize) -> Self {
        let mut d = DirtySet::default();
        d.live.reset(0..n as u32);
        d.next.reset(0..n as u32);
        d
    }

    /// Marks `node` dirty for the current tick.
    pub fn mark(&mut self, node: NodeId) {
        self.live.insert(node);
    }

    /// Marks `node` dirty for the *next* tick.
    pub fn mark_next(&mut self, node: NodeId) {
        self.next.insert(node);
    }

    /// Promotes staged marks into the live set at a tick boundary. The
    /// cleared live mask becomes next tick's staging area — no
    /// allocation after construction.
    pub fn begin_tick(&mut self) {
        self.live.clear();
        std::mem::swap(&mut self.live, &mut self.next);
    }

    /// True if `node` is dirty this tick.
    pub fn contains(&self, node: NodeId) -> bool {
        self.live.contains(node)
    }

    /// The nodes dirty this tick.
    pub fn indices(&self) -> &NodeMask {
        &self.live
    }

    /// True when no node is dirty this tick.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }
}

/// Dense per-node columns for the hot tick path.
#[derive(Debug, Clone)]
pub struct NodeColumns {
    /// True power draw, watts; `0.0` while the node is down, so the fleet
    /// sum needs no branch.
    power_w: Vec<f64>,
    /// Relative compute speed at the node's current DVFS level.
    speed: Vec<f64>,
    /// Nodes whose `speed` entry changed bits since the last
    /// [`clear_speed_edges`](Self::clear_speed_edges), in write order
    /// (a node may repeat).
    speed_edges: Vec<u32>,
    /// Last tick the node's state columns were materialized.
    stamp: Vec<u64>,
    /// The dirty set driving incremental evaluation.
    pub dirty: DirtySet,
    /// Cached fleet power sum.
    fleet_sum_w: f64,
    /// Nodes per rack: the racks are consecutive runs of this many ids,
    /// the last possibly shorter. One rack spans the column until
    /// [`set_rack_size`](Self::set_rack_size).
    rack_size: usize,
    /// Cached per-rack power sums.
    rack_sum_w: Vec<f64>,
    /// Whether the cached fleet and rack sums are current: any
    /// materialization or down/up edge invalidates both at once.
    sums_valid: bool,
}

impl NodeColumns {
    /// Columns for `n` nodes, all clean, stamped at tick 0, idle power to
    /// be filled by the first evaluation.
    pub fn new(n: usize) -> Self {
        NodeColumns {
            power_w: vec![0.0; n],
            speed: vec![1.0; n],
            speed_edges: Vec::new(),
            stamp: vec![0; n],
            dirty: DirtySet::with_len(n),
            fleet_sum_w: 0.0,
            rack_size: n.max(1),
            rack_sum_w: Vec::new(),
            sums_valid: false,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.power_w.len()
    }

    /// True for an empty store.
    pub fn is_empty(&self) -> bool {
        self.power_w.is_empty()
    }

    /// The power column (dense, `0.0` for downed nodes).
    pub fn power_w(&self) -> &[f64] {
        &self.power_w
    }

    /// The relative-speed column (what job progress reads).
    pub fn speed(&self) -> &[f64] {
        &self.speed
    }

    /// Nodes whose speed changed since the last
    /// [`clear_speed_edges`](Self::clear_speed_edges): every write through
    /// [`materialize`](Self::materialize) or [`set_speed`](Self::set_speed)
    /// that moved the stored bits. Job progress refolds only their jobs'
    /// minimum speeds.
    pub fn speed_edges(&self) -> &[u32] {
        &self.speed_edges
    }

    /// Forgets the reported speed edges (job progress has consumed them).
    pub fn clear_speed_edges(&mut self) {
        self.speed_edges.clear();
    }

    fn write_speed(&mut self, i: usize, speed: f64) {
        if self.speed[i].to_bits() != speed.to_bits() {
            self.speed[i] = speed;
            self.speed_edges.push(i as u32);
        }
    }

    /// Last tick `node` was materialized.
    pub fn stamp_of(&self, node: NodeId) -> u64 {
        self.stamp[node.0 as usize]
    }

    /// Writes a node's freshly evaluated power/speed and stamps it.
    #[inline]
    pub fn materialize(&mut self, node: NodeId, power_w: f64, speed: f64, tick: u64) {
        let i = node.0 as usize;
        self.power_w[i] = power_w;
        self.write_speed(i, speed);
        self.stamp[i] = tick;
        self.sums_valid = false;
    }

    /// Updates only the speed column (a level change between evaluations).
    pub fn set_speed(&mut self, node: NodeId, speed: f64) {
        self.write_speed(node.0 as usize, speed);
    }

    /// Advances a node's stamp without touching power/speed — used when the
    /// counters were caught up out of band (a sampling agent pulled the
    /// node current) so a later materialization doesn't replay the window
    /// twice.
    pub fn set_stamp(&mut self, node: NodeId, tick: u64) {
        self.stamp[node.0 as usize] = tick;
    }

    /// Mutable access to the whole power column for a dense refill (the
    /// `Full` evaluation mode overwrites every entry each tick). The
    /// cached sum is invalidated.
    pub fn power_fill_mut(&mut self) -> &mut [f64] {
        self.sums_valid = false;
        &mut self.power_w
    }

    /// Takes a node down: power contribution drops to zero immediately and
    /// the stamp freezes until [`set_up`](Self::set_up).
    pub fn set_down(&mut self, node: NodeId) {
        self.power_w[node.0 as usize] = 0.0;
        self.sums_valid = false;
    }

    /// Brings a node back up at `tick`; its next materialization starts
    /// from here (the downtime never accrued counters).
    pub fn set_up(&mut self, node: NodeId, tick: u64) {
        self.stamp[node.0 as usize] = tick;
        self.sums_valid = false;
    }

    /// Fleet power sum: a serial index-order fold over the dense power
    /// column — bit-identical to the ordered parallel reduction it
    /// replaces (that reduction also folded slot results in index order).
    /// Cached between ticks; any materialization or down/up edge
    /// invalidates the cache.
    pub fn fleet_power_w(&mut self) -> f64 {
        self.refresh_sums();
        self.fleet_sum_w
    }

    /// Recomputes the fleet and rack sums in one index-order pass when
    /// stale. The fleet sum is the same sequence of additions as
    /// `power_w.iter().sum()`: the rack loop only adds a second
    /// accumulator per rack.
    fn refresh_sums(&mut self) {
        if self.sums_valid {
            return;
        }
        // Start where `Sum` starts, so both folds stay bit-identical to
        // `iter().sum()` (even for an all-`-0.0` or empty rack).
        let zero: f64 = std::iter::empty::<f64>().sum();
        let mut fleet = zero;
        self.rack_sum_w.clear();
        for rack in self.power_w.chunks(self.rack_size) {
            let mut sum = zero;
            for &p in rack {
                fleet += p;
                sum += p;
            }
            self.rack_sum_w.push(sum);
        }
        self.fleet_sum_w = fleet;
        self.sums_valid = true;
    }

    /// Lays the racks out as consecutive runs of `nodes_per_rack` ids
    /// (the last rack holds the remainder), as
    /// [`ppc_core::Topology::rack_nodes`] does.
    ///
    /// # Panics
    /// Panics if `nodes_per_rack` is 0.
    pub fn set_rack_size(&mut self, nodes_per_rack: usize) {
        assert!(nodes_per_rack > 0, "a rack holds at least one node");
        self.rack_size = nodes_per_rack;
        self.sums_valid = false;
    }

    /// Per-rack power sums, as of the last fleet sum: each entry is an
    /// index-order fold over its rack's contiguous sub-slice of the dense
    /// power column, so a rack's sum is exactly the flat fold restricted
    /// to its range. The fleet sum stays a single whole-column fold
    /// (float addition is not associative: summing rack sums would change
    /// its bits). The tick's advance sums the fleet, and neither sampling
    /// nor actuation invalidates the sums, so the control cycle and the
    /// health fold read that tick's values.
    pub fn shard_power_w(&self) -> &[f64] {
        debug_assert!(self.sums_valid, "rack sums read before the fleet sum");
        &self.rack_sum_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn members(d: &DirtySet) -> Vec<u32> {
        d.indices().iter().map(|id| id.0).collect()
    }

    #[test]
    fn dirty_marks_dedupe() {
        let mut d = DirtySet::with_len(8);
        d.mark(NodeId(5));
        d.mark(NodeId(2));
        d.mark(NodeId(5));
        assert_eq!(members(&d), [2, 5]);
        assert_eq!(d.indices().len(), 2);
        assert!(d.contains(NodeId(2)));
        assert!(!d.contains(NodeId(0)));
    }

    #[test]
    fn staged_marks_promote_at_tick_boundary() {
        let mut d = DirtySet::with_len(4);
        d.mark(NodeId(0));
        d.mark_next(NodeId(3));
        d.mark_next(NodeId(1));
        assert_eq!(members(&d), [0]);
        d.begin_tick();
        assert_eq!(members(&d), [1, 3]);
        assert!(!d.contains(NodeId(0)));
        d.begin_tick();
        assert!(d.is_empty());
    }

    #[test]
    fn mark_during_tick_joins_promoted_marks() {
        let mut d = DirtySet::with_len(4);
        d.mark_next(NodeId(2));
        d.begin_tick();
        d.mark(NodeId(0));
        d.mark(NodeId(2)); // already present via promotion
        assert_eq!(members(&d), [0, 2]);
        assert_eq!(d.indices().len(), 2);
    }

    proptest::proptest! {
        /// Over random `mark`/`mark_next`/`begin_tick` sequences on fleets
        /// that do and do not fill their last 64-node word, the live set
        /// matches a live and a staged ordered-set reference after every
        /// operation: the ascending walk (as the evaluator reads it) is the
        /// sorted marked ids, and `len`, `is_empty` and `contains` agree on
        /// every id. Ids 0, 63, 64 and n−1 are drawn often.
        #[test]
        fn ascending_walk_is_the_sorted_mark_list(
            size in 0usize..6,
            ops in proptest::collection::vec((0u8..8, 0u8..6, 0u32..4096), 1..150),
        ) {
            let n = [1u32, 63, 64, 65, 200, 1000][size];
            let mut d = DirtySet::with_len(n as usize);
            let (mut live, mut staged) = (BTreeSet::<u32>::new(), BTreeSet::<u32>::new());
            for (op, pick, raw) in ops {
                let id = match pick {
                    0 => 63,
                    1 => 64,
                    2 => n - 1,
                    3 => 0,
                    _ => raw,
                } % n;
                match op {
                    0..=3 => {
                        d.mark(NodeId(id));
                        live.insert(id);
                    }
                    4..=6 => {
                        d.mark_next(NodeId(id));
                        staged.insert(id);
                    }
                    _ => {
                        d.begin_tick();
                        live = std::mem::take(&mut staged);
                    }
                }
                let want: Vec<u32> = live.iter().copied().collect();
                proptest::prop_assert_eq!(members(&d), want);
                proptest::prop_assert_eq!(d.indices().len(), live.len());
                proptest::prop_assert_eq!(d.is_empty(), live.is_empty());
                for i in 0..n {
                    proptest::prop_assert_eq!(d.contains(NodeId(i)), live.contains(&i), "id {}", i);
                }
            }
        }
    }

    /// The racks of `n` nodes laid out `size` to a rack, as id ranges.
    fn racks(n: usize, size: usize) -> Vec<std::ops::Range<usize>> {
        (0..n)
            .step_by(size)
            .map(|lo| lo..(lo + size).min(n))
            .collect()
    }

    #[test]
    fn shard_sums_are_dense_range_folds() {
        // A rack size that divides the fleet, one that leaves a partial
        // last rack, and one at least the fleet (a single rack).
        for (size, want) in [
            (2, vec![30.0, 70.0, 110.0]),
            (4, vec![100.0, 110.0]),
            (6, vec![210.0]),
            (9, vec![210.0]),
        ] {
            let mut c = NodeColumns::new(6);
            c.set_rack_size(size);
            for i in 0..6u32 {
                c.materialize(NodeId(i), (i + 1) as f64 * 10.0, 1.0, 0);
            }
            assert_eq!(c.fleet_power_w(), 210.0);
            assert_eq!(c.shard_power_w(), &want[..], "rack size {size}");
            // Same invalidation edges as the fleet sum.
            c.set_down(NodeId(2));
            assert_eq!(c.fleet_power_w(), 180.0);
            // Each rack sum is bitwise the flat fold over its sub-slice.
            for (s, range) in c.shard_power_w().iter().zip(racks(6, size)) {
                let expect: f64 = c.power_w()[range].iter().sum();
                assert_eq!(s.to_bits(), expect.to_bits(), "rack size {size}");
            }
            assert_eq!(c.shard_power_w().iter().sum::<f64>(), 180.0);
        }
    }

    #[test]
    fn fleet_sum_is_bitwise_the_column_fold_with_and_without_shards() {
        // Magnitudes spread over many octaves, so any change to the order
        // of additions (summing the rack sums, say) would move the bits.
        let value = |i: u32, round: u32| {
            let x = (i.wrapping_mul(2_654_435_761) ^ round.wrapping_mul(40_503)) % 1_000;
            f64::from(x) * 10f64.powi((i % 7) as i32 - 3) + 0.1
        };
        // One rack by default, a rack size that divides the 40 nodes, one
        // that leaves a partial last rack, and two that make one rack.
        const N: u32 = 40;
        let mut racks_bits_differ = false;
        for size in [None, Some(8), Some(6), Some(40), Some(64)] {
            let mut c = NodeColumns::new(N as usize);
            if let Some(size) = size {
                c.set_rack_size(size);
            }
            for round in 0..20u32 {
                // Re-materialize a changing subset, then read the sums.
                for i in (round % 3..N).step_by(1 + (round % 4) as usize) {
                    c.materialize(NodeId(i), value(i, round), 1.0, u64::from(round));
                }
                if round % 5 == 4 {
                    c.set_down(NodeId(round % N));
                }
                let expect: f64 = c.power_w().iter().sum();
                assert_eq!(
                    c.fleet_power_w().to_bits(),
                    expect.to_bits(),
                    "rack size {size:?}, round {round}"
                );
                let sums = c.shard_power_w().to_vec();
                let ranges = racks(N as usize, size.unwrap_or(N as usize));
                assert_eq!(sums.len(), ranges.len());
                for (s, range) in sums.iter().zip(ranges) {
                    let want: f64 = c.power_w()[range.clone()].iter().sum();
                    assert_eq!(s.to_bits(), want.to_bits(), "rack {range:?}");
                }
                let resummed: f64 = sums.iter().sum();
                racks_bits_differ |= resummed.to_bits() != expect.to_bits();
                // A cached read repeats the same bits.
                assert_eq!(c.fleet_power_w().to_bits(), expect.to_bits());
            }
        }
        assert!(racks_bits_differ, "the data must tell the two folds apart");
    }

    #[test]
    fn speed_edges_record_bit_changes_only() {
        let mut c = NodeColumns::new(4);
        c.set_speed(NodeId(1), 1.0);
        c.materialize(NodeId(2), 100.0, 1.0, 1);
        assert!(c.speed_edges().is_empty(), "unchanged bits are no edge");
        c.set_speed(NodeId(3), 0.5);
        c.materialize(NodeId(0), 100.0, 0.8, 2);
        c.set_speed(NodeId(3), 0.75);
        assert_eq!(c.speed_edges(), &[3, 0, 3]);
        c.clear_speed_edges();
        assert!(c.speed_edges().is_empty());
        assert_eq!(c.speed(), &[0.8, 1.0, 1.0, 0.75]);
    }

    #[test]
    fn fleet_sum_matches_serial_fold_and_caches() {
        let mut c = NodeColumns::new(4);
        for i in 0..4u32 {
            c.materialize(NodeId(i), (i + 1) as f64 * 100.0, 1.0, 0);
        }
        assert_eq!(c.fleet_power_w(), 1000.0);
        // Down node contributes zero without a branch in the fold.
        c.set_down(NodeId(2));
        assert_eq!(c.fleet_power_w(), 700.0);
        assert_eq!(c.power_w()[2], 0.0);
        c.set_up(NodeId(2), 7);
        assert_eq!(c.stamp_of(NodeId(2)), 7);
        c.materialize(NodeId(2), 250.0, 0.8, 8);
        assert_eq!(c.fleet_power_w(), 950.0);
        assert_eq!(c.speed()[2], 0.8);
    }
}
