//! Struct-of-arrays node columns and the deterministic dirty set.
//!
//! The tick loop's hot quantities — per-node power, relative speed, the
//! down flag — live here as dense parallel `Vec`s indexed by `NodeId.0`,
//! so the fleet power sum is a straight index-order fold over an `f64`
//! slice (auto-vectorizable, no closure dispatch, no per-node branch:
//! downed nodes simply hold `0.0`) and incremental evaluation can touch
//! only the entries whose inputs changed.
//!
//! ## Dirty-set invariants
//!
//! * A node is *dirty at tick T* iff any power-relevant input changed for
//!   T: its job load (start/finish/phase boundary/eviction), its DVFS
//!   level, or its up/down state. Clean nodes' cached `power_w` entries
//!   are exact — the evaluator never recomputes them.
//! * The set is a bitmask of `u64` words (bit `i % 64` of word `i / 64`
//!   is node `i`) plus an insertion-ordered, deduplicated index list. The
//!   evaluator walks the mask's set bits, i.e. the dirty nodes in
//!   ascending id, with no copy or sort; the list keeps the mark order
//!   and the count. Both orders are pure functions of the marking
//!   sequence — identical across runs.
//! * Marks for effects that only materialize *next* tick (a phase
//!   boundary or job finish observed while advancing tick T changes loads
//!   starting at T+1; a level command applied during T's control cycle
//!   changes power first summed at T+1) go to a staged set that
//!   [`DirtySet::begin_tick`] promotes, swapping buffers without
//!   allocating.
//! * `stamp[i]` records the last tick node `i`'s columns were
//!   materialized; the gap to the current tick is exactly how many
//!   identical intervals a quiescent node skipped (what
//!   [`ppc_node::procfs::ProcCounters::advance_many`] replays in closed
//!   form). Stamps freeze while a node is down and resume on the up edge.

use ppc_node::NodeId;

/// Deterministic dirty set: a bitmask of 64-node words plus the ordered
/// index list, with a staged copy of both for marks that take effect
/// next tick.
#[derive(Debug, Clone, Default)]
pub struct DirtySet {
    mask: Vec<u64>,
    list: Vec<u32>,
    staged_mask: Vec<u64>,
    staged_list: Vec<u32>,
}

/// Word and bit of node index `i` in a mask.
fn word_bit(i: u32) -> (usize, u64) {
    ((i / 64) as usize, 1 << (i % 64))
}

impl DirtySet {
    fn with_len(n: usize) -> Self {
        let words = n.div_ceil(64);
        DirtySet {
            mask: vec![0; words],
            list: Vec::with_capacity(n),
            staged_mask: vec![0; words],
            staged_list: Vec::with_capacity(n),
        }
    }

    /// Marks `node` dirty for the current tick.
    pub fn mark(&mut self, node: NodeId) {
        let (w, bit) = word_bit(node.0);
        if self.mask[w] & bit == 0 {
            self.mask[w] |= bit;
            self.list.push(node.0);
        }
    }

    /// Marks `node` dirty for the *next* tick.
    pub fn mark_next(&mut self, node: NodeId) {
        let (w, bit) = word_bit(node.0);
        if self.staged_mask[w] & bit == 0 {
            self.staged_mask[w] |= bit;
            self.staged_list.push(node.0);
        }
    }

    /// Promotes staged marks into the live set at a tick boundary. The
    /// cleared live buffers become next tick's staging area — no
    /// allocation after construction.
    pub fn begin_tick(&mut self) {
        for &i in &self.list {
            self.mask[word_bit(i).0] = 0;
        }
        self.list.clear();
        std::mem::swap(&mut self.mask, &mut self.staged_mask);
        std::mem::swap(&mut self.list, &mut self.staged_list);
    }

    /// True if `node` is dirty this tick.
    pub fn contains(&self, node: NodeId) -> bool {
        let (w, bit) = word_bit(node.0);
        self.mask[w] & bit != 0
    }

    /// Dirty node indices in mark order (deduplicated).
    pub fn indices(&self) -> &[u32] {
        &self.list
    }

    /// The mask's words: bit `i % 64` of word `i / 64` is node `i`. Read
    /// in order, each through [`word_ids`], they give the dirty nodes in
    /// ascending id; a caller that mutates other state during the walk
    /// copies one word at a time.
    pub(crate) fn words(&self) -> &[u64] {
        &self.mask
    }

    /// True when no node is dirty this tick.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

/// The node indices set in mask word `w` (holding `word`), ascending.
pub(crate) fn word_ids(w: usize, mut word: u64) -> impl Iterator<Item = u32> {
    let base = w as u32 * 64;
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros();
            word &= word - 1;
            base + bit
        })
    })
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
    /// Down flag (mirrors the fault engine; kept for queries, not needed
    /// by the sum).
    down: Vec<bool>,
    /// Last tick the node's state columns were materialized.
    stamp: Vec<u64>,
    /// The dirty set driving incremental evaluation.
    pub dirty: DirtySet,
    /// Cached fleet power sum.
    fleet_sum_w: f64,
    /// Shard-contiguous layout: half-open `[lo, hi)` node-id ranges, one
    /// per shard (rack), covering the column in index order. Empty until
    /// [`set_shards`](Self::set_shards) — per-shard sums are a
    /// hierarchical-manager feature.
    shards: Vec<(u32, u32)>,
    /// Cached per-shard power sums.
    shard_sum_w: Vec<f64>,
    /// Whether the cached fleet and shard sums are current: any
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
            down: vec![false; n],
            stamp: vec![0; n],
            dirty: DirtySet::with_len(n),
            fleet_sum_w: 0.0,
            shards: Vec::new(),
            shard_sum_w: Vec::new(),
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

    /// True if `node` is marked down in the columns.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down[node.0 as usize]
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
        let i = node.0 as usize;
        self.down[i] = true;
        self.power_w[i] = 0.0;
        self.sums_valid = false;
    }

    /// Brings a node back up at `tick`; its next materialization starts
    /// from here (the downtime never accrued counters).
    pub fn set_up(&mut self, node: NodeId, tick: u64) {
        let i = node.0 as usize;
        self.down[i] = false;
        self.stamp[i] = tick;
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

    /// Recomputes the fleet and shard sums in one index-order pass when
    /// stale. The fleet sum is the same sequence of additions as
    /// `power_w.iter().sum()` whether or not shards are installed: the
    /// shard loop only adds a second accumulator per range.
    fn refresh_sums(&mut self) {
        if self.sums_valid {
            return;
        }
        if self.shards.is_empty() {
            self.fleet_sum_w = self.power_w.iter().sum();
        } else {
            // Start where `Sum` starts, so both folds stay bit-identical
            // to `iter().sum()` (even for an all-`-0.0` or empty range).
            let zero: f64 = std::iter::empty::<f64>().sum();
            let mut fleet = zero;
            for (s, &(lo, hi)) in self.shard_sum_w.iter_mut().zip(&self.shards) {
                let mut shard = zero;
                for &p in &self.power_w[lo as usize..hi as usize] {
                    fleet += p;
                    shard += p;
                }
                *s = shard;
            }
            self.fleet_sum_w = fleet;
        }
        self.sums_valid = true;
    }

    /// Installs the shard-contiguous layout: half-open `[lo, hi)` node-id
    /// ranges in index order, one per rack. Ranges must tile the column
    /// (each starts where the previous ended, the last ends at `len`).
    ///
    /// # Panics
    /// Panics if the ranges do not tile the column.
    pub fn set_shards(&mut self, shards: Vec<(u32, u32)>) {
        let mut expect = 0u32;
        for &(lo, hi) in &shards {
            assert!(lo == expect && hi >= lo, "shards must tile the column");
            expect = hi;
        }
        assert_eq!(
            expect as usize,
            self.power_w.len(),
            "shards must cover every node"
        );
        self.shard_sum_w = vec![0.0; shards.len()];
        self.shards = shards;
        self.sums_valid = false;
    }

    /// The installed shard ranges (empty without a hierarchical manager).
    pub fn shards(&self) -> &[(u32, u32)] {
        &self.shards
    }

    /// Per-shard power sums: each entry is an index-order fold over its
    /// shard's contiguous sub-slice of the dense power column, so a rack's
    /// fleet sum is exactly the flat fold restricted to its range.
    /// Computed in the fleet sum's pass and cached with it. The fleet sum
    /// stays a single whole-column fold (float addition is not
    /// associative: summing shard sums would change its bits).
    pub fn shard_power_w(&mut self) -> &[f64] {
        self.refresh_sums();
        &self.shard_sum_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_marks_dedupe_and_preserve_order() {
        let mut d = DirtySet::with_len(8);
        d.mark(NodeId(5));
        d.mark(NodeId(2));
        d.mark(NodeId(5));
        assert_eq!(d.indices(), &[5, 2]);
        assert!(d.contains(NodeId(2)));
        assert!(!d.contains(NodeId(0)));
    }

    #[test]
    fn staged_marks_promote_at_tick_boundary() {
        let mut d = DirtySet::with_len(4);
        d.mark(NodeId(0));
        d.mark_next(NodeId(3));
        d.mark_next(NodeId(1));
        assert_eq!(d.indices(), &[0]);
        d.begin_tick();
        assert_eq!(d.indices(), &[3, 1]);
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
        assert_eq!(d.indices(), &[2, 0]);
    }

    proptest::proptest! {
        /// Over random `mark`/`mark_next`/`begin_tick` sequences on fleets
        /// that do and do not fill their last 64-node word, the ascending
        /// walk (as the evaluator reads it, word by word) is the sorted
        /// mark-order list, the list is the reference's first-mark order,
        /// and `contains` agrees on every id. Ids 0, 63, 64 and n−1 are
        /// drawn often.
        #[test]
        fn ascending_walk_is_the_sorted_mark_list(
            size in 0usize..6,
            ops in proptest::collection::vec((0u8..8, 0u8..6, 0u32..4096), 1..150),
        ) {
            let n = [1u32, 63, 64, 65, 200, 1000][size];
            let mut d = DirtySet::with_len(n as usize);
            let (mut live, mut staged) = (Vec::<u32>::new(), Vec::<u32>::new());
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
                        if !live.contains(&id) {
                            live.push(id);
                        }
                    }
                    4..=6 => {
                        d.mark_next(NodeId(id));
                        if !staged.contains(&id) {
                            staged.push(id);
                        }
                    }
                    _ => {
                        d.begin_tick();
                        live = std::mem::take(&mut staged);
                    }
                }
                proptest::prop_assert_eq!(d.indices(), &live[..]);
                let mut sorted = live.clone();
                sorted.sort_unstable();
                let walked: Vec<u32> = d
                    .words()
                    .iter()
                    .enumerate()
                    .flat_map(|(w, &word)| word_ids(w, word))
                    .collect();
                proptest::prop_assert_eq!(walked, sorted);
                for i in 0..n {
                    proptest::prop_assert_eq!(d.contains(NodeId(i)), live.contains(&i), "id {}", i);
                }
                proptest::prop_assert_eq!(d.is_empty(), live.is_empty());
            }
        }
    }

    #[test]
    fn shard_sums_are_dense_range_folds() {
        let mut c = NodeColumns::new(6);
        c.set_shards(vec![(0, 2), (2, 4), (4, 6)]);
        for i in 0..6u32 {
            c.materialize(NodeId(i), (i + 1) as f64 * 10.0, 1.0, 0);
        }
        assert_eq!(c.shard_power_w(), &[30.0, 70.0, 110.0]);
        // Same invalidation edges as the fleet sum.
        c.set_down(NodeId(2));
        assert_eq!(c.shard_power_w(), &[30.0, 40.0, 110.0]);
        assert_eq!(c.fleet_power_w(), 180.0);
        // Each shard sum is bitwise the flat fold over its sub-slice.
        let expect: f64 = c.power_w()[2..4].iter().sum();
        assert_eq!(c.shard_power_w()[1].to_bits(), expect.to_bits());
    }

    #[test]
    fn fleet_sum_is_bitwise_the_column_fold_with_and_without_shards() {
        // Magnitudes spread over many octaves, so any change to the order
        // of additions (summing the shard sums, say) would move the bits.
        let value = |i: u32, round: u32| {
            let x = (i.wrapping_mul(2_654_435_761) ^ round.wrapping_mul(40_503)) % 1_000;
            f64::from(x) * 10f64.powi((i % 7) as i32 - 3) + 0.1
        };
        let plain = NodeColumns::new(37);
        let mut sharded = NodeColumns::new(37);
        sharded.set_shards(vec![(0, 5), (5, 5), (5, 20), (20, 36), (36, 37)]);
        let mut shards_bits_differ = false;
        for mut c in [plain, sharded] {
            for round in 0..20u32 {
                // Re-materialize a changing subset, then read the sums.
                for i in (round % 3..37).step_by(1 + (round % 4) as usize) {
                    c.materialize(NodeId(i), value(i, round), 1.0, u64::from(round));
                }
                if round % 5 == 4 {
                    c.set_down(NodeId(round % 37));
                }
                let expect: f64 = c.power_w().iter().sum();
                assert_eq!(
                    c.fleet_power_w().to_bits(),
                    expect.to_bits(),
                    "round {round}"
                );
                if !c.shards().is_empty() {
                    let shards = c.shards().to_vec();
                    let sums = c.shard_power_w().to_vec();
                    for (&(lo, hi), s) in shards.iter().zip(&sums) {
                        let want: f64 = c.power_w()[lo as usize..hi as usize].iter().sum();
                        assert_eq!(s.to_bits(), want.to_bits(), "shard {lo}..{hi}");
                    }
                    let resummed: f64 = sums.iter().sum();
                    shards_bits_differ |= resummed.to_bits() != expect.to_bits();
                }
                // A cached read repeats the same bits.
                assert_eq!(c.fleet_power_w().to_bits(), expect.to_bits());
            }
        }
        assert!(shards_bits_differ, "the data must tell the two folds apart");
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
    #[should_panic(expected = "tile")]
    fn shards_must_tile() {
        let mut c = NodeColumns::new(4);
        c.set_shards(vec![(0, 2), (3, 4)]);
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
        assert!(c.is_down(NodeId(2)));
        c.set_up(NodeId(2), 7);
        assert_eq!(c.stamp_of(NodeId(2)), 7);
        c.materialize(NodeId(2), 250.0, 0.8, 8);
        assert_eq!(c.fleet_power_w(), 950.0);
        assert_eq!(c.speed()[2], 0.8);
    }
}
