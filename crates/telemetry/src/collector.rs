//! The central collector on the management node.
//!
//! Ingests agent samples and maintains the views the capping algorithm
//! and its selection policies read:
//!
//! * latest per-node sample (state, level, power estimate);
//! * the previous power estimate per node, so change-based policies can
//!   compute the rate of increase `ΔP^t(x) = (P^t − P^{t−1}) / P^{t−1}`;
//! * per-job aggregation `Power(J) = Σ_{i ∈ Nodes(J)} P(i)`.
//!
//! Storage is dense: `NodeId`s are small dense integers, so per-node
//! slots live in a `Vec` indexed by id and every policy-facing query
//! (`power_of`, `aggregate_power`, `power_rate_of`) is a plain array
//! read — no lock, no hash. Ingestion takes `&mut self` (the manager's
//! control cycle is the single writer); the end state is independent of
//! arrival order within a batch because each node's slot only advances
//! on strictly newer timestamps.

use crate::sample::NodeSample;
use ppc_node::NodeId;
use ppc_simkit::{SimDuration, SimTime};

/// Per-node power bookkeeping.
#[derive(Debug, Clone, Copy)]
struct Slot {
    latest: NodeSample,
    prev_power_w: Option<f64>,
}

/// The central sample store.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    /// Dense per-node slots, indexed by `NodeId.0`; `None` = no sample.
    slots: Vec<Option<Slot>>,
    /// Number of `Some` slots (nodes with at least one sample).
    populated: usize,
}

impl Collector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, node: NodeId) -> Option<&Slot> {
        self.slots.get(node.0 as usize).and_then(Option::as_ref)
    }

    /// Ingests one sample. A newer sample for the same node shifts the old
    /// power estimate into the "previous" slot; a stale or equal-time
    /// duplicate is ignored.
    pub fn ingest(&mut self, sample: NodeSample) {
        let idx = sample.node.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        match &mut self.slots[idx] {
            Some(slot) => {
                if sample.at > slot.latest.at {
                    slot.prev_power_w = Some(slot.latest.power_w);
                    slot.latest = sample;
                }
            }
            empty => {
                *empty = Some(Slot {
                    latest: sample,
                    prev_power_w: None,
                });
                self.populated += 1;
            }
        }
    }

    /// Ingests a batch with one pass of dense writes.
    ///
    /// Replaces the old thread-sharded concurrent ingest: per-sample cost
    /// is now an array write, so fanning a control cycle's batch over
    /// threads costs more in handoff than it saves. The end state equals
    /// one-by-one ingestion exactly (same code path, same order).
    pub fn ingest_batch(&mut self, samples: &[NodeSample]) {
        for s in samples {
            self.ingest(*s);
        }
    }

    /// Re-stamps `node`'s slot to `now` as if a sample identical to the
    /// stored one had just been ingested: the latest power shifts into the
    /// "previous" slot (making `ΔP = 0`) and the timestamp advances.
    ///
    /// This is the incremental-evaluation path's way of keeping a
    /// *quiescent* node fresh without re-reading it; one call covers any
    /// number of skipped intervals because every skipped sample would have
    /// been identical. No-op for nodes without a sample. Returns `true` if
    /// the slot advanced.
    pub fn refresh(&mut self, node: NodeId, now: SimTime) -> bool {
        let Some(Some(slot)) = self.slots.get_mut(node.0 as usize) else {
            return false;
        };
        if now <= slot.latest.at {
            return false;
        }
        slot.prev_power_w = Some(slot.latest.power_w);
        slot.latest.at = now;
        true
    }

    /// Drops a node from the store (it left the candidate set).
    pub fn forget(&mut self, node: NodeId) {
        if let Some(slot) = self.slots.get_mut(node.0 as usize) {
            if slot.take().is_some() {
                self.populated -= 1;
            }
        }
    }

    /// Drops every stored sample (capacity is kept for reuse).
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
        self.populated = 0;
    }

    /// Number of nodes with at least one sample.
    pub fn node_count(&self) -> usize {
        self.populated
    }

    /// Latest sample for `node`.
    pub fn latest(&self, node: NodeId) -> Option<NodeSample> {
        self.slot(node).map(|s| s.latest)
    }

    /// Latest power estimate for `node`, watts.
    pub fn power_of(&self, node: NodeId) -> Option<f64> {
        self.slot(node).map(|s| s.latest.power_w)
    }

    /// Previous-interval power estimate for `node`, watts.
    pub fn prev_power_of(&self, node: NodeId) -> Option<f64> {
        self.slot(node).and_then(|s| s.prev_power_w)
    }

    /// Rate of increase `ΔP^t(x)` for `node`: `(P^t − P^{t−1}) / P^{t−1}`.
    /// `None` until two samples exist.
    pub fn power_rate_of(&self, node: NodeId) -> Option<f64> {
        let slot = self.slot(node)?;
        let prev = slot.prev_power_w?;
        if prev <= 0.0 {
            return None;
        }
        Some((slot.latest.power_w - prev) / prev)
    }

    /// Sum of the latest power estimates over `nodes` (the paper's
    /// `Power(J)` when given `Nodes(J)`), watts. Nodes without samples
    /// contribute zero.
    pub fn aggregate_power(&self, nodes: &[NodeId]) -> f64 {
        nodes
            .iter()
            .filter_map(|&n| self.slot(n).map(|s| s.latest.power_w))
            .sum()
    }

    /// Estimated total power of all monitored nodes, watts.
    pub fn estimated_total_w(&self) -> f64 {
        self.slots.iter().flatten().map(|s| s.latest.power_w).sum()
    }

    /// Age of `node`'s latest sample relative to `now` (`None` if the node
    /// has never reported). Saturates at zero for future-stamped samples.
    pub fn sample_age(&self, node: NodeId, now: SimTime) -> Option<SimDuration> {
        self.slot(node).map(|s| now.duration_since(s.latest.at))
    }

    /// True if `node`'s latest sample is no older than `max_age` at `now`.
    pub fn is_fresh(&self, node: NodeId, now: SimTime, max_age: SimDuration) -> bool {
        self.sample_age(node, now).is_some_and(|age| age <= max_age)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_node::{Level, OperatingState};

    fn sample(node: u32, at: u64, power: f64) -> NodeSample {
        NodeSample {
            node: NodeId(node),
            at: SimTime::from_secs(at),
            state: OperatingState {
                cpu_util: 0.5,
                mem_used_bytes: 0,
                nic_bytes: 0,
            },
            level: Level::new(9),
            power_w: power,
        }
    }

    #[test]
    fn ingest_and_query() {
        let mut c = Collector::new();
        c.ingest(sample(1, 0, 200.0));
        c.ingest(sample(2, 0, 300.0));
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.power_of(NodeId(1)), Some(200.0));
        assert_eq!(c.estimated_total_w(), 500.0);
        assert_eq!(c.power_of(NodeId(9)), None);
    }

    #[test]
    fn newer_sample_shifts_previous() {
        let mut c = Collector::new();
        c.ingest(sample(1, 0, 200.0));
        assert_eq!(c.prev_power_of(NodeId(1)), None);
        assert_eq!(c.power_rate_of(NodeId(1)), None);
        c.ingest(sample(1, 1, 250.0));
        assert_eq!(c.power_of(NodeId(1)), Some(250.0));
        assert_eq!(c.prev_power_of(NodeId(1)), Some(200.0));
        assert!((c.power_rate_of(NodeId(1)).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn stale_sample_is_ignored() {
        let mut c = Collector::new();
        c.ingest(sample(1, 5, 500.0));
        c.ingest(sample(1, 3, 100.0));
        assert_eq!(c.power_of(NodeId(1)), Some(500.0));
        assert_eq!(c.prev_power_of(NodeId(1)), None);
    }

    #[test]
    fn refresh_matches_reingesting_an_identical_sample() {
        let mut real = Collector::new();
        let mut lazy = Collector::new();
        for c in [&mut real, &mut lazy] {
            c.ingest(sample(1, 0, 200.0));
            c.ingest(sample(1, 1, 250.0));
        }
        // Real path: identical samples keep arriving every tick.
        for t in 2..=6u64 {
            real.ingest(sample(1, t, 250.0));
        }
        // Lazy path: one refresh covers all five skipped intervals.
        assert!(lazy.refresh(NodeId(1), SimTime::from_secs(6)));
        assert_eq!(real.power_of(NodeId(1)), lazy.power_of(NodeId(1)));
        assert_eq!(real.prev_power_of(NodeId(1)), lazy.prev_power_of(NodeId(1)));
        assert_eq!(
            real.latest(NodeId(1)).unwrap().at,
            lazy.latest(NodeId(1)).unwrap().at
        );
        assert_eq!(real.power_rate_of(NodeId(1)), Some(0.0));
        assert_eq!(lazy.power_rate_of(NodeId(1)), Some(0.0));
        // Refresh at-or-before the stored timestamp is a no-op.
        assert!(!lazy.refresh(NodeId(1), SimTime::from_secs(6)));
        // Unknown nodes are a no-op.
        assert!(!lazy.refresh(NodeId(42), SimTime::from_secs(9)));
    }

    #[test]
    fn aggregation_over_job_nodes() {
        let mut c = Collector::new();
        for i in 0..4 {
            c.ingest(sample(i, 0, 100.0 * (i + 1) as f64));
        }
        let nodes = [NodeId(0), NodeId(2)];
        assert_eq!(c.aggregate_power(&nodes), 100.0 + 300.0);
        // Unknown nodes contribute zero.
        assert_eq!(c.aggregate_power(&[NodeId(0), NodeId(99)]), 100.0);
    }

    #[test]
    fn concurrent_ingest_matches_sequential() {
        // The batched fast path must leave exactly the state one-by-one
        // ingestion does (the invariant the old thread-sharded ingest was
        // tested for).
        let mut seq = Collector::new();
        let mut con = Collector::new();
        let batch: Vec<NodeSample> = (0..500)
            .map(|i| sample(i % 100, (i / 100) as u64, i as f64))
            .collect();
        for s in batch.clone() {
            seq.ingest(s);
        }
        con.ingest_batch(&batch);
        assert_eq!(seq.node_count(), con.node_count());
        for i in 0..100 {
            assert_eq!(seq.power_of(NodeId(i)), con.power_of(NodeId(i)), "node {i}");
            assert_eq!(
                seq.prev_power_of(NodeId(i)),
                con.prev_power_of(NodeId(i)),
                "prev node {i}"
            );
        }
    }

    #[test]
    fn sparse_ids_and_gaps_are_exact() {
        // Dense storage must behave identically for high ids and holes.
        let mut c = Collector::new();
        c.ingest(sample(10_000, 0, 123.0));
        c.ingest(sample(3, 0, 7.0));
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.power_of(NodeId(10_000)), Some(123.0));
        assert_eq!(c.power_of(NodeId(9_999)), None, "gap below a high id");
        assert_eq!(c.power_of(NodeId(20_000)), None, "beyond the store");
        assert_eq!(c.estimated_total_w(), 130.0);
        assert_eq!(
            c.aggregate_power(&[NodeId(3), NodeId(5_000), NodeId(10_000)]),
            130.0
        );
        c.forget(NodeId(10_000));
        assert_eq!(c.node_count(), 1);
        assert_eq!(c.power_of(NodeId(10_000)), None);
        // Forgetting an id that never had a sample is a no-op.
        c.forget(NodeId(77));
        c.forget(NodeId(40_000));
        assert_eq!(c.node_count(), 1);
    }

    #[test]
    fn forget_and_clear() {
        let mut c = Collector::new();
        c.ingest(sample(1, 0, 1.0));
        c.ingest(sample(2, 0, 2.0));
        c.forget(NodeId(1));
        assert_eq!(c.node_count(), 1);
        c.clear();
        assert_eq!(c.node_count(), 0);
        // A cleared collector accepts fresh samples (capacity reused).
        c.ingest(sample(2, 9, 4.0));
        assert_eq!(c.node_count(), 1);
        assert_eq!(c.power_of(NodeId(2)), Some(4.0));
        assert_eq!(c.prev_power_of(NodeId(2)), None, "clear resets history");
    }

    #[test]
    fn staleness_tracks_sample_age() {
        let mut c = Collector::new();
        c.ingest(sample(0, 10, 100.0));
        c.ingest(sample(1, 14, 100.0));
        let now = SimTime::from_secs(15);
        let max_age = SimDuration::from_secs(5);
        assert_eq!(
            c.sample_age(NodeId(0), now),
            Some(SimDuration::from_secs(5))
        );
        assert_eq!(
            c.sample_age(NodeId(1), now),
            Some(SimDuration::from_secs(1))
        );
        assert_eq!(c.sample_age(NodeId(9), now), None, "never reported");
        assert!(
            c.is_fresh(NodeId(0), now, max_age),
            "age == max_age is fresh"
        );
        assert!(!c.is_fresh(NodeId(0), SimTime::from_secs(16), max_age));
        assert!(!c.is_fresh(NodeId(9), now, max_age));
    }

    #[test]
    fn rate_undefined_for_zero_previous_power() {
        let mut c = Collector::new();
        c.ingest(sample(1, 0, 0.0));
        c.ingest(sample(1, 1, 50.0));
        assert_eq!(c.power_rate_of(NodeId(1)), None);
    }
}
