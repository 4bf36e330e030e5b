//! The central collector on the management node.
//!
//! Ingests agent samples and keeps, per node, the two views the control
//! cycle reads:
//!
//! * the latest sample (state, level, power estimate, timestamp), which
//!   the observe stage sums into the paper's `Power(J)` and the staleness
//!   filter ages;
//! * the previous power estimate, from which the observe stage computes
//!   a job's rate of increase `ΔP^t(J) = (P^t − P^{t−1}) / P^{t−1}`.
//!
//! Storage is dense: `NodeId`s are small dense integers, so per-node
//! slots live in a `Vec` indexed by id and every query ([`latest`],
//! [`prev_power_of`], [`is_fresh`]) is a plain array read — no lock, no
//! hash. Ingestion takes `&mut self` (the manager's control cycle is the
//! single writer); the end state is independent of arrival order within
//! a batch because each node's slot only advances on strictly newer
//! timestamps.
//!
//! [`latest`]: Collector::latest
//! [`prev_power_of`]: Collector::prev_power_of
//! [`is_fresh`]: Collector::is_fresh

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
            *slot = None;
        }
    }

    /// Latest sample for `node`.
    pub fn latest(&self, node: NodeId) -> Option<NodeSample> {
        self.slot(node).map(|s| s.latest)
    }

    /// Previous-interval power estimate for `node`, watts.
    pub fn prev_power_of(&self, node: NodeId) -> Option<f64> {
        self.slot(node).and_then(|s| s.prev_power_w)
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

    /// The latest power estimate for `node`, watts.
    fn power(c: &Collector, node: u32) -> Option<f64> {
        c.latest(NodeId(node)).map(|s| s.power_w)
    }

    #[test]
    fn ingest_and_query() {
        let mut c = Collector::new();
        c.ingest(sample(1, 0, 200.0));
        c.ingest(sample(2, 0, 300.0));
        assert_eq!(c.latest(NodeId(1)), Some(sample(1, 0, 200.0)));
        assert_eq!(power(&c, 2), Some(300.0));
        assert_eq!(power(&c, 9), None);
    }

    #[test]
    fn newer_sample_shifts_previous() {
        let mut c = Collector::new();
        c.ingest(sample(1, 0, 200.0));
        assert_eq!(c.prev_power_of(NodeId(1)), None);
        c.ingest(sample(1, 1, 250.0));
        assert_eq!(power(&c, 1), Some(250.0));
        assert_eq!(c.prev_power_of(NodeId(1)), Some(200.0));
    }

    #[test]
    fn stale_sample_is_ignored() {
        let mut c = Collector::new();
        c.ingest(sample(1, 5, 500.0));
        c.ingest(sample(1, 3, 100.0));
        assert_eq!(power(&c, 1), Some(500.0));
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
        assert_eq!(real.latest(NodeId(1)), lazy.latest(NodeId(1)));
        assert_eq!(real.prev_power_of(NodeId(1)), lazy.prev_power_of(NodeId(1)));
        // ΔP = 0 on both: the previous estimate equals the latest.
        assert_eq!(lazy.prev_power_of(NodeId(1)), Some(250.0));
        // Refresh at-or-before the stored timestamp is a no-op.
        assert!(!lazy.refresh(NodeId(1), SimTime::from_secs(6)));
        // Unknown nodes are a no-op.
        assert!(!lazy.refresh(NodeId(42), SimTime::from_secs(9)));
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
        for i in 0..100 {
            assert_eq!(seq.latest(NodeId(i)), con.latest(NodeId(i)), "node {i}");
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
        assert_eq!(power(&c, 10_000), Some(123.0));
        assert_eq!(power(&c, 3), Some(7.0));
        assert_eq!(power(&c, 9_999), None, "gap below a high id");
        assert_eq!(power(&c, 20_000), None, "beyond the store");
        c.forget(NodeId(10_000));
        assert_eq!(power(&c, 10_000), None);
        assert_eq!(power(&c, 3), Some(7.0));
        // Forgetting an id that never had a sample is a no-op.
        c.forget(NodeId(77));
        c.forget(NodeId(40_000));
        assert_eq!(power(&c, 3), Some(7.0));
    }

    #[test]
    fn forget_drops_the_node_and_its_history() {
        let mut c = Collector::new();
        c.ingest(sample(1, 0, 1.0));
        c.ingest(sample(1, 1, 2.0));
        c.ingest(sample(2, 0, 3.0));
        c.forget(NodeId(1));
        assert_eq!(c.latest(NodeId(1)), None);
        assert_eq!(c.prev_power_of(NodeId(1)), None);
        assert_eq!(power(&c, 2), Some(3.0), "other nodes are kept");
        // A forgotten node's next sample starts a fresh history.
        c.ingest(sample(1, 9, 4.0));
        assert_eq!(power(&c, 1), Some(4.0));
        assert_eq!(c.prev_power_of(NodeId(1)), None, "forget resets history");
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
}
