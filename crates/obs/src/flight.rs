//! Flight recorder: bounded black-box snapshots at incident boundaries.
//!
//! Operators debugging a capping incident need the context *leading into*
//! it, not just the end-of-run aggregates. The [`FlightRecorder`] is
//! armed by the cluster simulation and triggered on Red-state entry and
//! on fault activation: each trigger captures the last N completed spans
//! and a full metrics-registry dump at that instant. Snapshot count is
//! bounded; excess triggers are counted, never silently ignored —
//! the same contract as the journal ring.
//!
//! A stored snapshot never changes, so each sits behind an `Arc`: a
//! clone of the recorder (every what-if branch clones one) copies a few
//! pointers and shares the snapshots' owned span and metric dumps.

use crate::metrics::{MetricDump, MetricsRegistry};
use crate::span::{SpanDump, SpanRecorder};
use ppc_simkit::SimTime;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One captured snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightSnapshot {
    /// Sim time of the trigger.
    pub at_ms: u64,
    /// Why the recorder fired (e.g. `"red-entry"`, `"fault:crash n3"`).
    pub reason: String,
    /// The last spans completed before the trigger, oldest first.
    pub spans: Vec<SpanDump>,
    /// Full metrics registry at the trigger.
    pub metrics: Vec<MetricDump>,
}

/// Bounded incident snapshotter. See the module docs.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    max_snapshots: usize,
    span_window: usize,
    snapshots: Vec<Arc<FlightSnapshot>>,
    suppressed: u64,
}

impl FlightRecorder {
    /// A recorder keeping at most `max_snapshots` snapshots of the last
    /// `span_window` spans each.
    pub fn new(max_snapshots: usize, span_window: usize) -> Self {
        FlightRecorder {
            max_snapshots,
            span_window,
            snapshots: Vec::new(),
            suppressed: 0,
        }
    }

    /// Captures a snapshot, or counts it as suppressed once full.
    /// Returns true if the snapshot was stored.
    pub fn trigger(
        &mut self,
        at: SimTime,
        reason: impl Into<String>,
        spans: &SpanRecorder,
        metrics: &MetricsRegistry,
    ) -> bool {
        if self.snapshots.len() >= self.max_snapshots {
            self.suppressed += 1;
            return false;
        }
        self.snapshots.push(Arc::new(FlightSnapshot {
            at_ms: at.as_millis(),
            reason: reason.into(),
            spans: spans.dump_tail(self.span_window),
            metrics: metrics.dump(),
        }));
        true
    }

    /// Stored snapshots, in trigger order.
    pub fn snapshots(&self) -> &[Arc<FlightSnapshot>] {
        &self.snapshots
    }

    /// Triggers discarded because the recorder was full.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Number of stored snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// True if nothing has triggered yet.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::AttrValue;

    #[test]
    fn captures_span_tail_and_metrics() {
        let mut spans = SpanRecorder::new(32);
        let mut metrics = MetricsRegistry::new();
        let c = metrics.counter("red_entries");
        for i in 0..6u64 {
            spans.open("cycle", SimTime::from_secs(i));
            spans.attr("i", AttrValue::U64(i));
            spans.close(SimTime::from_secs(i));
        }
        metrics.inc(c, 1);
        let mut fr = FlightRecorder::new(2, 3);
        assert!(fr.trigger(SimTime::from_secs(6), "red-entry", &spans, &metrics));
        assert_eq!(fr.len(), 1);
        let snap = &fr.snapshots()[0];
        assert_eq!(snap.at_ms, 6000);
        assert_eq!(snap.reason, "red-entry");
        assert_eq!(snap.spans.len(), 3, "window of 3 spans");
        assert_eq!(snap.spans.last().unwrap().start_ms, 5000);
        assert_eq!(snap.metrics.len(), 1);
    }

    #[test]
    fn bounded_with_suppression_count() {
        let spans = SpanRecorder::new(4);
        let metrics = MetricsRegistry::new();
        let mut fr = FlightRecorder::new(1, 4);
        assert!(fr.trigger(SimTime::ZERO, "a", &spans, &metrics));
        assert!(!fr.trigger(SimTime::ZERO, "b", &spans, &metrics));
        assert!(!fr.trigger(SimTime::ZERO, "c", &spans, &metrics));
        assert_eq!(fr.len(), 1);
        assert_eq!(fr.suppressed(), 2);
    }

    #[test]
    fn snapshot_serializes() {
        let spans = SpanRecorder::new(4);
        let metrics = MetricsRegistry::new();
        let mut fr = FlightRecorder::new(1, 4);
        fr.trigger(SimTime::from_secs(1), "fault:crash n0", &spans, &metrics);
        let json = serde_json::to_string(&*fr.snapshots()[0]).unwrap();
        let back: FlightSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, *fr.snapshots()[0]);
    }
}
