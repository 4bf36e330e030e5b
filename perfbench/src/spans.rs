//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! The tracer lives entirely in the benchmark: the program under test is
//! called through its public API and never sees it. Spans are kept in a
//! vector and written out once the run ends, so recording costs one
//! `Instant` read pair and a push. A disabled tracer records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, `<crate>.<call>` below the operation level.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// True when the span's duration came from the program's own stage
    /// profiler rather than a benchmark timer: only its duration is
    /// measured, and it is laid out back to back after its siblings.
    pub derived: bool,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus child durations), seconds.
    pub self_s: f64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// End of the last derived child laid out under each parent.
    derived_cursor: BTreeMap<SpanId, u64>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            derived_cursor: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            derived: false,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span that [`Tracer::close`] ends later.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.ns(Instant::now());
            self.spans[id].end_ns = end;
        }
    }

    /// Records a child of `parent` whose duration was measured by the
    /// program's stage profiler. Children are laid out back to back from
    /// the parent's start, in the order recorded.
    pub fn record_derived(&mut self, name: &'static str, parent: Option<SpanId>, secs: f64) {
        let Some(parent) = parent else { return };
        let start = *self
            .derived_cursor
            .entry(parent)
            .or_insert(self.spans[parent].start_ns);
        let end = start + (secs.max(0.0) * 1e9) as u64;
        self.derived_cursor.insert(parent, end);
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_ns: start,
            end_ns: end,
            derived: true,
        });
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, &c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Totals per span name, in name order.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += s.duration_ns() as f64 * 1e-9;
            t.self_s += self_ns as f64 * 1e-9;
        }
        out
    }

    /// The spans as JSON lines (`id`, `parent`, `name`, `start_us`,
    /// `end_us`, `self_us`, `derived`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"self_us\":{},\"derived\":{}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                self_ns as f64 / 1e3,
                s.derived
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", None, now, now), None);
        t.record_derived("y", None, 1.0);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let s = Instant::now();
        let tick = t.record("tick", None, s, s + Duration::from_micros(100));
        t.record_derived("sample", tick, 30e-6);
        t.record_derived("control", tick, 50e-6);
        let self_ns = t.self_ns();
        assert_eq!(self_ns[0], 20_000);
        assert_eq!(self_ns[1], 30_000);
        // Derived children are laid out back to back.
        assert_eq!(t.spans[2].start_ns, t.spans[1].end_ns);
        let totals = t.totals();
        assert_eq!(totals["tick"].count, 1);
        assert!((totals["tick"].self_s - 20e-6).abs() < 1e-12);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }
}
