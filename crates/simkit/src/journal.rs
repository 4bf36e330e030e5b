//! Bounded simulation event journal.
//!
//! Long experiments need an audit trail — which job started where, when
//! the power state flipped, what the manager commanded — without growing
//! memory unboundedly over hundreds of thousands of ticks. [`Journal`] is
//! a fixed-capacity ring of categorized events; when full, the oldest
//! events are dropped and counted, never silently.
//!
//! The events live in a [`SharedRing`]: a clone (every what-if branch
//! clones the simulation's journal) shares the sealed chunks of events
//! with its source and copies only the newest, unsealed chunk, so it
//! duplicates at most [`CHUNK`](crate::ring::CHUNK) event messages
//! however large the ring is.

use crate::hash::Fnv1a;
use crate::ring::SharedRing;
use crate::time::SimTime;
use serde::Serialize;
use std::fmt;

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, serde::Deserialize)]
pub enum Severity {
    /// High-volume detail (per-cycle actions).
    Debug,
    /// Notable state changes (job lifecycle, threshold adjustment).
    Info,
    /// Conditions worth an operator's attention (red state, failures).
    Warn,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Debug => "DEBUG",
            Severity::Info => "INFO",
            Severity::Warn => "WARN",
        })
    }
}

/// One recorded event. (Serialize-only: the static category tag cannot
/// be deserialized into a `'static` borrow.)
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Event {
    /// Simulation time of the event.
    pub at: SimTime,
    /// Severity.
    pub severity: Severity,
    /// Static category tag (e.g. `"job"`, `"state"`, `"command"`).
    pub category: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {:5} {:8} {}",
            self.at, self.severity, self.category, self.message
        )
    }
}

/// A fixed-capacity event ring.
#[derive(Debug, Clone, Serialize)]
pub struct Journal {
    capacity: usize,
    events: SharedRing<Event>,
    dropped: u64,
    min_severity: Severity,
}

impl Journal {
    /// Creates a journal holding at most `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "journal capacity must be positive");
        Journal {
            capacity,
            events: SharedRing::new(),
            dropped: 0,
            min_severity: Severity::Debug,
        }
    }

    /// Sets the minimum severity recorded (cheap filtering at the source).
    pub fn with_min_severity(mut self, min: Severity) -> Self {
        self.min_severity = min;
        self
    }

    /// True if an event of `severity` would be recorded. Callers on hot
    /// paths check this (or use [`Journal::record_with`]) to avoid
    /// formatting messages that would be filtered out.
    pub fn enabled(&self, severity: Severity) -> bool {
        severity >= self.min_severity
    }

    /// Records an event (dropping the oldest when full).
    pub fn record(
        &mut self,
        at: SimTime,
        severity: Severity,
        category: &'static str,
        message: impl Into<String>,
    ) {
        if severity < self.min_severity {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.drop_front(1);
            self.dropped += 1;
        }
        self.events.push_back(Event {
            at,
            severity,
            category,
            message: message.into(),
        });
    }

    /// Records an event whose message is built lazily: `message()` runs
    /// only if `severity` passes the filter, so hot loops pay no `format!`
    /// allocation for journaling that is turned off.
    pub fn record_with(
        &mut self,
        at: SimTime,
        severity: Severity,
        category: &'static str,
        message: impl FnOnce() -> String,
    ) {
        if !self.enabled(severity) {
            return;
        }
        self.record(at, severity, category, message());
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events evicted by the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Iterates retained events of one category.
    pub fn by_category<'a>(&'a self, category: &'a str) -> impl Iterator<Item = &'a Event> {
        self.events.iter().filter(move |e| e.category == category)
    }

    /// The most recent `n` events, oldest of those first.
    pub fn tail(&self, n: usize) -> Vec<&Event> {
        let len = self.events.len();
        self.events
            .range(len.saturating_sub(n)..len)
            .unwrap_or_default()
            .collect()
    }

    /// Order-sensitive FNV-1a hash over every retained event (time,
    /// severity, category, message) plus the drop count.
    ///
    /// Two runs of the same seeded experiment must produce the same
    /// fingerprint — the tier-1 behaviour pin (`tests/fingerprints.rs`)
    /// compares exactly this value, so any nondeterminism
    /// that reaches a journaled event (job lifecycle, state flips,
    /// commands, faults) is caught.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.dropped);
        for e in self.events.iter() {
            h.write_u64(e.at.as_millis());
            h.write_u8(e.severity as u8);
            h.write_bytes(e.category.as_bytes());
            h.write_bytes(e.message.as_bytes());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal(cap: usize) -> Journal {
        Journal::new(cap)
    }

    #[test]
    fn record_and_read_back() {
        let mut j = journal(8);
        j.record(SimTime::from_secs(1), Severity::Info, "job", "j0 started");
        j.record(SimTime::from_secs(2), Severity::Warn, "state", "red");
        assert_eq!(j.len(), 2);
        assert!(!j.is_empty());
        let msgs: Vec<&str> = j.iter().map(|e| e.message.as_str()).collect();
        assert_eq!(msgs, vec!["j0 started", "red"]);
        assert_eq!(j.by_category("state").count(), 1);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut j = journal(3);
        for i in 0..10u64 {
            j.record(SimTime::from_secs(i), Severity::Info, "x", format!("e{i}"));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 7);
        let msgs: Vec<&str> = j.iter().map(|e| e.message.as_str()).collect();
        assert_eq!(msgs, vec!["e7", "e8", "e9"]);
    }

    #[test]
    fn severity_filter_at_source() {
        let mut j = journal(8).with_min_severity(Severity::Info);
        j.record(SimTime::ZERO, Severity::Debug, "x", "invisible");
        j.record(SimTime::ZERO, Severity::Info, "x", "visible");
        j.record(SimTime::ZERO, Severity::Warn, "x", "also visible");
        assert_eq!(j.len(), 2);
        assert!(!j.enabled(Severity::Debug));
        assert!(j.enabled(Severity::Warn));
    }

    #[test]
    fn record_with_skips_message_construction_when_filtered() {
        let mut j = journal(8).with_min_severity(Severity::Info);
        let mut built = 0u32;
        j.record_with(SimTime::ZERO, Severity::Debug, "x", || {
            built += 1;
            "expensive".to_string()
        });
        assert_eq!(built, 0, "filtered record must not format its message");
        assert!(j.is_empty());
        j.record_with(SimTime::ZERO, Severity::Warn, "x", || {
            built += 1;
            "kept".to_string()
        });
        assert_eq!(built, 1);
        assert_eq!(j.iter().next().unwrap().message, "kept");
    }

    #[test]
    fn tail_returns_newest() {
        let mut j = journal(10);
        for i in 0..5u64 {
            j.record(SimTime::from_secs(i), Severity::Info, "x", format!("e{i}"));
        }
        let t: Vec<&str> = j.tail(2).iter().map(|e| e.message.as_str()).collect();
        assert_eq!(t, vec!["e3", "e4"]);
        assert_eq!(j.tail(100).len(), 5);
    }

    #[test]
    fn display_formats() {
        let mut j = journal(2);
        j.record(
            SimTime::from_secs(61),
            Severity::Warn,
            "state",
            "red entered",
        );
        let line = j.iter().next().unwrap().to_string();
        assert!(line.contains("WARN"));
        assert!(line.contains("00:01:01"));
        assert!(line.contains("red entered"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        Journal::new(0);
    }

    #[test]
    fn fingerprint_is_deterministic_and_order_sensitive() {
        let fill = |order: &[(&'static str, &str)]| {
            let mut j = journal(8);
            for (i, (cat, msg)) in order.iter().enumerate() {
                j.record(SimTime::from_secs(i as u64), Severity::Info, cat, *msg);
            }
            j.fingerprint()
        };
        let a = fill(&[("job", "j0"), ("state", "red")]);
        let b = fill(&[("job", "j0"), ("state", "red")]);
        assert_eq!(a, b, "same events, same fingerprint");
        let swapped = fill(&[("state", "red"), ("job", "j0")]);
        assert_ne!(a, swapped, "order must matter");
        let edited = fill(&[("job", "j0"), ("state", "rex")]);
        assert_ne!(a, edited, "content must matter");
    }

    #[test]
    fn fingerprint_counts_dropped_events() {
        let mut a = journal(2);
        let mut b = journal(2);
        for i in 0..4u64 {
            a.record(SimTime::from_secs(i), Severity::Info, "x", format!("e{i}"));
        }
        // b holds the same two retained events but dropped nothing.
        for i in 2..4u64 {
            b.record(SimTime::from_secs(i), Severity::Info, "x", format!("e{i}"));
        }
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    /// A clone of a wrapped journal at the simulation's default capacity
    /// shares every sealed chunk of events with its source: a return to
    /// deep copies fails here on any host.
    #[test]
    fn clone_of_a_wrapped_journal_shares_its_sealed_chunks() {
        let mut j = journal(16_384);
        for i in 0..20_000u64 {
            j.record(
                SimTime::from_millis(i),
                Severity::Info,
                "x",
                format!("e{i}"),
            );
        }
        assert_eq!((j.len(), j.dropped()), (16_384, 3_616));
        let copy = j.clone();
        let sealed = j.events.sealed_chunks();
        assert!(sealed >= 16_384 / crate::ring::CHUNK);
        assert_eq!(copy.events.shared_chunks(&j.events), sealed);
        assert_eq!(copy.fingerprint(), j.fingerprint());
    }

    #[test]
    fn fingerprint_field_boundaries_are_unambiguous() {
        let mut a = journal(4);
        a.record(SimTime::ZERO, Severity::Info, "jo", "bx");
        let mut b = journal(4);
        b.record(SimTime::ZERO, Severity::Info, "job", "x");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
