//! Deterministic span recorder keyed by simulation time.
//!
//! A [`SpanRecorder`] captures the per-cycle control-loop structure as a
//! tree of named spans: the cluster simulation opens a root span per
//! control cycle and each stage (fault sweep, sensing, classification,
//! selection, actuation, …) opens a child around its work. Spans carry
//! typed [`AttrValue`] attributes (state color, deficit watts, |A_target|,
//! retry counts) and are timestamped with [`SimTime`] only — never the
//! wall clock — so the recorded tree is bit-identical across runs. CI's
//! determinism gate compares [`SpanRecorder::fingerprint`] across
//! same-seed repeats, evaluation modes and what-if branches.
//!
//! Hot-path discipline mirrors the journal: completed spans live in a
//! bounded ring (evictions counted, never silent), attribute vectors are
//! recycled through a freelist so steady-state recording allocates
//! nothing, and the fingerprint is folded incrementally at span close so
//! it covers *every* span ever closed, not just the retained window.

use ppc_simkit::hash::Fnv1a;
use ppc_simkit::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Identifier of a recorded span, unique within one recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SpanId(pub u64);

/// A typed span attribute value. `Copy`, so attaching attributes on the
/// hot path moves no heap data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum AttrValue {
    /// Unsigned integer (counts, sizes, ids).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (watts, fractions). Hashed by bit pattern.
    F64(f64),
    /// Static string (state colors, policy names).
    Str(&'static str),
}

impl AttrValue {
    /// Folds the value as two words: a type tag and the payload bits
    /// (strings enter via their interned FNV digest).
    fn absorb(&self, h: &mut Fnv1a, interned: &mut Vec<InternedStr>) {
        match *self {
            AttrValue::U64(v) => {
                h.write_word(0);
                h.write_word(v);
            }
            AttrValue::I64(v) => {
                h.write_word(1);
                h.write_word(v as u64);
            }
            AttrValue::F64(v) => {
                h.write_word(2);
                h.write_word(v.to_bits());
            }
            AttrValue::Str(s) => {
                h.write_word(3);
                h.write_word(static_digest(interned, s));
            }
        }
    }
}

/// One memoized `&'static str` digest: (address, length, FNV-1a digest).
/// Keyed by address+length so the lookup never re-reads the string bytes;
/// a duplicated static (distinct address, same bytes) merely recomputes
/// the same digest, so fingerprints stay address-independent.
type InternedStr = (usize, u32, u64);

/// Digest of a static string, memoized in `interned`. Span/attr name sets
/// are tiny (a dozen distinct strings), so a linear scan beats any map.
fn static_digest(interned: &mut Vec<InternedStr>, s: &'static str) -> u64 {
    let key = (s.as_ptr() as usize, s.len() as u32);
    for &(p, l, d) in interned.iter() {
        if (p, l) == key {
            return d;
        }
    }
    let d = Fnv1a::digest_of(s.as_bytes());
    interned.push((key.0, key.1, d));
    d
}

/// One completed span. (Serialize-only: the static name cannot be
/// deserialized into a `'static` borrow — see [`SpanDump`] for the owned
/// round-trippable form.)
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanRecord {
    /// Recorder-unique id (monotonic in close order of open).
    pub id: SpanId,
    /// Enclosing span at open time, if any.
    pub parent: Option<SpanId>,
    /// Static span name (e.g. `"cycle"`, `"select"`).
    pub name: &'static str,
    /// Simulation time the span opened.
    pub start: SimTime,
    /// Simulation time the span closed.
    pub end: SimTime,
    /// Intra-tick sequence number at open — orders same-millisecond
    /// events and synthesizes microsecond offsets for Chrome traces.
    pub start_seq: u32,
    /// Intra-tick sequence number at close.
    pub end_seq: u32,
    /// Typed attributes in attach order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// An open span awaiting close.
#[derive(Debug, Clone)]
struct OpenSpan {
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start: SimTime,
    start_seq: u32,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// Bounded, deterministic span recorder. See the module docs.
#[derive(Debug, Clone)]
pub struct SpanRecorder {
    enabled: bool,
    capacity: usize,
    done: VecDeque<SpanRecord>,
    stack: Vec<OpenSpan>,
    freelist: Vec<Vec<(&'static str, AttrValue)>>,
    interned: Vec<InternedStr>,
    next_id: u64,
    closed: u64,
    dropped: u64,
    hash: Fnv1a,
    last_at: SimTime,
    seq: u32,
}

impl SpanRecorder {
    /// A recorder retaining at most `capacity` completed spans.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "span recorder capacity must be positive");
        SpanRecorder {
            enabled: true,
            capacity,
            done: VecDeque::with_capacity(capacity.min(1024)),
            stack: Vec::with_capacity(8),
            freelist: Vec::new(),
            interned: Vec::new(),
            next_id: 0,
            closed: 0,
            dropped: 0,
            hash: Fnv1a::new(),
            last_at: SimTime::ZERO,
            seq: 0,
        }
    }

    /// A recorder that ignores every call — lets untraced code paths call
    /// the traced API at negligible cost.
    pub fn disabled() -> Self {
        let mut r = SpanRecorder::new(1);
        r.enabled = false;
        r
    }

    /// Next intra-tick sequence number; resets whenever sim time moves.
    fn next_seq(&mut self, at: SimTime) -> u32 {
        if at != self.last_at {
            self.last_at = at;
            self.seq = 0;
        }
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Opens a span named `name` at sim time `at`, nested under the
    /// innermost open span.
    pub fn open(&mut self, name: &'static str, at: SimTime) -> SpanId {
        if !self.enabled {
            return SpanId(u64::MAX);
        }
        let id = SpanId(self.next_id);
        self.next_id += 1;
        let start_seq = self.next_seq(at);
        let parent = self.stack.last().map(|s| s.id);
        let attrs = self.freelist.pop().unwrap_or_default();
        self.stack.push(OpenSpan {
            id,
            parent,
            name,
            start: at,
            start_seq,
            attrs,
        });
        id
    }

    /// Attaches an attribute to the innermost open span. No-op when
    /// disabled or when no span is open.
    pub fn attr(&mut self, key: &'static str, value: AttrValue) {
        if let Some(top) = self.stack.last_mut() {
            top.attrs.push((key, value));
        }
    }

    /// Closes the innermost open span at sim time `at`. No-op when
    /// disabled or when no span is open (tolerated so `disabled()` sinks
    /// need no branching at call sites).
    pub fn close(&mut self, at: SimTime) {
        let Some(open) = self.stack.pop() else {
            return;
        };
        let end_seq = self.next_seq(at);
        let record = SpanRecord {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start: open.start,
            end: at,
            start_seq: open.start_seq,
            end_seq,
            attrs: open.attrs,
        };
        // Fold the span into the running fingerprint now, so the hash
        // covers every closed span regardless of later ring eviction.
        // Word-granularity absorbs (one multiply per fixed-width field,
        // names via interned digests) keep this a few nanoseconds: the
        // fold runs ~10 times per control cycle on the managed hot path.
        let h = &mut self.hash;
        h.write_word(record.id.0);
        h.write_word(record.parent.map_or(u64::MAX, |p| p.0));
        h.write_word(static_digest(&mut self.interned, record.name));
        h.write_word(record.start.as_millis());
        h.write_word(record.end.as_millis());
        h.write_word(u64::from(record.start_seq) << 32 | u64::from(record.end_seq));
        h.write_word(record.attrs.len() as u64);
        for (key, value) in &record.attrs {
            h.write_word(static_digest(&mut self.interned, key));
            value.absorb(h, &mut self.interned);
        }
        self.closed += 1;
        if self.done.len() == self.capacity {
            if let Some(mut evicted) = self.done.pop_front() {
                // Recycle the attribute vector: steady-state recording
                // then allocates nothing per span.
                evicted.attrs.clear();
                self.freelist.push(std::mem::take(&mut evicted.attrs));
            }
            self.dropped += 1;
        }
        self.done.push_back(record);
    }

    /// Number of retained completed spans.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// True if no completed spans are retained.
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// Total spans ever closed (retained or evicted).
    pub fn closed(&self) -> u64 {
        self.closed
    }

    /// Completed spans evicted by the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates retained completed spans, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &SpanRecord> {
        self.done.iter()
    }

    /// The most recent `n` completed spans, oldest of those first.
    pub fn tail(&self, n: usize) -> impl Iterator<Item = &SpanRecord> {
        let skip = self.done.len().saturating_sub(n);
        self.done.iter().skip(skip)
    }

    /// Order-sensitive FNV-1a hash over every span ever closed (id,
    /// parent, name, times, sequence numbers, attributes) plus the closed
    /// count. The fold absorbs 64-bit words — fixed-width fields directly,
    /// strings via their own FNV-1a digest — so the value is stable across
    /// runs, widths and processes but not comparable with a byte-serial
    /// fold. Ring capacity does not affect the value (the drop count is
    /// derivable from the closed count and is deliberately excluded); any
    /// nondeterminism in stage order, timing or attributes does.
    pub fn fingerprint(&self) -> u64 {
        let mut h = self.hash.clone();
        h.write_word(self.closed);
        h.finish()
    }

    /// Owned copies of the last `n` retained spans (for flight-recorder
    /// snapshots and serialized reports).
    pub fn dump_tail(&self, n: usize) -> Vec<SpanDump> {
        self.tail(n).map(SpanDump::from).collect()
    }
}

/// Owned, round-trippable form of a [`SpanRecord`] for serialized
/// reports (flight-recorder snapshots, `ExperimentOutcome`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanDump {
    /// Recorder-unique id.
    pub id: u64,
    /// Enclosing span id, if any.
    pub parent: Option<u64>,
    /// Span name.
    pub name: String,
    /// Open time, sim milliseconds.
    pub start_ms: u64,
    /// Close time, sim milliseconds.
    pub end_ms: u64,
    /// Intra-tick sequence at open.
    pub start_seq: u32,
    /// Intra-tick sequence at close.
    pub end_seq: u32,
    /// Attributes in attach order.
    pub attrs: Vec<AttrDump>,
}

/// Owned attribute for [`SpanDump`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttrDump {
    /// Attribute key.
    pub key: String,
    /// Value rendered by type.
    pub value: AttrDumpValue,
}

/// Owned attribute value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttrDumpValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
}

impl From<&SpanRecord> for SpanDump {
    fn from(r: &SpanRecord) -> Self {
        SpanDump {
            id: r.id.0,
            parent: r.parent.map(|p| p.0),
            name: r.name.to_string(),
            start_ms: r.start.as_millis(),
            end_ms: r.end.as_millis(),
            start_seq: r.start_seq,
            end_seq: r.end_seq,
            attrs: r
                .attrs
                .iter()
                .map(|(k, v)| AttrDump {
                    key: (*k).to_string(),
                    value: match *v {
                        AttrValue::U64(x) => AttrDumpValue::U64(x),
                        AttrValue::I64(x) => AttrDumpValue::I64(x),
                        AttrValue::F64(x) => AttrDumpValue::F64(x),
                        AttrValue::Str(s) => AttrDumpValue::Str(s.to_string()),
                    },
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn records_a_nested_tree() {
        let mut r = SpanRecorder::new(16);
        let root = r.open("cycle", t(1));
        let child = r.open("select", t(1));
        r.attr("targets", AttrValue::U64(3));
        r.close(t(1));
        r.close(t(2));
        assert_eq!(r.len(), 2);
        assert_eq!(r.closed(), 2);
        let spans: Vec<&SpanRecord> = r.iter().collect();
        // Close order: child first.
        assert_eq!(spans[0].id, child);
        assert_eq!(spans[0].parent, Some(root));
        assert_eq!(spans[0].name, "select");
        assert_eq!(spans[0].attrs, vec![("targets", AttrValue::U64(3))]);
        assert_eq!(spans[1].id, root);
        assert_eq!(spans[1].parent, None);
        assert_eq!(spans[1].end, t(2));
    }

    #[test]
    fn sequence_numbers_order_same_tick_events() {
        let mut r = SpanRecorder::new(16);
        r.open("a", t(5));
        r.open("b", t(5));
        r.close(t(5));
        r.close(t(5));
        let spans: Vec<&SpanRecord> = r.iter().collect();
        // a opens at seq 0, b at 1, b closes at 2, a at 3.
        assert_eq!((spans[0].start_seq, spans[0].end_seq), (1, 2));
        assert_eq!((spans[1].start_seq, spans[1].end_seq), (0, 3));
        // New tick resets the counter.
        r.open("c", t(6));
        r.close(t(6));
        let last = r.iter().last().unwrap();
        assert_eq!((last.start_seq, last.end_seq), (0, 1));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = SpanRecorder::new(2);
        for i in 0..5u64 {
            r.open("s", t(i));
            r.close(t(i));
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        assert_eq!(r.closed(), 5);
        let names: Vec<u64> = r.iter().map(|s| s.start.as_millis() / 1000).collect();
        assert_eq!(names, vec![3, 4]);
    }

    #[test]
    fn fingerprint_is_capacity_independent() {
        let fill = |cap: usize| {
            let mut r = SpanRecorder::new(cap);
            for i in 0..10u64 {
                r.open("cycle", t(i));
                r.attr("w", AttrValue::F64(i as f64));
                r.close(t(i));
            }
            r.fingerprint()
        };
        assert_eq!(
            fill(2),
            fill(1000),
            "hash must cover evicted spans identically"
        );
    }

    #[test]
    fn fingerprint_sees_attrs_and_order() {
        let run = |val: u64, name: &'static str| {
            let mut r = SpanRecorder::new(8);
            r.open(name, t(1));
            r.attr("k", AttrValue::U64(val));
            r.close(t(1));
            r.fingerprint()
        };
        assert_eq!(run(1, "a"), run(1, "a"));
        assert_ne!(run(1, "a"), run(2, "a"), "attr value must matter");
        assert_ne!(run(1, "a"), run(1, "b"), "span name must matter");
    }

    #[test]
    fn disabled_recorder_is_a_noop() {
        let mut r = SpanRecorder::disabled();
        let id = r.open("x", t(1));
        assert_eq!(id, SpanId(u64::MAX));
        r.attr("k", AttrValue::U64(1));
        r.close(t(1));
        assert!(r.is_empty());
        assert_eq!(r.closed(), 0);
    }

    #[test]
    fn unbalanced_close_is_tolerated() {
        let mut r = SpanRecorder::new(4);
        r.close(t(1)); // no open span: ignored
        assert_eq!(r.closed(), 0);
    }

    #[test]
    fn freelist_recycles_attr_vectors() {
        let mut r = SpanRecorder::new(1);
        for i in 0..4u64 {
            r.open("s", t(i));
            r.attr("k", AttrValue::U64(i));
            r.close(t(i));
        }
        // Ring of 1: three evictions, so the freelist has fed vectors
        // back; behaviorally the retained span must still be correct.
        let last = r.iter().next().unwrap();
        assert_eq!(last.attrs, vec![("k", AttrValue::U64(3))]);
        assert_eq!(r.dropped(), 3);
    }

    #[test]
    fn dump_round_trips_owned_form() {
        let mut r = SpanRecorder::new(8);
        r.open("cycle", t(2));
        r.attr("state", AttrValue::Str("red"));
        r.attr("deficit_w", AttrValue::F64(120.5));
        r.close(t(3));
        let dump = r.dump_tail(10);
        assert_eq!(dump.len(), 1);
        assert_eq!(dump[0].name, "cycle");
        assert_eq!(dump[0].start_ms, 2000);
        assert_eq!(dump[0].end_ms, 3000);
        assert_eq!(dump[0].attrs[0].key, "state");
        assert_eq!(dump[0].attrs[0].value, AttrDumpValue::Str("red".into()));
        let json = serde_json::to_string(&dump[0]).unwrap();
        let back: SpanDump = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dump[0]);
    }
}
