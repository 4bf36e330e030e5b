//! Property test of the span recorder's rings against a naive reference.
//!
//! The reference keeps every closed span with its own attribute `Vec`;
//! the recorder must retain exactly the newest `capacity` of them, with
//! the same attributes, after every operation of a random nested
//! open/attr/close sequence. Capacities of 1–6 make the record ring and
//! the attribute ring wrap many times per case.

use ppc_obs::span::{AttrDump, AttrDumpValue};
use ppc_obs::{AttrValue, SpanDump, SpanId, SpanRecorder};
use ppc_simkit::SimTime;
use proptest::prelude::*;

type Attr = (&'static str, AttrValue);

const NAMES: [&str; 3] = ["cycle", "select", "actuate"];
const KEYS: [&str; 3] = ["state", "commands", "deficit_w"];

/// One recorder call: selector, name/key index, payload.
type Op = (u8, u8, u64);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..7, 0u8..3, 0u64..1_000), 0..160)
}

fn value_of(k: u8, v: u64) -> AttrValue {
    match v % 4 {
        0 => AttrValue::U64(v),
        1 => AttrValue::I64(-(v as i64)),
        2 => AttrValue::F64(v as f64 / 8.0),
        _ => AttrValue::Str(NAMES[k as usize]),
    }
}

/// A closed span as the reference keeps it.
#[derive(Debug, Clone, PartialEq)]
struct RefSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ms: u64,
    end_ms: u64,
    start_seq: u32,
    end_seq: u32,
    attrs: Vec<Attr>,
}

impl RefSpan {
    fn dump(&self) -> SpanDump {
        SpanDump {
            id: self.id,
            parent: self.parent,
            name: self.name.to_string(),
            start_ms: self.start_ms,
            end_ms: self.end_ms,
            start_seq: self.start_seq,
            end_seq: self.end_seq,
            attrs: self
                .attrs
                .iter()
                .map(|&(k, v)| AttrDump {
                    key: k.to_string(),
                    value: match v {
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

/// Unbounded recorder: every closed span with its own attribute vector.
#[derive(Default)]
struct Reference {
    open: Vec<RefSpan>,
    closed: Vec<RefSpan>,
    next_id: u64,
    last_ms: u64,
    seq: u32,
}

impl Reference {
    fn next_seq(&mut self, ms: u64) -> u32 {
        if ms != self.last_ms {
            self.last_ms = ms;
            self.seq = 0;
        }
        self.seq += 1;
        self.seq - 1
    }

    fn open(&mut self, name: &'static str, ms: u64) {
        let start_seq = self.next_seq(ms);
        self.open.push(RefSpan {
            id: self.next_id,
            parent: self.open.last().map(|s| s.id),
            name,
            start_ms: ms,
            end_ms: 0,
            start_seq,
            end_seq: 0,
            attrs: Vec::new(),
        });
        self.next_id += 1;
    }

    fn attr(&mut self, key: &'static str, value: AttrValue) {
        if let Some(top) = self.open.last_mut() {
            top.attrs.push((key, value));
        }
    }

    fn close(&mut self, ms: u64) {
        if self.open.is_empty() {
            return;
        }
        let end_seq = self.next_seq(ms);
        if let Some(mut span) = self.open.pop() {
            span.end_ms = ms;
            span.end_seq = end_seq;
            self.closed.push(span);
        }
    }
}

/// Applies `op` to the recorder and the reference alike.
fn apply(rec: &mut SpanRecorder, reference: &mut Reference, ms: &mut u64, (sel, k, v): Op) {
    let at = SimTime::from_millis(*ms);
    match sel {
        0 | 1 => {
            let id = rec.open(NAMES[k as usize], at);
            assert_eq!(id, SpanId(reference.next_id));
            reference.open(NAMES[k as usize], *ms);
        }
        2 | 3 => {
            rec.attr(KEYS[k as usize], value_of(k, v));
            reference.attr(KEYS[k as usize], value_of(k, v));
        }
        4 | 5 => {
            rec.close(at);
            reference.close(*ms);
        }
        _ => *ms += 1 + v % 3,
    }
}

/// The recorder's retained state, rebuilt in the reference's form.
fn retained(rec: &SpanRecorder) -> Vec<RefSpan> {
    rec.iter()
        .map(|r| RefSpan {
            id: r.id.0,
            parent: r.parent.map(|p| p.0),
            name: r.name,
            start_ms: r.start.as_millis(),
            end_ms: r.end.as_millis(),
            start_seq: r.start_seq,
            end_seq: r.end_seq,
            attrs: rec.attrs(r).copied().collect(),
        })
        .collect()
}

fn check(rec: &SpanRecorder, reference: &Reference, cap: usize) -> Result<(), TestCaseError> {
    let all = &reference.closed;
    let window = &all[all.len().saturating_sub(cap)..];
    prop_assert_eq!(rec.closed(), all.len() as u64);
    prop_assert_eq!(rec.dropped(), all.len().saturating_sub(cap) as u64);
    prop_assert_eq!(retained(rec), window.to_vec());
    for n in [0, 1, cap, cap + 1] {
        let want: Vec<SpanDump> = window[window.len().saturating_sub(n)..]
            .iter()
            .map(RefSpan::dump)
            .collect();
        prop_assert_eq!(rec.dump_tail(n), want);
    }
    Ok(())
}

proptest! {
    #[test]
    fn rings_match_an_unbounded_reference(cap in 1usize..7, ops in ops()) {
        let mut rec = SpanRecorder::new(cap);
        let mut reference = Reference::default();
        let mut ms = 0u64;
        // The same calls into a recorder that never evicts.
        let (mut wide, mut wide_ref, mut wide_ms) =
            (SpanRecorder::new(1_000), Reference::default(), 0u64);
        for (i, &op) in ops.iter().enumerate() {
            // Record on in a clone from halfway: it must carry every ring,
            // index and open span over.
            if i == ops.len() / 2 {
                rec = rec.clone();
            }
            apply(&mut rec, &mut reference, &mut ms, op);
            apply(&mut wide, &mut wide_ref, &mut wide_ms, op);
            check(&rec, &reference, cap)?;
        }
        // Close whatever is still open: the deepest nestings close last.
        while !reference.open.is_empty() {
            apply(&mut rec, &mut reference, &mut ms, (4, 0, 0));
            apply(&mut wide, &mut wide_ref, &mut wide_ms, (4, 0, 0));
            check(&rec, &reference, cap)?;
        }
        // The fingerprint covers evicted spans: it cannot see the ring size.
        prop_assert_eq!(rec.fingerprint(), wide.fingerprint());
    }
}

/// A clone is independent: recording into it (eviction included) leaves
/// the original's retained records and attributes unchanged.
#[test]
fn stepping_a_clone_leaves_the_original_unchanged() {
    let mut original = SpanRecorder::new(3);
    for i in 0..5u64 {
        original.open("cycle", SimTime::from_millis(i));
        original.attr("commands", AttrValue::U64(i));
        original.attr("state", AttrValue::Str("red"));
        original.close(SimTime::from_millis(i));
    }
    let before = retained(&original);
    let mut branch = original.clone();
    for i in 5..9u64 {
        branch.open("select", SimTime::from_millis(i));
        branch.attr("deficit_w", AttrValue::F64(i as f64));
        branch.close(SimTime::from_millis(i));
    }
    assert_eq!(retained(&original), before);
    assert_eq!(original.closed(), 5);
    assert_ne!(retained(&branch), before);
    assert_eq!(branch.dropped(), 6);
}
