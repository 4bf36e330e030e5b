//! Property test of `SharedRing` against a `VecDeque` reference.
//!
//! Random push / extend / drop_front / pop / clone sequences, bounded by
//! a capacity the way the journal and the span recorder bound their
//! rings. Capacities and run lengths straddle the chunk size (1 to 3
//! chunks), so chunks are sealed, shared, partly evicted and released
//! many times per case. After a clone both copies go on with different
//! items, and each must still match its own reference.

use ppc_simkit::ring::CHUNK;
use ppc_simkit::SharedRing;
use proptest::prelude::*;
use std::collections::VecDeque;

/// One ring call: selector and size.
type Op = (u8, usize);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..8, 0usize..3 * CHUNK + 2), 0..120)
}

/// A ring and the reference it must equal.
#[derive(Clone)]
struct Pair {
    ring: SharedRing<u64>,
    model: VecDeque<u64>,
}

impl Pair {
    fn new() -> Self {
        Pair {
            ring: SharedRing::new(),
            model: VecDeque::new(),
        }
    }

    /// Applies `op`, writing items counted from `next`, then evicts down
    /// to `cap` as a bounded owner does.
    fn apply(&mut self, (sel, n): Op, cap: usize, next: &mut u64) -> Result<(), TestCaseError> {
        match sel {
            0..=2 => {
                self.ring.push_back(*next);
                self.model.push_back(*next);
                *next += 1;
            }
            3 | 4 => {
                let items: Vec<u64> = (*next..*next + n as u64).collect();
                *next += n as u64;
                self.ring.extend_from_slice(&items);
                self.model.extend(&items);
            }
            5 => {
                self.ring.drop_front(n);
                self.model.drain(..n.min(self.model.len()));
            }
            _ => {
                prop_assert_eq!(self.ring.front(), self.model.front());
                self.ring.drop_front(1);
                self.model.pop_front();
            }
        }
        if self.model.len() > cap {
            let excess = self.model.len() - cap;
            self.ring.drop_front(excess);
            self.model.drain(..excess);
        }
        self.check(n)
    }

    /// Every reader agrees with the reference; `n` picks a sub-range.
    fn check(&self, n: usize) -> Result<(), TestCaseError> {
        let (ring, model) = (&self.ring, &self.model);
        let len = model.len();
        prop_assert_eq!(ring.len(), len);
        prop_assert_eq!(ring.is_empty(), model.is_empty());
        prop_assert_eq!(ring.front(), model.front());
        prop_assert!(ring.iter().eq(model.iter()));
        prop_assert_eq!(ring.iter().len(), len);
        for i in [
            0,
            1,
            CHUNK - 1,
            CHUNK,
            len / 2,
            len.saturating_sub(1),
            len,
            len + 1,
        ] {
            prop_assert_eq!(ring.get(i), model.get(i));
        }
        let start = n.min(len) / 2;
        let end = (start + n).min(len);
        let got = ring
            .range(start..end)
            .map(|r| r.copied().collect::<Vec<_>>());
        prop_assert_eq!(got, Some(model.range(start..end).copied().collect()));
        prop_assert!(ring.range(start..len + 1).is_none());
        prop_assert_eq!(format!("{ring:?}"), format!("{model:?}"));
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ring_matches_a_vecdeque(cap in 1usize..3 * CHUNK + 1, ops in ops()) {
        let mut next = 0u64;
        let mut pair = Pair::new();
        let mut twin: Option<Pair> = None;
        for (i, &op) in ops.iter().enumerate() {
            pair.apply(op, cap, &mut next)?;
            if let Some(t) = twin.as_mut() {
                // The twin gets items of its own: nothing may leak across.
                let mut other = u64::MAX / 2 + next;
                t.apply(ops[ops.len() - 1 - i], cap, &mut other)?;
                pair.check(op.1)?;
            }
            if op.0 == 7 && i % 2 == 0 {
                let copy = pair.clone();
                prop_assert_eq!(
                    copy.ring.shared_chunks(&pair.ring),
                    pair.ring.sealed_chunks()
                );
                twin = Some(copy);
            }
        }
    }
}
