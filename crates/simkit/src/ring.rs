//! A FIFO whose retained history is shared between clones.
//!
//! The journal and the span recorder keep bounded histories that every
//! what-if branch clones and almost never reads. [`SharedRing`] stores
//! such a history as a list of sealed chunks of [`CHUNK`] items each,
//! every one behind an `Arc` shared by all clones, plus one owned tail
//! chunk that takes new items. Cloning copies the chunk pointers and the
//! tail (fewer than [`CHUNK`] items), however many items are retained;
//! a sealed chunk is never written again, so sharing it cannot leak one
//! clone's items into another.
//!
//! The ring has no capacity of its own: its owner evicts with
//! [`SharedRing::drop_front`], which moves a start index and releases a
//! sealed chunk once every item in it has been evicted (its memory goes
//! when no clone holds it any more). So the oldest chunk may keep up to
//! `CHUNK - 1` evicted items alive; readers never see them.
//!
//! On the recording path sealing moves the tail's buffer into its `Arc`
//! without copying it, and a released chunk that no clone shares gives
//! its buffer back for the next tail, so a ring that is not cloned
//! allocates no chunk buffers in steady state. Sealing and releasing are
//! kept out of line: the span recorder pushes and evicts on every span
//! close, and a close path with them inlined measured slower than the
//! flat ring it replaced.

use serde::{Serialize, Value};
use std::collections::{vec_deque, VecDeque};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Items per chunk.
///
/// A clone copies the tail, so a larger chunk costs every what-if branch
/// more tail; a smaller one gives a clone more chunk pointers to copy.
/// Measured on a 2-vCPU Xeon host (best of 8 pinned runs): at 64, 128
/// and 256 the span close path (400 000 two-span cycles, three
/// attributes each, capacity 4 096) read 43.0, 41.9 and 42.8 ns per span
/// against the flat rings' 43.5; a clone and drop of a full 4 096-span
/// recorder took 3.3, 1.8 and 1.2 µs (flat rings: 38.5), and of a
/// wrapped 256-event journal 2.1, 4.2 and 10.7 µs (flat ring: 12.0).
/// 64 and 128 are close (5.4 and 6.0 µs for the two clones); 128 read
/// the lowest close path and has half the chunks to share in a large
/// ring such as the simulation's default 16 384-event journal.
pub const CHUNK: usize = 128;

/// A FIFO of sealed shared chunks plus one owned tail. See the module
/// docs.
pub struct SharedRing<T> {
    /// Full chunks of exactly [`CHUNK`] items, oldest first.
    sealed: VecDeque<Arc<Vec<T>>>,
    /// Evicted items at the front of the oldest chunk (of the tail while
    /// nothing is sealed).
    head: usize,
    /// The newest items, fewer than [`CHUNK`], owned by this ring alone.
    tail: Vec<T>,
    /// An empty buffer of a released chunk, kept for the next tail.
    spare: Vec<T>,
}

impl<T> SharedRing<T> {
    /// An empty ring. Allocates nothing.
    pub fn new() -> Self {
        SharedRing {
            sealed: VecDeque::new(),
            head: 0,
            tail: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK + self.tail.len() - self.head
    }

    /// True if no items are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `item` at the back.
    pub fn push_back(&mut self, item: T) {
        self.tail.push(item);
        if self.tail.len() == CHUNK {
            self.seal();
        }
    }

    /// Moves the full tail into a new shared chunk.
    #[cold]
    #[inline(never)]
    fn seal(&mut self) {
        let fresh = if self.spare.capacity() >= CHUNK {
            std::mem::take(&mut self.spare)
        } else {
            Vec::with_capacity(CHUNK)
        };
        let full = std::mem::replace(&mut self.tail, fresh);
        self.sealed.push_back(Arc::new(full));
    }

    /// Evicts the oldest `n` items (all of them if fewer are retained).
    pub fn drop_front(&mut self, n: usize) {
        self.head += n.min(self.len());
        if self.head >= CHUNK || self.sealed.is_empty() {
            self.release();
        }
    }

    /// Releases the chunks evicted whole, keeping an unshared one's
    /// buffer as the spare, and empties the tail once nothing is retained.
    #[cold]
    #[inline(never)]
    fn release(&mut self) {
        while self.head >= CHUNK {
            let Some(chunk) = self.sealed.pop_front() else {
                break;
            };
            self.head -= CHUNK;
            if let Ok(mut buf) = Arc::try_unwrap(chunk) {
                buf.clear();
                self.spare = buf;
            }
        }
        if self.sealed.is_empty() && self.head == self.tail.len() {
            self.tail.clear();
            self.head = 0;
        }
    }

    /// The oldest retained item.
    pub fn front(&self) -> Option<&T> {
        match self.sealed.front() {
            Some(chunk) => chunk.get(self.head),
            None => self.tail.get(self.head),
        }
    }

    /// The item `i` places from the front.
    pub fn get(&self, i: usize) -> Option<&T> {
        let at = i.checked_add(self.head)?;
        match self.sealed.get(at / CHUNK) {
            Some(chunk) => chunk.get(at % CHUNK),
            None => self.tail.get(at - self.sealed.len() * CHUNK),
        }
    }

    /// The retained items at positions `range` from the front, oldest
    /// first, or `None` if `range` reaches past the back.
    pub fn range(&self, range: Range<usize>) -> Option<Iter<'_, T>> {
        if range.start > range.end || range.end > self.len() {
            return None;
        }
        let at = range.start + self.head;
        let chunk = at / CHUNK;
        let (cur, chunks, tail) = match self.sealed.get(chunk) {
            Some(first) => (
                first.get(at % CHUNK..)?,
                self.sealed.range(chunk + 1..),
                &self.tail[..],
            ),
            None => (
                self.tail.get(at - self.sealed.len() * CHUNK..)?,
                vec_deque::Iter::default(),
                &[][..],
            ),
        };
        Some(Iter {
            cur: cur.iter(),
            chunks,
            tail,
            left: range.end - range.start,
        })
    }

    /// Iterates the retained items, oldest first.
    pub fn iter(&self) -> Iter<'_, T> {
        self.range(0..self.len()).unwrap_or_default()
    }

    /// Number of sealed chunks, retained items or not.
    pub fn sealed_chunks(&self) -> usize {
        self.sealed.len()
    }

    /// Number of this ring's sealed chunks that are the very allocation
    /// at the same place in `other`: right after a clone, every one.
    pub fn shared_chunks(&self, other: &Self) -> usize {
        self.sealed
            .iter()
            .zip(&other.sealed)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }
}

impl<T: Clone> SharedRing<T> {
    /// Appends clones of `items` at the back, chunk by chunk.
    pub fn extend_from_slice(&mut self, mut items: &[T]) {
        if items.len() < CHUNK - self.tail.len() {
            self.tail.extend_from_slice(items);
            return;
        }
        while !items.is_empty() {
            let (now, rest) = items.split_at(items.len().min(CHUNK - self.tail.len()));
            self.tail.extend_from_slice(now);
            if self.tail.len() == CHUNK {
                self.seal();
            }
            items = rest;
        }
    }
}

impl<T> Default for SharedRing<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Shares every sealed chunk and copies the tail into a buffer of a
/// whole chunk, so the clone records on without regrowing it.
impl<T: Clone> Clone for SharedRing<T> {
    fn clone(&self) -> Self {
        let mut tail = Vec::new();
        if !self.tail.is_empty() {
            tail.reserve_exact(CHUNK);
            tail.extend_from_slice(&self.tail);
        }
        SharedRing {
            sealed: self.sealed.clone(),
            head: self.head,
            tail,
            spare: Vec::new(),
        }
    }
}

/// Formats as the list of retained items, like a `VecDeque`.
impl<T: fmt::Debug> fmt::Debug for SharedRing<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Serializes as the array of retained items, like a `VecDeque`.
impl<T: Serialize> Serialize for SharedRing<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

/// Iterator over a range of a [`SharedRing`], oldest first.
pub struct Iter<'a, T> {
    /// What is left of the chunk being read.
    cur: std::slice::Iter<'a, T>,
    /// The sealed chunks after it.
    chunks: vec_deque::Iter<'a, Arc<Vec<T>>>,
    /// The tail, until it is being read.
    tail: &'a [T],
    /// Items still to yield.
    left: usize,
}

impl<T> Default for Iter<'_, T> {
    fn default() -> Self {
        Iter {
            cur: [].iter(),
            chunks: vec_deque::Iter::default(),
            tail: &[],
            left: 0,
        }
    }
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        if self.left == 0 {
            return None;
        }
        loop {
            if let Some(item) = self.cur.next() {
                self.left -= 1;
                return Some(item);
            }
            if let Some(chunk) = self.chunks.next() {
                self.cur = chunk.iter();
            } else if !self.tail.is_empty() {
                self.cur = std::mem::take(&mut self.tail).iter();
            } else {
                return None;
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> SharedRing<usize> {
        let mut r = SharedRing::new();
        for i in 0..n {
            r.push_back(i);
        }
        r
    }

    #[test]
    fn seals_full_chunks_and_reads_across_them() {
        let r = filled(2 * CHUNK + 5);
        assert_eq!(r.sealed_chunks(), 2);
        assert_eq!(r.len(), 2 * CHUNK + 5);
        assert!(r.iter().copied().eq(0..2 * CHUNK + 5));
        assert_eq!(r.get(CHUNK), Some(&CHUNK));
        assert_eq!(r.get(2 * CHUNK + 5), None);
        let mid: Vec<usize> = r
            .range(CHUNK - 2..CHUNK + 3)
            .into_iter()
            .flatten()
            .copied()
            .collect();
        assert_eq!(mid, (CHUNK - 2..CHUNK + 3).collect::<Vec<_>>());
        assert!(r.range(3..2 * CHUNK + 6).is_none());
    }

    #[test]
    fn drop_front_releases_whole_chunks() {
        let mut r = filled(2 * CHUNK + 5);
        r.drop_front(CHUNK + 1);
        assert_eq!(r.sealed_chunks(), 1);
        assert_eq!(r.front(), Some(&(CHUNK + 1)));
        r.drop_front(usize::MAX);
        assert!(r.is_empty());
        assert_eq!(r.sealed_chunks(), 0);
        r.push_back(7);
        assert_eq!(r.front(), Some(&7));
    }

    #[test]
    fn clone_shares_sealed_chunks_and_owns_its_tail() {
        let mut a = filled(3 * CHUNK + 1);
        let mut b = a.clone();
        assert_eq!(b.shared_chunks(&a), 3);
        b.push_back(usize::MAX);
        a.drop_front(1);
        assert_eq!(a.len(), 3 * CHUNK);
        assert_eq!(b.len(), 3 * CHUNK + 2);
        assert_eq!(b.get(3 * CHUNK + 1), Some(&usize::MAX));
        assert_eq!(a.get(3 * CHUNK - 1), Some(&(3 * CHUNK)));
    }

    #[test]
    fn debug_and_serialize_list_the_retained_items() {
        let mut r = filled(CHUNK + 2);
        r.drop_front(CHUNK);
        assert_eq!(format!("{r:?}"), format!("[{}, {}]", CHUNK, CHUNK + 1));
        assert_eq!(
            r.to_value(),
            Value::Array(vec![CHUNK.to_value(), (CHUNK + 1).to_value()])
        );
    }
}
