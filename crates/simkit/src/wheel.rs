//! Hierarchical timer wheel for tick-indexed event scheduling.
//!
//! The cluster simulation advances on a fixed control period τ, but most
//! ticks carry no *discrete* event: job arrivals, actuation-retry thaws and
//! fault edges are sparse. A timer wheel stores "wake me at tick N" entries
//! in O(1) per insert/drain so the tick core can ask "what is due now?"
//! without scanning every pending event (as a binary heap would re-order
//! equal-priority entries, breaking replay determinism).
//!
//! Layout: `LEVELS` wheels of `SLOTS = 64` slots each. Level `l` covers
//! `64^(l+1)` ticks at a granularity of `64^l`; entries further out than the
//! top level sit in an overflow list and re-enter the wheel as time
//! approaches. Draining is **deterministic**: entries due at the same tick
//! come out in insertion order (a monotonic sequence number breaks ties),
//! regardless of how many cascades they travelled through.

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level (64, as in kernel timer wheels).
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of hierarchical levels; covers `64^4 = 16.7M` ticks directly.
const LEVELS: usize = 4;

#[derive(Debug, Clone)]
struct Entry<T> {
    at: u64,
    seq: u64,
    item: T,
}

/// A hierarchical timer wheel holding items keyed by an absolute tick index.
///
/// `T` is the event payload. All operations are deterministic: two wheels
/// fed the same schedule in the same order drain identically.
#[derive(Debug, Clone)]
pub struct TimeWheel<T> {
    /// `levels[l][slot]` holds entries due within that slot's tick span.
    levels: Vec<Vec<Vec<Entry<T>>>>,
    /// Entries beyond the top level's horizon.
    overflow: Vec<Entry<T>>,
    /// The current tick; entries are never due before it.
    now: u64,
    /// Monotonic insertion counter used to keep same-tick drain order stable.
    seq: u64,
    len: usize,
    /// Scratch buffer reused by [`pop_due_into`](Self::pop_due_into) so the
    /// steady-state drain allocates nothing.
    drain: Vec<Entry<T>>,
}

impl<T> Default for TimeWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimeWheel<T> {
    /// An empty wheel positioned at tick 0.
    pub fn new() -> Self {
        TimeWheel {
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            overflow: Vec::new(),
            now: 0,
            seq: 0,
            len: 0,
            drain: Vec::new(),
        }
    }

    /// Number of scheduled entries not yet drained.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wheel's current tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedules `item` at absolute tick `at`. Ticks in the past are clamped
    /// to the current tick so the entry drains on the next `pop_due`.
    pub fn schedule(&mut self, at: u64, item: T) {
        let at = at.max(self.now);
        let entry = Entry {
            at,
            seq: self.seq,
            item,
        };
        self.seq += 1;
        self.len += 1;
        self.place(entry);
    }

    fn place(&mut self, entry: Entry<T>) {
        let delta = entry.at - self.now;
        for l in 0..LEVELS {
            // Level l spans 64^(l+1) ticks from `now`.
            if delta >> (SLOT_BITS * (l as u32 + 1)) == 0 {
                let slot = (entry.at >> (SLOT_BITS * l as u32)) as usize & (SLOTS - 1);
                self.levels[l][slot].push(entry);
                return;
            }
        }
        self.overflow.push(entry);
    }

    /// Advances the wheel to `tick` and returns every entry due at or before
    /// it, ordered by (due tick, insertion order).
    pub fn pop_due(&mut self, tick: u64) -> Vec<T> {
        let mut out = Vec::new();
        self.pop_due_into(tick, &mut out);
        out
    }

    /// Like [`pop_due`](Self::pop_due) but drains into `out` (cleared
    /// first). The wheel reuses an internal scratch buffer, so a steady
    /// state caller allocates nothing per drain.
    pub fn pop_due_into(&mut self, tick: u64, out: &mut Vec<T>) {
        out.clear();
        let mut due = std::mem::take(&mut self.drain);
        due.clear();
        while self.now <= tick {
            let slot = (self.now as usize) & (SLOTS - 1);
            if !self.levels[0][slot].is_empty() {
                due.append(&mut self.levels[0][slot]);
            }
            if self.now == tick {
                break;
            }
            self.now += 1;
            self.cascade();
        }
        // Entries at the same tick must drain in insertion order; entries at
        // earlier ticks first. `seq` is monotonic, so (at, seq) is total.
        due.sort_by_key(|e| (e.at, e.seq));
        self.len -= due.len();
        out.extend(due.drain(..).map(|e| e.item));
        self.drain = due;
    }

    /// After `now` advanced, re-home entries from coarser levels whose span
    /// boundary was crossed.
    fn cascade(&mut self) {
        for l in 1..LEVELS {
            // Level l's slots advance once per 64^l ticks.
            if self.now & ((1u64 << (SLOT_BITS * l as u32)) - 1) != 0 {
                break;
            }
            let slot = (self.now >> (SLOT_BITS * l as u32)) as usize & (SLOTS - 1);
            let entries = std::mem::take(&mut self.levels[l][slot]);
            for e in entries {
                self.place(e);
            }
        }
        // The overflow re-enters when the top level wraps.
        if self.now & ((1u64 << (SLOT_BITS * LEVELS as u32)) - 1) == 0 {
            let entries = std::mem::take(&mut self.overflow);
            for e in entries {
                self.place(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_in_tick_then_insertion_order() {
        let mut w = TimeWheel::new();
        w.schedule(5, "b");
        w.schedule(3, "a");
        w.schedule(5, "c");
        assert_eq!(w.pop_due(10), vec!["a", "b", "c"]);
        assert!(w.is_empty());
    }

    #[test]
    fn past_ticks_clamp_to_now() {
        let mut w = TimeWheel::new();
        w.pop_due(100);
        w.schedule(7, "late");
        assert_eq!(w.pop_due(100), vec!["late"]);
    }

    #[test]
    fn far_future_entries_survive_cascades() {
        let mut w = TimeWheel::new();
        // One entry per level span, plus one beyond the wheel horizon.
        let ticks = [1u64, 70, 64 * 64 + 3, 64 * 64 * 64 + 9, 20_000_000];
        for (i, &t) in ticks.iter().enumerate() {
            w.schedule(t, i);
        }
        let mut seen = Vec::new();
        let mut now = 0;
        while !w.is_empty() {
            now += 777_777;
            seen.extend(w.pop_due(now));
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pop_due_is_exclusive_of_future_ticks() {
        let mut w = TimeWheel::new();
        w.schedule(4, "now");
        w.schedule(5, "later");
        assert_eq!(w.pop_due(4), vec!["now"]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_due(5), vec!["later"]);
    }

    #[test]
    fn same_schedule_drains_identically() {
        let build = || {
            let mut w = TimeWheel::new();
            for i in 0..500u64 {
                w.schedule((i * 37) % 300, i);
            }
            let mut out = Vec::new();
            let mut now = 0;
            while !w.is_empty() {
                now += 13;
                out.extend(w.pop_due(now));
            }
            out
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn cascaded_same_tick_entries_keep_insertion_order() {
        let mut w = TimeWheel::new();
        // Both land at tick 100 but are inserted at different distances,
        // so one cascades and one is placed directly after advancing.
        w.schedule(100, "first");
        w.pop_due(90);
        w.schedule(100, "second");
        assert_eq!(w.pop_due(100), vec!["first", "second"]);
    }
}
