//! Deterministic fan-out for coarse-grained batches.
//!
//! The one caller that pays for threads is the what-if engine's batch:
//! each item is a whole branched simulation (milliseconds of work), so on
//! a 2-vCPU host width 2 answers the 20-request capacity grid about 1.4×
//! faster than width 1, and spawning scoped threads once per batch costs
//! nothing next to that. [`WorkerPool`] is therefore only a width.
//!
//! Results are identical at every width by construction: chunk boundaries
//! are a static function of `(len, workers)`, and each item writes only
//! its own slot. Callers fold slots in index order after the join.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Hard cap on the fan-out width.
const MAX_WORKERS: usize = 32;

/// A fan-out width: how many scoped threads a batch is split across.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A fan-out of `workers` threads, clamped to `1..=32`.
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.clamp(1, MAX_WORKERS),
        }
    }

    /// The machine's available parallelism, read once per process.
    pub fn available() -> Self {
        static WIDTH: OnceLock<usize> = OnceLock::new();
        let workers = *WIDTH.get_or_init(|| {
            // ppc-lint: allow(host-read): picks the width only; `run_batch` answers and fingerprints are width-invariant (index-order joins, checked at widths 1, 2 and 6)
            std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
        });
        WorkerPool::new(workers)
    }

    /// Applies `f(index, item)` to every item exactly once. Items are
    /// split into index-ordered chunks of `ceil(len / workers)`, one
    /// scoped thread each; width 1 or a single item runs on the calling
    /// thread. A panic in `f` propagates to the caller after the join.
    ///
    /// The `Fn + Sync` bound keeps shared fingerprint sinks out of the
    /// fan-out: the journal, span recorder, metrics registry and `Fnv1a`
    /// hasher all record through `&mut self`, which a shared closure
    /// cannot hold, so each call writes only its own item and the caller
    /// folds sinks serially after the join, in index order. The what-if
    /// engine's `engine_batches_are_pool_width_invariant` test checks the
    /// one batch caller's answers and fingerprints at several widths.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        if self.workers == 1 || items.len() <= 1 {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        let chunk = items.len().div_ceil(self.workers);
        let f = &f;
        std::thread::scope(|scope| {
            for (c, slice) in items.chunks_mut(chunk).enumerate() {
                scope.spawn(move || {
                    for (j, item) in slice.iter_mut().enumerate() {
                        f(c * chunk + j, item);
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;

    #[test]
    fn for_each_mut_touches_every_item_once() {
        // len > width: several items per chunk.
        let mut v: Vec<u64> = (0..1_000).collect();
        WorkerPool::new(3).for_each_mut(&mut v, |i, x| {
            assert_eq!(*x, i as u64, "index passed to closure must be global");
            *x += 1;
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 + 1));
    }

    #[test]
    fn for_each_mut_handles_empty_and_single() {
        // len 0 and len 1 run on the calling thread.
        let caller = std::thread::current().id();
        let mut empty: Vec<u8> = vec![];
        WorkerPool::new(4).for_each_mut(&mut empty, |_, _| panic!("must not be called"));
        let mut one = vec![None::<ThreadId>];
        WorkerPool::new(4).for_each_mut(&mut one, |i, x| {
            assert_eq!(i, 0);
            *x = Some(std::thread::current().id());
        });
        assert_eq!(one, vec![Some(caller)]);
    }

    #[test]
    fn all_items_visited_in_parallel_mode() {
        // len < width: one item per chunk, no thread left without work.
        let mut v = vec![0u32; 3];
        let count = AtomicUsize::new(0);
        WorkerPool::new(8).for_each_mut(&mut v, |i, x| {
            count.fetch_add(1, Ordering::Relaxed);
            *x = i as u32 + 1;
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn map_preserves_order() {
        // The batch pattern: each item fills its own output slot.
        let inputs: Vec<u64> = (0..500).collect();
        let mut out = vec![0u64; inputs.len()];
        WorkerPool::new(4).for_each_mut(&mut out, |i, slot| *slot = inputs[i] * 2);
        assert!(out.iter().enumerate().all(|(i, &x)| x == 2 * i as u64));
    }

    #[test]
    fn map_reduce_matches_sequential_float_sum() {
        // Per-slot results folded in index order after the join are
        // bit-identical to the sequential sum.
        let v: Vec<f64> = (0..4_321).map(|i| (i as f64) * 0.1 + 0.003).collect();
        let seq: f64 = v.iter().map(|x| x.sin()).sum();
        let mut slots = vec![0.0f64; v.len()];
        WorkerPool::new(2).for_each_mut(&mut slots, |i, s| *s = v[i].sin());
        assert_eq!(seq.to_bits(), slots.iter().sum::<f64>().to_bits());
    }

    #[test]
    fn pool_results_invariant_across_worker_counts() {
        let inputs: Vec<f64> = (0..3_000).map(|i| (i as f64).sqrt() * 0.7 - 11.0).collect();
        let step = |i: usize, x: &mut f64| *x = x.mul_add(1.0000001, i as f64 * 1e-9);
        let mut seq = inputs.clone();
        for (i, x) in seq.iter_mut().enumerate() {
            step(i, x);
        }
        for workers in [1usize, 2, 3, 8] {
            let mut each = inputs.clone();
            WorkerPool::new(workers).for_each_mut(&mut each, step);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&each), bits(&seq), "{workers} workers");
        }
    }

    #[test]
    fn pool_handles_empty_and_single_inputs() {
        assert_eq!(WorkerPool::new(0), WorkerPool::new(1));
        assert_eq!(WorkerPool::new(1_000), WorkerPool::new(MAX_WORKERS));
        for workers in [1usize, 2, 7] {
            let mut none: Vec<u8> = vec![];
            WorkerPool::new(workers).for_each_mut(&mut none, |_, _| panic!("must not run"));
            let mut one = [1u32];
            WorkerPool::new(workers).for_each_mut(&mut one, |i, x| *x += i as u32 + 9);
            assert_eq!(one, [10]);
        }
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let mut v: Vec<u32> = (0..500).collect();
        let boom = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_mut(&mut v, |i, _| assert!(i != 437, "injected failure"));
        }));
        assert!(boom.is_err(), "panic must propagate to the caller");
        pool.for_each_mut(&mut v, |i, x| *x = i as u32);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u32));
    }

    proptest! {
        /// For arbitrary inputs and widths, the fan-out writes the same
        /// bits as a sequential loop.
        #[test]
        fn prop_pool_bitwise_matches_sequential(
            values in prop::collection::vec(-1e6f64..1e6, 0..300),
            workers in 1usize..9,
        ) {
            let f = |i: usize, x: &f64| x * 1.5 + 0.25 + i as f64;
            let seq: Vec<f64> = values.iter().enumerate().map(|(i, x)| f(i, x)).collect();
            let mut par = values;
            WorkerPool::new(workers).for_each_mut(&mut par, |i, x| *x = f(i, x));
            prop_assert!(par.iter().zip(&seq).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}
