//! Property tests for the quantile sketch.
//!
//! Order independence is asserted on the full state (`PartialEq`) *and*
//! the FNV-1a fingerprint, because the fingerprint is what the
//! behaviour pin (`tests/fingerprints.rs`) actually compares.

use ppc_obs::QuantileSketch;
use proptest::prelude::*;

/// Arbitrary observation values: positive powers/latencies across
/// orders of magnitude, plus the low-bucket edge cases (zero,
/// negatives). A selector digit mixes the three populations at an
/// 8:1:1 ratio.
fn values() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        (0u8..10, 1e-3..1e9f64).prop_map(|(sel, x)| match sel {
            8 => 0.0,
            9 => -(x.min(100.0)) - 0.5,
            _ => x,
        }),
        0..200,
    )
}

fn sketch_of(xs: &[f64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    s.observe_slice(xs);
    s
}

proptest! {
    #[test]
    fn observation_order_does_not_matter(a in values()) {
        let forward = sketch_of(&a);
        let mut reversed = a.clone();
        reversed.reverse();
        let backward = sketch_of(&reversed);
        prop_assert_eq!(&forward, &backward);
        prop_assert_eq!(forward.fingerprint(), backward.fingerprint());
    }

    #[test]
    fn quantiles_are_ordered_and_bounded(a in values()) {
        let s = sketch_of(&a);
        if let (Some(p50), Some(p99)) = (s.quantile(0.5), s.quantile(0.99)) {
            prop_assert!(p50 <= p99);
            if let Some(max) = s.max() {
                // Midpoint answers can only overshoot by the error bound.
                prop_assert!(p99 <= max.max(0.0) * (1.0 + 2.0 * ppc_obs::RELATIVE_ERROR_BOUND));
            }
        }
    }
}

/// Values for the slice kernel: the edge cases of every branch it takes
/// (zero of both signs, negatives, NaN, ±inf, the 2^47 fixed-point
/// boundary of its `i64` sum at 2^37, values above 2^53) mixed with
/// ordinary powers.
fn kernel_values() -> impl Strategy<Value = Vec<f64>> {
    const EDGES: [f64; 14] = [
        0.0,
        -0.0,
        -3.5,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        137_438_953_472.0, // 2^37: scaled, exactly 2^47
        137_438_953_471.999,
        -137_438_953_472.0,
        9_007_199_254_740_993.0, // above 2^53
        1.8e16,
        -2.5e17,
        1e30,
        f64::MIN_POSITIVE,
    ];
    prop::collection::vec(
        (0u8..4, 0usize..EDGES.len(), 1e-3..1e9f64).prop_map(|(sel, k, x)| match sel {
            0 => EDGES[k],
            _ => x,
        }),
        0..200,
    )
}

/// Observes `xs` one value at a time.
fn observed_one_by_one(start: &QuantileSketch, xs: &[f64]) -> QuantileSketch {
    let mut s = start.clone();
    for &x in xs {
        s.observe(x);
    }
    s
}

/// Bit-level view of a sketch's state beyond its fingerprint.
fn state(s: &QuantileSketch) -> (u64, u64, Option<u64>, Option<u64>, u64, u64) {
    (
        s.count(),
        s.low_count(),
        s.min().map(f64::to_bits),
        s.max().map(f64::to_bits),
        s.sum().to_bits(),
        s.fingerprint(),
    )
}

proptest! {
    /// `observe_slice` leaves exactly the state `observe` on each value
    /// leaves, from an empty sketch and from one already holding values.
    #[test]
    fn slice_equals_one_by_one(prefix in kernel_values(), xs in kernel_values()) {
        let start = observed_one_by_one(&QuantileSketch::new(), &prefix);
        let mut sliced = start.clone();
        sliced.observe_slice(&xs);
        let each = observed_one_by_one(&start, &xs);
        prop_assert_eq!(state(&sliced), state(&each));
        prop_assert_eq!(&sliced, &each);
    }
}

/// A slice longer than the kernel's `i64` chunk, with values just below
/// the 2^47 boundary, sums exactly as the per-value path does.
#[test]
fn long_slice_of_large_values_equals_one_by_one() {
    let xs: Vec<f64> = (0..100_000u32)
        .map(|i| match i % 5 {
            0 => 137_438_953_471.5,
            1 => -137_438_953_471.0,
            2 => 137_438_953_472.0 + f64::from(i),
            3 => 4e20,
            _ => f64::from(i) * 0.37,
        })
        .collect();
    let mut sliced = QuantileSketch::new();
    sliced.observe_slice(&xs);
    let each = observed_one_by_one(&QuantileSketch::new(), &xs);
    assert_eq!(state(&sliced), state(&each));
}
