//! Property tests for the quantile sketch.
//!
//! Order independence is asserted on the full state (`PartialEq`) *and*
//! the FNV-1a fingerprint, because the fingerprint is what the
//! determinism gate actually pins.

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
