//! Property tests for the quantile sketch's merge laws.
//!
//! The merge contract (shard sketches merged in any order equal
//! sequential observation bit-for-bit) reduces to merge forming a
//! commutative monoid over sketches. Each law is asserted on
//! the full state (`PartialEq`) *and* the FNV-1a fingerprint, because
//! the fingerprint is what the determinism gate actually pins.

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
    fn merge_is_commutative(a in values(), b in values()) {
        let (sa, sb) = (sketch_of(&a), sketch_of(&b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.fingerprint(), ba.fingerprint());
    }

    #[test]
    fn merge_is_associative(a in values(), b in values(), c in values()) {
        let (sa, sb, sc) = (sketch_of(&a), sketch_of(&b), sketch_of(&c));
        // (a ∪ b) ∪ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a ∪ (b ∪ c)
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(left.fingerprint(), right.fingerprint());
    }

    #[test]
    fn empty_is_identity(a in values()) {
        let sa = sketch_of(&a);
        // a ∪ ∅ = a
        let mut padded = sa.clone();
        padded.merge(&QuantileSketch::new());
        prop_assert_eq!(&padded, &sa);
        prop_assert_eq!(padded.fingerprint(), sa.fingerprint());
        // ∅ ∪ a = a
        let mut seeded = QuantileSketch::new();
        seeded.merge(&sa);
        prop_assert_eq!(&seeded, &sa);
    }

    #[test]
    fn sharded_merge_equals_serial(a in values(), width in 1usize..9) {
        let serial = sketch_of(&a);
        let chunk = a.len().div_ceil(width).max(1);
        let mut merged = QuantileSketch::new();
        for shard in a.chunks(chunk) {
            merged.merge(&sketch_of(shard));
        }
        prop_assert_eq!(&merged, &serial);
        prop_assert_eq!(merged.fingerprint(), serial.fingerprint());
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
