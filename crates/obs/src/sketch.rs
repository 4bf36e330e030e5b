//! Mergeable, integer-bucketed quantile sketch (DDSketch-style).
//!
//! The health plane needs power and latency *distributions*, not just
//! last values — and they must be mergeable: a sketch built from shard
//! sketches merged in any order must be **bit-identical** to one built
//! by observing every value in sequence. Floating-point accumulation
//! cannot give that (f64 addition is not associative), so everything
//! inside the sketch is integer arithmetic:
//!
//! * **Buckets** are derived from the IEEE-754 bit pattern: for a
//!   positive value the index is `to_bits() >> 45`, i.e. the exponent
//!   plus the top [`SUB_BITS`] mantissa bits — 128 geometric sub-buckets
//!   per octave. Quantiles are answered from the bucket midpoint, so the
//!   relative error is bounded by half a bucket width:
//!   `2^-(SUB_BITS+1) ≈ 0.39%`. No logarithms, no float rounding — the
//!   bucket of a value is a pure bit shift.
//! * **Counts** live in a dense `Vec<u64>` offset by the first observed
//!   bucket index, merged by per-bucket integer addition, which is
//!   exactly associative and commutative. A fleet's values span only a
//!   few octaves (~128 buckets each), so the table stays small and the
//!   hot `observe` path is a single indexed increment — the health
//!   plane sketches every node's power draw on sample ticks, so this
//!   path runs ~100k times per sample.
//! * **The sum** is fixed-point (`value × 1024`, rounded, accumulated in
//!   `i128`), so merged sums match serial sums bit-for-bit regardless of
//!   merge order.
//!
//! Merge therefore forms a commutative monoid with the empty sketch as
//! identity; the proptest suite pins all three laws on the fingerprint.

use ppc_simkit::hash::Fnv1a;
use serde::{Deserialize, Serialize};

/// Mantissa bits kept in the bucket index: 128 sub-buckets per octave.
pub const SUB_BITS: u32 = 7;
/// Shift applied to the raw f64 bit pattern to obtain the bucket index.
const INDEX_SHIFT: u32 = 52 - SUB_BITS;
/// Fixed-point scale for the deterministic sum (1/1024 of a unit).
const SUM_SCALE: f64 = 1024.0;

/// Guaranteed relative quantile error: half a geometric bucket.
pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / (1u64 << (SUB_BITS + 1)) as f64;

/// A mergeable quantile sketch over non-negative samples. See the
/// module docs for the determinism argument.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuantileSketch {
    /// Bucket index of `buckets[0]`; meaningless while `buckets` is
    /// empty.
    base: u32,
    /// Dense per-bucket counts starting at `base`. The first and last
    /// entries are always non-zero (growth is exact-fit), so equal
    /// observation multisets produce identical representations and the
    /// derived `PartialEq` is semantic equality.
    buckets: Vec<u64>,
    /// Observations that were zero, negative or non-finite.
    low: u64,
    /// Total observations (including `low`).
    count: u64,
    /// Fixed-point sum of all finite observations (units of 1/1024).
    sum_q: i128,
    /// Smallest finite observation (`+inf` when empty).
    min: f64,
    /// Largest finite observation (`-inf` when empty).
    max: f64,
}

/// Bucket index of a positive finite value: exponent + top mantissa
/// bits, straight from the bit pattern.
fn bucket_of(x: f64) -> u32 {
    (x.to_bits() >> INDEX_SHIFT) as u32
}

/// Lower edge of a bucket (the smallest value mapping to it).
fn bucket_lower(index: u32) -> f64 {
    f64::from_bits(u64::from(index) << INDEX_SHIFT)
}

/// Midpoint representative of a bucket, used to answer quantiles.
fn bucket_mid(index: u32) -> f64 {
    f64::from_bits((u64::from(index) << INDEX_SHIFT) | (1u64 << (INDEX_SHIFT - 1)))
}

impl QuantileSketch {
    /// An empty sketch (the merge identity).
    pub fn new() -> Self {
        QuantileSketch {
            base: 0,
            buckets: Vec::new(),
            low: 0,
            count: 0,
            sum_q: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation. Positive finite values land in a
    /// geometric bucket; zero, negative and non-finite values are
    /// counted in the `low` bucket (rank 0) and excluded from min/max
    /// and the sum when non-finite.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        if x.is_finite() {
            self.sum_q += fixed_point(x);
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        if x > 0.0 && x.is_finite() {
            self.bump(bucket_of(x), 1);
        } else {
            self.low += 1;
        }
    }

    /// Adds `n` observations to bucket `idx`, growing the dense table
    /// exactly far enough to cover it. Growth is rare (values cluster
    /// within a few octaves); the steady-state path is one indexed add.
    #[inline]
    fn bump(&mut self, idx: u32, n: u64) {
        if self.buckets.is_empty() {
            self.base = idx;
            self.buckets.push(n);
        } else if idx < self.base {
            let grow = (self.base - idx) as usize;
            self.buckets.splice(0..0, std::iter::repeat_n(0, grow));
            self.base = idx;
            self.buckets[0] += n;
        } else {
            let off = (idx - self.base) as usize;
            if off >= self.buckets.len() {
                self.buckets.resize(off + 1, 0);
            }
            self.buckets[off] += n;
        }
    }

    /// Occupied buckets as `(index, count)` pairs, ascending.
    fn occupied(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(move |(i, &n)| (self.base + i as u32, n))
    }

    /// Records every value of a slice, in order.
    pub fn observe_slice(&mut self, xs: &[f64]) {
        for &x in xs {
            self.observe(x);
        }
    }

    /// Merges another sketch into this one. Pure integer bucket/count
    /// addition plus min/max — exactly associative and commutative, so
    /// shard sketches merged in any order equal sequential observation
    /// bit-for-bit.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (idx, n) in other.occupied() {
            self.bump(idx, n);
        }
        self.low += other.low;
        self.count += other.count;
        self.sum_q += other.sum_q;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Observations that fell below the positive range.
    pub fn low_count(&self) -> u64 {
        self.low
    }

    /// Smallest finite observation.
    pub fn min(&self) -> Option<f64> {
        (self.min != f64::INFINITY).then_some(self.min)
    }

    /// Largest finite observation.
    pub fn max(&self) -> Option<f64> {
        (self.max != f64::NEG_INFINITY).then_some(self.max)
    }

    /// Sum of finite observations, reconstructed from the fixed-point
    /// accumulator (deterministic across merge orders).
    pub fn sum(&self) -> f64 {
        self.sum_q as f64 / SUM_SCALE
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), answered from bucket midpoints
    /// with relative error ≤ [`RELATIVE_ERROR_BOUND`]. `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if target <= self.low {
            return Some(0.0);
        }
        let mut cumulative = self.low;
        for (idx, n) in self.occupied() {
            cumulative += n;
            if cumulative >= target {
                return Some(bucket_mid(idx));
            }
        }
        // Unreachable when counts are consistent; fall back to max.
        Some(self.max)
    }

    /// Occupied buckets, ascending, as `(lower_edge, upper_edge, count)`
    /// triples — the raw material for cumulative-bucket exports.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.occupied()
            .map(|(idx, n)| (bucket_lower(idx), bucket_lower(idx + 1), n))
    }

    /// A serializable five-number summary for reports.
    pub fn summary(&self) -> SketchSummary {
        SketchSummary {
            count: self.count,
            p50: self.quantile(0.50).unwrap_or(0.0),
            p90: self.quantile(0.90).unwrap_or(0.0),
            p99: self.quantile(0.99).unwrap_or(0.0),
            max: self.max().unwrap_or(0.0),
        }
    }

    /// FNV-1a over the full sketch state: bucket table in index order,
    /// counts, fixed-point sum, min/max bits. Equal fingerprints mean
    /// bit-equal sketches.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.count);
        h.write_u64(self.low);
        h.write_u64(self.sum_q as u64);
        h.write_u64((self.sum_q >> 64) as u64);
        h.write_f64(self.min);
        h.write_f64(self.max);
        for (idx, n) in self.occupied() {
            h.write_u64(u64::from(idx));
            h.write_u64(n);
        }
        h.finish()
    }
}

/// Fixed-point quantization of one observation (saturating).
fn fixed_point(x: f64) -> i128 {
    (x * SUM_SCALE).round() as i128
}

/// Serializable five-number sketch summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SketchSummary {
    /// Observations folded in.
    pub count: u64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest finite observation.
    pub max: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_within_relative_error_bound() {
        let mut s = QuantileSketch::new();
        for i in 1..=10_000u32 {
            s.observe(f64::from(i) * 0.1);
        }
        for &(q, expect) in &[(0.5, 500.0), (0.9, 900.0), (0.99, 990.0), (1.0, 1000.0)] {
            let got = s.quantile(q).unwrap();
            let rel = (got - expect).abs() / expect;
            // Midpoint answer + discrete rank: allow one full bucket.
            assert!(
                rel <= 2.0 * RELATIVE_ERROR_BOUND + 1e-4,
                "q={q}: {got} vs {expect}"
            );
        }
        assert_eq!(s.count(), 10_000);
        assert_eq!(s.min(), Some(0.1));
        assert_eq!(s.max(), Some(1000.0));
        // sum_{1..=10000} i*0.1 = 5_000_500; fixed-point rounding errors
        // alternate in sign and cancel.
        assert!((s.sum() - 5_000_500.0).abs() < 1.0);
    }

    #[test]
    fn low_values_rank_at_zero() {
        let mut s = QuantileSketch::new();
        s.observe(0.0);
        s.observe(-4.0);
        s.observe(10.0);
        assert_eq!(s.low_count(), 2);
        assert_eq!(s.quantile(0.1), Some(0.0));
        let p99 = s.quantile(0.99).unwrap();
        assert!((p99 - 10.0).abs() / 10.0 <= RELATIVE_ERROR_BOUND);
    }

    #[test]
    fn sharded_merge_equals_serial_observation() {
        let values: Vec<f64> = (0..997u32)
            .map(|i| f64::from(i % 113) * 3.7 + 0.5)
            .collect();
        let mut serial = QuantileSketch::new();
        serial.observe_slice(&values);
        for width in [1usize, 2, 8] {
            let chunk = values.len().div_ceil(width);
            let mut merged = QuantileSketch::new();
            for shard in values.chunks(chunk) {
                let mut s = QuantileSketch::new();
                s.observe_slice(shard);
                merged.merge(&s);
            }
            assert_eq!(merged, serial, "width {width}");
            assert_eq!(merged.fingerprint(), serial.fingerprint(), "width {width}");
        }
    }

    #[test]
    fn empty_is_merge_identity() {
        let mut s = QuantileSketch::new();
        s.observe_slice(&[1.0, 2.0, 3.0]);
        let before = s.fingerprint();
        s.merge(&QuantileSketch::new());
        assert_eq!(s.fingerprint(), before);
        let mut e = QuantileSketch::new();
        let t = s.clone();
        e.merge(&t);
        assert_eq!(e, t);
        assert!(QuantileSketch::new().quantile(0.5).is_none());
    }

    #[test]
    fn bucket_edges_are_consistent() {
        for x in [0.001, 0.9, 1.0, 1.5, 37.2, 512.0, 1e9] {
            let idx = bucket_of(x);
            assert!(bucket_lower(idx) <= x && x < bucket_lower(idx + 1), "{x}");
            let mid = bucket_mid(idx);
            assert!((mid - x).abs() / x <= 2.0 * RELATIVE_ERROR_BOUND, "{x}");
        }
    }
}
