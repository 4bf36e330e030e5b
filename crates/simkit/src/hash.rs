//! Stable, dependency-free hashing for determinism fingerprints.
//!
//! [`Fnv1a`] is a minimal 64-bit FNV-1a hasher — unlike
//! `std::collections::hash_map::DefaultHasher` it is not randomly keyed
//! per process, so fingerprints are comparable across runs, platforms and
//! processes. The journal, the observability span recorder and the
//! metrics registry all fold their state through this hasher, and the
//! tier-1 behaviour pin (`tests/fingerprints.rs`) compares the resulting
//! values across runs and with golden values.

/// Minimal FNV-1a (64-bit) streaming hasher.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the standard FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
    }

    /// Absorbs a byte slice, terminated by its length so adjacent
    /// variable-width fields cannot alias (`("ab","c")` ≠ `("a","bc")`).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
        self.write_u64(bytes.len() as u64);
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Absorbs an `f64` by bit pattern. Fingerprint equality therefore
    /// means *bit* equality — exactly the contract the behaviour pin
    /// checks.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a `u64` as one 64-bit word: a single xor + multiply rather
    /// than eight byte steps. This is the hot-path absorb for fixed-width
    /// fields (the span recorder folds ~10 words per span every control
    /// cycle). Word and byte absorbs produce *different* streams — a
    /// fingerprint must pick one discipline and keep it; all the
    /// determinism properties (cross-run, cross-width, cross-process
    /// stability) hold either way because the fold is pure.
    pub fn write_word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(Self::PRIME);
    }

    /// FNV-1a digest of a byte string (with the length terminator), for
    /// pre-hashing interned `&'static str` values into a single word that
    /// [`Fnv1a::write_word`] can absorb on the hot path.
    pub fn digest_of(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write_bytes(bytes);
        h.finish()
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a of the empty input is the offset basis; of "a" it is the
        // published 64-bit test vector (before the length terminator).
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write_u8(b'a');
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn field_boundaries_do_not_alias() {
        let mut a = Fnv1a::new();
        a.write_bytes(b"ab");
        a.write_bytes(b"c");
        let mut b = Fnv1a::new();
        b.write_bytes(b"a");
        b.write_bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn word_absorb_is_deterministic_and_order_sensitive() {
        let fold = |words: &[u64]| {
            let mut h = Fnv1a::new();
            for &w in words {
                h.write_word(w);
            }
            h.finish()
        };
        assert_eq!(fold(&[1, 2, 3]), fold(&[1, 2, 3]));
        assert_ne!(fold(&[1, 2, 3]), fold(&[3, 2, 1]), "order must matter");
        // One word step ≠ eight byte steps: distinct disciplines.
        let mut bytes = Fnv1a::new();
        bytes.write_u64(7);
        let mut word = Fnv1a::new();
        word.write_word(7);
        assert_ne!(bytes.finish(), word.finish());
    }

    #[test]
    fn digest_of_matches_write_bytes() {
        let mut h = Fnv1a::new();
        h.write_bytes(b"cycle");
        assert_eq!(Fnv1a::digest_of(b"cycle"), h.finish());
        assert_ne!(Fnv1a::digest_of(b"cycle"), Fnv1a::digest_of(b"select"));
    }

    #[test]
    fn f64_is_hashed_by_bits() {
        let mut pos = Fnv1a::new();
        pos.write_f64(0.0);
        let mut neg = Fnv1a::new();
        neg.write_f64(-0.0);
        assert_ne!(pos.finish(), neg.finish(), "-0.0 and 0.0 differ in bits");
    }
}
