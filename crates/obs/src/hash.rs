//! FNV-1a, the workspace's one checksum: recorder ids, served-output
//! digests, memory-audit checksums, characterization cache keys and the
//! experiments' state and document checksums all hash through
//! [`Fnv1a`], so a checksum computed in one crate compares with one
//! computed in another.
//!
//! The workspace is hermetic (no external hash crates), and
//! `std::hash::DefaultHasher` is not guaranteed stable across releases.

/// FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// Streaming FNV-1a (64-bit) hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher at the offset basis.
    #[inline]
    pub const fn new() -> Self {
        Fnv1a(OFFSET)
    }

    /// Fold one byte.
    #[inline]
    pub fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(PRIME);
    }

    /// Fold a byte slice.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    /// Fold a word as its eight little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a string followed by a `0xFF` terminator (a byte no UTF-8
    /// string contains), so `"ab"` + `"c"` differs from `"a"` + `"bc"`.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.byte(0xFF);
    }

    /// The digest so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a over a stream of 64-bit words (little-endian bytes), resumed
/// from `acc`; `acc == 0` starts at the offset basis. Folding a stream in
/// chunks gives the same digest as folding it at once.
#[inline]
pub fn fnv1a_words(acc: u64, words: &[i64]) -> u64 {
    let mut h = Fnv1a(if acc == 0 { OFFSET } else { acc });
    for &w in words {
        h.u64(w as u64);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn words_resume_across_chunks_and_strings_are_terminated() {
        let whole = fnv1a_words(0, &[1, -2, 3]);
        assert_eq!(fnv1a_words(fnv1a_words(0, &[1]), &[-2, 3]), whole);
        let (mut ab_c, mut a_bc) = (Fnv1a::new(), Fnv1a::new());
        ab_c.str("ab");
        ab_c.str("c");
        a_bc.str("a");
        a_bc.str("bc");
        assert_ne!(ab_c.finish(), a_bc.finish());
    }
}
