//! Deterministic seeded pseudo-random number generator.
//!
//! The whole ecosystem draws stimuli, fault schedules, and placement moves
//! from this one generator so that every run is exactly reproducible from a
//! seed — the repo builds offline with no external `rand` dependency, and a
//! chaos campaign or placement result can be replayed bit-for-bit.
//!
//! The core is xorshift64* seeded through a splitmix64 scrambler (so that
//! small consecutive seeds produce uncorrelated streams).

/// A deterministic 64-bit PRNG (xorshift64* with splitmix64 seeding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// A generator seeded with `seed` (any value, including 0, is valid).
    pub fn new(seed: u64) -> Self {
        // splitmix64 finalizer: spreads low-entropy seeds over the state
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        DetRng {
            state: if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Next value as `u32`.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)` (`bound` 0 is treated as 1).
    pub fn below(&mut self, bound: u64) -> u64 {
        let bound = bound.max(1);
        // multiply-shift rejection-free mapping (Lemire); bias is < 2^-64
        // per draw, irrelevant for simulation workloads
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `i64` in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        let span = (hi as i128 - lo as i128 + 1) as u128;
        let off = (self.next_u64() as u128 * span) >> 64;
        (lo as i128 + off as i128) as i64
    }

    /// Uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A vector of `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = DetRng::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = DetRng::new(0);
        let v: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert!(v.iter().any(|&x| x != 0));
    }

    #[test]
    fn below_stays_in_bound() {
        let mut r = DetRng::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..50 {
                assert!(r.below(bound) < bound);
            }
        }
        assert_eq!(r.below(0), 0, "bound 0 treated as 1");
    }

    #[test]
    fn range_i64_inclusive_and_covering() {
        let mut r = DetRng::new(9);
        let mut seen = [false; 5];
        for _ in 0..500 {
            let v = r.range_i64(-2, 2);
            assert!((-2..=2).contains(&v));
            seen[(v + 2) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of a small range hit");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::new(3);
        for _ in 0..100 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
