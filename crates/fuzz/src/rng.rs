//! A small, dependency-free, bit-reproducible PRNG (xoshiro256** seeded by
//! SplitMix64). Fuzzing results must replay identically across platforms
//! and runs given a seed — the paper's "fully reproducible test cases".

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm).
#[derive(Clone, Debug)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Splitmix64-style mixing of a seed with a stream index (trial number,
/// instance index, …) — derives independent deterministic sub-seeds.
pub fn rng_split(seed: u64, index: u64) -> u64 {
    let mut x = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Xoshiro256 {
    /// Seeds the generator deterministically from a single value.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // All-zero state is invalid; splitmix cannot produce it from any
        // seed but guard anyway.
        if s.iter().all(|&x| x == 0) {
            s[0] = 1;
        }
        Xoshiro256 { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[lo, hi]` (inclusive). Panics if `lo > hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "invalid range [{lo}, {hi}]");
        let span = (hi as i128 - lo as i128 + 1) as u128;
        let v = ((self.next_u64() as u128) << 64 | self.next_u64() as u128) % span;
        (lo as i128 + v as i128) as i64
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f64 in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit_f64() * (hi - lo)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Picks an index in `[0, n)`. Panics on `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Xoshiro256::seed_from(42);
        let mut b = Xoshiro256::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256::seed_from(1);
        let mut b = Xoshiro256::seed_from(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = Xoshiro256::seed_from(7);
        for _ in 0..1000 {
            let v = r.range_i64(-5, 5);
            assert!((-5..=5).contains(&v));
        }
        // Degenerate range.
        assert_eq!(r.range_i64(3, 3), 3);
    }

    #[test]
    fn unit_in_zero_one() {
        let mut r = Xoshiro256::seed_from(9);
        for _ in 0..1000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn range_i64_covers_extremes() {
        let mut r = Xoshiro256::seed_from(11);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            match r.range_i64(0, 3) {
                0 => saw_lo = true,
                3 => saw_hi = true,
                _ => {}
            }
        }
        assert!(saw_lo && saw_hi);
    }
}
