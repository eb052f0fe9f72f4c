//! The benchmark's input generator: xorshift64*, the same algorithm as the
//! repository's property-test harness, so a seed means the same thing in
//! both places. Every workload input is drawn from it; nothing else in the
//! benchmark is random.

/// Deterministic xorshift64* generator.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator for `seed` (0 is mapped to 1: xorshift has no zero state).
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed.max(1) }
    }

    /// An independent stream for one purpose of one seed, so adding draws to
    /// one stream never shifts another.
    pub fn stream(seed: u64, purpose: u64) -> Rng {
        let mut z = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng::new(z ^ (z >> 31))
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

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform value in `[lo, hi]`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: usize, den: usize) -> bool {
        self.below(den) < num
    }
}

/// FNV-1a over a byte stream: the digest of a workload's generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_xorshift64_star() {
        // xorshift64* from state 42, computed by hand.
        assert_eq!(Rng::new(42).next_u64(), 0x56CE_4AB7_719B_A3A0);
        let mut zero = Rng::new(0);
        let mut one = Rng::new(1);
        assert_eq!(zero.next_u64(), one.next_u64());
    }

    #[test]
    fn streams_differ_by_purpose_and_seed() {
        let a = Rng::stream(1, 1).next_u64();
        assert_ne!(a, Rng::stream(1, 2).next_u64());
        assert_ne!(a, Rng::stream(2, 1).next_u64());
    }
}
