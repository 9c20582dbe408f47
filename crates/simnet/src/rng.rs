//! The one random stream of the workspace: splitmix64, stable across
//! platforms and Rust versions, so a seed names the same schedule, plan
//! and workload on every machine.

/// A tiny deterministic PRNG (splitmix64). Not cryptographic; it drives
/// the simulator's delays and drops, the hosts' fault injection, the
/// synthetic workloads and the torture plans.
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Creates a stream seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng64 {
            state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// `true` with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Uniform value in `[0, 1)` (53 random bits).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_pinned_and_draws_stay_in_range() {
        // Reference splitmix64 seeded with 0 yields e220a8397b1dcdaf then
        // 6e789e6aa1b965f4; `new` pre-advances once, so this stream starts
        // at the second word. Torture plans and fingerprints hang off it.
        let mut rng = Rng64::new(0);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(rng.next_u64(), 0x06c4_5d18_8009_454f);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
            assert!((3..=9).contains(&rng.range(3, 9)));
            assert!((0.0..1.0).contains(&rng.unit()));
        }
        assert!(!rng.chance(0, 10) && rng.chance(10, 10));
    }
}
