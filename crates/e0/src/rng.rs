//! The harness's own seeded generator (splitmix64), so the op schedule
//! and query parameters are a function of `--seed` alone — independent
//! of whichever `rand` the product crates link.

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Stream `stream` of `seed`: distinct streams (scene noise, fire
    /// positions, schedule, crash points) never share draws.
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        let mut rng = SplitMix64(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        rng.next_u64();
        rng
    }

    /// Next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[low, high)`.
    pub fn range(&mut self, low: f64, high: f64) -> f64 {
        low + self.unit() * (high - low)
    }

    /// Uniform in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_differs() {
        let draw = |seed, stream| {
            let mut r = SplitMix64::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
    }

    #[test]
    fn ranges_hold() {
        let mut r = SplitMix64::new(9, 3);
        for _ in 0..1000 {
            let v = r.range(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&v));
            assert!(r.below(7) < 7);
        }
    }
}
