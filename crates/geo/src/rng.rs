//! The workspace's one seeded generator: a splitmix64 stream, so a
//! seed names the same synthetic scene, world, fault plan and test
//! fixture on every machine and in every build.

/// A splitmix64 stream whose state starts at the raw seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The stream named by `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
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

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream every frozen digest downstream (ingest, linked, E0)
    /// is a function of.
    #[test]
    fn seed_1_stream_is_pinned() {
        let mut rng = SplitMix64::new(1);
        let raw: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert_eq!(
            raw,
            [
                0x910a_2dec_8902_5cc1,
                0xbeeb_8da1_658e_ec67,
                0xf893_a2ee_fb32_555e,
                0x71c1_8690_ee42_c90b,
                0x71bb_54d8_d101_b5b9,
                0xc34d_0bff_9015_0280,
                0xe099_ec6c_d736_3ca5,
                0x85e7_bb0f_1227_8575,
            ]
        );
    }

    #[test]
    fn samplers_consume_one_draw_each_and_stay_in_range() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for _ in 0..1000 {
            let raw = b.next_u64();
            let v = a.range(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&v));
            assert_eq!(v, -2.0 + (raw >> 11) as f64 / (1u64 << 53) as f64 * 7.0);
            assert_eq!(a.below(7), (b.next_u64() % 7) as usize);
            assert_eq!(a.chance(0.25), ((b.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < 0.25);
        }
        assert_eq!(a.below(0), 0);
    }
}
