//! Minimal offline stand-in for the rand 0.9 API the workspace uses:
//! `StdRng::seed_from_u64`, `Rng::random_range` over half-open and
//! inclusive numeric ranges, `Rng::random` and `Rng::random_bool`.
//! Deterministic splitmix64 core, so a seed names one stream on every
//! machine.

use std::ops::{Range, RangeInclusive};

pub mod rngs {
    #[derive(Clone, Debug)]
    pub struct StdRng {
        pub(crate) state: u64,
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        rngs::StdRng { state: seed }
    }
}

pub trait Rng {
    fn next_u64(&mut self) -> u64;

    /// Like rand's, the output type drives inference of the range's
    /// literal types (`let n: u32 = rng.random_range(1..10)`).
    fn random_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        let (low, high, inclusive) = range.bounds();
        T::sample(low, high, inclusive, self.next_u64())
    }

    fn random<T: Standard>(&mut self) -> T {
        T::from_raw(self.next_u64())
    }

    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl Rng for rngs::StdRng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Types `Rng::random` can produce.
pub trait Standard {
    fn from_raw(raw: u64) -> Self;
}

impl Standard for f64 {
    fn from_raw(raw: u64) -> f64 {
        (raw >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for u64 {
    fn from_raw(raw: u64) -> u64 {
        raw
    }
}

impl Standard for bool {
    fn from_raw(raw: u64) -> bool {
        raw >> 63 == 1
    }
}

/// Types `Rng::random_range` can produce.
pub trait SampleUniform: Sized {
    fn sample(low: Self, high: Self, inclusive: bool, raw: u64) -> Self;
}

impl SampleUniform for f64 {
    fn sample(low: f64, high: f64, _inclusive: bool, raw: u64) -> f64 {
        low + f64::from_raw(raw) * (high - low)
    }
}

impl SampleUniform for f32 {
    fn sample(low: f32, high: f32, _inclusive: bool, raw: u64) -> f32 {
        low + f64::from_raw(raw) as f32 * (high - low)
    }
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(low: $t, high: $t, inclusive: bool, raw: u64) -> $t {
                let span = (high as i128 - low as i128 + i128::from(inclusive)).max(1) as u128;
                (low as i128 + (raw as u128 % span) as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

pub trait SampleRange<T> {
    /// `(low, high, high is included)`.
    fn bounds(self) -> (T, T, bool);
}

impl<T> SampleRange<T> for Range<T> {
    fn bounds(self) -> (T, T, bool) {
        (self.start, self.end, false)
    }
}

impl<T> SampleRange<T> for RangeInclusive<T> {
    fn bounds(self) -> (T, T, bool) {
        let (low, high) = self.into_inner();
        (low, high, true)
    }
}
