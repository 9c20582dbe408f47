//! Offline stand-in for `rand` 0.8: the few entry points the FAB crates
//! call (`SmallRng::seed_from_u64`, `gen::<u64|f64>`, `gen_range` over
//! integer ranges, `gen_bool`, `shuffle`). `SmallRng` is xoshiro256++
//! seeded through splitmix64, as on 64-bit targets of the real crate;
//! streams are deterministic per seed but not bit-identical to it.

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Types `Rng::gen_range` can produce.
pub trait SampleUniform: Sized {
    /// Uniform in `[lo, hi)` or, when `inclusive`, `[lo, hi]`.
    fn sample_between<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self;
}

pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_between(lo, hi, true, rng)
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }

        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                // Span as u128 so `lo..=MAX` cannot overflow; modulo bias is
                // below 2^-64 per draw and irrelevant to fault dice.
                let span = (hi as i128 - lo as i128) as u128 + u128::from(inclusive);
                assert!(span > 0, "gen_range: empty range");
                let draw = (u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())) % span;
                (lo as i128 + draw as i128) as $t
            }
        }
    )*};
}

int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl SampleUniform for f64 {
    fn sample_between<R: RngCore + ?Sized>(lo: f64, hi: f64, _inclusive: bool, rng: &mut R) -> f64 {
        lo + (hi - lo) * f64::sample(rng)
    }
}

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut seed: u64) -> Self {
            let mut s = [0u64; 4];
            for word in &mut s {
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    use super::Rng;

    pub trait SliceRandom {
        type Item;

        /// Fisher–Yates.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(rng.gen_range(0..self.len()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeded_streams_repeat_and_ranges_hold() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
            let x: u32 = a.gen_range(0..1_000_000);
            assert!(x < 1_000_000);
            let _: u32 = b.gen_range(0..1_000_000);
            let y: u64 = a.gen_range(3..=5);
            assert!((3..=5).contains(&y));
            let _: u64 = b.gen_range(3..=5);
            let f: f64 = a.gen();
            assert!((0.0..1.0).contains(&f));
            let _: f64 = b.gen();
        }
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut a);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }
}
