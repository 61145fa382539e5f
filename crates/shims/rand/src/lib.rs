//! Offline stand-in for the `rand` crate.
//!
//! This build environment has no crates.io access, so the workspace vendors
//! the *subset* of `rand`'s API that the fdjoin test suite and generators
//! actually use: `Rng::{gen, gen_range}`, `SeedableRng::seed_from_u64`, and
//! `rngs::StdRng`. The generator is SplitMix64 — deterministic, seedable,
//! and statistically fine for test-instance generation (it is NOT
//! cryptographic, and the streams differ from upstream `rand`).

#![forbid(unsafe_code)]

use std::ops::Range;

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Next raw word.
    fn next_u64(&mut self) -> u64;
}

/// Types samplable by [`Rng::gen`] (stand-in for `rand::distributions::Standard`).
pub trait Standard: Sized {
    /// Draw one value from the full domain.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_uint {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types samplable uniformly from a half-open range.
pub trait SampleUniform: Sized {
    /// Draw uniformly from `[lo, hi)`. Panics if the range is empty.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty gen_range");
                let span = (range.end as i128 - range.start as i128) as u128;
                // Modulo bias is < 2^-60 for the small spans used in tests.
                let off = (rng.next_u64() as u128) % span;
                (range.start as i128 + off as i128) as $t
            }
        }
    )*};
}
impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Sample a value of type `T` from its full domain.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Sample uniformly from a half-open range.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range)
    }

    /// Bernoulli(p).
    fn gen_bool(&mut self, p: f64) -> bool {
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable construction (subset: `seed_from_u64` only).
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic SplitMix64 generator (stand-in for `rand::rngs::StdRng`).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let (xa, xb, xc) = (a.gen::<u64>(), b.gen::<u64>(), c.gen::<u64>());
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v: u32 = rng.gen_range(0..100);
            assert!(v < 100);
            let w: i64 = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&w));
        }
    }

    #[test]
    fn gen_range_covers_span() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..500 {
            seen[rng.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
