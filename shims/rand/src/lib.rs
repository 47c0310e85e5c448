//! Shim for `rand` 0.8: the subset the simulation engine uses.
//!
//! `SmallRng` here is xoshiro256++ seeded via splitmix64 — a different
//! (but high-quality, deterministic) stream than rand 0.8's SmallRng.
//! The workspace only relies on statistical properties and same-seed
//! reproducibility, never on exact draw sequences.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Low-level source of randomness.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// High-level sampling helpers, blanket-implemented for every `RngCore`.
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }
}

impl<R: RngCore> Rng for R {}

/// Seeding by a single `u64`, the only constructor the workspace uses.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

#[inline]
fn unit_f64(bits: u64) -> f64 {
    // 53 uniform mantissa bits -> [0, 1).
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// Small, fast PRNG: xoshiro256++ (Blackman & Vigna).
    #[derive(Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut sm);
            }
            // All-zero state is the one forbidden state; splitmix64 of any
            // seed never yields four zeros, but guard anyway.
            if s == [0, 0, 0, 0] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Types samplable "from the standard distribution" via `rng.gen::<T>()`.
pub trait Standard {
    fn sample<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for f64 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

/// Ranges usable with `rng.gen_range(..)`.
pub trait SampleRange {
    type Output;
    fn sample<R: RngCore>(self, rng: &mut R) -> Self::Output;
}

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample<R: RngCore>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty f64 range");
        let u = unit_f64(rng.next_u64());
        let v = self.start + (self.end - self.start) * u;
        // Guard the open upper bound against rounding.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

/// Rejection-free bounded integer draw (Lemire-style multiply-shift).
#[inline]
fn bounded_u64<R: RngCore>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + bounded_u64(rng, span) as $t
            }
        }

        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty inclusive range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + bounded_u64(rng, span + 1) as $t
            }
        }
    )*};
}

int_sample_range!(usize);

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let mut c = SmallRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.gen::<u64>()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen::<u64>()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.gen::<u64>()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn unit_f64_in_range_and_uniform_ish() {
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let x = rng.gen_range(3usize..=9);
            assert!((3..=9).contains(&x));
            let y = rng.gen_range(-2.0f64..5.0);
            assert!((-2.0..5.0).contains(&y));
        }
    }
}
