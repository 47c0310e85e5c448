//! Shim for `proptest`: the subset this workspace's property suites use.
//!
//! Differences from real proptest, on purpose:
//! - sampling is plain pseudo-random (no bias toward edge cases) and there
//!   is **no shrinking** — a failing case prints its sampled inputs instead;
//! - the per-test RNG seed is derived from the test's name, so runs are
//!   fully deterministic and independent of declaration order.

#![forbid(unsafe_code)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};

pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        Strategy,
    };
}

/// RNG handed to strategies; deterministic per test name.
pub struct TestRng(SmallRng);

impl TestRng {
    pub fn next_u64(&mut self) -> u64 {
        self.0.gen::<u64>()
    }

    pub fn unit_f64(&mut self) -> f64 {
        self.0.gen::<f64>()
    }

    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            self.0.gen_range(0..n)
        }
    }
}

#[doc(hidden)]
pub fn test_rng(test_name: &str) -> TestRng {
    // FNV-1a over the name keeps each test's stream stable and distinct.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    TestRng(SmallRng::seed_from_u64(h))
}

pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 96 }
    }
}

/// A generator of values for property tests.
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128 - self.start as u128) as u64;
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u128 - lo as u128 + 1) as u64;
                if span == 0 {
                    // Full-width range.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}

int_strategies!(u8, u16, u32, u64, usize);

macro_rules! signed_int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + (rng.next_u64() % span) as i128) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + (rng.next_u64() % span) as i128) as $t
            }
        }
    )*};
}

signed_int_strategies!(i32, i64);

macro_rules! float_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let u = rng.unit_f64() as $t;
                let v = self.start + (self.end - self.start) * u;
                if v >= self.end { self.start } else { v }
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                lo + (hi - lo) * rng.unit_f64() as $t
            }
        }
    )*};
}

float_strategies!(f64);

macro_rules! tuple_strategies {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

arb_ints!(u16, u64);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

pub struct Any<T>(std::marker::PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection/sample strategy constructors, reachable as `prop::...`.
pub mod prop {
    pub mod collection {
        use super::super::{SizeRange, Strategy, TestRng};

        pub struct VecStrategy<S> {
            elem: S,
            size: SizeRange,
        }

        pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                elem,
                size: size.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = self.size.hi - self.size.lo + 1;
                let len = self.size.lo + rng.below(span);
                (0..len).map(|_| self.elem.sample(rng)).collect()
            }
        }
    }

    pub mod sample {
        use super::super::{Strategy, TestRng};

        pub struct Select<T> {
            items: Vec<T>,
        }

        pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
            assert!(!items.is_empty(), "select: empty choice set");
            Select { items }
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;

            fn sample(&self, rng: &mut TestRng) -> T {
                self.items[rng.below(self.items.len())].clone()
            }
        }
    }
}

/// Inclusive length bounds for collection strategies.
pub struct SizeRange {
    pub lo: usize,
    pub hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+);
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_eq!($a, $b, $($fmt)+);
    };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_ne!($a, $b, $($fmt)+);
    };
}

/// Skips the current case when its sampled inputs don't satisfy a
/// precondition. Expands to an early return from the per-case closure.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Declares property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `fn name()` that samples the strategies `cases` times and runs
/// the body; a panicking case reports its sampled inputs before propagating.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                let case_inputs = format!(
                    concat!($(stringify!($arg), " = {:?}, "),+),
                    $(&$arg),+
                );
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                    move || { $body },
                ));
                if let Err(payload) = outcome {
                    eprintln!(
                        "proptest shim: {} failed at case {}/{} with inputs: {}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        case_inputs
                    );
                    std::panic::resume_unwind(payload);
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 3u32..10, y in -5i64..=5, z in 0.5f64..2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-5..=5).contains(&y));
            prop_assert!((0.5..2.0).contains(&z));
        }

        #[test]
        fn vec_lengths_respect_size(xs in prop::collection::vec(0u8..=255, 2..7)) {
            prop_assert!(xs.len() >= 2 && xs.len() < 7);
        }

        #[test]
        fn select_draws_members(a in prop::sample::select(vec![1, 2, 3])) {
            prop_assert!([1, 2, 3].contains(&a));
        }

        #[test]
        fn assume_skips(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]
        #[test]
        fn config_applies(fp in any::<u16>().prop_map(|x| x & 0xff)) {
            prop_assert!(fp <= 0xff);
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = super::test_rng("x");
        let mut b = super::test_rng("x");
        let mut c = super::test_rng("y");
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..4).map(|_| c.next_u64()).collect::<Vec<_>>());
    }
}
