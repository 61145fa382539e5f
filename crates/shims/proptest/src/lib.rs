//! Offline stand-in for the `proptest` crate.
//!
//! This build environment has no crates.io access, so the workspace vendors
//! the subset of proptest's API that the fdjoin property tests use:
//!
//! - the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! - [`Strategy`] with `prop_map` / `prop_flat_map` / `prop_filter`,
//! - range and [`any`] strategies, tuple strategies, [`collection::vec`],
//! - [`prop_assert!`] / [`prop_assert_eq!`].
//!
//! Differences from upstream: cases are generated from a deterministic
//! per-test seed (reproducible across runs), there is **no shrinking**, and
//! failure reports carry the case index instead of a minimized input.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Deterministic SplitMix64 case generator.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeded constructor; [`proptest!`] derives the seed from the test name.
    pub fn new(seed: u64) -> TestRng {
        TestRng {
            state: seed ^ 0xA076_1D64_78BD_642F,
        }
    }

    /// Next raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next word pair as a u128.
    pub fn next_u128(&mut self) -> u128 {
        ((self.next_u64() as u128) << 64) | self.next_u64() as u128
    }
}

/// FNV-1a, used to derive a per-test seed from its name.
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A failed test case; produced by the `prop_assert*` macros.
#[derive(Debug)]
pub struct TestCaseError(pub String);

/// What a [`proptest!`] body desugars to.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A generator of values for property tests.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then a dependent strategy from it.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Reject values failing the predicate (resampling, bounded retries).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(self, label: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            label,
            f,
        }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    label: &'static str,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..10_000 {
            let v = self.inner.sample(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter {:?} rejected 10000 consecutive samples",
            self.label
        );
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128).wrapping_sub(self.start as i128) as u128;
                let off = rng.next_u128() % span;
                ((self.start as i128).wrapping_add(off as i128)) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<i128> {
    type Value = i128;
    fn sample(&self, rng: &mut TestRng) -> i128 {
        assert!(self.start < self.end, "empty range strategy");
        let span = self.end.wrapping_sub(self.start) as u128;
        let off = rng.next_u128() % span;
        self.start.wrapping_add(off as i128)
    }
}

/// Full-domain types for [`any`].
pub trait Arbitrary: Sized {
    /// Draw from the entire domain of `Self`.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_word {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_word!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u128()
    }
}

impl Arbitrary for i128 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u128() as i128
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy over the full domain of `T`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()`: the full-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident / $idx:tt),+)),+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}
impl_tuple_strategy!(
    (A / 0, B / 1),
    (A / 0, B / 1, C / 2),
    (A / 0, B / 1, C / 2, D / 3),
    (A / 0, B / 1, C / 2, D / 3, E / 4),
    (A / 0, B / 1, C / 2, D / 3, E / 4, F / 5)
);

/// Collection strategies (subset: `vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Element count for [`vec()`]: exact or ranged.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy producing `Vec`s of `element` with a size drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let n = self.size.lo + (rng.next_u64() % span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Per-run configuration (subset: case count).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

impl ProptestConfig {
    /// Override the case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Assert a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: {} ({}:{}): {}",
                stringify!($cond),
                file!(),
                line!(),
                format!($($fmt)+)
            )));
        }
    };
}

/// Assert equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: {} == {} ({}:{})",
                stringify!($a),
                stringify!($b),
                file!(),
                line!()
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: {} == {} ({}:{}): {}",
                stringify!($a),
                stringify!($b),
                file!(),
                line!(),
                format!($($fmt)+)
            )));
        }
    }};
}

/// Discard the current case when an assumption fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Define property tests. Mirrors upstream syntax:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_prop(x in 0u64..10, v in collection::vec(0i64..5, 1..4)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg($cfg:expr) $($(#[$meta:meta])* fn $name:ident ($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::new($crate::fnv1a(concat!(
                    module_path!(),
                    "::",
                    stringify!($name)
                )));
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                    let outcome: $crate::TestCaseResult = (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!("proptest case {}/{} failed: {}", case + 1, config.cases, e.0);
                    }
                }
            }
        )*
    };
}

/// Everything a test file needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, proptest, Any, Just, ProptestConfig,
        Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn ranges_in_bounds(x in 3u64..17, y in -5i64..5, z in 0i128..1000) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..5).contains(&y));
            prop_assert!((0..1000).contains(&z));
        }

        #[test]
        fn combinators_compose(v in collection::vec(0u64..10, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn flat_map_and_filter(
            pair in (1usize..4, 1usize..4).prop_flat_map(|(n, m)| {
                collection::vec(0i64..6, n * m).prop_map(move |v| (n, m, v))
            }),
            nz in any::<i64>().prop_filter("nonzero", |v| *v != 0),
        ) {
            let (n, m, v) = pair;
            prop_assert_eq!(v.len(), n * m);
            prop_assert!(nz != 0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::TestRng::new(1);
        let mut b = crate::TestRng::new(1);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
