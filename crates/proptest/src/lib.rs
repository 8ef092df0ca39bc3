//! A minimal, dependency-free stand-in for the [`proptest`] crate.
//!
//! The workspace builds fully offline, so the real proptest cannot be
//! fetched from crates.io. This shim implements the slice of its API the
//! property tests use:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * [`prop_assert!`] / [`prop_assert_eq!`],
//! * the [`Strategy`] trait with `prop_map`,
//! * numeric range strategies, tuple strategies, [`Just`], [`any`],
//!   [`prop_oneof!`], and [`collection::vec`],
//! * [`ProptestConfig`] with a `cases` knob.
//!
//! Unlike the real crate there is **no shrinking**: a failing case panics
//! with the case index and message. Generation is deterministic — the RNG
//! is seeded from the test's module path and name — so failures reproduce
//! exactly across runs.
//!
//! [`proptest`]: https://docs.rs/proptest

use std::ops::{Range, RangeInclusive};

/// Run-time configuration for a [`proptest!`] block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
    /// Accepted for source compatibility; shrinking is not implemented.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self {
            cases: 64,
            max_shrink_iters: 0,
        }
    }
}

/// Deterministic xoshiro256++ generator used for case generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: [u64; 4],
}

impl TestRng {
    /// Seeds the generator from an arbitrary label (test name).
    pub fn deterministic(label: &str) -> Self {
        // FNV-1a over the label, then SplitMix64 state expansion.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let mut x = h;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            state: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    pub(crate) fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A value generator. The real proptest couples this with shrinking; here
/// it is a plain deterministic sampler.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! impl_int_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut TestRng) -> $ty {
                let span = (self.end - self.start) as u64;
                assert!(span > 0, "empty integer range strategy");
                self.start + (rng.next_u64() % span) as $ty
            }
        }

        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut TestRng) -> $ty {
                let span = (*self.end() - *self.start()) as u64 + 1;
                *self.start() + (rng.next_u64() % span) as $ty
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// A strategy that always produces the same value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// A uniform choice between boxed strategies of one value type — what
/// [`prop_oneof!`] builds (the real crate's `TupleUnion`, minus weights).
pub struct Union<T> {
    options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// Creates a union; one option is drawn uniformly per generated case.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Self { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = (rng.next_u64() % self.options.len() as u64) as usize;
        self.options[idx].generate(rng)
    }
}

/// Picks uniformly among the given strategies (all must produce the same
/// value type). Unlike the real crate, weights are not supported.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(::std::vec![$(
            ::std::boxed::Box::new($strategy)
                as ::std::boxed::Box<dyn $crate::Strategy<Value = _>>
        ),+])
    };
}

/// Types with a canonical strategy over their whole value space, for
/// [`any`].
pub trait Arbitrary: Sized {
    /// The strategy [`any`] returns.
    type Strategy: Strategy<Value = Self>;

    /// The canonical whole-domain strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Uniform coin flip (the [`Arbitrary`] strategy for `bool`).
#[derive(Debug, Clone, Copy, Default)]
pub struct BoolStrategy;

impl Strategy for BoolStrategy {
    type Value = bool;

    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = BoolStrategy;

    fn arbitrary() -> Self::Strategy {
        BoolStrategy
    }
}

/// The canonical strategy for `T` (`any::<bool>()` etc.).
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// A collection length: fixed or drawn per case from a range — the
    /// shim's version of the real crate's `SizeRange` (`vec(s, 8)`,
    /// `vec(s, 2..10)` and `vec(s, 2..=9)` all work).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        /// Inclusive upper bound.
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(len: usize) -> Self {
            Self { lo: len, hi: len }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty length range strategy");
            Self {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty length range strategy");
            Self {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s from `element`, with a fixed or ranged
    /// length.
    pub fn vec<S: Strategy>(element: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            len: len.into(),
        }
    }

    /// Strategy returned by [`vec`](fn@vec).
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.len.hi == self.len.lo {
                self.len.lo
            } else {
                let span = (self.len.hi - self.len.lo + 1) as u64;
                self.len.lo + (rng.next_u64() % span) as usize
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The usual `use proptest::prelude::*;` surface.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a [`proptest!`] body, failing the case with
/// a formatted message instead of unwinding mid-generation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(
                ::std::format!("assertion failed: {}", ::std::stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Equality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{} == {}`\n  left: {l:?}\n right: {r:?}",
                ::std::stringify!($left),
                ::std::stringify!($right),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `config.cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@expand ($cfg) $($rest)*);
    };
    (@expand ($cfg:expr)
        $( $(#[$meta:meta])* fn $name:ident ( $($arg:pat in $strategy:expr),* $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::deterministic(
                    ::std::concat!(::std::module_path!(), "::", ::std::stringify!($name)),
                );
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)*
                    let outcome: ::std::result::Result<(), ::std::string::String> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(message) = outcome {
                        ::std::panic!(
                            "proptest {} failed at case {}/{}: {}",
                            ::std::stringify!($name),
                            case + 1,
                            config.cases,
                            message,
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@expand ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::deterministic("bounds");
        for _ in 0..1000 {
            let f = Strategy::generate(&(0.25f64..0.75), &mut rng);
            assert!((0.25..0.75).contains(&f));
            let u = Strategy::generate(&(3u32..=7), &mut rng);
            assert!((3..=7).contains(&u));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = crate::TestRng::deterministic("same-label");
        let mut b = crate::TestRng::deterministic("same-label");
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        #[test]
        fn macro_runs_cases(x in 0.0f64..1.0, (a, b) in (0u32..4, 1usize..3)) {
            prop_assert!((0.0..1.0).contains(&x), "x out of range: {x}");
            prop_assert!(a < 4 && b >= 1);
        }

        #[test]
        fn vec_and_map_compose(v in crate::collection::vec(-1.0f64..1.0, 8).prop_map(|v| v.len())) {
            prop_assert_eq!(v, 8);
        }

        #[test]
        fn vec_with_ranged_length(
            half_open in crate::collection::vec(0.0f64..1.0, 2..10),
            inclusive in crate::collection::vec(0.0f64..1.0, 3..=5),
        ) {
            prop_assert!((2..10).contains(&half_open.len()), "{}", half_open.len());
            prop_assert!((3..=5).contains(&inclusive.len()), "{}", inclusive.len());
        }

        #[test]
        fn oneof_just_and_any(
            pick in prop_oneof![crate::Just(1usize), crate::Just(7usize), crate::Just(64usize)],
            flag in crate::any::<bool>(),
        ) {
            // `flag` only has to be generable; fold it in so neither arm
            // of the coin is a tautology on its own.
            let expected: &[usize] = if flag { &[1, 7, 64] } else { &[64, 7, 1] };
            prop_assert!(expected.contains(&pick));
        }
    }
}
