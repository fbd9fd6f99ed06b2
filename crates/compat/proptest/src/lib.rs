//! Minimal, dependency-free stand-in for the subset of the `proptest` API
//! this workspace uses: the `proptest!` macro, `Strategy` with `prop_map`,
//! range/tuple/`Just`/`any::<bool>()` strategies, `prop_oneof!`,
//! `proptest::collection::{vec, hash_set}`, the `prop_assert*` macros and
//! `ProptestConfig::with_cases`.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this shim. Differences from upstream: no shrinking (a failing
//! case reports its seed and case number instead of a minimized input),
//! and a smaller default case count tuned for simulation-heavy tests.

use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod strategy {
    //! Value-generation strategies.

    use super::TestRng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice between boxed strategies (backs `prop_oneof!`).
    pub struct Union<V> {
        options: Vec<Box<dyn Strategy<Value = V>>>,
    }

    impl<V> std::fmt::Debug for Union<V> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Union({} options)", self.options.len())
        }
    }

    impl<V> Union<V> {
        /// Builds a union over `options`.
        ///
        /// # Panics
        ///
        /// Panics if `options` is empty.
        pub fn new(options: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.options.len());
            self.options[i].generate(rng)
        }
    }

    /// Boxes a strategy, erasing its concrete type (helper for
    /// `prop_oneof!`).
    pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
        Box::new(s)
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.in_range(self.clone())
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.in_range_inclusive(self.clone())
                }
            }
        )*};
    }

    range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

    macro_rules! tuple_strategy {
        ($(($($s:ident/$i:tt),+);)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A/0);
        (A/0, B/1);
        (A/0, B/1, C/2);
        (A/0, B/1, C/2, D/3);
        (A/0, B/1, C/2, D/3, E/4);
        (A/0, B/1, C/2, D/3, E/4, F/5);
        (A/0, B/1, C/2, D/3, E/4, F/5, G/6);
        (A/0, B/1, C/2, D/3, E/4, F/5, G/6, H/7);
    }
}

pub mod arbitrary {
    //! `any::<T>()` support.

    use super::strategy::Strategy;
    use super::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.below(2) == 1
        }
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    rng.next() as $t
                }
            }
        )*};
    }

    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct AnyStrategy<T>(PhantomData<fn() -> T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// The canonical strategy for `T`'s whole domain.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::TestRng;
    use std::collections::HashSet;
    use std::hash::Hash;

    /// Inclusive-exclusive element-count bounds for collection strategies.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<::std::ops::Range<usize>> for SizeRange {
        fn from(r: ::std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<::std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: ::std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.lo + rng.below(self.hi - self.lo)
        }
    }

    /// Strategy for `Vec<S::Value>` (see [`vec()`]).
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose length falls in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `HashSet<S::Value>` (see [`hash_set`]).
    #[derive(Debug, Clone)]
    pub struct HashSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates hash sets whose size falls in `size` when the element
    /// domain is large enough (duplicates are retried a bounded number of
    /// times).
    pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        HashSetStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        type Value = HashSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let n = self.size.pick(rng);
            let mut out = HashSet::with_capacity(n);
            let mut attempts = 0;
            while out.len() < n && attempts < n * 10 + 100 {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

pub mod test_runner {
    //! The (non-shrinking) case runner.

    /// Per-test configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 48 }
        }
    }

    /// A failed property case (carried by `prop_assert*`).
    #[derive(Debug, Clone)]
    pub struct TestCaseError(pub String);

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }
}

/// The generator threaded through strategies: seeded per test name and
/// case index so failures are reproducible.
#[derive(Debug, Clone)]
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    /// Deterministic generator for case `case` of test `name`.
    pub fn for_case(name: &str, case: u32) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        TestRng {
            inner: StdRng::seed_from_u64(h ^ ((case as u64) << 32 | 0x5DEECE66D)),
        }
    }

    fn next(&mut self) -> u64 {
        use rand::RngCore;
        self.inner.next_u64()
    }

    fn below(&mut self, n: usize) -> usize {
        use rand::Rng;
        self.inner.gen_range(0..n.max(1))
    }

    fn in_range<T>(&mut self, r: std::ops::Range<T>) -> T
    where
        std::ops::Range<T>: rand::SampleRange<Output = T>,
    {
        use rand::Rng;
        self.inner.gen_range(r)
    }

    fn in_range_inclusive<T>(&mut self, r: std::ops::RangeInclusive<T>) -> T
    where
        std::ops::RangeInclusive<T>: rand::SampleRange<Output = T>,
    {
        use rand::Rng;
        self.inner.gen_range(r)
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// inside the block becomes a `#[test]` running the body over generated
/// cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{ cfg = $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_fns {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut rng = $crate::TestRng::for_case(stringify!($name), case);
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        { $body }
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "property '{}' failed at case {}/{}: {}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        e
                    );
                }
            }
        }
    )*};
}

/// `assert!` that reports through the property runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!($($fmt)*),
            ));
        }
    };
}

/// `assert_eq!` that reports through the property runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} == {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "{}: {:?} != {:?}", format!($($fmt)*), a, b);
    }};
}

/// `assert_ne!` that reports through the property runner.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "{}: {:?} == {:?}", format!($($fmt)*), a, b);
    }};
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![$($crate::strategy::boxed($s)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_hold(x in 3u32..17, f in 0.0f64..1.0, q in 0u8..=4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((0.0..1.0).contains(&f));
            prop_assert!(q <= 4);
        }

        #[test]
        fn tuples_and_vecs(v in crate::collection::vec((0usize..4, any::<bool>()), 1..20)) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            for (a, _b) in v {
                prop_assert!(a < 4);
            }
        }

        #[test]
        fn oneof_and_map(x in prop_oneof![Just(1u32), Just(5u32)], y in (0u32..3).prop_map(|v| v * 2)) {
            prop_assert!(x == 1 || x == 5);
            prop_assert!(y % 2 == 0 && y <= 4);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        use crate::strategy::Strategy;
        let mut a = crate::TestRng::for_case("t", 0);
        let mut b = crate::TestRng::for_case("t", 0);
        let s = 0u64..1_000_000;
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }
}
