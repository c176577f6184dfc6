//! Offline stand-in for `proptest` (see `crates/compat/README.md`).
//!
//! Implements the subset this workspace uses: the [`proptest!`] /
//! [`prop_assert!`] / [`prop_oneof!`] macros, the [`Strategy`](strategy::Strategy) trait
//! with `prop_map` / `prop_filter` / `new_tree`, range and tuple
//! strategies, [`collection::vec`], [`option::of`], [`bool::ANY`] and
//! [`strategy::Just`].
//!
//! Differences from the real crate: cases are drawn from a fixed-seed
//! deterministic generator (so failures reproduce exactly) and failing
//! inputs are **not shrunk** — the first failing case is reported as-is
//! by the underlying `assert!`.

#![allow(clippy::type_complexity)]

pub mod test_runner {
    //! Configuration and the deterministic case runner.

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The RNG driving strategy generation.
    pub type TestRng = StdRng;

    /// Run configuration; only `cases` is interpreted.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases each property is checked against.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 64 }
        }
    }

    /// Why a strategy could not produce a value.
    #[derive(Debug, Clone)]
    pub struct Reason(pub String);

    impl From<&str> for Reason {
        fn from(s: &str) -> Reason {
            Reason(s.to_owned())
        }
    }

    /// An explicit test-case failure, as returned by property bodies.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError(msg.into())
        }

        /// Real proptest rejects the case; the shim treats rejection as
        /// failure (there is no shrinking or regeneration).
        pub fn reject(msg: impl Into<String>) -> TestCaseError {
            TestCaseError(msg.into())
        }
    }

    impl core::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            write!(f, "{}", self.0)
        }
    }

    /// Deterministic source of test cases.
    pub struct TestRunner {
        rng: TestRng,
        config: ProptestConfig,
    }

    impl TestRunner {
        /// A runner with the given config and the fixed default seed.
        pub fn new(config: ProptestConfig) -> TestRunner {
            TestRunner {
                rng: StdRng::seed_from_u64(0x70726f70_74657374),
                config,
            }
        }

        /// A deterministic runner with the default config.
        pub fn deterministic() -> TestRunner {
            TestRunner::new(ProptestConfig::default())
        }

        /// The case generator.
        pub fn rng(&mut self) -> &mut TestRng {
            &mut self.rng
        }

        /// The active configuration.
        pub fn config(&self) -> &ProptestConfig {
            &self.config
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use std::ops::Range;
    use std::rc::Rc;

    use rand::{Rng, SampleRange};

    use crate::test_runner::{Reason, TestRng, TestRunner};

    /// A generated value plus (in the real crate) its shrink state. The
    /// shim never shrinks, so the tree is just the value.
    pub trait ValueTree {
        /// The value's type.
        type Value;
        /// The current value.
        fn current(&self) -> Self::Value;
    }

    /// Trivial [`ValueTree`] holding one generated value.
    #[derive(Debug, Clone)]
    pub struct GenTree<T>(pub T);

    impl<T: Clone> ValueTree for GenTree<T> {
        type Value = T;
        fn current(&self) -> T {
            self.0.clone()
        }
    }

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value: Clone;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Draws one value wrapped in a (non-shrinking) tree.
        ///
        /// # Errors
        ///
        /// Never fails in the shim; the `Result` mirrors the real API.
        fn new_tree(&self, runner: &mut TestRunner) -> Result<GenTree<Self::Value>, Reason> {
            Ok(GenTree(self.generate(runner.rng())))
        }

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            O: Clone,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }

        /// Keeps only values satisfying `pred` (rejection sampling).
        fn prop_filter<F>(self, whence: impl Into<Reason>, pred: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                source: self,
                whence: whence.into(),
                pred,
            }
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        O: Clone,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    /// See [`Strategy::prop_filter`].
    #[derive(Clone)]
    pub struct Filter<S, F> {
        source: S,
        whence: Reason,
        pred: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..10_000 {
                let v = self.source.generate(rng);
                if (self.pred)(&v) {
                    return v;
                }
            }
            panic!("prop_filter rejected 10000 consecutive cases: {}", self.whence.0);
        }
    }

    /// Uniform choice between same-valued strategies
    /// ([`prop_oneof!`](crate::prop_oneof)).
    pub struct Union<T> {
        branches: Vec<Rc<dyn Fn(&mut TestRng) -> T>>,
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Union<T> {
            Union {
                branches: self.branches.clone(),
            }
        }
    }

    impl<T> Union<T> {
        /// Builds a union from pre-boxed branch generators.
        pub fn from_branches(branches: Vec<Rc<dyn Fn(&mut TestRng) -> T>>) -> Union<T> {
            assert!(!branches.is_empty(), "prop_oneof! needs at least one branch");
            Union { branches }
        }
    }

    impl<T: Clone> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.gen_range(0..self.branches.len());
            (self.branches[i])(rng)
        }
    }

    /// Boxes a strategy into a [`Union`] branch (used by
    /// [`prop_oneof!`](crate::prop_oneof)).
    pub fn branch<S>(s: S) -> Rc<dyn Fn(&mut TestRng) -> S::Value>
    where
        S: Strategy + 'static,
    {
        Rc::new(move |rng| s.generate(rng))
    }

    impl<T> Strategy for Range<T>
    where
        T: Clone,
        Range<T>: SampleRange<T>,
    {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    impl<T> Strategy for std::ops::RangeInclusive<T>
    where
        T: Clone,
        std::ops::RangeInclusive<T>: SampleRange<T>,
    {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }
}

pub mod collection {
    //! `Vec` strategies.

    use rand::Rng;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// An exact or ranged element count for [`vec`](fn@vec).
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi_exclusive: r.end() + 1,
            }
        }
    }

    /// Generates `Vec`s of `element` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec`](fn@vec).
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            assert!(
                self.size.lo < self.size.hi_exclusive,
                "empty vec size range"
            );
            let len = rng.gen_range(self.size.lo..self.size.hi_exclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use rand::Rng;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// `Some(inner)` with probability 1/2, else `None`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.gen_range(0u32..2) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

pub mod bool {
    //! `bool` strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Uniformly random booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyBool;

    /// The canonical `bool` strategy.
    pub const ANY: AnyBool = AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            use rand::RngCore;
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod prelude {
    //! The glob-import surface (`use proptest::prelude::*`).

    pub use crate::strategy::{Just, Strategy, ValueTree};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Declares property tests: each `fn name(pat in strategy, ...) { .. }`
/// becomes a function running the body over generated cases. As under
/// real proptest, the caller writes the `#[test]` attribute; the macro
/// passes every attribute through and adds none.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($config:expr) $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $config;
                let mut __runner = $crate::test_runner::TestRunner::new(__config.clone());
                let __strategy = ($($strat,)+);
                for __case in 0..__config.cases {
                    let ($($arg,)+) =
                        $crate::strategy::Strategy::generate(&__strategy, __runner.rng());
                    let _ = __case;
                    // The closure lets bodies `return Err(TestCaseError::..)`
                    // like under real proptest.
                    #[allow(clippy::redundant_closure_call)]
                    let __outcome: ::std::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > = (|| {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = __outcome {
                        panic!("property failed: {}", e);
                    }
                }
            }
        )*
    };
}

/// Asserts a property-test condition (plain `assert!` in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)+) => { assert!($($tt)+) };
}

/// Asserts equality in a property test (plain `assert_eq!` in the shim).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)+) => { assert_eq!($($tt)+) };
}

/// Asserts inequality in a property test (plain `assert_ne!` in the shim).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)+) => { assert_ne!($($tt)+) };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::from_branches(vec![
            $($crate::strategy::branch($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_runner_reproduces() {
        let strat = crate::collection::vec(0u64..100, 3..8);
        let mut r1 = crate::test_runner::TestRunner::deterministic();
        let mut r2 = crate::test_runner::TestRunner::deterministic();
        for _ in 0..20 {
            assert_eq!(
                strat.new_tree(&mut r1).unwrap().current(),
                strat.new_tree(&mut r2).unwrap().current()
            );
        }
    }

    std::thread_local! {
        static CASES_RUN: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(17))]

        // No `#[test]`: the macro adds none, so this is a plain function
        // that only the test below calls.
        fn counts_its_cases(_x in 0u8..4) {
            CASES_RUN.with(|n| n.set(n.get() + 1));
        }
    }

    #[test]
    fn a_property_runs_once_per_configured_case() {
        CASES_RUN.with(|n| n.set(0));
        counts_its_cases();
        assert_eq!(CASES_RUN.with(std::cell::Cell::get), 17);
    }

    #[test]
    fn the_default_config_runs_64_cases() {
        let runner = crate::test_runner::TestRunner::deterministic();
        assert_eq!(runner.config().cases, 64);
        assert_eq!(ProptestConfig::with_cases(5).cases, 5);
    }

    #[test]
    fn inclusive_ranges_reach_both_ends() {
        let mut runner = crate::test_runner::TestRunner::deterministic();
        let draws: Vec<u8> = (0..400).map(|_| (3u8..=6).generate(runner.rng())).collect();
        assert!(draws.iter().all(|d| (3..=6).contains(d)));
        assert!(draws.contains(&3) && draws.contains(&6));
    }

    #[test]
    fn vec_lengths_cover_their_size_range() {
        let mut runner = crate::test_runner::TestRunner::deterministic();
        let lengths: Vec<usize> = (0..400)
            .map(|_| {
                crate::collection::vec(0u8..2, 2..5)
                    .generate(runner.rng())
                    .len()
            })
            .collect();
        assert!(lengths.iter().all(|l| (2..5).contains(l)));
        for l in 2..5 {
            assert!(lengths.contains(&l), "length {l} never drawn");
        }
        // An exact size.
        assert_eq!(
            crate::collection::vec(0u8..2, 3)
                .generate(runner.rng())
                .len(),
            3
        );
    }

    #[test]
    fn choices_reach_every_outcome() {
        let mut runner = crate::test_runner::TestRunner::deterministic();
        let rng = runner.rng();
        let bools: Vec<bool> = (0..200).map(|_| crate::bool::ANY.generate(rng)).collect();
        assert!(bools.contains(&true) && bools.contains(&false));
        let opts: Vec<Option<u8>> = (0..200)
            .map(|_| crate::option::of(Just(9u8)).generate(rng))
            .collect();
        assert!(opts.contains(&None) && opts.contains(&Some(9)));
        let union = prop_oneof![Just('a'), Just('b'), Just('c')];
        let picks: Vec<char> = (0..200).map(|_| union.generate(rng)).collect();
        for c in ['a', 'b', 'c'] {
            assert!(picks.contains(&c), "branch {c} never chosen");
        }
    }

    #[test]
    fn case_errors_keep_their_message() {
        assert_eq!(TestCaseError::fail("too big").to_string(), "too big");
        assert_eq!(TestCaseError::reject("skip").0, "skip");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Combinators compose and respect their bounds.
        #[test]
        fn combinators_respect_bounds(
            xs in crate::collection::vec((1u64..10, 0usize..3), 0..6),
            flag in crate::bool::ANY,
            opt in crate::option::of(5u32..9),
            pick in prop_oneof![Just(1u8), Just(2u8), 3u8..5],
        ) {
            for (a, b) in &xs {
                prop_assert!((1..10).contains(a));
                prop_assert!(*b < 3);
            }
            prop_assert!(usize::from(flag) < 2);
            if let Some(v) = opt {
                prop_assert!((5..9).contains(&v));
            }
            prop_assert!((1..5).contains(&pick));
            prop_assert_ne!(pick, 0);
        }

        /// prop_map and prop_filter chain.
        #[test]
        fn map_filter_chain(v in (1u64..50).prop_filter("even", |x| x % 2 == 0).prop_map(|x| x * 3)) {
            prop_assert_eq!(v % 6, 0);
        }
    }
}
