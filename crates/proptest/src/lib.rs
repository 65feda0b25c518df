//! First-party property-testing harness.
//!
//! Presents the subset of the `proptest` macro and strategy surface the
//! workspace's tests use — `proptest! {}` blocks, range and collection
//! strategies, `prop_assert*` / `prop_assume` — running each property over a
//! fixed number of deterministic cases seeded from [`asyncfl_rng`]. Not a
//! shrinking property tester: a failure reports the case number, and the
//! case is exactly reproducible because every input is a pure function of
//! the case index.
//!
//! Consumers import this crate under the name `proptest` (a Cargo
//! dependency rename), so test code reads identically to upstream usage
//! while the build stays hermetic (no registry access; see DESIGN.md).

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

use asyncfl_rng::rngs::StdRng;
use asyncfl_rng::{RngExt, SeedableRng};

pub mod strategy {
    use super::*;

    /// A source of deterministic test-case values.
    pub trait Strategy {
        type Value;
        fn sample_value(&self, rng: &mut StdRng) -> Self::Value;
    }

    macro_rules! int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample_value(&self, rng: &mut StdRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample_value(&self, rng: &mut StdRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
        )*};
    }
    int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample_value(&self, rng: &mut StdRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
        )*};
    }
    float_strategy!(f32, f64);

    macro_rules! tuple_strategy {
        ($($S:ident $idx:tt),+) => {
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn sample_value(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.sample_value(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A 0);
    tuple_strategy!(A 0, B 1);
    tuple_strategy!(A 0, B 1, C 2);
    tuple_strategy!(A 0, B 1, C 2, D 3);
    tuple_strategy!(A 0, B 1, C 2, D 3, E 4);
    tuple_strategy!(A 0, B 1, C 2, D 3, E 4, F 5);

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample_value(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::*;

    /// Sizes a collection strategy can draw: a fixed count or a range.
    pub trait SizeRange {
        fn pick(&self, rng: &mut StdRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl SizeRange for core::ops::Range<usize> {
        fn pick(&self, rng: &mut StdRng) -> usize {
            rng.random_range(self.clone())
        }
    }

    impl SizeRange for core::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut StdRng) -> usize {
            rng.random_range(self.clone())
        }
    }

    pub struct VecStrategy<S: Strategy, R: SizeRange> {
        element: S,
        size: R,
    }

    /// Strategy producing a `Vec` of `size.pick()` elements.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn sample_value(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.sample_value(rng)).collect()
        }
    }
}

pub mod test_runner {
    /// A failed (or assumption-filtered) property case.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        pub fn fail<S: Into<String>>(msg: S) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// The generator for case number `case` — a fixed, documented seed so
    /// any reported failure replays exactly.
    pub fn fresh_rng(case: u64) -> super::StdRng {
        use super::SeedableRng;
        super::StdRng::seed_from_u64(0xa5a5_0000 ^ case)
    }

    /// Number of cases each property runs.
    pub const CASES: u64 = 24;
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

#[macro_export]
macro_rules! proptest {
    ($(#![$blockattr:meta])* $($(#[$attr:meta])* fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            // Callers write `#[test]` themselves (real-proptest convention),
            // so the macro must not add a second one.
            $(#[$attr])*
            fn $name() {
                for __case in 0..$crate::test_runner::CASES {
                    let mut __rng = $crate::test_runner::fresh_rng(__case);
                    $(let $pat = $crate::strategy::Strategy::sample_value(&($strat), &mut __rng);)*
                    let __out: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    match __out {
                        ::std::result::Result::Ok(()) => {}
                        ::std::result::Result::Err(e) if e.0 == "__prop_assume_failed" => {}
                        ::std::result::Result::Err(e) => {
                            panic!("property {} failed on case {}: {}", stringify!($name), __case, e);
                        }
                    }
                }
            }
        )*
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (__a, __b) = (&$a, &$b);
        if __a != __b {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {:?} != {:?}", __a, __b),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if __a != __b {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (__a, __b) = (&$a, &$b);
        if __a == __b {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {:?} == {:?}",
                __a, __b
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                "__prop_assume_failed",
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::strategy::Strategy;

    proptest! {
        #[test]
        fn harness_runs_and_filters(x in 0u64..100, y in 0.0f64..1.0) {
            prop_assume!(x != 13);
            prop_assert!(x < 100);
            prop_assert!((0.0..1.0).contains(&y));
            prop_assert_eq!(x, x);
            prop_assert_ne!(x + 1, x);
        }
    }

    #[test]
    fn cases_replay_deterministically() {
        let draw = |case| {
            let mut rng = crate::test_runner::fresh_rng(case);
            (0u64..1000).sample_value(&mut rng)
        };
        for case in 0..4 {
            assert_eq!(draw(case), draw(case));
        }
    }
}
