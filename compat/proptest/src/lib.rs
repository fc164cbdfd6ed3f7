//! Offline mini property-testing harness with a `proptest`-compatible call
//! surface: the `proptest!` macro, numeric range strategies,
//! `prop::collection::vec`, and the `prop_assert*` macros.
//!
//! Differences from real proptest: cases are drawn from a fixed-seed
//! deterministic generator (seeded from the test name, so every run and
//! every machine sees the same inputs), there is no shrinking, and
//! `prop_assert*` panic immediately like plain `assert*`. That trades
//! minimized counterexamples for zero dependencies, which is the right
//! trade in this offline build.

use std::ops::Range;

/// Number of generated cases per property.
pub const CASES: usize = 64;

/// Deterministic case generator (SplitMix64 keyed by the test name).
pub struct TestRunner {
    state: u64,
}

impl TestRunner {
    /// Creates a runner whose stream is a pure function of `name`.
    pub fn new(name: &str) -> Self {
        // FNV-1a over the name gives a stable per-test seed.
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            seed ^= u64::from(b);
            seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRunner { state: seed }
    }

    /// Next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A source of generated values.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draws one value.
    fn sample(&self, runner: &mut TestRunner) -> Self::Value;
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, runner: &mut TestRunner) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add((runner.next_u64() % span) as $t)
            }
        }
    )*};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, runner: &mut TestRunner) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + (self.end - self.start) * runner.unit_f64()
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn sample(&self, runner: &mut TestRunner) -> f32 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + (self.end - self.start) * runner.unit_f64() as f32
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRunner};
    use std::ops::Range;

    /// Generates `Vec`s whose length is uniform in `len` and whose elements
    /// come from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, runner: &mut TestRunner) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + (runner.next_u64() % span) as usize;
            (0..n).map(|_| self.element.sample(runner)).collect()
        }
    }
}

/// Everything a `proptest!` test file needs in scope.
pub mod prelude {
    /// Alias so call sites can write `prop::collection::vec(...)`.
    pub use crate as prop;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
    pub use crate::{Strategy, TestRunner};
}

/// Declares deterministic property tests.
///
/// ```ignore
/// proptest! {
///     #[test]
///     fn holds(x in 0u64..10, y in 0.0f64..1.0) { prop_assert!(x as f64 + y < 11.0); }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut __runner = $crate::TestRunner::new(stringify!($name));
                for __case in 0..$crate::CASES {
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut __runner);)+
                    $body
                }
            }
        )*
    };
}

/// `assert!` with proptest's name.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` with proptest's name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` with proptest's name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the rest of the case when the assumption fails. The case body
/// expands inside `proptest!`'s per-case `for` loop, so `continue` moves
/// straight to the next generated case.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 5u64..50, f in -2.0f64..2.0) {
            prop_assert!((5..50).contains(&x));
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn vec_strategy_respects_len(xs in prop::collection::vec(0u32..10, 2..7)) {
            prop_assert!(xs.len() >= 2 && xs.len() < 7);
            prop_assert!(xs.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn runner_is_deterministic_per_name() {
        let mut a = TestRunner::new("n");
        let mut b = TestRunner::new("n");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRunner::new("other");
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
