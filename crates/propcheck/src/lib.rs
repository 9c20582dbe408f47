//! Minimal seeded property-test driver.
//!
//! A property is a plain function of a generator that returns `Err` (or
//! panics) when falsified; [`properties!`] turns a list of them into
//! `#[test]`s:
//!
//! ```
//! propcheck::properties! {
//!     cases: 256;
//!
//!     /// Sorting keeps every element.
//!     fn sort_keeps_the_length(g) {
//!         let xs = g.vec(0..50, propcheck::Gen::u8);
//!         let mut sorted = xs.clone();
//!         sorted.sort_unstable();
//!         propcheck::ensure_eq!(sorted.len(), xs.len());
//!     }
//! }
//! ```
//!
//! * **Generate.** Every case draws from its own [`Gen`], seeded from
//!   `(seed, case)` alone; [`check`] always uses [`SEED`], so runs repeat.
//! * **Shrink.** A `Gen` carries a *size budget* that scales every
//!   [`Gen::range`] and [`Gen::vec`] draw. Cases run at the full budget
//!   (ranges are uniform); a failing case is re-run with the budget halved
//!   for as long as it keeps failing, so the reported case is drawn from
//!   shorter vectors and smaller numbers than the one first found.
//! * **Replay.** The failure message carries the seed, the case and the
//!   `propcheck::replay(seed, case, property::<name>)` line that re-runs
//!   exactly that case (shrink included); paste it into a `#[test]` to
//!   keep the case forever. A panic inside a property is caught and
//!   reported the same way.
//!
//! No strategy types, no environment variables.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Bound, RangeBounds};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The size budget of an unshrunk case.
pub const FULL: u32 = 1 << 10;

/// The seed of every [`check`] run.
pub const SEED: u64 = 0xFAB;

/// The random source of one case: a splitmix64 stream (the algorithm of
/// `fab_simnet::Rng64`, stepped here so this crate depends on nothing).
#[derive(Debug)]
pub struct Gen {
    state: u64,
    size: u32,
}

impl Gen {
    fn new(seed: u64, case: u32, size: u32) -> Self {
        let state = seed ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut g = Gen { state, size };
        // Neighbouring cases would otherwise walk overlapping stretches of
        // one additive sequence; start each at a hashed position instead.
        g.state = g.u64();
        g
    }

    /// Any `u64` (never scaled: use it for seeds and opaque payloads).
    pub fn u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Any `u8` (never scaled).
    pub fn u8(&mut self) -> u8 {
        self.u64() as u8
    }

    /// A fair coin (never scaled).
    pub fn bool(&mut self) -> bool {
        self.u64() >> 63 == 1
    }

    /// Uniform in the integer `range` at the full size budget; a shrunk
    /// case draws from the low `size / FULL` share of it (the lower bound at
    /// least).
    ///
    /// # Panics
    ///
    /// If `range` is empty or lacks a bound.
    pub fn range<T>(&mut self, range: impl RangeBounds<T>) -> T
    where
        T: Copy + TryInto<i128> + TryFrom<i128>,
    {
        let wide = |v: &T| (*v).try_into().ok().expect("an integer narrower than i128");
        let lo: i128 = match range.start_bound() {
            Bound::Included(v) => wide(v),
            Bound::Excluded(v) => wide(v) + 1,
            Bound::Unbounded => panic!("Gen::range needs a lower bound"),
        };
        let hi: i128 = match range.end_bound() {
            Bound::Included(v) => wide(v),
            Bound::Excluded(v) => wide(v) - 1,
            Bound::Unbounded => panic!("Gen::range needs an upper bound"),
        };
        assert!(lo <= hi, "Gen::range: empty range");
        let span = (hi - lo) as u128 + 1;
        let scaled = (span * u128::from(self.size))
            .div_ceil(u128::from(FULL))
            .max(1);
        let draw = (u128::from(self.u64()) << 64 | u128::from(self.u64())) % scaled;
        T::try_from(lo + draw as i128)
            .ok()
            .expect("inside the range")
    }

    /// A vector whose length is drawn from `len` (scaled like any range).
    pub fn vec<T>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| item(self)).collect()
    }

    /// One of `options` (earlier ones when shrunk).
    pub fn pick<T: Clone>(&mut self, options: &[T]) -> T {
        options[self.range(0..options.len())].clone()
    }
}

/// A falsified property: where it was found and what it said.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The run's seed.
    pub seed: u64,
    /// The failing case's index within the run.
    pub case: u32,
    /// The smallest size budget at which the case still failed.
    pub size: u32,
    /// The property's `Err`, or its panic message.
    pub message: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (seed, case) = (self.seed, self.case);
        writeln!(
            f,
            "property falsified (seed {seed:#x}, case {case}, size budget {}/{FULL})",
            self.size
        )?;
        writeln!(f, "{}", self.message)?;
        write!(
            f,
            "replay with: propcheck::replay({seed:#x}, {case}, <the property>)"
        )
    }
}

/// What a property is: `Err` (or a panic) when falsified.
pub type Outcome = Result<(), String>;

fn run_sized(seed: u64, case: u32, size: u32, prop: &impl Fn(&mut Gen) -> Outcome) -> Outcome {
    let mut g = Gen::new(seed, case, size);
    catch_unwind(AssertUnwindSafe(|| prop(&mut g))).unwrap_or_else(|payload| {
        let text = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        Err(format!(
            "panicked: {}",
            text.unwrap_or("(non-string payload)")
        ))
    })
}

/// Runs case `case` of run `seed` at the full budget and, if it fails,
/// halves the budget for as long as the case keeps failing.
pub fn run_case(seed: u64, case: u32, prop: &impl Fn(&mut Gen) -> Outcome) -> Option<Failure> {
    let mut message = run_sized(seed, case, FULL, prop).err()?;
    let mut size = FULL;
    while size > 0 {
        match run_sized(seed, case, size / 2, prop) {
            Err(smaller) => (size, message) = (size / 2, smaller),
            Ok(()) => break,
        }
    }
    Some(Failure {
        seed,
        case,
        size,
        message,
    })
}

/// The first failure among cases `0..cases` of run `seed`, shrunk.
pub fn run(seed: u64, cases: u32, prop: &impl Fn(&mut Gen) -> Outcome) -> Option<Failure> {
    (0..cases).find_map(|case| run_case(seed, case, prop))
}

/// Checks `prop` on cases `0..cases` of run [`SEED`].
///
/// # Panics
///
/// With the [`Failure`] (seed, case, message, replay line) if a case fails.
pub fn check(cases: u32, prop: impl Fn(&mut Gen) -> Outcome) {
    if let Some(failure) = run(SEED, cases, &prop) {
        panic!("{failure}");
    }
}

/// Re-runs exactly one case of an earlier [`check`] — the line its failure
/// message prints.
///
/// # Panics
///
/// With the [`Failure`] if the case still fails.
pub fn replay(seed: u64, case: u32, prop: impl Fn(&mut Gen) -> Outcome) {
    if let Some(failure) = run_case(seed, case, &prop) {
        panic!("{failure}");
    }
}

/// Declares the properties as functions in a `property` module — falling
/// off the end of a body passes — and one `#[test]` per property that runs
/// `cases` cases through [`check`]. A failure of `p` replays with
/// `propcheck::replay(seed, case, property::p)`.
#[macro_export]
macro_rules! properties {
    (cases: $cases:expr; $($(#[$meta:meta])* fn $name:ident($g:ident) $body:block)+) => {
        mod property {
            #[allow(unused_imports)]
            use super::*;
            $(pub fn $name($g: &mut $crate::Gen) -> $crate::Outcome {
                $body
                Ok(())
            })+
        }
        $($(#[$meta])*
        #[test]
        fn $name() {
            $crate::check($cases, property::$name);
        })+
    };
}

/// Returns `Err` from the enclosing property unless the condition holds.
#[macro_export]
macro_rules! ensure {
    ($cond:expr $(, $($fmt:tt)+)?) => {
        if !($cond) {
            let detail = String::new() $(+ ": " + &format!($($fmt)+))?;
            return Err(format!("{}:{}: ensure!({}){detail}", file!(), line!(), stringify!($cond)));
        }
    };
}

/// Returns `Err` from the enclosing property unless both sides are equal.
#[macro_export]
macro_rules! ensure_eq {
    ($left:expr, $right:expr $(, $($fmt:tt)+)?) => {
        match (&$left, &$right) {
            (left, right) => $crate::ensure!(
                *left == *right,
                "{} vs {}\n  left: {left:?}\n right: {right:?}",
                stringify!($left),
                String::from(stringify!($right)) $(+ ": " + &format!($($fmt)+))?
            ),
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// False for any vector of three or more elements; records each length.
    fn short_vectors_only(lens: &RefCell<Vec<usize>>) -> impl Fn(&mut Gen) -> Outcome + '_ {
        move |g| {
            let xs = g.vec(0..100, Gen::u8);
            lens.borrow_mut().push(xs.len());
            ensure!(xs.len() < 3, "len {}", xs.len());
            Ok(())
        }
    }

    #[test]
    fn a_true_property_passes_and_ranges_hold() {
        check(500, |g| {
            let (a, b, c) = (g.range(3u8..=5), g.range(-7i64..7), g.range(0usize..1));
            ensure!((3..=5).contains(&a) && (-7..7).contains(&b) && c == 0);
            ensure_eq!(g.range(u64::MAX - 1..=u64::MAX) | 1, u64::MAX);
            ensure!((2..=4).contains(&g.vec(2..=4, Gen::bool).len()));
            ensure!([10, 20, 30].contains(&g.pick(&[10, 20, 30])));
            Ok(())
        });
    }

    #[test]
    fn a_false_property_fails_shrunk_with_seed_and_replay_line() {
        let lens = RefCell::new(Vec::new());
        let failure = run(SEED, 256, &short_vectors_only(&lens)).expect("must be falsified");
        let text = failure.to_string();
        assert!(
            text.contains("seed 0xfab") && text.contains("lib.rs"),
            "{text}"
        );
        let line = format!("propcheck::replay(0xfab, {}, ", failure.case);
        assert!(text.contains(&line), "{text}");
        // The first failing run is the original, the last one is reported:
        // no longer than the original, and within what its budget allows.
        let lens = lens.into_inner();
        let original = *lens.iter().find(|&&l| l >= 3).expect("a failing run");
        let reported: usize = failure.message.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(failure.size < FULL, "never shrunk: {failure}");
        assert!(
            (3..=original).contains(&reported),
            "{reported} vs {original}"
        );
        assert!(reported <= (100 * failure.size as usize).div_ceil(FULL as usize));
    }

    #[test]
    fn replay_reproduces_the_reported_failure() {
        let lens = RefCell::new(Vec::new());
        let prop = short_vectors_only(&lens);
        let failure = run(SEED, 256, &prop).expect("must be falsified");
        assert_eq!(
            run_case(failure.seed, failure.case, &prop),
            Some(failure.clone())
        );
        let panic = catch_unwind(AssertUnwindSafe(|| {
            replay(failure.seed, failure.case, &prop);
        }))
        .expect_err("replay must fail too");
        assert_eq!(panic.downcast_ref::<String>(), Some(&failure.to_string()));
        // A case that passes replays silently.
        replay(failure.seed, failure.case, |_| Ok(()));
    }

    #[test]
    fn a_panicking_property_is_reported_with_its_case() {
        let failure = run(1, 64, &|g: &mut Gen| {
            assert!(g.range(0u32..10) < 9, "drew the nine");
            Ok(())
        })
        .expect("nine is drawn within 64 cases");
        assert!(
            failure.message.contains("panicked: drew the nine"),
            "{failure}"
        );
    }
}
