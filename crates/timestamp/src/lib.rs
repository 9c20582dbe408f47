//! Process identity and totally ordered timestamps (§2.3 of the paper).
//!
//! The storage-register protocol orders operations by timestamps drawn from
//! a `newTS` primitive with three properties:
//!
//! * **Uniqueness** — any two invocations (on any processes) return
//!   different timestamps,
//! * **Monotonicity** — successive invocations on one process increase,
//! * **Progress** — if some `newTS` returned `t`, any process invoking
//!   `newTS` repeatedly eventually exceeds `t`.
//!
//! The paper notes a logical or real-time clock combined with the issuing
//! process id as a tiebreak satisfies all three. [`TimestampGenerator`]
//! implements exactly that hybrid scheme: `ticks = max(clock_hint,
//! last_ticks + 1)` with the process id breaking ties, so it degrades to a
//! Lamport clock when the time hint stalls and tracks real time when it
//! advances. Two distinguished sentinels [`Timestamp::LOW`] (`LowTS`) and
//! [`Timestamp::HIGH`] (`HighTS`) strictly bound every generated timestamp.
//!
//! # Examples
//!
//! ```
//! use fab_timestamp::{ProcessId, Timestamp, TimestampGenerator};
//!
//! let mut gen = TimestampGenerator::new(ProcessId::new(3));
//! let a = gen.next(100);
//! let b = gen.next(100); // same clock hint: still strictly increases
//! assert!(Timestamp::LOW < a && a < b && b < Timestamp::HIGH);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]
// Rule L5 (no-as-truncation), DESIGN.md §6.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

use std::fmt;

/// Identity of a process (storage brick) in the system `U = {p_1, …, p_n}`.
///
/// Process ids are dense small integers `0..n`; the paper's convention that
/// "process *j* stores block *j*" maps process id `j` to stripe block `j`
/// (0-based here: ids `0..m` hold data blocks, `m..n` parity blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Creates a process id.
    #[must_use]
    pub const fn new(id: u32) -> Self {
        ProcessId(id)
    }

    /// The raw integer id.
    #[must_use]
    pub const fn value(self) -> u32 {
        self.0
    }

    /// The id as an index into dense per-process arrays.
    #[must_use]
    #[expect(
        clippy::as_conversions,
        reason = "`TryFrom` is not callable in a `const fn`; u32→usize widens on every supported platform"
    )]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for ProcessId {
    fn from(id: u32) -> Self {
        ProcessId(id)
    }
}

impl From<ProcessId> for u32 {
    fn from(id: ProcessId) -> Self {
        id.0
    }
}

/// A totally ordered timestamp: logical ticks with the issuer's process id
/// as tiebreak.
///
/// The ordering is lexicographic on `(ticks, pid)`, which gives the total
/// order required by §2.3. The sentinels `LOW` (= `LowTS`) and `HIGH`
/// (= `HighTS`) compare strictly below / above every generated timestamp;
/// [`TimestampGenerator`] never produces either sentinel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp {
    ticks: u64,
    pid: u32,
}

impl Timestamp {
    /// `LowTS`: strictly smaller than every generated timestamp. Used as
    /// the initial `ord-ts` and the timestamp of the initial `nil` log
    /// entry (§4.2).
    pub const LOW: Timestamp = Timestamp { ticks: 0, pid: 0 };

    /// `HighTS`: strictly larger than every generated timestamp. Used as
    /// the initial `max` bound when scanning backwards for the most recent
    /// complete write (`read-prev-stripe`, Alg. 1).
    pub const HIGH: Timestamp = Timestamp {
        ticks: u64::MAX,
        pid: u32::MAX,
    };

    /// Creates a timestamp from raw parts.
    ///
    /// Intended for tests and for drivers that persist timestamps; protocol
    /// code should obtain timestamps from [`TimestampGenerator`].
    ///
    /// # Panics
    ///
    /// Panics if the parts equal a sentinel (`(0, 0)` or
    /// `(u64::MAX, u32::MAX)`).
    #[must_use]
    pub fn from_parts(ticks: u64, pid: ProcessId) -> Self {
        let ts = Timestamp {
            ticks,
            pid: pid.value(),
        };
        assert!(
            ts != Timestamp::LOW && ts != Timestamp::HIGH,
            "timestamp parts collide with a sentinel"
        );
        ts
    }

    /// The logical tick count.
    #[must_use]
    pub const fn ticks(self) -> u64 {
        self.ticks
    }

    /// The issuing process id.
    #[must_use]
    pub const fn pid(self) -> ProcessId {
        ProcessId::new(self.pid)
    }

    /// Returns `true` if this is the `LowTS` sentinel.
    #[must_use]
    pub fn is_low(self) -> bool {
        self == Timestamp::LOW
    }

    /// Returns `true` if this is the `HighTS` sentinel.
    #[must_use]
    pub fn is_high(self) -> bool {
        self == Timestamp::HIGH
    }
}

impl Default for Timestamp {
    /// The default timestamp is `LowTS`, matching the initial value of the
    /// persistent `ord-ts` variable.
    fn default() -> Self {
        Timestamp::LOW
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_low() {
            write!(f, "LowTS")
        } else if self.is_high() {
            write!(f, "HighTS")
        } else {
            write!(f, "{}@p{}", self.ticks, self.pid)
        }
    }
}

/// The `newTS` primitive: a hybrid logical clock owned by one process.
///
/// Each call to [`next`](TimestampGenerator::next) takes a *clock hint*
/// (virtual time in the simulator, wall-clock microseconds in the threaded
/// runtime) and returns `max(hint, last + 1)` ticks tagged with the owner's
/// process id. Hints may go backwards or stall; ticks still increase.
///
/// A clock-skew offset can be injected with
/// [`with_skew`](TimestampGenerator::with_skew) to study the abort-rate
/// effects §3 discusses (skew affects only the abort rate, never safety).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimestampGenerator {
    pid: ProcessId,
    last_ticks: u64,
    skew: i64,
}

impl TimestampGenerator {
    /// Creates a generator owned by `pid` with no skew.
    #[must_use]
    pub fn new(pid: ProcessId) -> Self {
        TimestampGenerator {
            pid,
            last_ticks: 0,
            skew: 0,
        }
    }

    /// Creates a generator whose clock hints are offset by `skew` ticks
    /// (positive = fast clock, negative = slow clock).
    #[must_use]
    pub fn with_skew(pid: ProcessId, skew: i64) -> Self {
        TimestampGenerator {
            pid,
            last_ticks: 0,
            skew,
        }
    }

    /// The owning process.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The configured skew in ticks.
    #[must_use]
    pub fn skew(&self) -> i64 {
        self.skew
    }

    /// Generates the next timestamp given a clock hint.
    ///
    /// Guarantees `LowTS < result < HighTS`, strict per-process
    /// monotonicity, and cross-process uniqueness (by pid tiebreak).
    #[must_use]
    pub fn next(&mut self, clock_hint: u64) -> Timestamp {
        let skewed = clock_hint.saturating_add_signed(self.skew);
        // Never mint tick 0 (collides with LowTS when pid is 0) and never
        // reach u64::MAX (reserved for HighTS).
        let ticks = skewed.max(self.last_ticks + 1).clamp(1, u64::MAX - 1);
        self.last_ticks = ticks;
        Timestamp {
            ticks,
            pid: self.pid.value(),
        }
    }

    /// Advances the generator past `observed` so the next timestamp is
    /// strictly larger.
    ///
    /// Coordinators call this after an abort caused by a higher timestamp
    /// elsewhere in the system; it accelerates the PROGRESS property
    /// (Proposition 23's argument) without waiting for the clock hint to
    /// catch up.
    pub fn observe(&mut self, observed: Timestamp) {
        if observed.is_high() {
            return;
        }
        self.last_ticks = self.last_ticks.max(observed.ticks());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinels_bound_everything() {
        let mut gen = TimestampGenerator::new(ProcessId::new(0));
        for hint in [0u64, 1, 5, 1_000_000, u64::MAX] {
            let ts = gen.next(hint);
            assert!(Timestamp::LOW < ts, "hint={hint}");
            assert!(ts < Timestamp::HIGH, "hint={hint}");
        }
    }

    #[test]
    fn monotonic_even_with_stalled_or_backwards_clock() {
        let mut gen = TimestampGenerator::new(ProcessId::new(1));
        let mut prev = Timestamp::LOW;
        for hint in [100u64, 100, 100, 50, 0, 200, 150] {
            let ts = gen.next(hint);
            assert!(ts > prev, "hint={hint}");
            prev = ts;
        }
    }

    #[test]
    fn tracks_advancing_clock() {
        let mut gen = TimestampGenerator::new(ProcessId::new(1));
        let ts = gen.next(5000);
        assert_eq!(ts.ticks(), 5000);
        let ts = gen.next(6000);
        assert_eq!(ts.ticks(), 6000);
    }

    #[test]
    fn uniqueness_across_processes() {
        let mut a = TimestampGenerator::new(ProcessId::new(1));
        let mut b = TimestampGenerator::new(ProcessId::new(2));
        // Same hints, same tick values — pids break the tie.
        let ta = a.next(7);
        let tb = b.next(7);
        assert_ne!(ta, tb);
        assert_eq!(ta.ticks(), tb.ticks());
        assert!(ta < tb); // pid 1 < pid 2
    }

    #[test]
    fn ordering_is_lexicographic() {
        let t1 = Timestamp::from_parts(5, ProcessId::new(9));
        let t2 = Timestamp::from_parts(6, ProcessId::new(1));
        assert!(t1 < t2, "ticks dominate pid");
        let t3 = Timestamp::from_parts(6, ProcessId::new(2));
        assert!(t2 < t3, "pid breaks tick ties");
    }

    #[test]
    fn observe_fast_forwards() {
        let mut gen = TimestampGenerator::new(ProcessId::new(0));
        gen.observe(Timestamp::from_parts(1_000, ProcessId::new(5)));
        let ts = gen.next(3);
        assert!(ts.ticks() > 1_000);
    }

    #[test]
    fn observe_high_is_ignored() {
        let mut gen = TimestampGenerator::new(ProcessId::new(0));
        gen.observe(Timestamp::HIGH);
        let ts = gen.next(1);
        assert!(ts < Timestamp::HIGH);
    }

    #[test]
    fn skew_offsets_hints() {
        let mut fast = TimestampGenerator::with_skew(ProcessId::new(0), 500);
        let mut slow = TimestampGenerator::with_skew(ProcessId::new(1), -500);
        assert_eq!(fast.next(1_000).ticks(), 1_500);
        assert_eq!(slow.next(1_000).ticks(), 500);
        // Negative skew never panics near zero.
        let mut very_slow = TimestampGenerator::with_skew(ProcessId::new(2), -10_000);
        assert_eq!(very_slow.next(100).ticks(), 1);
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn from_parts_rejects_low_sentinel() {
        let _ = Timestamp::from_parts(0, ProcessId::new(0));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Timestamp::LOW.to_string(), "LowTS");
        assert_eq!(Timestamp::HIGH.to_string(), "HighTS");
        assert_eq!(
            Timestamp::from_parts(42, ProcessId::new(3)).to_string(),
            "42@p3"
        );
        assert_eq!(ProcessId::new(7).to_string(), "p7");
    }

    #[test]
    fn default_is_low() {
        assert_eq!(Timestamp::default(), Timestamp::LOW);
    }

    #[test]
    fn process_id_conversions() {
        let p: ProcessId = 9u32.into();
        assert_eq!(u32::from(p), 9);
        assert_eq!(p.index(), 9);
    }
}
