//! Property tests for the §2.3 timestamp laws: uniqueness, monotonicity,
//! progress, and total order — under arbitrary clock-hint sequences and
//! skews.

use fab_timestamp::{ProcessId, Timestamp, TimestampGenerator};
use propcheck::{ensure, ensure_eq, Gen};
use std::collections::HashSet;

propcheck::properties! {
    cases: 256;

    fn monotonicity_under_arbitrary_hints(g) {
        let mut gen = TimestampGenerator::new(ProcessId::new(4));
        let mut prev = Timestamp::LOW;
        for h in g.vec(1..200, Gen::u64) {
            let ts = gen.next(h);
            ensure!(ts > prev);
            ensure!(ts < Timestamp::HIGH);
            prev = ts;
        }
    }

    fn uniqueness_across_generators(g) {
        let hints_a = g.vec(1..100, |g| g.range(0u64..1000));
        let hints_b = g.vec(1..100, |g| g.range(0u64..1000));
        let mut a = TimestampGenerator::with_skew(ProcessId::new(1), g.range(-100i64..100));
        let mut b = TimestampGenerator::with_skew(ProcessId::new(2), g.range(-100i64..100));
        let mut seen: HashSet<Timestamp> = HashSet::new();
        for h in hints_a {
            ensure!(seen.insert(a.next(h)), "duplicate timestamp from a");
        }
        for h in hints_b {
            ensure!(seen.insert(b.next(h)), "duplicate timestamp from b");
        }
    }

    /// PROGRESS: a process with a stalled clock still exceeds `target` after
    /// finitely many invocations once it has observed it.
    fn progress_eventually_exceeds_any_observed(g) {
        let target = Timestamp::from_parts(g.range(1u64..1_000_000), ProcessId::new(9));
        let mut gen = TimestampGenerator::new(ProcessId::new(1));
        gen.observe(target);
        let stalled_hint = g.range(0u64..10);
        ensure!(gen.next(stalled_hint) > target);
    }

    fn order_is_total_and_consistent(g) {
        let (a_ticks, a_pid) = (g.range(1u64..1000), g.range(0u32..16));
        let (b_ticks, b_pid) = (g.range(1u64..1000), g.range(0u32..16));
        let a = Timestamp::from_parts(a_ticks, ProcessId::new(a_pid));
        let b = Timestamp::from_parts(b_ticks, ProcessId::new(b_pid));
        // Exactly one of <, ==, > holds.
        let rels = [a < b, a == b, a > b];
        ensure_eq!(rels.iter().filter(|&&r| r).count(), 1);
        // Order agrees with (ticks, pid) lexicographic comparison.
        ensure_eq!(a < b, (a_ticks, a_pid) < (b_ticks, b_pid));
    }

    /// Crash-recovery replay: a generator that loses its volatile state and
    /// is rebuilt by re-observing an arbitrary *prefix* of its previously
    /// issued timestamps (what a replayed log prefix exposes) still issues
    /// timestamps that (a) strictly dominate everything in that prefix,
    /// (b) stay totally ordered among themselves, and (c) stay strictly
    /// inside the `(LowTS, HighTS)` sentinels.
    fn recovery_from_replayed_prefix_preserves_order_and_bounds(g) {
        let hints = g.vec(1..100, Gen::u64);
        let skew = g.range(-50i64..50);
        let pid = ProcessId::new(3);
        let mut gen = TimestampGenerator::with_skew(pid, skew);
        let issued: Vec<Timestamp> = hints.iter().map(|h| gen.next(*h)).collect();

        // Crash: volatile generator state is gone. Recovery replays a log
        // prefix, observing each timestamp it contains.
        let cut = g.range(0..=issued.len());
        let mut recovered = TimestampGenerator::with_skew(pid, skew);
        for ts in &issued[..cut] {
            recovered.observe(*ts);
        }

        let mut prev = issued[..cut].iter().copied().max().unwrap_or(Timestamp::LOW);
        for h in g.vec(1..50, |g| g.range(0u64..1_000)) {
            let ts = recovered.next(h);
            ensure!(ts > prev, "recovered ts {ts} does not dominate {prev}");
            ensure!(Timestamp::LOW < ts, "ts fell to LowTS");
            ensure!(ts < Timestamp::HIGH, "ts reached HighTS");
            prev = ts;
        }
    }
}
