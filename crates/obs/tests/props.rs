//! Property tests for the metrics substrate: bucket placement, quantile
//! monotonicity, pair-counter exactness.

use fab_obs::{Histogram, PairCounter, Registry, HIST_BUCKETS};
use propcheck::{ensure, ensure_eq, Gen};

propcheck::properties! {
    cases: 256;

    /// Every recorded value lands in the bucket whose reported range covers
    /// it: `value <= upper_bound(bucket_index(value))` and (below the
    /// saturating last bucket) `value >= upper_bound(i - 1)` — bucket `i` is
    /// `[2^(i-1), 2^i)` and reports `2^i`, so a power of two sits on the
    /// bound of the bucket below its own.
    fn recorded_value_lands_in_reporting_bucket(g) {
        // Any u64, spread over every magnitude (and so every bucket).
        let value = g.u64() >> g.range(0u32..64);
        let i = Histogram::bucket_index(value);
        ensure!(i < HIST_BUCKETS);
        ensure!(value <= Histogram::bucket_upper_bound(i));
        if i > 0 && i < HIST_BUCKETS - 1 {
            ensure!(value >= Histogram::bucket_upper_bound(i - 1));
        }
        // And recording actually increments that bucket.
        let h = Histogram::new();
        h.record(value);
        ensure_eq!(h.buckets()[i], 1);
    }

    /// Quantiles are monotone (p50 <= p95 <= p99), the snapshot count is
    /// exact, and every quantile is an upper bound for at least its share of
    /// the samples.
    fn snapshot_quantiles_are_monotone(g) {
        let samples = g.vec(1..200, Gen::u64);
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let snap = h.snapshot();
        ensure_eq!(snap.count, samples.len() as u64);
        ensure!(snap.p50 <= snap.p95);
        ensure!(snap.p95 <= snap.p99);
        let at_most_p50 = samples.iter().filter(|&&s| s <= snap.p50).count();
        ensure!(
            at_most_p50 * 100 >= samples.len() * 50,
            "p50 {} covers only {}/{} samples",
            snap.p50,
            at_most_p50,
            samples.len()
        );
        let at_most_p99 = samples.iter().filter(|&&s| s <= snap.p99).count();
        ensure!(at_most_p99 * 100 >= samples.len() * 99);
    }

    /// A pair counter's halves always sum to the number of increments,
    /// whatever the interleaving of first/second increments.
    fn pair_counter_total_is_exact(g) {
        let (firsts, seconds) = (g.range(0u32..1000), g.range(0u32..1000));
        let p = PairCounter::new();
        for _ in 0..firsts {
            p.inc_first();
        }
        for _ in 0..seconds {
            p.inc_second();
        }
        ensure_eq!(p.get(), (u64::from(firsts), u64::from(seconds)));
        ensure_eq!(p.total(), u64::from(firsts) + u64::from(seconds));
    }

    /// Registry snapshots are deterministic: same recording sequence,
    /// identical snapshot (including render text), and counter order is
    /// always name-sorted.
    fn registry_snapshot_is_deterministic(g) {
        let values = g.vec(0..50, |g| g.range(0u64..1000));
        let build = || {
            let reg = Registry::new();
            let c = reg.counter("ops");
            let h = reg.histogram("lat");
            let p = reg.pair("reads", "reads_fastpath", "reads_recovered");
            for &v in &values {
                c.add(v);
                h.record(v);
                if v % 2 == 0 { p.inc_first() } else { p.inc_second() }
            }
            reg.export()
        };
        let (a, b) = (build(), build());
        ensure_eq!(&a, &b);
        ensure_eq!(a.render(), b.render());
    }
}
