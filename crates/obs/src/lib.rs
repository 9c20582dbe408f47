//! Unified observability substrate: lock-free metrics.
//!
//! Every layer of the FAB reproduction shares one vocabulary of
//! instruments, registered by name in a [`Registry`]:
//!
//! * [`Counter`] — monotonic `AtomicU64` (ops completed, frames sent).
//! * [`Gauge`] — last-write-wins `AtomicU64` (queue depth, watermark).
//! * [`Histogram`] — 64 log2 buckets of `AtomicU64`; snapshots report
//!   approximate p50/p95/p99 as bucket upper bounds (the same scheme the
//!   repair driver has always used for scrub latency).
//! * [`PairCounter`] — two logically-coupled counts packed into *one*
//!   `AtomicU64` (32 bits each), so a snapshot of the pair is a single
//!   atomic load and can never tear: `reads_fastpath + reads_recovered`
//!   is exact at one linearization point, which is what lets the torture
//!   suite reconcile it against journal ground truth as a convicting
//!   invariant. `tests/no_tear.rs` races real threads on the no-tear property.
//!
//! # Determinism rules (L2)
//!
//! This crate is reachable from simulation-driven code, so it obeys the
//! same determinism discipline as `fab-core`: no `Instant`, no
//! `SystemTime`, no `HashMap`/`HashSet` iteration order, no OS
//! randomness, no thread spawning. All time values are plain `u64`s the
//! caller supplies; all maps are `BTreeMap` so snapshot order is stable.
//! Recording a metric never feeds back into protocol behavior, so a
//! simulation's fingerprint is bit-identical with metrics on or off.

// Rules L1 (no-panic) and L2 (determinism), DESIGN.md §6.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 histogram buckets (`2^0 .. 2^63`).
pub const HIST_BUCKETS: usize = 64;

// ---------------------------------------------------------------- counter --

/// A monotonic event counter. Lock-free; `Relaxed` ordering — totals are
/// exact once writers quiesce, approximate while they race, which is the
/// standard metrics contract.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zeroed counter (standalone; see [`Registry::counter`] for
    /// the registered form).
    #[must_use]
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ------------------------------------------------------------------ gauge --

/// A last-write-wins level (queue depth, watermark, high-water mark).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh zeroed gauge.
    #[must_use]
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrites the level.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the level to `v` if `v` is higher (high-water marks).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds `n` (for gauges tracking a running level).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero under races only in the sense
    /// that wrapping is the caller's bug; levels are expected paired
    /// add/sub.
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current level.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// -------------------------------------------------------------- histogram --

/// A fixed-shape log2 histogram: bucket `i` counts samples in
/// `[2^(i-1), 2^i)` (bucket 0 counts the value 0). Lock-free recording,
/// quantiles reported as bucket upper bounds — coarse, allocation-free,
/// and good enough to tell a 100µs fsync from a 10ms one.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The bucket index `value` lands in.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    /// The inclusive upper bound reported for bucket `i` (`u64::MAX` for
    /// the last bucket).
    #[must_use]
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i >= HIST_BUCKETS - 1 {
            return u64::MAX;
        }
        1u64.checked_shl(i as u32).unwrap_or(u64::MAX)
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let Some(slot) = self.buckets.get(Self::bucket_index(value)) else {
            return;
        };
        slot.fetch_add(1, Ordering::Relaxed);
    }

    /// Raw bucket counts (for invariant tests and reconciliation).
    #[must_use]
    pub fn buckets(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// A point-in-time snapshot with approximate quantiles. Taken while
    /// writers race it is approximate (each bucket read individually),
    /// which is fine for reporting; exact once writers quiesce.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self.buckets();
        let count: u64 = buckets.iter().sum();
        HistogramSnapshot {
            count,
            p50: percentile(&buckets, 50),
            p95: percentile(&buckets, 95),
            p99: percentile(&buckets, 99),
        }
    }
}

/// Approximate percentile from log2 buckets: the upper bound of the
/// bucket containing the p-th sample (1-based, rounding up).
fn percentile(buckets: &[u64], p: u64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let target = (total * p).div_ceil(100).max(1);
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= target {
            return Histogram::bucket_upper_bound(i);
        }
    }
    u64::MAX
}

/// A point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Median (log2-bucket upper bound).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

// ----------------------------------------------------------- pair counter --

/// Two coupled counters packed into one `AtomicU64` (32 bits each), so a
/// reader's view of the pair is a *single* atomic load: the pair can
/// never tear. The canonical use is `(reads_fastpath, reads_recovered)` —
/// their sum is the exact number of completed reads at one linearization
/// point, which the torture suite reconciles against the journal.
///
/// Each half holds 32 bits (≈4.3 billion events); overflow bleeds into
/// the other half and is out of scope for the workloads this repo runs.
#[derive(Debug, Default)]
pub struct PairCounter(AtomicU64);

impl PairCounter {
    /// A fresh zeroed pair.
    #[must_use]
    pub fn new() -> Self {
        PairCounter(AtomicU64::new(0))
    }

    /// Increments the first count.
    pub fn inc_first(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments the second count.
    pub fn inc_second(&self) {
        self.0.fetch_add(1 << 32, Ordering::Relaxed);
    }

    /// Increments both counts in one indivisible step (for pairs
    /// documented to move together).
    pub fn inc_both(&self) {
        self.0.fetch_add(1 | (1 << 32), Ordering::Relaxed);
    }

    /// An untearable snapshot `(first, second)`.
    #[must_use]
    pub fn get(&self) -> (u64, u64) {
        let raw = self.0.load(Ordering::Relaxed);
        (raw & 0xFFFF_FFFF, raw >> 32)
    }

    /// `first + second` from one atomic load.
    #[must_use]
    pub fn total(&self) -> u64 {
        let (a, b) = self.get();
        a + b
    }
}

// --------------------------------------------------------------- registry --

/// A pair's registered entry: the packed counter plus the two exposition
/// names its halves report under.
#[derive(Debug)]
struct PairEntry {
    pair: Arc<PairCounter>,
    first_name: &'static str,
    second_name: &'static str,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<&'static str, Arc<Counter>>,
    gauges: BTreeMap<&'static str, Arc<Gauge>>,
    histograms: BTreeMap<&'static str, Arc<Histogram>>,
    pairs: BTreeMap<&'static str, PairEntry>,
}

/// One node's instrument namespace. Instruments are created on first
/// request and shared thereafter (`Arc`), so the hot path holds direct
/// handles and never takes the registry lock; the lock guards only
/// registration and snapshots.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        // A poisoned registry still serves metrics: observability must
        // not amplify an unrelated panic.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The counter named `name`, created on first request.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        Arc::clone(
            self.locked()
                .counters
                .entry(name)
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The gauge named `name`, created on first request.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        Arc::clone(
            self.locked()
                .gauges
                .entry(name)
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// The histogram named `name`, created on first request.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        Arc::clone(
            self.locked()
                .histograms
                .entry(name)
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// The pair counter registered as `name`, created on first request;
    /// its halves appear in snapshots as `first_name` and `second_name`.
    pub fn pair(
        &self,
        name: &'static str,
        first_name: &'static str,
        second_name: &'static str,
    ) -> Arc<PairCounter> {
        Arc::clone(
            &self
                .locked()
                .pairs
                .entry(name)
                .or_insert_with(|| PairEntry {
                    pair: Arc::new(PairCounter::new()),
                    first_name,
                    second_name,
                })
                .pair,
        )
    }

    /// A point-in-time snapshot of every registered instrument, in stable
    /// (name-sorted) order. Pair halves are reported as two counter
    /// entries read from one atomic load each — untorn by construction.
    /// (Named `export`, not `snapshot`, so the call-graph lints can tell
    /// this registry-lock-taking walk apart from the lock-free
    /// `Histogram::snapshot`.)
    #[must_use]
    pub fn export(&self) -> Snapshot {
        let inner = self.locked();
        let mut counters: Vec<(&'static str, u64)> = inner
            .counters
            .iter()
            .map(|(name, c)| (*name, c.get()))
            .collect();
        for entry in inner.pairs.values() {
            let (a, b) = entry.pair.get();
            counters.push((entry.first_name, a));
            counters.push((entry.second_name, b));
        }
        counters.sort_unstable_by_key(|(name, _)| *name);
        Snapshot {
            counters,
            gauges: inner
                .gauges
                .iter()
                .map(|(name, g)| (*name, g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| (*name, h.snapshot()))
                .collect(),
        }
    }
}

/// A stable-ordered snapshot of a [`Registry`] (the in-process form of
/// the `stats-snapshot` admin reply).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Counter values, name-sorted (pair halves included).
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge levels, name-sorted.
    pub gauges: Vec<(&'static str, u64)>,
    /// Histogram snapshots, name-sorted.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

impl Snapshot {
    /// The counter named `name`, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Renders the text exposition format `fab-cli stats` prints:
    /// one `kind name value...` line per instrument, name-sorted.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge {name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {name} count={} p50={} p95={} p99={}",
                h.count, h.p50, h.p95, h.p99
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.set_max(3); // lower: no effect
        assert_eq!(g.get(), 7);
        g.set_max(10);
        assert_eq!(g.get(), 10);
        g.add(2);
        g.sub(1);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(u64::MAX), HIST_BUCKETS - 1);
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert!(s.p50 >= 100 && s.p50 <= 256, "p50 {}", s.p50);
        assert!(s.p99 < 1 << 21, "p99 {} excludes the outlier", s.p99);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.p50, s.p95, s.p99), (0, 0, 0, 0));
    }

    #[test]
    fn pair_counter_sums_exactly() {
        let p = PairCounter::new();
        p.inc_first();
        p.inc_first();
        p.inc_second();
        assert_eq!(p.get(), (2, 1));
        assert_eq!(p.total(), 3);
        p.inc_both();
        assert_eq!(p.get(), (3, 2));
    }

    #[test]
    fn registry_reuses_instruments_and_snapshots_stably() {
        let reg = Registry::new();
        let c1 = reg.counter("reads");
        let c2 = reg.counter("reads");
        c1.inc();
        c2.inc();
        assert_eq!(reg.counter("reads").get(), 2);
        reg.gauge("depth").set(4);
        reg.histogram("lat").record(100);
        let pair = reg.pair("reads_split", "reads_fastpath", "reads_recovered");
        pair.inc_first();
        pair.inc_second();
        let snap = reg.export();
        assert_eq!(snap.counter("reads"), Some(2));
        assert_eq!(snap.counter("reads_fastpath"), Some(1));
        assert_eq!(snap.counter("reads_recovered"), Some(1));
        assert_eq!(snap.gauges, vec![("depth", 4)]);
        assert_eq!(snap.histograms.len(), 1);
        // Stable order: counters name-sorted.
        let names: Vec<_> = snap.counters.iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        let text = snap.render();
        assert!(text.contains("counter reads 2"));
        assert!(text.contains("gauge depth 4"));
        assert!(text.contains("histogram lat count=1"));
    }
}
