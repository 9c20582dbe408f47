//! Coordinator op-lifecycle metrics.
//!
//! [`OpMetrics`] is the one bundle of instruments every driver of a
//! [`Coordinator`](crate::Coordinator) shares — simulation bricks,
//! `fab-runtime` threads, and `fab-net` servers all install it with
//! [`Coordinator::set_metrics`](crate::Coordinator::set_metrics) and get
//! identical semantics, because recording happens at the coordinator's
//! single completion site rather than at each driver's drain loop.
//!
//! The headline instrument is the `op_reads` [`PairCounter`]: reads that
//! finished on the fast path versus reads that went through recovery,
//! packed into one atomic so `fastpath + recovered` is exact at a single
//! linearization point. The torture suite reconciles both halves against
//! journal ground truth after every campaign; a mismatch is a convicting
//! violation, so the pair must never tear (`crates/obs/tests/no_tear.rs`).
//!
//! Latency values are whatever the driver's [`Effects::now`] reports —
//! sim ticks under `fab-simnet`, monotonic microseconds under `fab-net`.
//! The `_micros` suffix names the production unit; in simulation the
//! numbers are deterministic tick counts, which is exactly what the
//! determinism-fingerprint tests want.
//!
//! [`Effects::now`]: crate::Effects::now
//! [`PairCounter`]: fab_obs::PairCounter

use std::sync::Arc;

use fab_obs::{Counter, Histogram, PairCounter, Registry};

/// Instrument bundle for coordinator operation lifecycles. Create one per
/// node with [`OpMetrics::register`] and hand it to
/// [`Coordinator::set_metrics`](crate::Coordinator::set_metrics).
#[derive(Debug)]
pub struct OpMetrics {
    /// `(fastpath, recovered)` completed reads — one atomic, never tears.
    reads: Arc<PairCounter>,
    /// Latency of reads that finished on the fast path.
    read_fastpath_micros: Arc<Histogram>,
    /// Latency of reads that needed recovery (or write-back).
    read_recovered_micros: Arc<Histogram>,
    /// Writes that committed (stripe or block, not aborted).
    writes_committed: Arc<Counter>,
    /// End-to-end committed-write latency.
    write_micros: Arc<Histogram>,
    /// Time from invocation to the order/read phase finishing (the point
    /// the final store phase starts).
    write_order_micros: Arc<Histogram>,
    /// Time spent in the final store phase of a committed write.
    write_store_micros: Arc<Histogram>,
    /// Quorum rounds per completed operation (1 = pure fast path).
    quorum_rounds: Arc<Histogram>,
    /// Scrub operations that completed successfully.
    scrubs_completed: Arc<Counter>,
    /// Operations that completed as `Aborted` (any kind).
    ops_aborted: Arc<Counter>,
}

impl OpMetrics {
    /// Creates the bundle, registering every instrument in `registry`
    /// under the `op_` prefix (so one registry can also hold store, net,
    /// and repair instruments without collisions).
    #[must_use]
    pub fn register(registry: &Registry) -> Arc<Self> {
        Arc::new(OpMetrics {
            reads: registry.pair("op_reads", "op_reads_fastpath", "op_reads_recovered"),
            read_fastpath_micros: registry.histogram("op_read_fastpath_micros"),
            read_recovered_micros: registry.histogram("op_read_recovered_micros"),
            writes_committed: registry.counter("op_writes_committed"),
            write_micros: registry.histogram("op_write_micros"),
            write_order_micros: registry.histogram("op_write_order_micros"),
            write_store_micros: registry.histogram("op_write_store_micros"),
            quorum_rounds: registry.histogram("op_quorum_rounds"),
            scrubs_completed: registry.counter("op_scrubs_completed"),
            ops_aborted: registry.counter("op_aborted"),
        })
    }

    /// Records a completed (non-aborted) read. `recovered` is the
    /// completion's recovery flag: false means the fast path served it.
    pub fn record_read(&self, recovered: bool, latency: u64) {
        if recovered {
            self.reads.inc_second();
            self.read_recovered_micros.record(latency);
        } else {
            self.reads.inc_first();
            self.read_fastpath_micros.record(latency);
        }
    }

    /// Records a committed write. When the op's order phase boundary was
    /// observed, `order`/`store` carry the per-phase split.
    pub fn record_write(&self, latency: u64, order: Option<u64>, store: Option<u64>) {
        self.writes_committed.inc();
        self.write_micros.record(latency);
        if let Some(order) = order {
            self.write_order_micros.record(order);
        }
        if let Some(store) = store {
            self.write_store_micros.record(store);
        }
    }

    /// Records a completed scrub.
    pub fn record_scrub(&self) {
        self.scrubs_completed.inc();
    }

    /// Records an aborted operation (any kind).
    pub fn record_abort(&self) {
        self.ops_aborted.inc();
    }

    /// Records how many quorum rounds an operation used before completing
    /// (aborted or not).
    pub fn record_rounds(&self, rounds: u64) {
        self.quorum_rounds.record(rounds);
    }

    /// Untearable `(fastpath, recovered)` read counts — the values the
    /// torture reconciliation probe compares against the journal.
    #[must_use]
    pub fn reads(&self) -> (u64, u64) {
        self.reads.get()
    }

    /// Committed writes so far.
    #[must_use]
    pub fn writes_committed(&self) -> u64 {
        self.writes_committed.get()
    }

    /// Completed scrubs so far.
    #[must_use]
    pub fn scrubs_completed(&self) -> u64 {
        self.scrubs_completed.get()
    }

    /// Aborted operations so far.
    #[must_use]
    pub fn aborts(&self) -> u64 {
        self.ops_aborted.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_split_is_recorded_per_path() {
        let reg = Registry::new();
        let m = OpMetrics::register(&reg);
        m.record_read(false, 10);
        m.record_read(false, 12);
        m.record_read(true, 90);
        assert_eq!(m.reads(), (2, 1));
        let snap = reg.export();
        assert_eq!(snap.counter("op_reads_fastpath"), Some(2));
        assert_eq!(snap.counter("op_reads_recovered"), Some(1));
        let fast = snap
            .histograms
            .iter()
            .find(|(n, _)| *n == "op_read_fastpath_micros")
            .map(|(_, h)| h.count);
        assert_eq!(fast, Some(2));
    }

    #[test]
    fn write_phase_split_is_optional() {
        let reg = Registry::new();
        let m = OpMetrics::register(&reg);
        m.record_write(100, Some(60), Some(40));
        m.record_write(50, None, None);
        assert_eq!(m.writes_committed(), 2);
        let snap = reg.export();
        let count_of = |name: &str| {
            snap.histograms
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, h)| h.count)
        };
        assert_eq!(count_of("op_write_micros"), Some(2));
        assert_eq!(count_of("op_write_order_micros"), Some(1));
        assert_eq!(count_of("op_write_store_micros"), Some(1));
    }

    #[test]
    fn registering_twice_shares_instruments() {
        let reg = Registry::new();
        let a = OpMetrics::register(&reg);
        let b = OpMetrics::register(&reg);
        a.record_scrub();
        b.record_scrub();
        assert_eq!(a.scrubs_completed(), 2);
        assert_eq!(reg.export().counter("op_scrubs_completed"), Some(2));
    }
}
