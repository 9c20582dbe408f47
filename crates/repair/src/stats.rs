//! Repair observability: lock-free counters updated by the driver and
//! its workers, snapshotted into a [`RepairStats`] for `repair-status`
//! replies.
//!
//! The instruments are `fab-obs` types, private to one repair run; a
//! node that wants them in its `stats-snapshot` exposition copies a
//! [`RepairStats`] snapshot in under `repair_*` names (as `fab-net` does).

use fab_obs::{Counter, Gauge, Histogram};

/// Live repair counters. All instruments are lock-free atomics so the
/// driver thread, scrub workers, and a status-serving event loop can
/// share one `Arc<RepairCounters>` without locks (lock-free by
/// construction — no lock-order obligations on the `fab-net` event
/// loop).
#[derive(Debug, Default)]
pub struct RepairCounters {
    /// Stripes in the plan.
    pub planned: Gauge,
    /// Stripes reconstructed and re-stored (scrub returned data).
    pub repaired: Counter,
    /// Stripes that were never written — scrub was a clean no-op.
    pub skipped: Counter,
    /// Scrub attempts retried after an abort (conflict with foreground
    /// writes, or recovery contention).
    pub retried: Counter,
    /// Stripes given up on after the retry budget (outside the fault
    /// model; reported, never silently dropped).
    pub failed: Counter,
    /// Logical bytes reconstructed (`m * block_size` per repaired stripe).
    pub bytes_reconstructed: Counter,
    /// Times the driver had to wait on the token-bucket throttle.
    pub throttle_waits: Counter,
    /// Contiguous-prefix progress through the plan (stripes).
    pub watermark: Gauge,
    /// Log2 histogram of per-scrub latency in microseconds.
    scrub_micros: Histogram,
}

impl RepairCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        RepairCounters::default()
    }

    /// Records one scrub's wall-clock latency.
    pub fn record_scrub_micros(&self, micros: u64) {
        self.scrub_micros.record(micros);
    }

    /// A point-in-time snapshot. Individual instruments are read
    /// relaxed; a snapshot taken while scrubs are in flight is
    /// approximate, which is fine for status reporting.
    pub fn snapshot(&self) -> RepairStats {
        let scrub = self.scrub_micros.snapshot();
        RepairStats {
            planned: self.planned.get(),
            repaired: self.repaired.get(),
            skipped: self.skipped.get(),
            retried: self.retried.get(),
            failed: self.failed.get(),
            bytes_reconstructed: self.bytes_reconstructed.get(),
            throttle_waits: self.throttle_waits.get(),
            watermark: self.watermark.get(),
            scrub_p50_micros: scrub.p50,
            scrub_p99_micros: scrub.p99,
        }
    }
}

/// A point-in-time view of a repair run, the payload of the
/// `RepairStatus` admin reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairStats {
    /// Stripes in the plan.
    pub planned: u64,
    /// Stripes reconstructed and re-stored.
    pub repaired: u64,
    /// Never-written stripes (clean no-op scrubs).
    pub skipped: u64,
    /// Retried scrub attempts.
    pub retried: u64,
    /// Stripes exhausted of retries.
    pub failed: u64,
    /// Logical bytes reconstructed.
    pub bytes_reconstructed: u64,
    /// Throttle-induced waits.
    pub throttle_waits: u64,
    /// Durable-cursor watermark (contiguous plan prefix done).
    pub watermark: u64,
    /// Median per-scrub latency (log2-bucket upper bound), microseconds.
    pub scrub_p50_micros: u64,
    /// 99th-percentile per-scrub latency, microseconds.
    pub scrub_p99_micros: u64,
}

impl RepairStats {
    /// Stripes in a terminal state.
    pub fn finished(&self) -> u64 {
        self.repaired + self.skipped + self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_snapshot_round_trip() {
        let c = RepairCounters::new();
        c.planned.set(10);
        c.repaired.add(4);
        c.skipped.add(2);
        c.bytes_reconstructed.add(4096);
        let s = c.snapshot();
        assert_eq!(s.planned, 10);
        assert_eq!(s.finished(), 6);
        assert_eq!(s.bytes_reconstructed, 4096);
    }

    #[test]
    fn percentiles_come_from_log2_buckets() {
        let c = RepairCounters::new();
        // 99 fast scrubs (~100us) and one slow outlier (~1s).
        for _ in 0..99 {
            c.record_scrub_micros(100);
        }
        c.record_scrub_micros(1_000_000);
        let s = c.snapshot();
        assert!(s.scrub_p50_micros >= 100 && s.scrub_p50_micros <= 256);
        assert!(s.scrub_p99_micros >= 100, "p99 {}", s.scrub_p99_micros);
        assert!(
            s.scrub_p99_micros < 1 << 21,
            "p99 {} should not include the single outlier",
            s.scrub_p99_micros
        );
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let s = RepairCounters::new().snapshot();
        assert_eq!(s.scrub_p50_micros, 0);
        assert_eq!(s.scrub_p99_micros, 0);
    }
}
