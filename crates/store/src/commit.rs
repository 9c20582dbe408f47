//! Group commit: what a brick host needs from its durable store, and the
//! instruments of the commits it makes.
//!
//! Syncing each record on its own pays one `sync_data` (~100µs+) per
//! record. The host (`fab_runtime::host`) instead commits once per *turn*
//! of its event loop: it handles whatever has queued in its inbox — up to
//! [`MAX_BATCH_RECORDS`] events — collects the replicas' records, makes
//! **one** [`CommitStore::append_batch`] (one `write_all`, one `sync_data`,
//! all-or-nothing on replay) through [`CommitStatsHandle::commit`], and
//! only then sends the replies of the stripes it wrote. Requests that arrive
//! while one sync runs share the next one; *log-before-send* is statement
//! order on one thread.
//!
//! If a commit fails the host fences: nothing of the turn is sent and the
//! store is never touched again (mirroring §2's crash-recovery model, where
//! a brick that cannot persist must fail-stop rather than reply from
//! volatile state).

// Rule L1 (no-panic), DESIGN.md §6: the commit path runs on the event loop.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::{BrickStore, StoreError, StripeState};
use fab_core::{PersistEvent, StripeId};
use fab_obs::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::sync::Arc;
use std::time::Instant;

/// Upper bound on the events a host handles before it commits; bounds the
/// batch and the latency any single reply can be held behind.
pub const MAX_BATCH_RECORDS: usize = 1024;

/// What a brick host needs from the storage backend it owns.
///
/// [`BrickStore`] is the production implementation; the host conformance
/// suite substitutes an in-memory fake whose syncs it can hold and fail.
/// The host moves onto its own thread with its store, hence
/// `Send + 'static`.
pub trait CommitStore: Send + 'static {
    /// Persists `records` atomically (one covering sync); all-or-nothing
    /// on replay.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] fences the brick: the batch is not durable and
    /// nothing that depends on it may be sent.
    fn append_batch(
        &mut self,
        records: &[(StripeId, PersistEvent)],
    ) -> Result<(), StoreError>;

    /// Opportunistic compaction after a batch lands; `Ok(true)` if the
    /// store was rewritten.
    ///
    /// # Errors
    ///
    /// A failed compaction leaves the just-synced batch durable but fences
    /// the brick.
    fn maybe_compact(&mut self, threshold: u64) -> Result<bool, StoreError>;

    /// Snapshot of every stripe's in-memory state (what recovery reloads).
    fn states(&self) -> Vec<(StripeId, StripeState)>;
}

impl CommitStore for BrickStore {
    fn append_batch(
        &mut self,
        records: &[(StripeId, PersistEvent)],
    ) -> Result<(), StoreError> {
        BrickStore::append_batch(self, records)
    }

    fn maybe_compact(&mut self, threshold: u64) -> Result<bool, StoreError> {
        BrickStore::maybe_compact(self, threshold)
    }

    fn states(&self) -> Vec<(StripeId, StripeState)> {
        self.stripes().map(|(s, st)| (s, st.clone())).collect()
    }
}

/// One brick's commit instruments, registered under `store_*` names so a
/// node's `stats-snapshot` replies carry them without any bridging. The
/// host records every commit through it; clones observe the counters from
/// any thread.
#[derive(Debug, Clone)]
pub struct CommitStatsHandle {
    submitted: Arc<Counter>,
    committed: Arc<Counter>,
    failed: Arc<Counter>,
    syncs: Arc<Counter>,
    max_batch: Arc<Gauge>,
    /// Per-batch `append_batch` (write + fsync) wall time, microseconds.
    fsync_micros: Arc<Histogram>,
    /// Records per group-commit batch.
    batch_records: Arc<Histogram>,
}

impl CommitStatsHandle {
    /// Registers the `store_*` instruments in `registry`.
    #[must_use]
    pub fn registered(registry: &fab_obs::Registry) -> Self {
        CommitStatsHandle {
            submitted: registry.counter("store_submitted"),
            committed: registry.counter("store_committed"),
            failed: registry.counter("store_failed"),
            syncs: registry.counter("store_syncs"),
            max_batch: registry.gauge("store_max_batch"),
            fsync_micros: registry.histogram("store_fsync_micros"),
            batch_records: registry.histogram("store_batch_records"),
        }
    }

    /// One group commit: a single [`CommitStore::append_batch`] of
    /// `records` (non-empty), timed and counted.
    ///
    /// # Errors
    ///
    /// The store's error; the records are counted as failed and are not
    /// durable.
    pub fn commit<S: CommitStore>(
        &self,
        store: &mut S,
        records: &[(StripeId, PersistEvent)],
    ) -> Result<(), StoreError> {
        let n = records.len() as u64;
        self.submitted.add(n);
        let started = Instant::now();
        if let Err(e) = store.append_batch(records) {
            self.failed.add(n);
            return Err(e);
        }
        self.syncs.inc();
        self.committed.add(n);
        self.max_batch.set_max(n);
        self.batch_records.record(n);
        self.fsync_micros
            .record(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        Ok(())
    }

    /// Current commit counters.
    #[must_use]
    pub fn stats(&self) -> CommitStats {
        CommitStats {
            submitted: self.submitted.get(),
            committed: self.committed.get(),
            failed: self.failed.get(),
            syncs: self.syncs.get(),
            max_batch: self.max_batch.get(),
            fsync_micros: self.fsync_micros.snapshot(),
            batch_records: self.batch_records.snapshot(),
        }
    }
}

/// A snapshot of a brick's commit counters.
///
/// `committed / syncs` is the achieved group-commit factor; under
/// concurrent load it should be well above 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommitStats {
    /// Logical records handed to a commit (durable or not).
    pub submitted: u64,
    /// Logical records durably committed.
    pub committed: u64,
    /// Logical records whose commit failed (the brick fenced).
    pub failed: u64,
    /// `sync_data` calls issued.
    pub syncs: u64,
    /// Largest records-per-sync batch observed.
    pub max_batch: u64,
    /// Per-batch write+fsync wall time, microseconds.
    pub fsync_micros: HistogramSnapshot,
    /// Records per group-commit batch.
    pub batch_records: HistogramSnapshot,
}
