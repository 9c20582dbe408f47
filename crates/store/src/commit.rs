//! Group-commit pipeline: amortize `sync_data` across concurrent writers.
//!
//! Syncing each record on its own pays one fsync per record — correct, but at
//! ~100µs+ per `sync_data` it caps a brick at a few thousand persisted
//! events per second no matter how fast the protocol layer runs. The fix
//! used by every serious write-ahead log is *group commit*: while one sync
//! is in flight, newly submitted records queue up; the next sync covers
//! all of them at once.
//!
//! [`CommitPipeline`] implements that with a dedicated committer thread
//! that **owns** the [`BrickStore`] (no lock on the hot path):
//!
//! * [`CommitPipeline::submit`] queues a group of records plus a
//!   *durable-callback* and returns immediately — the caller's event loop
//!   keeps processing while the disk works.
//! * The committer drains the queue greedily (one blocking `recv`, then
//!   `try_recv` until empty or [`MAX_BATCH_RECORDS`]), folds everything
//!   into one [`BrickStore::append_batch`] — one `write_all`, one
//!   `sync_data`, all-or-nothing on replay — and only **then** runs the
//!   callbacks, in submission order.
//!
//! The callback discipline is what preserves the protocol's
//! *log-before-send* invariant: a replica reply must not leave the process
//! before the fsync covering every record its state reflects. Callers
//! route each reply through `submit` (with that reply's records, or with
//! an empty record list to barrier behind earlier submissions) and send it
//! from the callback.
//!
//! If a commit fails the pipeline **fences**: the failed batch and every
//! later submission resolve with `durable = false` and the store is never
//! touched again — the caller must stop acking (mirroring §2's
//! crash-recovery model, where a brick that cannot persist must fail-stop
//! rather than reply from volatile state).

use crate::sys::mpsc::{channel, Receiver, Sender};
use crate::sys::thread;
use crate::{BrickStore, StoreError, StripeState};
use fab_core::{PersistEvent, StripeId};
use fab_obs::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Upper bound on logical records folded into one batch commit; bounds the
/// staging buffer and the latency any single waiter can be held behind.
pub const MAX_BATCH_RECORDS: usize = 1024;

/// What the committer thread needs from the storage backend it owns.
///
/// [`BrickStore`] is the production implementation; `tests/loom.rs`
/// substitutes an in-memory fake so the pipeline's callback/fencing/FIFO
/// discipline can be model-checked without touching a filesystem. The
/// committer moves the store onto its own thread, hence `Send + 'static`.
pub trait CommitStore: Send + 'static {
    /// Persists `records` atomically (one covering sync); all-or-nothing
    /// on replay.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] fences the pipeline: the batch and every later
    /// submission resolve non-durable.
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
    /// future commits.
    fn maybe_compact(&mut self, threshold: u64) -> Result<bool, StoreError>;

    /// Snapshot of every stripe's in-memory state (used by the
    /// [`CommitPipeline::states`] barrier).
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

type DurableCallback = Box<dyn FnOnce(bool) + Send + 'static>;

enum Job<S> {
    /// Records to persist; `done(durable)` runs after the covering sync.
    Append {
        records: Vec<(StripeId, PersistEvent)>,
        done: Option<DurableCallback>,
    },
    /// Snapshot the in-memory stripe states (barriers behind prior appends).
    States(Sender<Vec<(StripeId, StripeState)>>),
    /// Stop the committer; optionally hand the store back.
    Shutdown(Option<Sender<S>>),
}

/// The pipeline's instruments, registered under `store_*` names in the
/// registry the pipeline was spawned with, so a node's `stats-snapshot`
/// replies carry them without any bridging.
#[derive(Debug)]
struct Counters {
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

impl Counters {
    fn registered(registry: &fab_obs::Registry) -> Self {
        Counters {
            submitted: registry.counter("store_submitted"),
            committed: registry.counter("store_committed"),
            failed: registry.counter("store_failed"),
            syncs: registry.counter("store_syncs"),
            max_batch: registry.gauge("store_max_batch"),
            fsync_micros: registry.histogram("store_fsync_micros"),
            batch_records: registry.histogram("store_batch_records"),
        }
    }

    fn read(&self) -> CommitStats {
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

/// A clonable, thread-safe observer of a [`CommitPipeline`]'s counters
/// (see [`CommitPipeline::stats_handle`]).
#[derive(Debug, Clone)]
pub struct CommitStatsHandle {
    counters: Arc<Counters>,
    fenced: Arc<AtomicBool>,
}

impl CommitStatsHandle {
    /// Current commit counters.
    #[must_use]
    pub fn stats(&self) -> CommitStats {
        self.counters.read()
    }

    /// True once a commit has failed (the pipeline is fenced).
    #[must_use]
    pub fn is_fenced(&self) -> bool {
        self.fenced.load(Ordering::Acquire)
    }
}

/// A snapshot of the pipeline's commit counters.
///
/// `committed / syncs` is the achieved group-commit factor; under
/// concurrent load it should be well above 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommitStats {
    /// Logical records submitted (durable or not).
    pub submitted: u64,
    /// Logical records durably committed.
    pub committed: u64,
    /// Logical records that failed (pipeline fenced).
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

/// Handle to a committer thread that owns a [`CommitStore`] (a
/// [`BrickStore`] in production) and group-commits submissions. Cheap to
/// use from any thread via `&self`; see the module docs for the
/// ack-after-fsync discipline.
pub struct CommitPipeline<S: CommitStore = BrickStore> {
    tx: Sender<Job<S>>,
    handle: Option<thread::JoinHandle<()>>,
    counters: Arc<Counters>,
    fenced: Arc<AtomicBool>,
}

impl<S: CommitStore> std::fmt::Debug for CommitPipeline<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitPipeline")
            .field("stats", &self.stats())
            .field("fenced", &self.is_fenced())
            .finish()
    }
}

impl<S: CommitStore> CommitPipeline<S> {
    /// Takes ownership of `store` and spawns the committer thread; the
    /// pipeline's instruments are registered in `registry` under `store_*`
    /// names.
    ///
    /// After every batch the committer calls
    /// [`CommitStore::maybe_compact`] with `compact_threshold`, so
    /// compaction also rides off the caller's event loop (pass `u64::MAX`
    /// to disable).
    pub fn spawn(store: S, compact_threshold: u64, registry: &fab_obs::Registry) -> Self {
        let (tx, rx) = channel();
        let counters = Arc::new(Counters::registered(registry));
        let fenced = Arc::new(AtomicBool::new(false));
        let handle = thread::Builder::new()
            .name("fab-commit".into())
            .spawn({
                let counters = Arc::clone(&counters);
                let fenced = Arc::clone(&fenced);
                move || committer(store, &rx, &counters, &fenced, compact_threshold)
            })
            .ok();
        if handle.is_none() {
            // No committer: nothing will ever be durable.
            fenced.store(true, Ordering::Release);
        }
        CommitPipeline {
            tx,
            handle,
            counters,
            fenced,
        }
    }

    /// Queues `records` for the next group commit and returns immediately.
    ///
    /// `done(true)` runs on the committer thread strictly *after* the
    /// `sync_data` covering the records; `done(false)` runs if the pipeline
    /// is (or becomes) fenced. An empty `records` acts as a durability
    /// barrier: its callback runs once everything submitted before it has
    /// resolved.
    pub fn submit(
        &self,
        records: Vec<(StripeId, PersistEvent)>,
        done: impl FnOnce(bool) + Send + 'static,
    ) {
        let n = records.len() as u64;
        self.counters.submitted.add(n);
        let job = Job::Append {
            records,
            done: Some(Box::new(done)),
        };
        if let Err(rejected) = self.tx.send(job) {
            // Committer gone (shutdown raced us): resolve the caller now.
            self.fenced.store(true, Ordering::Release);
            if let Job::Append {
                done: Some(cb),
                records,
            } = rejected.0
            {
                self.counters.failed.add(records.len() as u64);
                cb(false);
            }
        }
    }

    /// Submits `records` and parks the caller until the covering sync
    /// lands. Returns `Ok(())` iff the records are durable.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the pipeline is fenced (a commit failed or
    /// the committer is gone); the records are not durable in that case.
    pub fn append_wait(
        &self,
        records: Vec<(StripeId, PersistEvent)>,
    ) -> Result<(), StoreError> {
        let (tx, rx) = channel();
        self.submit(records, move |durable| {
            let _ = tx.send(durable);
        });
        if rx.recv().unwrap_or(false) {
            Ok(())
        } else {
            Err(StoreError::Io(std::io::Error::other(
                "commit pipeline fenced",
            )))
        }
    }

    /// Blocks until every previously submitted record has resolved.
    /// Returns `true` iff the pipeline is still healthy.
    pub fn flush(&self) -> bool {
        self.append_wait(Vec::new()).is_ok()
    }

    /// Snapshot of all stripe states (barriers behind queued appends).
    /// Empty if the committer is gone.
    pub fn states(&self) -> Vec<(StripeId, StripeState)> {
        let (tx, rx) = channel();
        if self.tx.send(Job::States(tx)).is_err() {
            return Vec::new();
        }
        rx.recv().unwrap_or_default()
    }

    /// True once a commit has failed; no later submission will be durable.
    pub fn is_fenced(&self) -> bool {
        self.fenced.load(Ordering::Acquire)
    }

    /// Current commit counters.
    pub fn stats(&self) -> CommitStats {
        self.counters.read()
    }

    /// A cheap clonable observer of this pipeline's counters, usable after
    /// the pipeline itself has moved to another thread.
    pub fn stats_handle(&self) -> CommitStatsHandle {
        CommitStatsHandle {
            counters: Arc::clone(&self.counters),
            fenced: Arc::clone(&self.fenced),
        }
    }

    /// Stops the committer after it resolves everything queued, returning
    /// the store (e.g. for recovery tests). `None` if the committer is
    /// already gone.
    pub fn shutdown(mut self) -> Option<S> {
        let (tx, rx) = channel();
        if self.tx.send(Job::Shutdown(Some(tx))).is_err() {
            return None;
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        rx.recv().ok()
    }
}

impl<S: CommitStore> Drop for CommitPipeline<S> {
    fn drop(&mut self) {
        let _ = self.tx.send(Job::Shutdown(None));
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The committer loop: block for one job, drain greedily, commit once.
fn committer<S: CommitStore>(
    mut store: S,
    rx: &Receiver<Job<S>>,
    counters: &Counters,
    fenced: &AtomicBool,
    compact_threshold: u64,
) {
    let mut records: Vec<(StripeId, PersistEvent)> = Vec::new();
    let mut done: Vec<DurableCallback> = Vec::new();
    loop {
        let Ok(first) = rx.recv() else {
            break; // all senders gone
        };
        let mut next = Some(first);
        let mut stop = None;
        while let Some(job) = next {
            match job {
                Job::Append {
                    records: mut batch,
                    done: cb,
                } => {
                    records.append(&mut batch);
                    done.extend(cb);
                    if records.len() >= MAX_BATCH_RECORDS {
                        break;
                    }
                }
                Job::States(reply) => {
                    // Barrier: queued appends must be visible in the snapshot.
                    commit_batch(
                        &mut store,
                        counters,
                        fenced,
                        compact_threshold,
                        &mut records,
                        &mut done,
                    );
                    let _ = reply.send(store.states());
                }
                Job::Shutdown(reply) => {
                    stop = Some(reply);
                    break;
                }
            }
            next = rx.try_recv().ok();
        }
        commit_batch(
            &mut store,
            counters,
            fenced,
            compact_threshold,
            &mut records,
            &mut done,
        );
        if let Some(reply) = stop {
            if let Some(reply) = reply {
                let _ = reply.send(store);
            }
            break;
        }
    }
}

/// One group commit: a single `append_batch` (one write + one sync), then
/// the callbacks — strictly after the covering sync, in submission order.
fn commit_batch<S: CommitStore>(
    store: &mut S,
    counters: &Counters,
    fenced: &AtomicBool,
    compact_threshold: u64,
    records: &mut Vec<(StripeId, PersistEvent)>,
    done: &mut Vec<DurableCallback>,
) {
    if records.is_empty() && done.is_empty() {
        return;
    }
    let n = records.len() as u64;
    let durable = if fenced.load(Ordering::Acquire) {
        false
    } else {
        let started = std::time::Instant::now();
        match store.append_batch(records) {
            Ok(()) => {
                if n > 0 {
                    counters.syncs.inc();
                    counters.committed.add(n);
                    counters.max_batch.set_max(n);
                    counters.batch_records.record(n);
                    counters
                        .fsync_micros
                        .record(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
                }
                // Compaction rides the committer thread, off the callers'
                // event loops. A failed compaction leaves the just-synced
                // batch durable but fences future commits.
                if store.maybe_compact(compact_threshold).is_err() {
                    fenced.store(true, Ordering::Release);
                }
                true
            }
            Err(_) => {
                fenced.store(true, Ordering::Release);
                false
            }
        }
    };
    if !durable {
        counters.failed.add(n);
    }
    records.clear();
    for cb in done.drain(..) {
        cb(durable);
    }
}
