//! Exhaustive interleaving checks for [`fab_store::CommitPipeline`].
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (CI stage 9; see
//! TESTING.md, tier 6): the `sys` module then swaps the pipeline's
//! channels and threads for the workspace `loom` model checker, and these
//! tests explore *every* schedule of the committer thread against its
//! submitters. Three properties are checked, each the load-bearing half of
//! an invariant the protocol relies on:
//!
//! 1. **Callback strictly after the covering sync** — the log-before-send
//!    discipline: a durable-callback must never observe its records
//!    un-synced.
//! 2. **Fencing on commit error** — a failed sync resolves that batch and
//!    every later submission non-durable, and `flush()` reports it.
//! 3. **FIFO waiter order** — callbacks run in submission order, whatever
//!    the schedule.
#![cfg(loom)]

use fab_obs::Registry;
use fab_core::{PersistEvent, StripeId};
use fab_store::{CommitPipeline, CommitStore, StoreError, StripeState};
use fab_timestamp::{ProcessId, Timestamp};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// In-memory [`CommitStore`]: `append_batch` is the "covering sync" —
/// it atomically publishes the ticks it persisted, so callbacks can assert
/// they run strictly after it.
struct FakeStore {
    /// Ticks covered by a completed `append_batch` (the model's "on disk").
    synced: Arc<Mutex<Vec<u64>>>,
    /// Successful `append_batch` calls remaining before an injected failure
    /// (`None` = never fail).
    ok_batches_left: Option<usize>,
}

impl FakeStore {
    fn reliable(synced: &Arc<Mutex<Vec<u64>>>) -> Self {
        FakeStore {
            synced: Arc::clone(synced),
            ok_batches_left: None,
        }
    }

    fn failing_immediately(synced: &Arc<Mutex<Vec<u64>>>) -> Self {
        FakeStore {
            synced: Arc::clone(synced),
            ok_batches_left: Some(0),
        }
    }
}

impl CommitStore for FakeStore {
    fn append_batch(
        &mut self,
        records: &[(StripeId, PersistEvent)],
    ) -> Result<(), StoreError> {
        if let Some(left) = &mut self.ok_batches_left {
            if *left == 0 {
                return Err(StoreError::Io(std::io::Error::other("injected sync failure")));
            }
            *left -= 1;
        }
        let mut synced = self.synced.lock().unwrap();
        for (_, ev) in records {
            let (PersistEvent::OrdTs(ts) | PersistEvent::Entry(ts, _) | PersistEvent::Gc(ts)) =
                ev;
            synced.push(ts.ticks());
        }
        Ok(())
    }

    fn maybe_compact(&mut self, _threshold: u64) -> Result<bool, StoreError> {
        Ok(false)
    }

    fn states(&self) -> Vec<(StripeId, StripeState)> {
        Vec::new()
    }
}

fn rec(tick: u64) -> (StripeId, PersistEvent) {
    (
        StripeId(1),
        PersistEvent::OrdTs(Timestamp::from_parts(tick, ProcessId::new(0))),
    )
}

#[test]
fn callback_runs_strictly_after_covering_sync_and_in_fifo_order() {
    loom::model(|| {
        let synced: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let order: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let pipeline = CommitPipeline::spawn(FakeStore::reliable(&synced), u64::MAX, &Registry::new());
        for tick in 1..=3u64 {
            let synced = Arc::clone(&synced);
            let order = Arc::clone(&order);
            pipeline.submit(vec![rec(tick)], move |durable| {
                assert!(durable, "reliable store: every commit must succeed");
                // Log-before-send: by callback time the covering
                // append_batch (the fsync) must already have landed.
                assert!(
                    synced.lock().unwrap().contains(&tick),
                    "callback for tick {tick} ran before its covering sync"
                );
                order.lock().unwrap().push(tick);
            });
        }
        assert!(pipeline.flush(), "reliable store: flush must stay healthy");
        // Whatever the schedule (one batch of 3, or 3 batches of 1),
        // callbacks resolve in submission order.
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 3]);
        drop(pipeline);
    });
}

#[test]
fn racing_submitters_both_become_durable() {
    loom::model(|| {
        let synced: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let pipeline = Arc::new(CommitPipeline::spawn(
            FakeStore::reliable(&synced),
            u64::MAX,
            &Registry::new(),
        ));
        let d1 = Arc::new(AtomicBool::new(false));
        let d2 = Arc::new(AtomicBool::new(false));
        let h = {
            let pipeline = Arc::clone(&pipeline);
            let d1 = Arc::clone(&d1);
            loom::thread::spawn(move || {
                pipeline.submit(vec![rec(1)], move |durable| {
                    d1.store(durable, Ordering::SeqCst);
                });
            })
        };
        {
            let d2 = Arc::clone(&d2);
            pipeline.submit(vec![rec(2)], move |durable| {
                d2.store(durable, Ordering::SeqCst);
            });
        }
        h.join().unwrap();
        // Drop is the cheapest durability barrier: it queues Shutdown
        // behind both appends and joins the committer, so every callback
        // has run by the time it returns. (A flush() here would add a
        // whole channel round-trip of schedule points — enough to push the
        // exhaustive search past its execution cap.)
        drop(pipeline);
        assert!(d1.load(Ordering::SeqCst) && d2.load(Ordering::SeqCst));
        let synced = synced.lock().unwrap();
        assert!(synced.contains(&1) && synced.contains(&2));
    });
}

#[test]
fn failed_sync_fences_the_pipeline_and_resolves_non_durable() {
    loom::model(|| {
        let synced: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let pipeline =
            CommitPipeline::spawn(FakeStore::failing_immediately(&synced), u64::MAX, &Registry::new());
        let saw: Arc<Mutex<Option<bool>>> = Arc::new(Mutex::new(None));
        {
            let saw = Arc::clone(&saw);
            pipeline.submit(vec![rec(1)], move |durable| {
                *saw.lock().unwrap() = Some(durable);
            });
        }
        // The flush barrier resolves after the failed batch: it must report
        // the fence, and the callback must have seen `durable = false`.
        assert!(!pipeline.flush(), "fenced pipeline must fail flush");
        assert!(pipeline.is_fenced());
        assert_eq!(*saw.lock().unwrap(), Some(false));
        assert!(
            synced.lock().unwrap().is_empty(),
            "nothing may be reported durable after a failed sync"
        );
        let stats = pipeline.stats();
        assert_eq!(stats.committed, 0);
        assert_eq!(stats.failed, 1);
        drop(pipeline);
    });
}
