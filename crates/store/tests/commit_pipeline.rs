//! Integration tests for the group-commit pipeline: waiters park until
//! their covering sync, concurrent submitters share fsyncs, failures
//! fence, and recovery sees batches all-or-nothing.

use bytes::Bytes;
use fab_obs::Registry;
use fab_core::{BlockValue, PersistEvent, StripeId};
use fab_store::{BrickStore, CommitPipeline};
use fab_timestamp::{ProcessId, Timestamp};
use std::sync::Arc;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fab-commit-{}-{}-{tag}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ts(t: u64) -> Timestamp {
    Timestamp::from_parts(t, ProcessId::new(1))
}

/// A 16-byte payload unlikely to appear in record framing by accident.
fn marker(i: u64) -> Vec<u8> {
    (0..16u64).map(|k| (i * 37 + k * 11) as u8 ^ 0xC3).collect()
}

#[test]
fn waiter_is_released_only_after_bytes_are_on_disk() {
    let dir = tmpdir("durable");
    let path = dir.join("brick.log");
    let pipeline = CommitPipeline::spawn(BrickStore::open(&path).unwrap(), u64::MAX, &Registry::new());
    for i in 0..20u64 {
        let payload = marker(i);
        let event = PersistEvent::Entry(ts(i + 1), BlockValue::Data(Bytes::from(payload.clone())));
        pipeline.append_wait(vec![(StripeId(0), event)]).unwrap();
        // The waiter has been released: the record must already be in the
        // file (written + synced before any callback runs).
        let raw = std::fs::read(&path).unwrap();
        assert!(
            raw.windows(payload.len()).any(|w| w == &payload[..]),
            "record {i} not on disk when its waiter was released"
        );
    }
    let stats = pipeline.stats();
    assert_eq!(stats.committed, 20);
    assert_eq!(stats.failed, 0);
    let store = pipeline.shutdown().expect("committer alive");
    assert_eq!(store.appended_records(), 20);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn concurrent_submitters_share_fsyncs() {
    let dir = tmpdir("group");
    let path = dir.join("brick.log");
    let pipeline = Arc::new(CommitPipeline::spawn(
        BrickStore::open(&path).unwrap(),
        u64::MAX,
        &Registry::new(),
    ));
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 25;
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let p = Arc::clone(&pipeline);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let n = t * PER_THREAD + i;
                    let event = PersistEvent::Entry(
                        ts(n + 1),
                        BlockValue::Data(Bytes::from(marker(n))),
                    );
                    p.append_wait(vec![(StripeId(t), event)]).unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let stats = pipeline.stats();
    assert_eq!(stats.submitted, THREADS * PER_THREAD);
    assert_eq!(stats.committed, THREADS * PER_THREAD);
    assert!(
        stats.syncs < stats.committed,
        "group commit must coalesce: {} syncs for {} records",
        stats.syncs,
        stats.committed
    );
    assert!(stats.max_batch > 1, "at least one multi-record batch");

    // Everything is durable and batches replay correctly after reopen.
    drop(pipeline);
    let store = BrickStore::open(&path).unwrap();
    assert_eq!(store.appended_records(), THREADS * PER_THREAD);
    for t in 0..THREADS {
        let st = store.stripe(StripeId(t)).expect("stripe recovered");
        for i in 0..PER_THREAD {
            let n = t * PER_THREAD + i;
            assert_eq!(
                st.log.entry_at(ts(n + 1)),
                Some(&BlockValue::Data(Bytes::from(marker(n)))),
                "record {n} lost"
            );
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn states_barrier_sees_all_prior_submissions() {
    let dir = tmpdir("states");
    let path = dir.join("brick.log");
    let pipeline = CommitPipeline::spawn(BrickStore::open(&path).unwrap(), u64::MAX, &Registry::new());
    for i in 0..10u64 {
        pipeline.submit(
            vec![(StripeId(i % 3), PersistEvent::OrdTs(ts(i + 1)))],
            |_| {},
        );
    }
    let states = pipeline.states();
    assert_eq!(states.len(), 3, "all three stripes visible");
    for (stripe, st) in states {
        assert!(
            st.ord_ts >= ts(stripe.0 + 1),
            "stripe {stripe:?} missing queued ord-ts"
        );
    }
    assert!(pipeline.flush(), "healthy pipeline flushes clean");
    assert!(!pipeline.is_fenced());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn failed_commit_fences_the_pipeline() {
    let dir = tmpdir("fence");
    let path = dir.join("brick.log");
    let store = BrickStore::open(&path).unwrap();
    // compact_threshold = 0 forces a compaction after the first batch;
    // with the directory gone, that compaction must fail and fence.
    let pipeline = CommitPipeline::spawn(store, 0, &Registry::new());
    std::fs::remove_dir_all(&dir).unwrap();
    // First append may still succeed (the fd stays writable), but the
    // forced compaction fails, so the pipeline must fence.
    let _ = pipeline.append_wait(vec![(StripeId(0), PersistEvent::OrdTs(ts(1)))]);
    let err = pipeline.append_wait(vec![(StripeId(0), PersistEvent::OrdTs(ts(2)))]);
    assert!(err.is_err(), "post-fence submissions must not ack");
    assert!(pipeline.is_fenced());
    assert!(!pipeline.flush(), "fenced pipeline reports unhealthy");
    let stats = pipeline.stats();
    assert!(stats.failed > 0, "failed records counted");
}

#[test]
fn pipeline_shares_instruments_with_its_registry() {
    let dir = tmpdir("obs");
    let path = dir.join("brick.log");
    let registry = Registry::new();
    let pipeline = CommitPipeline::spawn(BrickStore::open(&path).unwrap(), u64::MAX, &registry);
    for i in 0..5u64 {
        let event = PersistEvent::Entry(ts(i + 1), BlockValue::Data(Bytes::from(marker(i))));
        pipeline.append_wait(vec![(StripeId(0), event)]).unwrap();
    }
    // The registry sees the same counters the stats handle reports...
    let stats = pipeline.stats();
    let snap = registry.export();
    assert_eq!(snap.counter("store_committed"), Some(stats.committed));
    assert_eq!(snap.counter("store_submitted"), Some(5));
    assert_eq!(snap.counter("store_syncs"), Some(stats.syncs));
    // ...and the new histograms recorded one sample per batch.
    assert_eq!(stats.batch_records.count, stats.syncs);
    assert_eq!(stats.fsync_micros.count, stats.syncs);
    assert!(stats.fsync_micros.p99 >= stats.fsync_micros.p50);
    let hist = |name: &str| {
        snap.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h.count)
    };
    assert_eq!(hist("store_fsync_micros"), Some(stats.syncs));
    assert_eq!(hist("store_batch_records"), Some(stats.syncs));
    pipeline.shutdown().expect("committer alive");
    std::fs::remove_dir_all(dir).ok();
}
