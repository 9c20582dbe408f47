//! Threaded-runtime stress: genuinely parallel clients contending on the
//! same stripes, with message loss and a mid-run crash — every completed
//! write must be serializable with every read, checked with the
//! strict-linearizability history checker on wall-clock timestamps.

use bytes::Bytes;
use fab_checker::{History, OpRecord};
use fab_core::{OpResult, RegisterClient, RegisterConfig, StripeId, StripeValue};
use fab_runtime::RuntimeCluster;
use fab_timestamp::ProcessId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn value_blocks(m: usize, size: usize, id: u64) -> Vec<Bytes> {
    (0..m)
        .map(|i| {
            let mut b = vec![i as u8; size];
            b[0..8].copy_from_slice(&id.to_le_bytes());
            Bytes::from(b)
        })
        .collect()
}

fn value_of(v: &StripeValue) -> u64 {
    match v {
        StripeValue::Nil => 0,
        StripeValue::Data(blocks) => {
            u64::from_le_bytes(blocks[0][0..8].try_into().expect("tagged block"))
        }
    }
}

/// Four threads hammer ONE stripe with reads and unique-valued writes
/// while 2% of messages drop; the recorded wall-clock history must admit a
/// conforming total order.
#[test]
fn contended_stripe_history_is_strictly_linearizable() {
    let (m, n, size) = (2usize, 4usize, 64usize);
    let cluster = Arc::new(RuntimeCluster::new(
        RegisterConfig::new(m, n, size).unwrap(),
    ));
    cluster.set_drop_probability(0.02);
    let stripe = StripeId(0);
    let epoch = Instant::now();
    let next_value = Arc::new(AtomicU64::new(1));
    let history = Arc::new(Mutex::new(Vec::<OpRecord>::new()));

    let mut handles = Vec::new();
    for t in 0..4 {
        let mut client = cluster.client();
        let next_value = next_value.clone();
        let history = history.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..25 {
                let start = epoch.elapsed().as_nanos() as u64;
                if (t + i) % 3 == 0 {
                    let id = next_value.fetch_add(1, Ordering::Relaxed);
                    let result = client
                        .write_stripe(stripe, value_blocks(2, 64, id))
                        .expect("cluster reachable");
                    let end = epoch.elapsed().as_nanos() as u64;
                    let committed = result == OpResult::Written;
                    history.lock().unwrap().push(OpRecord {
                        value: id,
                        start,
                        end: Some(end),
                        committed,
                        is_read: false,
                    });
                } else {
                    match client.read_stripe(stripe).expect("cluster reachable") {
                        OpResult::Stripe(v) => {
                            let end = epoch.elapsed().as_nanos() as u64;
                            history
                                .lock()
                                .unwrap()
                                .push(OpRecord::read(value_of(&v), start, end));
                        }
                        OpResult::Aborted(_) => {} // aborted read: no record
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
    cluster.shutdown();

    let h: History = history.lock().unwrap().iter().copied().collect();
    assert!(h.len() >= 50, "enough completed operations: {}", h.len());
    if let Err(e) = h.check() {
        panic!("threaded history not strictly linearizable: {e}\n{h:#?}");
    }
}

/// Same contention plus a brick crash and recovery mid-run.
#[test]
fn contention_with_crash_stays_consistent() {
    let (m, n, size) = (2usize, 4usize, 64usize);
    let cluster = Arc::new(RuntimeCluster::new(
        RegisterConfig::new(m, n, size).unwrap(),
    ));
    let stripe = StripeId(1);
    let next_value = Arc::new(AtomicU64::new(1));

    let mut handles = Vec::new();
    for t in 0..3 {
        let mut client = cluster.client();
        client.timeout = std::time::Duration::from_millis(800);
        let next_value = next_value.clone();
        let cluster = cluster.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..20 {
                if t == 0 && i == 7 {
                    cluster.crash(ProcessId::new(3));
                }
                if t == 0 && i == 14 {
                    cluster.recover(ProcessId::new(3));
                }
                let id = next_value.fetch_add(1, Ordering::Relaxed);
                let _ = client.write_stripe(stripe, value_blocks(2, 64, id));
                let _ = client.read_stripe(stripe);
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }

    // Quiescent agreement: sequential reads from each brick's coordinator
    // all return the same value.
    let mut client = cluster.client();
    let first = client.read_stripe(stripe).expect("read");
    for _ in 0..4 {
        assert_eq!(client.read_stripe(stripe).expect("read"), first);
    }
    assert!(matches!(first, OpResult::Stripe(StripeValue::Data(_))));
    cluster.shutdown();
}
