//! A read-mostly "web object store" on the threaded runtime — the paper's
//! §1.2 motivating workload for erasure coding ("for read-intensive
//! workloads (such as Web server workloads) … a FAB system based on
//! erasure codes is a good, highly reliable choice").
//!
//! Four client threads hammer a 5-of-8 cluster of brick threads with a
//! 95%-read mix while messages are randomly dropped; the run prints
//! throughput and verifies every read against a local model.
//!
//! Run: `cargo run --release --example web_store`

use bytes::Bytes;
use fab::prelude::*;
use fab_core::OpResult;
use fab_simnet::Rng64;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const OBJECTS: u64 = 32;
const OPS_PER_CLIENT: usize = 200;
const CLIENTS: usize = 4;

fn object_payload(object: u64, version: u32, m: usize, size: usize) -> Vec<Bytes> {
    (0..m)
        .map(|i| {
            Bytes::from(vec![
                (object as u8)
                    .wrapping_mul(37)
                    .wrapping_add(version as u8)
                    .wrapping_add(i as u8);
                size
            ])
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (m, n, size) = (5usize, 8usize, 4096usize);
    let cluster = Arc::new(RuntimeCluster::new(RegisterConfig::new(m, n, size)?));
    // Inject 2% message loss: the retransmitting quorum primitive shrugs.
    cluster.set_drop_probability(0.02);
    println!("cluster: {n} brick threads, {m}-of-{n} coding, {size}-byte blocks, 2% msg loss");

    let reads = Arc::new(AtomicU64::new(0));
    let writes = Arc::new(AtomicU64::new(0));
    let start = Instant::now();

    let mut handles = Vec::new();
    for t in 0..CLIENTS {
        let mut client = cluster.client();
        let reads = reads.clone();
        let writes = writes.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = Rng64::new(t as u64);
            // Each client owns a disjoint slice of objects so its local
            // model is authoritative (web caches shard the same way).
            let my_objects: Vec<u64> = (0..OBJECTS)
                .filter(|o| o % CLIENTS as u64 == t as u64)
                .collect();
            let mut model: HashMap<u64, u32> = HashMap::new();
            for _ in 0..OPS_PER_CLIENT {
                let object = my_objects[rng.below(my_objects.len() as u64) as usize];
                let stripe = StripeId(object);
                if rng.chance(95, 100) {
                    // Read and verify against the model.
                    match client.read_stripe(stripe).expect("read") {
                        OpResult::Stripe(StripeValue::Nil) => {
                            assert!(
                                !model.contains_key(&object),
                                "object {object} lost its data"
                            );
                        }
                        OpResult::Stripe(StripeValue::Data(blocks)) => {
                            let version = model
                                .get(&object)
                                .copied()
                                .expect("read data for never-written object");
                            assert_eq!(
                                blocks,
                                object_payload(object, version, 5, 4096),
                                "object {object} returned a stale or wrong version"
                            );
                        }
                        OpResult::Aborted(_) => continue, // conflict: retry-free skip
                        other => panic!("unexpected {other:?}"),
                    }
                    reads.fetch_add(1, Ordering::Relaxed);
                } else {
                    let version = model.get(&object).map_or(0, |v| v + 1);
                    let payload = object_payload(object, version, 5, 4096);
                    match client.write_stripe(stripe, payload).expect("write") {
                        OpResult::Written => {
                            model.insert(object, version);
                            writes.fetch_add(1, Ordering::Relaxed);
                        }
                        OpResult::Aborted(_) => continue,
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }

    let secs = start.elapsed().as_secs_f64();
    let (r, w) = (
        reads.load(Ordering::Relaxed),
        writes.load(Ordering::Relaxed),
    );
    println!("completed {r} verified reads and {w} writes in {secs:.2}s");
    println!(
        "throughput: {:.0} ops/s across {CLIENTS} clients",
        (r + w) as f64 / secs
    );
    cluster.shutdown();
    println!("ok");
    Ok(())
}
