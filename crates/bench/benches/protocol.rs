//! Timings of the storage-register protocol itself: wall-clock cost of
//! simulated operations (fast vs recovery paths, ours vs LS97) and
//! real-thread operation latency on the runtime cluster.

use bytes::Bytes;
use fab_baseline::BaselineCluster;
use fab_bench::timer::time;
use fab_core::{GcPolicy, RegisterClient, RegisterConfig, SimCluster, StripeId};
use fab_runtime::RuntimeCluster;
use fab_simnet::SimConfig;
use fab_timestamp::ProcessId;

fn blocks(m: usize, seed: u8, size: usize) -> Vec<Bytes> {
    (0..m)
        .map(|i| Bytes::from(vec![seed.wrapping_add(i as u8); size]))
        .collect()
}

fn pid(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// Simulated end-to-end operations: measures harness + protocol CPU cost
/// per op (virtual latency is covered by table1_costs).
fn bench_sim_ops() {
    for (m, n) in [(2usize, 4usize), (5, 8)] {
        let size = 1024;
        let cfg = RegisterConfig::new(m, n, size).unwrap();
        let mut i = 0u8;

        let mut cluster = SimCluster::new(cfg.clone(), SimConfig::ideal(1));
        time(&format!("sim_ops/write_stripe/{m}-of-{n}"), 0, || {
            i = i.wrapping_add(1);
            cluster.write_stripe(pid(0), StripeId(0), blocks(m, i, size))
        });

        let mut cluster = SimCluster::new(cfg.clone(), SimConfig::ideal(2));
        cluster.write_stripe(pid(0), StripeId(0), blocks(m, 1, size));
        time(&format!("sim_ops/read_stripe_fast/{m}-of-{n}"), 0, || {
            cluster.read_stripe(pid(1), StripeId(0))
        });

        let cfg = cfg.with_gc(GcPolicy::Disabled);
        let mut cluster = SimCluster::new(cfg, SimConfig::ideal(3));
        cluster.write_stripe(pid(0), StripeId(0), blocks(m, 1, size));
        time(&format!("sim_ops/write_block_fast/{m}-of-{n}"), 0, || {
            i = i.wrapping_add(1);
            cluster.write_block(pid(1), StripeId(0), 0, Bytes::from(vec![i; size]))
        });
    }
}

/// LS97 baseline under the same harness, for a like-for-like CPU-cost
/// comparison.
fn bench_baseline_ops() {
    for n in [4usize, 8] {
        let mut cluster = BaselineCluster::new(n, SimConfig::ideal(4));
        let mut i = 0u8;
        time(&format!("ls97_ops/write/{n}"), 0, || {
            i = i.wrapping_add(1);
            cluster.write(pid(0), Bytes::from(vec![i; 1024]))
        });
        let mut cluster = BaselineCluster::new(n, SimConfig::ideal(5));
        cluster.write(pid(0), Bytes::from(vec![7u8; 1024]));
        time(&format!("ls97_ops/read/{n}"), 0, || cluster.read(pid(1)));
    }
}

/// Real-thread latency on the runtime cluster (microseconds of actual
/// channel round trips).
fn bench_runtime_ops() {
    let cluster = RuntimeCluster::new(RegisterConfig::new(2, 4, 1024).unwrap());
    let mut client = cluster.client();
    client
        .write_stripe(StripeId(0), blocks(2, 1, 1024))
        .unwrap();
    time("runtime_ops/read_stripe_threads_2of4", 0, || {
        client.read_stripe(StripeId(0)).unwrap()
    });
    let mut i = 0u8;
    time("runtime_ops/write_stripe_threads_2of4", 0, || {
        i = i.wrapping_add(1);
        client
            .write_stripe(StripeId(0), blocks(2, i, 1024))
            .unwrap()
    });
    cluster.shutdown();
}

fn main() {
    bench_sim_ops();
    bench_baseline_ops();
    bench_runtime_ops();
}
