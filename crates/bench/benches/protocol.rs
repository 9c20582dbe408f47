//! Criterion benches of the storage-register protocol itself: wall-clock
//! cost of simulated operations (fast vs recovery paths, ours vs LS97) and
//! real-thread operation latency on the runtime cluster.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fab_baseline::BaselineCluster;
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
fn bench_sim_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_ops");
    for (m, n) in [(2usize, 4usize), (5, 8)] {
        let size = 1024;
        let label = format!("{m}-of-{n}");
        group.bench_function(BenchmarkId::new("write_stripe", &label), |b| {
            let cfg = RegisterConfig::new(m, n, size).unwrap();
            let mut cluster = SimCluster::new(cfg, SimConfig::ideal(1));
            let mut i = 0u8;
            b.iter(|| {
                i = i.wrapping_add(1);
                cluster.write_stripe(pid(0), StripeId(0), blocks(m, i, size))
            });
        });
        group.bench_function(BenchmarkId::new("read_stripe_fast", &label), |b| {
            let cfg = RegisterConfig::new(m, n, size).unwrap();
            let mut cluster = SimCluster::new(cfg, SimConfig::ideal(2));
            cluster.write_stripe(pid(0), StripeId(0), blocks(m, 1, size));
            b.iter(|| cluster.read_stripe(pid(1), StripeId(0)));
        });
        group.bench_function(BenchmarkId::new("write_block_fast", &label), |b| {
            let cfg = RegisterConfig::new(m, n, size)
                .unwrap()
                .with_gc(GcPolicy::Disabled);
            let mut cluster = SimCluster::new(cfg, SimConfig::ideal(3));
            cluster.write_stripe(pid(0), StripeId(0), blocks(m, 1, size));
            let mut i = 0u8;
            b.iter(|| {
                i = i.wrapping_add(1);
                cluster.write_block(pid(1), StripeId(0), 0, Bytes::from(vec![i; size]))
            });
        });
    }
    group.finish();
}

/// LS97 baseline under the same harness, for a like-for-like CPU-cost
/// comparison.
fn bench_baseline_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("ls97_ops");
    for n in [4usize, 8] {
        group.bench_function(BenchmarkId::new("write", n), |b| {
            let mut cluster = BaselineCluster::new(n, SimConfig::ideal(4));
            let mut i = 0u8;
            b.iter(|| {
                i = i.wrapping_add(1);
                cluster.write(pid(0), Bytes::from(vec![i; 1024]))
            });
        });
        group.bench_function(BenchmarkId::new("read", n), |b| {
            let mut cluster = BaselineCluster::new(n, SimConfig::ideal(5));
            cluster.write(pid(0), Bytes::from(vec![7u8; 1024]));
            b.iter(|| cluster.read(pid(1)));
        });
    }
    group.finish();
}

/// Real-thread latency on the runtime cluster (microseconds of actual
/// channel round trips).
fn bench_runtime_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_ops");
    group.sample_size(30);
    let cluster = RuntimeCluster::new(RegisterConfig::new(2, 4, 1024).unwrap());
    let mut client = cluster.client();
    client
        .write_stripe(StripeId(0), blocks(2, 1, 1024))
        .unwrap();
    group.bench_function("read_stripe_threads_2of4", |b| {
        b.iter(|| client.read_stripe(StripeId(0)).unwrap());
    });
    group.bench_function("write_stripe_threads_2of4", |b| {
        let mut i = 0u8;
        b.iter(|| {
            i = i.wrapping_add(1);
            client
                .write_stripe(StripeId(0), blocks(2, i, 1024))
                .unwrap()
        });
    });
    group.finish();
    cluster.shutdown();
}

criterion_group!(
    benches,
    bench_sim_ops,
    bench_baseline_ops,
    bench_runtime_ops
);
criterion_main!(benches);
