//! Ablation of the optimistic single-round read (§4.1.2's "pleasant side
//! effect"): the same workloads with the fast path enabled vs disabled.
//!
//! Run: `cargo run -p fab-bench --bin ablation_fast_read`

use bytes::Bytes;
use fab_core::{GcPolicy, OpResult, RegisterConfig, SimCluster, StripeId};
use fab_simnet::SimConfig;
use fab_timestamp::ProcessId;

fn blocks(m: usize, seed: u8, size: usize) -> Vec<Bytes> {
    (0..m)
        .map(|i| Bytes::from(vec![seed.wrapping_add(i as u8); size]))
        .collect()
}

fn measure(fast: bool) -> (u64, u64, u64, u64) {
    let (m, n, size) = (5usize, 8usize, 1024usize);
    let cfg = RegisterConfig::new(m, n, size)
        .unwrap()
        .with_gc(GcPolicy::Disabled)
        .with_fast_read(fast);
    let mut c = SimCluster::new(cfg, SimConfig::ideal(3));
    let s = StripeId(0);
    c.write_stripe(ProcessId::new(0), s, blocks(m, 1, size));
    let (done, costs) = c.measure_op(ProcessId::new(1), move |b, ctx| {
        b.read_stripe(ctx, s).unwrap();
    });
    assert!(matches!(done.result, OpResult::Stripe(_)));
    (
        costs.latency,
        costs.messages,
        costs.disk_reads,
        costs.disk_writes,
    )
}

fn main() {
    println!("Fast-read ablation — quiescent stripe read on 5-of-8, B = 1 KiB\n");
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>12}",
        "configuration", "latency(δ)", "#messages", "disk reads", "disk writes"
    );
    println!("{}", "-".repeat(74));
    let (l1, m1, r1, w1) = measure(true);
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>12}",
        "fast read (paper)", l1, m1, r1, w1
    );
    let (l2, m2, r2, w2) = measure(false);
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>12}",
        "always-recover", l2, m2, r2, w2
    );
    println!(
        "\nThe optimistic read is {}x lower latency, {}x fewer messages, and",
        l2 / l1,
        m2 / m1
    );
    println!(
        "replaces {r2} disk reads + {w2} disk WRITES with {r1} reads and none —"
    );
    println!("without it, every read performs a write-back like LS97 (Table 1).");
}
