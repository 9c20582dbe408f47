//! Ours-vs-LS97 semantic comparison: with replication (m = 1) the storage
//! register and the LS97 register implement the same abstract object, so
//! identical sequential workloads must observe identical values — while
//! the cost profiles differ exactly as Table 1 says.

use bytes::Bytes;
use fab_baseline::{BaselineCluster, BaselineResult};
use fab_core::{BlockValue, OpResult, RegisterConfig, SimCluster, StripeId};
use fab_simnet::SimConfig;
use fab_timestamp::ProcessId;

fn pid(i: u32) -> ProcessId {
    ProcessId::new(i)
}

struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Runs the same random sequential read/write schedule against both
/// registers; every read must return the same value.
#[test]
fn identical_sequential_histories() {
    for seed in 0..5u64 {
        let n = 3usize;
        let size = 24usize;
        let cfg = RegisterConfig::new(1, n, size).unwrap();
        let mut ours = SimCluster::new(cfg, SimConfig::ideal(seed));
        let mut theirs = BaselineCluster::new(n, SimConfig::ideal(seed));
        let s = StripeId(0);
        let mut rng = Lcg(seed + 1);

        for step in 0..40 {
            let coordinator = pid(rng.below(n as u64) as u32);
            if rng.below(3) == 0 {
                let value = Bytes::from(vec![rng.next() as u8; size]);
                assert_eq!(
                    ours.write_stripe(coordinator, s, vec![value.clone()]),
                    OpResult::Written,
                    "seed {seed} step {step}"
                );
                assert_eq!(
                    theirs.write(coordinator, value),
                    BaselineResult::Written,
                    "seed {seed} step {step}"
                );
            } else {
                let our_value = match ours.read_stripe(coordinator, s) {
                    OpResult::Stripe(fab_core::StripeValue::Nil) => None,
                    OpResult::Stripe(fab_core::StripeValue::Data(mut b)) => Some(b.remove(0)),
                    other => panic!("seed {seed} step {step}: {other:?}"),
                };
                let their_value = match theirs.read(coordinator) {
                    BaselineResult::Read(v) => v,
                    other => panic!("seed {seed} step {step}: {other:?}"),
                };
                assert_eq!(our_value, their_value, "seed {seed} step {step}");
            }
        }
    }
}

/// Both registers survive f crashed replicas; ours additionally keeps its
/// one-round read.
#[test]
fn both_tolerate_a_minority_crash() {
    let n = 3usize;
    let size = 16usize;
    let cfg = RegisterConfig::new(1, n, size).unwrap();
    let mut ours = SimCluster::new(cfg, SimConfig::ideal(9));
    let mut theirs = BaselineCluster::new(n, SimConfig::ideal(9));
    let s = StripeId(0);
    let value = Bytes::from(vec![0x3C; size]);

    assert_eq!(
        ours.write_stripe(pid(0), s, vec![value.clone()]),
        OpResult::Written
    );
    assert_eq!(theirs.write(pid(0), value.clone()), BaselineResult::Written);

    let t = ours.sim().now();
    ours.sim_mut().schedule_crash(t, pid(2));
    ours.sim_mut().run_until(t + 1);
    let t = theirs.sim().now();
    theirs.sim_mut().schedule_crash(t, pid(2));
    theirs.sim_mut().run_until(t + 1);

    assert_eq!(
        ours.read_stripe(pid(0), s),
        OpResult::Stripe(fab_core::StripeValue::Data(vec![value.clone()]))
    );
    assert_eq!(theirs.read(pid(0)), BaselineResult::Read(Some(value)));
}

/// The cost asymmetry of Table 1, asserted head-to-head on one run:
/// our failure-free read is one round cheaper and does a fraction of the
/// disk work; writes cost the same rounds.
#[test]
fn cost_asymmetry_holds_at_m_equals_1() {
    let n = 5usize;
    let size = 512usize;
    let cfg = RegisterConfig::new(1, n, size)
        .unwrap()
        .with_gc(fab_core::GcPolicy::Disabled);
    let mut ours = SimCluster::new(cfg, SimConfig::ideal(4));
    let mut theirs = BaselineCluster::new(n, SimConfig::ideal(4));
    let s = StripeId(0);
    let value = Bytes::from(vec![9u8; size]);
    ours.write_stripe(pid(0), s, vec![value.clone()]);
    theirs.write(pid(0), value);

    let (done, our_read) = ours.measure_op(pid(1), move |b, ctx| {
        b.read_stripe(ctx, s).unwrap();
    });
    assert!(done.result.is_ok());
    let (_, their_read) = theirs.measure(pid(1), |node, ctx| {
        node.read(ctx);
    });
    assert_eq!(our_read.latency, 2);
    assert_eq!(their_read.latency, 4);
    assert_eq!(our_read.disk_reads, 1, "one targeted replica read");
    assert_eq!(their_read.disk_reads, n as u64, "n replica reads");
    assert_eq!(our_read.disk_writes, 0, "no write-back on the fast path");
}

/// Our register's stronger semantics in one frame: after an aborted
/// (conflicting) write, reads still agree — the baseline never aborts but
/// pays the write-back on every read instead.
#[test]
fn conflict_behavior_difference() {
    let n = 3usize;
    let size = 16usize;
    let cfg = RegisterConfig::new(1, n, size).unwrap();
    let mut ours = SimCluster::new(cfg, SimConfig::ideal(12));
    let s = StripeId(0);
    // Two simultaneous writes: at most one OK; any abort is surfaced, not
    // silently reordered.
    let t = ours.sim().now();
    for (i, tag) in [(0u32, 0xAAu8), (1, 0xBB)] {
        ours.sim_mut().schedule_call(t, pid(i), move |b, ctx| {
            b.write_stripe(ctx, s, vec![Bytes::from(vec![tag; 16])])
                .unwrap();
        });
    }
    ours.sim_mut().run_until_idle();
    let results = ours.drain_all_completions();
    assert_eq!(results.len(), 2);
    let oks = results.iter().filter(|(_, c)| c.result.is_ok()).count();
    assert!(oks >= 1);
    // All replicas converge: sequential reads agree from every brick.
    let first = ours.read_stripe(pid(2), s);
    for i in 0..n as u32 {
        assert_eq!(ours.read_stripe(pid(i), s), first);
    }
    match first {
        OpResult::Stripe(fab_core::StripeValue::Data(b)) => {
            assert!(b[0][0] == 0xAA || b[0][0] == 0xBB);
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// Block-level API degenerates correctly at m = 1: block 0 IS the stripe.
#[test]
fn block_api_at_m_equals_1() {
    let cfg = RegisterConfig::new(1, 3, 8).unwrap();
    let mut ours = SimCluster::new(cfg, SimConfig::ideal(2));
    let s = StripeId(0);
    let b = Bytes::from(vec![5u8; 8]);
    assert_eq!(ours.write_block(pid(0), s, 0, b.clone()), OpResult::Written);
    assert_eq!(
        ours.read_block(pid(1), s, 0),
        OpResult::Block(BlockValue::Data(b.clone()))
    );
    assert_eq!(
        ours.read_stripe(pid(2), s),
        OpResult::Stripe(fab_core::StripeValue::Data(vec![b]))
    );
}
