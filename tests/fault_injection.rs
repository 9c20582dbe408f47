//! Fault-injection suite: the crash-recovery model of §2 exercised
//! adversarially — coordinator crashes at every message boundary of a
//! write, brick churn under lossy networks, partitions, and duplicate
//! delivery.

use bytes::Bytes;
use fab_core::{OpResult, RegisterConfig, SimCluster, StripeId, StripeValue};
use fab_simnet::SimConfig;
use fab_timestamp::ProcessId;

fn blocks(m: usize, tag: u8, size: usize) -> Vec<Bytes> {
    (0..m)
        .map(|i| Bytes::from(vec![tag.wrapping_add(i as u8); size]))
        .collect()
}

fn pid(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// Crash the writing coordinator at every virtual-time offset through its
/// write. Whatever the crash point, all subsequent reads must agree on ONE
/// value — either the old or the new — and that choice must be stable
/// forever after (the partial write resolves exactly once).
#[test]
fn coordinator_crash_at_every_offset_of_write_stripe() {
    let (m, n, size) = (2usize, 4usize, 32usize);
    for offset in 0..10u64 {
        let cfg = RegisterConfig::new(m, n, size).unwrap();
        let mut c = SimCluster::new(cfg, SimConfig::ideal(offset));
        let s = StripeId(0);
        let old = blocks(m, 0x10, size);
        let new = blocks(m, 0x20, size);
        assert_eq!(c.write_stripe(pid(0), s, old.clone()), OpResult::Written);

        let t = c.sim().now();
        c.sim_mut().schedule_call(t, pid(0), {
            let new = new.clone();
            move |b, ctx| {
                b.write_stripe(ctx, s, new).unwrap();
            }
        });
        c.sim_mut().schedule_crash(t + offset, pid(0));
        c.sim_mut().run_until(t + offset + 20);

        // First read decides the partial write's fate...
        let first = c.read_stripe(pid(1), s);
        let OpResult::Stripe(StripeValue::Data(v)) = &first else {
            panic!("offset {offset}: unexpected {first:?}");
        };
        assert!(
            *v == old || *v == new,
            "offset {offset}: read returned neither old nor new"
        );

        // ...and the decision is stable across coordinators and across the
        // crashed coordinator's recovery.
        let t = c.sim().now();
        c.sim_mut().schedule_recovery(t, pid(0));
        c.sim_mut().run_until(t + 1);
        for reader in 0..n as u32 {
            assert_eq!(
                c.read_stripe(pid(reader), s),
                first,
                "offset {offset}: reader p{reader} disagrees"
            );
        }
    }
}

/// Same discipline for block writes: crash at every offset, then verify
/// one stable outcome per block and a decodable stripe.
#[test]
fn coordinator_crash_at_every_offset_of_write_block() {
    let (m, n, size) = (2usize, 4usize, 32usize);
    for offset in 0..10u64 {
        let cfg = RegisterConfig::new(m, n, size).unwrap();
        let mut c = SimCluster::new(cfg, SimConfig::ideal(100 + offset));
        let s = StripeId(0);
        assert_eq!(
            c.write_stripe(pid(0), s, blocks(m, 0x10, size)),
            OpResult::Written
        );
        let t = c.sim().now();
        c.sim_mut().schedule_call(t, pid(1), move |b, ctx| {
            b.write_block(ctx, s, 0, Bytes::from(vec![0xEE; 32]))
                .unwrap();
        });
        c.sim_mut().schedule_crash(t + offset, pid(1));
        c.sim_mut().run_until(t + offset + 20);

        let first = c.read_stripe(pid(2), s);
        let OpResult::Stripe(StripeValue::Data(v)) = &first else {
            panic!("offset {offset}: unexpected {first:?}");
        };
        // Block 0 is old or new; block 1 must be untouched.
        assert!(
            v[0].as_ref() == [0x10u8; 32] || v[0].as_ref() == [0xEEu8; 32],
            "offset {offset}"
        );
        assert_eq!(
            v[1].as_ref(),
            [0x11u8; 32],
            "offset {offset}: block 1 damaged"
        );

        let t = c.sim().now();
        c.sim_mut().schedule_recovery(t, pid(1));
        c.sim_mut().run_until(t + 1);
        for reader in 0..n as u32 {
            assert_eq!(c.read_stripe(pid(reader), s), first, "offset {offset}");
        }
    }
}

/// Rolling brick restarts under a lossy, reordering network: a sequential
/// client keeps a simple model and every completed operation must match.
#[test]
fn rolling_restarts_under_lossy_network() {
    let (m, n, size) = (5usize, 8usize, 64usize);
    let cfg = RegisterConfig::new(m, n, size)
        .unwrap()
        .with_retransmit_interval(100);
    let net = SimConfig::ideal(9).delays(1, 20).drop_probability(0.08);
    let mut c = SimCluster::new(cfg, net);
    let s = StripeId(0);

    #[allow(unused_assignments)]
    let mut current: Option<Vec<Bytes>> = None;
    for round in 0..12u8 {
        // Roll one brick down and the previous one up each round (never
        // more than f = 1 down at once).
        let t = c.sim().now();
        let down = pid(u32::from(round % n as u8));
        c.sim_mut().schedule_crash(t, down);
        let data = blocks(m, round.wrapping_mul(17).wrapping_add(1), size);
        let writer = pid((u32::from(round) + 1) % n as u32);
        assert_eq!(
            c.write_stripe(writer, s, data.clone()),
            OpResult::Written,
            "round {round}"
        );
        current = Some(data);
        let reader = pid((u32::from(round) + 3) % n as u32);
        assert_eq!(
            c.read_stripe(reader, s),
            OpResult::Stripe(StripeValue::Data(current.clone().unwrap())),
            "round {round}"
        );
        let t = c.sim().now();
        c.sim_mut().schedule_recovery(t, down);
        c.sim_mut().run_until(t + 200); // let retransmissions settle
    }
}

/// A minority partition cannot serve, the majority side can; after
/// healing, the minority side serves again and sees the majority's writes.
#[test]
fn partition_majority_progress_and_heal() {
    let (m, n, size) = (2usize, 4usize, 32usize);
    let cfg = RegisterConfig::new(m, n, size).unwrap();
    let mut c = SimCluster::new(cfg, SimConfig::ideal(33));
    let s = StripeId(0);
    assert_eq!(
        c.write_stripe(pid(0), s, blocks(m, 1, size)),
        OpResult::Written
    );

    // Quorum size is 3: {p1,p2,p3} can proceed, {p0} cannot.
    let t = c.sim().now();
    c.sim_mut()
        .schedule_partition(t, &[&[pid(0)], &[pid(1), pid(2), pid(3)]]);
    c.sim_mut().run_until(t + 1);

    let data2 = blocks(m, 2, size);
    assert_eq!(
        c.write_stripe(pid(1), s, data2.clone()),
        OpResult::Written,
        "majority side must make progress"
    );

    // The isolated brick's coordinator stalls (no quorum): start an op and
    // verify it has not completed after a long wait.
    let t = c.sim().now();
    c.sim_mut().schedule_call(t, pid(0), move |b, ctx| {
        b.read_stripe(ctx, s).unwrap();
    });
    c.sim_mut().run_until(t + 5_000);
    assert!(
        c.sim().actor(pid(0)).completions.is_empty(),
        "isolated brick must not answer alone"
    );

    // Heal: the stalled operation completes with the majority's value
    // (retransmission keeps it alive — fair-loss channels, §2).
    let t = c.sim().now();
    c.sim_mut().schedule_heal(t);
    let finished = c
        .sim_mut()
        .run_until_actor(pid(0), t + 10_000, |b| !b.completions.is_empty());
    assert!(finished, "stalled read must finish after healing");
    let done = c.sim_mut().actor_mut(pid(0)).completions.remove(0);
    assert_eq!(done.result, OpResult::Stripe(StripeValue::Data(data2)));
}

/// Duplicated and reordered messages must not break idempotency: run a
/// long sequential workload under heavy duplication and verify values.
#[test]
fn heavy_duplication_is_harmless() {
    let (m, n, size) = (3usize, 5usize, 16usize);
    let cfg = RegisterConfig::new(m, n, size).unwrap();
    let net = SimConfig::ideal(77)
        .delays(1, 10)
        .duplicate_probability(0.5);
    let mut c = SimCluster::new(cfg, net);
    let s = StripeId(0);
    for i in 0..10u8 {
        let data = blocks(m, i.wrapping_mul(29).wrapping_add(3), size);
        assert_eq!(
            c.write_stripe(pid(u32::from(i % n as u8)), s, data.clone()),
            OpResult::Written,
            "round {i}"
        );
        assert_eq!(
            c.read_stripe(pid(u32::from((i + 2) % n as u8)), s),
            OpResult::Stripe(StripeValue::Data(data)),
            "round {i}"
        );
    }
}

/// The whole cluster crashes and recovers: every replica's state is
/// persistent, so the register resumes exactly where it stopped (the
/// paper's claim that the algorithm "can tolerate the simultaneous crash
/// of all processes", §6).
#[test]
fn full_cluster_blackout_and_restart() {
    let (m, n, size) = (2usize, 4usize, 32usize);
    let cfg = RegisterConfig::new(m, n, size).unwrap();
    let mut c = SimCluster::new(cfg, SimConfig::ideal(3));
    let s = StripeId(0);
    let data = blocks(m, 0x44, size);
    assert_eq!(c.write_stripe(pid(0), s, data.clone()), OpResult::Written);

    let t = c.sim().now();
    for i in 0..n as u32 {
        c.sim_mut().schedule_crash(t, pid(i));
    }
    c.sim_mut().run_until(t + 100);
    for i in 0..n as u32 {
        c.sim_mut().schedule_recovery(t + 200, pid(i));
    }
    c.sim_mut().run_until(t + 201);

    assert_eq!(
        c.read_stripe(pid(2), s),
        OpResult::Stripe(StripeValue::Data(data))
    );
    let data2 = blocks(m, 0x55, size);
    assert_eq!(c.write_stripe(pid(3), s, data2.clone()), OpResult::Written);
    assert_eq!(
        c.read_stripe(pid(0), s),
        OpResult::Stripe(StripeValue::Data(data2))
    );
}

/// Weak progress (Proposition 23): once a single correct coordinator is
/// the only one issuing operations, its operations eventually stop
/// aborting, even after a history of conflicts.
#[test]
fn weak_progress_after_contention() {
    let (m, n, size) = (2usize, 4usize, 16usize);
    let cfg = RegisterConfig::new(m, n, size).unwrap();
    let mut c = SimCluster::new(cfg, SimConfig::ideal(21));
    let s = StripeId(0);

    // Contention phase: four coordinators collide repeatedly.
    for round in 0..5u8 {
        let t = c.sim().now();
        for i in 0..n as u32 {
            let data = blocks(m, round.wrapping_mul(31).wrapping_add(i as u8), size);
            c.sim_mut().schedule_call(t, pid(i), move |b, ctx| {
                b.write_stripe(ctx, s, data).unwrap();
            });
        }
        c.sim_mut().run_until_idle();
        c.drain_all_completions();
    }

    // Quiescent phase: p0 alone must succeed promptly.
    let mut successes = 0;
    for i in 0..5u8 {
        let data = blocks(m, 0xA0 + i, size);
        if c.write_stripe(pid(0), s, data.clone()) == OpResult::Written {
            successes += 1;
            assert_eq!(
                c.read_stripe(pid(0), s),
                OpResult::Stripe(StripeValue::Data(data))
            );
        }
    }
    assert_eq!(successes, 5, "a lone coordinator must not keep aborting");
}

/// ROADMAP item 1's history, built by hand so no delay stream can hide it
/// (n = 4, m = 2, so f = 1 and every quorum has 3 bricks). Each step leaves
/// exactly one quorum reachable: brick 2 is down while the write completes
/// on {0,1,3}; brick 1's disk is replaced and nothing rebuilds it; brick 2
/// returns, stale but legitimate; a partition then leaves brick 3 only the
/// quorum {1,2,3}, in which it alone still holds the value. A completed
/// write must still be read back. Today the read sees one block < m, takes
/// the write for a partial one and rolls back to nil: the wiped brick
/// answered as a full member with an empty log.
#[test]
#[ignore = "ROADMAP item 1: a wiped brick votes before it is rebuilt"]
fn completed_write_survives_a_wiped_brick_in_the_read_quorum() {
    let cfg = RegisterConfig::new(2, 4, 16).unwrap();
    let mut c = SimCluster::new(cfg, SimConfig::ideal(1));
    let s = StripeId(0);
    let data = blocks(2, 0x40, 16);

    let t = c.sim().now();
    c.sim_mut().schedule_crash(t, pid(2));
    c.sim_mut().run_until(t + 1);
    assert_eq!(c.write_stripe(pid(0), s, data.clone()), OpResult::Written);
    c.sim_mut().run_until_idle();

    c.wipe(pid(1));
    let t = c.sim().now();
    c.sim_mut().schedule_recovery(t, pid(2));
    c.sim_mut()
        .schedule_partition(t, &[&[pid(0)], &[pid(1), pid(2), pid(3)]]);
    c.sim_mut().run_until(t + 1);

    assert_eq!(
        c.read_stripe(pid(3), s),
        OpResult::Stripe(StripeValue::Data(data)),
        "brick 3 read through quorum {{1,2,3}}; brick 1 was wiped after acknowledging the write"
    );
}
