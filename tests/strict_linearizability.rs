//! Strict linearizability of the storage register (§3, Appendix B).
//!
//! Two layers of evidence:
//!
//! 1. **Figure 5, literally** — the paper's counter-example scenario is
//!    replayed and the implementation is shown to return the value the
//!    strict order demands.
//! 2. **A history checker over random executions** — concurrent reads and
//!    writes from many coordinators, with coordinator crashes, brick
//!    crashes/recoveries and message loss, are recorded as an external
//!    history and validated against Definition 5 of the paper: a
//!    *conforming total order* of the observed values must exist. For a
//!    register with unique written values this reduces to acyclicity of
//!    the value-precedence graph induced by real-time ordering:
//!    `op(v) ends before op(v') starts  ⇒  v before v'` (plus `nil` first).
//!    Partial writes (coordinator crashed) take their crash time as their
//!    end event — exactly the strictness condition: a partial write may
//!    take effect before the crash or never.

use bytes::Bytes;
use fab_core::{Completion, OpResult, RegisterConfig, SimCluster, StripeId, StripeValue};
use fab_simnet::SimConfig;
use fab_timestamp::ProcessId;
use std::collections::HashMap;

// ---------------------------------------------------------------------
// History recording (the checker itself lives in `fab-checker`)
// ---------------------------------------------------------------------

use fab_checker::{History, OpRecord, ValueId, NIL};

// ---------------------------------------------------------------------
// Harness: drive random concurrent executions and record the history
// ---------------------------------------------------------------------

fn tagged_blocks(m: usize, size: usize, id: ValueId) -> Vec<Bytes> {
    (0..m)
        .map(|i| {
            let mut b = vec![i as u8; size];
            b[0] = (id >> 8) as u8;
            b[1] = id as u8;
            Bytes::from(b)
        })
        .collect()
}

fn value_of(result: &StripeValue) -> ValueId {
    match result {
        StripeValue::Nil => NIL,
        StripeValue::Data(blocks) => (u64::from(blocks[0][0]) << 8) | u64::from(blocks[0][1]),
    }
}

/// Simple deterministic PRNG for schedule generation.
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

/// Runs one random concurrent execution and checks its history.
fn run_random_execution(seed: u64) {
    let (m, n, size) = (2usize, 4usize, 32usize);
    let cfg = RegisterConfig::new(m, n, size).unwrap();
    let net = SimConfig::ideal(seed).delays(1, 8).drop_probability(0.05);
    let mut cluster = SimCluster::new(cfg, net);
    let stripe = StripeId(0);
    let mut rng = Lcg(seed.wrapping_mul(2654435761).wrapping_add(1));

    // Schedule a mixture of reads and writes from random coordinators at
    // random times, plus coordinator/replica crash-recovery pairs.
    let op_count = 24;
    let mut write_ids: Vec<ValueId> = Vec::new();
    let mut op_start: HashMap<(u32, u64), u64> = HashMap::new(); // (coordinator, nth) unused
    let _ = &mut op_start;
    let mut invocations: Vec<(u64, u32, Option<ValueId>)> = Vec::new(); // (time, coordinator, write id)
    let mut next_id: ValueId = 1;
    for _ in 0..op_count {
        let at = rng.below(600);
        let coordinator = rng.below(n as u64) as u32;
        if rng.below(2) == 0 {
            invocations.push((at, coordinator, None));
        } else {
            invocations.push((at, coordinator, Some(next_id)));
            write_ids.push(next_id);
            next_id += 1;
        }
    }
    // Crash/recovery churn: at most f = 1 concurrently-crashed brick.
    let mut crashes: Vec<(u64, u64, u32)> = Vec::new(); // (down, up, pid)
    let mut t = 50;
    while t < 500 {
        let pid = rng.below(n as u64) as u32;
        let down_for = 20 + rng.below(80);
        crashes.push((t, t + down_for, pid));
        t += down_for + 30 + rng.below(60);
    }

    for (at, coordinator, write) in &invocations {
        let s = stripe;
        match write {
            None => {
                cluster.sim_mut().schedule_call(
                    *at,
                    ProcessId::new(*coordinator),
                    move |b, ctx| {
                        b.read_stripe(ctx, s).unwrap();
                    },
                );
            }
            Some(id) => {
                let blocks = tagged_blocks(m, size, *id);
                cluster.sim_mut().schedule_call(
                    *at,
                    ProcessId::new(*coordinator),
                    move |b, ctx| {
                        b.write_stripe(ctx, s, blocks).unwrap();
                    },
                );
            }
        }
    }
    for (down, up, pid) in &crashes {
        cluster
            .sim_mut()
            .schedule_crash(*down, ProcessId::new(*pid));
        cluster
            .sim_mut()
            .schedule_recovery(*up, ProcessId::new(*pid));
    }
    cluster.sim_mut().run_until_idle();

    // Collect the external history. Completions carry invoke/complete
    // times; writes that never completed (coordinator crashed mid-flight)
    // appear with their crash time as end.
    let completions: Vec<(ProcessId, Completion)> = cluster.drain_all_completions();
    let mut ops: Vec<OpRecord> = Vec::new();
    let mut seen_op_keys: Vec<(u32, u64)> = Vec::new();
    for (pid, c) in &completions {
        seen_op_keys.push((pid.value(), c.op));
        match &c.result {
            OpResult::Stripe(v) => ops.push(OpRecord {
                value: value_of(v),
                start: c.invoked_at,
                end: Some(c.completed_at),
                committed: false,
                is_read: true,
            }),
            OpResult::Written => {
                // Identify which write id this was via invocation matching
                // below; push placeholder now.
                ops.push(OpRecord {
                    value: u64::MAX, // patched below
                    start: c.invoked_at,
                    end: Some(c.completed_at),
                    committed: true,
                    is_read: false,
                });
            }
            OpResult::Aborted(_) => {
                // An aborted write may or may not have taken effect; its
                // end event still orders later operations if observed.
                ops.push(OpRecord {
                    value: u64::MAX,
                    start: c.invoked_at,
                    end: Some(c.completed_at),
                    committed: false,
                    is_read: false,
                });
            }
            other => panic!("unexpected result {other:?}"),
        }
    }
    // Patch write values: match completions to scheduled writes by
    // invocation time + coordinator. (Invocation times are unique enough
    // under this generator; collisions only weaken the check, never
    // falsely fail it, because unmatched ops are dropped.)
    let mut write_sched: HashMap<(u64, u32), ValueId> = HashMap::new();
    for (at, coordinator, write) in &invocations {
        if let Some(id) = write {
            write_sched.insert((*at, *coordinator), *id);
        }
    }
    let mut patched = Vec::new();
    let mut comp_iter = completions.iter();
    for mut op in ops {
        let (pid, _c) = comp_iter.next().expect("parallel iteration");
        if op.value == u64::MAX {
            match write_sched.remove(&(op.start, pid.value())) {
                Some(id) => op.value = id,
                None => continue, // ambiguous: drop from the history
            }
        }
        patched.push(op);
    }
    // Writes that never completed: coordinator crashed while they were in
    // flight. Conservatively use the end of the run as their end event
    // (later than any real crash: weaker, still sound).
    for ((at, coordinator), id) in write_sched {
        let crash_after = crashes
            .iter()
            .filter(|(down, _, pid)| *pid == coordinator && *down >= at)
            .map(|(down, _, _)| *down)
            .min();
        patched.push(OpRecord {
            value: id,
            start: at,
            end: crash_after,
            committed: false,
            is_read: false,
        });
    }

    if let Err(e) = patched.iter().copied().collect::<History>().check() {
        panic!("seed {seed}: strict linearizability violated: {e}\nhistory: {patched:#?}");
    }

    // Liveness sanity. Crashed coordinators lose undelivered completion
    // records along with their in-flight state, so only a loose lower
    // bound applies to the trace; the sharper check is that the register
    // still serves everyone after the churn.
    assert!(
        completions.len() >= op_count / 4,
        "seed {seed}: too few completions ({}/{op_count})",
        completions.len()
    );
    let mut last = None;
    for i in 0..n {
        let r = cluster.read_stripe(ProcessId::new(i as u32), stripe);
        assert!(
            r.is_ok(),
            "seed {seed}: post-churn read via p{i} failed: {r:?}"
        );
        if let Some(prev) = last.replace(r.clone()) {
            assert_eq!(prev, r, "seed {seed}: sequential reads disagree");
        }
    }
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

/// The exact Figure 5 execution: processes a, b, c replicate a register
/// (replication = 1-of-3 erasure coding). write₁(v′) partially executes
/// (its Order reaches a quorum, its value lands only on `a`), the writer
/// crashes, read₂ (without `a`) returns v — so read₃ (with `a` back)
/// must also return v, even though `a` holds v′ with a higher timestamp.
#[test]
fn figure5_scenario() {
    let (m, n, size) = (1usize, 3usize, 16usize);
    let cfg = RegisterConfig::new(m, n, size).unwrap();
    let mut cluster = SimCluster::new(cfg, SimConfig::ideal(55));
    let s = StripeId(0);
    let a = ProcessId::new(0);

    // Initial complete write of v.
    let v = tagged_blocks(m, size, 1);
    assert_eq!(
        cluster.write_stripe(ProcessId::new(1), s, v.clone()),
        OpResult::Written
    );

    // write1(v'): coordinated by `a`; crash `a` right after its Write
    // messages leave (t+3: Order round t..t+2, Write lands t+3 at remote
    // bricks — but we cut `a` off from b and c first so only `a` itself
    // stores v'). The partition models "crashes after storing v' on only a".
    let t = cluster.sim().now();
    let vprime = tagged_blocks(m, size, 2);
    // Order phase must reach a quorum (a + b), then the Write only lands
    // on `a`. Partition {a,b} | {c} during the Order, then {a} | {b,c}
    // before the Write round.
    cluster
        .sim_mut()
        .schedule_partition(t, &[&[a, ProcessId::new(1)], &[ProcessId::new(2)]]);
    cluster.sim_mut().schedule_call(t + 1, a, move |b, ctx| {
        b.write_stripe(ctx, s, vprime).unwrap();
    });
    // Order: sent t+1, arrives t+2, replies t+3 (quorum = 2: a itself at
    // t+1 via loopback + b at t+3). Write goes out at t+3.
    cluster
        .sim_mut()
        .schedule_partition(t + 3, &[&[a], &[ProcessId::new(1), ProcessId::new(2)]]);
    cluster.sim_mut().run_until(t + 4);
    // Crash the writer; v' is stored on `a` only.
    cluster.sim_mut().schedule_crash(t + 4, a);
    cluster.sim_mut().schedule_heal(t + 5);
    cluster.sim_mut().run_until(t + 6);

    // read2 via b (while `a` is crashed): must return v.
    let r2 = cluster.read_stripe(ProcessId::new(1), s);
    assert_eq!(
        r2,
        OpResult::Stripe(StripeValue::Data(v.clone())),
        "read2 returns v"
    );

    // `a` recovers with v' and the highest timestamp in its log.
    let t = cluster.sim().now();
    cluster.sim_mut().schedule_recovery(t, a);
    cluster.sim_mut().run_until(t + 1);

    // read3: despite a's higher-timestamped v', strict linearizability
    // demands v (write1 → read2 → read3 ordering).
    let r3 = cluster.read_stripe(ProcessId::new(2), s);
    assert_eq!(
        r3,
        OpResult::Stripe(StripeValue::Data(v)),
        "read3 must NOT resurrect the rolled-back partial write"
    );
}

/// The checker itself must catch the Figure 5 anomaly if it were produced.
#[test]
fn checker_rejects_figure5_anomaly() {
    // write1(v') crashes at t=10; read2 [20,30] returns v(=1);
    // read3 [40,50] returns v'(=2). Cycle: v < v' (read2→read3) and
    // v' < v (write1 ended before read2 started, value v' observed).
    let ops = [
        OpRecord {
            value: 1,
            start: 0,
            end: Some(5),
            committed: true,
            is_read: false,
        },
        OpRecord {
            value: 2,
            start: 6,
            end: Some(10), // crash
            committed: false,
            is_read: false,
        },
        OpRecord {
            value: 1,
            start: 20,
            end: Some(30),
            committed: false,
            is_read: true,
        },
        OpRecord {
            value: 2,
            start: 40,
            end: Some(50),
            committed: false,
            is_read: true,
        },
    ];
    assert!(
        ops.iter().copied().collect::<History>().check().is_err(),
        "anomaly must be rejected"
    );
}

#[test]
fn checker_accepts_clean_histories() {
    let ops = [
        OpRecord {
            value: 1,
            start: 0,
            end: Some(5),
            committed: true,
            is_read: false,
        },
        OpRecord {
            value: 1,
            start: 10,
            end: Some(12),
            committed: false,
            is_read: true,
        },
        OpRecord {
            value: 2,
            start: 13,
            end: Some(20),
            committed: true,
            is_read: false,
        },
        OpRecord {
            value: 2,
            start: 21,
            end: Some(22),
            committed: false,
            is_read: true,
        },
    ];
    ops.iter()
        .copied()
        .collect::<History>()
        .check()
        .expect("sequential history is linearizable");
}

#[test]
fn checker_rejects_stale_nil() {
    // A read of nil after a read of a committed value.
    let ops = [
        OpRecord {
            value: 1,
            start: 0,
            end: Some(5),
            committed: true,
            is_read: false,
        },
        OpRecord {
            value: 1,
            start: 6,
            end: Some(8),
            committed: false,
            is_read: true,
        },
        OpRecord {
            value: NIL,
            start: 9,
            end: Some(11),
            committed: false,
            is_read: true,
        },
    ];
    assert!(ops.iter().copied().collect::<History>().check().is_err());
}

/// Random concurrent executions with crash-recovery churn, message loss,
/// and reordering — every observed history must admit a conforming total
/// order.
#[test]
fn random_histories_are_strictly_linearizable() {
    for seed in 0..40 {
        run_random_execution(seed);
    }
}

/// The same property on the paper's flagship 5-of-8 configuration.
#[test]
fn random_histories_5_of_8() {
    let (m, n, size) = (5usize, 8usize, 64usize);
    for seed in 100..110 {
        let cfg = RegisterConfig::new(m, n, size).unwrap();
        let net = SimConfig::ideal(seed).delays(1, 5).drop_probability(0.03);
        let mut cluster = SimCluster::new(cfg, net);
        let stripe = StripeId(0);
        let mut rng = Lcg(seed);
        let mut history: Vec<OpRecord> = Vec::new();

        // Sequential-with-overlap pattern: issue op pairs concurrently,
        // wait for both, record.
        for w_id in 1..=8u64 {
            let at = cluster.sim().now() + rng.below(5);
            let blocks = tagged_blocks(m, size, w_id);
            let writer = ProcessId::new(rng.below(n as u64) as u32);
            let reader = ProcessId::new(rng.below(n as u64) as u32);
            cluster.sim_mut().schedule_call(at, writer, {
                let blocks = blocks.clone();
                move |b, ctx| {
                    b.write_stripe(ctx, stripe, blocks).unwrap();
                }
            });
            cluster
                .sim_mut()
                .schedule_call(at + rng.below(3), reader, move |b, ctx| {
                    b.read_stripe(ctx, stripe).unwrap();
                });
            cluster.sim_mut().run_until_idle();
            for (pid, c) in cluster.drain_all_completions() {
                let (committed, is_read, value) = match &c.result {
                    OpResult::Stripe(v) => (false, true, value_of(v)),
                    OpResult::Written => (true, false, w_id),
                    OpResult::Aborted(_) => {
                        if pid == writer {
                            (false, false, w_id)
                        } else {
                            continue; // aborted read: no constraint
                        }
                    }
                    other => panic!("unexpected {other:?}"),
                };
                history.push(OpRecord {
                    value,
                    start: c.invoked_at,
                    end: Some(c.completed_at),
                    committed,
                    is_read,
                });
            }
        }
        if let Err(e) = history.iter().copied().collect::<History>().check() {
            panic!("seed {seed}: {e}\n{history:#?}");
        }
    }
}
