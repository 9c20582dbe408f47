//! Property tests for the storage-register core: log invariants, replica
//! handler invariants, and model-checked sequential behavior over random
//! parameters, payloads, and network schedules.

use bytes::Bytes;
use fab_core::{
    BlockValue, Log, OpResult, PersistEvent, RegisterConfig, Replica, Reply, Request, SimCluster,
    StripeId, StripeValue,
};
use fab_simnet::SimConfig;
use fab_timestamp::{ProcessId, Timestamp};
use propcheck::{ensure, ensure_eq, Gen};
use std::sync::Arc;

fn ts(t: u64) -> Timestamp {
    Timestamp::from_parts(t, ProcessId::new(1))
}

fn data(tag: u8, len: usize) -> BlockValue {
    BlockValue::Data(Bytes::from(vec![tag; len]))
}

/// A random log mutation.
#[derive(Debug, Clone)]
enum LogOp {
    Insert(u64, BlockValue), // ts ticks; ⊥ or data
    Gc(u64),
}

fn log_ops(g: &mut Gen) -> Vec<LogOp> {
    g.vec(0..60, |g| {
        let t = g.range(1u64..100);
        match (g.bool(), g.bool()) {
            (true, true) => LogOp::Insert(t, data(g.u8(), 4)),
            (true, false) => LogOp::Insert(t, BlockValue::Bottom),
            (false, _) => LogOp::Gc(t),
        }
    })
}

propcheck::properties! {
    cases: 256;

    /// The log's structural invariants hold under arbitrary insert/GC
    /// interleavings: the LowTS sentinel survives, `max_ts` dominates all
    /// queries, `max_block` is never ⊥, `version_below` is consistent.
    fn log_invariants_under_random_mutation(g) {
        let mut log = Log::new();
        for op in log_ops(g) {
            match op {
                LogOp::Insert(t, value) => log.insert(ts(t), value),
                LogOp::Gc(t) => {
                    log.gc(ts(t));
                }
            }
            // Sentinel and shape invariants.
            ensure_eq!(log.entry_at(Timestamp::LOW), Some(&BlockValue::Nil));
            ensure!(!log.is_empty());
            let (bt, bv) = log.max_block();
            ensure!(!bv.is_bottom());
            ensure!(bt <= log.max_ts());
            // version_below(HighTS): validity is exactly max_ts, and the
            // block is the newest non-⊥.
            let (validity, v) = log.version_below(Timestamp::HIGH);
            ensure_eq!(validity, log.max_ts());
            ensure!(!v.is_bottom());
            // max_below is strictly below its bound.
            let (mt, _) = log.max_below(log.max_ts());
            ensure!(mt < log.max_ts() || log.max_ts() == Timestamp::LOW);
        }
    }

    /// GC never changes what `max_block` answers, no matter when it runs.
    fn gc_preserves_newest_block(g) {
        let mut log = Log::new();
        for op in log_ops(g) {
            if let LogOp::Insert(t, value) = op {
                log.insert(ts(t), value);
            }
        }
        let before_block = {
            let (t, v) = log.max_block();
            (t, v.clone())
        };
        let before_max = log.max_ts();
        log.gc(ts(g.range(1u64..100)));
        let (t, v) = log.max_block();
        ensure_eq!((t, v.clone()), before_block);
        ensure_eq!(log.max_ts(), before_max);
    }

    /// Replica invariants under arbitrary request streams: `ord-ts` is
    /// monotone, `max-ts` is monotone, and every reply's status is
    /// consistent with the pre-state.
    fn replica_invariants_under_random_requests(g) {
        let cfg = Arc::new(RegisterConfig::new(2, 4, 4).unwrap());
        let mut r = Replica::new(ProcessId::new(0), cfg);
        for _ in 0..g.range(0..80) {
            let prev_ord = r.ord_ts();
            let prev_max = r.log().max_ts();
            let t = ts(g.range(1u64..64));
            let req = match g.range(0..4) {
                0 => Request::Read { targets: vec![ProcessId::new(0)] },
                1 => Request::Order { ts: t },
                2 => Request::Write { block: data(g.u8(), 4), ts: t },
                _ => Request::Gc { up_to: t },
            };
            r.handle(&req);
            ensure!(r.ord_ts() >= prev_ord, "ord-ts must be monotone");
            ensure!(r.log().max_ts() >= prev_max, "max-ts must be monotone");
            // The permanent structural invariant.
            ensure_eq!(r.log().entry_at(Timestamp::LOW), Some(&BlockValue::Nil));
        }
    }

    /// Sequential operations against a simulated cluster always agree with
    /// a trivial model register, across random (m, n), seeds, network
    /// harshness, and operation mixes.
    fn sequential_ops_match_model(g) {
        let (m, n) = g.pick(&[(1usize, 3usize), (2, 4), (3, 5), (5, 8)]);
        let size = 8usize;
        let cfg = RegisterConfig::new(m, n, size).unwrap();
        let net = SimConfig::ideal(g.u64());
        let net = if g.bool() { net.delays(1, 10).drop_probability(0.05) } else { net };
        let mut c = SimCluster::new(cfg, net);
        let s = StripeId(0);
        let zeros = || Bytes::from(vec![0u8; size]);
        // Model: the current stripe (None = nil).
        let mut model: Option<Vec<Bytes>> = None;
        for step in 0..g.range(1..12) {
            let (kind, tag) = (g.range(0..4), g.u8());
            let coordinator = ProcessId::new(g.range(0..n as u32));
            let j = (tag as usize) % m;
            match kind {
                0 => {
                    let blocks: Vec<Bytes> = (0..m)
                        .map(|i| Bytes::from(vec![tag.wrapping_add(i as u8); size]))
                        .collect();
                    let r = c.write_stripe(coordinator, s, blocks.clone());
                    ensure_eq!(r, OpResult::Written, "step {step}");
                    model = Some(blocks);
                }
                1 => {
                    let b = Bytes::from(vec![tag ^ 0x5A; size]);
                    let r = c.write_block(coordinator, s, j, b.clone());
                    ensure_eq!(r, OpResult::Written, "step {step}");
                    model.get_or_insert_with(|| vec![zeros(); m])[j] = b;
                }
                2 => match (&model, c.read_stripe(coordinator, s)) {
                    (None, OpResult::Stripe(StripeValue::Nil)) => {}
                    (Some(want), OpResult::Stripe(StripeValue::Data(got))) => {
                        ensure_eq!(&got, want, "step {step}");
                    }
                    (want, got) => return Err(format!("step {step}: model {want:?} vs read {got:?}")),
                },
                _ => {
                    let want = model.as_ref().map_or_else(zeros, |blocks| blocks[j].clone());
                    match c.read_block(coordinator, s, j) {
                        OpResult::Block(v) => {
                            ensure_eq!(v.materialize(size), Some(want), "step {step}");
                        }
                        other => return Err(format!("step {step}: read-block returned {other:?}")),
                    }
                }
            }
        }
    }

    /// Identical seeds and scripts replay identically, even under the
    /// harsh network (end-to-end determinism of the whole stack).
    fn end_to_end_determinism(g) {
        let seed = g.u64();
        let run = || {
            let cfg = RegisterConfig::new(2, 4, 8).unwrap();
            let mut c = SimCluster::new(cfg, SimConfig::harsh(seed));
            let s = StripeId(0);
            for i in 0..4u8 {
                c.write_stripe(
                    ProcessId::new(u32::from(i % 4)),
                    s,
                    vec![Bytes::from(vec![i; 8]), Bytes::from(vec![i + 1; 8])],
                );
            }
            let r = c.read_stripe(ProcessId::new(0), s);
            (c.sim().fingerprint(), format!("{r:?}"))
        };
        ensure_eq!(run(), run());
    }

    /// Crash-recovery replay of an arbitrary persist-event prefix: the
    /// events a replica emits are themselves replayable — `ord-ts` only
    /// ever advances along the stream, folding any *prefix* into
    /// [`Replica::from_parts`] yields watermarks bounded by the
    /// originals and inside the timestamp sentinels, and the recovered
    /// replica still enforces the write-ordering guard (refuses stale
    /// `Order`s, accepts fresh ones).
    fn replica_recovery_from_replayed_event_prefix(g) {
        let cfg = Arc::new(RegisterConfig::new(2, 4, 8).expect("valid config"));
        let pid = ProcessId::new(1);
        let mut replica = Replica::new(pid, cfg.clone());
        replica.enable_persistence();

        let mut events: Vec<PersistEvent> = Vec::new();
        for _ in 0..g.range(1..80) {
            let t = ts(g.range(1u64..200));
            let req = match g.range(0..3) {
                0 => Request::Order { ts: t },
                1 => Request::Write { block: data(g.u8(), 8), ts: t },
                _ => Request::Gc { up_to: t },
            };
            let _ = replica.handle(&req);
            events.extend(replica.take_persist_events());
        }

        // Fold an arbitrary prefix of the persisted stream, checking that
        // ord-ts never rolls backwards along it.
        let cut = g.range(0..=events.len());
        let mut ord = Timestamp::LOW;
        let mut log = Log::new();
        for event in &events[..cut] {
            match event {
                PersistEvent::OrdTs(t) => {
                    ensure!(*t >= ord, "persisted ord-ts regressed: {ord} -> {t}");
                    ord = *t;
                }
                PersistEvent::Entry(t, v) => log.insert(*t, v.clone()),
                PersistEvent::Gc(t) => {
                    log.gc(*t);
                }
            }
        }

        let mut recovered = Replica::from_parts(pid, cfg, ord, log);

        // Watermarks: bounded by the pre-crash replica and the sentinels.
        ensure!(recovered.ord_ts() <= replica.ord_ts());
        ensure!(recovered.log().max_ts() <= replica.log().max_ts());
        ensure!(recovered.ord_ts() < Timestamp::HIGH);
        ensure!(recovered.log().max_ts() < Timestamp::HIGH);
        ensure_eq!(recovered.log().entry_at(Timestamp::LOW), Some(&BlockValue::Nil));

        // Guard survives recovery: an Order at LowTS can never pass (the
        // log's sentinel dominates it) ...
        let reply = recovered.handle(&Request::Order { ts: Timestamp::LOW });
        ensure!(
            matches!(reply, Some(Reply::OrderR { status: false, .. })),
            "recovered replica accepted a LowTS order"
        );
        // ... and one strictly above both watermarks must pass and advance
        // ord-ts (monotone across the crash).
        let fresh_ticks = recovered
            .ord_ts()
            .ticks()
            .max(recovered.log().max_ts().ticks())
            + 1;
        let fresh = ts(fresh_ticks);
        let before = recovered.ord_ts();
        let reply = recovered.handle(&Request::Order { ts: fresh });
        ensure!(
            matches!(reply, Some(Reply::OrderR { status: true, .. })),
            "recovered replica refused a fresh order"
        );
        ensure!(recovered.ord_ts() >= before);
        ensure_eq!(recovered.ord_ts(), fresh);
    }
}
