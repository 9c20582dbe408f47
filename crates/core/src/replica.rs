//! The replica side of the storage register: the message handlers of
//! Algorithm 2 and the `Modify` / `Gc` handlers of Algorithm 3 / §5.1.
//!
//! A replica's entire protocol state — `ord-ts` and the version log — is
//! persistent (the paper's `store(var)` primitive; timestamps live in
//! NVRAM, blocks on disk). A crash therefore erases nothing a handler
//! relies on; [`Replica::on_crash`] exists only to model the event.
//!
//! ## Handler idempotency
//!
//! The `quorum()` primitive retransmits requests until a quorum replies, so
//! every handler must tolerate replays. `Read`, `Order`, and `Order&Read`
//! are naturally idempotent; `Write` and `Modify` replay-detect via the log
//! entry they created (timestamps are globally unique, so an entry at `ts`
//! can only mean this exact request already executed) and re-reply `true`
//! without re-appending.

use crate::config::RegisterConfig;
use crate::log::Log;
use crate::messages::{BlockTarget, ModifyPayload, Reply, Request};
use crate::value::BlockValue;
use bytes::Bytes;
use fab_timestamp::{ProcessId, Timestamp};
use std::sync::Arc;

/// Disk-I/O counters following Table 1's cost model: reading a block from
/// the log = one disk read, appending a block = one disk write, timestamp
/// updates (including `⊥` entries) are NVRAM and free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskMetrics {
    /// Block reads from the log.
    pub reads: u64,
    /// Block appends to the log.
    pub writes: u64,
    /// `store(var)` invocations (NVRAM syncs; not counted as disk I/O).
    pub nvram_stores: u64,
}

impl DiskMetrics {
    /// Element-wise difference `self − earlier`.
    pub fn since(&self, earlier: &DiskMetrics) -> DiskMetrics {
        DiskMetrics {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            nvram_stores: self.nvram_stores - earlier.nvram_stores,
        }
    }
}

/// A mutation to the replica's persistent state, emitted for drivers that
/// back replicas with real stable storage (the paper's `store(var)`
/// primitive). The simulator models persistence implicitly and leaves
/// emission disabled; the threaded runtime appends these to an on-disk
/// log (`fab-store`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistEvent {
    /// `store(ord-ts)`: the ordered timestamp advanced.
    OrdTs(Timestamp),
    /// `store(log)`: an entry was appended.
    Entry(Timestamp, BlockValue),
    /// §5.1 garbage collection ran up to this horizon.
    Gc(Timestamp),
}

/// One process's replica of a single storage register.
#[derive(Debug, Clone)]
pub struct Replica {
    pid: ProcessId,
    cfg: Arc<RegisterConfig>,
    /// Persistent: logical time of the most recently *ordered* write.
    ord_ts: Timestamp,
    /// Persistent: the version log.
    log: Log,
    metrics: DiskMetrics,
    /// When enabled, mutations are queued as [`PersistEvent`]s for the
    /// driver to flush to stable storage.
    persist: Option<Vec<PersistEvent>>,
}

impl Replica {
    /// Creates the replica hosted by `pid` with initial state
    /// `ord-ts = LowTS`, `log = {[LowTS, nil]}`.
    pub fn new(pid: ProcessId, cfg: Arc<RegisterConfig>) -> Self {
        Replica {
            pid,
            cfg,
            ord_ts: Timestamp::LOW,
            log: Log::new(),
            metrics: DiskMetrics::default(),
            persist: None,
        }
    }

    /// Reconstructs a replica from recovered persistent state (driver-side
    /// restart from stable storage).
    pub fn from_parts(
        pid: ProcessId,
        cfg: Arc<RegisterConfig>,
        ord_ts: Timestamp,
        log: Log,
    ) -> Self {
        Replica {
            pid,
            cfg,
            ord_ts,
            log,
            metrics: DiskMetrics::default(),
            persist: None,
        }
    }

    /// Enables persistence-event emission. The driver must drain
    /// [`Replica::take_persist_events`] after every handled request or the
    /// queue grows without bound.
    pub fn enable_persistence(&mut self) {
        if self.persist.is_none() {
            self.persist = Some(Vec::new());
        }
    }

    /// Drains queued persistence events (empty when emission is disabled).
    pub fn take_persist_events(&mut self) -> Vec<PersistEvent> {
        match &mut self.persist {
            Some(q) => std::mem::take(q),
            None => Vec::new(),
        }
    }

    fn emit(&mut self, event: PersistEvent) {
        if let Some(q) = &mut self.persist {
            q.push(event);
        }
    }

    /// The hosting process.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The persistent `ord-ts`.
    pub fn ord_ts(&self) -> Timestamp {
        self.ord_ts
    }

    /// The persistent version log.
    pub fn log(&self) -> &Log {
        &self.log
    }

    /// Cumulative disk-I/O counters.
    pub fn metrics(&self) -> DiskMetrics {
        self.metrics
    }

    /// Resets the disk-I/O counters (between measured operations).
    pub fn reset_metrics(&mut self) {
        self.metrics = DiskMetrics::default();
    }

    /// Models a crash. All replica state is persistent, so nothing changes;
    /// the method documents (and asserts) that invariant.
    pub fn on_crash(&mut self) {
        // ord_ts and log survive: they are store()d on every mutation.
        //
        // Mutation-smoke variant (`tools/nightly.sh` phase 3):
        // pretend ord-ts lived in volatile RAM and was lost on crash,
        // falling back to the log's max timestamp. The torture suite must
        // detect the resulting ord-ts regression / partial-write exposure.
        #[cfg(fab_mutation = "skip_ord_persist")]
        {
            self.ord_ts = self.log.max_ts();
        }
    }

    /// The replica's highest known timestamp (max of `ord-ts` and
    /// `max-ts(log)`), reported in replies so refused coordinators can
    /// catch their clocks up before retrying.
    fn seen(&self) -> Timestamp {
        self.ord_ts.max(self.log.max_ts())
    }

    /// Handles one request, returning the reply to send back (or `None`
    /// for fire-and-forget requests like `Gc`).
    pub fn handle(&mut self, req: &Request) -> Option<Reply> {
        match req {
            Request::Read { targets } => Some(self.on_read(targets)),
            Request::Order { ts } => Some(self.on_order(*ts)),
            Request::OrderRead { target, below, ts } => {
                Some(self.on_order_read(target, *below, *ts))
            }
            Request::Write { block, ts } => Some(self.on_write(block, *ts)),
            Request::Modify {
                js,
                ts_j,
                ts,
                payload,
            } => Some(self.on_modify(js, *ts_j, *ts, payload)),
            Request::Gc { up_to } => {
                self.log.gc(*up_to);
                self.emit(PersistEvent::Gc(*up_to));
                None
            }
        }
    }

    /// Alg. 2 lines 38–44.
    fn on_read(&mut self, targets: &[ProcessId]) -> Reply {
        let val_ts = self.log.max_ts();
        #[cfg(not(fab_mutation = "read_ignores_ord"))]
        let status = val_ts >= self.ord_ts;
        // Mutation-smoke variant: serve reads without the partial-write
        // guard, re-introducing the Figure-5 anomaly.
        #[cfg(fab_mutation = "read_ignores_ord")]
        let status = true;
        let mut block = None;
        if status && targets.contains(&self.pid) {
            let (_, b) = self.log.max_block();
            self.metrics.reads += b.disk_read_cost();
            block = Some(b.clone());
        }
        Reply::ReadR {
            status,
            val_ts,
            block,
        }
    }

    /// Alg. 2 lines 45–48.
    fn on_order(&mut self, ts: Timestamp) -> Reply {
        #[cfg(not(fab_mutation = "accept_stale_order"))]
        let status = ts > self.log.max_ts() && ts >= self.ord_ts;
        // Mutation-smoke variant: drop the `ts >= ord-ts` half of the
        // guard, letting a slow coordinator roll the order point backwards.
        #[cfg(fab_mutation = "accept_stale_order")]
        let status = ts > self.log.max_ts();
        if status {
            self.ord_ts = ts;
            self.store_nvram();
            self.emit(PersistEvent::OrdTs(ts));
        }
        Reply::OrderR {
            status,
            seen: self.seen(),
        }
    }

    /// Alg. 2 lines 49–56.
    fn on_order_read(&mut self, target: &BlockTarget, below: Timestamp, ts: Timestamp) -> Reply {
        let status = ts > self.log.max_ts() && ts >= self.ord_ts;
        let mut lts = Timestamp::LOW;
        let mut block = None;
        if status {
            self.ord_ts = ts;
            self.store_nvram();
            self.emit(PersistEvent::OrdTs(ts));
            if target.includes(self.pid) {
                let (t, b) = self.log.version_below(below);
                self.metrics.reads += b.disk_read_cost();
                lts = t;
                block = Some(b.clone());
            }
        }
        Reply::OrderReadR {
            status,
            lts,
            block,
            seen: self.seen(),
        }
    }

    /// Alg. 2 lines 57–60, with replay detection.
    fn on_write(&mut self, block: &BlockValue, ts: Timestamp) -> Reply {
        if self.log.entry_at(ts).is_some() {
            // Retransmission of a Write we already applied.
            return Reply::WriteR {
                status: true,
                seen: self.seen(),
            };
        }
        let status = ts > self.log.max_ts() && ts >= self.ord_ts;
        if status {
            self.metrics.writes += block.disk_write_cost();
            // Mutation-smoke variant: acknowledge the write without
            // appending it to the log (durability silently lost).
            #[cfg(not(fab_mutation = "skip_write_append"))]
            self.log.insert(ts, block.clone());
            self.store_nvram();
            self.emit(PersistEvent::Entry(ts, block.clone()));
        }
        Reply::WriteR {
            status,
            seen: self.seen(),
        }
    }

    /// Alg. 3 lines 88–98 with replay detection, §5.2 payloads, and the
    /// footnote-2 generalization to a set of written blocks.
    fn on_modify(
        &mut self,
        js: &[ProcessId],
        ts_j: Timestamp,
        ts: Timestamp,
        payload: &ModifyPayload,
    ) -> Reply {
        if self.log.entry_at(ts).is_some() {
            return Reply::ModifyR {
                status: true,
                seen: self.seen(),
            };
        }
        let status = ts_j == self.log.max_ts() && ts >= self.ord_ts;
        if !status {
            return Reply::ModifyR {
                status: false,
                seen: self.seen(),
            };
        }
        let m = self.cfg.m();
        let i = self.pid.index();
        let value = if let Some(pos) = js.iter().position(|j| *j == self.pid) {
            // Line 92: a written process stores its new value directly.
            match payload {
                ModifyPayload::Full { updates } => match updates.get(pos) {
                    Some(u) => BlockValue::Data(u.new.clone()),
                    None => {
                        return Reply::ModifyR {
                            status: false,
                            seen: self.seen(),
                        }
                    }
                },
                ModifyPayload::NewValue { new } => BlockValue::Data(new.clone()),
                // A coordinator bug would have to send a written process a
                // parity delta; refuse rather than corrupt.
                ModifyPayload::Delta { .. } | ModifyPayload::Empty => {
                    return Reply::ModifyR {
                        status: false,
                        seen: self.seen(),
                    }
                }
            }
        } else if i >= m {
            // Lines 93–94: incremental parity update, folded over every
            // written block (the per-block deltas are independent linear
            // contributions). The status guard `ts_j == max-ts(log)`
            // ensures our newest block (whose validity extends through any
            // ⊥ entries up to max-ts) is the version the coordinator read.
            let (_, cur) = self.log.max_block();
            self.metrics.reads += cur.disk_read_cost();
            // One owned parity buffer, patched in place by every update —
            // the seed allocated a fresh parity block per written block.
            // `max_block` never returns `⊥`, but a replica refuses rather
            // than trusts that (no-panic discipline: corrupt state must not
            // take the brick down).
            let Some(cur_bytes) = cur.materialize(self.cfg.block_size()) else {
                return Reply::ModifyR {
                    status: false,
                    seen: self.seen(),
                };
            };
            let mut parity = cur_bytes.to_vec();
            match payload {
                ModifyPayload::Full { updates } => {
                    if updates.len() != js.len() {
                        return Reply::ModifyR {
                            status: false,
                            seen: self.seen(),
                        };
                    }
                    for (j, u) in js.iter().zip(updates) {
                        // A `⊥` old value or codec-rejected dimensions mean
                        // the request is malformed: refuse it (`status:
                        // false`) instead of corrupting parity or panicking.
                        let Some(old_data) = u.old.materialize(self.cfg.block_size()) else {
                            return Reply::ModifyR {
                                status: false,
                                seen: self.seen(),
                            };
                        };
                        if self
                            .cfg
                            .codec()
                            .modify_in_place(j.index(), i, &old_data, &u.new, &mut parity)
                            .is_err()
                        {
                            return Reply::ModifyR {
                                status: false,
                                seen: self.seen(),
                            };
                        }
                    }
                    BlockValue::Data(Bytes::from(parity))
                }
                ModifyPayload::Delta { delta } => {
                    if self
                        .cfg
                        .codec()
                        .apply_coded_delta_in_place(&mut parity, delta)
                        .is_err()
                    {
                        return Reply::ModifyR {
                            status: false,
                            seen: self.seen(),
                        };
                    }
                    BlockValue::Data(Bytes::from(parity))
                }
                ModifyPayload::NewValue { .. } | ModifyPayload::Empty => {
                    return Reply::ModifyR {
                        status: false,
                        seen: self.seen(),
                    }
                }
            }
        } else {
            // Line 96: a data process outside `js` logs ⊥.
            BlockValue::Bottom
        };
        self.metrics.writes += value.disk_write_cost();
        self.log.insert(ts, value.clone());
        self.store_nvram();
        self.emit(PersistEvent::Entry(ts, value));
        Reply::ModifyR {
            status: true,
            seen: self.seen(),
        }
    }

    fn store_nvram(&mut self) {
        self.metrics.nvram_stores += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fab_erasure::Share;

    fn cfg(m: usize, n: usize) -> Arc<RegisterConfig> {
        Arc::new(RegisterConfig::new(m, n, 8).unwrap())
    }

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_parts(t, ProcessId::new(0))
    }

    fn data(byte: u8) -> BlockValue {
        BlockValue::Data(Bytes::from(vec![byte; 8]))
    }

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn read_reports_val_ts_and_block_for_targets() {
        let mut r = Replica::new(pid(0), cfg(2, 4));
        let reply = r.handle(&Request::Read {
            targets: vec![pid(0)],
        });
        match reply {
            Some(Reply::ReadR {
                status,
                val_ts,
                block,
            }) => {
                assert!(status);
                assert_eq!(val_ts, Timestamp::LOW);
                assert_eq!(block, Some(BlockValue::Nil));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Non-target: no block.
        let reply = r.handle(&Request::Read {
            targets: vec![pid(1)],
        });
        match reply {
            Some(Reply::ReadR { block, .. }) => assert_eq!(block, None),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn read_detects_partial_write() {
        let mut r = Replica::new(pid(0), cfg(2, 4));
        // An Order without a matching Write leaves ord-ts > max-ts.
        assert!(matches!(
            r.handle(&Request::Order { ts: ts(5) }),
            Some(Reply::OrderR { status: true, .. })
        ));
        let reply = r.handle(&Request::Read { targets: vec![] });
        match reply {
            Some(Reply::ReadR { status, .. }) => assert!(!status, "partial write visible"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn order_rejects_stale_timestamps() {
        let mut r = Replica::new(pid(0), cfg(2, 4));
        assert!(matches!(
            r.handle(&Request::Order { ts: ts(10) }),
            Some(Reply::OrderR { status: true, .. })
        ));
        // A smaller timestamp is refused — and the refusal reports the
        // replica's highest known timestamp for clock catch-up.
        match r.handle(&Request::Order { ts: ts(5) }) {
            Some(Reply::OrderR { status, seen }) => {
                assert!(!status);
                assert_eq!(seen, ts(10));
            }
            other => panic!("unexpected {other:?}"),
        }
        // ...while the same timestamp is accepted again (idempotent).
        assert!(matches!(
            r.handle(&Request::Order { ts: ts(10) }),
            Some(Reply::OrderR { status: true, .. })
        ));
        assert_eq!(r.ord_ts(), ts(10));
    }

    #[test]
    fn order_rejects_ts_not_above_max_ts() {
        let mut r = Replica::new(pid(0), cfg(2, 4));
        r.handle(&Request::Order { ts: ts(5) });
        r.handle(&Request::Write {
            block: data(1),
            ts: ts(5),
        });
        // ts == max_ts: refused (must be strictly greater).
        assert!(matches!(
            r.handle(&Request::Order { ts: ts(5) }),
            Some(Reply::OrderR { status: false, .. })
        ));
    }

    #[test]
    fn write_appends_and_is_idempotent() {
        let mut r = Replica::new(pid(0), cfg(2, 4));
        r.handle(&Request::Order { ts: ts(5) });
        let reply = r.handle(&Request::Write {
            block: data(7),
            ts: ts(5),
        });
        assert!(matches!(reply, Some(Reply::WriteR { status: true, .. })));
        assert_eq!(r.log().max_ts(), ts(5));
        assert_eq!(r.metrics().writes, 1);

        // Replay: true again, no double append, no extra disk write.
        let reply = r.handle(&Request::Write {
            block: data(7),
            ts: ts(5),
        });
        assert!(matches!(reply, Some(Reply::WriteR { status: true, .. })));
        assert_eq!(r.log().len(), 2);
        assert_eq!(r.metrics().writes, 1);
    }

    #[test]
    fn write_rejected_when_outrun() {
        let mut r = Replica::new(pid(0), cfg(2, 4));
        r.handle(&Request::Order { ts: ts(10) });
        // A write with a smaller timestamp than ord-ts is refused: a newer
        // write has been ordered between this write's two phases.
        assert!(matches!(
            r.handle(&Request::Write {
                block: data(1),
                ts: ts(5)
            }),
            Some(Reply::WriteR { status: false, .. })
        ));
    }

    #[test]
    fn order_read_reports_newest_below_bound() {
        let mut r = Replica::new(pid(0), cfg(2, 4));
        r.handle(&Request::Order { ts: ts(5) });
        r.handle(&Request::Write {
            block: data(1),
            ts: ts(5),
        });
        let reply = r.handle(&Request::OrderRead {
            target: BlockTarget::All,
            below: Timestamp::HIGH,
            ts: ts(9),
        });
        match reply {
            Some(Reply::OrderReadR {
                status, lts, block, ..
            }) => {
                assert!(status);
                assert_eq!(lts, ts(5));
                assert_eq!(block, Some(data(1)));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.ord_ts(), ts(9));

        // Bounded below the entry: reports the nil sentinel.
        let reply = r.handle(&Request::OrderRead {
            target: BlockTarget::All,
            below: ts(5),
            ts: ts(9), // same ts: idempotent re-order
        });
        match reply {
            Some(Reply::OrderReadR {
                status, lts, block, ..
            }) => {
                assert!(status);
                assert_eq!(lts, Timestamp::LOW);
                assert_eq!(block, Some(BlockValue::Nil));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn order_read_respects_target_selector() {
        let mut r = Replica::new(pid(2), cfg(2, 4));
        let reply = r.handle(&Request::OrderRead {
            target: BlockTarget::One(pid(1)),
            below: Timestamp::HIGH,
            ts: ts(3),
        });
        match reply {
            Some(Reply::OrderReadR { status, block, .. }) => {
                assert!(status);
                assert_eq!(block, None, "p2 was not asked for its block");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Full single-block write at the replica level across a 2-of-4 stripe:
    /// p0 gets the new value, parity p2/p3 update incrementally, data p1
    /// logs ⊥ — and the resulting blocks decode to the updated stripe.
    #[test]
    fn modify_roles_produce_decodable_stripe() {
        let c = cfg(2, 4);
        let codec = c.codec().clone();
        // Establish version ts(5) with a complete stripe on all 4 replicas.
        let stripe: Vec<Vec<u8>> = vec![vec![1u8; 8], vec![2u8; 8]];
        let encoded = codec.encode(&stripe).unwrap();
        let mut replicas: Vec<Replica> = (0..4).map(|i| Replica::new(pid(i), c.clone())).collect();
        for (i, r) in replicas.iter_mut().enumerate() {
            r.handle(&Request::Order { ts: ts(5) });
            r.handle(&Request::Write {
                block: BlockValue::Data(Bytes::from(encoded[i].clone())),
                ts: ts(5),
            });
        }

        // Now write-block j=0 with value 9s at ts(9) via Modify.
        let new = Bytes::from(vec![9u8; 8]);
        let payload = ModifyPayload::Full {
            updates: vec![crate::messages::BlockUpdate {
                old: BlockValue::Data(Bytes::from(encoded[0].clone())),
                new: new.clone(),
            }],
        };
        for r in &mut replicas {
            // Order&Read phase (fast-write-block) first.
            r.handle(&Request::OrderRead {
                target: BlockTarget::One(pid(0)),
                below: Timestamp::HIGH,
                ts: ts(9),
            });
            let reply = r.handle(&Request::Modify {
                js: vec![pid(0)],
                ts_j: ts(5),
                ts: ts(9),
                payload: payload.clone(),
            });
            assert!(matches!(reply, Some(Reply::ModifyR { status: true, .. })));
        }

        // p1 logged ⊥; p0, p2, p3 hold decodable blocks of the new stripe.
        assert!(replicas[1].log().entry_at(ts(9)).unwrap().is_bottom());
        let b0 = replicas[0].log().entry_at(ts(9)).unwrap().materialize(8).unwrap();
        let b2 = replicas[2].log().entry_at(ts(9)).unwrap().materialize(8).unwrap();
        let b3 = replicas[3].log().entry_at(ts(9)).unwrap().materialize(8).unwrap();
        let decoded = codec
            .decode(&[Share::new(0, &b0), Share::new(2, &b2), Share::new(3, &b3)])
            .unwrap();
        assert_eq!(decoded[0], vec![9u8; 8]);
        assert_eq!(decoded[1], vec![2u8; 8]);
    }

    #[test]
    fn modify_delta_payload_matches_full() {
        let c = cfg(2, 4);
        let codec = c.codec().clone();
        let stripe: Vec<Vec<u8>> = vec![vec![3u8; 8], vec![4u8; 8]];
        let encoded = codec.encode(&stripe).unwrap();
        let new = vec![0xAAu8; 8];

        let run = |payload: ModifyPayload| -> BlockValue {
            let mut parity = Replica::new(pid(2), c.clone());
            parity.handle(&Request::Order { ts: ts(5) });
            parity.handle(&Request::Write {
                block: BlockValue::Data(Bytes::from(encoded[2].clone())),
                ts: ts(5),
            });
            parity.handle(&Request::OrderRead {
                target: BlockTarget::One(pid(1)),
                below: Timestamp::HIGH,
                ts: ts(9),
            });
            let r = parity.handle(&Request::Modify {
                js: vec![pid(1)],
                ts_j: ts(5),
                ts: ts(9),
                payload,
            });
            assert!(matches!(r, Some(Reply::ModifyR { status: true, .. })));
            parity.log().entry_at(ts(9)).unwrap().clone()
        };

        let via_full = run(ModifyPayload::Full {
            updates: vec![crate::messages::BlockUpdate {
                old: BlockValue::Data(Bytes::from(encoded[1].clone())),
                new: Bytes::from(new.clone()),
            }],
        });
        let delta = codec.coded_delta(1, 2, &encoded[1], &new).unwrap();
        let via_delta = run(ModifyPayload::Delta {
            delta: Bytes::from(delta),
        });
        assert_eq!(via_full, via_delta);
    }

    #[test]
    fn modify_rejects_version_mismatch() {
        let mut r = Replica::new(pid(2), cfg(2, 4));
        // Replica is still at LowTS but the coordinator read ts(5).
        r.handle(&Request::OrderRead {
            target: BlockTarget::One(pid(0)),
            below: Timestamp::HIGH,
            ts: ts(9),
        });
        let reply = r.handle(&Request::Modify {
            js: vec![pid(0)],
            ts_j: ts(5),
            ts: ts(9),
            payload: ModifyPayload::Empty,
        });
        assert!(matches!(reply, Some(Reply::ModifyR { status: false, .. })));
    }

    #[test]
    fn modify_replay_is_true_without_reapply() {
        let c = cfg(2, 4);
        let mut r = Replica::new(pid(1), c);
        r.handle(&Request::OrderRead {
            target: BlockTarget::One(pid(0)),
            below: Timestamp::HIGH,
            ts: ts(9),
        });
        let req = Request::Modify {
            js: vec![pid(0)],
            ts_j: Timestamp::LOW,
            ts: ts(9),
            payload: ModifyPayload::Empty,
        };
        assert!(matches!(
            r.handle(&req),
            Some(Reply::ModifyR { status: true, .. })
        ));
        let len = r.log().len();
        assert!(matches!(
            r.handle(&req),
            Some(Reply::ModifyR { status: true, .. })
        ));
        assert_eq!(r.log().len(), len);
    }

    #[test]
    fn modify_on_nil_stripe_uses_zero_blocks() {
        // Writing block 0 of a never-written 2-of-4 stripe: parity is
        // computed against the zero stripe.
        let c = cfg(2, 4);
        let codec = c.codec().clone();
        let new = vec![0x55u8; 8];
        let mut parity = Replica::new(pid(3), c.clone());
        parity.handle(&Request::OrderRead {
            target: BlockTarget::One(pid(0)),
            below: Timestamp::HIGH,
            ts: ts(9),
        });
        let reply = parity.handle(&Request::Modify {
            js: vec![pid(0)],
            ts_j: Timestamp::LOW,
            ts: ts(9),
            payload: ModifyPayload::Full {
                updates: vec![crate::messages::BlockUpdate {
                    old: BlockValue::Nil,
                    new: Bytes::from(new.clone()),
                }],
            },
        });
        assert!(matches!(reply, Some(Reply::ModifyR { status: true, .. })));
        let got = parity.log().entry_at(ts(9)).unwrap().materialize(8).unwrap();
        // Expected: parity of the stripe (new, 0).
        let expected = codec.encode(&[new, vec![0u8; 8]]).unwrap()[3].clone();
        assert_eq!(got.to_vec(), expected);
    }

    #[test]
    fn gc_request_trims_log_without_reply() {
        let c = cfg(2, 4);
        let mut r = Replica::new(pid(0), c);
        for t in [2u64, 4, 6] {
            r.handle(&Request::Order { ts: ts(t) });
            r.handle(&Request::Write {
                block: data(t as u8),
                ts: ts(t),
            });
        }
        assert_eq!(r.log().len(), 4);
        let reply = r.handle(&Request::Gc { up_to: ts(6) });
        assert!(reply.is_none());
        assert_eq!(r.log().len(), 2); // sentinel + ts(6)
        assert_eq!(r.log().max_ts(), ts(6));
    }

    #[test]
    fn crash_preserves_persistent_state() {
        let mut r = Replica::new(pid(0), cfg(2, 4));
        r.handle(&Request::Order { ts: ts(5) });
        r.handle(&Request::Write {
            block: data(1),
            ts: ts(5),
        });
        let (log_before, ord_before) = (r.log().clone(), r.ord_ts());
        r.on_crash();
        assert_eq!(r.log(), &log_before);
        assert_eq!(r.ord_ts(), ord_before);
    }

    #[test]
    fn disk_metrics_follow_cost_model() {
        let mut r = Replica::new(pid(0), cfg(2, 4));
        // Order: NVRAM only.
        r.handle(&Request::Order { ts: ts(5) });
        assert_eq!(r.metrics().reads + r.metrics().writes, 0);
        // Write of data: 1 disk write.
        r.handle(&Request::Write {
            block: data(1),
            ts: ts(5),
        });
        assert_eq!(r.metrics().writes, 1);
        // Read as target: 1 disk read.
        r.handle(&Request::Read {
            targets: vec![pid(0)],
        });
        assert_eq!(r.metrics().reads, 1);
        // Read as non-target: no disk read.
        r.handle(&Request::Read {
            targets: vec![pid(1)],
        });
        assert_eq!(r.metrics().reads, 1);
        // ⊥ append (Modify on unrelated data process): NVRAM only.
        r.reset_metrics();
        let mut other = Replica::new(pid(1), cfg(2, 4));
        other.handle(&Request::Modify {
            js: vec![pid(0)],
            ts_j: Timestamp::LOW,
            ts: ts(3),
            payload: ModifyPayload::Empty,
        });
        assert_eq!(other.metrics().writes, 0);
    }
}
