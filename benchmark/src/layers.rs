//! The layer walk: replays generated ops and calls each crate's public
//! functions directly on that op's real payload, one child span per stage
//! of the op's blocking path (fan-out to the n bricks is parallel, so every
//! stage is counted once per quorum round). Nothing inside the crates is
//! instrumented; every number here is taken from outside a `pub` boundary.

use std::collections::BTreeSet;
use std::path::Path;

use bytes::Bytes;
use fab_core::{
    BlockTarget, BlockUpdate, BlockValue, Envelope, ModifyPayload, OpCosts, OpResult, Payload,
    PersistEvent, RegisterConfig, Reply, Request, SimCluster, StripeId,
};
use fab_erasure::Share;
use fab_net::NetClient;
use fab_simnet::SimConfig;
use fab_store::BrickStore;
use fab_timestamp::{ProcessId, Timestamp};
use fab_wire::{
    decode_message, encode_client_reply_into, encode_client_request_into, encode_peer_message_into,
    AdminOp, ClientOp,
};

use crate::cluster::{M, N};
use crate::gen::{payload, Op, OpKind, OpStream, Pattern};
use crate::span::Tracer;
use crate::workload::Spec;

/// Exact per-op counts from the walk, averaged per op kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindCounts {
    pub ops: u64,
    /// Encoded frame bytes on the blocking path (one frame per hop).
    pub wire_bytes: u64,
    pub messages: u64,
    pub disk_reads: u64,
    pub disk_writes: u64,
    pub payload_bytes: u64,
}

/// Counts by op kind: `[write-stripe, read-block, write-block]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalkCounts {
    pub kinds: [KindCounts; 3],
}

fn kind_index(kind: OpKind) -> usize {
    match kind {
        OpKind::WriteStripe => 0,
        OpKind::ReadBlock => 1,
        OpKind::WriteBlock => 2,
    }
}

impl WalkCounts {
    /// The per-op mean of `field`, weighting the kinds by the pattern's
    /// *nominal* mix rather than the sampled one, so the figure repeats
    /// exactly across seeds.
    pub fn per_op(&self, pattern: Pattern, field: impl Fn(&KindCounts) -> u64) -> f64 {
        let mean = |k: &KindCounts| {
            if k.ops == 0 {
                0.0
            } else {
                field(k) as f64 / k.ops as f64
            }
        };
        match pattern {
            Pattern::StripeWrites => mean(&self.kinds[0]),
            Pattern::BlockMix { read_pct } => {
                let r = read_pct as f64 / 100.0;
                r * mean(&self.kinds[1]) + (1.0 - r) * mean(&self.kinds[2])
            }
        }
    }
}

struct Walker<'a> {
    cfg: RegisterConfig,
    tracer: &'a mut Tracer,
    store: BrickStore,
    sim: SimCluster,
    sim_written: BTreeSet<u64>,
    admin: &'a mut NetClient,
    buf: Vec<u8>,
    shares: Vec<Vec<u8>>,
    ticks: u64,
    counts: WalkCounts,
}

impl Walker<'_> {
    fn next_ts(&mut self) -> Timestamp {
        self.ticks += 1;
        Timestamp::from_parts(self.ticks, ProcessId::new(0))
    }

    /// One hop: encode the frame, then decode it as the receiver would.
    /// Returns the frame length.
    fn hop(&mut self, root: usize, encode: impl FnOnce(&mut Vec<u8>)) -> Result<u64, String> {
        let buf = &mut self.buf;
        buf.clear();
        self.tracer.child("wire.encode", root, || encode(buf));
        let buf = &self.buf;
        let decoded = self
            .tracer
            .child("wire.decode", root, || decode_message(buf));
        let (msg, used) = decoded.map_err(|e| format!("walk: frame does not decode: {e}"))?;
        std::hint::black_box(msg);
        Ok(used as u64)
    }

    fn peer_hop(&mut self, root: usize, stripe: u64, kind: Payload) -> Result<u64, String> {
        let env = Envelope {
            stripe: StripeId(stripe),
            round: self.ticks,
            kind,
        };
        self.hop(root, |buf| {
            encode_peer_message_into(ProcessId::new(1), &env, buf)
        })
    }

    /// One brick's durable append for one quorum round: write + `sync_data`.
    fn append_sync(&mut self, root: usize, stripe: u64, event: PersistEvent) -> Result<(), String> {
        let records = [(StripeId(stripe), event)];
        let store = &mut self.store;
        self.tracer
            .child("store.append_sync", root, || store.append_batch(&records))
            .map_err(|e| format!("walk: append_batch: {e}"))
    }

    fn sim_op(&mut self, root: usize, op: Op, blocks: &[Bytes]) -> Result<OpCosts, String> {
        let stripe = StripeId(op.stripe);
        let coordinator = ProcessId::new(0);
        if self.sim_written.insert(op.stripe) {
            // Reads and block writes of a never-written register cost less
            // than real ones; give the simulated stripe a value first.
            let seed_blocks: Vec<Bytes> = (0..M)
                .map(|_| Bytes::from(vec![0x5Au8; self.cfg.block_size()]))
                .collect();
            self.sim.write_stripe(coordinator, stripe, seed_blocks);
        }
        let sim = &mut self.sim;
        let blocks = blocks.to_vec();
        let (completion, costs) = self.tracer.child("core.sim_op", root, || {
            sim.measure_op(coordinator, move |brick, ctx| {
                let invoked = match op.kind {
                    OpKind::WriteStripe => brick.write_stripe(ctx, stripe, blocks).map(drop),
                    OpKind::WriteBlock => brick
                        .write_block(ctx, stripe, op.block, blocks[0].clone())
                        .map(drop),
                    OpKind::ReadBlock => brick.read_block(ctx, stripe, op.block).map(drop),
                };
                invoked.expect("walk ops are well-formed");
            })
        });
        if matches!(completion.result, OpResult::Aborted(_)) {
            return Err(format!("walk: simulated {:?} aborted", op.kind));
        }
        Ok(costs)
    }

    fn walk_op(&mut self, seq: u64, seed: u64, op: Op) -> Result<(), String> {
        let bs = self.cfg.block_size();
        let stripe = StripeId(op.stripe);
        let block = |j: usize, version: u32| Bytes::from(payload(seed, op.stripe, j, version, bs));
        let root = self.tracer.begin("walk.op", None, seq);
        let mut wire = 0u64;
        let blocks: Vec<Bytes> = match op.kind {
            OpKind::WriteStripe => (0..M).map(|j| block(j, 2)).collect(),
            OpKind::WriteBlock => vec![block(op.block, 2)],
            OpKind::ReadBlock => vec![block(op.block, 1)],
        };
        match op.kind {
            OpKind::WriteStripe => {
                let request = ClientOp::WriteStripe {
                    stripe,
                    blocks: blocks.clone(),
                };
                wire += self.hop(root, |buf| encode_client_request_into(seq, &request, buf))?;
                // Round 1: Order.
                let ts = self.next_ts();
                wire += self.peer_hop(root, op.stripe, Payload::Request(Request::Order { ts }))?;
                self.append_sync(root, op.stripe, PersistEvent::OrdTs(ts))?;
                let reply = Reply::OrderR {
                    status: true,
                    seen: ts,
                };
                wire += self.peer_hop(root, op.stripe, Payload::Reply(reply))?;
                // The coordinator encodes once, then round 2: Write.
                let (codec, shares) = (self.cfg.codec(), &mut self.shares);
                self.tracer
                    .child("erasure.encode", root, || {
                        codec.encode_into(&blocks, shares)
                    })
                    .map_err(|e| format!("walk: encode: {e}"))?;
                // A parity brick's share: the one only encode can produce.
                let share = BlockValue::Data(Bytes::from(self.shares[N - 1].clone()));
                let write = Request::Write {
                    block: share.clone(),
                    ts,
                };
                wire += self.peer_hop(root, op.stripe, Payload::Request(write))?;
                self.append_sync(root, op.stripe, PersistEvent::Entry(ts, share))?;
                let reply = Reply::WriteR {
                    status: true,
                    seen: ts,
                };
                wire += self.peer_hop(root, op.stripe, Payload::Reply(reply))?;
                let result = Ok(OpResult::Written);
                wire += self.hop(root, |buf| encode_client_reply_into(seq, &result, buf))?;
            }
            OpKind::ReadBlock => {
                let request = ClientOp::ReadBlock {
                    stripe,
                    j: op.block as u32,
                };
                wire += self.hop(root, |buf| encode_client_request_into(seq, &request, buf))?;
                let read = Request::Read {
                    targets: vec![ProcessId::new(op.block as u32)],
                };
                wire += self.peer_hop(root, op.stripe, Payload::Request(read))?;
                let value = BlockValue::Data(blocks[0].clone());
                let reply = Reply::ReadR {
                    status: true,
                    val_ts: self.next_ts(),
                    block: Some(value.clone()),
                };
                wire += self.peer_hop(root, op.stripe, Payload::Reply(reply))?;
                let result = Ok(OpResult::Block(value));
                wire += self.hop(root, |buf| encode_client_reply_into(seq, &result, buf))?;
            }
            OpKind::WriteBlock => {
                let request = ClientOp::WriteBlock {
                    stripe,
                    j: op.block as u32,
                    block: blocks[0].clone(),
                };
                wire += self.hop(root, |buf| encode_client_request_into(seq, &request, buf))?;
                // Round 1: Order&Read of the old block.
                let ts_j = self.next_ts();
                let ts = self.next_ts();
                let order_read = Request::OrderRead {
                    target: BlockTarget::One(ProcessId::new(op.block as u32)),
                    below: Timestamp::HIGH,
                    ts,
                };
                wire += self.peer_hop(root, op.stripe, Payload::Request(order_read))?;
                self.append_sync(root, op.stripe, PersistEvent::OrdTs(ts))?;
                let old = block(op.block, 1);
                let reply = Reply::OrderReadR {
                    status: true,
                    lts: ts_j,
                    block: Some(BlockValue::Data(old.clone())),
                    seen: ts,
                };
                wire += self.peer_hop(root, op.stripe, Payload::Reply(reply))?;
                // Round 2: Modify with old and new values (the default
                // `WriteStrategy::Paper`); a parity brick folds the delta
                // into its block and logs the result.
                let modify = Request::Modify {
                    js: vec![ProcessId::new(op.block as u32)],
                    ts_j,
                    ts,
                    payload: ModifyPayload::Full {
                        updates: vec![BlockUpdate {
                            old: BlockValue::Data(old.clone()),
                            new: blocks[0].clone(),
                        }],
                    },
                };
                wire += self.peer_hop(root, op.stripe, Payload::Request(modify))?;
                let mut parity = payload(seed, op.stripe, N - 1, 1, bs);
                let codec = self.cfg.codec();
                self.tracer
                    .child("erasure.modify", root, || {
                        codec.modify_in_place(op.block, N - 1, &old, &blocks[0], &mut parity)
                    })
                    .map_err(|e| format!("walk: modify: {e}"))?;
                let entry = PersistEvent::Entry(ts, BlockValue::Data(Bytes::from(parity)));
                self.append_sync(root, op.stripe, entry)?;
                let reply = Reply::ModifyR {
                    status: true,
                    seen: ts,
                };
                wire += self.peer_hop(root, op.stripe, Payload::Reply(reply))?;
                let result = Ok(OpResult::Written);
                wire += self.hop(root, |buf| encode_client_reply_into(seq, &result, buf))?;
            }
        }

        // Socket → event loop → reply with no peer round and no store: the
        // client's own hop, the floor under every latency.
        let admin = &mut *self.admin;
        self.tracer
            .child("net.admin_rtt", root, || {
                admin.try_admin(0, &AdminOp::RepairStatus)
            })
            .map_err(|e| format!("walk: admin round trip: {e}"))?;

        // Off the blocking path: the protocol state machines alone, all n
        // bricks in one thread, and the paper's Table 1 counts.
        let costs = self.sim_op(root, op, &blocks)?;
        self.tracer.end(root);

        let k = &mut self.counts.kinds[kind_index(op.kind)];
        k.ops += 1;
        k.wire_bytes += wire;
        k.messages += costs.messages;
        k.disk_reads += costs.disk_reads;
        k.disk_writes += costs.disk_writes;
        k.payload_bytes += costs.bytes;
        Ok(())
    }
}

/// Replays the first `ops` generated ops of client 0's stream for `seed`.
/// Spans go to `tracer` (`walk.op` parents); `dir` holds the walk's own
/// brick log; `admin` is a client of the running traced cluster.
pub fn layer_walk(
    spec: &Spec,
    seed: u64,
    ops: usize,
    dir: &Path,
    admin: &mut NetClient,
    tracer: &mut Tracer,
) -> Result<WalkCounts, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("walk dir: {e}"))?;
    let cfg = crate::cluster::register_config(spec.block_bytes);
    let store =
        BrickStore::open(dir.join("brick-walk.log")).map_err(|e| format!("walk log: {e}"))?;
    let range = crate::gen::client_range(0, crate::gen::CLIENTS, spec.stripes);
    let mut stream = OpStream::new(seed, 0, spec.pattern, range, M);
    let mut walker = Walker {
        sim: SimCluster::new(cfg.clone(), SimConfig::ideal(seed)),
        cfg,
        tracer,
        store,
        sim_written: BTreeSet::new(),
        admin,
        buf: Vec::new(),
        shares: vec![Vec::new(); N],
        ticks: 0,
        counts: WalkCounts::default(),
    };
    for seq in 0..ops as u64 {
        let op = stream.next_op();
        walker.walk_op(seq, seed, op)?;
    }
    Ok(walker.counts)
}

/// Stand-alone ceilings of the per-byte functions at this workload's block
/// size, for the layers a workload's ops do not reach and for the MiB/s
/// figures. Spans are children of one `walk.ceilings` parent.
#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    pub encode_us: f64,
    pub encode_mib_per_s: f64,
    pub modify_us: f64,
    pub decode_us: f64,
    pub crc32_mib_per_s: f64,
}

pub fn ceilings(spec: &Spec, seed: u64, tracer: &mut Tracer) -> Result<Ceilings, String> {
    const ROUNDS: usize = 64;
    let cfg = crate::cluster::register_config(spec.block_bytes);
    let codec = cfg.codec();
    let bs = spec.block_bytes;
    let data: Vec<Vec<u8>> = (0..M).map(|j| payload(seed, u64::MAX, j, 1, bs)).collect();
    let mut shares = vec![Vec::new(); N];
    let mut decoded = vec![Vec::new(); M];
    let root = tracer.begin("walk.ceilings", None, u64::MAX);
    let mut enc = Vec::with_capacity(ROUNDS);
    let mut modi = Vec::with_capacity(ROUNDS);
    let mut dec = Vec::with_capacity(ROUNDS);
    let mut crc = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let (encoded, ns) = tracer.child_timed("erasure.encode", root, || {
            codec.encode_into(&data, &mut shares)
        });
        encoded.map_err(|e| format!("ceilings: encode: {e}"))?;
        enc.push(ns);

        let mut parity = shares[N - 1].clone();
        let (modified, ns) = tracer.child_timed("erasure.modify", root, || {
            codec.modify_in_place(0, N - 1, &data[0], &data[1], &mut parity)
        });
        modified.map_err(|e| format!("ceilings: modify: {e}"))?;
        modi.push(ns);

        // m shares, one of them parity: data block 0 is the one missing.
        let from = [
            Share::new(1, &shares[1]),
            Share::new(2, &shares[2]),
            Share::new(N - 1, &shares[N - 1]),
        ];
        let (decoded_ok, ns) = tracer.child_timed("erasure.decode", root, || {
            codec.decode_into(&from, &mut decoded)
        });
        decoded_ok.map_err(|e| format!("ceilings: decode: {e}"))?;
        dec.push(ns);
        if decoded[0] != data[0] {
            return Err("ceilings: decode did not return the data".to_string());
        }

        let (sum, ns) = tracer.child_timed("store.crc32", root, || fab_store::crc32(&data[0]));
        crc.push(ns);
        std::hint::black_box(sum);
    }
    tracer.end(root);
    let median_ns = |v: &mut Vec<u64>| {
        v.sort_unstable();
        v[v.len() / 2].max(1) as f64
    };
    let mib = |bytes: usize, ns: f64| bytes as f64 / (1024.0 * 1024.0) / (ns / 1e9);
    let (enc_ns, crc_ns) = (median_ns(&mut enc), median_ns(&mut crc));
    Ok(Ceilings {
        encode_us: enc_ns / 1000.0,
        encode_mib_per_s: mib(M * bs, enc_ns),
        modify_us: median_ns(&mut modi) / 1000.0,
        decode_us: median_ns(&mut dec) / 1000.0,
        crc32_mib_per_s: mib(bs, crc_ns),
    })
}
