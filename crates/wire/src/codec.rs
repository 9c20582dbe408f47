//! Body encodings: the kind-specific binary forms carried inside frames.
//!
//! Five message families cross FAB sockets (§7 and §10 of DESIGN.md carry
//! the full byte-layout tables):
//!
//! * **Peer** — brick↔brick protocol traffic: the sender's process id
//!   followed by a [`fab_core::Envelope`] (the requests and replies of
//!   Algorithms 2–3, exactly the types the sans-io state machines already
//!   exchange in-process).
//! * **ClientRequest** — a register operation ([`ClientOp`]) tagged with a
//!   client-chosen correlation id.
//! * **ClientReply** — the matching [`fab_core::OpResult`] (or a
//!   [`ClientError`]) echoing the correlation id.
//! * **AdminRequest** — an operator operation ([`AdminOp`]: repair
//!   start/status/abort) tagged with a correlation id.
//! * **AdminReply** — the matching [`AdminResponse`] (or a
//!   [`ClientError`]) echoing the correlation id.
//!
//! All decode paths treat input as untrusted: every length and count is
//! validated against the bytes actually present *before* any allocation is
//! sized from it, every tag byte has an error arm, and no path panics
//! (enforced by `cargo xtask analyze` L1/L1b over this file).

use crate::error::WireError;
use crate::frame::{split_frame, FrameBuilder, FrameKind};
use bytes::Bytes;
use fab_core::{
    AbortReason, BlockTarget, BlockUpdate, BlockValue, ClientError, ClientOp, Envelope,
    ModifyPayload, OpResult, Payload, Reply, Request, StripeId, StripeValue,
};
use fab_timestamp::{ProcessId, Timestamp};

// ------------------------------------------------------------- messages ---

/// A decoded wire message: everything that can travel on a FAB socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Brick↔brick protocol traffic.
    Peer {
        /// The sending brick (replies are routed back to it).
        from: ProcessId,
        /// The routed protocol message.
        env: Envelope,
    },
    /// Client→brick operation request.
    ClientRequest {
        /// Client-chosen correlation id, echoed by the reply.
        id: u64,
        /// The requested register operation.
        op: ClientOp,
    },
    /// Brick→client operation reply.
    ClientReply {
        /// The request's correlation id.
        id: u64,
        /// Outcome: a register result, or a typed rejection.
        result: Result<OpResult, ClientError>,
    },
    /// Operator→brick administrative request (repair orchestration).
    AdminRequest {
        /// Client-chosen correlation id, echoed by the reply.
        id: u64,
        /// The requested administrative operation.
        op: AdminOp,
    },
    /// Brick→operator administrative reply.
    AdminReply {
        /// The request's correlation id.
        id: u64,
        /// Outcome: an admin response, or a typed rejection.
        result: Result<AdminResponse, ClientError>,
    },
}

impl Message {
    /// The frame kind this message travels under.
    #[must_use]
    pub fn kind(&self) -> FrameKind {
        match self {
            Message::Peer { .. } => FrameKind::Peer,
            Message::ClientRequest { .. } => FrameKind::ClientRequest,
            Message::ClientReply { .. } => FrameKind::ClientReply,
            Message::AdminRequest { .. } => FrameKind::AdminRequest,
            Message::AdminReply { .. } => FrameKind::AdminReply,
        }
    }
}

/// An operator-requested administrative operation (the socket form of the
/// `fab-cli repair` family).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminOp {
    /// Start a background rebuild on the receiving brick's node.
    RepairStart {
        /// The replaced/wiped brick to rebuild (ignored when `scrub_all`).
        brick: u32,
        /// Number of stripes in the volume to plan over.
        stripe_count: u64,
        /// Throttle: stripes per second (0 = unthrottled).
        stripes_per_sec: u64,
        /// Throttle: reconstructed bytes per second (0 = unthrottled).
        bytes_per_sec: u64,
        /// Bound on concurrently in-flight scrubs.
        max_inflight: u32,
        /// Full-volume scrub instead of a single brick's stripes.
        scrub_all: bool,
    },
    /// Snapshot the running (or last finished) repair's progress.
    RepairStatus,
    /// Abort the running repair at the next scrub boundary.
    RepairAbort,
    /// Snapshot the node's metrics registry (the socket form of
    /// `fab-cli stats`).
    StatsSnapshot,
}

impl AdminOp {
    /// Short operation name for logs and traces.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AdminOp::RepairStart { .. } => "repair-start",
            AdminOp::RepairStatus => "repair-status",
            AdminOp::RepairAbort => "repair-abort",
            AdminOp::StatsSnapshot => "stats-snapshot",
        }
    }
}

/// One named counter or gauge value in a [`StatsReport`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsEntry {
    /// Instrument name (UTF-8; lossily decoded from the wire).
    pub name: String,
    /// Current value.
    pub value: u64,
}

/// One named histogram snapshot in a [`StatsReport`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsHistogramEntry {
    /// Instrument name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Median (log2-bucket upper bound).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// A node's metrics-registry snapshot as carried on the wire (the socket
/// form of `fab_obs::Snapshot`, answered to [`AdminOp::StatsSnapshot`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsReport {
    /// The answering node's id.
    pub node: u32,
    /// Counter values, name-sorted (pair halves included).
    pub counters: Vec<StatsEntry>,
    /// Gauge levels, name-sorted.
    pub gauges: Vec<StatsEntry>,
    /// Histogram snapshots, name-sorted.
    pub histograms: Vec<StatsHistogramEntry>,
}

impl StatsReport {
    /// The counter named `name`, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.value)
    }
}

/// A point-in-time view of a repair run as carried on the wire (the
/// socket form of `fab_repair::RepairStats` plus liveness flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairProgress {
    /// Stripes in the plan.
    pub planned: u64,
    /// Stripes reconstructed and re-stored.
    pub repaired: u64,
    /// Never-written stripes (clean no-op scrubs).
    pub skipped: u64,
    /// Retried scrub attempts.
    pub retried: u64,
    /// Stripes exhausted of retries.
    pub failed: u64,
    /// Logical bytes reconstructed.
    pub bytes_reconstructed: u64,
    /// Throttle-induced waits.
    pub throttle_waits: u64,
    /// Durable-cursor watermark (contiguous plan prefix done).
    pub watermark: u64,
    /// Median per-scrub latency, microseconds.
    pub scrub_p50_micros: u64,
    /// 99th-percentile per-scrub latency, microseconds.
    pub scrub_p99_micros: u64,
    /// A repair driver is currently running.
    pub running: bool,
    /// The last driver run covered its whole plan.
    pub complete: bool,
}

/// A brick's answer to an [`AdminOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminResponse {
    /// The repair was started (or one was already running).
    Started,
    /// Progress snapshot for `RepairStatus`.
    Status(RepairProgress),
    /// The abort flag was raised.
    Aborted,
    /// Registry snapshot for `StatsSnapshot`.
    Stats(StatsReport),
}

// -------------------------------------------------------------- encoding --

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Length-prefixed byte string (u32 length + raw bytes).
fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    // Bodies are capped far below u32::MAX; debug-check, saturate in release.
    debug_assert!(b.len() <= u32::MAX as usize);
    put_u32(out, u32::try_from(b.len()).unwrap_or(u32::MAX));
    out.extend_from_slice(b);
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_u8(out, u8::from(v));
}

fn put_ts(out: &mut Vec<u8>, ts: Timestamp) {
    put_u64(out, ts.ticks());
    put_u32(out, ts.pid().value());
}

fn put_pid(out: &mut Vec<u8>, pid: ProcessId) {
    put_u32(out, pid.value());
}

fn put_pid_list(out: &mut Vec<u8>, pids: &[ProcessId]) {
    debug_assert!(pids.len() <= u32::MAX as usize);
    put_u32(out, u32::try_from(pids.len()).unwrap_or(u32::MAX));
    for p in pids {
        put_pid(out, *p);
    }
}

fn put_block_value(out: &mut Vec<u8>, v: &BlockValue) {
    match v {
        BlockValue::Bottom => put_u8(out, 0),
        BlockValue::Nil => put_u8(out, 1),
        BlockValue::Data(b) => {
            put_u8(out, 2);
            put_bytes(out, b);
        }
    }
}

fn put_opt_block_value(out: &mut Vec<u8>, v: Option<&BlockValue>) {
    match v {
        None => put_u8(out, 0),
        Some(b) => {
            put_u8(out, 1);
            put_block_value(out, b);
        }
    }
}

fn put_block_target(out: &mut Vec<u8>, t: &BlockTarget) {
    match t {
        BlockTarget::All => put_u8(out, 0),
        BlockTarget::One(p) => {
            put_u8(out, 1);
            put_pid(out, *p);
        }
        BlockTarget::Many(ps) => {
            put_u8(out, 2);
            put_pid_list(out, ps);
        }
    }
}

fn put_modify_payload(out: &mut Vec<u8>, p: &ModifyPayload) {
    match p {
        ModifyPayload::Full { updates } => {
            put_u8(out, 0);
            debug_assert!(updates.len() <= u32::MAX as usize);
            put_u32(out, u32::try_from(updates.len()).unwrap_or(u32::MAX));
            for BlockUpdate { old, new } in updates {
                put_block_value(out, old);
                put_bytes(out, new);
            }
        }
        ModifyPayload::NewValue { new } => {
            put_u8(out, 1);
            put_bytes(out, new);
        }
        ModifyPayload::Delta { delta } => {
            put_u8(out, 2);
            put_bytes(out, delta);
        }
        ModifyPayload::Empty => put_u8(out, 3),
    }
}

fn put_request(out: &mut Vec<u8>, r: &Request) {
    match r {
        Request::Read { targets } => {
            put_u8(out, 0);
            put_pid_list(out, targets);
        }
        Request::Order { ts } => {
            put_u8(out, 1);
            put_ts(out, *ts);
        }
        Request::OrderRead { target, below, ts } => {
            put_u8(out, 2);
            put_block_target(out, target);
            put_ts(out, *below);
            put_ts(out, *ts);
        }
        Request::Write { block, ts } => {
            put_u8(out, 3);
            put_block_value(out, block);
            put_ts(out, *ts);
        }
        Request::Modify {
            js,
            ts_j,
            ts,
            payload,
        } => {
            put_u8(out, 4);
            put_pid_list(out, js);
            put_ts(out, *ts_j);
            put_ts(out, *ts);
            put_modify_payload(out, payload);
        }
        Request::Gc { up_to } => {
            put_u8(out, 5);
            put_ts(out, *up_to);
        }
    }
}

fn put_reply(out: &mut Vec<u8>, r: &Reply) {
    match r {
        Reply::ReadR {
            status,
            val_ts,
            block,
        } => {
            put_u8(out, 0);
            put_bool(out, *status);
            put_ts(out, *val_ts);
            put_opt_block_value(out, block.as_ref());
        }
        Reply::OrderR { status, seen } => {
            put_u8(out, 1);
            put_bool(out, *status);
            put_ts(out, *seen);
        }
        Reply::OrderReadR {
            status,
            lts,
            block,
            seen,
        } => {
            put_u8(out, 2);
            put_bool(out, *status);
            put_ts(out, *lts);
            put_opt_block_value(out, block.as_ref());
            put_ts(out, *seen);
        }
        Reply::WriteR { status, seen } => {
            put_u8(out, 3);
            put_bool(out, *status);
            put_ts(out, *seen);
        }
        Reply::ModifyR { status, seen } => {
            put_u8(out, 4);
            put_bool(out, *status);
            put_ts(out, *seen);
        }
    }
}

fn put_peer_body(out: &mut Vec<u8>, from: ProcessId, env: &Envelope) {
    put_pid(out, from);
    put_u64(out, env.stripe.0);
    put_u64(out, env.round);
    match &env.kind {
        Payload::Request(r) => {
            put_u8(out, 0);
            put_request(out, r);
        }
        Payload::Reply(r) => {
            put_u8(out, 1);
            put_reply(out, r);
        }
    }
}

fn put_client_op(out: &mut Vec<u8>, op: &ClientOp) {
    match op {
        ClientOp::ReadStripe { stripe } => {
            put_u8(out, 0);
            put_u64(out, stripe.0);
        }
        ClientOp::WriteStripe { stripe, blocks } => {
            put_u8(out, 1);
            put_u64(out, stripe.0);
            debug_assert!(blocks.len() <= u32::MAX as usize);
            put_u32(out, u32::try_from(blocks.len()).unwrap_or(u32::MAX));
            for b in blocks {
                put_bytes(out, b);
            }
        }
        ClientOp::ReadBlock { stripe, j } => {
            put_u8(out, 2);
            put_u64(out, stripe.0);
            put_u32(out, *j);
        }
        ClientOp::WriteBlock { stripe, j, block } => {
            put_u8(out, 3);
            put_u64(out, stripe.0);
            put_u32(out, *j);
            put_bytes(out, block);
        }
        ClientOp::ReadBlocks { stripe, js } => {
            put_u8(out, 4);
            put_u64(out, stripe.0);
            debug_assert!(js.len() <= u32::MAX as usize);
            put_u32(out, u32::try_from(js.len()).unwrap_or(u32::MAX));
            for j in js {
                put_u32(out, *j);
            }
        }
        ClientOp::WriteBlocks { stripe, updates } => {
            put_u8(out, 5);
            put_u64(out, stripe.0);
            debug_assert!(updates.len() <= u32::MAX as usize);
            put_u32(out, u32::try_from(updates.len()).unwrap_or(u32::MAX));
            for (j, b) in updates {
                put_u32(out, *j);
                put_bytes(out, b);
            }
        }
        ClientOp::Scrub { stripe } => {
            put_u8(out, 6);
            put_u64(out, stripe.0);
        }
    }
}

fn put_op_result(out: &mut Vec<u8>, r: &OpResult) {
    match r {
        OpResult::Stripe(StripeValue::Nil) => put_u8(out, 0),
        OpResult::Stripe(StripeValue::Data(blocks)) => {
            put_u8(out, 1);
            debug_assert!(blocks.len() <= u32::MAX as usize);
            put_u32(out, u32::try_from(blocks.len()).unwrap_or(u32::MAX));
            for b in blocks {
                put_bytes(out, b);
            }
        }
        OpResult::Block(v) => {
            put_u8(out, 2);
            put_block_value(out, v);
        }
        OpResult::Blocks(vs) => {
            put_u8(out, 3);
            debug_assert!(vs.len() <= u32::MAX as usize);
            put_u32(out, u32::try_from(vs.len()).unwrap_or(u32::MAX));
            for v in vs {
                put_block_value(out, v);
            }
        }
        OpResult::Written => put_u8(out, 4),
        OpResult::Aborted(reason) => {
            put_u8(out, 5);
            put_u8(
                out,
                match reason {
                    AbortReason::Conflict => 0,
                    AbortReason::RecoveryExhausted => 1,
                    AbortReason::Internal => 2,
                    // `AbortReason` is non_exhaustive upstream-proof: map
                    // unknown variants to Internal rather than panic.
                    #[allow(unreachable_patterns)]
                    _ => 2,
                },
            );
        }
    }
}

fn put_client_request_body(out: &mut Vec<u8>, id: u64, op: &ClientOp) {
    put_u64(out, id);
    put_client_op(out, op);
}

fn put_client_reply_body(out: &mut Vec<u8>, id: u64, result: &Result<OpResult, ClientError>) {
    put_u64(out, id);
    match result {
        Ok(r) => {
            put_u8(out, 0);
            put_op_result(out, r);
        }
        Err(e) => {
            put_u8(out, 1);
            put_u8(
                out,
                match e {
                    ClientError::InvalidRequest => 0,
                    ClientError::Unavailable => 1,
                    #[allow(unreachable_patterns)]
                    _ => 1,
                },
            );
        }
    }
}

fn put_admin_op(out: &mut Vec<u8>, op: &AdminOp) {
    match op {
        AdminOp::RepairStart {
            brick,
            stripe_count,
            stripes_per_sec,
            bytes_per_sec,
            max_inflight,
            scrub_all,
        } => {
            put_u8(out, 0);
            put_u32(out, *brick);
            put_u64(out, *stripe_count);
            put_u64(out, *stripes_per_sec);
            put_u64(out, *bytes_per_sec);
            put_u32(out, *max_inflight);
            put_bool(out, *scrub_all);
        }
        AdminOp::RepairStatus => put_u8(out, 1),
        AdminOp::RepairAbort => put_u8(out, 2),
        AdminOp::StatsSnapshot => put_u8(out, 3),
    }
}

fn put_stats_report(out: &mut Vec<u8>, report: &StatsReport) {
    put_u32(out, report.node);
    // Entry counts are bounded by the registry's instrument namespace
    // (a few dozen); debug-check, saturate in release like `put_bytes`.
    debug_assert!(report.counters.len() <= u32::MAX as usize);
    put_u32(out, u32::try_from(report.counters.len()).unwrap_or(u32::MAX));
    for e in &report.counters {
        put_bytes(out, e.name.as_bytes());
        put_u64(out, e.value);
    }
    debug_assert!(report.gauges.len() <= u32::MAX as usize);
    put_u32(out, u32::try_from(report.gauges.len()).unwrap_or(u32::MAX));
    for e in &report.gauges {
        put_bytes(out, e.name.as_bytes());
        put_u64(out, e.value);
    }
    debug_assert!(report.histograms.len() <= u32::MAX as usize);
    put_u32(out, u32::try_from(report.histograms.len()).unwrap_or(u32::MAX));
    for h in &report.histograms {
        put_bytes(out, h.name.as_bytes());
        put_u64(out, h.count);
        put_u64(out, h.p50);
        put_u64(out, h.p95);
        put_u64(out, h.p99);
    }
}

fn put_admin_response(out: &mut Vec<u8>, resp: &AdminResponse) {
    match resp {
        AdminResponse::Started => put_u8(out, 0),
        AdminResponse::Status(p) => {
            put_u8(out, 1);
            put_u64(out, p.planned);
            put_u64(out, p.repaired);
            put_u64(out, p.skipped);
            put_u64(out, p.retried);
            put_u64(out, p.failed);
            put_u64(out, p.bytes_reconstructed);
            put_u64(out, p.throttle_waits);
            put_u64(out, p.watermark);
            put_u64(out, p.scrub_p50_micros);
            put_u64(out, p.scrub_p99_micros);
            put_bool(out, p.running);
            put_bool(out, p.complete);
        }
        AdminResponse::Aborted => put_u8(out, 2),
        AdminResponse::Stats(report) => {
            put_u8(out, 3);
            put_stats_report(out, report);
        }
    }
}

fn put_admin_request_body(out: &mut Vec<u8>, id: u64, op: &AdminOp) {
    put_u64(out, id);
    put_admin_op(out, op);
}

fn put_admin_reply_body(out: &mut Vec<u8>, id: u64, result: &Result<AdminResponse, ClientError>) {
    put_u64(out, id);
    match result {
        Ok(resp) => {
            put_u8(out, 0);
            put_admin_response(out, resp);
        }
        Err(e) => {
            put_u8(out, 1);
            put_u8(
                out,
                match e {
                    ClientError::InvalidRequest => 0,
                    ClientError::Unavailable => 1,
                    #[allow(unreachable_patterns)]
                    _ => 1,
                },
            );
        }
    }
}

/// Encodes a full frame (header + body) for any message: the one
/// `Vec`-returning convenience over [`encode_message_into`].
#[must_use]
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    encode_message_into(msg, &mut out);
    out
}

/// Appends a complete Peer frame (header + body) to `out` with no
/// intermediate allocation: the body is serialized straight into the
/// caller's buffer behind a reserved header that is patched afterwards.
pub fn encode_peer_message_into(from: ProcessId, env: &Envelope, out: &mut Vec<u8>) {
    let frame = FrameBuilder::begin(out);
    put_peer_body(out, from, env);
    frame.finish(FrameKind::Peer, out);
}

/// Appends a complete ClientRequest frame to `out` without allocating.
pub fn encode_client_request_into(id: u64, op: &ClientOp, out: &mut Vec<u8>) {
    let frame = FrameBuilder::begin(out);
    put_client_request_body(out, id, op);
    frame.finish(FrameKind::ClientRequest, out);
}

/// Appends a complete ClientReply frame to `out` without allocating.
pub fn encode_client_reply_into(
    id: u64,
    result: &Result<OpResult, ClientError>,
    out: &mut Vec<u8>,
) {
    let frame = FrameBuilder::begin(out);
    put_client_reply_body(out, id, result);
    frame.finish(FrameKind::ClientReply, out);
}

/// Appends a complete AdminRequest frame to `out` without allocating.
pub fn encode_admin_request_into(id: u64, op: &AdminOp, out: &mut Vec<u8>) {
    let frame = FrameBuilder::begin(out);
    put_admin_request_body(out, id, op);
    frame.finish(FrameKind::AdminRequest, out);
}

/// Appends a complete AdminReply frame to `out` without allocating.
pub fn encode_admin_reply_into(
    id: u64,
    result: &Result<AdminResponse, ClientError>,
    out: &mut Vec<u8>,
) {
    let frame = FrameBuilder::begin(out);
    put_admin_reply_body(out, id, result);
    frame.finish(FrameKind::AdminReply, out);
}

/// Appends a complete frame for any message to `out` without allocating.
pub fn encode_message_into(msg: &Message, out: &mut Vec<u8>) {
    match msg {
        Message::Peer { from, env } => encode_peer_message_into(*from, env, out),
        Message::ClientRequest { id, op } => encode_client_request_into(*id, op, out),
        Message::ClientReply { id, result } => encode_client_reply_into(*id, result, out),
        Message::AdminRequest { id, op } => encode_admin_request_into(*id, op, out),
        Message::AdminReply { id, result } => encode_admin_reply_into(*id, result, out),
    }
}

// -------------------------------------------------------------- decoding --

/// A bounds-checked reader over untrusted bytes. Every accessor validates
/// the remaining length before touching (or allocating for) anything.
#[derive(Debug)]
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.buf.len() {
            return Err(WireError::Truncated {
                needed: n,
                have: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = self.take(1)?;
        Ok(b[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        let mut raw = [0u8; 4];
        raw.copy_from_slice(b);
        Ok(u32::from_le_bytes(raw))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    fn bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag {
                what,
                tag: u32::from(tag),
            }),
        }
    }

    /// A length-prefixed byte string. The declared length is validated
    /// against the remaining input before the copy allocates.
    fn bytes(&mut self) -> Result<Bytes, WireError> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        Ok(Bytes::copy_from_slice(raw))
    }

    /// A count prefix for a collection whose elements occupy at least
    /// `min_elem_bytes` each. A count the remaining body cannot possibly
    /// hold is rejected before any `Vec` is sized from it.
    fn count(&mut self, what: &'static str, min_elem_bytes: usize) -> Result<usize, WireError> {
        let declared = self.u32()? as usize;
        let capacity = self.remaining() / min_elem_bytes.max(1);
        if declared > capacity {
            return Err(WireError::BadCount {
                what,
                declared: declared as u64,
            });
        }
        Ok(declared)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                remaining: self.buf.len(),
            })
        }
    }
}

fn get_ts(r: &mut Reader<'_>) -> Result<Timestamp, WireError> {
    let ticks = r.u64()?;
    let pid = r.u32()?;
    // `from_parts` rejects the two sentinel encodings; reconstruct them
    // explicitly so sentinels survive the wire unchanged.
    if ticks == 0 && pid == 0 {
        return Ok(Timestamp::LOW);
    }
    if ticks == u64::MAX && pid == u32::MAX {
        return Ok(Timestamp::HIGH);
    }
    Ok(Timestamp::from_parts(ticks, ProcessId::new(pid)))
}

fn get_pid(r: &mut Reader<'_>) -> Result<ProcessId, WireError> {
    Ok(ProcessId::new(r.u32()?))
}

fn get_pid_list(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<ProcessId>, WireError> {
    let n = r.count(what, 4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_pid(r)?);
    }
    Ok(out)
}

fn get_block_value(r: &mut Reader<'_>) -> Result<BlockValue, WireError> {
    match r.u8()? {
        0 => Ok(BlockValue::Bottom),
        1 => Ok(BlockValue::Nil),
        2 => Ok(BlockValue::Data(r.bytes()?)),
        tag => Err(WireError::BadTag {
            what: "BlockValue",
            tag: u32::from(tag),
        }),
    }
}

fn get_opt_block_value(r: &mut Reader<'_>) -> Result<Option<BlockValue>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_block_value(r)?)),
        tag => Err(WireError::BadTag {
            what: "Option<BlockValue>",
            tag: u32::from(tag),
        }),
    }
}

fn get_block_target(r: &mut Reader<'_>) -> Result<BlockTarget, WireError> {
    match r.u8()? {
        0 => Ok(BlockTarget::All),
        1 => Ok(BlockTarget::One(get_pid(r)?)),
        2 => Ok(BlockTarget::Many(get_pid_list(r, "BlockTarget::Many")?)),
        tag => Err(WireError::BadTag {
            what: "BlockTarget",
            tag: u32::from(tag),
        }),
    }
}

fn get_modify_payload(r: &mut Reader<'_>) -> Result<ModifyPayload, WireError> {
    match r.u8()? {
        0 => {
            // A BlockUpdate is ≥ 5 bytes (1 tag + 4 length).
            let n = r.count("ModifyPayload::Full", 5)?;
            let mut updates = Vec::with_capacity(n);
            for _ in 0..n {
                let old = get_block_value(r)?;
                let new = r.bytes()?;
                updates.push(BlockUpdate { old, new });
            }
            Ok(ModifyPayload::Full { updates })
        }
        1 => Ok(ModifyPayload::NewValue { new: r.bytes()? }),
        2 => Ok(ModifyPayload::Delta { delta: r.bytes()? }),
        3 => Ok(ModifyPayload::Empty),
        tag => Err(WireError::BadTag {
            what: "ModifyPayload",
            tag: u32::from(tag),
        }),
    }
}

fn get_request(r: &mut Reader<'_>) -> Result<Request, WireError> {
    match r.u8()? {
        0 => Ok(Request::Read {
            targets: get_pid_list(r, "Read::targets")?,
        }),
        1 => Ok(Request::Order { ts: get_ts(r)? }),
        2 => Ok(Request::OrderRead {
            target: get_block_target(r)?,
            below: get_ts(r)?,
            ts: get_ts(r)?,
        }),
        3 => Ok(Request::Write {
            block: get_block_value(r)?,
            ts: get_ts(r)?,
        }),
        4 => Ok(Request::Modify {
            js: get_pid_list(r, "Modify::js")?,
            ts_j: get_ts(r)?,
            ts: get_ts(r)?,
            payload: get_modify_payload(r)?,
        }),
        5 => Ok(Request::Gc { up_to: get_ts(r)? }),
        tag => Err(WireError::BadTag {
            what: "Request",
            tag: u32::from(tag),
        }),
    }
}

fn get_reply(r: &mut Reader<'_>) -> Result<Reply, WireError> {
    match r.u8()? {
        0 => Ok(Reply::ReadR {
            status: r.bool("ReadR::status")?,
            val_ts: get_ts(r)?,
            block: get_opt_block_value(r)?,
        }),
        1 => Ok(Reply::OrderR {
            status: r.bool("OrderR::status")?,
            seen: get_ts(r)?,
        }),
        2 => Ok(Reply::OrderReadR {
            status: r.bool("OrderReadR::status")?,
            lts: get_ts(r)?,
            block: get_opt_block_value(r)?,
            seen: get_ts(r)?,
        }),
        3 => Ok(Reply::WriteR {
            status: r.bool("WriteR::status")?,
            seen: get_ts(r)?,
        }),
        4 => Ok(Reply::ModifyR {
            status: r.bool("ModifyR::status")?,
            seen: get_ts(r)?,
        }),
        tag => Err(WireError::BadTag {
            what: "Reply",
            tag: u32::from(tag),
        }),
    }
}

fn get_client_op(r: &mut Reader<'_>) -> Result<ClientOp, WireError> {
    match r.u8()? {
        0 => Ok(ClientOp::ReadStripe {
            stripe: StripeId(r.u64()?),
        }),
        1 => {
            let stripe = StripeId(r.u64()?);
            let n = r.count("WriteStripe::blocks", 4)?;
            let mut blocks = Vec::with_capacity(n);
            for _ in 0..n {
                blocks.push(r.bytes()?);
            }
            Ok(ClientOp::WriteStripe { stripe, blocks })
        }
        2 => Ok(ClientOp::ReadBlock {
            stripe: StripeId(r.u64()?),
            j: r.u32()?,
        }),
        3 => Ok(ClientOp::WriteBlock {
            stripe: StripeId(r.u64()?),
            j: r.u32()?,
            block: r.bytes()?,
        }),
        4 => {
            let stripe = StripeId(r.u64()?);
            let n = r.count("ReadBlocks::js", 4)?;
            let mut js = Vec::with_capacity(n);
            for _ in 0..n {
                js.push(r.u32()?);
            }
            Ok(ClientOp::ReadBlocks { stripe, js })
        }
        5 => {
            let stripe = StripeId(r.u64()?);
            let n = r.count("WriteBlocks::updates", 8)?;
            let mut updates = Vec::with_capacity(n);
            for _ in 0..n {
                let j = r.u32()?;
                let b = r.bytes()?;
                updates.push((j, b));
            }
            Ok(ClientOp::WriteBlocks { stripe, updates })
        }
        6 => Ok(ClientOp::Scrub {
            stripe: StripeId(r.u64()?),
        }),
        tag => Err(WireError::BadTag {
            what: "ClientOp",
            tag: u32::from(tag),
        }),
    }
}

fn get_op_result(r: &mut Reader<'_>) -> Result<OpResult, WireError> {
    match r.u8()? {
        0 => Ok(OpResult::Stripe(StripeValue::Nil)),
        1 => {
            let n = r.count("Stripe::blocks", 4)?;
            let mut blocks = Vec::with_capacity(n);
            for _ in 0..n {
                blocks.push(r.bytes()?);
            }
            Ok(OpResult::Stripe(StripeValue::Data(blocks)))
        }
        2 => Ok(OpResult::Block(get_block_value(r)?)),
        3 => {
            let n = r.count("Blocks::values", 1)?;
            let mut vs = Vec::with_capacity(n);
            for _ in 0..n {
                vs.push(get_block_value(r)?);
            }
            Ok(OpResult::Blocks(vs))
        }
        4 => Ok(OpResult::Written),
        5 => match r.u8()? {
            0 => Ok(OpResult::Aborted(AbortReason::Conflict)),
            1 => Ok(OpResult::Aborted(AbortReason::RecoveryExhausted)),
            2 => Ok(OpResult::Aborted(AbortReason::Internal)),
            tag => Err(WireError::BadTag {
                what: "AbortReason",
                tag: u32::from(tag),
            }),
        },
        tag => Err(WireError::BadTag {
            what: "OpResult",
            tag: u32::from(tag),
        }),
    }
}

/// Decodes a Peer frame body into the sender and its envelope.
///
/// # Errors
///
/// [`WireError`] on any malformed input; never panics, never allocates
/// beyond the bytes present.
pub fn decode_peer_body(body: &[u8]) -> Result<(ProcessId, Envelope), WireError> {
    let mut r = Reader::new(body);
    let from = get_pid(&mut r)?;
    let stripe = StripeId(r.u64()?);
    let round = r.u64()?;
    let kind = match r.u8()? {
        0 => Payload::Request(get_request(&mut r)?),
        1 => Payload::Reply(get_reply(&mut r)?),
        tag => {
            return Err(WireError::BadTag {
                what: "Payload",
                tag: u32::from(tag),
            })
        }
    };
    r.finish()?;
    Ok((
        from,
        Envelope {
            stripe,
            round,
            kind,
        },
    ))
}

/// Decodes a ClientRequest frame body.
///
/// # Errors
///
/// [`WireError`] on any malformed input.
pub fn decode_client_request_body(body: &[u8]) -> Result<(u64, ClientOp), WireError> {
    let mut r = Reader::new(body);
    let id = r.u64()?;
    let op = get_client_op(&mut r)?;
    r.finish()?;
    Ok((id, op))
}

/// Decodes a ClientReply frame body.
///
/// # Errors
///
/// [`WireError`] on any malformed input.
pub fn decode_client_reply_body(
    body: &[u8],
) -> Result<(u64, Result<OpResult, ClientError>), WireError> {
    let mut r = Reader::new(body);
    let id = r.u64()?;
    let result = match r.u8()? {
        0 => Ok(get_op_result(&mut r)?),
        1 => Err(match r.u8()? {
            0 => ClientError::InvalidRequest,
            1 => ClientError::Unavailable,
            tag => {
                return Err(WireError::BadTag {
                    what: "ClientError",
                    tag: u32::from(tag),
                })
            }
        }),
        tag => {
            return Err(WireError::BadTag {
                what: "ClientReply::result",
                tag: u32::from(tag),
            })
        }
    };
    r.finish()?;
    Ok((id, result))
}

fn get_admin_op(r: &mut Reader<'_>) -> Result<AdminOp, WireError> {
    match r.u8()? {
        0 => Ok(AdminOp::RepairStart {
            brick: r.u32()?,
            stripe_count: r.u64()?,
            stripes_per_sec: r.u64()?,
            bytes_per_sec: r.u64()?,
            max_inflight: r.u32()?,
            scrub_all: r.bool("RepairStart::scrub_all")?,
        }),
        1 => Ok(AdminOp::RepairStatus),
        2 => Ok(AdminOp::RepairAbort),
        3 => Ok(AdminOp::StatsSnapshot),
        tag => Err(WireError::BadTag {
            what: "AdminOp",
            tag: u32::from(tag),
        }),
    }
}

/// A metric name: length-prefixed bytes, lossily decoded as UTF-8 (a
/// hostile name cannot make decoding fail — it just renders replacement
/// characters).
fn get_stats_name(r: &mut Reader<'_>) -> Result<String, WireError> {
    let raw = r.bytes()?;
    Ok(String::from_utf8_lossy(&raw).into_owned())
}

fn get_stats_report(r: &mut Reader<'_>) -> Result<StatsReport, WireError> {
    let node = r.u32()?;
    // Smallest possible entry: empty name (4-byte length) + u64 value.
    let n = r.count("StatsReport::counters", 12)?;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        counters.push(StatsEntry {
            name: get_stats_name(r)?,
            value: r.u64()?,
        });
    }
    let n = r.count("StatsReport::gauges", 12)?;
    let mut gauges = Vec::with_capacity(n);
    for _ in 0..n {
        gauges.push(StatsEntry {
            name: get_stats_name(r)?,
            value: r.u64()?,
        });
    }
    // Smallest histogram entry: empty name + four u64s.
    let n = r.count("StatsReport::histograms", 36)?;
    let mut histograms = Vec::with_capacity(n);
    for _ in 0..n {
        histograms.push(StatsHistogramEntry {
            name: get_stats_name(r)?,
            count: r.u64()?,
            p50: r.u64()?,
            p95: r.u64()?,
            p99: r.u64()?,
        });
    }
    Ok(StatsReport {
        node,
        counters,
        gauges,
        histograms,
    })
}

fn get_admin_response(r: &mut Reader<'_>) -> Result<AdminResponse, WireError> {
    match r.u8()? {
        0 => Ok(AdminResponse::Started),
        1 => Ok(AdminResponse::Status(RepairProgress {
            planned: r.u64()?,
            repaired: r.u64()?,
            skipped: r.u64()?,
            retried: r.u64()?,
            failed: r.u64()?,
            bytes_reconstructed: r.u64()?,
            throttle_waits: r.u64()?,
            watermark: r.u64()?,
            scrub_p50_micros: r.u64()?,
            scrub_p99_micros: r.u64()?,
            running: r.bool("Status::running")?,
            complete: r.bool("Status::complete")?,
        })),
        2 => Ok(AdminResponse::Aborted),
        3 => Ok(AdminResponse::Stats(get_stats_report(r)?)),
        tag => Err(WireError::BadTag {
            what: "AdminResponse",
            tag: u32::from(tag),
        }),
    }
}

/// Decodes an AdminRequest frame body.
///
/// # Errors
///
/// [`WireError`] on any malformed input.
pub fn decode_admin_request_body(body: &[u8]) -> Result<(u64, AdminOp), WireError> {
    let mut r = Reader::new(body);
    let id = r.u64()?;
    let op = get_admin_op(&mut r)?;
    r.finish()?;
    Ok((id, op))
}

/// Decodes an AdminReply frame body.
///
/// # Errors
///
/// [`WireError`] on any malformed input.
pub fn decode_admin_reply_body(
    body: &[u8],
) -> Result<(u64, Result<AdminResponse, ClientError>), WireError> {
    let mut r = Reader::new(body);
    let id = r.u64()?;
    let result = match r.u8()? {
        0 => Ok(get_admin_response(&mut r)?),
        1 => Err(match r.u8()? {
            0 => ClientError::InvalidRequest,
            1 => ClientError::Unavailable,
            tag => {
                return Err(WireError::BadTag {
                    what: "ClientError",
                    tag: u32::from(tag),
                })
            }
        }),
        tag => {
            return Err(WireError::BadTag {
                what: "AdminReply::result",
                tag: u32::from(tag),
            })
        }
    };
    r.finish()?;
    Ok((id, result))
}

/// Decodes a frame body under its header kind.
///
/// # Errors
///
/// [`WireError`] on any malformed input.
pub fn decode_body(kind: FrameKind, body: &[u8]) -> Result<Message, WireError> {
    match kind {
        FrameKind::Peer => {
            let (from, env) = decode_peer_body(body)?;
            Ok(Message::Peer { from, env })
        }
        FrameKind::ClientRequest => {
            let (id, op) = decode_client_request_body(body)?;
            Ok(Message::ClientRequest { id, op })
        }
        FrameKind::ClientReply => {
            let (id, result) = decode_client_reply_body(body)?;
            Ok(Message::ClientReply { id, result })
        }
        FrameKind::AdminRequest => {
            let (id, op) = decode_admin_request_body(body)?;
            Ok(Message::AdminRequest { id, op })
        }
        FrameKind::AdminReply => {
            let (id, result) = decode_admin_reply_body(body)?;
            Ok(Message::AdminReply { id, result })
        }
    }
}

/// Decodes one complete frame (header + body) from the front of `buf`,
/// returning the message and the bytes consumed.
///
/// # Errors
///
/// [`WireError`] on any malformed, truncated, or corrupted frame.
pub fn decode_message(buf: &[u8]) -> Result<(Message, usize), WireError> {
    let (header, body, used) = split_frame(buf)?;
    let msg = decode_body(header.kind, body)?;
    Ok((msg, used))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_parts(t, ProcessId::new(3))
    }

    /// The body of `msg`'s frame.
    fn body_of(msg: &Message) -> Vec<u8> {
        encode_message(msg)[crate::frame::HEADER_LEN..].to_vec()
    }

    fn admin_request_body(id: u64, op: AdminOp) -> Vec<u8> {
        body_of(&Message::AdminRequest { id, op })
    }

    fn admin_reply_body(id: u64, response: AdminResponse) -> Vec<u8> {
        let result = Ok(response);
        body_of(&Message::AdminReply { id, result })
    }

    fn round_trip(msg: &Message) {
        let frame = encode_message(msg);
        let (back, used) = decode_message(&frame).expect("round trip");
        assert_eq!(&back, msg);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn peer_request_round_trips() {
        round_trip(&Message::Peer {
            from: ProcessId::new(7),
            env: Envelope {
                stripe: StripeId(42),
                round: 9000,
                kind: Payload::Request(Request::Modify {
                    js: vec![ProcessId::new(0), ProcessId::new(2)],
                    ts_j: Timestamp::LOW,
                    ts: ts(88),
                    payload: ModifyPayload::Full {
                        updates: vec![
                            BlockUpdate {
                                old: BlockValue::Nil,
                                new: Bytes::from_static(b"new-block"),
                            },
                            BlockUpdate {
                                old: BlockValue::Data(Bytes::from_static(b"old")),
                                new: Bytes::from_static(b""),
                            },
                        ],
                    },
                }),
            },
        });
    }

    #[test]
    fn peer_reply_round_trips_with_sentinels() {
        round_trip(&Message::Peer {
            from: ProcessId::new(0),
            env: Envelope {
                stripe: StripeId(u64::MAX),
                round: 0,
                kind: Payload::Reply(Reply::OrderReadR {
                    status: true,
                    lts: Timestamp::LOW,
                    block: Some(BlockValue::Bottom),
                    seen: Timestamp::HIGH,
                }),
            },
        });
    }

    #[test]
    fn client_messages_round_trip() {
        round_trip(&Message::ClientRequest {
            id: 77,
            op: ClientOp::WriteBlocks {
                stripe: StripeId(5),
                updates: vec![(0, Bytes::from_static(b"aa")), (3, Bytes::from_static(b"b"))],
            },
        });
        round_trip(&Message::ClientReply {
            id: 77,
            result: Ok(OpResult::Stripe(StripeValue::Data(vec![
                Bytes::from_static(b"one"),
                Bytes::from_static(b"two"),
            ]))),
        });
        round_trip(&Message::ClientReply {
            id: 1,
            result: Err(ClientError::InvalidRequest),
        });
        round_trip(&Message::ClientReply {
            id: 2,
            result: Ok(OpResult::Aborted(AbortReason::Conflict)),
        });
    }

    #[test]
    fn bad_tags_are_typed_errors() {
        // A minimal client reply body with an undefined result arm.
        let mut body = Vec::new();
        put_u64(&mut body, 1);
        put_u8(&mut body, 9);
        assert!(matches!(
            decode_client_reply_body(&body),
            Err(WireError::BadTag {
                what: "ClientReply::result",
                ..
            })
        ));
    }

    #[test]
    fn lying_count_is_rejected_before_allocation() {
        // Read request claiming 2^31 targets in an 8-byte body.
        let mut body = Vec::new();
        put_pid(&mut body, ProcessId::new(1)); // from
        put_u64(&mut body, 0); // stripe
        put_u64(&mut body, 0); // round
        put_u8(&mut body, 0); // Payload::Request
        put_u8(&mut body, 0); // Request::Read
        put_u32(&mut body, 1 << 31); // declared target count
        assert!(matches!(
            decode_peer_body(&body),
            Err(WireError::BadCount {
                what: "Read::targets",
                ..
            })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let msg = Message::ClientRequest {
            id: 4,
            op: ClientOp::Scrub { stripe: StripeId(1) },
        };
        let mut body = body_of(&msg);
        body.push(0xAB);
        assert_eq!(
            decode_client_request_body(&body),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
        round_trip(&msg);
    }

    #[test]
    fn encode_into_is_byte_identical_and_prefix_preserving() {
        let msgs = [
            Message::Peer {
                from: ProcessId::new(7),
                env: Envelope {
                    stripe: StripeId(42),
                    round: 9000,
                    kind: Payload::Reply(Reply::OrderReadR {
                        status: false,
                        lts: ts(3),
                        block: Some(BlockValue::Data(Bytes::from_static(b"blk"))),
                        seen: Timestamp::HIGH,
                    }),
                },
            },
            Message::ClientRequest {
                id: 11,
                op: ClientOp::WriteStripe {
                    stripe: StripeId(2),
                    blocks: vec![Bytes::from_static(b"aaaa"), Bytes::from_static(b"bb")],
                },
            },
            Message::ClientReply {
                id: 12,
                result: Ok(OpResult::Blocks(vec![BlockValue::Nil, BlockValue::Bottom])),
            },
            Message::ClientReply {
                id: 13,
                result: Err(ClientError::Unavailable),
            },
        ];
        let mut buf = vec![0xEE, 0xFF]; // pre-existing prefix must survive
        let mut at = buf.len();
        for msg in &msgs {
            encode_message_into(msg, &mut buf);
            let one = encode_message(msg);
            assert_eq!(&buf[at..], &one[..], "encode_into diverged for {msg:?}");
            at = buf.len();
        }
        assert_eq!(&buf[..2], &[0xEE, 0xFF]);
        // The concatenated buffer decodes back message by message.
        let mut rest = &buf[2..];
        for msg in &msgs {
            let (back, used) = decode_message(rest).expect("decode concatenated");
            assert_eq!(&back, msg);
            rest = &rest[used..];
        }
        assert!(rest.is_empty());
    }

    fn sample_progress() -> RepairProgress {
        RepairProgress {
            planned: 100,
            repaired: 60,
            skipped: 30,
            retried: 5,
            failed: 1,
            bytes_reconstructed: 4096,
            throttle_waits: 17,
            watermark: 88,
            scrub_p50_micros: 128,
            scrub_p99_micros: 2048,
            running: true,
            complete: false,
        }
    }

    #[test]
    fn admin_messages_round_trip() {
        round_trip(&Message::AdminRequest {
            id: 9,
            op: AdminOp::RepairStart {
                brick: 4,
                stripe_count: 1024,
                stripes_per_sec: 50,
                bytes_per_sec: 1 << 20,
                max_inflight: 8,
                scrub_all: false,
            },
        });
        round_trip(&Message::AdminRequest {
            id: 10,
            op: AdminOp::RepairStatus,
        });
        round_trip(&Message::AdminRequest {
            id: 11,
            op: AdminOp::RepairAbort,
        });
        round_trip(&Message::AdminReply {
            id: 9,
            result: Ok(AdminResponse::Started),
        });
        round_trip(&Message::AdminReply {
            id: 10,
            result: Ok(AdminResponse::Status(sample_progress())),
        });
        round_trip(&Message::AdminReply {
            id: 11,
            result: Ok(AdminResponse::Aborted),
        });
        round_trip(&Message::AdminReply {
            id: 12,
            result: Err(ClientError::Unavailable),
        });
    }

    #[test]
    fn admin_bad_tags_are_typed_errors() {
        // Undefined admin op tag.
        let mut body = Vec::new();
        put_u64(&mut body, 1);
        put_u8(&mut body, 7);
        assert!(matches!(
            decode_admin_request_body(&body),
            Err(WireError::BadTag { what: "AdminOp", .. })
        ));
        // Undefined response tag inside an ok reply.
        let mut body = Vec::new();
        put_u64(&mut body, 1);
        put_u8(&mut body, 0); // ok
        put_u8(&mut body, 9); // bad AdminResponse tag
        assert!(matches!(
            decode_admin_reply_body(&body),
            Err(WireError::BadTag {
                what: "AdminResponse",
                ..
            })
        ));
        // A non-boolean scrub_all byte.
        let mut body = Vec::new();
        put_u64(&mut body, 1);
        put_admin_op(
            &mut body,
            &AdminOp::RepairStart {
                brick: 0,
                stripe_count: 1,
                stripes_per_sec: 0,
                bytes_per_sec: 0,
                max_inflight: 1,
                scrub_all: false,
            },
        );
        let last = body.len() - 1;
        if let Some(b) = body.get_mut(last) {
            *b = 3;
        }
        assert!(matches!(
            decode_admin_request_body(&body),
            Err(WireError::BadTag {
                what: "RepairStart::scrub_all",
                ..
            })
        ));
    }

    #[test]
    fn admin_trailing_bytes_are_rejected() {
        let mut body = admin_request_body(4, AdminOp::RepairStatus);
        body.push(0xCD);
        assert_eq!(
            decode_admin_request_body(&body),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
        let mut body = admin_reply_body(4, AdminResponse::Status(sample_progress()));
        body.push(0x01);
        assert_eq!(
            decode_admin_reply_body(&body),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn admin_truncated_status_is_truncated_error() {
        let full = admin_reply_body(4, AdminResponse::Status(sample_progress()));
        // Chop mid-way through the fixed-size status payload.
        let cut = full.get(..full.len() - 10).unwrap_or(&[]);
        assert!(matches!(
            decode_admin_reply_body(cut),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn admin_encode_into_is_byte_identical() {
        let msgs = [
            Message::AdminRequest {
                id: 21,
                op: AdminOp::RepairStart {
                    brick: 2,
                    stripe_count: 64,
                    stripes_per_sec: 0,
                    bytes_per_sec: 0,
                    max_inflight: 4,
                    scrub_all: true,
                },
            },
            Message::AdminReply {
                id: 21,
                result: Ok(AdminResponse::Status(sample_progress())),
            },
        ];
        let mut buf = vec![0x55];
        let mut at = buf.len();
        for msg in &msgs {
            encode_message_into(msg, &mut buf);
            let one = encode_message(msg);
            assert_eq!(&buf[at..], &one[..], "encode_into diverged for {msg:?}");
            at = buf.len();
        }
    }

    #[test]
    fn admin_op_names() {
        assert_eq!(AdminOp::RepairStatus.name(), "repair-status");
        assert_eq!(AdminOp::RepairAbort.name(), "repair-abort");
        assert_eq!(AdminOp::StatsSnapshot.name(), "stats-snapshot");
    }

    fn sample_stats() -> StatsReport {
        StatsReport {
            node: 3,
            counters: vec![
                StatsEntry {
                    name: "op_reads_fastpath".into(),
                    value: 120,
                },
                StatsEntry {
                    name: "op_reads_recovered".into(),
                    value: 4,
                },
            ],
            gauges: vec![StatsEntry {
                name: "net_queue_depth".into(),
                value: 7,
            }],
            histograms: vec![StatsHistogramEntry {
                name: "op_write_micros".into(),
                count: 55,
                p50: 128,
                p95: 512,
                p99: 2048,
            }],
        }
    }

    #[test]
    fn stats_messages_round_trip() {
        round_trip(&Message::AdminRequest {
            id: 30,
            op: AdminOp::StatsSnapshot,
        });
        round_trip(&Message::AdminReply {
            id: 30,
            result: Ok(AdminResponse::Stats(sample_stats())),
        });
        // Empty report (fresh node, nothing registered yet).
        round_trip(&Message::AdminReply {
            id: 31,
            result: Ok(AdminResponse::Stats(StatsReport::default())),
        });
        let report = sample_stats();
        assert_eq!(report.counter("op_reads_recovered"), Some(4));
        assert_eq!(report.counter("missing"), None);
    }

    #[test]
    fn stats_truncated_report_is_truncated_error() {
        let full = admin_reply_body(30, AdminResponse::Stats(sample_stats()));
        // Chop mid-way through a histogram entry's quantiles.
        let cut = full.get(..full.len() - 6).unwrap_or(&[]);
        assert!(matches!(
            decode_admin_reply_body(cut),
            Err(WireError::Truncated { .. })
        ));
        // Chop inside the first counter's value (past the count guard:
        // header 18 bytes + enough remaining to cover the declared
        // minimum, but the first entry's u64 is short).
        let cut = full.get(..43).unwrap_or(&[]);
        assert!(matches!(
            decode_admin_reply_body(cut),
            Err(WireError::Truncated { .. })
        ));
        // Chopping right after the count prefix instead trips the
        // cannot-possibly-hold guard before any allocation.
        let cut = full.get(..24).unwrap_or(&[]);
        assert!(matches!(
            decode_admin_reply_body(cut),
            Err(WireError::BadCount { .. })
        ));
    }

    #[test]
    fn stats_count_lies_are_rejected_before_allocation() {
        // A counter count the remaining body cannot hold must be refused
        // by the `count` guard, not trusted into `Vec::with_capacity`.
        let mut body = Vec::new();
        put_u64(&mut body, 30); // id
        put_u8(&mut body, 0); // ok
        put_u8(&mut body, 3); // AdminResponse::Stats
        put_u32(&mut body, 3); // node
        put_u32(&mut body, u32::MAX); // declared counter count: a lie
        assert!(matches!(
            decode_admin_reply_body(&body),
            Err(WireError::BadCount {
                what: "StatsReport::counters",
                ..
            })
        ));
    }

    #[test]
    fn stats_trailing_bytes_are_rejected() {
        let mut body = admin_request_body(30, AdminOp::StatsSnapshot);
        body.push(0xEE);
        assert_eq!(
            decode_admin_request_body(&body),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
        let mut body = admin_reply_body(30, AdminResponse::Stats(sample_stats()));
        body.push(0xEE);
        assert_eq!(
            decode_admin_reply_body(&body),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn stats_hostile_names_decode_lossily() {
        // A name that is not UTF-8 must not fail decoding — it decodes
        // to replacement characters and the rest of the report survives.
        let mut body = Vec::new();
        put_u64(&mut body, 30);
        put_u8(&mut body, 0); // ok
        put_u8(&mut body, 3); // Stats
        put_u32(&mut body, 1); // node
        put_u32(&mut body, 1); // one counter
        put_bytes(&mut body, &[0xFF, 0xFE, 0x41]); // invalid UTF-8 + 'A'
        put_u64(&mut body, 9);
        put_u32(&mut body, 0); // no gauges
        put_u32(&mut body, 0); // no histograms
        let (id, result) = decode_admin_reply_body(&body).expect("lossy name decodes");
        assert_eq!(id, 30);
        let Ok(AdminResponse::Stats(report)) = result else {
            panic!("expected stats reply");
        };
        assert_eq!(report.counters.len(), 1);
        assert_eq!(report.counters[0].value, 9);
        assert!(report.counters[0].name.ends_with('A'));
    }

    #[test]
    fn stats_encode_into_is_byte_identical() {
        let msg = Message::AdminReply {
            id: 30,
            result: Ok(AdminResponse::Stats(sample_stats())),
        };
        let mut buf = vec![0xAA];
        encode_message_into(&msg, &mut buf);
        let one = encode_message(&msg);
        assert_eq!(&buf[1..], &one[..]);
    }
}
