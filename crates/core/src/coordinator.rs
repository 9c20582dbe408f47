//! The coordinator side of the storage register: Algorithms 1 and 3 as a
//! sans-io state machine.
//!
//! Any process can coordinate any operation (§4.1); a [`Coordinator`] runs
//! alongside a replica on every brick. Each operation advances through
//! messaging *phases*; a phase broadcasts one request to all n processes,
//! retransmits it until an m-quorum of distinct replies arrives (the
//! non-blocking `quorum()` primitive over fair-loss channels, §2.2), and
//! then evaluates the pseudocode's condition on the reply set.
//!
//! Operation flow:
//!
//! ```text
//! read-stripe:  FastRead ──(miss)──▶ RecoverOrderRead ──▶ StoreStripe
//! write-stripe: Order ──▶ StoreStripe
//! read-block:   FastRead{j} ──(miss)──▶ RecoverOrderRead ──▶ StoreStripe
//! write-block:  FastWriteOrderRead ──▶ FastWriteModify
//!                      └──(either fails)──▶ RecoverOrderRead ──▶ StoreStripe
//! ```
//!
//! A coordinator's in-flight operations are *volatile*: a crash erases
//! them, which is precisely how partial writes arise. The next read's
//! recovery decides their fate — roll forward if ≥ m blocks of the partial
//! version survive in the logs, roll back otherwise (§4.1.2) — giving the
//! strict-linearizability guarantee that a partial write appears to take
//! effect before the crash or not at all.

use crate::client::{block_index, ClientOp};
use crate::config::{GcPolicy, RegisterConfig, WriteStrategy};
use crate::effects::{sample_processes, Effects};
use crate::error::ProtocolError;
use crate::obs::OpMetrics;
use crate::messages::{
    BlockTarget, BlockUpdate, Envelope, ModifyPayload, Payload, Reply, Request, StripeId,
};
use crate::trace::{OpTrace, TraceEvent};
use crate::value::{BlockValue, StripeValue};
use bytes::Bytes;
use fab_erasure::Share;
use fab_quorum::QuorumTracker;
use fab_timestamp::{ProcessId, Timestamp, TimestampGenerator};
// BTreeMap, not HashMap: coordinator state is iterated by the simulator's
// deterministic replay machinery, and hash-order iteration would make runs
// seed-irreproducible (xtask lint `determinism`).
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Identifies one operation at one coordinator.
pub type OpId = u64;

/// Why an operation aborted (returned the paper's `⊥`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AbortReason {
    /// A replica refused the operation's timestamp: a conflicting
    /// operation with a newer timestamp is in progress or completed.
    Conflict,
    /// Recovery exhausted its iteration budget (only possible when more
    /// than f processes misbehave, outside the fault model).
    RecoveryExhausted,
    /// An internal invariant was violated and the operation could not
    /// continue safely; details are available via
    /// [`Coordinator::take_protocol_errors`]. Never occurs under the fault
    /// model — it indicates a local bug or >f misbehaving processes.
    Internal,
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::Conflict => write!(f, "conflicting operation with newer timestamp"),
            AbortReason::RecoveryExhausted => write!(f, "recovery iteration budget exhausted"),
            AbortReason::Internal => write!(f, "internal invariant violation"),
        }
    }
}

/// The value an operation completed with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// `read-stripe` succeeded.
    Stripe(StripeValue),
    /// `read-block` succeeded (`Nil` reads as zeros).
    Block(BlockValue),
    /// `read-blocks` succeeded: one value per requested index, in request
    /// order (`Nil` reads as zeros).
    Blocks(Vec<BlockValue>),
    /// `write-stripe` / `write-block` succeeded.
    Written,
    /// The operation aborted (the paper's `⊥`). Aborted writes may or may
    /// not have taken effect (§3).
    Aborted(AbortReason),
}

impl OpResult {
    /// Returns `true` unless the operation aborted.
    pub fn is_ok(&self) -> bool {
        !matches!(self, OpResult::Aborted(_))
    }
}

/// A finished operation, as reported to the driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The operation.
    pub op: OpId,
    /// The stripe register it addressed.
    pub stripe: StripeId,
    /// Outcome.
    pub result: OpResult,
    /// Tick at which the operation was invoked.
    pub invoked_at: u64,
    /// Tick at which it completed.
    pub completed_at: u64,
    /// Whether the slow path (recovery) ran.
    pub recovered: bool,
}

/// Errors rejecting an invocation before any messaging happens.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InvokeError {
    /// `write-stripe` needs exactly m blocks.
    WrongBlockCount {
        /// Required count (m).
        expected: usize,
        /// Supplied count.
        actual: usize,
    },
    /// Every block must be exactly `block_size` bytes.
    WrongBlockSize {
        /// Required size.
        expected: usize,
        /// Supplied size.
        actual: usize,
    },
    /// `read-block`/`write-block` address data blocks `0..m` only.
    BlockOutOfRange {
        /// The offending index.
        index: usize,
        /// Exclusive bound (m).
        bound: usize,
    },
}

impl fmt::Display for InvokeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvokeError::WrongBlockCount { expected, actual } => {
                write!(f, "write-stripe needs {expected} blocks, got {actual}")
            }
            InvokeError::WrongBlockSize { expected, actual } => {
                write!(f, "blocks must be {expected} bytes, got {actual}")
            }
            InvokeError::BlockOutOfRange { index, bound } => {
                write!(f, "block index {index} out of range 0..{bound}")
            }
        }
    }
}

impl Error for InvokeError {}

/// What the client asked for.
#[derive(Debug, Clone)]
enum OpKind {
    ReadStripe,
    WriteStripe {
        blocks: Vec<Bytes>,
    },
    /// Reads of one or more data blocks (single-block ops are the
    /// `len == 1` case; footnote 2 covers the general form).
    ReadBlocks {
        js: Vec<usize>,
        single: bool,
    },
    /// Writes of one or more data blocks.
    WriteBlocks {
        updates: Vec<(usize, Bytes)>,
    },
    /// Maintenance: recover the current value and write it back at a fresh
    /// timestamp, bringing every reachable replica (not just a quorum)
    /// up to date. Used after brick recovery or replacement.
    Scrub,
}

/// The current messaging phase of an operation.
#[derive(Debug, Clone)]
enum Phase {
    /// Alg. 1 `fast-read-stripe` / Alg. 3 `read-block` first round.
    FastRead { targets: Vec<ProcessId> },
    /// Alg. 1 `write-stripe` first round.
    Order,
    /// Alg. 1 `read-prev-stripe`: one `Order&Read(ALL, bound, ts)` round.
    RecoverOrderRead { bound: Timestamp, iteration: usize },
    /// Alg. 1 `store-stripe`: the `Write` round.
    StoreStripe { value: StripeValue },
    /// Alg. 3 `fast-write-block` first round (`Order&Read(j, HighTS, ts)`).
    FastWriteOrderRead,
    /// Alg. 3 `fast-write-block` second round.
    FastWriteModify,
}

/// One in-flight operation.
#[derive(Debug)]
struct Op {
    id: OpId,
    stripe: StripeId,
    kind: OpKind,
    invoked_at: u64,
    /// The operation timestamp, once `newTS()` has been called.
    ts: Option<Timestamp>,
    phase: Phase,
    round: u64,
    /// Per-destination requests of the current phase (index = pid).
    outgoing: Vec<Request>,
    tracker: QuorumTracker,
    /// First reply per process for the current round (index = pid).
    replies: Vec<Option<Reply>>,
    retransmit_timer: Option<u64>,
    grace_timer: Option<u64>,
    grace_expired: bool,
    recovered: bool,
    /// When the op first entered its final store phase (`StoreStripe` /
    /// `FastWriteModify`) — the order/store latency split for metrics.
    order_done_at: Option<u64>,
    /// Quorum rounds this op has run (1 = still in its first phase).
    rounds_used: u64,
}

/// The per-brick operation coordinator.
///
/// See the [module docs](self) for the operation flow. Drivers call
/// [`Coordinator::invoke`] to start operations, feed network input through
/// [`Coordinator::on_reply`] and [`Coordinator::on_timer`], and collect
/// results with [`Coordinator::drain_completions`].
#[derive(Debug)]
pub struct Coordinator {
    pid: ProcessId,
    cfg: Arc<RegisterConfig>,
    ts_gen: TimestampGenerator,
    next_op: OpId,
    next_round: u64,
    ops: BTreeMap<OpId, Op>,
    /// Active round → operation (stale rounds are absent).
    rounds: BTreeMap<u64, OpId>,
    timers: BTreeMap<u64, OpId>,
    grace_timers: BTreeMap<u64, OpId>,
    completions: Vec<Completion>,
    tracing: bool,
    traces: BTreeMap<OpId, OpTrace>,
    finished_traces: Vec<OpTrace>,
    /// Invariant violations survived instead of panicked; drained by
    /// [`Coordinator::take_protocol_errors`].
    errors: Vec<ProtocolError>,
    /// Optional op-lifecycle instruments, recorded at the single
    /// completion site so every driver gets identical semantics.
    metrics: Option<Arc<OpMetrics>>,
}

impl Coordinator {
    /// Creates a coordinator hosted on `pid`.
    pub fn new(pid: ProcessId, cfg: Arc<RegisterConfig>) -> Self {
        Coordinator {
            pid,
            ts_gen: TimestampGenerator::new(pid),
            cfg,
            next_op: 0,
            next_round: 0,
            ops: BTreeMap::new(),
            rounds: BTreeMap::new(),
            timers: BTreeMap::new(),
            grace_timers: BTreeMap::new(),
            completions: Vec::new(),
            tracing: false,
            traces: BTreeMap::new(),
            finished_traces: Vec::new(),
            errors: Vec::new(),
            metrics: None,
        }
    }

    /// Records an invariant violation instead of panicking (see
    /// [`ProtocolError`]). In debug builds the violation is also visible to
    /// the driver immediately via [`Coordinator::take_protocol_errors`];
    /// the simulation harness checks this after every run.
    fn record_error(&mut self, err: ProtocolError) {
        self.errors.push(err);
    }

    /// Drains invariant violations recorded since the last call. Under the
    /// fault model this is always empty; drivers and tests should treat a
    /// non-empty result as a bug report.
    pub fn take_protocol_errors(&mut self) -> Vec<ProtocolError> {
        std::mem::take(&mut self.errors)
    }

    /// Installs op-lifecycle instruments (see [`OpMetrics`]). Recording
    /// happens at the coordinator's single completion site and never
    /// feeds back into protocol behavior, so a simulation's fingerprint
    /// is bit-identical with metrics installed or not.
    pub fn set_metrics(&mut self, metrics: Arc<OpMetrics>) {
        self.metrics = Some(metrics);
    }

    /// Enables or disables per-operation tracing. Traces of finished
    /// operations are collected until [`Coordinator::take_traces`] drains
    /// them.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracing = enabled;
    }

    /// Drains the traces of operations completed since the last call.
    pub fn take_traces(&mut self) -> Vec<OpTrace> {
        std::mem::take(&mut self.finished_traces)
    }

    fn trace(&mut self, op_id: OpId, at: u64, event: TraceEvent) {
        if !self.tracing {
            return;
        }
        if let Some(t) = self.traces.get_mut(&op_id) {
            t.push(at, event);
        }
    }

    /// Creates a coordinator whose `newTS` clock is skewed by `skew` ticks
    /// (for the §3 abort-rate experiments).
    pub fn with_skew(pid: ProcessId, cfg: Arc<RegisterConfig>, skew: i64) -> Self {
        Coordinator {
            ts_gen: TimestampGenerator::with_skew(pid, skew),
            ..Coordinator::new(pid, cfg)
        }
    }

    /// The hosting process.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Number of in-flight operations.
    pub fn in_flight(&self) -> usize {
        self.ops.len()
    }

    /// Takes all completions recorded since the last call.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Models a coordinator crash: every in-flight operation is lost
    /// (in-flight state is volatile), leaving partial writes behind for
    /// the next read's recovery to resolve.
    pub fn on_crash(&mut self) {
        self.ops.clear();
        self.rounds.clear();
        self.timers.clear();
        self.grace_timers.clear();
        self.completions.clear();
        self.traces.clear();
        self.finished_traces.clear();
        self.errors.clear();
    }

    // ------------------------------------------------------------------
    // Invocations (Alg. 1 lines 1–23, Alg. 3 lines 61–87)
    // ------------------------------------------------------------------

    /// Starts `op` — the single entry point of the register's client
    /// interface, and the only dispatch on [`ClientOp`]'s variants outside
    /// the wire codec.
    ///
    /// # Errors
    ///
    /// Rejects, before any messaging, a stripe that is not exactly m blocks
    /// of `block_size` bytes, block indices outside `0..m`, an empty or
    /// repeated index set (unsorted, for reads), and blocks of the wrong
    /// size.
    pub fn invoke(&mut self, fx: &mut dyn Effects, op: ClientOp) -> Result<OpId, InvokeError> {
        match op {
            ClientOp::ReadStripe { stripe } => Ok(self.start_read_stripe(fx, stripe)),
            ClientOp::WriteStripe { stripe, blocks } => self.start_write_stripe(fx, stripe, blocks),
            ClientOp::ReadBlock { stripe, j } => {
                self.start_read_blocks(fx, stripe, vec![block_index(j)], true)
            }
            ClientOp::WriteBlock { stripe, j, block } => {
                self.start_write_blocks(fx, stripe, vec![(block_index(j), block)])
            }
            ClientOp::ReadBlocks { stripe, js } => {
                let js = js.into_iter().map(block_index).collect();
                self.start_read_blocks(fx, stripe, js, false)
            }
            ClientOp::WriteBlocks { stripe, updates } => {
                let updates = updates
                    .into_iter()
                    .map(|(j, b)| (block_index(j), b))
                    .collect();
                self.start_write_blocks(fx, stripe, updates)
            }
            // A scrub is a forced recovery pass: it reads the current
            // version and writes it back at a fresh timestamp to all n
            // processes, so replicas that missed writes (a recovered or
            // replacement brick) hold the current version again and fast
            // reads through them work.
            ClientOp::Scrub { stripe } => Ok(self.start_recovery_read(fx, stripe, OpKind::Scrub)),
        }
    }

    /// `read-stripe` (Alg. 1 line 1).
    fn start_read_stripe(&mut self, fx: &mut dyn Effects, stripe: StripeId) -> OpId {
        if !self.cfg.enable_fast_read {
            return self.start_recovery_read(fx, stripe, OpKind::ReadStripe);
        }
        let targets = sample_processes(fx, self.cfg.n(), self.cfg.m());
        let kind = OpKind::ReadStripe;
        let phase = Phase::FastRead {
            targets: targets.clone(),
        };
        let outgoing = vec![Request::Read { targets }; self.cfg.n()];
        self.start_op(fx, stripe, kind, None, phase, outgoing, false)
    }

    /// Starts an operation on the recovery path: a scrub, or a read when
    /// the fast path is disabled for ablation. Either way it counts as
    /// recovered.
    fn start_recovery_read(
        &mut self,
        fx: &mut dyn Effects,
        stripe: StripeId,
        kind: OpKind,
    ) -> OpId {
        let ts = self.ts_gen.next(fx.now());
        let outgoing = vec![
            Request::OrderRead {
                target: BlockTarget::All,
                below: Timestamp::HIGH,
                ts,
            };
            self.cfg.n()
        ];
        self.start_op(
            fx,
            stripe,
            kind,
            Some(ts),
            Phase::RecoverOrderRead {
                bound: Timestamp::HIGH,
                iteration: 0,
            },
            outgoing,
            true,
        )
    }

    /// `write-stripe` (Alg. 1 line 12).
    fn start_write_stripe(
        &mut self,
        fx: &mut dyn Effects,
        stripe: StripeId,
        blocks: Vec<Bytes>,
    ) -> Result<OpId, InvokeError> {
        if blocks.len() != self.cfg.m() {
            return Err(InvokeError::WrongBlockCount {
                expected: self.cfg.m(),
                actual: blocks.len(),
            });
        }
        for b in &blocks {
            if b.len() != self.cfg.block_size() {
                return Err(InvokeError::WrongBlockSize {
                    expected: self.cfg.block_size(),
                    actual: b.len(),
                });
            }
        }
        let ts = self.ts_gen.next(fx.now());
        let outgoing = vec![Request::Order { ts }; self.cfg.n()];
        Ok(self.start_op(
            fx,
            stripe,
            OpKind::WriteStripe { blocks },
            Some(ts),
            Phase::Order,
            outgoing,
            false,
        ))
    }

    /// `read-block` (Alg. 3 line 61) and its footnote-2 multi-block form:
    /// the listed data blocks as of one consistent version.
    fn start_read_blocks(
        &mut self,
        fx: &mut dyn Effects,
        stripe: StripeId,
        js: Vec<usize>,
        single: bool,
    ) -> Result<OpId, InvokeError> {
        validate_block_set(&js, self.cfg.m())?;
        if !self.cfg.enable_fast_read {
            return Ok(self.start_recovery_read(fx, stripe, OpKind::ReadBlocks { js, single }));
        }
        let targets: Vec<ProcessId> = js.iter().map(|&j| ProcessId::new(j as u32)).collect();
        let outgoing = vec![
            Request::Read {
                targets: targets.clone(),
            };
            self.cfg.n()
        ];
        Ok(self.start_op(
            fx,
            stripe,
            OpKind::ReadBlocks { js, single },
            None,
            Phase::FastRead { targets },
            outgoing,
            false,
        ))
    }

    /// `write-block` (Alg. 3 line 70) and its footnote-2 multi-block form:
    /// the listed data blocks written atomically as one register operation.
    fn start_write_blocks(
        &mut self,
        fx: &mut dyn Effects,
        stripe: StripeId,
        mut updates: Vec<(usize, Bytes)>,
    ) -> Result<OpId, InvokeError> {
        updates.sort_by_key(|(j, _)| *j);
        let js: Vec<usize> = updates.iter().map(|(j, _)| *j).collect();
        validate_block_set(&js, self.cfg.m())?;
        for (_, block) in &updates {
            if block.len() != self.cfg.block_size() {
                return Err(InvokeError::WrongBlockSize {
                    expected: self.cfg.block_size(),
                    actual: block.len(),
                });
            }
        }
        let ts = self.ts_gen.next(fx.now());
        let target = if js.len() == 1 {
            BlockTarget::One(ProcessId::new(js[0] as u32))
        } else {
            BlockTarget::Many(js.iter().map(|&j| ProcessId::new(j as u32)).collect())
        };
        let outgoing = vec![
            Request::OrderRead {
                target,
                below: Timestamp::HIGH,
                ts,
            };
            self.cfg.n()
        ];
        Ok(self.start_op(
            fx,
            stripe,
            OpKind::WriteBlocks { updates },
            Some(ts),
            Phase::FastWriteOrderRead,
            outgoing,
            false,
        ))
    }

    #[allow(clippy::too_many_arguments)] // internal constructor mirroring the Op record
    fn start_op(
        &mut self,
        fx: &mut dyn Effects,
        stripe: StripeId,
        kind: OpKind,
        ts: Option<Timestamp>,
        phase: Phase,
        outgoing: Vec<Request>,
        recovered: bool,
    ) -> OpId {
        self.next_op += 1;
        let id = self.next_op;
        self.next_round += 1;
        let round = self.next_round;
        let mut op = Op {
            id,
            stripe,
            kind,
            invoked_at: fx.now(),
            ts,
            phase,
            round,
            outgoing,
            tracker: QuorumTracker::new(self.cfg.quorum()),
            replies: vec![None; self.cfg.n()],
            retransmit_timer: None,
            grace_timer: None,
            grace_expired: false,
            recovered,
            order_done_at: None,
            rounds_used: 1,
        };
        self.rounds.insert(round, id);
        if self.tracing {
            let mut trace = OpTrace::new(id, stripe);
            trace.push(
                fx.now(),
                TraceEvent::Invoked {
                    kind: kind_label(&op.kind),
                },
            );
            if let Some(ts) = ts {
                trace.push(fx.now(), TraceEvent::TimestampAssigned { ts });
            }
            trace.push(
                fx.now(),
                TraceEvent::PhaseEntered {
                    phase: phase_label(&op.phase),
                    round,
                },
            );
            self.traces.insert(id, trace);
        }
        broadcast(fx, &op, None);
        let timer = fx.set_timer(self.cfg.retransmit_interval);
        op.retransmit_timer = Some(timer);
        self.timers.insert(timer, id);
        self.ops.insert(id, op);
        id
    }

    // ------------------------------------------------------------------
    // Input events
    // ------------------------------------------------------------------

    /// Feeds a reply envelope received from `from`. Envelopes whose round
    /// is not an operation's *current* round are stale and ignored.
    pub fn on_reply(&mut self, fx: &mut dyn Effects, from: ProcessId, env: &Envelope) {
        let Payload::Reply(reply) = &env.kind else {
            debug_assert!(false, "on_reply fed a request");
            return;
        };
        let Some(&op_id) = self.rounds.get(&env.round) else {
            return; // stale round
        };
        let Some(op) = self.ops.get_mut(&op_id) else {
            // `rounds` and `ops` are updated together; a round pointing at a
            // dead op is an internal invariant violation, not a peer error.
            self.record_error(ProtocolError::UnknownOp(op_id));
            return;
        };
        debug_assert_eq!(op.round, env.round);
        let Some(slot) = op.replies.get_mut(from.index()) else {
            return; // alien sender outside 0..n
        };
        if slot.is_some() {
            return; // duplicate reply
        }
        let status = reply.status();
        *slot = Some(reply.clone());
        op.tracker.record(from);
        self.trace(op_id, fx.now(), TraceEvent::Reply { from, status });
        self.progress(fx, op_id);
    }

    /// Feeds a fired timer. Returns `true` if the timer belonged to this
    /// coordinator.
    pub fn on_timer(&mut self, fx: &mut dyn Effects, timer: u64) -> bool {
        if let Some(op_id) = self.timers.remove(&timer) {
            if let Some(op) = self.ops.get_mut(&op_id) {
                // Retransmit the current phase to processes yet to reply.
                broadcast(fx, op, Some(&op.tracker.clone()));
                let t = fx.set_timer(self.cfg.retransmit_interval);
                op.retransmit_timer = Some(t);
                self.timers.insert(t, op_id);
                self.trace(op_id, fx.now(), TraceEvent::Retransmitted);
            }
            return true;
        }
        if let Some(op_id) = self.grace_timers.remove(&timer) {
            if let Some(op) = self.ops.get_mut(&op_id) {
                op.grace_timer = None;
                op.grace_expired = true;
                self.progress(fx, op_id);
            }
            return true;
        }
        false
    }

    // ------------------------------------------------------------------
    // Phase progression
    // ------------------------------------------------------------------

    fn progress(&mut self, fx: &mut dyn Effects, op_id: OpId) {
        let Some(op) = self.ops.get_mut(&op_id) else {
            self.record_error(ProtocolError::UnknownOp(op_id));
            return;
        };
        if !op.tracker.is_complete() {
            return; // quorum() has not returned yet
        }
        match op.phase.clone() {
            Phase::FastRead { targets } => self.progress_fast_read(fx, op_id, &targets),
            Phase::Order => self.progress_order(fx, op_id),
            Phase::RecoverOrderRead { bound, iteration } => {
                self.progress_recover(fx, op_id, bound, iteration);
            }
            Phase::StoreStripe { value } => self.progress_store(fx, op_id, value),
            Phase::FastWriteOrderRead => self.progress_fast_write_order(fx, op_id),
            Phase::FastWriteModify => self.progress_fast_write_modify(fx, op_id),
        }
    }

    /// Alg. 1 lines 5–11 / Alg. 3 lines 61–69, success test of the fast
    /// (single-round) read.
    fn progress_fast_read(&mut self, fx: &mut dyn Effects, op_id: OpId, targets: &[ProcessId]) {
        let Some(op) = self.ops.get_mut(&op_id) else {
            self.record_error(ProtocolError::UnknownOp(op_id));
            return;
        };
        let received: Vec<(usize, &Reply)> = op
            .replies
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|r| (i, r)))
            .collect();

        // Conditions that no further reply can repair: a false status or
        // disagreeing val-ts among the quorum already collected.
        let any_false = received.iter().any(|(_, r)| !r.status());
        let mut val_ts: Option<Timestamp> = None;
        let mut ts_mismatch = false;
        for (_, r) in &received {
            if let Reply::ReadR { val_ts: t, .. } = r {
                match val_ts {
                    None => val_ts = Some(*t),
                    Some(prev) if prev != *t => ts_mismatch = true,
                    _ => {}
                }
            }
        }
        if any_false || ts_mismatch {
            self.begin_recovery(fx, op_id, false);
            return;
        }

        let all_targets_replied = targets
            .iter()
            .all(|t| matches!(op.replies.get(t.index()), Some(Some(_))));
        if !all_targets_replied {
            if op.grace_expired {
                self.begin_recovery(fx, op_id, false);
            } else if op.grace_timer.is_none() {
                // Give the targets one grace period beyond the quorum.
                let t = fx.set_timer(self.cfg.fast_grace);
                op.grace_timer = Some(t);
                self.grace_timers.insert(t, op_id);
            }
            return;
        }

        // Success: all statuses true, val-ts agree, targets all answered.
        let block_of = |pid: &ProcessId| -> Option<BlockValue> {
            match op.replies.get(pid.index()).and_then(|r| r.as_ref()) {
                Some(Reply::ReadR { block, .. }) => block.clone(),
                _ => None,
            }
        };
        match &op.kind {
            OpKind::ReadBlocks { single, .. } => {
                let single = *single;
                let mut out = Vec::with_capacity(targets.len());
                for t in targets {
                    match block_of(t) {
                        Some(b) => out.push(b),
                        None => {
                            self.begin_recovery(fx, op_id, false);
                            return;
                        }
                    }
                }
                let result = if single {
                    // A single-block read has exactly one (validated) target.
                    let Some(b) = out.pop() else {
                        self.record_error(ProtocolError::Invariant(
                            "single-block read with an empty target set",
                        ));
                        self.complete(fx, op_id, OpResult::Aborted(AbortReason::Internal));
                        return;
                    };
                    OpResult::Block(b)
                } else {
                    OpResult::Blocks(out)
                };
                self.complete(fx, op_id, result);
            }
            OpKind::ReadStripe => {
                let mut blocks = Vec::with_capacity(targets.len());
                for t in targets {
                    match block_of(t) {
                        Some(b) => blocks.push((t.index(), b)),
                        None => {
                            self.begin_recovery(fx, op_id, false);
                            return;
                        }
                    }
                }
                match assemble_stripe(&self.cfg, &blocks) {
                    Some(value) => self.complete(fx, op_id, OpResult::Stripe(value)),
                    None => self.begin_recovery(fx, op_id, false),
                }
            }
            _ => {
                // FastRead only runs for read operations; a write landing
                // here is an internal phase/kind mismatch.
                self.record_error(ProtocolError::PhaseKindMismatch {
                    op: op_id,
                    expected: "a read operation in FastRead",
                });
                self.complete(fx, op_id, OpResult::Aborted(AbortReason::Internal));
            }
        }
    }

    /// Alg. 1 lines 14–15: the `Order` round of `write-stripe`.
    fn progress_order(&mut self, fx: &mut dyn Effects, op_id: OpId) {
        if self.any_false(op_id) {
            self.observe_conflict(op_id);
            self.complete(fx, op_id, OpResult::Aborted(AbortReason::Conflict));
            return;
        }
        let Some(op) = self.ops.get_mut(&op_id) else {
            self.record_error(ProtocolError::UnknownOp(op_id));
            return;
        };
        let OpKind::WriteStripe { blocks } = &op.kind else {
            self.record_error(ProtocolError::PhaseKindMismatch {
                op: op_id,
                expected: "write-stripe in Order",
            });
            self.complete(fx, op_id, OpResult::Aborted(AbortReason::Internal));
            return;
        };
        let value = StripeValue::Data(blocks.clone());
        self.enter_store_phase(fx, op_id, value);
    }

    /// Alg. 1 lines 24–33: one iteration of `read-prev-stripe`.
    fn progress_recover(
        &mut self,
        fx: &mut dyn Effects,
        op_id: OpId,
        bound: Timestamp,
        iteration: usize,
    ) {
        if self.any_false(op_id) {
            self.observe_conflict(op_id);
            self.complete(fx, op_id, OpResult::Aborted(AbortReason::Conflict));
            return;
        }
        let Some(op) = self.ops.get_mut(&op_id) else {
            self.record_error(ProtocolError::UnknownOp(op_id));
            return;
        };
        // max ← the highest timestamp in replies (Alg. 1 line 30).
        let mut max = Timestamp::LOW;
        for r in op.replies.iter().flatten() {
            if let Reply::OrderReadR { lts, .. } = r {
                max = max.max(*lts);
            }
        }
        // blocks ← the blocks in replies with timestamp max (line 31).
        let mut blocks: Vec<(usize, BlockValue)> = Vec::new();
        for (i, r) in op.replies.iter().enumerate() {
            if let Some(Reply::OrderReadR {
                lts,
                block: Some(b),
                ..
            }) = r
            {
                if *lts == max {
                    blocks.push((i, b.clone()));
                }
            }
        }
        if blocks.len() >= self.cfg.m() {
            match assemble_stripe(&self.cfg, &blocks) {
                Some(mut value) => {
                    // A scrub that recovers an untouched register — no reply
                    // carried a real version, so `max` never left LowTS and
                    // the assembled value is nil — completes as a clean no-op
                    // instead of running store-stripe: writing a synthetic
                    // nil at a fresh timestamp would manufacture history for
                    // a stripe nobody ever wrote, and a full-brick rebuild
                    // visits many such stripes.
                    if matches!(op.kind, OpKind::Scrub)
                        && max == Timestamp::LOW
                        && matches!(value, StripeValue::Nil)
                    {
                        self.complete(fx, op_id, OpResult::Stripe(StripeValue::Nil));
                        return;
                    }
                    // slow-write-block grafts the new blocks onto the
                    // recovered stripe (Alg. 3 lines 84–87).
                    if let OpKind::WriteBlocks { updates, .. } = &op.kind {
                        let mut data = value.materialize(self.cfg.m(), self.cfg.block_size());
                        for (j, block) in updates {
                            // `j < m` was validated at invocation; a stale
                            // index is silently skipped rather than panicking.
                            if let Some(slot) = data.get_mut(*j) {
                                *slot = block.clone();
                            }
                        }
                        value = StripeValue::Data(data);
                    }
                    self.enter_store_phase(fx, op_id, value);
                }
                None => {
                    self.complete(fx, op_id, OpResult::Aborted(AbortReason::RecoveryExhausted));
                }
            }
            return;
        }
        // Not enough blocks at `max`: iterate downward (line 26 repeat).
        if iteration + 1 > self.cfg.max_recovery_iterations || max >= bound {
            self.complete(fx, op_id, OpResult::Aborted(AbortReason::RecoveryExhausted));
            return;
        }
        let Some(ts) = op.ts else {
            // Every recovery pass assigns a timestamp on entry
            // (`begin_recovery`, `start_recovery_read`).
            self.record_error(ProtocolError::MissingTimestamp(op_id));
            self.complete(fx, op_id, OpResult::Aborted(AbortReason::Internal));
            return;
        };
        let outgoing = vec![
            Request::OrderRead {
                target: BlockTarget::All,
                below: max,
                ts,
            };
            self.cfg.n()
        ];
        self.restart_phase(
            fx,
            op_id,
            Phase::RecoverOrderRead {
                bound: max,
                iteration: iteration + 1,
            },
            outgoing,
        );
    }

    /// Alg. 1 lines 34–37: the `Write` round of `store-stripe`.
    fn progress_store(&mut self, fx: &mut dyn Effects, op_id: OpId, value: StripeValue) {
        if self.any_false(op_id) {
            self.observe_conflict(op_id);
            self.complete(fx, op_id, OpResult::Aborted(AbortReason::Conflict));
            return;
        }
        // All statuses true over an m-quorum: the write is complete.
        let Some(op) = self.ops.get(&op_id) else {
            self.record_error(ProtocolError::UnknownOp(op_id));
            return;
        };
        let op_ts = op.ts;
        let result = match &op.kind {
            OpKind::ReadStripe => Some(OpResult::Stripe(value)),
            OpKind::ReadBlocks { js, single } => {
                let mut out: Vec<BlockValue> = js
                    .iter()
                    .map(|&j| stripe_block_value(&value, j, self.cfg.block_size()))
                    .collect();
                if *single {
                    // Exactly one (validated) index for a single-block read.
                    out.pop().map(OpResult::Block)
                } else {
                    Some(OpResult::Blocks(out))
                }
            }
            OpKind::WriteStripe { .. } | OpKind::WriteBlocks { .. } => Some(OpResult::Written),
            OpKind::Scrub => Some(OpResult::Stripe(value)),
        };
        let (Some(ts), Some(result)) = (op_ts, result) else {
            self.record_error(ProtocolError::Invariant(
                "store-stripe without a timestamp or a reportable result",
            ));
            self.complete(fx, op_id, OpResult::Aborted(AbortReason::Internal));
            return;
        };
        self.maybe_gc(fx, op_id, ts);
        self.complete(fx, op_id, result);
    }

    /// Alg. 3 lines 74–79: evaluate the `Order&Read` round of
    /// `fast-write-block` (generalized to a block set).
    fn progress_fast_write_order(&mut self, fx: &mut dyn Effects, op_id: OpId) {
        let Some(op) = self.ops.get_mut(&op_id) else {
            self.record_error(ProtocolError::UnknownOp(op_id));
            return;
        };
        let OpKind::WriteBlocks { updates, .. } = &op.kind else {
            self.record_error(ProtocolError::PhaseKindMismatch {
                op: op_id,
                expected: "a block write in FastWriteOrderRead",
            });
            self.complete(fx, op_id, OpResult::Aborted(AbortReason::Internal));
            return;
        };
        let updates = updates.clone();
        let js: Vec<ProcessId> = updates
            .iter()
            .map(|(j, _)| ProcessId::new(*j as u32))
            .collect();

        if self.any_false(op_id) {
            // Fast write misses; try the slow path with the same ts
            // (Alg. 3 line 72–73).
            self.begin_recovery(fx, op_id, false);
            return;
        }
        let Some(op) = self.ops.get_mut(&op_id) else {
            self.record_error(ProtocolError::UnknownOp(op_id));
            return;
        };
        let op_ts = op.ts;
        // Every written process must have answered with its block.
        let mut olds: Vec<BlockValue> = Vec::with_capacity(js.len());
        let mut ts_js: Vec<Timestamp> = Vec::with_capacity(js.len());
        for j in &js {
            match op.replies.get(j.index()).and_then(|r| r.as_ref()) {
                Some(Reply::OrderReadR {
                    lts,
                    block: Some(old),
                    ..
                }) => {
                    olds.push(old.clone());
                    ts_js.push(*lts);
                }
                _ => {
                    // Missing (or blockless) reply from a written process.
                    if op.grace_expired {
                        self.begin_recovery(fx, op_id, false);
                    } else if op.grace_timer.is_none() {
                        let t = fx.set_timer(self.cfg.fast_grace);
                        op.grace_timer = Some(t);
                        self.grace_timers.insert(t, op_id);
                    }
                    return;
                }
            }
        }
        // The fast path needs one consistent base version across all
        // written blocks; mixed versions mean the stripe is mid-update —
        // recover instead (no Modify has been sent, so the same ts is
        // safe).
        let Some(&ts_j) = ts_js.first() else {
            // js was validated non-empty at invocation.
            self.record_error(ProtocolError::Invariant(
                "block write with an empty target set",
            ));
            self.complete(fx, op_id, OpResult::Aborted(AbortReason::Internal));
            return;
        };
        if ts_js.iter().any(|t| *t != ts_j) {
            self.begin_recovery(fx, op_id, false);
            return;
        }

        // Build per-destination Modify payloads per the write strategy.
        let Some(ts) = op_ts else {
            self.record_error(ProtocolError::MissingTimestamp(op_id));
            self.complete(fx, op_id, OpResult::Aborted(AbortReason::Internal));
            return;
        };
        let n = self.cfg.n();
        let m = self.cfg.m();
        let block_size = self.cfg.block_size();
        let full_updates: Vec<BlockUpdate> = olds
            .iter()
            .zip(&updates)
            .map(|(old, (_, new))| BlockUpdate {
                old: old.clone(),
                new: new.clone(),
            })
            .collect();
        let mut delta_fallbacks = 0usize;
        let mut outgoing = Vec::with_capacity(n);
        for i in 0..n {
            // The new block destined for process i, when i is written.
            let written_new = updates
                .iter()
                .find(|(j, _)| *j == i)
                .map(|(_, new)| new.clone());
            let payload = match self.cfg.write_strategy {
                WriteStrategy::Paper => ModifyPayload::Full {
                    updates: full_updates.clone(),
                },
                WriteStrategy::Targeted => {
                    if let Some(new) = written_new {
                        ModifyPayload::NewValue { new }
                    } else if i >= m {
                        ModifyPayload::Full {
                            updates: full_updates.clone(),
                        }
                    } else {
                        ModifyPayload::Empty
                    }
                }
                WriteStrategy::Delta => {
                    if let Some(new) = written_new {
                        ModifyPayload::NewValue { new }
                    } else if i >= m {
                        // Coded deltas are linear: fold every per-block
                        // contribution straight into one parity patch with
                        // the accumulating (allocation-free) variant — the
                        // seed allocated a fresh delta block per written
                        // block per parity destination.
                        let mut combined = vec![0u8; block_size];
                        let mut ok = true;
                        for (old, (j, new)) in olds.iter().zip(&updates) {
                            let Some(old_bytes) = old.materialize(block_size) else {
                                ok = false; // a ⊥ base has no bytes to diff
                                break;
                            };
                            if self
                                .cfg
                                .codec()
                                .coded_delta_acc(*j, i, &old_bytes, new, &mut combined)
                                .is_err()
                            {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            ModifyPayload::Delta {
                                delta: Bytes::from(combined),
                            }
                        } else {
                            // The full payload is a safe superset of the
                            // delta: the replica recomputes its block from
                            // (old, new) pairs instead of patching.
                            delta_fallbacks += 1;
                            ModifyPayload::Full {
                                updates: full_updates.clone(),
                            }
                        }
                    } else {
                        ModifyPayload::Empty
                    }
                }
            };
            outgoing.push(Request::Modify {
                js: js.clone(),
                ts_j,
                ts,
                payload,
            });
        }
        if delta_fallbacks > 0 {
            self.record_error(ProtocolError::Codec(
                "delta encoding unavailable; fell back to full Modify payloads",
            ));
        }
        self.restart_phase(fx, op_id, Phase::FastWriteModify, outgoing);
    }

    /// Alg. 3 lines 80–82: evaluate the `Modify` round.
    fn progress_fast_write_modify(&mut self, fx: &mut dyn Effects, op_id: OpId) {
        if self.any_false(op_id) {
            // Fall back to slow-write-block with a FRESH timestamp: some
            // replicas may have applied this Modify, and their `[ts, b]`
            // entries would refuse every same-`ts` Order&Read (see
            // `begin_recovery`).
            self.begin_recovery(fx, op_id, true);
            return;
        }
        let Some(ts) = self.ops.get(&op_id).and_then(|op| op.ts) else {
            self.record_error(ProtocolError::MissingTimestamp(op_id));
            self.complete(fx, op_id, OpResult::Aborted(AbortReason::Internal));
            return;
        };
        self.maybe_gc(fx, op_id, ts);
        self.complete(fx, op_id, OpResult::Written);
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    /// Starts the `recover()` flow (Alg. 1 lines 17–23): assign a fresh
    /// timestamp for reads and begin `read-prev-stripe` from `HighTS`.
    ///
    /// `fresh_ts` controls whether a write entering the slow path keeps
    /// its timestamp (Alg. 3 line 73) or mints a new one. The pseudocode
    /// always keeps it, but that is a liveness hole: when a `Modify` round
    /// fails *after applying at some replicas* (e.g. a stale `p_j` that
    /// just recovered applies alone), those appliers hold `[ts, b]` and
    /// will answer `false` to any same-`ts` `Order&Read` forever —
    /// retrying the write can never converge. Minting a fresh timestamp
    /// after a failed `Modify` turns the appliers' residue into an
    /// ordinary partial-write ghost that the recovery scan rolls past,
    /// restoring convergence without weakening the order (the fresh
    /// timestamp still loses to any genuinely newer competitor).
    fn begin_recovery(&mut self, fx: &mut dyn Effects, op_id: OpId, fresh_ts: bool) {
        let now = fx.now();
        let Some(op) = self.ops.get_mut(&op_id) else {
            self.record_error(ProtocolError::UnknownOp(op_id));
            return;
        };
        op.recovered = true;
        let existing_ts = op.ts;
        let ts = match (fresh_ts, existing_ts) {
            (false, Some(ts)) => ts,
            _ => {
                let ts = self.ts_gen.next(now);
                if let Some(op) = self.ops.get_mut(&op_id) {
                    op.ts = Some(ts);
                }
                self.trace(op_id, now, TraceEvent::TimestampAssigned { ts });
                ts
            }
        };
        let outgoing = vec![
            Request::OrderRead {
                target: BlockTarget::All,
                below: Timestamp::HIGH,
                ts,
            };
            self.cfg.n()
        ];
        self.restart_phase(
            fx,
            op_id,
            Phase::RecoverOrderRead {
                bound: Timestamp::HIGH,
                iteration: 0,
            },
            outgoing,
        );
    }

    /// Moves `op` into `StoreStripe { value }`, deriving the per-process
    /// `Write` requests. (Taking the phase's payload directly — rather than
    /// a generic `Phase` — makes the one legal transition the only
    /// expressible one; the seed's `enter_phase` needed an `unreachable!`
    /// arm for every other phase.)
    fn enter_store_phase(&mut self, fx: &mut dyn Effects, op_id: OpId, value: StripeValue) {
        let Some(ts) = self.ops.get(&op_id).and_then(|op| op.ts) else {
            self.record_error(ProtocolError::MissingTimestamp(op_id));
            self.complete(fx, op_id, OpResult::Aborted(AbortReason::Internal));
            return;
        };
        let outgoing = match encode_stripe_writes(&self.cfg, &value, ts) {
            Ok(out) => out,
            Err(err) => {
                self.record_error(err);
                self.complete(fx, op_id, OpResult::Aborted(AbortReason::Internal));
                return;
            }
        };
        self.restart_phase(fx, op_id, Phase::StoreStripe { value }, outgoing);
    }

    /// Resets per-phase reply state, installs a fresh round, broadcasts.
    fn restart_phase(
        &mut self,
        fx: &mut dyn Effects,
        op_id: OpId,
        phase: Phase,
        outgoing: Vec<Request>,
    ) {
        self.next_round += 1;
        let round = self.next_round;
        let Some(op) = self.ops.get_mut(&op_id) else {
            self.record_error(ProtocolError::UnknownOp(op_id));
            return;
        };
        self.rounds.remove(&op.round);
        self.rounds.insert(round, op_id);
        op.round = round;
        op.phase = phase;
        op.rounds_used += 1;
        if op.order_done_at.is_none()
            && matches!(op.phase, Phase::StoreStripe { .. } | Phase::FastWriteModify)
        {
            op.order_done_at = Some(fx.now());
        }
        op.outgoing = outgoing;
        op.tracker = QuorumTracker::new(self.cfg.quorum());
        op.replies = vec![None; self.cfg.n()];
        if let Some(t) = op.grace_timer.take() {
            self.grace_timers.remove(&t);
        }
        op.grace_expired = false;
        let label = phase_label(&op.phase);
        broadcast(fx, op, None);
        self.trace(
            op_id,
            fx.now(),
            TraceEvent::PhaseEntered {
                phase: label,
                round,
            },
        );
    }

    /// Whether any collected reply of the current round has status false.
    fn any_false(&self, op_id: OpId) -> bool {
        self.ops
            .get(&op_id)
            .is_some_and(|op| op.replies.iter().flatten().any(|r| !r.status()))
    }

    /// After a conflict abort, advance our clock past the highest
    /// timestamp the replicas reported so a retry wins (PROGRESS,
    /// Prop. 23).
    fn observe_conflict(&mut self, op_id: OpId) {
        let Some(op) = self.ops.get(&op_id) else {
            return;
        };
        let mut highest = Timestamp::LOW;
        for r in op.replies.iter().flatten() {
            highest = highest.max(r.seen());
        }
        if let Some(ts) = op.ts {
            highest = highest.max(ts);
        }
        self.ts_gen.observe(highest);
    }

    /// Advances this coordinator's `newTS` clock past `ts`. Drivers call
    /// this after recovering replica state from stable storage, so a
    /// restarted process does not mint timestamps below what it already
    /// stored (its pre-crash clock was necessarily ahead of them).
    pub fn observe_timestamp(&mut self, ts: Timestamp) {
        self.ts_gen.observe(ts);
    }

    /// §5.1: after a complete write at `ts`, asynchronously tell everyone
    /// to drop older versions.
    fn maybe_gc(&mut self, fx: &mut dyn Effects, op_id: OpId, ts: Timestamp) {
        if self.cfg.gc != GcPolicy::AfterCompleteWrite {
            return;
        }
        let Some(stripe) = self.ops.get(&op_id).map(|op| op.stripe) else {
            return;
        };
        for i in 0..self.cfg.n() {
            // Coordinator state is volatile by design (§4.1).
            fx.send(
                ProcessId::new(i as u32),
                Envelope {
                    stripe,
                    round: 0, // fire-and-forget: no reply expected
                    kind: Payload::Request(Request::Gc { up_to: ts }),
                },
            );
        }
    }

    fn complete(&mut self, fx: &mut dyn Effects, op_id: OpId, result: OpResult) {
        let Some(op) = self.ops.remove(&op_id) else {
            self.record_error(ProtocolError::UnknownOp(op_id));
            return;
        };
        self.rounds.remove(&op.round);
        if let Some(t) = op.retransmit_timer {
            self.timers.remove(&t);
        }
        if let Some(t) = op.grace_timer {
            self.grace_timers.remove(&t);
        }
        if self.tracing {
            if let Some(mut trace) = self.traces.remove(&op_id) {
                let outcome = match &result {
                    OpResult::Aborted(r) => format!("aborted: {r}"),
                    OpResult::Written => "written".to_string(),
                    OpResult::Stripe(_) | OpResult::Block(_) | OpResult::Blocks(_) => {
                        "read ok".to_string()
                    }
                };
                trace.push(fx.now(), TraceEvent::Completed { outcome });
                self.finished_traces.push(trace);
            }
        }
        if let Some(metrics) = &self.metrics {
            let now = fx.now();
            let latency = now.saturating_sub(op.invoked_at);
            metrics.record_rounds(op.rounds_used);
            match &result {
                OpResult::Aborted(_) => metrics.record_abort(),
                _ => match &op.kind {
                    OpKind::ReadStripe | OpKind::ReadBlocks { .. } => {
                        metrics.record_read(op.recovered, latency);
                    }
                    OpKind::WriteStripe { .. } | OpKind::WriteBlocks { .. } => {
                        let order = op.order_done_at.map(|t| t.saturating_sub(op.invoked_at));
                        let store = op.order_done_at.map(|t| now.saturating_sub(t));
                        metrics.record_write(latency, order, store);
                    }
                    OpKind::Scrub => metrics.record_scrub(),
                },
            }
        }
        self.completions.push(Completion {
            op: op.id,
            stripe: op.stripe,
            result,
            invoked_at: op.invoked_at,
            completed_at: fx.now(),
            recovered: op.recovered,
        });
    }
}

/// Sends the current phase's request to every process (or, when `only_missing`
/// carries the phase tracker, only to processes that have not replied).
fn broadcast(fx: &mut dyn Effects, op: &Op, only_missing: Option<&QuorumTracker>) {
    for (i, req) in op.outgoing.iter().enumerate() {
        let pid = ProcessId::new(i as u32);
        if let Some(tracker) = only_missing {
            if tracker.has_replied(pid) {
                continue;
            }
        }
        // Coordinator state is volatile by design (§4.1); durability lives in
        // the replica logs, so there is nothing to persist before a request.
        fx.send(
            pid,
            Envelope {
                stripe: op.stripe,
                round: op.round,
                kind: Payload::Request(req.clone()),
            },
        );
    }
}

/// A short label for an operation kind (traces).
fn kind_label(kind: &OpKind) -> &'static str {
    match kind {
        OpKind::ReadStripe => "read-stripe",
        OpKind::WriteStripe { .. } => "write-stripe",
        OpKind::ReadBlocks { single: true, .. } => "read-block",
        OpKind::ReadBlocks { .. } => "read-blocks",
        OpKind::WriteBlocks { updates } if updates.len() == 1 => "write-block",
        OpKind::WriteBlocks { .. } => "write-blocks",
        OpKind::Scrub => "scrub",
    }
}

/// A short label for a phase (traces).
fn phase_label(phase: &Phase) -> String {
    match phase {
        Phase::FastRead { .. } => "FastRead".to_string(),
        Phase::Order => "Order".to_string(),
        Phase::RecoverOrderRead { iteration, .. } => {
            format!("RecoverOrderRead#{iteration}")
        }
        Phase::StoreStripe { .. } => "StoreStripe".to_string(),
        Phase::FastWriteOrderRead => "FastWriteOrderRead".to_string(),
        Phase::FastWriteModify => "FastWriteModify".to_string(),
    }
}

/// Validates a block-index set: non-empty, strictly ascending (thus
/// distinct), within `0..m`.
fn validate_block_set(js: &[usize], m: usize) -> Result<(), InvokeError> {
    if js.is_empty() {
        return Err(InvokeError::BlockOutOfRange { index: 0, bound: m });
    }
    for (i, &j) in js.iter().enumerate() {
        if j >= m {
            return Err(InvokeError::BlockOutOfRange { index: j, bound: m });
        }
        if i > 0 && js[i - 1] >= j {
            return Err(InvokeError::BlockOutOfRange { index: j, bound: m });
        }
    }
    Ok(())
}

/// Reconstructs a stripe value from ≥ m `(process-index, block)` pairs that
/// are valid at one version. All-`nil` blocks yield the nil stripe;
/// otherwise the blocks decode through the codec, with `nil` materialized
/// as zeros (a block write onto a fresh stripe leaves its untouched
/// siblings at `nil`, which reads as zeros — encode(zero stripe) is zero
/// everywhere, so the arithmetic is consistent).
fn assemble_stripe(cfg: &RegisterConfig, blocks: &[(usize, BlockValue)]) -> Option<StripeValue> {
    debug_assert!(blocks.len() >= cfg.m());
    if blocks.iter().all(|(_, b)| b.is_nil()) {
        return Some(StripeValue::Nil);
    }
    let mut shares: Vec<(usize, Bytes)> = Vec::with_capacity(cfg.m());
    for (i, b) in blocks {
        match b {
            BlockValue::Data(bytes) => shares.push((*i, bytes.clone())),
            BlockValue::Nil => shares.push((*i, Bytes::from(vec![0u8; cfg.block_size()]))),
            BlockValue::Bottom => continue,
        }
        if shares.len() == cfg.m() {
            break;
        }
    }
    if shares.len() < cfg.m() {
        return None; // ⊥ blocks in an assembled group: outside the fault model
    }
    let share_refs: Vec<Share<'_>> = shares
        .iter()
        .map(|(i, b)| Share::new(*i, b.as_ref()))
        .collect();
    let data = cfg.codec().decode(&share_refs).ok()?;
    Some(StripeValue::Data(
        data.into_iter().map(Bytes::from).collect(),
    ))
}

/// Extracts block `j` of a stripe value as a `BlockValue`.
fn stripe_block_value(value: &StripeValue, j: usize, block_size: usize) -> BlockValue {
    match value {
        StripeValue::Nil => BlockValue::Nil,
        StripeValue::Data(_) => BlockValue::Data(value.block(j, block_size)),
    }
}

/// Encodes a stripe value into per-destination `Write` requests.
///
/// # Errors
///
/// Returns [`ProtocolError::Codec`] when the codec rejects the stripe
/// (wrong block count or size — impossible for invocation-validated input).
fn encode_stripe_writes(
    cfg: &RegisterConfig,
    value: &StripeValue,
    ts: Timestamp,
) -> Result<Vec<Request>, ProtocolError> {
    match value {
        StripeValue::Nil => Ok((0..cfg.n())
            .map(|_| Request::Write {
                block: BlockValue::Nil,
                ts,
            })
            .collect()),
        StripeValue::Data(blocks) => {
            let encoded = cfg
                .codec()
                .encode(blocks)
                .map_err(|_| ProtocolError::Codec("stripe encode rejected validated dimensions"))?;
            Ok(encoded
                .into_iter()
                .map(|b| Request::Write {
                    block: BlockValue::Data(Bytes::from(b)),
                    ts,
                })
                .collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects::mock::MockFx;

    fn cfg(m: usize, n: usize) -> Arc<RegisterConfig> {
        Arc::new(RegisterConfig::new(m, n, 8).unwrap())
    }

    fn stripe0() -> StripeId {
        StripeId(0)
    }

    #[test]
    fn read_stripe_broadcasts_read_to_all() {
        let mut fx = MockFx::default();
        let mut c = Coordinator::new(ProcessId::new(0), cfg(2, 4));
        let _op = c.invoke(&mut fx, ClientOp::read_stripe(stripe0()));
        assert_eq!(fx.sent.len(), 4);
        let mut target_count = 0;
        for (to, env) in &fx.sent {
            assert!(to.index() < 4);
            match &env.kind {
                Payload::Request(Request::Read { targets }) => {
                    assert_eq!(targets.len(), 2, "m targets");
                    if targets.contains(to) {
                        target_count += 1;
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(target_count, 2);
        assert_eq!(c.in_flight(), 1);
    }

    #[test]
    fn write_stripe_validates_input() {
        let mut fx = MockFx::default();
        let mut c = Coordinator::new(ProcessId::new(0), cfg(2, 4));
        let one = vec![Bytes::from(vec![0u8; 8])];
        let err = c
            .invoke(&mut fx, ClientOp::write_stripe(stripe0(), one))
            .unwrap_err();
        assert!(matches!(err, InvokeError::WrongBlockCount { .. }));
        let short = vec![Bytes::from(vec![0u8; 3]), Bytes::from(vec![0u8; 3])];
        let err = c
            .invoke(&mut fx, ClientOp::write_stripe(stripe0(), short))
            .unwrap_err();
        assert!(matches!(err, InvokeError::WrongBlockSize { .. }));
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn block_ops_validate_index() {
        let mut fx = MockFx::default();
        let mut c = Coordinator::new(ProcessId::new(0), cfg(2, 4));
        assert!(matches!(
            c.invoke(&mut fx, ClientOp::read_block(stripe0(), 2)),
            Err(InvokeError::BlockOutOfRange { index: 2, bound: 2 })
        ));
        let block = Bytes::from(vec![0u8; 8]);
        assert!(matches!(
            c.invoke(&mut fx, ClientOp::write_block(stripe0(), 5, block)),
            Err(InvokeError::BlockOutOfRange { .. })
        ));
    }

    #[test]
    fn write_stripe_orders_then_stores() {
        let mut fx = MockFx::default();
        let mut c = Coordinator::new(ProcessId::new(0), cfg(2, 4));
        let blocks = vec![Bytes::from(vec![1u8; 8]), Bytes::from(vec![2u8; 8])];
        let _op = c
            .invoke(&mut fx, ClientOp::write_stripe(stripe0(), blocks))
            .unwrap();
        // Phase 1: Order to all 4.
        assert_eq!(fx.sent.len(), 4);
        let round = match &fx.sent[0].1.kind {
            Payload::Request(Request::Order { .. }) => fx.sent[0].1.round,
            other => panic!("expected Order, got {other:?}"),
        };
        fx.sent.clear();
        // Feed an all-true quorum (size 3 for 2-of-4).
        for i in 0..3u32 {
            c.on_reply(
                &mut fx,
                ProcessId::new(i),
                &Envelope {
                    stripe: stripe0(),
                    round,
                    kind: Payload::Reply(Reply::OrderR {
                        status: true,
                        seen: Timestamp::LOW,
                    }),
                },
            );
        }
        // Phase 2: Write to all 4, carrying distinct encoded blocks.
        assert_eq!(fx.sent.len(), 4);
        let write_round = fx.sent[0].1.round;
        assert_ne!(write_round, round, "fresh round per phase");
        for (to, env) in &fx.sent {
            match &env.kind {
                Payload::Request(Request::Write { block, .. }) => {
                    let b = block.materialize(8).unwrap();
                    if to.index() == 0 {
                        assert_eq!(b.as_ref(), &[1u8; 8]);
                    } else if to.index() == 1 {
                        assert_eq!(b.as_ref(), &[2u8; 8]);
                    }
                }
                other => panic!("expected Write, got {other:?}"),
            }
        }
        fx.sent.clear();
        // All-true Write quorum completes the op (plus async GC to all).
        for i in 0..3u32 {
            c.on_reply(
                &mut fx,
                ProcessId::new(i),
                &Envelope {
                    stripe: stripe0(),
                    round: write_round,
                    kind: Payload::Reply(Reply::WriteR {
                        status: true,
                        seen: Timestamp::LOW,
                    }),
                },
            );
        }
        let done = c.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].result, OpResult::Written);
        assert!(!done[0].recovered);
        assert_eq!(c.in_flight(), 0);
        // Default GC policy broadcast Gc to all n.
        let gcs = fx
            .sent
            .iter()
            .filter(|(_, e)| matches!(e.kind, Payload::Request(Request::Gc { .. })))
            .count();
        assert_eq!(gcs, 4);
    }

    #[test]
    fn order_conflict_aborts() {
        let mut fx = MockFx::default();
        let mut c = Coordinator::new(ProcessId::new(0), cfg(2, 4));
        let blocks = vec![Bytes::from(vec![1u8; 8]), Bytes::from(vec![2u8; 8])];
        c.invoke(&mut fx, ClientOp::write_stripe(stripe0(), blocks))
            .unwrap();
        let round = fx.sent[0].1.round;
        for (i, status) in [(0u32, true), (1, false), (2, true)] {
            c.on_reply(
                &mut fx,
                ProcessId::new(i),
                &Envelope {
                    stripe: stripe0(),
                    round,
                    kind: Payload::Reply(Reply::OrderR {
                        status,
                        seen: Timestamp::LOW,
                    }),
                },
            );
        }
        let done = c.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].result, OpResult::Aborted(AbortReason::Conflict));
    }

    #[test]
    fn stale_and_duplicate_replies_are_ignored() {
        let mut fx = MockFx::default();
        let mut c = Coordinator::new(ProcessId::new(0), cfg(2, 4));
        let blocks = vec![Bytes::from(vec![1u8; 8]), Bytes::from(vec![2u8; 8])];
        c.invoke(&mut fx, ClientOp::write_stripe(stripe0(), blocks))
            .unwrap();
        let round = fx.sent[0].1.round;
        let reply = |status| Envelope {
            stripe: stripe0(),
            round,
            kind: Payload::Reply(Reply::OrderR {
                status,
                seen: Timestamp::LOW,
            }),
        };
        c.on_reply(&mut fx, ProcessId::new(0), &reply(true));
        // Duplicate from p0 with status false must be ignored.
        c.on_reply(&mut fx, ProcessId::new(0), &reply(false));
        // Stale round must be ignored.
        c.on_reply(
            &mut fx,
            ProcessId::new(1),
            &Envelope {
                stripe: stripe0(),
                round: round + 999,
                kind: Payload::Reply(Reply::OrderR {
                    status: false,
                    seen: Timestamp::LOW,
                }),
            },
        );
        c.on_reply(&mut fx, ProcessId::new(1), &reply(true));
        c.on_reply(&mut fx, ProcessId::new(2), &reply(true));
        // Op progressed to the Write phase rather than aborting.
        assert_eq!(c.in_flight(), 1);
        assert!(c.drain_completions().is_empty());
    }

    #[test]
    fn retransmit_timer_resends_to_missing_only() {
        let mut fx = MockFx::default();
        let mut c = Coordinator::new(ProcessId::new(0), cfg(2, 4));
        c.invoke(&mut fx, ClientOp::read_stripe(stripe0())).unwrap();
        let round = fx.sent[0].1.round;
        fx.sent.clear();
        // One reply arrives, then the retransmit timer fires.
        c.on_reply(
            &mut fx,
            ProcessId::new(2),
            &Envelope {
                stripe: stripe0(),
                round,
                kind: Payload::Reply(Reply::ReadR {
                    status: true,
                    val_ts: Timestamp::LOW,
                    block: None,
                }),
            },
        );
        let owned = c.on_timer(&mut fx, 1); // first timer id from MockFx
        assert!(owned);
        let resent: Vec<u32> = fx.sent.iter().map(|(to, _)| to.value()).collect();
        assert_eq!(resent, vec![0, 1, 3], "p2 already replied");
    }

    #[test]
    fn unknown_timer_is_not_ours() {
        let mut fx = MockFx::default();
        let mut c = Coordinator::new(ProcessId::new(0), cfg(2, 4));
        assert!(!c.on_timer(&mut fx, 4242));
    }

    #[test]
    fn coordinator_crash_forgets_in_flight_ops() {
        let mut fx = MockFx::default();
        let mut c = Coordinator::new(ProcessId::new(0), cfg(2, 4));
        c.invoke(&mut fx, ClientOp::read_stripe(stripe0())).unwrap();
        assert_eq!(c.in_flight(), 1);
        c.on_crash();
        assert_eq!(c.in_flight(), 0);
        assert!(c.drain_completions().is_empty());
    }

    #[test]
    fn assemble_stripe_handles_nil_and_data() {
        let cfg = cfg(2, 4);
        let nil = assemble_stripe(&cfg, &[(0, BlockValue::Nil), (3, BlockValue::Nil)]);
        assert_eq!(nil, Some(StripeValue::Nil));

        let stripe: Vec<Vec<u8>> = vec![vec![7u8; 8], vec![9u8; 8]];
        let enc = cfg.codec().encode(&stripe).unwrap();
        let got = assemble_stripe(
            &cfg,
            &[
                (1, BlockValue::Data(Bytes::from(enc[1].clone()))),
                (3, BlockValue::Data(Bytes::from(enc[3].clone()))),
            ],
        )
        .unwrap();
        match got {
            StripeValue::Data(blocks) => {
                assert_eq!(blocks[0].as_ref(), &[7u8; 8]);
                assert_eq!(blocks[1].as_ref(), &[9u8; 8]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
