//! The instrumented brick and its invariant probes.
//!
//! [`TortureBrick`] wraps the unchanged sans-io [`fab_core::Brick`] as a
//! [`fab_simnet::Actor`], observing every replica request/reply pair and
//! every crash to enforce protocol invariants *stronger* than what the
//! end-to-end linearizability check sees:
//!
//! * **ord-ts / max-ts monotonicity** — a replica's persistent `ord-ts`
//!   and `max-ts(log)` never move backwards, across any interleaving of
//!   requests and crash/recovery (the paper's `store(var)` persistence
//!   claim).
//! * **read guard** — a replica never answers `Read` with `status = true`
//!   while `max-ts(log) < ord-ts` (the Figure-5 partial-write guard).
//! * **log-before-send** — a replica never acknowledges `Write`/`Modify`
//!   before the entry at that timestamp is in its log (durability before
//!   acknowledgement).
//! * **quorum-intersection accounting** — every committed write's final
//!   timestamp was acknowledged by at least an m-quorum of replicas
//!   (checked at end of run from the ack ledger; see
//!   [`crate::engine`]).
//!
//! All observations land in a shared [`Journal`]; the probes themselves
//! never alter protocol behavior (the wrapped brick handles every event
//! exactly as the plain simulation driver would).

use crate::plan::OpKind;
use fab_core::{
    Brick, ClientOp, Completion, Envelope, OpId, OpResult, OpTrace, Payload, ProtocolError,
    RegisterConfig, Reply, Request, StripeId,
};
use fab_repair::{plan_brick_rebuild, Action, DriverConfig, RepairDriver, SegmentMap};
use fab_simnet::fault::Backoff;
use fab_simnet::{Actor, Context, TimerId};
use fab_timestamp::{ProcessId, Timestamp};
use fab_volume::{Layout, VolumeGeometry};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;

/// A recorded workload invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Invocation {
    /// Coordinating brick.
    pub pid: u32,
    /// Coordinator-assigned operation id (never reused, survives crashes).
    pub op: u64,
    /// Virtual invocation time.
    pub at: u64,
    /// Target stripe.
    pub stripe: u64,
    /// The operation.
    pub kind: OpKind,
}

/// Everything the torture engine needs to reconstruct and judge a run:
/// invocations, completions, coordinator traces, the per-timestamp write
/// acknowledgement ledger, and invariant violations found on the fly.
#[derive(Debug, Default)]
pub struct Journal {
    /// Workload invocations, in invocation order.
    pub invocations: Vec<Invocation>,
    /// Drained coordinator completions, tagged with the coordinator pid.
    pub completions: Vec<(u32, Completion)>,
    /// Drained operation traces, tagged with the coordinator pid.
    pub traces: Vec<(u32, OpTrace)>,
    /// `(stripe, ts)` → replicas that acknowledged a `Write`/`Modify` at
    /// `ts` (used for quorum-intersection accounting).
    pub acks: BTreeMap<(u64, Timestamp), BTreeSet<u32>>,
    /// Last observed `ord-ts` per `(pid, stripe)`.
    last_ord: BTreeMap<(u32, u64), Timestamp>,
    /// Last observed `max-ts(log)` per `(pid, stripe)`.
    last_max: BTreeMap<(u32, u64), Timestamp>,
    /// Invariant violations, as `"<rule>: <detail>"` strings.
    pub violations: Vec<String>,
    /// Requests handled by replicas (probe coverage counter).
    pub requests_probed: u64,
    /// Data-bearing stripes the repair phase reconstructed.
    pub repair_repaired: u64,
    /// Never-written stripes the repair phase skipped as clean no-ops.
    pub repair_skipped: u64,
    /// Stripes whose repair retry budget ran out.
    pub repair_failed: u64,
    /// Whether the repair driver reached `Done`.
    pub repair_completed: bool,
    /// Post-repair fast-path probe reads that completed.
    pub fastpath_probes: u64,
}

impl Journal {
    /// Creates an empty journal behind the shared handle the bricks use.
    #[must_use]
    pub fn shared() -> Rc<RefCell<Journal>> {
        Rc::new(RefCell::new(Journal::default()))
    }

    fn violation(&mut self, rule: &str, detail: &str) {
        self.violations.push(format!("{rule}: {detail}"));
    }

    /// Checks and updates the per-replica timestamp watermarks.
    fn check_monotonic(&mut self, pid: u32, stripe: u64, ord: Timestamp, max: Timestamp) {
        let key = (pid, stripe);
        if let Some(prev) = self.last_ord.get(&key) {
            if ord < *prev {
                self.violation(
                    "ord-ts-monotonic",
                    &format!("p{pid} stripe{stripe}: ord-ts went {prev} -> {ord}"),
                );
            }
        }
        if let Some(prev) = self.last_max.get(&key) {
            if max < *prev {
                self.violation(
                    "max-ts-monotonic",
                    &format!("p{pid} stripe{stripe}: max-ts went {prev} -> {max}"),
                );
            }
        }
        self.last_ord.insert(key, ord);
        self.last_max.insert(key, max);
    }

    /// Forgets the monotonicity watermarks of a wiped brick: a replaced
    /// disk legitimately restarts from timestamp zero.
    pub fn brick_wiped(&mut self, pid: u32) {
        self.last_ord.retain(|(p, _), _| *p != pid);
        self.last_max.retain(|(p, _), _| *p != pid);
    }

    /// Whether a recovery-path probe read of `stripe` is inconclusive
    /// rather than a violation. Even a cleanly committed write only
    /// guarantees a quorum has matching ord/val timestamps — its last
    /// replica messages can still be in flight when the probe read lands,
    /// and an aborted op can leave a replica's ord-ts ahead for good. So
    /// the probe only convicts when every op on the stripe completed
    /// without aborting, and every *effectful* op (write, scrub, or a
    /// read that recovered) finished at least `margin` ticks before the
    /// probe was invoked — long enough for straggler messages to drain
    /// on a lossless network.
    pub(crate) fn fastpath_inconclusive(
        &self,
        stripe: u64,
        probe_pid: u32,
        probe_op: u64,
        probe_invoked_at: u64,
        margin: u64,
    ) -> bool {
        let kinds: BTreeMap<(u32, u64), OpKind> = self
            .invocations
            .iter()
            .filter(|inv| inv.stripe == stripe)
            .map(|inv| ((inv.pid, inv.op), inv.kind))
            .collect();
        let done: BTreeSet<(u32, u64)> = self
            .completions
            .iter()
            .filter(|(_, c)| c.stripe.0 == stripe)
            .map(|(p, c)| (*p, c.op))
            .collect();
        if kinds.keys().any(|k| !done.contains(k)) {
            return true;
        }
        self.completions.iter().any(|(p, c)| {
            if c.stripe.0 != stripe || (*p, c.op) == (probe_pid, probe_op) {
                return false;
            }
            if matches!(c.result, OpResult::Aborted(_)) {
                return true;
            }
            let effectful = c.recovered
                || kinds.get(&(*p, c.op)).is_some_and(|k| {
                    k.write_id().is_some() || matches!(k, OpKind::Scrub)
                });
            effectful && c.completed_at.saturating_add(margin) > probe_invoked_at
        })
    }
}

/// The volatile state of an in-progress repair phase on the orchestrating
/// brick: the sans-io driver plus the op-id plumbing that routes scrub
/// completions back into it. Lost on crash, like any coordinator state.
#[derive(Debug)]
struct RepairRuntime {
    driver: RepairDriver,
    /// Outstanding scrub op ids → their stripes.
    pending: BTreeMap<u64, StripeId>,
    /// Outstanding fast-path probe read op ids → their stripes.
    probe_pending: BTreeMap<u64, StripeId>,
    /// Data-bearing stripes repaired so far (probed once the driver is done).
    repaired: Vec<StripeId>,
    /// The driver's currently armed wait timer, if any.
    timer: Option<TimerId>,
    /// Set when a scrub result arrived and the driver should be polled.
    dirty: bool,
    /// Whether recovery-path probe reads are judged as violations (only
    /// sound on a lossless, fault-free campaign).
    judge: bool,
    /// Ticks to wait after the driver finishes before probing, and the
    /// quiet period an effectful op must clear for a probe to convict.
    margin: u64,
    /// Armed delay between driver completion and the probe reads, so the
    /// rebuild's own write-back stragglers drain first.
    settle_timer: Option<TimerId>,
    /// Stripes awaiting their deferred probe read.
    probe_queue: Vec<StripeId>,
    /// Set once the driver reported `Done` (guards re-entry).
    finished: bool,
}

/// One instrumented brick: the production [`Brick`] plus probe hooks.
#[derive(Debug)]
pub struct TortureBrick {
    inner: Brick,
    journal: Rc<RefCell<Journal>>,
    /// Stripes this brick's replica side has served (for crash probing).
    touched: BTreeSet<StripeId>,
    /// Repair-phase orchestration, when this brick runs the rebuild.
    repair: Option<RepairRuntime>,
    /// The coordinator's op-lifecycle instruments, installed at
    /// construction. The engine reconciles these against journal ground
    /// truth after the run — the metrics path runs under torture too.
    metrics: Arc<fab_core::OpMetrics>,
}

impl TortureBrick {
    /// Creates the instrumented brick for `pid` with the given coordinator
    /// clock skew; tracing is enabled so committed writes expose their
    /// final timestamp for quorum accounting.
    #[must_use]
    pub fn new(
        pid: ProcessId,
        cfg: Arc<RegisterConfig>,
        skew: i64,
        journal: Rc<RefCell<Journal>>,
    ) -> Self {
        let mut inner = if skew == 0 {
            Brick::new(pid, cfg)
        } else {
            Brick::with_skew(pid, cfg, skew)
        };
        inner.coordinator.set_tracing(true);
        let metrics = fab_core::OpMetrics::register(&fab_obs::Registry::new());
        inner.coordinator.set_metrics(metrics.clone());
        TortureBrick {
            inner,
            journal,
            touched: BTreeSet::new(),
            repair: None,
            metrics,
        }
    }

    /// The coordinator's op-lifecycle instruments, for end-of-run
    /// reconciliation against the journal.
    #[must_use]
    pub fn op_metrics(&self) -> &Arc<fab_core::OpMetrics> {
        &self.metrics
    }

    /// Replaces this brick's disk: all replica state (persistent
    /// included) is erased, as if the brick restarted on a fresh drive.
    /// The journal's monotonicity watermarks for this brick are reset —
    /// a new disk starts from timestamp zero by design.
    pub fn wipe(&mut self) {
        let pid = self.inner.pid().value();
        self.inner.wipe();
        self.journal.borrow_mut().brick_wiped(pid);
    }

    /// Starts the repair phase on this brick: plans a rebuild of `brick`
    /// across `stripes` stripe registers and begins driving the sans-io
    /// [`RepairDriver`] on simulated time. Backoff delays are in sim
    /// ticks, scaled to the campaign horizon rather than wall-clock.
    #[allow(clippy::too_many_arguments)]
    pub fn start_repair(
        &mut self,
        ctx: &mut Context<'_, Envelope>,
        brick: u32,
        stripes: u64,
        m: usize,
        block_size: usize,
        n: u32,
        judge: bool,
        margin: u64,
    ) {
        if self.repair.is_some() {
            return;
        }
        let geom = VolumeGeometry::new(stripes, m, block_size, Layout::Interleaved);
        let Ok(map) = SegmentMap::full(n) else { return };
        let Ok(plan) = plan_brick_rebuild(&geom, &map, brick) else {
            return;
        };
        let cfg = DriverConfig {
            stripes_per_sec: 0,
            bytes_per_sec: 0,
            max_inflight: 2,
            max_attempts: 8,
            backoff: Backoff {
                base_micros: 40,
                factor: 2,
                max_micros: 500,
            },
        };
        self.repair = Some(RepairRuntime {
            driver: RepairDriver::new(plan, cfg),
            pending: BTreeMap::new(),
            probe_pending: BTreeMap::new(),
            repaired: Vec::new(),
            timer: None,
            dirty: false,
            judge,
            margin,
            settle_timer: None,
            probe_queue: Vec::new(),
            finished: false,
        });
        self.pump_repair(ctx);
    }

    /// Polls the repair driver until it blocks (throttle wait, in-flight
    /// limit) or finishes, issuing scrubs through the wrapped
    /// coordinator. Scrub invocations are journaled like workload ops, so
    /// the linearizability check covers the rebuild's own reads.
    fn pump_repair(&mut self, ctx: &mut Context<'_, Envelope>) {
        loop {
            let now = ctx.now();
            let action = match self.repair.as_mut() {
                Some(rt) => rt.driver.poll(now),
                None => return,
            };
            match action {
                Action::Scrub(stripe) => {
                    let op = self.start(ctx, stripe, OpKind::Scrub, ClientOp::scrub(stripe));
                    if let (Some(op), Some(rt)) = (op, self.repair.as_mut()) {
                        rt.pending.insert(op, stripe);
                    }
                }
                Action::Wait { until_micros } => {
                    let delay = until_micros.saturating_sub(now).max(1);
                    let timer = ctx.set_timer(delay);
                    if let Some(rt) = self.repair.as_mut() {
                        rt.timer = Some(timer);
                    }
                    return;
                }
                Action::Idle => return,
                Action::Done => {
                    self.finish_repair(ctx);
                    return;
                }
            }
        }
    }

    /// Records the terminal repair stats and arms the probe settle timer:
    /// fast-path probe reads are issued `margin` ticks later, so the
    /// rebuild's own write-back stragglers drain before the reads land.
    fn finish_repair(&mut self, ctx: &mut Context<'_, Envelope>) {
        let Some(rt) = self.repair.as_mut() else { return };
        if rt.finished {
            return;
        }
        rt.finished = true;
        let snapshot = rt.driver.counters().snapshot();
        rt.probe_queue = std::mem::take(&mut rt.repaired);
        {
            let mut j = self.journal.borrow_mut();
            j.repair_repaired = snapshot.repaired;
            j.repair_skipped = snapshot.skipped;
            j.repair_failed = snapshot.failed;
            j.repair_completed = true;
        }
        if !rt.probe_queue.is_empty() {
            let delay = rt.margin.max(1);
            rt.settle_timer = Some(ctx.set_timer(delay));
        }
    }

    /// Issues the deferred fast-path probe reads: one `read-stripe` per
    /// repaired (data-bearing) stripe. [`TortureBrick::drain`] judges the
    /// completions: on a benign campaign a settled stripe must be read
    /// without the recovery path.
    fn issue_probes(&mut self, ctx: &mut Context<'_, Envelope>) {
        let queue = match self.repair.as_mut() {
            Some(rt) => std::mem::take(&mut rt.probe_queue),
            None => return,
        };
        for stripe in queue {
            let read = ClientOp::read_stripe(stripe);
            let op = self.start(ctx, stripe, OpKind::ReadStripe, read);
            if let (Some(op), Some(rt)) = (op, self.repair.as_mut()) {
                rt.probe_pending.insert(op, stripe);
            }
        }
    }

    /// Starts `op` through the wrapped coordinator and journals the
    /// invocation as `kind`; `None` if the coordinator rejected it.
    fn start(
        &mut self,
        ctx: &mut Context<'_, Envelope>,
        stripe: StripeId,
        kind: OpKind,
        op: ClientOp,
    ) -> Option<OpId> {
        let at = ctx.now();
        let op = self.inner.invoke(ctx, op).ok()?;
        self.journal.borrow_mut().invocations.push(Invocation {
            pid: self.inner.pid().value(),
            op,
            at,
            stripe: stripe.0,
            kind,
        });
        Some(op)
    }

    /// The wrapped production brick.
    pub fn inner_mut(&mut self) -> &mut Brick {
        &mut self.inner
    }

    /// Drains invariant violations the coordinator survived internally.
    pub fn take_protocol_errors(&mut self) -> Vec<ProtocolError> {
        self.inner.coordinator.take_protocol_errors()
    }

    /// Invokes one planned operation through the wrapped coordinator and
    /// records the invocation in the journal. `m` data blocks of
    /// `block_size` bytes are derived from the value id.
    pub fn invoke(
        &mut self,
        ctx: &mut Context<'_, Envelope>,
        stripe: StripeId,
        kind: OpKind,
        m: usize,
        block_size: usize,
    ) {
        self.start(ctx, stripe, kind, kind.client_op(stripe, m, block_size));
        self.touched.insert(stripe);
        self.drain(ctx.now());
        self.repair_tick(ctx);
    }

    /// Moves completions and finished traces from the wrapped brick into
    /// the journal (completions drained from the brick's mailbox, traces
    /// from the coordinator). Completions of repair-issued scrubs are fed
    /// back into the driver first; completions of fast-path probe reads
    /// are judged here.
    fn drain(&mut self, now: u64) {
        let pid = self.inner.pid().value();
        let completions = std::mem::take(&mut self.inner.completions);
        let traces = self.inner.coordinator.take_traces();
        if completions.is_empty() && traces.is_empty() {
            return;
        }
        // (stripe, returned-a-value, recovered, op id, invoked-at tick)
        let mut probe_done: Vec<(u64, bool, bool, u64, u64)> = Vec::new();
        let mut probe_policy = (false, 0u64);
        if let Some(rt) = self.repair.as_mut() {
            probe_policy = (rt.judge, rt.margin);
            for c in &completions {
                if let Some(stripe) = rt.pending.remove(&c.op) {
                    rt.driver.on_scrub_result(stripe, Ok(&c.result), now);
                    rt.dirty = true;
                    if matches!(&c.result, OpResult::Stripe(fab_core::StripeValue::Data(_))) {
                        rt.repaired.push(stripe);
                    }
                } else if let Some(stripe) = rt.probe_pending.remove(&c.op) {
                    let returned_value = matches!(c.result, OpResult::Stripe(_));
                    probe_done.push((stripe.0, returned_value, c.recovered, c.op, c.invoked_at));
                }
            }
        }
        let mut j = self.journal.borrow_mut();
        // Extend first so the probe reads' own completions (this batch)
        // are visible to the settledness check below.
        j.completions.extend(completions.into_iter().map(|c| (pid, c)));
        j.traces.extend(traces.into_iter().map(|t| (pid, t)));
        let (judge, margin) = probe_policy;
        for (stripe, returned_value, recovered, op, invoked_at) in probe_done {
            // An aborted probe read observed nothing; judge only reads
            // that returned a value. A recovery-path read convicts only
            // on a benign campaign (lossless net, no faults) when the
            // stripe is settled — anything else is inconclusive.
            if returned_value {
                j.fastpath_probes += 1;
                if recovered
                    && judge
                    && !j.fastpath_inconclusive(stripe, pid, op, invoked_at, margin)
                {
                    j.violation(
                        "repair-fast-path",
                        &format!(
                            "p{pid}: post-repair read of stripe{stripe} took the recovery path"
                        ),
                    );
                }
            }
        }
    }

    /// Re-polls the repair driver if new scrub results arrived.
    fn repair_tick(&mut self, ctx: &mut Context<'_, Envelope>) {
        if self.repair.as_ref().is_some_and(|rt| rt.dirty) {
            if let Some(rt) = self.repair.as_mut() {
                rt.dirty = false;
            }
            self.pump_repair(ctx);
        }
    }

    /// Probes replica state right after it handled `req` (and before the
    /// reply envelope is handed to the network).
    fn probe_request(&mut self, stripe: StripeId, req: &Request, reply: Option<&Reply>) {
        let pid = self.inner.pid().value();
        let Some(replica) = self.inner.replica_ref(stripe) else {
            return;
        };
        let (ord, max) = (replica.ord_ts(), replica.log().max_ts());
        let mut j = self.journal.borrow_mut();
        j.requests_probed += 1;
        j.check_monotonic(pid, stripe.0, ord, max);
        match (req, reply) {
            (
                Request::Read { .. },
                Some(Reply::ReadR {
                    status: true,
                    val_ts,
                    ..
                }),
            ) if *val_ts < ord => {
                j.violation(
                    "read-guard",
                    &format!(
                        "p{pid} stripe{s}: served read with val_ts {val_ts} < ord-ts {ord}",
                        s = stripe.0
                    ),
                );
            }
            (Request::Write { ts, .. }, Some(Reply::WriteR { status: true, .. }))
            | (Request::Modify { ts, .. }, Some(Reply::ModifyR { status: true, .. })) => {
                if replica.log().entry_at(*ts).is_some() {
                    j.acks.entry((stripe.0, *ts)).or_default().insert(pid);
                } else {
                    j.violation(
                        "log-before-send",
                        &format!(
                            "p{pid} stripe{s}: acked ts {ts} with no log entry",
                            s = stripe.0
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

impl Actor for TortureBrick {
    type Msg = Envelope;

    fn on_message(&mut self, ctx: &mut Context<'_, Envelope>, from: ProcessId, env: Envelope) {
        match &env.kind {
            // Replica side: handle the request ourselves (identically to
            // `Brick::on_message`) so the probe sees the post-state before
            // the reply leaves the brick.
            Payload::Request(req) => {
                let stripe = env.stripe;
                let round = env.round;
                self.touched.insert(stripe);
                let reply = self.inner.replica(stripe).handle(req);
                self.probe_request(stripe, req, reply.as_ref());
                if let Some(reply) = reply {
                    ctx.send(
                        from,
                        Envelope {
                            stripe,
                            round,
                            kind: Payload::Reply(reply),
                        },
                    );
                }
            }
            // Coordinator side: delegate unchanged, then harvest.
            Payload::Reply(_) => {
                self.inner.on_message(ctx, from, env);
                self.drain(ctx.now());
                self.repair_tick(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Envelope>, timer: TimerId) {
        // A repair wait timer belongs to the driver, not the wrapped brick.
        if self
            .repair
            .as_ref()
            .is_some_and(|rt| rt.timer == Some(timer))
        {
            if let Some(rt) = self.repair.as_mut() {
                rt.timer = None;
            }
            self.pump_repair(ctx);
            return;
        }
        // The probe settle timer: the rebuild finished `margin` ticks ago,
        // so its stragglers have drained — read the repaired stripes back.
        if self
            .repair
            .as_ref()
            .is_some_and(|rt| rt.settle_timer == Some(timer))
        {
            if let Some(rt) = self.repair.as_mut() {
                rt.settle_timer = None;
            }
            self.issue_probes(ctx);
            return;
        }
        self.inner.on_timer(ctx, timer);
        self.drain(ctx.now());
        self.repair_tick(ctx);
    }

    fn on_crash(&mut self) {
        self.inner.on_crash();
        // Orchestration state is volatile: a crashed driver is gone (the
        // durable-cursor resume path is exercised by the inproc tests).
        self.repair = None;
        // Persistence probe: replica timestamps must survive the crash.
        let pid = self.inner.pid().value();
        let stripes: Vec<StripeId> = self.touched.iter().copied().collect();
        for stripe in stripes {
            if let Some(r) = self.inner.replica_ref(stripe) {
                let (ord, max) = (r.ord_ts(), r.log().max_ts());
                self.journal
                    .borrow_mut()
                    .check_monotonic(pid, stripe.0, ord, max);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fab_core::BlockValue;
    use bytes::Bytes;

    fn cfg() -> Arc<RegisterConfig> {
        Arc::new(RegisterConfig::new(2, 4, 16).expect("valid config"))
    }

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_parts(t, ProcessId::new(0))
    }

    fn env(req: Request) -> Envelope {
        Envelope {
            stripe: StripeId(0),
            round: 1,
            kind: Payload::Request(req),
        }
    }

    /// Drives a request through the actor interface inside a one-actor
    /// simulation (the probe needs a real `Context`).
    fn drive(requests: Vec<Request>) -> Rc<RefCell<Journal>> {
        let journal = Journal::shared();
        let brick = TortureBrick::new(ProcessId::new(0), cfg(), 0, journal.clone());
        let mut sim =
            fab_simnet::Simulation::new(fab_simnet::SimConfig::ideal(1), vec![brick]);
        for (i, req) in requests.into_iter().enumerate() {
            sim.schedule_call(i as u64, ProcessId::new(0), move |b: &mut TortureBrick, ctx| {
                // Deliver as if from a remote coordinator.
                b.on_message(ctx, ProcessId::new(1), env(req));
            });
        }
        sim.run_until_idle();
        journal
    }

    #[test]
    fn clean_requests_produce_no_violations_and_fill_ledger() {
        let j = drive(vec![
            Request::Order { ts: ts(5) },
            Request::Write {
                block: BlockValue::Data(Bytes::from(vec![1u8; 16])),
                ts: ts(5),
            },
            Request::Read { targets: vec![] },
        ]);
        let j = j.borrow();
        assert!(j.violations.is_empty(), "{:?}", j.violations);
        assert_eq!(j.requests_probed, 3);
        assert_eq!(j.acks.get(&(0, ts(5))).map(BTreeSet::len), Some(1));
    }

    #[test]
    fn monotonicity_probe_detects_regression() {
        let mut journal = Journal::default();
        journal.check_monotonic(0, 0, ts(5), ts(3));
        journal.check_monotonic(0, 0, ts(4), ts(3));
        assert_eq!(journal.violations.len(), 1);
        assert!(journal.violations[0].starts_with("ord-ts-monotonic"));
        // Distinct (pid, stripe) keys are independent.
        journal.check_monotonic(1, 0, ts(1), ts(1));
        journal.check_monotonic(0, 1, ts(1), ts(1));
        assert_eq!(journal.violations.len(), 1);
    }

    #[test]
    fn max_ts_regression_detected() {
        let mut journal = Journal::default();
        journal.check_monotonic(2, 7, ts(5), ts(5));
        journal.check_monotonic(2, 7, ts(5), ts(2));
        assert_eq!(journal.violations.len(), 1);
        assert!(journal.violations[0].starts_with("max-ts-monotonic"));
    }

    #[test]
    fn crash_keeps_watermarks_clean_on_faithful_replica() {
        let journal = Journal::shared();
        let mut brick = TortureBrick::new(ProcessId::new(0), cfg(), 0, journal.clone());
        let mut sim = fab_simnet::Simulation::new(
            fab_simnet::SimConfig::ideal(1),
            vec![TortureBrick::new(ProcessId::new(9), cfg(), 0, Journal::shared())],
        );
        // Use the brick outside the sim: feed requests through a scheduled
        // call on the placeholder actor to borrow a Context.
        sim.schedule_call(0, ProcessId::new(0), move |_b, ctx| {
            brick.on_message(ctx, ProcessId::new(1), env(Request::Order { ts: ts(9) }));
            brick.on_crash();
        });
        sim.run_until_idle();
        assert!(journal.borrow().violations.is_empty());
    }
}
