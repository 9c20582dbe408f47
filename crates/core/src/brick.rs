//! The simulation driver: a FAB brick as a `fab-simnet` actor.
//!
//! A [`Brick`] is one storage appliance (Figure 1): it hosts a [`Replica`]
//! for every stripe register it stores *and* a [`Coordinator`] through
//! which clients can access any stripe — the paper's decentralized
//! architecture where every brick is both a storage device and an I/O
//! controller.
//!
//! [`SimCluster`] wraps a simulation of n bricks with harness conveniences:
//! run one operation to completion, inject crashes and partitions, and
//! account per-operation network/disk costs (for Table 1).

use crate::client::{ClientError, ClientOp};
use crate::config::RegisterConfig;
use crate::coordinator::{Completion, Coordinator, InvokeError, OpId, OpResult};
use crate::effects::Effects;
use crate::messages::{Envelope, Payload, StripeId};
use crate::replica::{DiskMetrics, Replica};
use bytes::Bytes;
use fab_simnet::{Actor, Context, NetMetrics, SimConfig, SimTime, Simulation, TimerId};
use fab_timestamp::ProcessId;
// BTreeMap, not HashMap: brick state iteration (metrics, crash handling)
// must be deterministic across runs for reproducible simulations.
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Adapter exposing a simulator [`Context`] as protocol [`Effects`].
struct CtxFx<'a, 'b> {
    ctx: &'a mut Context<'b, Envelope>,
}

impl Effects for CtxFx<'_, '_> {
    fn send(&mut self, to: ProcessId, env: Envelope) {
        // Persistence decisions are made by the replica/coordinator callers.
        self.ctx.send(to, env);
    }
    fn set_timer(&mut self, delay: u64) -> u64 {
        self.ctx.set_timer(delay).value()
    }
    fn now(&self) -> u64 {
        self.ctx.now()
    }
    fn rand_u64(&mut self) -> u64 {
        self.ctx.rng().next_u64()
    }
}

/// One simulated storage brick: replicas for its stripes plus an operation
/// coordinator.
#[derive(Debug)]
pub struct Brick {
    pid: ProcessId,
    cfg: Arc<RegisterConfig>,
    replicas: BTreeMap<StripeId, Replica>,
    /// The coordinator module (volatile across crashes).
    pub coordinator: Coordinator,
    /// Completed operations awaiting harness pickup.
    pub completions: Vec<Completion>,
}

impl Brick {
    /// Creates the brick hosted by `pid`.
    pub fn new(pid: ProcessId, cfg: Arc<RegisterConfig>) -> Self {
        Brick {
            pid,
            coordinator: Coordinator::new(pid, cfg.clone()),
            cfg,
            replicas: BTreeMap::new(),
            completions: Vec::new(),
        }
    }

    /// Creates a brick whose coordinator clock is skewed (abort-rate
    /// experiments).
    pub fn with_skew(pid: ProcessId, cfg: Arc<RegisterConfig>, skew: i64) -> Self {
        Brick {
            pid,
            coordinator: Coordinator::with_skew(pid, cfg.clone(), skew),
            cfg,
            replicas: BTreeMap::new(),
            completions: Vec::new(),
        }
    }

    /// The hosting process.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The replica for `stripe`, creating it in its initial state on first
    /// touch (registers are logically pre-existing for every stripe).
    pub fn replica(&mut self, stripe: StripeId) -> &mut Replica {
        let (pid, cfg) = (self.pid, self.cfg.clone());
        self.replicas
            .entry(stripe)
            .or_insert_with(|| Replica::new(pid, cfg))
    }

    /// Read-only view of a replica, if the stripe has been touched.
    pub fn replica_ref(&self, stripe: StripeId) -> Option<&Replica> {
        self.replicas.get(&stripe)
    }

    /// Discards ALL of this brick's state, persistent replica state
    /// included — the "replaced disk" model, as opposed to
    /// [`Actor::on_crash`]'s power-loss model where the durable log
    /// survives. Every register this brick stored restarts from its
    /// initial state; recovery/repair must rebuild it from the rest of
    /// the segment group.
    pub fn wipe(&mut self) {
        self.replicas.clear();
        self.coordinator.on_crash();
        self.completions.clear();
    }

    /// Sum of disk metrics across this brick's replicas.
    pub fn disk_metrics(&self) -> DiskMetrics {
        let mut total = DiskMetrics::default();
        for r in self.replicas.values() {
            let m = r.metrics();
            total.reads += m.reads;
            total.writes += m.writes;
            total.nvram_stores += m.nvram_stores;
        }
        total
    }

    /// Starts `op` through this brick's coordinator.
    ///
    /// # Errors
    ///
    /// Propagates [`InvokeError`] for malformed operations.
    pub fn invoke(
        &mut self,
        ctx: &mut Context<'_, Envelope>,
        op: ClientOp,
    ) -> Result<OpId, InvokeError> {
        self.coordinator.invoke(&mut CtxFx { ctx }, op)
    }

    /// Sugar for [`Brick::invoke`] of a `read-stripe`.
    pub fn read_stripe(
        &mut self,
        ctx: &mut Context<'_, Envelope>,
        stripe: StripeId,
    ) -> Result<OpId, InvokeError> {
        self.invoke(ctx, ClientOp::read_stripe(stripe))
    }

    /// Sugar for [`Brick::invoke`] of a `write-stripe`.
    pub fn write_stripe(
        &mut self,
        ctx: &mut Context<'_, Envelope>,
        stripe: StripeId,
        blocks: Vec<Bytes>,
    ) -> Result<OpId, InvokeError> {
        self.invoke(ctx, ClientOp::write_stripe(stripe, blocks))
    }

    /// Sugar for [`Brick::invoke`] of a `read-block`.
    pub fn read_block(
        &mut self,
        ctx: &mut Context<'_, Envelope>,
        stripe: StripeId,
        j: usize,
    ) -> Result<OpId, InvokeError> {
        self.invoke(ctx, ClientOp::read_block(stripe, j))
    }

    /// Sugar for [`Brick::invoke`] of a `write-block`.
    pub fn write_block(
        &mut self,
        ctx: &mut Context<'_, Envelope>,
        stripe: StripeId,
        j: usize,
        block: Bytes,
    ) -> Result<OpId, InvokeError> {
        self.invoke(ctx, ClientOp::write_block(stripe, j, block))
    }
}

impl Actor for Brick {
    type Msg = Envelope;

    fn on_message(&mut self, ctx: &mut Context<'_, Envelope>, from: ProcessId, env: Envelope) {
        match &env.kind {
            Payload::Request(req) => {
                let stripe = env.stripe;
                let round = env.round;
                if let Some(reply) = self.replica(stripe).handle(req) {
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
            Payload::Reply(_) => {
                let mut fx = CtxFx { ctx };
                self.coordinator.on_reply(&mut fx, from, &env);
                self.completions
                    .extend(self.coordinator.drain_completions());
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Envelope>, timer: TimerId) {
        let mut fx = CtxFx { ctx };
        self.coordinator.on_timer(&mut fx, timer.value());
        self.completions
            .extend(self.coordinator.drain_completions());
    }

    fn on_crash(&mut self) {
        // Replica state is persistent; coordinator state and undelivered
        // completions are volatile.
        for r in self.replicas.values_mut() {
            r.on_crash();
        }
        self.coordinator.on_crash();
        self.completions.clear();
    }
}

/// Per-operation cost attribution (a Table 1 row, measured).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCosts {
    /// Virtual-time latency (in multiples of δ when the network is ideal).
    pub latency: u64,
    /// Messages sent (requests + replies + GC).
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Disk block reads across all bricks.
    pub disk_reads: u64,
    /// Disk block writes across all bricks.
    pub disk_writes: u64,
}

/// A deterministic simulation of n bricks running the storage-register
/// protocol, with synchronous-style harness helpers.
///
/// # Examples
///
/// ```
/// use fab_core::{RegisterConfig, SimCluster, StripeId, OpResult, StripeValue};
/// use fab_simnet::SimConfig;
/// use fab_timestamp::ProcessId;
/// use bytes::Bytes;
///
/// let cfg = RegisterConfig::new(2, 4, 16)?;
/// let mut cluster = SimCluster::new(cfg, SimConfig::ideal(7));
/// let s = StripeId(0);
/// let p0 = ProcessId::new(0);
///
/// let stripe = vec![Bytes::from(vec![1u8; 16]), Bytes::from(vec![2u8; 16])];
/// assert_eq!(cluster.write_stripe(p0, s, stripe.clone()), OpResult::Written);
/// assert_eq!(
///     cluster.read_stripe(ProcessId::new(3), s),
///     OpResult::Stripe(StripeValue::Data(stripe)),
/// );
/// # Ok::<(), fab_core::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct SimCluster {
    sim: Simulation<Brick>,
    cfg: Arc<RegisterConfig>,
    /// Deadline for synchronous helpers before declaring a hang.
    pub op_deadline: SimTime,
}

impl SimCluster {
    /// Builds a cluster of `cfg.n()` bricks over the given network model.
    pub fn new(cfg: RegisterConfig, sim_config: SimConfig) -> Self {
        let cfg = Arc::new(cfg);
        let bricks = (0..cfg.n())
            .map(|i| Brick::new(ProcessId::new(i as u32), cfg.clone()))
            .collect();
        SimCluster {
            sim: Simulation::new(sim_config, bricks),
            cfg,
            op_deadline: 10_000_000,
        }
    }

    /// Builds a cluster whose coordinators have the given clock skews
    /// (index = process; missing entries mean no skew).
    pub fn with_skews(cfg: RegisterConfig, sim_config: SimConfig, skews: &[i64]) -> Self {
        let cfg = Arc::new(cfg);
        let bricks = (0..cfg.n())
            .map(|i| {
                let skew = skews.get(i).copied().unwrap_or(0);
                Brick::with_skew(ProcessId::new(i as u32), cfg.clone(), skew)
            })
            .collect();
        SimCluster {
            sim: Simulation::new(sim_config, bricks),
            cfg,
            op_deadline: 10_000_000,
        }
    }

    /// The shared register configuration.
    pub fn config(&self) -> &RegisterConfig {
        &self.cfg
    }

    /// The underlying simulation, for fault injection and inspection.
    pub fn sim_mut(&mut self) -> &mut Simulation<Brick> {
        &mut self.sim
    }

    /// The underlying simulation (read-only).
    pub fn sim(&self) -> &Simulation<Brick> {
        &self.sim
    }

    /// Sum of disk metrics over all bricks.
    pub fn disk_metrics(&self) -> DiskMetrics {
        let mut total = DiskMetrics::default();
        for (_, b) in self.sim.actors() {
            let m = b.disk_metrics();
            total.reads += m.reads;
            total.writes += m.writes;
            total.nvram_stores += m.nvram_stores;
        }
        total
    }

    /// Network metrics so far.
    pub fn net_metrics(&self) -> NetMetrics {
        self.sim.metrics()
    }

    /// Schedules `call` at the current time on `coordinator` and runs the
    /// simulation until it yields a completion. `call` reports whether the
    /// coordinator accepted its invocation: a rejected one is
    /// [`ClientError::InvalidRequest`], and one that has not completed by
    /// the deadline (a crashed coordinator, more than f faults) is
    /// [`ClientError::Unavailable`].
    fn run_op<F>(&mut self, coordinator: ProcessId, call: F) -> Result<Completion, ClientError>
    where
        F: FnOnce(&mut Brick, &mut Context<'_, Envelope>) -> bool + 'static,
    {
        let already = self.sim.actor(coordinator).completions.len();
        let accepted = Rc::new(Cell::new(true));
        let verdict = Rc::clone(&accepted);
        let at = self.sim.now();
        self.sim
            .schedule_call(at, coordinator, move |b, ctx| verdict.set(call(b, ctx)));
        let done = self
            .sim
            .run_until_actor(coordinator, at + self.op_deadline, |b| {
                !accepted.get() || b.completions.len() > already
            });
        if !accepted.get() {
            Err(ClientError::InvalidRequest)
        } else if done {
            Ok(self.sim.actor_mut(coordinator).completions.remove(already))
        } else {
            Err(ClientError::Unavailable)
        }
    }

    /// Runs `op` to completion via `coordinator`, returning the full
    /// [`Completion`] (timing and the `recovered` flag included).
    ///
    /// # Errors
    ///
    /// [`ClientError::InvalidRequest`] if the coordinator rejects `op` as
    /// malformed; [`ClientError::Unavailable`] if it has not completed by
    /// [`SimCluster::op_deadline`].
    pub fn complete(
        &mut self,
        coordinator: ProcessId,
        op: ClientOp,
    ) -> Result<Completion, ClientError> {
        self.run_op(coordinator, move |b, ctx| b.invoke(ctx, op).is_ok())
    }

    /// Runs `op` to completion via `coordinator`.
    ///
    /// # Errors
    ///
    /// As [`SimCluster::complete`].
    pub fn invoke(
        &mut self,
        coordinator: ProcessId,
        op: ClientOp,
    ) -> Result<OpResult, ClientError> {
        self.complete(coordinator, op).map(|c| c.result)
    }

    /// [`SimCluster::invoke`] for the typed sugar below, which panics
    /// instead of returning a [`ClientError`].
    fn run(&mut self, coordinator: ProcessId, op: ClientOp) -> OpResult {
        expect_done(self.invoke(coordinator, op))
    }

    /// Runs a `read-stripe` to completion via `coordinator`.
    pub fn read_stripe(&mut self, coordinator: ProcessId, stripe: StripeId) -> OpResult {
        self.run(coordinator, ClientOp::read_stripe(stripe))
    }

    /// Runs a `write-stripe` to completion via `coordinator`.
    pub fn write_stripe(
        &mut self,
        coordinator: ProcessId,
        stripe: StripeId,
        blocks: Vec<Bytes>,
    ) -> OpResult {
        self.run(coordinator, ClientOp::write_stripe(stripe, blocks))
    }

    /// Runs a `read-block` to completion via `coordinator`.
    pub fn read_block(&mut self, coordinator: ProcessId, stripe: StripeId, j: usize) -> OpResult {
        self.run(coordinator, ClientOp::read_block(stripe, j))
    }

    /// Runs a `write-block` to completion via `coordinator`.
    pub fn write_block(
        &mut self,
        coordinator: ProcessId,
        stripe: StripeId,
        j: usize,
        block: Bytes,
    ) -> OpResult {
        self.run(coordinator, ClientOp::write_block(stripe, j, block))
    }

    /// Runs a multi-block read to completion via `coordinator`.
    pub fn read_blocks(
        &mut self,
        coordinator: ProcessId,
        stripe: StripeId,
        js: Vec<usize>,
    ) -> OpResult {
        self.run(coordinator, ClientOp::read_blocks(stripe, js))
    }

    /// Runs a multi-block write to completion via `coordinator`.
    pub fn write_blocks(
        &mut self,
        coordinator: ProcessId,
        stripe: StripeId,
        updates: Vec<(usize, Bytes)>,
    ) -> OpResult {
        self.run(coordinator, ClientOp::write_blocks(stripe, updates))
    }

    /// Runs a scrub to completion via `coordinator`, returning the
    /// (re-established) current stripe value.
    pub fn scrub(&mut self, coordinator: ProcessId, stripe: StripeId) -> OpResult {
        self.run(coordinator, ClientOp::scrub(stripe))
    }

    /// Wipes `pid`'s entire brick state — the replaced-disk model (see
    /// [`Brick::wipe`]). The brick keeps running; repair must rebuild
    /// its registers from the rest of the segment group.
    pub fn wipe(&mut self, pid: ProcessId) {
        self.sim.actor_mut(pid).wipe();
    }

    /// Runs an operation and attributes its latency, messages, bytes, and
    /// disk I/O (a measured Table 1 row). The cluster must be quiescent.
    ///
    /// # Panics
    ///
    /// Panics if `invoke` starts no operation that completes by the
    /// deadline.
    pub fn measure_op<F>(&mut self, coordinator: ProcessId, invoke: F) -> (Completion, OpCosts)
    where
        F: FnOnce(&mut Brick, &mut Context<'_, Envelope>) + 'static,
    {
        let net0 = self.sim.metrics();
        let disk0 = self.disk_metrics();
        let completion = expect_done(self.run_op(coordinator, move |b, ctx| {
            invoke(b, ctx);
            true
        }));
        // Let trailing replies/GC land so counters settle.
        self.sim.run_until_idle();
        let net = self.sim.metrics().since(&net0);
        let disk = self.disk_metrics();
        let costs = OpCosts {
            latency: completion.completed_at - completion.invoked_at,
            messages: net.messages_sent,
            bytes: net.bytes_sent,
            disk_reads: disk.reads - disk0.reads,
            disk_writes: disk.writes - disk0.writes,
        };
        (completion, costs)
    }

    /// Drains completions from every brick (for concurrent workloads).
    pub fn drain_all_completions(&mut self) -> Vec<(ProcessId, Completion)> {
        let mut out = Vec::new();
        for i in 0..self.cfg.n() {
            let pid = ProcessId::new(i as u32);
            for c in std::mem::take(&mut self.sim.actor_mut(pid).completions) {
                out.push((pid, c));
            }
        }
        out
    }
}

/// The contract of [`SimCluster`]'s typed sugar and `measure_op`: harness
/// conveniences that panic on malformed input or a missed deadline
/// ([`SimCluster::invoke`] is the typed path).
#[expect(
    clippy::expect_used,
    reason = "harness sugar panics by contract; SimCluster::invoke is the typed path"
)]
fn expect_done<T>(outcome: Result<T, ClientError>) -> T {
    outcome.expect("operation rejected, or not complete by the deadline — more than f faults?")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::StripeValue;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn blocks(m: usize, seed: u8, size: usize) -> Vec<Bytes> {
        (0..m)
            .map(|i| Bytes::from(vec![seed.wrapping_add(i as u8); size]))
            .collect()
    }

    fn cluster(m: usize, n: usize) -> SimCluster {
        SimCluster::new(RegisterConfig::new(m, n, 16).unwrap(), SimConfig::ideal(42))
    }

    #[test]
    fn fresh_register_reads_nil() {
        let mut c = cluster(2, 4);
        assert_eq!(
            c.read_stripe(pid(0), StripeId(0)),
            OpResult::Stripe(StripeValue::Nil)
        );
        assert_eq!(
            c.read_block(pid(1), StripeId(0), 1),
            OpResult::Block(crate::value::BlockValue::Nil)
        );
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut c = cluster(2, 4);
        let data = blocks(2, 10, 16);
        assert_eq!(
            c.write_stripe(pid(0), StripeId(0), data.clone()),
            OpResult::Written
        );
        assert_eq!(
            c.read_stripe(pid(3), StripeId(0)),
            OpResult::Stripe(StripeValue::Data(data))
        );
    }

    #[test]
    fn five_of_eight_round_trip() {
        let mut c = cluster(5, 8);
        let data = blocks(5, 1, 16);
        assert_eq!(
            c.write_stripe(pid(2), StripeId(7), data.clone()),
            OpResult::Written
        );
        assert_eq!(
            c.read_stripe(pid(6), StripeId(7)),
            OpResult::Stripe(StripeValue::Data(data))
        );
    }

    #[test]
    fn block_write_then_reads() {
        let mut c = cluster(2, 4);
        let s = StripeId(0);
        c.write_stripe(pid(0), s, blocks(2, 10, 16));
        let newb = Bytes::from(vec![0xEEu8; 16]);
        assert_eq!(c.write_block(pid(1), s, 1, newb.clone()), OpResult::Written);
        assert_eq!(
            c.read_block(pid(2), s, 1),
            OpResult::Block(crate::value::BlockValue::Data(newb.clone()))
        );
        // Block 0 is unchanged.
        assert_eq!(
            c.read_block(pid(3), s, 0),
            OpResult::Block(crate::value::BlockValue::Data(Bytes::from(vec![10u8; 16])))
        );
        // And the full stripe decodes consistently.
        match c.read_stripe(pid(0), s) {
            OpResult::Stripe(StripeValue::Data(got)) => {
                assert_eq!(got[0].as_ref(), &[10u8; 16]);
                assert_eq!(got[1], newb);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn block_write_on_fresh_stripe_reads_zero_siblings() {
        let mut c = cluster(2, 4);
        let s = StripeId(0);
        let newb = Bytes::from(vec![7u8; 16]);
        assert_eq!(c.write_block(pid(0), s, 0, newb.clone()), OpResult::Written);
        match c.read_stripe(pid(1), s) {
            OpResult::Stripe(StripeValue::Data(got)) => {
                assert_eq!(got[0], newb);
                assert_eq!(got[1].as_ref(), &[0u8; 16], "untouched block reads zeros");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stripes_are_independent() {
        let mut c = cluster(2, 4);
        c.write_stripe(pid(0), StripeId(1), blocks(2, 50, 16));
        assert_eq!(
            c.read_stripe(pid(0), StripeId(2)),
            OpResult::Stripe(StripeValue::Nil)
        );
        assert_eq!(
            c.read_stripe(pid(0), StripeId(1)),
            OpResult::Stripe(StripeValue::Data(blocks(2, 50, 16)))
        );
    }

    #[test]
    fn works_under_harsh_network() {
        let mut c = SimCluster::new(
            RegisterConfig::new(2, 4, 16)
                .unwrap()
                .with_retransmit_interval(120),
            SimConfig::harsh(3),
        );
        let s = StripeId(0);
        for round in 0..5u8 {
            let data = blocks(2, round * 7 + 1, 16);
            assert_eq!(
                c.write_stripe(pid(u32::from(round % 4)), s, data.clone()),
                OpResult::Written,
                "round {round}"
            );
            assert_eq!(
                c.read_stripe(pid(u32::from((round + 1) % 4)), s),
                OpResult::Stripe(StripeValue::Data(data)),
                "round {round}"
            );
        }
    }

    #[test]
    fn tolerates_f_crashed_bricks() {
        let mut c = cluster(5, 8); // f = 1
        let s = StripeId(0);
        let data = blocks(5, 3, 16);
        c.write_stripe(pid(0), s, data.clone());
        // Crash one brick; reads and writes still complete.
        let at = c.sim().now();
        c.sim_mut().schedule_crash(at, pid(7));
        c.sim_mut().run_until(at + 1);
        assert_eq!(
            c.read_stripe(pid(0), s),
            OpResult::Stripe(StripeValue::Data(data.clone()))
        );
        let data2 = blocks(5, 99, 16);
        assert_eq!(c.write_stripe(pid(1), s, data2.clone()), OpResult::Written);
        assert_eq!(
            c.read_stripe(pid(2), s),
            OpResult::Stripe(StripeValue::Data(data2))
        );
    }

    #[test]
    fn crashed_brick_recovers_and_rejoins() {
        let mut c = cluster(2, 4);
        let s = StripeId(0);
        let at = c.sim().now();
        c.sim_mut().schedule_crash(at, pid(3));
        c.sim_mut().run_until(at + 1);
        let v1 = blocks(2, 1, 16);
        assert_eq!(c.write_stripe(pid(0), s, v1), OpResult::Written);
        // Recover p3 and crash p2: the quorum must now lean on p3, which
        // must have caught up through subsequent operations.
        let at = c.sim().now();
        c.sim_mut().schedule_recovery(at, pid(3));
        c.sim_mut().run_until(at + 1);
        let v2 = blocks(2, 2, 16);
        assert_eq!(c.write_stripe(pid(1), s, v2.clone()), OpResult::Written);
        let at = c.sim().now();
        c.sim_mut().schedule_crash(at, pid(2));
        c.sim_mut().run_until(at + 1);
        assert_eq!(
            c.read_stripe(pid(0), s),
            OpResult::Stripe(StripeValue::Data(v2))
        );
    }

    #[test]
    fn concurrent_writes_one_aborts_or_both_serialize() {
        let mut c = cluster(2, 4);
        let s = StripeId(0);
        let d1 = blocks(2, 1, 16);
        let d2 = blocks(2, 2, 16);
        // Launch two writes from different coordinators at the same tick.
        c.sim_mut().schedule_call(0, pid(0), {
            let d1 = d1.clone();
            move |b, ctx| {
                b.write_stripe(ctx, s, d1).unwrap();
            }
        });
        c.sim_mut().schedule_call(0, pid(1), {
            let d2 = d2.clone();
            move |b, ctx| {
                b.write_stripe(ctx, s, d2).unwrap();
            }
        });
        c.sim_mut().run_until_idle();
        let done = c.drain_all_completions();
        assert_eq!(done.len(), 2);
        let ok = done.iter().filter(|(_, c)| c.result.is_ok()).count();
        assert!(ok >= 1, "at least one write must succeed: {done:?}");
        // Whatever happened, a subsequent read returns a consistent stripe:
        // one of the two written values (an aborted write may still have
        // taken effect) or nil is impossible since one write succeeded.
        match c.read_stripe(pid(2), s) {
            OpResult::Stripe(StripeValue::Data(got)) => {
                assert!(got == d1 || got == d2, "read a written value");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multi_block_write_then_reads() {
        let mut c = cluster(3, 5);
        let s = StripeId(0);
        c.write_stripe(pid(0), s, blocks(3, 10, 16));
        // Write blocks 0 and 2 in one operation.
        let updates = vec![
            (0usize, Bytes::from(vec![0xA0u8; 16])),
            (2usize, Bytes::from(vec![0xA2u8; 16])),
        ];
        assert_eq!(c.write_blocks(pid(1), s, updates), OpResult::Written);
        // Multi-read returns both new blocks and the untouched middle one.
        match c.read_blocks(pid(2), s, vec![0, 1, 2]) {
            OpResult::Blocks(vs) => {
                assert_eq!(vs[0].materialize(16).unwrap().as_ref(), &[0xA0u8; 16]);
                assert_eq!(vs[1].materialize(16).unwrap().as_ref(), &[11u8; 16]);
                assert_eq!(vs[2].materialize(16).unwrap().as_ref(), &[0xA2u8; 16]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The full stripe decodes consistently (parity was patched for
        // both blocks in one Modify round).
        match c.read_stripe(pid(3), s) {
            OpResult::Stripe(crate::value::StripeValue::Data(got)) => {
                assert_eq!(got[0].as_ref(), &[0xA0u8; 16]);
                assert_eq!(got[1].as_ref(), &[11u8; 16]);
                assert_eq!(got[2].as_ref(), &[0xA2u8; 16]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multi_block_write_on_fresh_stripe() {
        let mut c = cluster(3, 5);
        let s = StripeId(4);
        let updates = vec![
            (1usize, Bytes::from(vec![0xB1u8; 16])),
            (2usize, Bytes::from(vec![0xB2u8; 16])),
        ];
        assert_eq!(c.write_blocks(pid(0), s, updates), OpResult::Written);
        match c.read_stripe(pid(1), s) {
            OpResult::Stripe(crate::value::StripeValue::Data(got)) => {
                assert_eq!(got[0].as_ref(), &[0u8; 16], "unwritten block is zeros");
                assert_eq!(got[1].as_ref(), &[0xB1u8; 16]);
                assert_eq!(got[2].as_ref(), &[0xB2u8; 16]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multi_block_write_with_delta_strategy_matches() {
        use crate::config::WriteStrategy;
        for strategy in [
            WriteStrategy::Paper,
            WriteStrategy::Targeted,
            WriteStrategy::Delta,
        ] {
            let cfg = RegisterConfig::new(3, 5, 16)
                .unwrap()
                .with_write_strategy(strategy);
            let mut c = SimCluster::new(cfg, SimConfig::ideal(42));
            let s = StripeId(0);
            c.write_stripe(pid(0), s, blocks(3, 10, 16));
            let updates = vec![
                (0usize, Bytes::from(vec![0xC0u8; 16])),
                (1usize, Bytes::from(vec![0xC1u8; 16])),
            ];
            assert_eq!(
                c.write_blocks(pid(1), s, updates),
                OpResult::Written,
                "{strategy:?}"
            );
            // Crash both written data bricks: the stripe must decode from
            // the remaining data brick + parity, proving parity is right.
            let at = c.sim().now();
            c.sim_mut().schedule_crash(at, pid(0));
            c.sim_mut().run_until(at + 1);
            match c.read_stripe(pid(3), s) {
                OpResult::Stripe(crate::value::StripeValue::Data(got)) => {
                    assert_eq!(got[0].as_ref(), &[0xC0u8; 16], "{strategy:?}");
                    assert_eq!(got[1].as_ref(), &[0xC1u8; 16], "{strategy:?}");
                    assert_eq!(got[2].as_ref(), &[12u8; 16], "{strategy:?}");
                }
                other => panic!("{strategy:?}: unexpected {other:?}"),
            }
        }
    }

    /// Malformed operations are a typed `InvalidRequest` from `invoke`
    /// (only the typed sugar panics) and leave nothing in flight.
    #[test]
    fn malformed_ops_are_invalid_requests() {
        let mut c = cluster(3, 5);
        let s = StripeId(0);
        let block = || Bytes::from(vec![0u8; 16]);
        let malformed = [
            ClientOp::read_blocks(s, vec![0, 3]), // out of range
            ClientOp::read_blocks(s, vec![1, 1]), // duplicate
            ClientOp::read_blocks(s, vec![2, 0]), // unsorted
            ClientOp::read_blocks(s, vec![]),     // empty
            ClientOp::write_blocks(s, vec![(1, block()), (1, block())]),
            ClientOp::read_block(s, 3),
            ClientOp::write_block(s, 0, Bytes::from(vec![0u8; 15])),
            ClientOp::write_stripe(s, vec![block(); 2]),
        ];
        for op in malformed {
            let name = op.name();
            assert_eq!(
                c.invoke(pid(0), op),
                Err(ClientError::InvalidRequest),
                "{name}"
            );
        }
        assert_eq!(c.sim().actor(pid(0)).coordinator.in_flight(), 0);
        // Still serving: the rejections scheduled nothing.
        assert_eq!(c.read_stripe(pid(0), s), OpResult::Stripe(StripeValue::Nil));
    }

    /// An operation that cannot finish — its coordinator is down, or more
    /// than f bricks are — is `Unavailable` at the deadline, not a panic.
    #[test]
    fn unfinishable_ops_are_unavailable() {
        let mut c = cluster(2, 4); // quorum 3
        c.op_deadline = 20_000;
        for i in 1..4 {
            c.sim_mut().schedule_crash(0, pid(i));
        }
        c.sim_mut().run_until(1);
        let s = StripeId(0);
        let unavailable = Err(ClientError::Unavailable);
        assert_eq!(c.invoke(pid(1), ClientOp::scrub(s)), unavailable);
        assert_eq!(c.invoke(pid(0), ClientOp::read_stripe(s)), unavailable);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = |seed: u64| {
            let mut c = SimCluster::new(
                RegisterConfig::new(2, 4, 16).unwrap(),
                SimConfig::harsh(seed),
            );
            let s = StripeId(0);
            for i in 0..4u8 {
                c.write_stripe(pid(u32::from(i % 4)), s, blocks(2, i, 16));
            }
            let r = c.read_stripe(pid(0), s);
            (c.sim().fingerprint(), format!("{r:?}"))
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn coordinator_metrics_reconcile_with_completions() {
        use crate::obs::OpMetrics;
        let mut c = cluster(2, 4);
        let reg = fab_obs::Registry::new();
        let metrics = OpMetrics::register(&reg);
        for i in 0..4u32 {
            c.sim_mut()
                .actor_mut(pid(i))
                .coordinator
                .set_metrics(Arc::clone(&metrics));
        }
        let s = StripeId(0);
        assert_eq!(
            c.write_stripe(pid(0), s, blocks(2, 7, 16)),
            OpResult::Written
        );
        assert_eq!(
            c.write_block(pid(1), s, 0, Bytes::from(vec![9u8; 16])),
            OpResult::Written
        );
        let fast = c.complete(pid(2), ClientOp::read_stripe(s)).unwrap();
        assert!(!fast.recovered, "ideal-network read should be fast path");
        c.scrub(pid(3), s);
        // Wipe a brick and read again: whatever path that read takes,
        // the instruments must agree with the completion's own flag —
        // the same reconciliation the torture probe runs at scale.
        c.wipe(pid(3));
        let post = c.complete(pid(0), ClientOp::read_stripe(s)).unwrap();
        let (fastpath, recovered) = metrics.reads();
        let expect_recovered = u64::from(post.recovered);
        assert_eq!(recovered, expect_recovered);
        assert_eq!(fastpath, 2 - expect_recovered);
        assert_eq!(metrics.writes_committed(), 2);
        assert_eq!(metrics.scrubs_completed(), 1);
        assert_eq!(metrics.aborts(), 0);
        let snap = reg.export();
        assert_eq!(snap.counter("op_writes_committed"), Some(2));
        let hist_count = |name: &str| {
            snap.histograms
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, h)| h.count)
        };
        // Both write kinds pass through a final store phase, so both
        // record the order/store split.
        assert_eq!(hist_count("op_write_micros"), 2);
        assert_eq!(hist_count("op_write_order_micros"), 2);
        assert_eq!(hist_count("op_write_store_micros"), 2);
        // Every completed op records its round count.
        assert_eq!(hist_count("op_quorum_rounds"), 5);
    }

    #[test]
    fn metrics_do_not_perturb_the_fingerprint() {
        use crate::obs::OpMetrics;
        // L2 determinism: recording metrics never feeds back into the
        // protocol, so a harsh-network run's fingerprint is bit-identical
        // with instruments installed or absent.
        let run = |with_metrics: bool| {
            let mut c = SimCluster::new(
                RegisterConfig::new(2, 4, 16).unwrap(),
                SimConfig::harsh(23),
            );
            if with_metrics {
                let reg = fab_obs::Registry::new();
                let metrics = OpMetrics::register(&reg);
                for i in 0..4u32 {
                    c.sim_mut()
                        .actor_mut(pid(i))
                        .coordinator
                        .set_metrics(Arc::clone(&metrics));
                }
            }
            let s = StripeId(0);
            for i in 0..4u8 {
                c.write_stripe(pid(u32::from(i % 4)), s, blocks(2, i, 16));
            }
            let r = c.read_stripe(pid(0), s);
            (c.sim().fingerprint(), format!("{r:?}"))
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn scrub_of_never_written_stripe_is_a_clean_noop() {
        // A full-brick rebuild visits every stripe the brick could
        // host, most of which were never written. The scrub must
        // complete as `Stripe(Nil)` without manufacturing a synthetic
        // zero value: no disk write may land anywhere.
        let mut c = cluster(2, 4);
        let before = c.disk_metrics();
        assert_eq!(
            c.scrub(pid(1), StripeId(9)),
            OpResult::Stripe(StripeValue::Nil)
        );
        let after = c.disk_metrics();
        assert_eq!(
            after.writes, before.writes,
            "scrubbing an unwritten stripe must not write a synthetic value"
        );
        // The stripe is still writable and readable afterwards.
        let data = blocks(2, 42, 16);
        assert_eq!(
            c.write_stripe(pid(0), StripeId(9), data.clone()),
            OpResult::Written
        );
        assert_eq!(
            c.read_stripe(pid(2), StripeId(9)),
            OpResult::Stripe(StripeValue::Data(data))
        );
    }

    #[test]
    fn wiped_brick_rebuilds_via_scrub() {
        // Replaced-disk model: write stripes, wipe one brick's entire
        // replica state, scrub each stripe, and then verify reads take
        // the fast path again (the wiped brick holds fresh segments).
        let mut c = cluster(3, 5);
        let victim = pid(4);
        let written: Vec<StripeId> = (0..6).map(StripeId).collect();
        for (i, &s) in written.iter().enumerate() {
            c.write_stripe(pid((i % 5) as u32), s, blocks(3, i as u8, 16));
        }
        c.wipe(victim);
        for &s in &written {
            match c.scrub(pid(0), s) {
                OpResult::Stripe(StripeValue::Data(_)) => {}
                other => panic!("scrub of written stripe after wipe: {other:?}"),
            }
        }
        // Post-repair reads complete without the recovery path, even
        // when coordinated by the previously wiped brick.
        for &s in &written {
            let done = c.complete(victim, ClientOp::read_stripe(s)).unwrap();
            assert!(
                !done.recovered,
                "stripe {s:?} still degraded after scrub-rebuild"
            );
            match done.result {
                OpResult::Stripe(StripeValue::Data(_)) => {}
                other => panic!("post-repair read: {other:?}"),
            }
        }
    }
}
