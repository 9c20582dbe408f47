//! The deterministic discrete-event simulation engine.
//!
//! A [`Simulation`] hosts `n` actors (the paper's processes `p_1..p_n`),
//! a fair-loss network between them, and a virtual clock. All randomness
//! flows from one seeded RNG and all events are totally ordered by
//! `(time, sequence-number)`, so a run is a pure function of the seed and
//! the scheduled inputs — crash schedules, partitions, and invocations
//! replay identically, which is what makes protocol bugs reproducible.
//!
//! Actors are *sans-io* state machines implementing [`Actor`]: they react
//! to messages, timers, and recovery, and emit effects (sends, timers)
//! through a [`Context`]. Crashes erase volatile state only; whatever the
//! actor models as persistent must survive its `on_crash`.

use crate::config::SimConfig;
use crate::metrics::{NetMetrics, WireSize};
use crate::rng::Rng64;
use fab_timestamp::ProcessId;
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

/// Virtual time in abstract ticks.
pub type SimTime = u64;

/// Identifier of a pending timer, unique within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(u64);

impl TimerId {
    /// The raw id value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// A process hosted by the simulator.
///
/// Implementations are pure state machines: all I/O goes through the
/// [`Context`]. The simulator calls exactly one handler at a time, so no
/// internal synchronization is needed.
pub trait Actor {
    /// The message type exchanged between actors of this simulation.
    type Msg: Clone + WireSize;

    /// A message from `from` arrived.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: ProcessId, msg: Self::Msg);

    /// A timer set through [`Context::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, timer: TimerId);

    /// The process crashed: discard volatile state. State the actor models
    /// as *persistent* (the paper's `store(var)` data) must survive.
    fn on_crash(&mut self) {}

    /// The process recovered and may re-arm timers or send messages.
    fn on_recover(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }
}

/// Effects an actor requests during one handler invocation.
enum Effect<M> {
    Send { to: ProcessId, msg: M },
    SetTimer { delay: u64, id: TimerId },
    CancelTimer(TimerId),
}

/// Handler-side view of the simulation: lets an actor send messages,
/// manage timers, read the clock, and draw deterministic randomness.
#[derive(Debug)]
pub struct Context<'a, M> {
    pid: ProcessId,
    now: SimTime,
    rng: &'a mut Rng64,
    effects: &'a mut Vec<Effect<M>>,
    next_timer: &'a mut u64,
}

impl<M> std::fmt::Debug for Effect<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Effect::Send { to, .. } => write!(f, "Send(to={to})"),
            Effect::SetTimer { delay, id } => write!(f, "SetTimer({delay}, {id:?})"),
            Effect::CancelTimer(id) => write!(f, "CancelTimer({id:?})"),
        }
    }
}

impl<'a, M> Context<'a, M> {
    /// The process this handler runs on.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to `to` over the fair-loss network. Self-sends are
    /// delivered reliably after `local_delay`.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Arms a timer that fires after `delay` ticks (unless the process
    /// crashes first or the timer is cancelled).
    pub fn set_timer(&mut self, delay: u64) -> TimerId {
        *self.next_timer += 1;
        let id = TimerId(*self.next_timer);
        self.effects.push(Effect::SetTimer { delay, id });
        id
    }

    /// Cancels a pending timer. Cancelling an already-fired or unknown
    /// timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer(id));
    }

    /// The simulation's deterministic RNG.
    pub fn rng(&mut self) -> &mut Rng64 {
        self.rng
    }
}

/// A harness-scheduled invocation on one actor.
type CallFn<A> = Box<dyn FnOnce(&mut A, &mut Context<'_, <A as Actor>::Msg>)>;

enum EventKind<A: Actor> {
    Deliver {
        to: ProcessId,
        from: ProcessId,
        msg: A::Msg,
    },
    Timer {
        pid: ProcessId,
        id: TimerId,
        epoch: u64,
    },
    Crash(ProcessId),
    Recover(ProcessId),
    SetPartition(Vec<u32>),
    Call {
        pid: ProcessId,
        f: CallFn<A>,
    },
}

struct Event<A: Actor> {
    time: SimTime,
    seq: u64,
    kind: EventKind<A>,
}

impl<A: Actor> PartialEq for Event<A> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<A: Actor> Eq for Event<A> {}
impl<A: Actor> PartialOrd for Event<A> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<A: Actor> Ord for Event<A> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

struct Slot<A> {
    actor: A,
    crashed: bool,
    /// Bumped on every crash; timers from older epochs are stale.
    epoch: u64,
}

/// A deterministic discrete-event simulation of `n` actors on a fair-loss
/// network with crash-recovery faults.
///
/// # Examples
///
/// ```
/// use fab_simnet::{Actor, Context, SimConfig, Simulation, TimerId};
/// use fab_timestamp::ProcessId;
///
/// /// An actor that answers every "ping" with a "pong".
/// struct Echo { seen: usize }
/// impl Actor for Echo {
///     type Msg = Vec<u8>;
///     fn on_message(&mut self, ctx: &mut Context<'_, Vec<u8>>, from: ProcessId, msg: Vec<u8>) {
///         self.seen += 1;
///         if msg == b"ping" {
///             ctx.send(from, b"pong".to_vec());
///         }
///     }
///     fn on_timer(&mut self, _: &mut Context<'_, Vec<u8>>, _: TimerId) {}
/// }
///
/// let mut sim = Simulation::new(SimConfig::ideal(42), vec![Echo { seen: 0 }, Echo { seen: 0 }]);
/// sim.schedule_call(0, ProcessId::new(0), |_, ctx| ctx.send(ProcessId::new(1), b"ping".to_vec()));
/// sim.run_until_idle();
/// assert_eq!(sim.actor(ProcessId::new(0)).seen, 1); // echo came back
/// ```
pub struct Simulation<A: Actor> {
    config: SimConfig,
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Event<A>>,
    slots: Vec<Slot<A>>,
    rng: Rng64,
    /// Partition group of each process; differing groups cannot exchange
    /// messages.
    partition: Vec<u32>,
    cancelled: BTreeSet<TimerId>,
    next_timer: u64,
    metrics: NetMetrics,
    fingerprint: u64,
    events_processed: u64,
    /// Panic guard against runaway event loops (e.g. unconditional
    /// retransmission). Configurable via [`Simulation::set_event_cap`].
    event_cap: u64,
}

impl<A: Actor> std::fmt::Debug for Simulation<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("actors", &self.slots.len())
            .field("pending_events", &self.heap.len())
            .field("metrics", &self.metrics)
            .finish()
    }
}

impl<A: Actor> Simulation<A> {
    /// Creates a simulation hosting `actors`, assigned process ids
    /// `p_0..p_{n−1}` in order.
    ///
    /// # Panics
    ///
    /// Panics if `actors` is empty.
    pub fn new(config: SimConfig, actors: Vec<A>) -> Self {
        assert!(!actors.is_empty(), "simulation needs at least one actor");
        let n = actors.len();
        let rng = Rng64::new(config.seed);
        Simulation {
            config,
            now: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            slots: actors
                .into_iter()
                .map(|actor| Slot {
                    actor,
                    crashed: false,
                    epoch: 0,
                })
                .collect(),
            rng,
            partition: vec![0; n],
            cancelled: BTreeSet::new(),
            next_timer: 0,
            metrics: NetMetrics::default(),
            fingerprint: 0xcbf29ce484222325,
            events_processed: 0,
            event_cap: 50_000_000,
        }
    }

    /// Number of hosted actors.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if the simulation hosts no actors (never true; see
    /// [`Simulation::new`]).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Cumulative network metrics.
    pub fn metrics(&self) -> NetMetrics {
        self.metrics
    }

    /// A 64-bit digest of the event history; equal seeds and inputs yield
    /// equal fingerprints (used by determinism tests).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Replaces the runaway-loop guard (default 50 million events).
    pub fn set_event_cap(&mut self, cap: u64) {
        self.event_cap = cap;
    }

    /// Immutable access to an actor.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn actor(&self, pid: ProcessId) -> &A {
        &self.slots[pid.index()].actor
    }

    /// Mutable access to an actor (for harness inspection between runs;
    /// protocol interactions should go through [`Simulation::schedule_call`]).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn actor_mut(&mut self, pid: ProcessId) -> &mut A {
        &mut self.slots[pid.index()].actor
    }

    /// Iterates over `(pid, actor)` pairs.
    pub fn actors(&self) -> impl Iterator<Item = (ProcessId, &A)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| (ProcessId::new(i as u32), &s.actor))
    }

    /// Returns `true` if `pid` is currently crashed.
    pub fn is_crashed(&self, pid: ProcessId) -> bool {
        self.slots[pid.index()].crashed
    }

    fn push(&mut self, time: SimTime, kind: EventKind<A>) {
        self.seq += 1;
        self.heap.push(Event {
            time,
            seq: self.seq,
            kind,
        });
    }

    /// Schedules `pid` to crash at absolute time `at`.
    pub fn schedule_crash(&mut self, at: SimTime, pid: ProcessId) {
        self.push(at, EventKind::Crash(pid));
    }

    /// Schedules `pid` to recover at absolute time `at`.
    pub fn schedule_recovery(&mut self, at: SimTime, pid: ProcessId) {
        self.push(at, EventKind::Recover(pid));
    }

    /// Schedules a network partition at absolute time `at`: processes in
    /// different groups cannot exchange messages. Processes not named in
    /// any group are isolated (each gets its own group).
    pub fn schedule_partition(&mut self, at: SimTime, groups: &[&[ProcessId]]) {
        let mut assignment = vec![u32::MAX; self.slots.len()];
        for (g, members) in groups.iter().enumerate() {
            for p in *members {
                assignment[p.index()] = g as u32;
            }
        }
        // Isolate unnamed processes with unique group ids.
        let mut next = groups.len() as u32;
        for a in &mut assignment {
            if *a == u32::MAX {
                *a = next;
                next += 1;
            }
        }
        self.push(at, EventKind::SetPartition(assignment));
    }

    /// Schedules the healing of all partitions at absolute time `at`.
    pub fn schedule_heal(&mut self, at: SimTime) {
        self.push(at, EventKind::SetPartition(vec![0; self.slots.len()]));
    }

    /// Schedules a closure to run on actor `pid` at absolute time `at`,
    /// with a [`Context`] for sending messages and setting timers. This is
    /// how harnesses invoke operations (the paper's "client requests").
    ///
    /// If `pid` is crashed at `at`, the call is silently skipped — exactly
    /// like a request sent to a dead brick.
    pub fn schedule_call<F>(&mut self, at: SimTime, pid: ProcessId, f: F)
    where
        F: FnOnce(&mut A, &mut Context<'_, A::Msg>) + 'static,
    {
        self.push(
            at,
            EventKind::Call {
                pid,
                f: Box::new(f),
            },
        );
    }

    /// Processes the next event. Returns `false` if no events remain.
    ///
    /// # Panics
    ///
    /// Panics if the event cap is exceeded (runaway loop guard).
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.heap.pop() else {
            return false;
        };
        assert!(
            self.events_processed < self.event_cap,
            "simulation exceeded event cap ({}) — runaway timer loop?",
            self.event_cap
        );
        self.events_processed += 1;
        debug_assert!(ev.time >= self.now, "time went backwards");
        self.now = ev.time;
        self.mix_fingerprint(ev.time, ev.seq, &ev.kind);

        match ev.kind {
            EventKind::Deliver { to, from, msg } => self.deliver(to, from, msg),
            EventKind::Timer { pid, id, epoch } => self.fire_timer(pid, id, epoch),
            EventKind::Crash(pid) => {
                let slot = &mut self.slots[pid.index()];
                if !slot.crashed {
                    slot.crashed = true;
                    slot.epoch += 1;
                    slot.actor.on_crash();
                }
            }
            EventKind::Recover(pid) => {
                if self.slots[pid.index()].crashed {
                    self.slots[pid.index()].crashed = false;
                    self.with_context(pid, Actor::on_recover);
                }
            }
            EventKind::SetPartition(assignment) => {
                self.partition = assignment;
            }
            EventKind::Call { pid, f } => {
                if !self.slots[pid.index()].crashed {
                    self.with_context(pid, |actor, ctx| f(actor, ctx));
                }
            }
        }
        true
    }

    /// Runs until no events remain. Returns the final virtual time.
    pub fn run_until_idle(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }

    /// Runs until virtual time reaches `until` (or the event queue drains).
    /// Events at exactly `until` are processed.
    pub fn run_until(&mut self, until: SimTime) -> SimTime {
        while let Some(ev) = self.heap.peek() {
            if ev.time > until {
                break;
            }
            self.step();
        }
        self.now = self.now.max(until);
        self.now
    }

    /// Runs until `pred` on the actor at `pid` returns `true`, checking
    /// after every event; gives up when the queue drains or `deadline`
    /// passes. Returns `true` if the predicate held.
    pub fn run_until_actor<F>(&mut self, pid: ProcessId, deadline: SimTime, mut pred: F) -> bool
    where
        F: FnMut(&A) -> bool,
    {
        loop {
            if pred(&self.slots[pid.index()].actor) {
                return true;
            }
            match self.heap.peek() {
                Some(ev) if ev.time <= deadline => {
                    self.step();
                }
                _ => return pred(&self.slots[pid.index()].actor),
            }
        }
    }

    fn deliver(&mut self, to: ProcessId, from: ProcessId, msg: A::Msg) {
        if self.slots[to.index()].crashed || self.blocked(from, to) {
            self.metrics.messages_suppressed += 1;
            return;
        }
        self.metrics.messages_delivered += 1;
        self.with_context(to, |actor, ctx| actor.on_message(ctx, from, msg));
    }

    fn fire_timer(&mut self, pid: ProcessId, id: TimerId, epoch: u64) {
        if self.cancelled.remove(&id) {
            return;
        }
        let slot = &self.slots[pid.index()];
        if slot.crashed || slot.epoch != epoch {
            return; // stale timer from before a crash
        }
        self.with_context(pid, |actor, ctx| actor.on_timer(ctx, id));
    }

    fn blocked(&self, a: ProcessId, b: ProcessId) -> bool {
        self.partition[a.index()] != self.partition[b.index()]
    }

    /// Runs `f` on actor `pid` with a fresh context, then applies the
    /// effects it produced (message sends, timer arms/cancels).
    fn with_context<F>(&mut self, pid: ProcessId, f: F)
    where
        F: FnOnce(&mut A, &mut Context<'_, A::Msg>),
    {
        let mut effects: Vec<Effect<A::Msg>> = Vec::new();
        {
            let slot = &mut self.slots[pid.index()];
            let mut ctx = Context {
                pid,
                now: self.now,
                rng: &mut self.rng,
                effects: &mut effects,
                next_timer: &mut self.next_timer,
            };
            f(&mut slot.actor, &mut ctx);
        }
        let epoch = self.slots[pid.index()].epoch;
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => self.route(pid, to, msg),
                Effect::SetTimer { delay, id } => {
                    let at = self.now + delay;
                    self.push(at, EventKind::Timer { pid, id, epoch });
                }
                Effect::CancelTimer(id) => {
                    self.cancelled.insert(id);
                }
            }
        }
    }

    fn route(&mut self, from: ProcessId, to: ProcessId, msg: A::Msg) {
        self.metrics.messages_sent += 1;
        self.metrics.bytes_sent += msg.wire_size() as u64;
        if to.index() >= self.slots.len() {
            self.metrics.messages_suppressed += 1;
            return;
        }
        if from == to {
            // Local loopback: reliable, fixed latency.
            let at = self.now + self.config.local_delay;
            self.push(at, EventKind::Deliver { to, from, msg });
            return;
        }
        if self.blocked(from, to) {
            self.metrics.messages_suppressed += 1;
            return;
        }
        if self.config.drop_probability > 0.0 && self.rng.unit() < self.config.drop_probability {
            self.metrics.messages_dropped += 1;
            return;
        }
        let delay = self.rng.range(self.config.min_delay, self.config.max_delay);
        let duplicate = self.config.duplicate_probability > 0.0
            && self.rng.unit() < self.config.duplicate_probability;
        if duplicate {
            self.metrics.messages_duplicated += 1;
            let extra_delay = self.rng.range(self.config.min_delay, self.config.max_delay);
            self.push(
                self.now + extra_delay,
                EventKind::Deliver {
                    to,
                    from,
                    msg: msg.clone(),
                },
            );
        }
        self.push(self.now + delay, EventKind::Deliver { to, from, msg });
    }

    fn mix_fingerprint(&mut self, time: SimTime, seq: u64, kind: &EventKind<A>) {
        const PRIME: u64 = 0x100000001b3;
        let tag: u64 = match kind {
            EventKind::Deliver { to, from, .. } => {
                0x10 | (u64::from(to.value()) << 8) | (u64::from(from.value()) << 24)
            }
            EventKind::Timer { pid, id, .. } => 0x20 | (u64::from(pid.value()) << 8) | (id.0 << 24),
            EventKind::Crash(p) => 0x30 | (u64::from(p.value()) << 8),
            EventKind::Recover(p) => 0x40 | (u64::from(p.value()) << 8),
            EventKind::SetPartition(_) => 0x50,
            EventKind::Call { pid, .. } => 0x60 | (u64::from(pid.value()) << 8),
        };
        for word in [time, seq, tag] {
            self.fingerprint ^= word;
            self.fingerprint = self.fingerprint.wrapping_mul(PRIME);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test actor that counts messages, echoes pings, and supports
    /// periodic retransmission via timers.
    #[derive(Default)]
    struct Node {
        received: Vec<(ProcessId, Vec<u8>)>,
        timer_fires: usize,
        recovered: usize,
        crashed_count: usize,
        volatile: usize,
    }

    impl Actor for Node {
        type Msg = Vec<u8>;

        fn on_message(&mut self, ctx: &mut Context<'_, Vec<u8>>, from: ProcessId, msg: Vec<u8>) {
            self.volatile += 1;
            if msg == b"ping" && from != ctx.pid() {
                ctx.send(from, b"pong".to_vec());
            }
            self.received.push((from, msg));
        }

        fn on_timer(&mut self, _ctx: &mut Context<'_, Vec<u8>>, _timer: TimerId) {
            self.timer_fires += 1;
        }

        fn on_crash(&mut self) {
            self.crashed_count += 1;
            self.volatile = 0;
        }

        fn on_recover(&mut self, _ctx: &mut Context<'_, Vec<u8>>) {
            self.recovered += 1;
        }
    }

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn two_nodes(seed: u64) -> Simulation<Node> {
        Simulation::new(
            SimConfig::ideal(seed),
            vec![Node::default(), Node::default()],
        )
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim = two_nodes(1);
        sim.schedule_call(0, pid(0), |_, ctx| ctx.send(pid(1), b"ping".to_vec()));
        sim.run_until_idle();
        assert_eq!(sim.actor(pid(1)).received.len(), 1);
        assert_eq!(sim.actor(pid(0)).received[0].1, b"pong");
        // Unit delay each way: pong arrives at t=2.
        assert_eq!(sim.now(), 2);
        let m = sim.metrics();
        assert_eq!(m.messages_sent, 2);
        assert_eq!(m.messages_delivered, 2);
        assert_eq!(m.bytes_sent, 8);
    }

    #[test]
    fn self_send_is_local_and_reliable() {
        let mut sim = Simulation::new(
            SimConfig::ideal(0).drop_probability(0.9),
            vec![Node::default()],
        );
        for _ in 0..20 {
            sim.schedule_call(0, pid(0), |_, ctx| {
                let me = ctx.pid();
                ctx.send(me, b"self".to_vec());
            });
        }
        sim.run_until_idle();
        assert_eq!(sim.actor(pid(0)).received.len(), 20, "loopback never drops");
        assert_eq!(sim.now(), 0, "local delay is zero in ideal config");
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        struct T {
            fired: Vec<u64>,
            cancel_target: Option<TimerId>,
        }
        impl Actor for T {
            type Msg = ();
            fn on_message(&mut self, _: &mut Context<'_, ()>, _: ProcessId, _: ()) {}
            fn on_timer(&mut self, _: &mut Context<'_, ()>, t: TimerId) {
                self.fired.push(t.value());
            }
        }
        let mut sim = Simulation::new(
            SimConfig::ideal(0),
            vec![T {
                fired: vec![],
                cancel_target: None,
            }],
        );
        sim.schedule_call(0, pid(0), |a, ctx| {
            let t1 = ctx.set_timer(10);
            let _t2 = ctx.set_timer(5);
            a.cancel_target = Some(t1);
        });
        sim.schedule_call(1, pid(0), |a, ctx| {
            if let Some(t) = a.cancel_target.take() {
                ctx.cancel_timer(t);
            }
        });
        sim.run_until_idle();
        // Only the 5-tick timer fires; the 10-tick one was cancelled (its
        // queue entry is still popped, so the clock ends at 10).
        assert_eq!(sim.actor(pid(0)).fired.len(), 1);
        assert_eq!(sim.now(), 10);
    }

    #[test]
    fn crash_drops_messages_and_timers_recover_restores() {
        let mut sim = two_nodes(3);
        sim.schedule_call(0, pid(0), |_, ctx| {
            ctx.set_timer(100); // will be stale after crash
        });
        sim.schedule_crash(10, pid(0));
        sim.schedule_call(20, pid(1), |_, ctx| ctx.send(pid(0), b"ping".to_vec()));
        sim.schedule_recovery(50, pid(0));
        sim.schedule_call(60, pid(1), |_, ctx| ctx.send(pid(0), b"ping".to_vec()));
        sim.run_until_idle();

        let a = sim.actor(pid(0));
        assert_eq!(a.crashed_count, 1);
        assert_eq!(a.recovered, 1);
        // Only the post-recovery ping arrived; the timer from before the
        // crash never fired.
        assert_eq!(a.received.len(), 1);
        assert_eq!(a.timer_fires, 0);
        assert_eq!(sim.metrics().messages_suppressed, 1);
    }

    #[test]
    fn crash_clears_volatile_state() {
        let mut sim = two_nodes(4);
        sim.schedule_call(0, pid(1), |_, ctx| ctx.send(pid(0), b"x".to_vec()));
        sim.schedule_crash(5, pid(0));
        sim.schedule_recovery(6, pid(0));
        sim.run_until_idle();
        assert_eq!(sim.actor(pid(0)).volatile, 0);
        assert_eq!(sim.actor(pid(0)).received.len(), 1, "durable log kept");
    }

    #[test]
    fn calls_on_crashed_actor_are_skipped() {
        let mut sim = two_nodes(5);
        sim.schedule_crash(0, pid(0));
        sim.schedule_call(1, pid(0), |_, ctx| ctx.send(pid(1), b"never".to_vec()));
        sim.run_until_idle();
        assert_eq!(sim.metrics().messages_sent, 0);
    }

    #[test]
    fn partition_blocks_and_heals() {
        let mut sim = two_nodes(6);
        sim.schedule_partition(0, &[&[pid(0)], &[pid(1)]]);
        sim.schedule_call(1, pid(0), |_, ctx| ctx.send(pid(1), b"lost".to_vec()));
        sim.schedule_heal(10);
        sim.schedule_call(11, pid(0), |_, ctx| ctx.send(pid(1), b"ok".to_vec()));
        sim.run_until_idle();
        let b = sim.actor(pid(1));
        assert_eq!(b.received.len(), 1);
        assert_eq!(b.received[0].1, b"ok");
        assert_eq!(sim.metrics().messages_suppressed, 1);
    }

    #[test]
    fn unlisted_processes_are_isolated_by_partition() {
        let mut sim = Simulation::new(
            SimConfig::ideal(0),
            vec![Node::default(), Node::default(), Node::default()],
        );
        sim.schedule_partition(0, &[&[pid(0), pid(1)]]);
        sim.schedule_call(1, pid(0), |_, ctx| ctx.send(pid(2), b"x".to_vec()));
        sim.schedule_call(1, pid(0), |_, ctx| ctx.send(pid(1), b"y".to_vec()));
        sim.run_until_idle();
        assert_eq!(sim.actor(pid(2)).received.len(), 0);
        assert_eq!(sim.actor(pid(1)).received.len(), 1);
    }

    #[test]
    fn drops_and_duplicates_are_counted() {
        let mut sim = Simulation::new(
            SimConfig::ideal(9)
                .drop_probability(0.5)
                .duplicate_probability(0.5),
            vec![Node::default(), Node::default()],
        );
        for i in 0..200 {
            sim.schedule_call(i, pid(0), |_, ctx| ctx.send(pid(1), b"m".to_vec()));
        }
        sim.run_until_idle();
        let m = sim.metrics();
        assert_eq!(m.messages_sent, 200);
        assert!(m.messages_dropped > 50, "dropped {}", m.messages_dropped);
        assert!(m.messages_duplicated > 20);
        assert_eq!(
            m.messages_delivered,
            m.messages_sent - m.messages_dropped + m.messages_duplicated
        );
        assert_eq!(
            sim.actor(pid(1)).received.len() as u64,
            m.messages_delivered
        );
    }

    #[test]
    fn identical_seeds_produce_identical_runs() {
        let run = |seed| {
            let mut sim = Simulation::new(
                SimConfig::harsh(seed),
                vec![Node::default(), Node::default(), Node::default()],
            );
            for i in 0..50 {
                sim.schedule_call(i * 3, pid((i % 3) as u32), move |_, ctx| {
                    let to = pid(((i + 1) % 3) as u32);
                    ctx.send(to, b"ping".to_vec());
                });
            }
            sim.schedule_crash(40, pid(2));
            sim.schedule_recovery(90, pid(2));
            sim.run_until_idle();
            (sim.fingerprint(), sim.metrics(), sim.now())
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77).0, run(78).0, "different seeds should diverge");
    }

    #[test]
    fn run_until_stops_at_time() {
        let mut sim = two_nodes(0);
        sim.schedule_call(5, pid(0), |_, ctx| ctx.send(pid(1), b"a".to_vec()));
        sim.schedule_call(100, pid(0), |_, ctx| ctx.send(pid(1), b"b".to_vec()));
        sim.run_until(50);
        assert_eq!(sim.now(), 50);
        assert_eq!(sim.actor(pid(1)).received.len(), 1);
        sim.run_until_idle();
        assert_eq!(sim.actor(pid(1)).received.len(), 2);
    }

    #[test]
    fn run_until_actor_predicate() {
        let mut sim = two_nodes(0);
        sim.schedule_call(5, pid(0), |_, ctx| ctx.send(pid(1), b"a".to_vec()));
        let ok = sim.run_until_actor(pid(1), 1000, |a| !a.received.is_empty());
        assert!(ok);
        assert!(sim.now() <= 10);
        let no = sim.run_until_actor(pid(1), 2000, |a| a.received.len() > 5);
        assert!(!no);
    }

    #[test]
    #[should_panic(expected = "event cap")]
    fn event_cap_catches_runaway_loops() {
        struct Loopy;
        impl Actor for Loopy {
            type Msg = ();
            fn on_message(&mut self, _: &mut Context<'_, ()>, _: ProcessId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, ()>, _: TimerId) {
                ctx.set_timer(1); // re-arms forever
            }
        }
        let mut sim = Simulation::new(SimConfig::ideal(0), vec![Loopy]);
        sim.set_event_cap(1000);
        sim.schedule_call(0, pid(0), |_, ctx| {
            ctx.set_timer(1);
        });
        sim.run_until_idle();
    }

    #[test]
    fn send_to_unknown_pid_is_suppressed() {
        let mut sim = two_nodes(0);
        sim.schedule_call(0, pid(0), |_, ctx| ctx.send(pid(42), b"void".to_vec()));
        sim.run_until_idle();
        assert_eq!(sim.metrics().messages_suppressed, 1);
    }
}
