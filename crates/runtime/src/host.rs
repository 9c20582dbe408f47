//! The brick host: the one wall-clock event loop that drives the sans-io
//! [`Coordinator`] and [`Replica`] state machines, for every substrate
//! that runs on real threads.
//!
//! The paper's replica has a single durability rule — `store(ord-ts)` /
//! `store(log)` completes *before* the reply is sent — and this module is
//! the only place outside the simulator that implements its host side:
//!
//! * **Effects.** The host supplies deadline timers, a monotonic microsecond
//!   clock and the per-brick RNG; `send` pre-decides fault-injection drops
//!   on the event loop (so the RNG stays single-threaded) and hands the
//!   survivor to the [`Transport`].
//! * **Log-before-send.** A replica reply — even one with no new persist
//!   events, since it still acknowledges state whose records may be queued
//!   — rides [`CommitPipeline::submit`] and is fired from the committer
//!   thread strictly after the covering sync. Volatile bricks (no
//!   pipeline) fire at once.
//! * **Fail-stop.** A fenced pipeline fences the brick: it goes silent to
//!   peers and refuses clients with [`ClientError::Unavailable`], which is
//!   indistinguishable from a crash — the fault the protocol tolerates.
//! * **Recovery.** Startup and emulated recovery rebuild the replica map
//!   from [`CommitPipeline::states`] and advance the coordinator clock
//!   past every recovered timestamp.
//!
//! What differs between substrates is confined to [`Transport`]: how a
//! peer send is captured on the event loop and fired later, and where a
//! client's answer goes. `fab-runtime`'s crossbeam channels and
//! `fab-net`'s TCP frames are the two implementations; the host is
//! monomorphised over each, so neither pays for the other.

use crossbeam::channel::{Receiver, RecvTimeoutError};
use fab_core::{
    ClientError, ClientOp, Completion, Coordinator, Effects, Envelope, OpResult, Payload,
    RegisterConfig, Replica, StripeId,
};
use fab_simnet::{FaultPlan, Rng64};
use fab_store::{BrickStore, CommitPipeline, CommitStore};
use fab_timestamp::{ProcessId, Timestamp};
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Compact a brick's log once it accumulates this many records.
pub const COMPACT_THRESHOLD: u64 = 50_000;

/// Prepares a register configuration for a wall-clock host, where a tick
/// is a microsecond. Retransmission intervals below 5 ms are raised to
/// 20 ms, because the simulator's tick-scale default would thrash real
/// channels and sockets; and the fast-path grace is at least a tenth of
/// the retransmission interval, because the simulator's 4 ticks end before
/// a healthy brick's reply that merely lost the race to the first quorum
/// arrives — and the read then pays `Order&Read`, a decode and a
/// write-back to all n bricks for nothing.
#[must_use]
pub fn wall_clock_config(mut cfg: RegisterConfig) -> Arc<RegisterConfig> {
    if cfg.retransmit_interval < 5_000 {
        cfg.retransmit_interval = 20_000;
    }
    cfg.fast_grace = cfg.fast_grace.max(cfg.retransmit_interval / 10);
    Arc::new(cfg)
}

/// What a substrate supplies to the [`Host`]: the two things that
/// genuinely differ between in-process channels and TCP.
pub trait Transport: Send + 'static {
    /// A peer send captured on the event loop — channel cloned or frame
    /// encoded — that can be fired later from the committer thread.
    type Send: Send + 'static;
    /// Where one client's answer goes.
    type ReplyTo: Send + 'static;
    /// Front-end events the host carries but does not interpret
    /// (`fab-net`'s admin frames; uninhabited for channels).
    type Control: Send + 'static;

    /// Captures everything needed to deliver `env` to `to` later. Runs on
    /// the event loop, after fault injection let the send through. `None`
    /// if `to` is not a brick of this cluster.
    fn prepare(&mut self, to: ProcessId, env: Envelope) -> Option<Self::Send>;

    /// Delivers a prepared send (fair-loss: failures are silent).
    fn fire(send: Self::Send);

    /// Fault injection dropped a send to `to` (transports that count
    /// drops override this).
    fn dropped(&mut self, _to: ProcessId) {}

    /// Answers one client.
    fn reply(&mut self, to: Self::ReplyTo, result: Result<OpResult, ClientError>);

    /// Serves one front-end event. `down` is true while the brick is
    /// fenced or emulating a crash: the front end should refuse.
    fn control(&mut self, event: Self::Control, down: bool);
}

/// An event delivered to a brick's event loop.
pub enum Event<T: Transport> {
    /// A protocol message from a brick (self sends loop back here too).
    Net {
        /// The sending brick.
        from: ProcessId,
        /// The message.
        env: Envelope,
    },
    /// A client request and where to answer it.
    Client {
        /// The requested register operation.
        op: ClientOp,
        /// The client's return address.
        reply: T::ReplyTo,
    },
    /// A front-end event for [`Transport::control`].
    Control(T::Control),
    /// Emulate a crash: coordinator state is lost, the brick goes silent
    /// and refuses clients. A durable brick also forgets its replicas (it
    /// reloads them from the log on `Recover`); a volatile brick keeps
    /// them, as NVRAM would.
    Crash,
    /// Emulate recovery from [`Event::Crash`].
    Recover,
    /// Stop the event loop, refusing clients still waiting.
    Shutdown,
}

impl<T: Transport> std::fmt::Debug for Event<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Event::Net { .. } => "Net",
            Event::Client { .. } => "Client",
            Event::Control(_) => "Control",
            Event::Crash => "Crash",
            Event::Recover => "Recover",
            Event::Shutdown => "Shutdown",
        })
    }
}

/// The I/O half of a brick: deadline timers, clock, randomness, fault
/// injection, and the transport. Implements [`Effects`] for the protocol
/// state machines.
struct Io<T> {
    pid: ProcessId,
    transport: T,
    faults: Arc<FaultPlan>,
    epoch: Instant,
    rng: Rng64,
    next_timer: u64,
    timers: BinaryHeap<std::cmp::Reverse<(Instant, u64)>>,
}

impl<T: Transport> Io<T> {
    fn next_deadline(&self) -> Option<Instant> {
        self.timers.peek().map(|r| r.0 .0)
    }

    /// Pops timers whose deadlines have passed. The coordinator ignores
    /// the ones it no longer tracks, so nothing is ever cancelled here.
    fn due_timers(&mut self) -> Vec<u64> {
        let now = Instant::now();
        let mut due = Vec::new();
        while let Some(std::cmp::Reverse((at, id))) = self.timers.peek().copied() {
            if at > now {
                break;
            }
            self.timers.pop();
            due.push(id);
        }
        due
    }

    /// Decides the fate of a send now (fault injection consumes RNG on the
    /// event loop, keeping it deterministic per brick) and captures what
    /// is needed to deliver it later. `None` means the fair-loss channel
    /// dropped it.
    fn defer_send(&mut self, to: ProcessId, env: Envelope) -> Option<T::Send> {
        if to != self.pid && self.faults.should_drop(self.rng.below(1_000_000)) {
            self.transport.dropped(to);
            return None;
        }
        self.transport.prepare(to, env)
    }
}

impl<T: Transport> Effects for Io<T> {
    fn send(&mut self, to: ProcessId, env: Envelope) {
        if let Some(send) = self.defer_send(to, env) {
            T::fire(send);
        }
    }

    fn set_timer(&mut self, delay: u64) -> u64 {
        self.next_timer += 1;
        let id = self.next_timer;
        let at = Instant::now() + Duration::from_micros(delay);
        self.timers.push(std::cmp::Reverse((at, id)));
        id
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn rand_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

/// One brick's event-loop state. Build it with [`Host::new`], then move it
/// to its own thread and call [`Host::run`].
pub struct Host<T: Transport, S: CommitStore = BrickStore> {
    cfg: Arc<RegisterConfig>,
    replicas: HashMap<StripeId, Replica>,
    coordinator: Coordinator,
    io: Io<T>,
    inbox: Receiver<Event<T>>,
    /// Clients awaiting a completion, by coordinator operation id.
    waiting: HashMap<u64, T::ReplyTo>,
    /// Durable backing (the paper's `store(var)`); `None` = a volatile
    /// brick whose replica state lives in memory only.
    pipeline: Option<CommitPipeline<S>>,
    /// Fenced or emulating a crash: silent to peers, refusing clients.
    down: bool,
}

impl<T: Transport, S: CommitStore> std::fmt::Debug for Host<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("pid", &self.io.pid)
            .field("durable", &self.pipeline.is_some())
            .field("down", &self.down)
            .finish_non_exhaustive()
    }
}

impl<T: Transport, S: CommitStore> Host<T, S> {
    /// Assembles brick `coordinator.pid()`'s host and recovers its replica
    /// state from `pipeline` (if any). `cfg` should come from
    /// [`wall_clock_config`]; `epoch` is the zero of the `newTS` clock
    /// hint, and `seed` feeds the brick's RNG (fault injection and
    /// protocol randomness).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: Arc<RegisterConfig>,
        coordinator: Coordinator,
        transport: T,
        inbox: Receiver<Event<T>>,
        pipeline: Option<CommitPipeline<S>>,
        faults: Arc<FaultPlan>,
        epoch: Instant,
        seed: u64,
    ) -> Self {
        let mut host = Host {
            cfg,
            replicas: HashMap::new(),
            io: Io {
                pid: coordinator.pid(),
                transport,
                faults,
                epoch,
                rng: Rng64::new(seed),
                next_timer: 0,
                timers: BinaryHeap::new(),
            },
            coordinator,
            inbox,
            waiting: HashMap::new(),
            pipeline,
            down: false,
        };
        host.load_from_store();
        host
    }

    /// Runs the event loop until [`Event::Shutdown`] or until every sender
    /// of the inbox is gone.
    pub fn run(mut self) {
        loop {
            let event = match self.io.next_deadline() {
                Some(deadline) => {
                    let timeout = deadline.saturating_duration_since(Instant::now());
                    match self.inbox.recv_timeout(timeout) {
                        Ok(ev) => Some(ev),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => return,
                    }
                }
                None => match self.inbox.recv() {
                    Ok(ev) => Some(ev),
                    Err(_) => return,
                },
            };
            // A fenced commit pipeline means some batch failed to reach
            // disk and nothing later ever will: stop participating before
            // touching another event.
            if !self.down
                && self
                    .pipeline
                    .as_ref()
                    .is_some_and(CommitPipeline::is_fenced)
            {
                self.fence();
            }
            match event {
                Some(Event::Shutdown) => {
                    self.refuse_waiting();
                    return;
                }
                Some(Event::Crash) => {
                    self.down = true;
                    self.coordinator.on_crash();
                    self.refuse_waiting();
                    if self.pipeline.is_some() {
                        // A durable brick loses its memory entirely;
                        // recovery reloads from the on-disk log.
                        self.replicas.clear();
                    } else {
                        for r in self.replicas.values_mut() {
                            r.on_crash();
                        }
                    }
                }
                Some(Event::Recover) => {
                    self.down = false;
                    self.load_from_store();
                }
                Some(Event::Control(event)) => self.io.transport.control(event, self.down),
                Some(Event::Net { .. }) if self.down => {} // a dead brick is silent
                Some(Event::Client { reply, .. }) if self.down => {
                    self.io
                        .transport
                        .reply(reply, Err(ClientError::Unavailable));
                }
                Some(Event::Net { from, env }) => self.on_net(from, &env),
                Some(Event::Client { op, reply }) => self.on_client(op, reply),
                None => {}
            }
            if !self.down {
                for id in self.io.due_timers() {
                    self.coordinator.on_timer(&mut self.io, id);
                }
            }
            self.deliver_completions();
        }
    }

    /// Answers every still-pending client with `Unavailable` (a hung
    /// client is worse than a refused one; it fails over at once).
    fn refuse_waiting(&mut self) {
        for (_, reply) in self.waiting.drain() {
            self.io
                .transport
                .reply(reply, Err(ClientError::Unavailable));
        }
    }

    /// Fail-stops the brick after a durable-store failure.
    fn fence(&mut self) {
        eprintln!(
            "fab-brick[{}]: commit pipeline fenced; fencing brick",
            self.io.pid.value()
        );
        self.down = true;
        self.refuse_waiting();
    }

    /// Rebuilds the replica map from the durable store (startup and
    /// recovery), and advances the coordinator's clock past every
    /// recovered timestamp so post-restart operations order after
    /// pre-crash ones without conflict storms.
    fn load_from_store(&mut self) {
        let Some(pipeline) = &self.pipeline else {
            return;
        };
        let (pid, cfg) = (self.io.pid, &self.cfg);
        let mut newest = Timestamp::LOW;
        // `states()` is a FIFO barrier on the committer: every append
        // submitted before this call is reflected in the snapshot.
        self.replicas = pipeline
            // xtask-allow(no-blocking-on-event-loop): recovery runs before the brick serves traffic; the barrier on the committer is the point of load_from_store
            .states()
            .into_iter()
            .map(|(stripe, st)| {
                newest = newest.max(st.ord_ts).max(st.log.max_ts());
                let mut r = Replica::from_parts(pid, cfg.clone(), st.ord_ts, st.log);
                r.enable_persistence();
                (stripe, r)
            })
            .collect();
        self.coordinator.observe_timestamp(newest);
    }

    fn on_net(&mut self, from: ProcessId, env: &Envelope) {
        let req = match &env.kind {
            Payload::Request(req) => req,
            Payload::Reply(_) => return self.coordinator.on_reply(&mut self.io, from, env),
        };
        let (stripe, round) = (env.stripe, env.round);
        let (pid, cfg) = (self.io.pid, &self.cfg);
        let durable = self.pipeline.is_some();
        let replica = self.replicas.entry(stripe).or_insert_with(|| {
            let mut r = Replica::new(pid, cfg.clone());
            if durable {
                r.enable_persistence();
            }
            r
        });
        let reply = replica.handle(req);
        let records: Vec<_> = if durable {
            replica
                .take_persist_events()
                .into_iter()
                .map(|event| (stripe, event))
                .collect()
        } else {
            Vec::new()
        };
        let send = reply.and_then(|reply| {
            let kind = Payload::Reply(reply);
            let env = Envelope { stripe, round, kind };
            self.io.defer_send(from, env)
        });
        match &self.pipeline {
            // Log-before-send: the reply leaves only after the sync
            // covering this request's records. A reply with no records of
            // its own still rides the pipeline as an empty barrier — it
            // may reference state whose records are queued but not yet
            // synced. Group commit coalesces concurrent requests into one
            // write + one sync on the committer thread.
            Some(pipeline) => {
                if records.is_empty() && send.is_none() {
                    return; // nothing to persist, nothing to ack
                }
                pipeline.submit(records, move |is_durable| {
                    // !is_durable: the pipeline fenced. Never ack state
                    // that did not reach disk; the event loop notices and
                    // fences the whole brick.
                    if is_durable {
                        if let Some(send) = send {
                            T::fire(send);
                        }
                    }
                });
            }
            None => {
                if let Some(send) = send {
                    T::fire(send);
                }
            }
        }
    }

    fn on_client(&mut self, op: ClientOp, reply: T::ReplyTo) {
        match self.coordinator.invoke(&mut self.io, op) {
            Ok(op_id) => {
                self.waiting.insert(op_id, reply);
            }
            Err(_) => self
                .io
                .transport
                .reply(reply, Err(ClientError::InvalidRequest)),
        }
    }

    fn deliver_completions(&mut self) {
        for Completion { op, result, .. } in self.coordinator.drain_completions() {
            if let Some(reply) = self.waiting.remove(&op) {
                self.io.transport.reply(reply, Ok(result));
            }
        }
    }
}
