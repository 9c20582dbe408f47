//! The brick host: the one wall-clock event loop that drives the sans-io
//! [`Coordinator`] and [`Replica`] state machines, for every substrate
//! that runs on real threads.
//!
//! The paper's replica has a single durability rule — `store(ord-ts)` /
//! `store(log)` completes *before* the reply is sent — and this module is
//! the only place outside the simulator that implements its host side:
//!
//! * **Effects.** The host supplies deadline timers, a monotonic microsecond
//!   clock and the per-brick RNG; `send` draws the fault-injection verdict
//!   and hands the survivor to the [`Transport`].
//! * **Log-before-send, by statement order.** One *turn* of [`Host::run`]
//!   blocks for one event, then takes whatever else has queued (at most
//!   [`MAX_BATCH_RECORDS`] events). Each replica request leaves its persist
//!   events on the turn and its reply behind them; the turn ends with
//!   **one** [`CommitStatsHandle::commit`] — one write, one sync — and only
//!   then are those replies sent, in order. Requests that queued while one
//!   sync ran share the next: that is group commit, on the one thread the
//!   brick has. What carries no unsynced state does not wait: coordinator
//!   requests, client completions, and the reply of a stripe with no
//!   record on the turn. A volatile brick (no store) takes the same path
//!   minus the sync.
//! * **Fail-stop.** A failed commit fences the brick for good: nothing of
//!   the turn is sent, it goes silent to peers and refuses clients with
//!   [`ClientError::Unavailable`], which is indistinguishable from a crash
//!   — the fault the protocol tolerates.
//! * **Recovery.** Startup and emulated recovery rebuild the replica map
//!   from [`CommitStore::states`] and advance the coordinator clock past
//!   every recovered timestamp.
//!
//! What differs between substrates is confined to [`Transport`]: how an
//! envelope reaches a peer and where a client's answer goes. `fab-runtime`'s
//! crossbeam channels and `fab-net`'s TCP frames are the two
//! implementations; the host is monomorphised over each, so neither pays
//! for the other.

// Rule L1 (no-panic), DESIGN.md §6: a panic on the event loop kills the brick.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crossbeam::channel::{Receiver, RecvTimeoutError};
use fab_core::{
    ClientError, ClientOp, Completion, Coordinator, Effects, Envelope, OpResult, Payload,
    PersistEvent, RegisterConfig, Replica, StripeId,
};
use fab_simnet::{FaultPlan, Rng64};
use fab_store::commit::MAX_BATCH_RECORDS;
use fab_store::{BrickStore, CommitStatsHandle, CommitStore};
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
    /// Where one client's answer goes.
    type ReplyTo: Send + 'static;
    /// Front-end events the host carries but does not interpret
    /// (`fab-net`'s admin frames; uninhabited for channels).
    type Control: Send + 'static;

    /// Delivers `env` to brick `to`, after fault injection let the send
    /// through (fair-loss: failures, and a `to` outside this cluster, are
    /// silent).
    fn send(&mut self, to: ProcessId, env: Envelope);

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
    /// Emulate recovery from [`Event::Crash`]. Nothing else is recovered
    /// from: a brick fenced by a failed commit stays down.
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

    /// Fault injection's verdict on one send to `to`, drawn when the send
    /// is decided (not when it leaves), so the per-brick RNG stream does
    /// not depend on how turns fall. `false`: the fair-loss channel
    /// dropped it.
    fn admits(&mut self, to: ProcessId) -> bool {
        let drop = to != self.pid && self.faults.should_drop(self.rng.below(1_000_000));
        if drop {
            self.transport.dropped(to);
        }
        !drop
    }
}

impl<T: Transport> Effects for Io<T> {
    fn send(&mut self, to: ProcessId, env: Envelope) {
        if self.admits(to) {
            self.transport.send(to, env);
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

/// Whether the brick takes part. Only a crash can be recovered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Up,
    /// Emulating a crash until [`Event::Recover`].
    Crashed,
    /// A commit failed: down for good.
    Fenced,
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
    /// Durable backing (the paper's `store(var)`) and the instruments its
    /// commits are counted in; `None` = a volatile brick whose replica
    /// state lives in memory only.
    store: Option<(S, CommitStatsHandle)>,
    /// This turn's persist events, not yet synced...
    records: Vec<(StripeId, PersistEvent)>,
    /// ...and the replica replies that may leave only once they are.
    replies: Vec<(ProcessId, Envelope)>,
    status: Status,
}

impl<T: Transport, S: CommitStore> std::fmt::Debug for Host<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("pid", &self.io.pid)
            .field("durable", &self.store.is_some())
            .field("status", &self.status)
            .finish_non_exhaustive()
    }
}

impl<T: Transport, S: CommitStore> Host<T, S> {
    /// Assembles brick `coordinator.pid()`'s host and recovers its replica
    /// state from `store` (if any). `cfg` should come from
    /// [`wall_clock_config`]; `epoch` is the zero of the `newTS` clock
    /// hint, and `seed` feeds the brick's RNG (fault injection and
    /// protocol randomness).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: Arc<RegisterConfig>,
        coordinator: Coordinator,
        transport: T,
        inbox: Receiver<Event<T>>,
        store: Option<(S, CommitStatsHandle)>,
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
            store,
            records: Vec::new(),
            replies: Vec::new(),
            status: Status::Up,
        };
        host.load_from_store();
        host
    }

    /// Runs the event loop until [`Event::Shutdown`] or until every sender
    /// of the inbox is gone.
    pub fn run(mut self) {
        loop {
            let mut next = match self.io.next_deadline() {
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
            // One turn: that event and whatever else has queued, up to the
            // bound that lets timers and completions run under any load.
            let (mut taken, mut stop) = (0, false);
            while let Some(event) = next {
                let up = self.status == Status::Up;
                match event {
                    Event::Shutdown => {
                        stop = true;
                        break;
                    }
                    Event::Crash if up => {
                        self.go_down(Status::Crashed);
                        if self.store.is_some() {
                            // A durable brick loses its memory entirely;
                            // recovery reloads from the on-disk log.
                            self.replicas.clear();
                        } else {
                            for r in self.replicas.values_mut() {
                                r.on_crash();
                            }
                        }
                    }
                    Event::Recover if self.status == Status::Crashed => {
                        self.status = Status::Up;
                        self.load_from_store();
                    }
                    // Already down, or nothing to recover from: a fenced
                    // brick stays fenced.
                    Event::Crash | Event::Recover => {}
                    Event::Control(event) => self.io.transport.control(event, !up),
                    Event::Net { .. } if !up => {} // a dead brick is silent
                    Event::Client { reply, .. } if !up => {
                        self.io
                            .transport
                            .reply(reply, Err(ClientError::Unavailable));
                    }
                    Event::Net { from, env } => self.on_net(from, &env),
                    Event::Client { op, reply } => self.on_client(op, reply),
                }
                taken += 1;
                next = if taken < MAX_BATCH_RECORDS {
                    self.inbox.try_recv().ok()
                } else {
                    None
                };
            }
            if self.status == Status::Up {
                for id in self.io.due_timers() {
                    self.coordinator.on_timer(&mut self.io, id);
                }
            }
            // Before the sync, not after: a completion rests on replies
            // other bricks had already synced for, never on this turn's
            // records (this brick's own reply only leaves below).
            self.deliver_completions();
            self.commit_turn();
            if stop {
                self.refuse_waiting();
                return;
            }
        }
    }

    /// Ends a turn: one group commit of the turn's records, then — and only
    /// then — the replies they back, in order. The one place the event
    /// loop waits on the disk.
    fn commit_turn(&mut self) {
        let Some((store, stats)) = &mut self.store else {
            return;
        };
        if self.records.is_empty() {
            return; // and no reply was held back either
        }
        if stats.commit(store, &self.records).is_err() {
            // Never ack state that did not reach disk.
            return self.fence();
        }
        self.records.clear();
        for (to, env) in self.replies.drain(..) {
            self.io.transport.send(to, env);
        }
        // After the replies have left: a compaction rewrites all live
        // state. If it fails the batch above is durable all the same, but
        // nothing later would be.
        if store.maybe_compact(COMPACT_THRESHOLD).is_err() {
            self.fence();
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

    /// Stops taking part: the operations this brick coordinates and the
    /// turn it has not synced are lost, as in a crash, and the clients
    /// still waiting are told so.
    fn go_down(&mut self, status: Status) {
        self.status = status;
        self.coordinator.on_crash();
        self.refuse_waiting();
        self.records.clear();
        self.replies.clear();
    }

    /// Fail-stops the brick after a durable-store failure.
    fn fence(&mut self) {
        eprintln!(
            "fab-brick[{}]: commit failed; fencing brick",
            self.io.pid.value()
        );
        self.go_down(Status::Fenced);
    }

    /// Rebuilds the replica map from the durable store (startup and
    /// recovery), and advances the coordinator's clock past every
    /// recovered timestamp so post-restart operations order after
    /// pre-crash ones without conflict storms.
    fn load_from_store(&mut self) {
        let Some((store, _)) = &self.store else {
            return;
        };
        let (pid, cfg) = (self.io.pid, &self.cfg);
        let mut newest = Timestamp::LOW;
        self.replicas = store
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
        let durable = self.store.is_some();
        let replica = self.replicas.entry(stripe).or_insert_with(|| {
            let mut r = Replica::new(pid, cfg.clone());
            if durable {
                r.enable_persistence();
            }
            r
        });
        let reply = replica.handle(req);
        if durable {
            let events = replica.take_persist_events();
            self.records
                .extend(events.into_iter().map(|event| (stripe, event)));
        }
        if let Some(reply) = reply {
            if self.io.admits(from) {
                let kind = Payload::Reply(reply);
                let env = Envelope { stripe, round, kind };
                // Every earlier turn ended in its sync, so a stripe with
                // no record on this turn has nothing unsynced to
                // acknowledge: its reply (a read's, typically) leaves now.
                // Any other waits for the end of the turn, even with no
                // records of its own.
                if self.records.iter().any(|(s, _)| *s == stripe) {
                    self.replies.push((from, env));
                } else {
                    self.io.transport.send(from, env);
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
