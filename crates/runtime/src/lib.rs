//! Threaded in-process cluster runtime for the storage-register protocol,
//! and the brick host every real-time substrate runs.
//!
//! The simulator (`fab-simnet`) exists to test the protocol under
//! controlled asynchrony; this crate exists to *run* it: every brick is a
//! thread, timers are real deadlines, and `newTS` clock hints come from a
//! monotonic microsecond clock. The protocol logic —
//! [`fab_core::Coordinator`] and [`fab_core::Replica`] — is byte-for-byte
//! the same code that runs under simulation; only the
//! [`fab_core::Effects`] implementation differs. That is the payoff of the
//! sans-io design: asynchrony bugs are hunted deterministically, then the
//! same state machines are deployed on threads.
//!
//! [`host`] is that deployment: one event loop that syncs a turn's records
//! and then sends its replies (group commit, log-before-send), fail-stop
//! fencing, recovery from the log, and emulated crash/recover, generic over
//! a small [`host::Transport`]. This
//! crate supplies the crossbeam-channel transport; `fab-net` supplies the
//! TCP one and runs the very same host.
//!
//! [`RuntimeCluster`] owns the brick threads; [`RuntimeClient`] is a
//! cloneable blocking handle implementing [`fab_core::RegisterClient`],
//! the same interface the simulated and TCP clients serve (so a
//! `fab_volume::Volume` runs on it directly). Fault injection mirrors the
//! simulator: bricks can be "crashed" (they go silent, refuse clients and
//! lose coordinator state, keeping replica state — NVRAM/disk survive real
//! crashes) and recovered, and the channel layer can drop messages
//! probabilistically.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod host;

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use fab_core::{
    ClientError, ClientOp, Coordinator, Envelope, OpResult, RegisterClient, RegisterConfig,
    StripeId,
};
use fab_simnet::FaultPlan;
use fab_store::{BrickStore, CommitStats, CommitStatsHandle, CommitStore};
use fab_timestamp::ProcessId;
use host::{Host, Transport};
use std::convert::Infallible;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Event = host::Event<Channels>;

/// The crossbeam-channel [`Transport`]: a peer send goes into the target
/// brick's inbox, and a client's answer goes down a capacity-1 channel the
/// client is parked on.
struct Channels {
    pid: ProcessId,
    peers: Vec<Sender<Event>>,
}

impl Transport for Channels {
    type ReplyTo = Sender<Result<OpResult, ClientError>>;
    type Control = Infallible;

    fn send(&mut self, to: ProcessId, env: Envelope) {
        if let Some(tx) = self.peers.get(to.index()) {
            let _ = tx.send(Event::Net { from: self.pid, env });
        }
    }

    fn reply(&mut self, to: Self::ReplyTo, result: Result<OpResult, ClientError>) {
        let _ = to.send(result);
    }

    fn control(&mut self, event: Infallible, _down: bool) {
        match event {}
    }
}

/// A running cluster of brick threads.
///
/// # Examples
///
/// ```
/// use fab_runtime::RuntimeCluster;
/// use fab_core::{OpResult, RegisterClient, RegisterConfig, StripeId, StripeValue};
/// use bytes::Bytes;
///
/// let cluster = RuntimeCluster::new(RegisterConfig::new(2, 4, 64)?);
/// let mut client = cluster.client();
/// let stripe: Vec<Bytes> = vec![Bytes::from(vec![1u8; 64]), Bytes::from(vec![2u8; 64])];
/// let w = client.write_stripe(StripeId(0), stripe.clone())?;
/// assert_eq!(w, OpResult::Written);
/// let r = client.read_stripe(StripeId(0))?;
/// assert_eq!(r, OpResult::Stripe(StripeValue::Data(stripe)));
/// cluster.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct RuntimeCluster {
    senders: Vec<Sender<Event>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    cfg: Arc<RegisterConfig>,
    faults: Arc<FaultPlan>,
    next_coordinator: AtomicU32,
    /// Per-brick commit instruments (empty slots for volatile clusters).
    commit_stats: Vec<Option<CommitStatsHandle>>,
    /// Per-brick metrics registries: op-lifecycle instruments from the
    /// coordinator plus (on durable clusters) the `store_*` commit
    /// instruments.
    obs: Vec<Arc<fab_obs::Registry>>,
}

impl RuntimeCluster {
    /// Spawns `cfg.n()` brick threads with volatile (in-memory) replica
    /// state.
    ///
    /// Retransmission intervals below 5 ms are raised to 20 ms (see
    /// [`host::wall_clock_config`]).
    pub fn new(cfg: RegisterConfig) -> Self {
        Self::build(cfg, |_| None::<BrickStore>)
    }

    /// Spawns `cfg.n()` brick threads whose replica state is durably
    /// backed by append-only logs under `dir` (`brick-<i>.log`). State
    /// written before a shutdown — or before an emulated crash — is
    /// recovered on the next start (or on [`RuntimeCluster::recover`]).
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created or a brick log cannot be
    /// opened/replayed.
    pub fn with_persistence<P: AsRef<std::path::Path>>(cfg: RegisterConfig, dir: P) -> Self {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).expect("create brick store directory");
        Self::build(cfg, |i| {
            Some(BrickStore::open(dir.join(format!("brick-{i}.log"))).expect("open brick store"))
        })
    }

    /// Spawns the brick threads; `store(i)` is brick `i`'s durable backing
    /// (`None` = volatile).
    fn build<S: CommitStore>(
        cfg: RegisterConfig,
        mut store: impl FnMut(usize) -> Option<S>,
    ) -> Self {
        let cfg = host::wall_clock_config(cfg);
        let n = cfg.n();
        let faults = Arc::new(FaultPlan::new());
        let epoch = Instant::now();
        let channels: Vec<(Sender<Event>, Receiver<Event>)> = (0..n).map(|_| unbounded()).collect();
        let senders: Vec<Sender<Event>> = channels.iter().map(|(s, _)| s.clone()).collect();
        let mut handles = Vec::with_capacity(n);
        let mut commit_stats = Vec::with_capacity(n);
        let mut obs = Vec::with_capacity(n);
        for (i, (_, inbox)) in channels.into_iter().enumerate() {
            let pid = ProcessId::new(i as u32);
            let registry = Arc::new(fab_obs::Registry::new());
            let store = store(i).map(|s| (s, CommitStatsHandle::registered(&registry)));
            commit_stats.push(store.as_ref().map(|(_, stats)| stats.clone()));
            let mut coordinator = Coordinator::new(pid, cfg.clone());
            coordinator.set_metrics(fab_core::OpMetrics::register(&registry));
            obs.push(registry);
            let transport = Channels {
                pid,
                peers: senders.clone(),
            };
            let host = Host::new(
                cfg.clone(),
                coordinator,
                transport,
                inbox,
                store,
                faults.clone(),
                epoch,
                0x5eed ^ i as u64,
            );
            handles.push(
                std::thread::Builder::new()
                    .name(format!("fab-brick-{i}"))
                    .spawn(move || host.run())
                    .expect("spawn brick thread"),
            );
        }
        RuntimeCluster {
            senders,
            handles: Mutex::new(handles),
            cfg,
            faults,
            next_coordinator: AtomicU32::new(0),
            commit_stats,
            obs,
        }
    }

    /// Brick `pid`'s metrics registry: coordinator op-lifecycle
    /// instruments (`op_*`) plus, on durable clusters, the `store_*` commit
    /// instruments. `None` if `pid` is out of range.
    #[must_use]
    pub fn obs_registry(&self, pid: ProcessId) -> Option<Arc<fab_obs::Registry>> {
        self.obs.get(pid.index()).cloned()
    }

    /// A snapshot of brick `pid`'s group-commit counters, or `None` for
    /// volatile clusters. `committed / syncs` is the achieved group-commit
    /// factor.
    #[must_use]
    pub fn commit_stats(&self, pid: ProcessId) -> Option<CommitStats> {
        self.commit_stats
            .get(pid.index())?
            .as_ref()
            .map(CommitStatsHandle::stats)
    }

    /// The shared register configuration.
    pub fn config(&self) -> &RegisterConfig {
        &self.cfg
    }

    /// Creates a blocking client handle.
    pub fn client(&self) -> RuntimeClient {
        RuntimeClient {
            senders: self.senders.clone(),
            cfg: self.cfg.clone(),
            next: self.next_coordinator.fetch_add(1, Ordering::Relaxed),
            timeout: Duration::from_secs(5),
        }
    }

    /// Sets the probability that any inter-brick message transmission is
    /// dropped (fair-loss fault injection, shared [`FaultPlan`] semantics:
    /// values are clamped into `[0, 1]`).
    pub fn set_drop_probability(&self, p: f64) {
        self.faults.set_drop_probability(p);
    }

    /// The shared fault-injection plan, for harnesses that drive several
    /// transports from one plan.
    #[must_use]
    pub fn fault_plan(&self) -> Arc<FaultPlan> {
        self.faults.clone()
    }

    /// Emulates a crash of `pid`: coordinator state is lost, replica state
    /// (the paper's persistent `ord-ts` and log) survives, and the brick
    /// ignores its peers and refuses clients until
    /// [`RuntimeCluster::recover`].
    pub fn crash(&self, pid: ProcessId) {
        let _ = self.senders[pid.index()].send(Event::Crash);
    }

    /// Recovers a crashed brick.
    pub fn recover(&self, pid: ProcessId) {
        let _ = self.senders[pid.index()].send(Event::Recover);
    }

    /// Stops all brick threads and joins them.
    pub fn shutdown(&self) {
        for s in &self.senders {
            let _ = s.send(Event::Shutdown);
        }
        // Runs from `Drop` too, so a poisoned lock must not panic: the
        // vector of handles is valid at every step.
        let mut handles = self.handles.lock().unwrap_or_else(PoisonError::into_inner);
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for RuntimeCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A blocking client for a [`RuntimeCluster`]. Cloneable; coordinators are
/// rotated per request. All seven typed calls come from its
/// [`RegisterClient`] impl; the inherent three below spare callers the
/// trait import.
#[derive(Debug, Clone)]
pub struct RuntimeClient {
    senders: Vec<Sender<Event>>,
    cfg: Arc<RegisterConfig>,
    next: u32,
    /// Per-attempt wait before trying the next brick.
    pub timeout: Duration,
}

impl RegisterClient for RuntimeClient {
    fn config(&self) -> RegisterConfig {
        (*self.cfg).clone()
    }

    /// Tries up to n bricks: a crashed or fenced brick refuses or never
    /// answers, the next one will (client-side failover needs no failure
    /// detector — §1.3). [`ClientError::Unavailable`] once all n were
    /// tried: every one is down, unreachable, or its thread has exited.
    fn invoke(&mut self, op: ClientOp) -> Result<OpResult, ClientError> {
        let n = self.senders.len();
        for _ in 0..n {
            let target = (self.next as usize) % n;
            self.next = self.next.wrapping_add(1);
            let (reply, rx) = bounded(1);
            let op = op.clone();
            if self.senders[target]
                .send(Event::Client { op, reply })
                .is_err()
            {
                continue; // its thread has exited: as dead as a crashed brick
            }
            match rx.recv_timeout(self.timeout) {
                Ok(Ok(result)) => return Ok(result),
                Ok(Err(ClientError::InvalidRequest)) => return Err(ClientError::InvalidRequest),
                // Refused (brick down), dropped, or timed out: fail over.
                Ok(Err(_)) | Err(_) => {}
            }
        }
        Err(ClientError::Unavailable)
    }
}

impl RuntimeClient {
    /// [`RegisterClient::write_stripe`].
    pub fn write_stripe(
        &mut self,
        stripe: StripeId,
        blocks: Vec<Bytes>,
    ) -> Result<OpResult, ClientError> {
        self.invoke(ClientOp::write_stripe(stripe, blocks))
    }

    /// [`RegisterClient::read_block`].
    pub fn read_block(&mut self, stripe: StripeId, j: usize) -> Result<OpResult, ClientError> {
        self.invoke(ClientOp::read_block(stripe, j))
    }

    /// [`RegisterClient::write_block`].
    pub fn write_block(
        &mut self,
        stripe: StripeId,
        j: usize,
        block: Bytes,
    ) -> Result<OpResult, ClientError> {
        self.invoke(ClientOp::write_block(stripe, j, block))
    }
}

#[cfg(test)]
#[path = "../tests/support/host_conformance.rs"]
mod host_conformance;

#[cfg(test)]
mod tests {
    use super::*;
    use fab_core::{BlockValue, StripeValue};

    /// The host conformance suite over the channel transport.
    mod channels {
        use super::super::*;
        use host_conformance::{Cluster, StoreCtl};

        impl Cluster for RuntimeCluster {
            const NAME: &'static str = "channels";
            type Client = RuntimeClient;

            fn on_disk(cfg: RegisterConfig, dir: &std::path::Path) -> Self {
                RuntimeCluster::with_persistence(cfg, dir)
            }
            fn on_stores(cfg: RegisterConfig, ctls: &[StoreCtl]) -> Self {
                RuntimeCluster::build(cfg, |i| Some(ctls[i].store()))
            }
            fn client(&self) -> RuntimeClient {
                RuntimeCluster::client(self)
            }
            fn invoke(client: &mut RuntimeClient, op: ClientOp) -> Result<OpResult, String> {
                RegisterClient::invoke(client, op).map_err(|e| e.to_string())
            }
            fn ask(
                &self,
                pid: ProcessId,
                op: ClientOp,
                wait: Duration,
            ) -> Option<Result<OpResult, ClientError>> {
                let (reply, rx) = bounded(1);
                self.senders[pid.index()]
                    .send(Event::Client { op, reply })
                    .ok()?;
                rx.recv_timeout(wait).ok()
            }
            fn crash(&self, pid: ProcessId) {
                RuntimeCluster::crash(self, pid);
            }
            fn recover(&self, pid: ProcessId) {
                RuntimeCluster::recover(self, pid);
            }
            fn shutdown(self) {
                RuntimeCluster::shutdown(&self);
            }
        }

        host_conformance::suite!(RuntimeCluster);
    }

    fn blocks(m: usize, seed: u8, size: usize) -> Vec<Bytes> {
        (0..m)
            .map(|i| Bytes::from(vec![seed.wrapping_add(i as u8); size]))
            .collect()
    }

    #[test]
    fn write_read_round_trip_on_threads() {
        let cluster = RuntimeCluster::new(RegisterConfig::new(2, 4, 32).unwrap());
        let mut client = cluster.client();
        let data = blocks(2, 7, 32);
        assert_eq!(
            client.write_stripe(StripeId(0), data.clone()).unwrap(),
            OpResult::Written
        );
        assert_eq!(
            client.read_stripe(StripeId(0)).unwrap(),
            OpResult::Stripe(StripeValue::Data(data))
        );
        cluster.shutdown();
    }

    #[test]
    fn block_ops_on_threads() {
        let cluster = RuntimeCluster::new(RegisterConfig::new(3, 5, 16).unwrap());
        let mut client = cluster.client();
        let b = Bytes::from(vec![0x42; 16]);
        assert_eq!(
            client.write_block(StripeId(3), 1, b.clone()).unwrap(),
            OpResult::Written
        );
        assert_eq!(
            client.read_block(StripeId(3), 1).unwrap(),
            OpResult::Block(BlockValue::Data(b))
        );
        // Sibling still reads as zeros (either as explicit data from a
        // slow-path materialization or as the nil initial value).
        match client.read_block(StripeId(3), 0).unwrap() {
            OpResult::Block(v) => {
                assert_eq!(v.materialize(16), Some(Bytes::from(vec![0u8; 16])));
            }
            other => panic!("unexpected {other:?}"),
        }
        cluster.shutdown();
    }

    #[test]
    fn multiple_clients_share_the_cluster() {
        let cluster = RuntimeCluster::new(RegisterConfig::new(2, 4, 16).unwrap());
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let mut client = cluster.client();
            handles.push(std::thread::spawn(move || {
                // Each thread owns its own stripe: no conflicts.
                let stripe = StripeId(u64::from(t));
                for i in 0..10u8 {
                    let data = blocks(2, t.wrapping_mul(31).wrapping_add(i), 16);
                    let w = client.write_stripe(stripe, data.clone()).unwrap();
                    assert_eq!(w, OpResult::Written);
                    let r = client.read_stripe(stripe).unwrap();
                    assert_eq!(r, OpResult::Stripe(StripeValue::Data(data)));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        cluster.shutdown();
    }

    #[test]
    fn survives_message_loss() {
        let cluster = RuntimeCluster::new(RegisterConfig::new(2, 4, 16).unwrap());
        cluster.set_drop_probability(0.10);
        let mut client = cluster.client();
        for i in 0..5u8 {
            let data = blocks(2, i, 16);
            assert_eq!(
                client.write_stripe(StripeId(0), data.clone()).unwrap(),
                OpResult::Written
            );
            assert_eq!(
                client.read_stripe(StripeId(0)).unwrap(),
                OpResult::Stripe(StripeValue::Data(data))
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn crashed_brick_fails_over_and_recovers() {
        let cluster = RuntimeCluster::new(RegisterConfig::new(2, 4, 16).unwrap());
        let mut client = cluster.client();
        client.timeout = Duration::from_millis(500);
        let data = blocks(2, 9, 16);
        client.write_stripe(StripeId(0), data.clone()).unwrap();

        cluster.crash(ProcessId::new(0));
        // Reads still succeed (some attempts may fail over past brick 0).
        for _ in 0..4 {
            let r = client.read_stripe(StripeId(0)).unwrap();
            assert_eq!(r, OpResult::Stripe(StripeValue::Data(data.clone())));
        }
        cluster.recover(ProcessId::new(0));
        let data2 = blocks(2, 21, 16);
        assert_eq!(
            client.write_stripe(StripeId(0), data2.clone()).unwrap(),
            OpResult::Written
        );
        assert_eq!(
            client.read_stripe(StripeId(0)).unwrap(),
            OpResult::Stripe(StripeValue::Data(data2))
        );
        cluster.shutdown();
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let cluster = RuntimeCluster::new(RegisterConfig::new(2, 4, 16).unwrap());
        let mut client = cluster.client();
        let err = client
            .write_stripe(StripeId(0), blocks(1, 0, 16))
            .unwrap_err();
        assert_eq!(err, ClientError::InvalidRequest);
        let err = client.read_block(StripeId(0), 9).unwrap_err();
        assert_eq!(err, ClientError::InvalidRequest);
        cluster.shutdown();
    }

    /// A turn is bounded: with brick 0's inbox never empty, its retransmit
    /// timer still fires — nothing but a retransmission can reach a quorum
    /// here — and its client still gets the completion.
    #[test]
    fn a_saturated_inbox_starves_neither_timers_nor_completions() {
        use fab_store::commit::MAX_BATCH_RECORDS;
        use std::sync::atomic::AtomicBool;

        let cluster = RuntimeCluster::new(RegisterConfig::new(2, 4, 16).unwrap());
        let inbox = &cluster.senders[0];
        // Every transmission of the write is lost until the flood begins.
        cluster.set_drop_probability(1.0);
        let (reply, rx) = bounded(1);
        let op = ClientOp::write_stripe(StripeId(0), blocks(2, 1, 16));
        inbox.send(Event::Client { op, reply }).unwrap();
        std::thread::sleep(3 * Duration::from_micros(cluster.cfg.retransmit_interval));
        cluster.set_drop_probability(0.0);

        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            // Reads nobody waits for. Handling one puts five more events in
            // this inbox (the brick's own request and four replies), so the
            // producer outruns the loop however the two are scheduled.
            s.spawn(|| {
                let (reply, _) = bounded(1);
                let op = ClientOp::read_stripe(StripeId(9));
                while !done.load(Ordering::Relaxed) {
                    if inbox.len() < 4 * MAX_BATCH_RECORDS {
                        let (op, reply) = (op.clone(), reply.clone());
                        let _ = inbox.send(Event::Client { op, reply });
                    }
                }
            });
            let answer = rx.recv_timeout(Duration::from_secs(10));
            done.store(true, Ordering::Relaxed);
            assert_eq!(answer, Ok(Ok(OpResult::Written)));
        });
        cluster.shutdown();
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fab-runtime-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn persistent_cluster_recovers_across_restart() {
        let dir = scratch_dir("restart");
        let data = blocks(2, 5, 16);
        {
            let cluster =
                RuntimeCluster::with_persistence(RegisterConfig::new(2, 4, 16).unwrap(), &dir);
            let mut client = cluster.client();
            assert_eq!(
                client.write_stripe(StripeId(0), data.clone()).unwrap(),
                OpResult::Written
            );
            cluster.shutdown();
        }
        // A brand-new cluster over the same logs serves the old value.
        let cluster =
            RuntimeCluster::with_persistence(RegisterConfig::new(2, 4, 16).unwrap(), &dir);
        let mut client = cluster.client();
        assert_eq!(
            client.read_stripe(StripeId(0)).unwrap(),
            OpResult::Stripe(StripeValue::Data(data))
        );
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_brick_survives_crash_with_memory_loss() {
        let dir = scratch_dir("crash");
        let cluster =
            RuntimeCluster::with_persistence(RegisterConfig::new(2, 4, 16).unwrap(), &dir);
        let mut client = cluster.client();
        client.timeout = Duration::from_millis(500);
        let data = blocks(2, 11, 16);
        client.write_stripe(StripeId(0), data.clone()).unwrap();

        // A durable brick loses *all* in-memory state on crash and must
        // replay its log on recovery.
        cluster.crash(ProcessId::new(1));
        cluster.recover(ProcessId::new(1));
        assert_eq!(
            client.read_stripe(StripeId(0)).unwrap(),
            OpResult::Stripe(StripeValue::Data(data))
        );
        let data2 = blocks(2, 13, 16);
        assert_eq!(
            client.write_stripe(StripeId(0), data2.clone()).unwrap(),
            OpResult::Written
        );
        assert_eq!(
            client.read_stripe(StripeId(0)).unwrap(),
            OpResult::Stripe(StripeValue::Data(data2))
        );
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_counters_are_coherent_under_concurrency() {
        let dir = scratch_dir("group");
        let cluster = std::sync::Arc::new(RuntimeCluster::with_persistence(
            RegisterConfig::new(2, 4, 16).unwrap(),
            &dir,
        ));
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let mut client = cluster.client();
            handles.push(std::thread::spawn(move || {
                let stripe = StripeId(u64::from(t));
                for i in 0..8u8 {
                    let data = blocks(2, t.wrapping_mul(17).wrapping_add(i), 16);
                    assert_eq!(
                        client.write_stripe(stripe, data).unwrap(),
                        OpResult::Written
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every acked write was preceded by a covering fsync; no brick
        // synced more often than it committed records.
        let mut total_committed = 0;
        for i in 0..4 {
            let stats = cluster.commit_stats(ProcessId::new(i)).unwrap();
            assert_eq!(stats.failed, 0);
            assert!(stats.syncs <= stats.committed.max(1));
            total_committed += stats.committed;
        }
        assert!(total_committed > 0);
        assert!(cluster.commit_stats(ProcessId::new(99)).is_none());
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn volatile_cluster_reports_no_commit_stats() {
        let cluster = RuntimeCluster::new(RegisterConfig::new(2, 4, 16).unwrap());
        assert!(cluster.commit_stats(ProcessId::new(0)).is_none());
        cluster.shutdown();
    }

    #[test]
    fn op_metrics_reconcile_with_client_completions() {
        let cluster = RuntimeCluster::new(RegisterConfig::new(2, 4, 16).unwrap());
        let mut client = cluster.client();
        let data = blocks(2, 3, 16);
        for _ in 0..3 {
            assert_eq!(
                client.write_stripe(StripeId(0), data.clone()).unwrap(),
                OpResult::Written
            );
        }
        for _ in 0..5 {
            assert_eq!(
                client.read_stripe(StripeId(0)).unwrap(),
                OpResult::Stripe(StripeValue::Data(data.clone()))
            );
        }
        // Client retries can only add completions on more bricks, never
        // lose one: summed across bricks, the coordinators completed at
        // least as many ops as the client observed, and every registry
        // entry is well-formed.
        let (mut reads, mut writes) = (0u64, 0u64);
        for i in 0..4 {
            let reg = cluster.obs_registry(ProcessId::new(i)).unwrap();
            let snap = reg.export();
            reads += snap.counter("op_reads_fastpath").unwrap_or(0)
                + snap.counter("op_reads_recovered").unwrap_or(0);
            writes += snap.counter("op_writes_committed").unwrap_or(0);
        }
        assert!(reads >= 5, "reads counted {reads}");
        assert!(writes >= 3, "writes counted {writes}");
        assert!(cluster.obs_registry(ProcessId::new(99)).is_none());
        cluster.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let cluster = RuntimeCluster::new(RegisterConfig::new(2, 4, 16).unwrap());
        cluster.shutdown();
        cluster.shutdown();
        drop(cluster);
    }
}
