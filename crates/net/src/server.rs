//! The brick server: one OS process (or one [`BrickNode`] in tests) = one
//! brick of the FAB cluster, serving both peers and clients over TCP.
//!
//! The event loop is `fab_runtime::host::Host` — the same durable host the
//! threaded in-process runtime runs, monomorphised over this module's
//! [`Transport`]: a peer send hands the envelope to a [`PeerSender`] writer
//! thread, which encodes it with `fab-wire` into the buffer it writes from
//! (fair-loss, reconnect with backoff), a client's answer is a reply frame
//! on its connection, and incoming frames arrive from per-connection reader
//! threads feeding one crossbeam channel. Admin frames (repair
//! orchestration, `stats-snapshot`) are this front end's own business and
//! ride the loop as the transport's control events.
//!
//! Failure philosophy: **network input never panics** (hostile frames are
//! counted and the connection closed), and **disk failure fences the
//! brick** — a brick whose store cannot append stops participating
//! entirely rather than acknowledging writes it did not persist. A fenced
//! or shut-down brick is indistinguishable from a crashed one, which is
//! exactly the fault model the protocol tolerates.

// Rule L1 (no-panic), DESIGN.md §6: network input never panics a brick.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::transport::{read_frame, PeerCounters, PeerSender, RecvError};
use crossbeam::channel::{unbounded, Sender};
use fab_core::{Coordinator, Envelope, OpResult, RegisterConfig};
use fab_repair::{plan_brick_rebuild, plan_full_scrub, DriverConfig, InProcRepair};
use fab_runtime::host::{self, Host, Transport};
use fab_simnet::{Backoff, FaultPlan};
use fab_store::{BrickStore, CommitStatsHandle, CommitStore};
use fab_timestamp::ProcessId;
use fab_volume::{Layout, VolumeGeometry};
use fab_wire::{
    encode_admin_reply_into, encode_client_reply_into, AdminOp, AdminResponse, ClientError,
    Message, RepairProgress, StatsEntry, StatsHistogramEntry, StatsReport,
};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bound on a blocking socket write (a stalled peer or client must not
/// wedge the server's event loop or a writer thread forever).
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Everything a brick process needs to join a cluster.
#[derive(Debug, Clone)]
#[must_use]
pub struct NodeConfig {
    /// This brick's identity; `node.index()` selects its address in
    /// `cluster`.
    pub node: ProcessId,
    /// The addresses of all `n` bricks, in process-id order.
    pub cluster: Vec<SocketAddr>,
    /// The shared register configuration (must be identical on every
    /// brick and client).
    pub register: RegisterConfig,
    /// Durable store directory (`brick-<i>.log` inside it); `None` keeps
    /// replica state in memory only.
    pub store_dir: Option<PathBuf>,
    /// Reconnect schedule for outbound peer connections.
    pub backoff: Backoff,
    /// Record the op-lifecycle instruments (`op_*`) and export the node's
    /// `fab-obs` registry (`BrickNode::obs_registry`, the `op_*` and
    /// `store_*` entries of `stats-snapshot` replies). On by default; the
    /// overhead gate flips it off to measure the delta.
    pub metrics: bool,
}

impl NodeConfig {
    /// A volatile (no durable store) configuration with default backoff.
    pub fn new(node: ProcessId, cluster: Vec<SocketAddr>, register: RegisterConfig) -> Self {
        NodeConfig {
            node,
            cluster,
            register,
            store_dir: None,
            backoff: Backoff::default(),
            metrics: true,
        }
    }

    /// Sets the durable store directory.
    pub fn with_store_dir(mut self, dir: PathBuf) -> Self {
        self.store_dir = Some(dir);
        self
    }

    /// Enables or disables the metrics exposition (on by default).
    pub fn with_metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }
}

/// A reply channel back to one connected client: the write half of its
/// connection. The reader thread hands a clone to the event loop with every
/// request, and the event loop is the one thread that ever writes a reply
/// ([`Tcp::send_reply`], through `impl Write for &TcpStream`), so whole
/// frames cannot interleave and no lock is needed. Whoever gives replies a
/// second writer must bring the serialization back with it.
type ClientWriter = Arc<TcpStream>;

type Event = host::Event<Tcp>;

/// An operator request (repair orchestration, stats), with the connection
/// to answer on.
struct Admin {
    id: u64,
    op: AdminOp,
    writer: ClientWriter,
}

/// Transport statistics for one brick: per-peer counters plus one bucket
/// for all client connections.
#[derive(Debug, Clone)]
#[must_use]
pub struct TransportMetrics {
    /// One snapshot per peer, indexed by process id (this brick's own slot
    /// counts nothing — self sends bypass the network).
    pub peers: Vec<crate::transport::CounterSnapshot>,
    /// Aggregate counters for client connections.
    pub clients: crate::transport::CounterSnapshot,
    /// Group-commit counters (`None` unless the brick runs a durable
    /// store).
    pub commit: Option<fab_store::CommitStats>,
    /// Always `(0, 0)`: there is no encode-buffer pool. The field (and the
    /// benchmark's `net.pool_miss_share`, which reads it) goes with the
    /// next `benchmark`-archetype PR.
    pub pool: (u64, u64),
}

// --------------------------------------------------------- transport ------

/// The brick's view of repair orchestration: everything needed to spawn
/// a background rebuild on demand, plus the running driver (if any).
struct RepairControl {
    /// All `n` brick addresses — repair workers are ordinary [`crate::NetClient`]s.
    cluster: Vec<SocketAddr>,
    /// Durable cursor location (`None` without a store: a volatile brick
    /// restarts its repair from scratch, which is safe — just slower).
    cursor_path: Option<PathBuf>,
    /// The running (or last finished) repair.
    repair: Option<InProcRepair>,
}

impl Drop for RepairControl {
    /// The event loop is gone (shutdown): stop the rebuild it started. The
    /// orchestrator thread winds down on its own.
    fn drop(&mut self) {
        if let Some(r) = &self.repair {
            r.abort();
        }
    }
}

/// The TCP [`Transport`] plus the admin front end that rides the event
/// loop with it.
struct Tcp {
    pid: ProcessId,
    cfg: Arc<RegisterConfig>,
    /// One writer thread per peer (`None` in this brick's own slot).
    peers: Vec<Option<PeerSender>>,
    counters: Vec<Arc<PeerCounters>>,
    /// Where reply frames are encoded (the event loop is the one thread
    /// that answers clients, so one buffer serves every reply).
    scratch: Vec<u8>,
    self_tx: Sender<Event>,
    client_counters: Arc<PeerCounters>,
    repair: RepairControl,
    /// What `stats-snapshot` exports: the node's registry, or an empty one
    /// when the config turned metrics off.
    obs: Arc<fab_obs::Registry>,
}

impl Transport for Tcp {
    /// The request's correlation id and the connection it arrived on.
    type ReplyTo = (u64, ClientWriter);
    type Control = Admin;

    fn send(&mut self, to: ProcessId, env: Envelope) {
        if to == self.pid {
            // A self-send loops back into the event loop unserialized.
            let _ = self.self_tx.send(Event::Net { from: self.pid, env });
        } else if let Some(Some(peer)) = self.peers.get(to.index()) {
            peer.send(env);
        }
    }

    fn dropped(&mut self, to: ProcessId) {
        if let Some(c) = self.counters.get(to.index()) {
            c.record_drop();
        }
    }

    fn reply(&mut self, (id, writer): Self::ReplyTo, result: Result<OpResult, ClientError>) {
        self.send_reply(&writer, |frame| {
            encode_client_reply_into(id, &result, frame);
        });
    }

    /// Serves one admin operation. Start spawns the repair orchestrator on
    /// its own thread, which also opens the repair cursor (the event loop
    /// never blocks on repair work — L8 checks it, `Tcp::control` is one of
    /// its entries); status and abort are answered from lock-free atomics,
    /// and a stats snapshot takes the registry's mutex for one bounded walk.
    fn control(&mut self, Admin { id, op, writer }: Admin, down: bool) {
        let result = if down {
            Err(ClientError::Unavailable)
        } else {
            self.handle_admin(&op)
        };
        self.send_reply(&writer, |frame| {
            encode_admin_reply_into(id, &result, frame);
        });
    }
}

impl Tcp {
    /// Encodes one reply frame and writes it; errors are ignored — a
    /// vanished client or operator needs no answer.
    fn send_reply(&mut self, writer: &ClientWriter, encode: impl FnOnce(&mut Vec<u8>)) {
        self.scratch.clear();
        encode(&mut self.scratch);
        let mut stream: &TcpStream = writer;
        if stream.write_all(&self.scratch).is_ok() {
            self.client_counters.record_sent(self.scratch.len());
        } else {
            self.client_counters.record_drop();
        }
    }

    fn handle_admin(&mut self, op: &AdminOp) -> Result<AdminResponse, ClientError> {
        match *op {
            AdminOp::RepairStart {
                brick,
                stripe_count,
                stripes_per_sec,
                bytes_per_sec,
                max_inflight,
                scrub_all,
            } => {
                if let Some(r) = &self.repair.repair {
                    if !r.is_done() {
                        // Idempotent: a second start while one runs is a
                        // no-op acknowledgement, not a second driver.
                        return Ok(AdminResponse::Started);
                    }
                }
                if stripe_count == 0 {
                    return Err(ClientError::InvalidRequest);
                }
                let geom = VolumeGeometry::new(
                    stripe_count,
                    self.cfg.m(),
                    self.cfg.block_size(),
                    Layout::Interleaved,
                );
                let n = u32::try_from(self.cfg.n()).unwrap_or(u32::MAX);
                let map = fab_repair::SegmentMap::full(n).map_err(|_| ClientError::InvalidRequest)?;
                let plan = if scrub_all {
                    plan_full_scrub(&geom, &map)
                } else {
                    plan_brick_rebuild(&geom, &map, brick)
                        .map_err(|_| ClientError::InvalidRequest)?
                };
                let workers = (max_inflight as usize).clamp(1, 8);
                let cfg = DriverConfig {
                    stripes_per_sec,
                    bytes_per_sec,
                    max_inflight: workers,
                    ..DriverConfig::default()
                };
                let clients: Vec<crate::NetClient> = (0..workers)
                    .map(|_| {
                        crate::NetClient::connect(
                            self.repair.cluster.clone(),
                            (*self.cfg).clone(),
                        )
                    })
                    .collect();
                self.repair.repair = Some(InProcRepair::spawn(
                    plan,
                    cfg,
                    clients,
                    self.repair.cursor_path.clone(),
                    None,
                ));
                Ok(AdminResponse::Started)
            }
            AdminOp::RepairStatus => {
                let progress = match &self.repair.repair {
                    None => RepairProgress::default(),
                    Some(r) => {
                        let s = r.status();
                        RepairProgress {
                            planned: s.planned,
                            repaired: s.repaired,
                            skipped: s.skipped,
                            retried: s.retried,
                            failed: s.failed,
                            bytes_reconstructed: s.bytes_reconstructed,
                            throttle_waits: s.throttle_waits,
                            watermark: s.watermark,
                            scrub_p50_micros: s.scrub_p50_micros,
                            scrub_p99_micros: s.scrub_p99_micros,
                            running: !r.is_done(),
                            complete: r.is_complete(),
                        }
                    }
                };
                Ok(AdminResponse::Status(progress))
            }
            AdminOp::RepairAbort => {
                if let Some(r) = &self.repair.repair {
                    r.abort();
                }
                Ok(AdminResponse::Aborted)
            }
            // xtask-allow(no-blocking-on-event-loop): one walk of the fab-obs registry under its mutex, O(instruments); the other holders (registration at boot, an embedder's `export`) never wait while holding it
            AdminOp::StatsSnapshot => Ok(AdminResponse::Stats(self.stats_report())),
        }
    }

    /// Assembles the node's full metrics exposition: the `fab-obs`
    /// registry (op lifecycle, store, repair instruments) plus transport
    /// counters bridged under `net_*` names. Entries are name-sorted so
    /// the wire form matches `fab_obs::Snapshot`'s stable order.
    fn stats_report(&self) -> StatsReport {
        let mut counters: Vec<StatsEntry> = Vec::new();
        let mut gauges: Vec<StatsEntry> = Vec::new();
        let mut histograms: Vec<StatsHistogramEntry> = Vec::new();
        let counter = |counters: &mut Vec<StatsEntry>, name: &str, value: u64| {
            counters.push(StatsEntry {
                name: name.to_string(),
                value,
            });
        };
        let snap = self.obs.export();
        for (name, value) in &snap.counters {
            counter(&mut counters, name, *value);
        }
        for (name, value) in &snap.gauges {
            counter(&mut gauges, name, *value);
        }
        for (name, h) in &snap.histograms {
            histograms.push(StatsHistogramEntry {
                name: (*name).to_string(),
                count: h.count,
                p50: h.p50,
                p95: h.p95,
                p99: h.p99,
            });
        }
        // Transport: per-peer counters summed into one node-level view.
        let mut peers = crate::transport::CounterSnapshot::default();
        let mut max_frames_per_write = 0u64;
        for c in &self.counters {
            let s = c.snapshot();
            peers.frames_sent += s.frames_sent;
            peers.bytes_sent += s.bytes_sent;
            peers.frames_recv += s.frames_recv;
            peers.bytes_recv += s.bytes_recv;
            peers.decode_errors += s.decode_errors;
            peers.reconnects += s.reconnects;
            peers.dropped += s.dropped;
            peers.writes += s.writes;
            peers.batched_writes += s.batched_writes;
            max_frames_per_write = max_frames_per_write.max(s.max_frames_per_write);
        }
        counter(&mut counters, "net_frames_sent", peers.frames_sent);
        counter(&mut counters, "net_bytes_sent", peers.bytes_sent);
        counter(&mut counters, "net_frames_recv", peers.frames_recv);
        counter(&mut counters, "net_bytes_recv", peers.bytes_recv);
        counter(&mut counters, "net_decode_errors", peers.decode_errors);
        counter(&mut counters, "net_reconnects", peers.reconnects);
        counter(&mut counters, "net_dropped", peers.dropped);
        counter(&mut counters, "net_writes", peers.writes);
        counter(&mut counters, "net_batched_writes", peers.batched_writes);
        counter(&mut gauges, "net_max_frames_per_write", max_frames_per_write);
        let clients = self.client_counters.snapshot();
        counter(&mut counters, "net_client_frames_sent", clients.frames_sent);
        counter(&mut counters, "net_client_frames_recv", clients.frames_recv);
        counter(&mut counters, "net_client_bytes_sent", clients.bytes_sent);
        counter(&mut counters, "net_client_bytes_recv", clients.bytes_recv);
        counter(&mut gauges, "net_inbox_depth", self.self_tx.len() as u64);
        // Repair driver (running or last finished).
        if let Some(r) = &self.repair.repair {
            let s = r.status();
            counter(&mut counters, "repair_repaired", s.repaired);
            counter(&mut counters, "repair_skipped", s.skipped);
            counter(&mut counters, "repair_retried", s.retried);
            counter(&mut counters, "repair_failed", s.failed);
            counter(
                &mut counters,
                "repair_bytes_reconstructed",
                s.bytes_reconstructed,
            );
            counter(&mut counters, "repair_throttle_waits", s.throttle_waits);
            counter(&mut gauges, "repair_planned", s.planned);
            counter(&mut gauges, "repair_watermark", s.watermark);
            counter(&mut gauges, "repair_scrub_p50_micros", s.scrub_p50_micros);
            counter(&mut gauges, "repair_scrub_p99_micros", s.scrub_p99_micros);
        }
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        StatsReport {
            node: self.pid.value(),
            counters,
            gauges,
            histograms,
        }
    }
}

// ----------------------------------------------------- accept/readers -----

/// Live accepted connections and their reader threads, for shutdown.
#[derive(Default)]
struct Registry {
    /// Keyed by accept order. A reader removes its own entry when its
    /// connection ends: the clone would otherwise hold the socket's fd open
    /// for the life of the brick.
    streams: HashMap<u64, TcpStream>,
    handles: Vec<JoinHandle<()>>,
}

/// One connection's reader loop: decode frames, route them to the event
/// loop, close on the first malformed frame (a peer that frames wrongly
/// once cannot be resynchronized — the stream position is lost).
fn handle_connection(
    mut stream: TcpStream,
    tx: &Sender<Event>,
    counters: &[Arc<PeerCounters>],
    client_counters: &Arc<PeerCounters>,
) {
    let writer = match stream.try_clone() {
        Ok(clone) => {
            let _ = clone.set_write_timeout(Some(WRITE_TIMEOUT));
            Arc::new(clone)
        }
        Err(_) => return,
    };
    loop {
        match read_frame(&mut stream) {
            Ok((Message::Peer { from, env }, len)) => {
                if let Some(c) = counters.get(from.index()) {
                    c.record_recv(len);
                }
                if tx.send(Event::Net { from, env }).is_err() {
                    return;
                }
            }
            Ok((Message::ClientRequest { id, op }, len)) => {
                client_counters.record_recv(len);
                let reply = (id, writer.clone());
                if tx.send(Event::Client { op, reply }).is_err() {
                    return;
                }
            }
            Ok((Message::AdminRequest { id, op }, len)) => {
                client_counters.record_recv(len);
                let writer = writer.clone();
                if tx.send(Event::Control(Admin { id, op, writer })).is_err() {
                    return;
                }
            }
            Ok((Message::ClientReply { .. } | Message::AdminReply { .. }, _)) => {
                // A server never receives replies: schema violation.
                client_counters.record_decode_error();
                return;
            }
            Err(RecvError::Wire(_)) => {
                client_counters.record_decode_error();
                return;
            }
            Err(RecvError::Closed | RecvError::Io(_)) => return,
        }
    }
}

/// The accept loop. Owns the listener and returns it on shutdown so a
/// restarted brick can re-use the exact same bound socket (no
/// `TIME_WAIT`/rebind races in tests).
fn accept_loop(
    listener: TcpListener,
    tx: &Sender<Event>,
    counters: &[Arc<PeerCounters>],
    client_counters: &Arc<PeerCounters>,
    registry: &Arc<Mutex<Registry>>,
    stop: &AtomicBool,
) -> TcpListener {
    let mut next_id = 0u64;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stop.load(Ordering::SeqCst) {
                    return listener; // woken by the shutdown self-connect
                }
                let _ = stream.set_nodelay(true);
                let id = next_id;
                next_id += 1;
                // Registered before the reader starts, so the reader's
                // removal cannot come first. No clone (EMFILE), no
                // connection: a reader absent from `streams` is a thread
                // `shutdown_inner` joins and nothing can unblock.
                let Ok(clone) = stream.try_clone() else {
                    continue;
                };
                if let Ok(mut reg) = registry.lock() {
                    reg.streams.insert(id, clone);
                }
                let handle = {
                    let tx = tx.clone();
                    let counters = counters.to_vec();
                    let client_counters = client_counters.clone();
                    let registry = registry.clone();
                    std::thread::Builder::new()
                        .name("fab-conn".to_string())
                        .spawn(move || {
                            handle_connection(stream, &tx, &counters, &client_counters);
                            if let Ok(mut reg) = registry.lock() {
                                reg.streams.remove(&id);
                            }
                        })
                };
                if let Ok(mut reg) = registry.lock() {
                    reg.handles.retain(|h| !h.is_finished());
                    match handle {
                        Ok(handle) => reg.handles.push(handle),
                        // No reader was started: nothing will remove the entry.
                        Err(_) => drop(reg.streams.remove(&id)),
                    }
                }
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return listener;
                }
                // Transient accept failure (EMFILE, aborted handshake):
                // don't spin hot.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

// --------------------------------------------------------- brick node -----

/// A running brick: event-loop thread + accept thread + per-connection
/// reader threads + per-peer writer threads.
///
/// One `BrickNode` per process is the deployment model (`fabd`); tests
/// boot several in one process to form a loopback cluster.
#[must_use]
pub struct BrickNode {
    tx: Sender<Event>,
    server: Option<JoinHandle<()>>,
    accept: Option<JoinHandle<TcpListener>>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    registry: Arc<Mutex<Registry>>,
    faults: Arc<FaultPlan>,
    counters: Vec<Arc<PeerCounters>>,
    client_counters: Arc<PeerCounters>,
    commit_stats: Option<CommitStatsHandle>,
    obs: Option<Arc<fab_obs::Registry>>,
    node: ProcessId,
}

impl std::fmt::Debug for BrickNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrickNode")
            .field("node", &self.node)
            .field("addr", &self.addr)
            .field("running", &self.server.is_some())
            .finish()
    }
}

impl BrickNode {
    /// Boots a brick on `listener` (already bound to
    /// `cfg.cluster[cfg.node.index()]`'s port).
    ///
    /// Taking the bound listener — rather than an address — lets a test
    /// kill a brick and restart it on the *same* socket without racing
    /// `TIME_WAIT`; [`BrickNode::shutdown`] returns the listener for
    /// exactly that purpose.
    ///
    /// Retransmission intervals below 5 ms are raised to 20 ms (see
    /// [`host::wall_clock_config`]).
    ///
    /// # Errors
    ///
    /// `std::io::Error` if `cfg` is inconsistent (`cluster` length ≠ `n`,
    /// `node` out of range), the store directory cannot be opened, or a
    /// thread cannot be spawned.
    pub fn spawn(cfg: NodeConfig, listener: TcpListener) -> std::io::Result<BrickNode> {
        Self::spawn_on(cfg, listener, |dir, node| {
            std::fs::create_dir_all(dir)?;
            let path = dir.join(format!("brick-{}.log", node.value()));
            BrickStore::open(path).map_err(std::io::Error::other)
        })
    }

    /// [`BrickNode::spawn`] over any [`CommitStore`]: `open(store_dir,
    /// node)` supplies the durable backing when `cfg.store_dir` is set.
    fn spawn_on<S: CommitStore>(
        cfg: NodeConfig,
        listener: TcpListener,
        open: impl FnOnce(&Path, ProcessId) -> std::io::Result<S>,
    ) -> std::io::Result<BrickNode> {
        let NodeConfig {
            node,
            cluster,
            register,
            store_dir,
            backoff,
            metrics,
        } = cfg;
        if cluster.len() != register.n() || node.index() >= cluster.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "cluster has {} addresses for n={} bricks (node {})",
                    cluster.len(),
                    register.n(),
                    node.value()
                ),
            ));
        }
        let register = host::wall_clock_config(register);
        let addr = listener.local_addr()?;

        // One construction path: the registry always exists and the
        // `store_*` commit instruments always live in it. Metrics off
        // means nobody is handed it — `obs_registry()` is `None`, the
        // coordinator gets no `OpMetrics`, `stats-snapshot` exports an
        // empty registry.
        let registry = Arc::new(fab_obs::Registry::new());
        let obs = metrics.then(|| registry.clone());
        let cursor_path = store_dir
            .as_ref()
            .map(|dir| dir.join(format!("repair-{}.cursor", node.value())));
        let store = store_dir
            .as_deref()
            .map(|dir| open(dir, node))
            .transpose()?
            .map(|store| (store, CommitStatsHandle::registered(&registry)));
        let commit_stats = store.as_ref().map(|(_, stats)| stats.clone());

        let (tx, inbox) = unbounded();
        let faults = Arc::new(FaultPlan::new());
        let counters: Vec<Arc<PeerCounters>> = (0..cluster.len())
            .map(|_| Arc::new(PeerCounters::new()))
            .collect();
        let client_counters = Arc::new(PeerCounters::new());
        let peers: Vec<Option<PeerSender>> = cluster
            .iter()
            .enumerate()
            .map(|(i, peer_addr)| {
                if i == node.index() {
                    None
                } else {
                    Some(PeerSender::spawn(
                        node,
                        *peer_addr,
                        backoff,
                        counters[i].clone(),
                    ))
                }
            })
            .collect();

        let mut coordinator = Coordinator::new(node, register.clone());
        if let Some(reg) = &obs {
            coordinator.set_metrics(fab_core::OpMetrics::register(reg));
        }
        let transport = Tcp {
            pid: node,
            cfg: register.clone(),
            peers,
            counters: counters.clone(),
            scratch: Vec::new(),
            self_tx: tx.clone(),
            client_counters: client_counters.clone(),
            repair: RepairControl {
                cluster,
                cursor_path,
                repair: None,
            },
            obs: obs.clone().unwrap_or_default(),
        };
        let host = Host::new(
            register,
            coordinator,
            transport,
            inbox,
            store,
            faults.clone(),
            Instant::now(),
            0x0fab ^ u64::from(node.value()),
        );
        let server_handle = std::thread::Builder::new()
            .name(format!("fabd-brick-{}", node.value()))
            .spawn(move || host.run())?;

        let stop = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(Mutex::new(Registry::default()));
        let accept_handle = {
            let tx = tx.clone();
            let counters = counters.clone();
            let client_counters = client_counters.clone();
            let registry = registry.clone();
            let stop = stop.clone();
            std::thread::Builder::new()
                .name(format!("fabd-accept-{}", node.value()))
                .spawn(move || {
                    accept_loop(listener, &tx, &counters, &client_counters, &registry, &stop)
                })?
        };

        Ok(BrickNode {
            tx,
            server: Some(server_handle),
            accept: Some(accept_handle),
            addr,
            stop,
            registry,
            faults,
            counters,
            client_counters,
            commit_stats,
            obs,
            node,
        })
    }

    /// The node's metrics registry (`None` when the config disabled it).
    /// The live exposition — including transport counters — is served by
    /// the `stats-snapshot` admin frame; this handle covers in-process
    /// tests and embedding.
    #[must_use]
    pub fn obs_registry(&self) -> Option<Arc<fab_obs::Registry>> {
        self.obs.clone()
    }

    /// The address this brick is listening on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This brick's process id.
    #[must_use]
    pub fn node(&self) -> ProcessId {
        self.node
    }

    /// The brick's fault-injection plan (shared semantics with the
    /// simulator and the threaded runtime).
    #[must_use]
    pub fn fault_plan(&self) -> Arc<FaultPlan> {
        self.faults.clone()
    }

    /// Sets the probability that any outbound peer transmission is dropped
    /// (clamped into `[0, 1]`).
    pub fn set_drop_probability(&self, p: f64) {
        self.faults.set_drop_probability(p);
    }

    /// Point-in-time transport statistics.
    pub fn metrics(&self) -> TransportMetrics {
        TransportMetrics {
            peers: self.counters.iter().map(|c| c.snapshot()).collect(),
            clients: self.client_counters.snapshot(),
            commit: self.commit_stats.as_ref().map(CommitStatsHandle::stats),
            pool: (0, 0),
        }
    }

    fn shutdown_inner(&mut self) -> Option<TcpListener> {
        // 1. Stop the event loop (it refuses pending clients first).
        let _ = self.tx.send(Event::Shutdown);
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
        // 2. Stop the accept loop: raise the flag, then wake it with a
        //    throwaway self-connection.
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
        let listener = self.accept.take().and_then(|h| h.join().ok());
        // 3. Unblock and join every reader thread by shutting its socket.
        let mut handles = Vec::new();
        if let Ok(mut reg) = self.registry.lock() {
            for (_, s) in reg.streams.drain() {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            handles = std::mem::take(&mut reg.handles);
        }
        for h in handles {
            let _ = h.join();
        }
        listener
    }

    /// Stops the brick — event loop, accept loop, reader threads — and
    /// returns the still-bound listener so a restarted brick can take over
    /// the same socket. Peer writer threads exit asynchronously when their
    /// channels disconnect.
    ///
    /// To the rest of the cluster this is indistinguishable from a crash:
    /// in-flight operations this brick coordinated either completed or
    /// will be recovered by the next reader (strict linearizability).
    pub fn shutdown(mut self) -> Option<TcpListener> {
        self.shutdown_inner()
    }
}

impl Drop for BrickNode {
    fn drop(&mut self) {
        if self.server.is_some() || self.accept.is_some() {
            let _ = self.shutdown_inner();
        }
    }
}

#[cfg(test)]
#[path = "../../runtime/tests/support/host_conformance.rs"]
mod host_conformance;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetClient;
    use fab_wire::{encode_admin_request_into, encode_client_request_into, ClientOp};
    use host_conformance::{Cluster, StoreCtl};

    /// A loopback cluster of [`BrickNode`]s: the host conformance suite
    /// over the TCP transport.
    struct TcpCluster {
        nodes: Vec<BrickNode>,
        addrs: Vec<SocketAddr>,
        cfg: RegisterConfig,
    }

    impl TcpCluster {
        fn boot(cfg: RegisterConfig, spawn: impl Fn(NodeConfig, TcpListener) -> BrickNode) -> Self {
            let listeners: Vec<TcpListener> = (0..cfg.n())
                .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
                .collect();
            let addrs: Vec<SocketAddr> =
                listeners.iter().map(|l| l.local_addr().unwrap()).collect();
            let nodes = listeners
                .into_iter()
                .enumerate()
                .map(|(i, l)| {
                    let pid = ProcessId::new(i as u32);
                    spawn(NodeConfig::new(pid, addrs.clone(), cfg.clone()), l)
                })
                .collect();
            TcpCluster { nodes, addrs, cfg }
        }
    }

    impl Cluster for TcpCluster {
        const NAME: &'static str = "tcp";
        type Client = NetClient;

        fn on_disk(cfg: RegisterConfig, dir: &Path) -> Self {
            Self::boot(cfg, |node_cfg, l| {
                BrickNode::spawn(node_cfg.with_store_dir(dir.to_path_buf()), l).unwrap()
            })
        }
        fn on_stores(cfg: RegisterConfig, ctls: &[StoreCtl]) -> Self {
            Self::boot(cfg, |node_cfg, l| {
                let store = ctls[node_cfg.node.index()].store();
                // The directory only marks the brick durable; nothing is
                // written under it.
                let node_cfg = node_cfg.with_store_dir(std::env::temp_dir());
                BrickNode::spawn_on(node_cfg, l, |_, _| Ok(store)).unwrap()
            })
        }
        fn client(&self) -> NetClient {
            NetClient::connect(self.addrs.clone(), self.cfg.clone())
        }
        fn invoke(client: &mut NetClient, op: ClientOp) -> Result<OpResult, String> {
            fab_core::RegisterClient::invoke(client, op).map_err(|e| e.to_string())
        }
        fn ask(
            &self,
            pid: ProcessId,
            op: ClientOp,
            wait: Duration,
        ) -> Option<Result<OpResult, ClientError>> {
            let mut stream = TcpStream::connect(self.addrs[pid.index()]).ok()?;
            stream.set_read_timeout(Some(wait)).ok()?;
            let mut frame = Vec::new();
            encode_client_request_into(1, &op, &mut frame);
            stream.write_all(&frame).ok()?;
            match read_frame(&mut stream) {
                Ok((Message::ClientReply { result, .. }, _)) => Some(result),
                _ => None,
            }
        }
        fn crash(&self, pid: ProcessId) {
            self.nodes[pid.index()].tx.send(Event::Crash).unwrap();
        }
        fn recover(&self, pid: ProcessId) {
            self.nodes[pid.index()].tx.send(Event::Recover).unwrap();
        }
        fn shutdown(self) {
            for node in self.nodes {
                node.shutdown();
            }
        }
    }

    host_conformance::suite!(TcpCluster);

    /// Why replies need no lock: the event loop is their one writer. 64
    /// requests pipelined down one socket before anything is read back —
    /// stripe writes, block reads and admin stats snapshots interleaved —
    /// return as 64 whole frames, each id answered once. A second writer of
    /// replies shows up here as a frame that does not decode.
    #[test]
    fn pipelined_replies_on_one_connection_arrive_whole() {
        let cfg = RegisterConfig::new(2, 3, 16).unwrap();
        let cluster = TcpCluster::boot(cfg, |node_cfg, l| BrickNode::spawn(node_cfg, l).unwrap());
        let mut stream = TcpStream::connect(cluster.addrs[0]).unwrap();
        let patience = Some(Duration::from_secs(30));
        stream.set_read_timeout(patience).unwrap();
        let mut frames = Vec::new();
        for id in 0..64u64 {
            let stripe = fab_core::StripeId(id / 3);
            match id % 3 {
                0 => {
                    let blocks = vec![bytes::Bytes::from(vec![id as u8; 16]); 2];
                    let op = ClientOp::WriteStripe { stripe, blocks };
                    encode_client_request_into(id, &op, &mut frames);
                }
                1 => {
                    let op = ClientOp::ReadBlock { stripe, j: 0 };
                    encode_client_request_into(id, &op, &mut frames);
                }
                _ => encode_admin_request_into(id, &AdminOp::StatsSnapshot, &mut frames),
            }
        }
        stream.write_all(&frames).unwrap();
        let mut answered = std::collections::BTreeSet::new();
        for _ in 0..64 {
            let id = match read_frame(&mut stream) {
                Ok((Message::ClientReply { id, .. } | Message::AdminReply { id, .. }, _)) => id,
                other => panic!("not a whole reply frame: {other:?}"),
            };
            assert!(answered.insert(id), "id {id} answered twice");
        }
        assert!(answered.into_iter().eq(0..64));
        cluster.shutdown();
    }

    /// Metrics off is "don't export": the commits are still counted (the typed
    /// `metrics()` view reads it), but the node hands out no registry and
    /// its `stats-snapshot` carries no `op_*` / `store_*` entry.
    #[test]
    fn metrics_off_exports_no_registry_entries() {
        let dir = std::env::temp_dir().join(format!("fab-metrics-off-{}", std::process::id()));
        let cfg = RegisterConfig::new(2, 3, 16).unwrap();
        let cluster = TcpCluster::boot(cfg, |node_cfg, l| {
            let node_cfg = node_cfg.with_store_dir(dir.clone()).with_metrics(false);
            BrickNode::spawn(node_cfg, l).unwrap()
        });
        let mut client = cluster.client();
        let blocks = vec![bytes::Bytes::from(vec![7u8; 16]); 2];
        assert_eq!(client.try_write_stripe(fab_core::StripeId(0), blocks), Ok(OpResult::Written));
        for (i, node) in cluster.nodes.iter().enumerate() {
            assert!(node.obs_registry().is_none());
            assert!(node.metrics().commit.expect("durable").committed > 0);
            let Ok(AdminResponse::Stats(report)) = client.try_admin(i, &AdminOp::StatsSnapshot)
            else {
                panic!("node {i}: no stats reply");
            };
            let registry_entry = |name: &str| name.starts_with("op_") || name.starts_with("store_");
            assert!(!report.counters.iter().any(|e| registry_entry(&e.name)), "{report:?}");
            assert!(report.histograms.is_empty(), "{report:?}");
            assert!(report.counter("net_frames_sent").is_some());
        }
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }
}
