//! The common set-up: the paper's f=1 shape (n=5 bricks, m=3 data blocks)
//! as five `fab_net::BrickNode`s in this process on `127.0.0.1:0`.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fab_core::{RegisterConfig, StripeId};
use fab_net::{BrickNode, CounterSnapshot, NetClient, NodeConfig};
use fab_obs::HIST_BUCKETS;
use fab_timestamp::ProcessId;

pub const N: usize = 5;
pub const M: usize = 3;

/// The brick every rebuild replaces (a parity brick: data blocks live on
/// bricks 0..M).
pub const VICTIM: usize = N - 1;

/// Counters summed over the five bricks' `fab-obs` registries.
pub const OBS_COUNTERS: [&str; 4] = [
    "op_reads_fastpath",
    "op_reads_recovered",
    "op_aborted",
    "op_writes_committed",
];

/// Histograms whose raw log2 buckets are summed over the five bricks.
pub const OBS_HISTOGRAMS: [&str; 4] = [
    "op_write_order_micros",
    "op_write_store_micros",
    "op_quorum_rounds",
    "store_fsync_micros",
];

pub fn register_config(block_bytes: usize) -> RegisterConfig {
    RegisterConfig::new(M, N, block_bytes).expect("3-of-5 is a valid code")
}

/// A running loopback cluster. Dropping it shuts the bricks down.
pub struct Cluster {
    pub cfg: RegisterConfig,
    pub addrs: Vec<SocketAddr>,
    nodes: Vec<Option<BrickNode>>,
    store_root: Option<PathBuf>,
    metrics: bool,
}

impl Cluster {
    /// Boots five bricks. `store_root` = `None` keeps replica state in
    /// memory (the `net.volatile_*` auxiliary cluster); `metrics` installs
    /// the `fab-obs` registries (traced passes only).
    pub fn boot(
        block_bytes: usize,
        store_root: Option<&Path>,
        metrics: bool,
    ) -> std::io::Result<Cluster> {
        let cfg = register_config(block_bytes);
        if let Some(root) = store_root {
            // A stale root would replay another run's log into this one.
            let _ = std::fs::remove_dir_all(root);
            std::fs::create_dir_all(root)?;
        }
        let listeners: Vec<TcpListener> = (0..N)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<_, _>>()?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<Result<_, _>>()?;
        let mut cluster = Cluster {
            cfg,
            addrs,
            nodes: Vec::new(),
            store_root: store_root.map(Path::to_path_buf),
            metrics,
        };
        for (i, listener) in listeners.into_iter().enumerate() {
            let node = cluster.spawn_node(i, listener)?;
            cluster.nodes.push(Some(node));
        }
        Ok(cluster)
    }

    fn node_dir(&self, i: usize) -> Option<PathBuf> {
        self.store_root
            .as_ref()
            .map(|r| r.join(format!("node-{i}")))
    }

    fn spawn_node(&self, i: usize, listener: TcpListener) -> std::io::Result<BrickNode> {
        let mut node_cfg = NodeConfig::new(
            ProcessId::new(i as u32),
            self.addrs.clone(),
            self.cfg.clone(),
        )
        .with_metrics(self.metrics);
        if let Some(dir) = self.node_dir(i) {
            node_cfg = node_cfg.with_store_dir(dir);
        }
        BrickNode::spawn(node_cfg, listener)
    }

    pub fn client(&self) -> NetClient {
        NetClient::connect(self.addrs.clone(), self.cfg.clone())
    }

    fn nodes(&self) -> impl Iterator<Item = &BrickNode> {
        self.nodes.iter().flatten()
    }

    /// Replaces the victim brick: shut it down, delete its store directory
    /// (a fresh disk), restart it empty on the same socket, and wait until
    /// it has exchanged frames with every peer in both directions — a
    /// scrub completes on a quorum of four, so a rebuild started before
    /// the links are up would "finish" without reaching the new brick.
    pub fn replace_victim(&mut self) -> std::io::Result<()> {
        let before: Vec<u64> = self
            .nodes()
            .map(|n| n.metrics().peers[VICTIM].frames_recv)
            .collect();
        let old = self.nodes[VICTIM].take().expect("victim is running");
        let listener = old
            .shutdown()
            .ok_or_else(|| std::io::Error::other("victim did not return its listener"))?;
        if let Some(dir) = self.node_dir(VICTIM) {
            std::fs::remove_dir_all(dir)?;
        }
        self.nodes[VICTIM] = Some(self.spawn_node(VICTIM, listener)?);
        // Node 0 keeps a durable repair cursor keyed by the plan's hash, and
        // a finished rebuild leaves it at the end of the plan: a second
        // `RepairStart` with the same plan would resume there and rebuild
        // nothing. Replacing the brick again makes that cursor stale.
        if let Some(dir) = self.node_dir(0) {
            let _ = std::fs::remove_file(dir.join("repair-0.cursor"));
        }

        let mut probe = self.client();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            // Five rotating reads: every brick coordinates one, and each
            // read polls all n bricks.
            for _ in 0..N {
                let _ = probe.try_read_block(StripeId(0), 0);
            }
            let victim = self.nodes[VICTIM].as_ref().expect("just spawned").metrics();
            let inbound = (0..N).all(|i| i == VICTIM || victim.peers[i].frames_recv > 0);
            let outbound = self
                .nodes()
                .zip(&before)
                .enumerate()
                .all(|(i, (n, &b))| i == VICTIM || n.metrics().peers[VICTIM].frames_recv > b);
            if inbound && outbound {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(std::io::Error::other(
                    "replaced brick did not link up with its peers within 10 s",
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Checks from outside that a finished rebuild reached the new brick:
    /// replays a copy of its log through `fab_store::BrickStore` and
    /// requires a data block of the right size for every stripe. (A scrub
    /// is acknowledged by a quorum of four, so the victim's own append may
    /// trail the repair's "complete" by a moment; hence the short poll.)
    pub fn victim_holds(&self, stripes: u64) -> Result<(), String> {
        let Some(dir) = self.node_dir(VICTIM) else {
            return Ok(());
        };
        let log = dir.join(format!("brick-{VICTIM}.log"));
        let copy = dir.join("rebuilt-check.log");
        let deadline = Instant::now() + Duration::from_secs(3);
        loop {
            std::fs::copy(&log, &copy).map_err(|e| format!("copy {}: {e}", log.display()))?;
            let store = fab_store::BrickStore::open(&copy).map_err(|e| format!("replay: {e}"))?;
            let missing = (0..stripes)
                .filter(|&s| {
                    let held = store.stripe(StripeId(s)).map(|st| st.log.max_block().1);
                    !matches!(held, Some(fab_core::BlockValue::Data(b)) if b.len() == self.cfg.block_size())
                })
                .count();
            drop(store);
            let _ = std::fs::remove_file(&copy);
            if missing == 0 {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "rebuilt brick {VICTIM} holds no data block for {missing} of {stripes} stripes"
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Point-in-time counters, summed over the bricks.
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::default();
        for node in self.nodes() {
            let m = node.metrics();
            for p in &m.peers {
                s.peers.add(p);
            }
            s.clients.add(&m.clients);
            s.pool_hits += m.pool.0;
            s.pool_misses += m.pool.1;
            if let Some(c) = m.commit {
                s.syncs += c.syncs;
                s.committed += c.committed;
            }
            if let Some(reg) = node.obs_registry() {
                let export = reg.export();
                for (slot, name) in s.counters.iter_mut().zip(OBS_COUNTERS) {
                    *slot += export.counter(name).unwrap_or(0);
                }
                for (slot, name) in s.histograms.iter_mut().zip(OBS_HISTOGRAMS) {
                    for (acc, b) in slot.iter_mut().zip(reg.histogram(name).buckets()) {
                        *acc += b;
                    }
                }
            }
        }
        if let Some(root) = &self.store_root {
            for i in 0..N {
                let log = root
                    .join(format!("node-{i}"))
                    .join(format!("brick-{i}.log"));
                s.log_bytes += std::fs::metadata(log).map_or(0, |m| m.len());
            }
        }
        s
    }

    pub fn shutdown(mut self) {
        for node in self.nodes.drain(..).flatten() {
            node.shutdown();
        }
        if let Some(root) = self.store_root.take() {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Reached only when a run bails out early; `shutdown` has already
        // emptied both on the normal path.
        self.nodes.clear();
        if let Some(root) = self.store_root.take() {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

/// The transport counters the per-layer metrics use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    pub frames_sent: u64,
    pub bytes_sent: u64,
    pub frames_recv: u64,
    pub bytes_recv: u64,
    /// `write` syscalls issued by the coalescing writers.
    pub writes: u64,
}

impl Traffic {
    fn add(&mut self, c: &CounterSnapshot) {
        self.frames_sent += c.frames_sent;
        self.bytes_sent += c.bytes_sent;
        self.frames_recv += c.frames_recv;
        self.bytes_recv += c.bytes_recv;
        self.writes += c.writes;
    }

    fn since(&self, earlier: &Traffic) -> Traffic {
        Traffic {
            frames_sent: self.frames_sent.saturating_sub(earlier.frames_sent),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            frames_recv: self.frames_recv.saturating_sub(earlier.frames_recv),
            bytes_recv: self.bytes_recv.saturating_sub(earlier.bytes_recv),
            writes: self.writes.saturating_sub(earlier.writes),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    pub peers: Traffic,
    pub clients: Traffic,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub syncs: u64,
    pub committed: u64,
    /// Parallel to [`OBS_COUNTERS`].
    pub counters: [u64; OBS_COUNTERS.len()],
    /// Parallel to [`OBS_HISTOGRAMS`].
    pub histograms: [[u64; HIST_BUCKETS]; OBS_HISTOGRAMS.len()],
    pub log_bytes: u64,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            peers: Traffic::default(),
            clients: Traffic::default(),
            pool_hits: 0,
            pool_misses: 0,
            syncs: 0,
            committed: 0,
            counters: [0; OBS_COUNTERS.len()],
            histograms: [[0; HIST_BUCKETS]; OBS_HISTOGRAMS.len()],
            log_bytes: 0,
        }
    }
}

impl Snapshot {
    /// `self − earlier`, saturating (a replaced brick restarts at zero).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut d = Snapshot {
            peers: self.peers.since(&earlier.peers),
            clients: self.clients.since(&earlier.clients),
            pool_hits: self.pool_hits.saturating_sub(earlier.pool_hits),
            pool_misses: self.pool_misses.saturating_sub(earlier.pool_misses),
            syncs: self.syncs.saturating_sub(earlier.syncs),
            committed: self.committed.saturating_sub(earlier.committed),
            log_bytes: self.log_bytes.saturating_sub(earlier.log_bytes),
            ..Snapshot::default()
        };
        for (i, slot) in d.counters.iter_mut().enumerate() {
            *slot = self.counters[i].saturating_sub(earlier.counters[i]);
        }
        for (h, hist) in d.histograms.iter_mut().enumerate() {
            for (b, slot) in hist.iter_mut().enumerate() {
                *slot = self.histograms[h][b].saturating_sub(earlier.histograms[h][b]);
            }
        }
        d
    }

    pub fn counter(&self, name: &str) -> u64 {
        OBS_COUNTERS
            .iter()
            .position(|n| *n == name)
            .map_or(0, |i| self.counters[i])
    }

    pub fn histogram(&self, name: &str) -> &[u64; HIST_BUCKETS] {
        let i = OBS_HISTOGRAMS
            .iter()
            .position(|n| *n == name)
            .expect("histogram is listed in OBS_HISTOGRAMS");
        &self.histograms[i]
    }
}

/// Median of a log2-bucket histogram as `fab-obs` reports it: the upper
/// bound of the bucket holding the middle sample (a power of two).
pub fn bucket_p50(buckets: &[u64; HIST_BUCKETS]) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = total.div_ceil(2);
    let mut seen = 0;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= target {
            return fab_obs::Histogram::bucket_upper_bound(i) as f64;
        }
    }
    0.0
}

/// Mean of a log2-bucket histogram taking every sample at its bucket's
/// lower bound — exact while every sample is 0, 1 or 2.
pub fn bucket_mean_low(buckets: &[u64; HIST_BUCKETS]) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let sum: f64 = buckets
        .iter()
        .enumerate()
        .map(|(i, &count)| {
            let low = if i == 0 { 0.0 } else { 2f64.powi(i as i32 - 1) };
            low * count as f64
        })
        .sum();
    sum / total as f64
}
