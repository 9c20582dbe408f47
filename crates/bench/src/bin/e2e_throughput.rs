//! End-to-end durable write throughput over a real loopback TCP cluster.
//!
//! Boots the paper's f=1 configuration (n=5 bricks, m=3 data blocks) with
//! durable stores, drives full-stripe writes from a configurable number of
//! concurrent clients, and reports ops/s plus p50/p99 client-observed
//! latency and the achieved group-commit factor per concurrency level: at
//! high concurrency the committer amortizes one `sync_data` over many
//! queued records, so throughput scales with offered load instead of with
//! the fsync budget. One extra point with the `fab-obs` registries off
//! gives the observability overhead.
//!
//! Writes `BENCH_e2e.json` (or the path given as the first non-flag
//! argument) so CI and later PRs can diff end-to-end performance.
//!
//! Run: `cargo run --release -p fab-bench --bin e2e_throughput [out.json]`
//!
//! `--smoke` runs bounded metrics-off/metrics-on points and exits
//! non-zero unless metrics-on stays within 10% of metrics-off — a cheap CI
//! regression tripwire, not a benchmark.

use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::time::Instant;

use bytes::Bytes;
use fab_core::{OpResult, RegisterConfig, StripeId};
use fab_net::{BrickNode, NetClient, NodeConfig};
use fab_timestamp::ProcessId;

/// The paper's f=1 layout: 5 bricks, stripes of 3 data blocks.
const N: usize = 5;
const M: usize = 3;

/// Small blocks so the fsync path, not payload bandwidth, is the budget.
const BLOCK_BYTES: usize = 512;

/// Client threads per data point (the sweep axis).
const CONCURRENCY: [usize; 4] = [1, 8, 16, 32];

/// Full-stripe writes each client issues inside the timed window.
const OPS_PER_CLIENT: usize = 150;
const SMOKE_OPS_PER_CLIENT: usize = 30;
const SMOKE_CONCURRENCY: usize = 8;

/// Untimed per-client writes that open connections and warm buffer pools.
const WARMUP_OPS: usize = 5;

#[derive(Clone, Copy)]
struct Sample {
    mode: &'static str,
    concurrency: usize,
    ops: usize,
    ops_per_s: f64,
    p50_us: u64,
    p99_us: u64,
    /// committed records / sync_data calls, summed over the cluster.
    group_commit_factor: f64,
    syncs: u64,
    committed: u64,
}

fn bind_cluster(n: usize) -> (Vec<TcpListener>, Vec<SocketAddr>) {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect();
    (listeners, addrs)
}

fn stripe(seed: u8) -> Vec<Bytes> {
    (0..M)
        .map(|j| Bytes::from(vec![seed.wrapping_add(j as u8).wrapping_mul(37) | 1; BLOCK_BYTES]))
        .collect()
}

/// Boots a fresh cluster, runs `concurrency` clients for `ops` writes
/// each, tears the cluster down, and returns the sample. `metrics`
/// toggles the nodes' `fab-obs` registries — the on/off delta is the
/// observability overhead the smoke gate bounds.
fn run_point(concurrency: usize, ops: usize, metrics: bool) -> Sample {
    let mode_name = if metrics {
        "group"
    } else {
        "group_metrics_off"
    };
    let store_root = std::env::temp_dir().join(format!(
        "fab-e2e-{}-{mode_name}-{concurrency}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&store_root);

    let (listeners, addrs) = bind_cluster(N);
    let cfg = RegisterConfig::new(M, N, BLOCK_BYTES).expect("valid config");
    let nodes: Vec<BrickNode> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| {
            let node_cfg = NodeConfig::new(ProcessId::new(i as u32), addrs.clone(), cfg.clone())
                .with_store_dir(store_root.join(format!("node-{i}")))
                .with_metrics(metrics);
            BrickNode::spawn(node_cfg, l).expect("spawn brick")
        })
        .collect();

    // Each client owns a disjoint stripe range: no write conflicts, so
    // every latency sample is a clean two-round (order + write) quorum op.
    let start_gate = std::sync::Arc::new(std::sync::Barrier::new(concurrency));
    let mut workers = Vec::with_capacity(concurrency);
    for t in 0..concurrency {
        let addrs = addrs.clone();
        let cfg = cfg.clone();
        let gate = start_gate.clone();
        workers.push(std::thread::spawn(move || -> (Vec<u64>, f64) {
            let mut client = NetClient::connect(addrs, cfg);
            let base = (t as u64) << 32;
            for i in 0..WARMUP_OPS {
                let id = StripeId(base | i as u64);
                client
                    .try_write_stripe(id, stripe(t as u8))
                    .expect("warmup write");
            }
            gate.wait();
            let mut lat_us = Vec::with_capacity(ops);
            let started = Instant::now();
            for i in 0..ops {
                let id = StripeId(base | (WARMUP_OPS + i) as u64);
                let op_start = Instant::now();
                let result = client
                    .try_write_stripe(id, stripe((t as u8).wrapping_add(i as u8)))
                    .expect("timed write");
                assert_eq!(result, OpResult::Written, "write must commit");
                lat_us.push(op_start.elapsed().as_micros() as u64);
            }
            (lat_us, started.elapsed().as_secs_f64())
        }));
    }

    let mut lat_us = Vec::with_capacity(concurrency * ops);
    let mut wall = 0f64;
    for w in workers {
        let (lat, secs) = w.join().expect("worker panicked");
        lat_us.extend(lat);
        wall = wall.max(secs);
    }

    let (mut syncs, mut committed) = (0u64, 0u64);
    for node in &nodes {
        if let Some(stats) = node.metrics().commit {
            syncs += stats.syncs;
            committed += stats.committed;
        }
    }
    for node in nodes {
        node.shutdown();
    }
    let _ = std::fs::remove_dir_all(&store_root);

    lat_us.sort_unstable();
    let pct = |p: f64| -> u64 {
        let idx = ((lat_us.len() as f64 * p).ceil() as usize).saturating_sub(1);
        lat_us.get(idx).copied().unwrap_or(0)
    };
    let total_ops = concurrency * ops;
    Sample {
        mode: mode_name,
        concurrency,
        ops: total_ops,
        ops_per_s: total_ops as f64 / wall.max(1e-9),
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        group_commit_factor: if syncs == 0 {
            0.0
        } else {
            committed as f64 / syncs as f64
        },
        syncs,
        committed,
    }
}

fn render(samples: &[Sample], metrics_overhead_pct: f64) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"arch\": \"{}\",", std::env::consts::ARCH);
    let _ = writeln!(json, "  \"n\": {N},");
    let _ = writeln!(json, "  \"m\": {M},");
    let _ = writeln!(json, "  \"block_bytes\": {BLOCK_BYTES},");
    let _ = writeln!(
        json,
        "  \"metrics_overhead_pct_at_{}\": {:.2},",
        CONCURRENCY[CONCURRENCY.len() - 1],
        metrics_overhead_pct
    );
    json.push_str("  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 == samples.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"mode\": \"{}\", \"concurrency\": {}, \"ops\": {}, \"ops_per_s\": {:.0}, \
             \"p50_us\": {}, \"p99_us\": {}, \"group_commit_factor\": {:.2}, \"syncs\": {}, \
             \"committed\": {}}}{}",
            s.mode,
            s.concurrency,
            s.ops,
            s.ops_per_s,
            s.p50_us,
            s.p99_us,
            s.group_commit_factor,
            s.syncs,
            s.committed,
            comma
        );
    }
    json.push_str("  ]\n}\n");
    json
}

fn main() {
    let mut smoke = false;
    let mut out_path: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = Some(PathBuf::from(arg));
        }
    }

    if smoke {
        // Observability overhead gate: metrics-on must stay within 10% of
        // metrics-off throughput. Loopback runs are noisy, so a miss is
        // retried with fresh clusters before it convicts.
        let mut attempts = 0;
        loop {
            attempts += 1;
            let off = run_point(SMOKE_CONCURRENCY, SMOKE_OPS_PER_CLIENT, false);
            let on = run_point(SMOKE_CONCURRENCY, SMOKE_OPS_PER_CLIENT, true);
            let overhead_pct = 100.0 * (1.0 - on.ops_per_s / off.ops_per_s.max(1e-9));
            eprintln!(
                "smoke metrics overhead (attempt {attempts}): off {:.0} ops/s, on {:.0} ops/s \
                 ({overhead_pct:+.1}%)",
                off.ops_per_s, on.ops_per_s
            );
            if on.ops_per_s >= 0.90 * off.ops_per_s {
                eprintln!("ok: metrics within 10% of metrics-off");
                break;
            }
            if attempts >= 3 {
                eprintln!("FAIL: metrics overhead above 10% across {attempts} attempts");
                std::process::exit(1);
            }
        }
        return;
    }

    let out_path = out_path.unwrap_or_else(|| PathBuf::from("BENCH_e2e.json"));
    let mut samples = Vec::new();
    for &conc in &CONCURRENCY {
        let s = run_point(conc, OPS_PER_CLIENT, true);
        eprintln!(
            "{:>10} @{:>2}: {:>7.0} ops/s  p50 {:>5}us  p99 {:>6}us  factor {:.1}",
            s.mode, s.concurrency, s.ops_per_s, s.p50_us, s.p99_us, s.group_commit_factor
        );
        samples.push(s);
    }

    let hi = CONCURRENCY[CONCURRENCY.len() - 1];
    // One metrics-off point at the highest concurrency: the delta against
    // the metrics-on group sample is the observability overhead.
    let off = run_point(hi, OPS_PER_CLIENT, false);
    eprintln!(
        "{:>10} @{:>2}: {:>7.0} ops/s  p50 {:>5}us  p99 {:>6}us  factor {:.1}",
        "group-off", off.concurrency, off.ops_per_s, off.p50_us, off.p99_us,
        off.group_commit_factor
    );
    samples.push(off);

    let of = |mode: &str, conc: usize| {
        samples
            .iter()
            .find(|s| s.mode == mode && s.concurrency == conc)
            .map_or(0.0, |s| s.ops_per_s)
    };
    let metrics_overhead_pct =
        100.0 * (1.0 - of("group", hi) / of("group_metrics_off", hi).max(1e-9));

    let json = render(&samples, metrics_overhead_pct);
    std::fs::write(&out_path, &json).expect("write benchmark json");
    print!("{json}");
    eprintln!("wrote {}", out_path.display());
}
