//! One workload, one pass: set-up, warm-up, the timed window, the checks,
//! and the metrics. End-to-end numbers come from [`untraced`] only; the
//! per-layer numbers come from [`traced`], a separate pass with the nodes'
//! metrics registries on and spans around every client call.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use fab_runtime::RuntimeCluster;

use crate::cluster::{bucket_mean_low, bucket_p50, Cluster, Snapshot, M};
use crate::gen::Pattern;
use crate::host::{fsync_us, peak_rss_mib};
use crate::layers::{ceilings, layer_walk};
use crate::report::Report;
use crate::span::{durations_ns_by_name, write_jsonl, Span, Tracer};
use crate::stats::{median_u64, percentile, sliced, Sliced};
use crate::workload::{
    preload, rebuild, run_window, sweep_all, Rebuild, Register, Sample, Spec, Worker,
};

/// The lengths every run uses. `window` is `--seconds`; the others are
/// constants of the benchmark (see `main.rs`).
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub warmup: Duration,
    pub window: Duration,
    /// The window is cut into this many slices; rates and medians are the
    /// median of the slices.
    pub slices: usize,
    /// Set-up (boot + preload) is repeated this often; `setup_s` is the
    /// median and the last cluster is the one measured.
    pub setups: usize,
    /// Steady workloads end with this many rounds of verification sweep
    /// and idle rebuild; `rebuild_stripes_per_s` (and, on the stripe
    /// workloads, `read_p50_us`) is the median of the rounds.
    pub idle_rebuilds: usize,
    /// Ops replayed by the layer walk.
    pub walk_ops: usize,
    pub store_root: PathBuf,
    pub out_dir: PathBuf,
}

/// One slice of a timed window: its length and the ops that completed in it.
struct Slice {
    secs: f64,
    samples: Vec<Sample>,
}

struct Latency {
    p50: Sliced,
    /// Pooled over the whole window, so that ten samples lie beyond it on
    /// every workload.
    p99: f64,
    count: usize,
}

struct Summary {
    ops_per_s: Sliced,
    ops: usize,
    write: Option<Latency>,
    read: Option<Latency>,
}

fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Latency statistics in microseconds from per-slice latencies in
/// nanoseconds. `None` when there is no sample at all.
fn latency_of(mut per_slice: Vec<Vec<u64>>) -> Option<Latency> {
    for v in &mut per_slice {
        v.sort_unstable();
    }
    let medians: Vec<f64> = per_slice
        .iter()
        .filter_map(|v| percentile(v, 0.5))
        .map(ns_to_us)
        .collect();
    let mut pooled: Vec<u64> = per_slice.into_iter().flatten().collect();
    pooled.sort_unstable();
    Some(Latency {
        p50: sliced(&medians)?,
        p99: ns_to_us(percentile(&pooled, 0.99)?),
        count: pooled.len(),
    })
}

/// Latency of the writes (or reads) of the window.
fn latency(slices: &[Slice], write: bool) -> Option<Latency> {
    latency_of(
        slices
            .iter()
            .map(|s| {
                s.samples
                    .iter()
                    .filter(|x| x.write == write)
                    .map(|x| x.lat_ns)
                    .collect()
            })
            .collect(),
    )
}

fn summarize(slices: &[Slice]) -> Option<Summary> {
    let rates: Vec<f64> = slices
        .iter()
        .map(|s| s.samples.len() as f64 / s.secs)
        .collect();
    Some(Summary {
        ops_per_s: sliced(&rates)?,
        ops: slices.iter().map(|s| s.samples.len()).sum(),
        write: latency(slices, true),
        read: latency(slices, false),
    })
}

/// Cuts a steady window's samples into equal slices by completion time.
/// Ops still in flight when the window closed belong to no slice.
fn cut(samples: &[Vec<Sample>], window: Duration, slices: usize) -> Vec<Slice> {
    let slice_us = (window.as_micros() as u64 / slices as u64).max(1);
    let mut out: Vec<Slice> = (0..slices)
        .map(|_| Slice {
            secs: slice_us as f64 / 1e6,
            samples: Vec::new(),
        })
        .collect();
    for s in samples.iter().flatten() {
        if let Some(slot) = out.get_mut((s.end_us / slice_us) as usize) {
            slot.samples.push(*s);
        }
    }
    out
}

/// A rebuild is one slice: the foreground ops that completed while it ran.
fn rebuild_slice(rb: &Rebuild) -> Slice {
    let end_us = (rb.secs * 1e6) as u64;
    Slice {
        secs: rb.secs,
        samples: rb
            .foreground
            .iter()
            .filter(|s| s.end_us <= end_us)
            .copied()
            .collect(),
    }
}

fn spread_note(s: &Sliced, count: Option<usize>) -> String {
    let n = count.map_or(String::new(), |n| format!("n={n}, "));
    format!("{n}slices {:.4}..{:.4}", s.min, s.max)
}

fn boot_loaded(spec: &Spec, opts: &Options, metrics: bool) -> Result<Cluster, String> {
    let root = opts.store_root.join("cluster");
    let cluster = Cluster::boot(spec.block_bytes, Some(&root), metrics)
        .map_err(|e| format!("boot cluster: {e}"))?;
    preload(|| cluster.client(), spec, opts.seed)?;
    Ok(cluster)
}

/// The workload's generators: one over all stripes as the foreground load
/// of a rebuild, else the team of [`crate::gen::CLIENTS`] on disjoint halves.
fn generators(cluster: &Cluster, spec: &Spec, seed: u64) -> Vec<Worker> {
    if spec.rebuild_under_load {
        vec![Worker::new(
            cluster.client(),
            spec,
            seed,
            0,
            0..spec.stripes,
        )]
    } else {
        Worker::team(|| cluster.client(), spec, seed)
    }
}

/// Totals over generators, and the report they end in.
fn close_report<C: Register>(report: &mut Report, workers: &[Worker<C>]) {
    for w in workers {
        report.attempted += w.attempted;
        report.failed += w.failed;
        if report.first_failure.is_none() {
            report.first_failure = w.first_failure().map(str::to_string);
        }
    }
    report.correct = report.failed == 0;
}

fn new_report(spec: &Spec, traced: bool) -> Report {
    Report {
        workload: spec.name,
        traced,
        attempted: 0,
        failed: 0,
        correct: false,
        first_failure: None,
        metrics: Vec::new(),
    }
}

/// The median is gated; the p99 rides in the note (its run-to-run spread is
/// wider than any bound the contract allows, so the traced pass reports it).
fn push_p50(report: &mut Report, name: &'static str, lat: &Latency) {
    let note = format!(
        "{}, p99 {:.1} pooled",
        spread_note(&lat.p50, Some(lat.count)),
        lat.p99
    );
    report.push(name, lat.p50.median, note);
}

/// The end-to-end pass: tracing off, node metrics off.
pub fn untraced(spec: &Spec, opts: &Options) -> Result<Report, String> {
    let mut report = new_report(spec, false);
    let mut setup_secs = Vec::with_capacity(opts.setups);
    let mut cluster = None;
    for _ in 0..opts.setups {
        if let Some(previous) = cluster.take() {
            Cluster::shutdown(previous);
        }
        let t0 = Instant::now();
        cluster = Some(boot_loaded(spec, opts, false)?);
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let mut cluster = cluster.ok_or("at least one set-up is required")?;

    let (summary, sweep_read, cpu_ms_per_op);
    let mut rates = Vec::new();
    let mut workers = generators(&cluster, spec, opts.seed);
    if spec.rebuild_under_load {
        // The window is as many whole rebuilds as it takes to fill
        // `--seconds`, each with the generator as foreground load.
        let warm_end = Instant::now() + opts.warmup;
        workers[0].run(|| Instant::now() >= warm_end, warm_end, None);
        let (mut slices, mut cpu) = (Vec::new(), 0.0);
        let started = Instant::now();
        while slices.is_empty() || started.elapsed() < opts.window {
            let rb = rebuild(&mut cluster, spec.stripes, Some(&mut workers[0]))?;
            rates.push(spec.stripes as f64 / rb.secs);
            cpu += rb.cpu_seconds;
            slices.push(rebuild_slice(&rb));
        }
        sweep_all(&mut workers, spec.sweep_passes);
        summary = summarize(&slices).ok_or("no foreground op completed")?;
        sweep_read = None;
        cpu_ms_per_op = cpu * 1000.0 / (spec.stripes as f64 * rates.len() as f64);
    } else {
        let window = run_window(&mut workers, opts.warmup, opts.window);
        let slices = cut(&window.samples, opts.window, opts.slices);
        summary = summarize(&slices).ok_or("no op completed in the window")?;
        cpu_ms_per_op = window.cpu_seconds * 1000.0 / summary.ops.max(1) as f64;
        // Rounds of sweep and idle rebuild: the sweep checks everything
        // written so far, the rebuild shows it survives losing a brick.
        let mut sweeps = Vec::new();
        for _ in 0..opts.idle_rebuilds {
            sweeps.push(sweep_all(&mut workers, spec.sweep_passes));
            let rb = rebuild(&mut cluster, spec.stripes, None)?;
            rates.push(spec.stripes as f64 / rb.secs);
        }
        sweep_all(&mut workers, 1);
        // One slice per sweep: `read-block` of every block by both
        // generators at once.
        sweep_read = latency_of(sweeps);
    }
    let rebuild_rate = sliced(&rates).ok_or("no rebuild ran")?;

    report.push(
        "ops_per_s",
        summary.ops_per_s.median,
        spread_note(&summary.ops_per_s, Some(summary.ops)),
    );
    let write = summary
        .write
        .as_ref()
        .ok_or("no write completed in the window")?;
    push_p50(&mut report, "write_p50_us", write);
    // A window without reads (the stripe workloads) takes its read latency
    // from the verification sweep.
    let read = summary
        .read
        .as_ref()
        .or(sweep_read.as_ref())
        .ok_or("no read completed")?;
    push_p50(&mut report, "read_p50_us", read);
    report.push(
        "rebuild_stripes_per_s",
        rebuild_rate.median,
        format!(
            "{} stripes per rebuild, {}",
            spec.stripes,
            spread_note(&rebuild_rate, Some(rates.len()))
        ),
    );
    report.push(
        "cpu_ms_per_op",
        cpu_ms_per_op,
        if spec.rebuild_under_load {
            "process user+sys per rebuilt stripe"
        } else {
            "process user+sys per correct op"
        },
    );
    report.push(
        "peak_rss_mib",
        peak_rss_mib(),
        "VmHWM, bricks and generators",
    );
    let setup = sliced(&setup_secs).ok_or("no set-up ran")?;
    report.push(
        "setup_s",
        setup.median,
        spread_note(&setup, Some(setup_secs.len())),
    );
    close_report(&mut report, &workers);
    cluster.shutdown();
    Ok(report)
}

/// A percentile in microseconds of the samples of one kind, pooled (0 when
/// there is none).
fn pooled_percentile_us(samples: &[Vec<Sample>], write: bool, p: f64) -> f64 {
    let mut v: Vec<u64> = samples
        .iter()
        .flatten()
        .filter(|s| s.write == write)
        .map(|s| s.lat_ns)
        .collect();
    v.sort_unstable();
    percentile(&v, p).map_or(0.0, ns_to_us)
}

fn pooled_p50(samples: &[Vec<Sample>], write: bool) -> f64 {
    pooled_percentile_us(samples, write, 0.5)
}

/// A short window of the same workload on another host: write p50, read
/// p50 (0 when the workload has no such op).
fn short_window<C: Register>(
    connect: impl Fn() -> C,
    spec: &Spec,
    opts: &Options,
    window: Duration,
    report: &mut Report,
) -> Result<(f64, f64), String> {
    preload(&connect, spec, opts.seed)?;
    let mut workers = Worker::team(&connect, spec, opts.seed);
    let w = run_window(&mut workers, opts.warmup / 2, window);
    close_report(report, &workers);
    Ok((pooled_p50(&w.samples, true), pooled_p50(&w.samples, false)))
}

fn p50_us(by_name: &std::collections::BTreeMap<&'static str, Vec<u64>>, name: &str) -> Option<f64> {
    by_name
        .get(name)
        .and_then(|v| percentile(v, 0.5))
        .map(ns_to_us)
}

/// The walk's child spans that lie on an op's blocking path: the client's
/// own socket hop, every frame's encode and decode, the codec call, and one
/// brick's synced append per quorum round. (`core.sim_op` is a child too,
/// but it re-runs the whole op in one thread and is not on the path.)
const BLOCKING_PATH: [&str; 6] = [
    "net.admin_rtt",
    "wire.encode",
    "wire.decode",
    "erasure.encode",
    "erasure.modify",
    "store.append_sync",
];

/// For every `walk.op`, the summed duration of its children named in
/// `names`; the p50 over ops in microseconds. `writes_only` keeps the ops
/// that append to the store (reads never do).
fn walk_sum_p50_us(spans: &[Span], names: &[&str], writes_only: bool) -> f64 {
    let mut sums: std::collections::BTreeMap<usize, (u64, bool)> = Default::default();
    for s in spans {
        let Some(parent) = s.parent else { continue };
        if spans[parent].name != "walk.op" {
            continue;
        }
        let entry = sums.entry(parent).or_insert((0, false));
        if names.contains(&s.name) {
            entry.0 += s.duration_ns();
        }
        entry.1 |= s.name == "store.append_sync";
    }
    let mut v: Vec<u64> = sums
        .values()
        .filter(|(_, is_write)| *is_write || !writes_only)
        .map(|(ns, _)| *ns)
        .collect();
    median_u64(&mut v).unwrap_or(0.0) / 1000.0
}

/// Share of completed reads that left the one-round fast path.
fn recovered_share(d: &Snapshot) -> f64 {
    let rec = d.counter("op_reads_recovered") as f64;
    ratio(rec, rec + d.counter("op_reads_fastpath") as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced pass: every per-layer metric.
pub fn traced(spec: &Spec, opts: &Options) -> Result<Report, String> {
    let mut report = new_report(spec, true);
    let epoch = Instant::now();
    let env_fsync = fsync_us(&opts.store_root).map_err(|e| format!("fsync probe: {e}"))?;
    let traced_window = opts.window / 2;
    let aux_window = opts.window / 8;

    // (a) The workload with node metrics on and a span around every call.
    let mut cluster = boot_loaded(spec, opts, true)?;
    let mut workers = generators(&cluster, spec, opts.seed);
    for w in &mut workers {
        w.tracer = Some(Tracer::new(epoch));
    }
    let retries_before: u64 = workers.iter().map(|w| w.abort_retries).sum();
    let (delta, samples, secs, repair): (Snapshot, Vec<Vec<Sample>>, f64, Rebuild);
    let (sweep_delta, mut healthy_sweep): (Snapshot, Vec<u64>);
    if spec.rebuild_under_load {
        let before_sweep = cluster.snapshot();
        healthy_sweep = sweep_all(&mut workers, 1);
        sweep_delta = cluster.snapshot().since(&before_sweep);
        let rb = rebuild(&mut cluster, spec.stripes, Some(&mut workers[0]))?;
        delta = rb.delta.clone();
        samples = vec![rebuild_slice(&rb).samples];
        secs = rb.secs;
        repair = rb;
    } else {
        run_window(&mut workers, opts.warmup, Duration::ZERO);
        let before = cluster.snapshot();
        let w = run_window(&mut workers, Duration::ZERO, traced_window);
        delta = cluster.snapshot().since(&before);
        samples = vec![cut(&w.samples, traced_window, 1).remove(0).samples];
        secs = traced_window.as_secs_f64();
        let before_sweep = cluster.snapshot();
        healthy_sweep = sweep_all(&mut workers, 1);
        sweep_delta = cluster.snapshot().since(&before_sweep);
        repair = rebuild(&mut cluster, spec.stripes, None)?;
    }
    let retries: u64 = workers.iter().map(|w| w.abort_retries).sum::<u64>() - retries_before;
    // Reads of a healthy cluster already leave the fast path now and then
    // (see README, "What the traced pass shows"); the sweep after the
    // rebuild should do so no more often than the one before it.
    let before_sweep = cluster.snapshot();
    sweep_all(&mut workers, 1);
    let sweep_after_rebuild = recovered_share(&cluster.snapshot().since(&before_sweep));

    // (b) The layer walk and the stand-alone ceilings.
    let mut tracer = Tracer::new(epoch);
    let mut admin = cluster.client();
    let walk_dir = opts.store_root.join("walk");
    let counts = layer_walk(
        spec,
        opts.seed,
        opts.walk_ops,
        &walk_dir,
        &mut admin,
        &mut tracer,
    )?;
    let ceil = ceilings(spec, opts.seed, &mut tracer)?;
    let _ = std::fs::remove_dir_all(&walk_dir);
    close_report(&mut report, &workers);
    for w in &mut workers {
        if let Some(t) = w.tracer.take() {
            tracer.absorb(t);
        }
    }
    cluster.shutdown();

    // (c) The same workload with tracing off, for as long: the base of
    // `trace.overhead_pct`.
    let untraced_rate = {
        let mut cluster = boot_loaded(spec, opts, false)?;
        let mut workers = generators(&cluster, spec, opts.seed);
        let rate = if spec.rebuild_under_load {
            let rb = rebuild(&mut cluster, spec.stripes, Some(&mut workers[0]))?;
            rebuild_slice(&rb).samples.len() as f64 / rb.secs
        } else {
            let w = run_window(&mut workers, opts.warmup, traced_window);
            let ops = cut(&w.samples, traced_window, 1)[0].samples.len();
            ops as f64 / traced_window.as_secs_f64()
        };
        close_report(&mut report, &workers);
        cluster.shutdown();
        rate
    };

    // (d) The two auxiliary hosts: TCP without a store, and the in-process
    // runtime with one.
    let volatile =
        Cluster::boot(spec.block_bytes, None, false).map_err(|e| format!("boot: {e}"))?;
    let (vol_write, vol_read) =
        short_window(|| volatile.client(), spec, opts, aux_window, &mut report)?;
    volatile.shutdown();
    let runtime_dir = opts.store_root.join("runtime");
    let runtime = RuntimeCluster::with_persistence(
        crate::cluster::register_config(spec.block_bytes),
        &runtime_dir,
    );
    let in_process = short_window(|| runtime.client(), spec, opts, aux_window, &mut report);
    runtime.shutdown();
    let _ = std::fs::remove_dir_all(&runtime_dir);
    let (rt_write, rt_read) = in_process?;

    let spans = tracer.spans();
    let trace_path = opts.out_dir.join(format!("{}.trace.jsonl", spec.name));
    write_jsonl(&trace_path, spans).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let by_name = durations_ns_by_name(spans);
    let walk = |name: &str| p50_us(&by_name, name);

    let ops = samples.iter().map(Vec::len).sum::<usize>() as f64;
    let writes: Vec<&Sample> = samples.iter().flatten().filter(|s| s.write).collect();
    let blocks_per_write = match spec.pattern {
        Pattern::StripeWrites => M,
        Pattern::BlockMix { .. } => 1,
    };
    let user_bytes_written = (writes.len() * blocks_per_write * spec.block_bytes) as f64;
    let traced_write_p50 = pooled_p50(&samples, true);
    let traced_rate = ops / secs;
    let frames =
        (delta.peers.frames_sent + delta.clients.frames_sent + delta.clients.frames_recv) as f64;
    let bytes =
        (delta.peers.bytes_sent + delta.clients.bytes_sent + delta.clients.bytes_recv) as f64;
    let n_ops = format!("n={ops}");

    let on_path = |name: &str, fallback: f64| match walk(name) {
        Some(v) => (v, "p50 of the walk's spans".to_string()),
        None => (
            fallback,
            "not on this workload's path; stand-alone ceiling".to_string(),
        ),
    };
    let (v, note) = on_path("erasure.encode", ceil.encode_us);
    report.push("erasure.encode_us", v, note);
    let (v, note) = on_path("erasure.modify", ceil.modify_us);
    report.push("erasure.modify_us", v, note);
    report.push(
        "erasure.decode_us",
        ceil.decode_us,
        "m shares, one parity; stand-alone ceiling",
    );
    report.push(
        "erasure.encode_mib_per_s",
        ceil.encode_mib_per_s,
        "user bytes / encode time",
    );
    report.push(
        "wire.encode_us",
        walk_sum_p50_us(spans, &["wire.encode"], false),
        "all frames of one op's blocking path, p50 over ops",
    );
    report.push(
        "wire.decode_us",
        walk_sum_p50_us(spans, &["wire.decode"], false),
        "all frames of one op's blocking path, p50 over ops",
    );
    report.push(
        "wire.bytes_per_op",
        counts.per_op(spec.pattern, |k| k.wire_bytes),
        "one frame per hop of the blocking path; exact",
    );
    report.push("store.crc32_mib_per_s", ceil.crc32_mib_per_s, "one block");
    report.push(
        "store.append_sync_us",
        walk("store.append_sync").unwrap_or(0.0),
        "one brick, one round; 0 = the ops never append",
    );
    report.push(
        "store.syncs_per_op",
        ratio(delta.syncs as f64, ops),
        n_ops.clone(),
    );
    report.push(
        "store.records_per_sync",
        ratio(delta.committed as f64, delta.syncs as f64),
        format!("{} syncs", delta.syncs),
    );
    report.push(
        "store.fsync_p50_us",
        bucket_p50(delta.histogram("store_fsync_micros")),
        "log2 bucket upper bound",
    );
    report.push(
        "store.log_bytes_per_user_byte",
        ratio(delta.log_bytes as f64, user_bytes_written),
        "ideal n/m = 1.67; compaction shrinks it",
    );
    report.push(
        "store.commit_wait_us",
        traced_write_p50 - vol_write,
        "traced write p50 - net.volatile_write_p50_us",
    );
    report.push(
        "core.sim_op_us",
        walk("core.sim_op").unwrap_or(0.0),
        "all n bricks, one thread",
    );
    report.push(
        "core.msgs_per_op",
        counts.per_op(spec.pattern, |k| k.messages),
        "exact",
    );
    report.push(
        "core.disk_writes_per_op",
        counts.per_op(spec.pattern, |k| k.disk_writes),
        "exact",
    );
    report.push(
        "core.disk_reads_per_op",
        counts.per_op(spec.pattern, |k| k.disk_reads),
        "exact",
    );
    report.push(
        "core.payload_bytes_per_op",
        counts.per_op(spec.pattern, |k| k.payload_bytes),
        "exact",
    );
    report.push(
        "core.write_order_p50_us",
        bucket_p50(delta.histogram("op_write_order_micros")),
        "log2 bucket upper bound",
    );
    report.push(
        "core.write_store_p50_us",
        bucket_p50(delta.histogram("op_write_store_micros")),
        "log2 bucket upper bound",
    );
    report.push(
        "core.quorum_rounds_mean",
        bucket_mean_low(delta.histogram("op_quorum_rounds")),
        "log2 bucket lower bounds; exact for 1 and 2 rounds",
    );
    report.push(
        "core.reads_recovered_share",
        recovered_share(&delta),
        format!("{} reads recovered", delta.counter("op_reads_recovered")),
    );
    report.push(
        "store.records_per_sweep_read",
        ratio(sweep_delta.committed as f64, healthy_sweep.len() as f64),
        "log records committed during a read-only sweep / its reads; 0 unless reads recover",
    );
    report.push(
        "core.sweep_recovered_share",
        recovered_share(&sweep_delta),
        "read-block of every block, no brick replaced yet",
    );
    report.push(
        "core.aborted_share",
        ratio(delta.counter("op_aborted") as f64, ops + retries as f64),
        format!(
            "{} aborts, repair's scrubs included",
            delta.counter("op_aborted")
        ),
    );
    report.push("net.frames_per_op", ratio(frames, ops), n_ops.clone());
    report.push("net.bytes_per_op", ratio(bytes, ops), n_ops.clone());
    report.push(
        "net.frames_per_syscall",
        ratio(delta.peers.frames_sent as f64, delta.peers.writes as f64),
        "peer links",
    );
    report.push(
        "net.pool_miss_share",
        ratio(
            delta.pool_misses as f64,
            (delta.pool_hits + delta.pool_misses) as f64,
        ),
        format!("{} misses", delta.pool_misses),
    );
    report.push(
        "net.admin_rtt_us",
        walk("net.admin_rtt").unwrap_or(0.0),
        "p50",
    );
    report.push("net.volatile_write_p50_us", vol_write, "no store_dir");
    report.push(
        "net.volatile_read_p50_us",
        vol_read,
        "0 = the workload has no reads",
    );
    report.push(
        "runtime.write_p50_us",
        rt_write,
        "in-process channels, durable",
    );
    report.push(
        "runtime.read_p50_us",
        rt_read,
        "0 = the workload has no reads",
    );
    let p = &repair.progress;
    report.push(
        "repair.scrub_p50_us",
        p.scrub_p50_micros as f64,
        format!("{} stripes", p.repaired),
    );
    report.push("repair.scrub_p99_us", p.scrub_p99_micros as f64, "");
    report.push("repair.retried", p.retried as f64, "");
    report.push("repair.failed", p.failed as f64, "");
    report.push(
        "repair.net_bytes_per_rebuilt_byte",
        ratio(
            repair.delta.peers.bytes_sent as f64,
            p.bytes_reconstructed as f64,
        ),
        "peer bytes sent over the rebuild / bytes reconstructed; ideal about m",
    );
    report.push(
        "repair.sweep_recovered_share",
        sweep_after_rebuild,
        "the same sweep after the rebuild completed",
    );
    report.push("env.fsync_us", env_fsync, "4 KiB write_all + sync_data");
    report.push(
        "e2e.unattributed_us",
        traced_write_p50 - walk_sum_p50_us(spans, &BLOCKING_PATH, true),
        "traced write p50 - p50 of the walk's blocking-path sum",
    );
    report.push(
        "write_p99_us",
        pooled_percentile_us(&samples, true, 0.99),
        format!(
            "n={}, traced window; too unsteady between runs to gate",
            writes.len()
        ),
    );
    let read_n = ops as usize - writes.len();
    let (read_p99, read_n) = if read_n > 0 {
        (pooled_percentile_us(&samples, false, 0.99), read_n)
    } else {
        healthy_sweep.sort_unstable();
        let p99 = percentile(&healthy_sweep, 0.99).map_or(0.0, ns_to_us);
        (p99, healthy_sweep.len())
    };
    report.push(
        "read_p99_us",
        read_p99,
        format!("n={read_n}, traced window, or the sweep when the window has no reads"),
    );
    report.push(
        "trace.write_p50_us",
        traced_write_p50,
        format!("n={}", writes.len()),
    );
    report.push("trace.ops_per_s", traced_rate, n_ops);
    report.push(
        "trace.overhead_pct",
        100.0 * ratio(untraced_rate - traced_rate, untraced_rate),
        format!("untraced {untraced_rate:.1} ops/s, measured after the traced window for as long"),
    );
    report.correct = report.failed == 0;
    Ok(report)
}
