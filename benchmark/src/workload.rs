//! The four workloads, the closed-loop generator that drives them, and the
//! correctness checks that ride inside every one.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use fab_core::{BlockValue, OpResult, StripeId};
use fab_net::NetClient;
use fab_runtime::RuntimeClient;
use fab_wire::{AdminOp, AdminResponse, RepairProgress};

use crate::cluster::{Cluster, Snapshot, M, VICTIM};
use crate::gen::{client_range, payload, Op, OpKind, OpStream, Pattern, CLIENTS};
use crate::host::process_cpu_seconds;
use crate::span::Tracer;

/// An aborted operation is retried at once this many times, timed from its
/// first attempt; still aborted after that, it has failed.
pub const ABORT_RETRIES: u32 = 3;

/// Threads that write version 1 of every stripe during set-up. More than
/// [`CLIENTS`] so the group-commit pipeline batches and set-up stays short.
const PRELOAD_THREADS: usize = 8;

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why this workload exists.
    pub why: &'static str,
    pub block_bytes: usize,
    /// Stripes `0..stripes`, preloaded in set-up and split between the
    /// generators.
    pub stripes: u64,
    pub pattern: Pattern,
    /// `true`: the timed window is a sequence of brick rebuilds with one
    /// generator as foreground load. `false`: a steady window, then one
    /// idle rebuild.
    pub rebuild_under_load: bool,
    /// Passes over every block of every stripe in one verification sweep.
    /// On the stripe workloads the sweeps are also where `read_p50_us` comes
    /// from, so each is a few passes long.
    pub sweep_passes: u32,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "stripe_write_512",
        why: "512 B full-stripe writes: fixed per-op costs (two quorum rounds, group-commit fsyncs, hand-offs) do all the work; a per-byte change (erasure, CRC, codec) must not move it",
        block_bytes: 512,
        stripes: 1024,
        pattern: Pattern::StripeWrites,
        rebuild_under_load: false,
        sweep_passes: 2,
    },
    Spec {
        name: "stripe_write_64k",
        why: "64 KiB full-stripe writes (192 KiB per op): per-byte costs (RS encode, frame CRC and copy, log append bandwidth) do the work, with 128x fewer fsyncs per byte",
        block_bytes: 64 * 1024,
        stripes: 64,
        pattern: Pattern::StripeWrites,
        rebuild_under_load: false,
        sweep_passes: 3,
    },
    Spec {
        name: "block_mix_4k",
        why: "80% read-block / 20% write-block on 4 KiB blocks: one-round fast-path reads that never touch the store, read-modify-write block writes; a write-path gain paid for by reads shows here",
        block_bytes: 4096,
        stripes: 1024,
        pattern: Pattern::BlockMix { read_pct: 80 },
        rebuild_under_load: false,
        sweep_passes: 1,
    },
    Spec {
        name: "rebuild_4k",
        why: "replace a brick and rebuild it under the block_mix_4k load: decode, the coordinator's recover path and fab-repair do the work; rebuild speed trades against degraded-read and foreground latency",
        block_bytes: 4096,
        stripes: 2048,
        pattern: Pattern::BlockMix { read_pct: 80 },
        rebuild_under_load: true,
        sweep_passes: 1,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One completed, correct operation of the timed window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time since the window (or rebuild) began, microseconds.
    pub end_us: u64,
    pub lat_ns: u64,
    pub write: bool,
}

/// The three register operations the generators issue, over either host:
/// `NetClient` (TCP, every workload) or `RuntimeClient` (in-process
/// channels, the `runtime.*` auxiliary measurement).
pub trait Register: Send {
    fn write_stripe(&mut self, stripe: StripeId, blocks: Vec<Bytes>) -> Result<OpResult, String>;
    fn write_block(&mut self, stripe: StripeId, j: usize, block: Bytes)
        -> Result<OpResult, String>;
    fn read_block(&mut self, stripe: StripeId, j: usize) -> Result<OpResult, String>;
}

impl Register for NetClient {
    fn write_stripe(&mut self, stripe: StripeId, blocks: Vec<Bytes>) -> Result<OpResult, String> {
        self.try_write_stripe(stripe, blocks)
            .map_err(|e| e.to_string())
    }
    fn write_block(
        &mut self,
        stripe: StripeId,
        j: usize,
        block: Bytes,
    ) -> Result<OpResult, String> {
        self.try_write_block(stripe, j, block)
            .map_err(|e| e.to_string())
    }
    fn read_block(&mut self, stripe: StripeId, j: usize) -> Result<OpResult, String> {
        self.try_read_block(stripe, j).map_err(|e| e.to_string())
    }
}

impl Register for RuntimeClient {
    fn write_stripe(&mut self, stripe: StripeId, blocks: Vec<Bytes>) -> Result<OpResult, String> {
        RuntimeClient::write_stripe(self, stripe, blocks).map_err(|e| e.to_string())
    }
    fn write_block(
        &mut self,
        stripe: StripeId,
        j: usize,
        block: Bytes,
    ) -> Result<OpResult, String> {
        RuntimeClient::write_block(self, stripe, j, block).map_err(|e| e.to_string())
    }
    fn read_block(&mut self, stripe: StripeId, j: usize) -> Result<OpResult, String> {
        RuntimeClient::read_block(self, stripe, j).map_err(|e| e.to_string())
    }
}

/// Whole-stripe payloads for version `version` of every block.
fn stripe_blocks(seed: u64, stripe: u64, version: u32, block_bytes: usize) -> Vec<Bytes> {
    (0..M)
        .map(|j| Bytes::from(payload(seed, stripe, j, version, block_bytes)))
        .collect()
}

fn retry_aborts(
    mut attempt: impl FnMut() -> Result<OpResult, String>,
) -> (Result<OpResult, String>, u32) {
    let mut retries = 0;
    loop {
        match attempt() {
            Ok(OpResult::Aborted(_)) if retries < ABORT_RETRIES => retries += 1,
            other => return (other, retries),
        }
    }
}

/// Writes version 1 of every stripe of `spec` (set-up).
pub fn preload<C: Register>(connect: impl Fn() -> C, spec: &Spec, seed: u64) -> Result<(), String> {
    let threads = PRELOAD_THREADS.min(spec.stripes as usize);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let range = client_range(t, threads, spec.stripes);
                let mut client = connect();
                scope.spawn(move || -> Result<(), String> {
                    for stripe in range {
                        let blocks = stripe_blocks(seed, stripe, 1, spec.block_bytes);
                        let (result, _) =
                            retry_aborts(|| client.write_stripe(StripeId(stripe), blocks.clone()));
                        if result != Ok(OpResult::Written) {
                            return Err(format!("preload of stripe {stripe}: {result:?}"));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| {
            h.join()
                .map_err(|_| "preload thread panicked".to_string())?
        })
    })
}

/// One closed-loop generator: a `NetClient`, its op stream, and the version
/// it last wrote to every block of the stripes it owns.
pub struct Worker<C: Register = NetClient> {
    client: C,
    stream: OpStream,
    seed: u64,
    block_bytes: usize,
    range: Range<u64>,
    /// Last written version per block, `(stripe − range.start) · M + block`.
    versions: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
    /// Aborted attempts that were retried (wasted work).
    pub abort_retries: u64,
    /// Present in traced passes: one `client.op.*` span per operation.
    pub tracer: Option<Tracer>,
    first_failure: Option<String>,
}

impl<C: Register> Worker<C> {
    /// A generator over `range`, which set-up has preloaded with version 1.
    pub fn new(client: C, spec: &Spec, seed: u64, index: usize, range: Range<u64>) -> Self {
        let blocks = (range.end - range.start) as usize * M;
        Worker {
            client,
            stream: OpStream::new(seed, index, spec.pattern, range.clone(), M),
            seed,
            block_bytes: spec.block_bytes,
            range,
            versions: vec![1; blocks],
            attempted: 0,
            failed: 0,
            abort_retries: 0,
            tracer: None,
            first_failure: None,
        }
    }

    /// The [`CLIENTS`] generators of a steady window, on disjoint ranges.
    pub fn team(connect: impl Fn() -> C, spec: &Spec, seed: u64) -> Vec<Self> {
        (0..CLIENTS)
            .map(|c| {
                Worker::new(
                    connect(),
                    spec,
                    seed,
                    c,
                    client_range(c, CLIENTS, spec.stripes),
                )
            })
            .collect()
    }

    pub fn first_failure(&self) -> Option<&str> {
        self.first_failure.as_deref()
    }

    fn slot(&self, stripe: u64, block: usize) -> usize {
        (stripe - self.range.start) as usize * M + block
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    fn expected(&self, stripe: u64, block: usize) -> Option<Vec<u8>> {
        match self.versions[self.slot(stripe, block)] {
            0 => None,
            v => Some(payload(self.seed, stripe, block, v, self.block_bytes)),
        }
    }

    fn block_matches(&self, stripe: u64, block: usize, got: &BlockValue) -> bool {
        match (self.expected(stripe, block), got) {
            (None, BlockValue::Nil) => true,
            (None, BlockValue::Data(b)) => b.iter().all(|&x| x == 0),
            (Some(want), BlockValue::Data(b)) => b[..] == want[..],
            _ => false,
        }
    }

    /// Runs one generated op; `Some(sample)` if it completed correctly.
    fn execute(&mut self, op: Op, origin: Instant) -> Option<Sample> {
        self.attempted += 1;
        let id = StripeId(op.stripe);
        let op_seq = self.attempted;
        let write = op.kind != OpKind::ReadBlock;
        let span_name = if write {
            "client.op.write"
        } else {
            "client.op.read"
        };

        // Payloads are generated before the clock starts: the generator's
        // own work is not the system's latency.
        let new_version = |w: &Self, j: usize| w.versions[w.slot(op.stripe, j)] + 1;
        let stripe_payload: Vec<Bytes> = match op.kind {
            OpKind::WriteStripe => (0..M)
                .map(|j| {
                    let v = new_version(self, j);
                    Bytes::from(payload(self.seed, op.stripe, j, v, self.block_bytes))
                })
                .collect(),
            OpKind::WriteBlock => {
                let v = new_version(self, op.block);
                vec![Bytes::from(payload(
                    self.seed,
                    op.stripe,
                    op.block,
                    v,
                    self.block_bytes,
                ))]
            }
            OpKind::ReadBlock => Vec::new(),
        };

        let span = self
            .tracer
            .as_mut()
            .map(|t| t.begin(span_name, None, op_seq));
        let started = Instant::now();
        let client = &mut self.client;
        let (result, retries) = retry_aborts(|| match op.kind {
            OpKind::WriteStripe => client.write_stripe(id, stripe_payload.clone()),
            OpKind::WriteBlock => client.write_block(id, op.block, stripe_payload[0].clone()),
            OpKind::ReadBlock => client.read_block(id, op.block),
        });
        let lat_ns = started.elapsed().as_nanos() as u64;
        if let (Some(t), Some(span)) = (self.tracer.as_mut(), span) {
            t.end(span);
        }
        let end_us = origin.elapsed().as_micros() as u64;
        self.abort_retries += u64::from(retries);

        let correct = match (op.kind, &result) {
            (OpKind::WriteStripe, Ok(OpResult::Written)) => {
                for j in 0..M {
                    let slot = self.slot(op.stripe, j);
                    self.versions[slot] += 1;
                }
                true
            }
            (OpKind::WriteBlock, Ok(OpResult::Written)) => {
                let slot = self.slot(op.stripe, op.block);
                self.versions[slot] += 1;
                true
            }
            (OpKind::ReadBlock, Ok(OpResult::Block(got))) => {
                self.block_matches(op.stripe, op.block, got)
            }
            _ => false,
        };
        if !correct {
            let shown = match &result {
                Ok(OpResult::Block(_)) => "a block that is not what was last written".to_string(),
                other => format!("{other:?}"),
            };
            self.fail(format!(
                "{:?} stripe {} block {}: {shown}",
                op.kind, op.stripe, op.block
            ));
            return None;
        }
        Some(Sample {
            end_us,
            lat_ns,
            write,
        })
    }

    /// Issues ops until `stop()`; records a sample per correct op when
    /// `samples` is given (warm-up passes `None`). `origin` is the instant
    /// completion times are measured from.
    pub fn run(
        &mut self,
        stop: impl Fn() -> bool,
        origin: Instant,
        mut samples: Option<&mut Vec<Sample>>,
    ) {
        while !stop() {
            let op = self.stream.next_op();
            let sample = self.execute(op, origin);
            if let (Some(out), Some(sample)) = (samples.as_deref_mut(), sample) {
                out.push(sample);
            }
        }
    }

    /// The verification sweep: re-reads every block of every stripe this
    /// generator owns, `passes` times, with `read-block`, and compares each
    /// with what it last wrote. Returns the read latencies in nanoseconds.
    pub fn sweep(&mut self, passes: u32) -> Vec<u64> {
        let mut lat = Vec::with_capacity((self.range.end - self.range.start) as usize * M);
        for _ in 0..passes {
            for stripe in self.range.clone() {
                for block in 0..M {
                    self.attempted += 1;
                    let started = Instant::now();
                    let client = &mut self.client;
                    let (result, retries) =
                        retry_aborts(|| client.read_block(StripeId(stripe), block));
                    let ns = started.elapsed().as_nanos() as u64;
                    self.abort_retries += u64::from(retries);
                    match &result {
                        Ok(OpResult::Block(got)) if self.block_matches(stripe, block, got) => {
                            lat.push(ns);
                        }
                        Ok(OpResult::Block(_)) => self.fail(format!(
                            "sweep read of stripe {stripe} block {block}: not what was last written"
                        )),
                        other => {
                            self.fail(format!(
                                "sweep read of stripe {stripe} block {block}: {other:?}"
                            ));
                        }
                    }
                }
            }
        }
        lat
    }
}

/// What a steady timed window produced.
pub struct Window {
    /// Per generator, in completion order.
    pub samples: Vec<Vec<Sample>>,
    /// Process CPU seconds used between the window's first and last instant.
    pub cpu_seconds: f64,
}

/// Warm-up, then the timed window, on all `workers` at once.
pub fn run_window<C: Register>(
    workers: &mut [Worker<C>],
    warmup: Duration,
    window: Duration,
) -> Window {
    let warm_end = Instant::now() + warmup;
    let end = warm_end + window;
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|w| {
                scope.spawn(move || {
                    w.run(|| Instant::now() >= warm_end, warm_end, None);
                    let mut samples = Vec::new();
                    w.run(|| Instant::now() >= end, warm_end, Some(&mut samples));
                    samples
                })
            })
            .collect();
        std::thread::sleep(warm_end.saturating_duration_since(Instant::now()));
        let cpu0 = process_cpu_seconds();
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
        let cpu_seconds = process_cpu_seconds() - cpu0;
        let samples = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        Window {
            samples,
            cpu_seconds,
        }
    })
}

/// Runs the sweep on every worker in parallel; returns all read latencies.
pub fn sweep_all<C: Register>(workers: &mut [Worker<C>], passes: u32) -> Vec<u64> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|w| scope.spawn(move || w.sweep(passes)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep thread panicked"))
            .collect()
    })
}

/// One brick replacement and rebuild.
pub struct Rebuild {
    /// `RepairStart` acknowledged → `RepairStatus` reports not running.
    pub secs: f64,
    pub progress: RepairProgress,
    /// Cluster counters over the rebuild (after the replacement settled).
    pub delta: Snapshot,
    pub cpu_seconds: f64,
    /// Foreground ops completed while the rebuild ran.
    pub foreground: Vec<Sample>,
}

fn repair_status(admin: &mut NetClient) -> Result<RepairProgress, String> {
    match admin.try_admin(0, &AdminOp::RepairStatus) {
        Ok(AdminResponse::Status(p)) => Ok(p),
        other => Err(format!("repair-status: {other:?}")),
    }
}

/// Replaces the victim brick and rebuilds stripes `0..stripes` through the
/// admin path on node 0, unthrottled. With `foreground`, that generator
/// runs for as long as the rebuild does (its reads of not-yet-rebuilt
/// stripes are the degraded reads).
pub fn rebuild(
    cluster: &mut Cluster,
    stripes: u64,
    foreground: Option<&mut Worker>,
) -> Result<Rebuild, String> {
    cluster
        .replace_victim()
        .map_err(|e| format!("replace brick {VICTIM}: {e}"))?;
    let before = cluster.snapshot();
    let mut admin = cluster.client();
    let start_op = AdminOp::RepairStart {
        brick: VICTIM as u32,
        stripe_count: stripes,
        stripes_per_sec: 0,
        bytes_per_sec: 0,
        max_inflight: 4,
        scrub_all: false,
    };
    let done = AtomicBool::new(false);
    let cpu0 = process_cpu_seconds();
    let started = Instant::now();
    match admin.try_admin(0, &start_op) {
        Ok(AdminResponse::Started) => {}
        other => return Err(format!("repair-start: {other:?}")),
    }
    let (polled, foreground) = std::thread::scope(|scope| {
        let fg = foreground.map(|w| {
            let done = &done;
            scope.spawn(move || {
                let mut samples = Vec::new();
                w.run(|| done.load(Ordering::Acquire), started, Some(&mut samples));
                samples
            })
        });
        let polled = (|| -> Result<(f64, RepairProgress), String> {
            loop {
                let p = repair_status(&mut admin)?;
                if !p.running {
                    return Ok((started.elapsed().as_secs_f64(), p));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        })();
        done.store(true, Ordering::Release);
        let samples = fg.map_or_else(Vec::new, |h| h.join().expect("foreground thread panicked"));
        (polled, samples)
    });
    let (secs, progress) = polled?;
    let cpu_seconds = process_cpu_seconds() - cpu0;
    if !progress.complete || progress.failed > 0 {
        return Err(format!("rebuild did not complete cleanly: {progress:?}"));
    }
    let delta = cluster.snapshot().since(&before);
    cluster.victim_holds(stripes)?;
    Ok(Rebuild {
        secs,
        progress,
        delta,
        cpu_seconds,
        foreground,
    })
}
