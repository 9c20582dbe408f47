//! Blocking runners for the sans-io [`RepairDriver`]: a synchronous
//! single-client loop (sim tests, torture differential runs) and a
//! threaded in-process repair job ([`InProcRepair`]) that `fabd` spawns
//! to serve `RepairStart` without blocking its event loop.
//!
//! This module owns every wall-clock and thread concern of the repair
//! subsystem; everything else in the crate is deterministic.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel;
use fab_core::{ClientError, OpResult, RegisterClient, StripeId};

use crate::cursor::RepairCursor;
use crate::driver::{Action, DriverConfig, RepairDriver, RepairOutcome};
use crate::health::HealthMap;
use crate::planner::RepairPlan;
use crate::stats::{RepairCounters, RepairStats};

/// Stripes of watermark advance between durable cursor checkpoints.
/// Small enough that a crash loses little progress, large enough that
/// the fsync cost disappears into the scrub cost.
pub const CHECKPOINT_EVERY: u64 = 32;

/// One timed scrub attempt, answered or not (`Err`: retry budget
/// exhausted, cluster unreachable); the driver accounts for both.
fn scrub_once<C: RegisterClient>(
    client: &mut C,
    stripe: StripeId,
    counters: &RepairCounters,
) -> Result<OpResult, ClientError> {
    let t0 = Instant::now();
    let result = client.scrub(stripe);
    counters.record_scrub_micros(as_micros(t0.elapsed()));
    result
}

fn maybe_checkpoint(cursor: &mut Option<RepairCursor>, watermark: u64, every: u64) {
    let Some(c) = cursor.as_mut() else { return };
    if watermark.saturating_sub(c.watermark()) >= every.max(1) {
        // Checkpointing is best-effort progress insurance: an fsync
        // failure degrades to "restart rescans more", never to a wrong
        // watermark, so the repair itself keeps going without a cursor.
        if c.checkpoint(watermark).is_err() {
            *cursor = None;
        }
    }
}

/// Ends a run: a complete one retires the cursor (the next run of the same
/// plan is a new rebuild, not a resume); an aborted or failed one leaves
/// its final watermark behind for the resume.
fn end_run(cursor: Option<RepairCursor>, driver: &RepairDriver) -> RepairOutcome {
    let outcome = driver.outcome();
    if let Some(mut c) = cursor {
        let _ = if outcome.complete {
            c.retire()
        } else {
            c.checkpoint(driver.watermark())
        };
    }
    outcome
}

/// Runs `driver` to completion over one synchronous client, on the wall
/// clock. Scrubs are issued one at a time (the client interface is
/// synchronous), so `max_inflight` is effectively 1; throttle waits
/// become real sleeps. Checkpoints `cursor` (if any) every
/// `checkpoint_every` stripes of watermark advance, and retires it if the
/// run ends complete.
pub fn run_with_client<C: RegisterClient>(
    driver: &mut RepairDriver,
    client: &mut C,
    mut cursor: Option<RepairCursor>,
    checkpoint_every: u64,
) -> RepairOutcome {
    let started = Instant::now();
    let counters = driver.counters();
    loop {
        let now = as_micros(started.elapsed());
        match driver.poll(now) {
            Action::Scrub(stripe) => {
                let result = scrub_once(client, stripe, &counters);
                driver.on_scrub_result(stripe, result.as_ref(), as_micros(started.elapsed()));
                maybe_checkpoint(&mut cursor, driver.watermark(), checkpoint_every);
            }
            Action::Wait { until_micros } => {
                std::thread::sleep(Duration::from_micros(until_micros.saturating_sub(now)));
            }
            // Unreachable with a synchronous client (nothing stays in
            // flight across poll calls), but a clean stall-free fallback
            // beats asserting on it.
            Action::Idle => std::thread::sleep(Duration::from_millis(1)),
            Action::Done => break,
        }
    }
    end_run(cursor, driver)
}

fn as_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// A handle to an in-process repair job: lock-free status snapshots and
/// abort for an event loop, join for tests and the bench harness.
#[derive(Debug)]
pub struct InProcRepair {
    counters: Arc<RepairCounters>,
    abort: Arc<AtomicBool>,
    done: Arc<AtomicBool>,
    complete: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<RepairOutcome>>,
}

impl InProcRepair {
    /// Starts a repair of `plan` over the given clients (one worker
    /// thread per client; in-flight concurrency is the smaller of
    /// `cfg.max_inflight` and the client count). If `cursor_path` is
    /// given, the run resumes from that durable cursor, checkpoints into
    /// it, and retires it on completing. The call itself only spawns
    /// threads: `fabd` makes it from its event loop, so even the cursor is
    /// opened on the repair's own thread.
    pub fn spawn<C>(
        plan: RepairPlan,
        cfg: DriverConfig,
        clients: Vec<C>,
        cursor_path: Option<PathBuf>,
        health: Option<HealthMap>,
    ) -> InProcRepair
    where
        C: RegisterClient + Send + 'static,
    {
        let counters = Arc::new(RepairCounters::new());
        let plan_hash = plan.hash;
        let mut driver = RepairDriver::with_counters(plan, cfg, Arc::clone(&counters));
        if let Some(h) = health {
            driver = driver.with_health(h);
        }
        let abort = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));
        let complete = Arc::new(AtomicBool::new(false));
        let handle = {
            let abort = Arc::clone(&abort);
            let done = Arc::clone(&done);
            let complete = Arc::clone(&complete);
            let counters = Arc::clone(&counters);
            std::thread::spawn(move || {
                // Opening reads the file, and fsyncs when it compacts. Like
                // a failed checkpoint, a cursor that cannot be opened costs
                // a rescan after a crash, never a wrong watermark: the run
                // goes on from zero without one.
                let cursor = cursor_path.and_then(|p| RepairCursor::open(&p, plan_hash).ok());
                if let Some(c) = &cursor {
                    driver = driver.resume_from(c.watermark());
                }
                let outcome = orchestrate(driver, clients, cursor, &abort, &counters);
                complete.store(outcome.complete, Ordering::Release);
                done.store(true, Ordering::Release);
                outcome
            })
        };
        InProcRepair {
            counters,
            abort,
            done,
            complete,
            handle: Some(handle),
        }
    }

    /// Point-in-time stats (lock-free; callable from an event loop).
    pub fn status(&self) -> RepairStats {
        self.counters.snapshot()
    }

    /// Whether the job has finished (successfully or not).
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Whether the job finished with every stripe repaired or skipped.
    pub fn is_complete(&self) -> bool {
        self.complete.load(Ordering::Acquire)
    }

    /// Asks the job to stop after in-flight scrubs drain (lock-free).
    pub fn abort(&self) {
        self.abort.store(true, Ordering::Release);
    }

    /// Waits for the job and returns its outcome. `None` if the repair
    /// thread panicked (a bug — the driver itself never panics) or the
    /// handle was already consumed. (Named `wait`, not `join`: the static
    /// lint engine resolves calls by method name, and thread-handle
    /// `join()` calls elsewhere would otherwise appear to reach this.)
    pub fn wait(mut self) -> Option<RepairOutcome> {
        self.handle.take()?.join().ok()
    }
}

/// One scrub result flowing back from a worker.
struct WorkerResult {
    stripe: StripeId,
    result: Result<OpResult, ClientError>,
}

/// The repair thread: polls the driver, fans scrubs out to worker
/// threads (one per client), and checkpoints the cursor as the
/// watermark advances.
fn orchestrate<C>(
    mut driver: RepairDriver,
    clients: Vec<C>,
    mut cursor: Option<RepairCursor>,
    abort: &AtomicBool,
    counters: &Arc<RepairCounters>,
) -> RepairOutcome
where
    C: RegisterClient + Send + 'static,
{
    let started = Instant::now();
    let (job_tx, job_rx) = channel::unbounded::<StripeId>();
    let (result_tx, result_rx) = channel::unbounded::<WorkerResult>();
    let workers: Vec<_> = clients
        .into_iter()
        .map(|mut client| {
            let jobs = job_rx.clone();
            let results = result_tx.clone();
            let counters = Arc::clone(counters);
            std::thread::spawn(move || {
                while let Ok(stripe) = jobs.recv() {
                    let result = scrub_once(&mut client, stripe, &counters);
                    if results.send(WorkerResult { stripe, result }).is_err() {
                        break;
                    }
                }
            })
        })
        .collect();
    drop(result_tx);
    // Feeds one worker's result to the driver and checkpoints its progress.
    let absorb = |driver: &mut RepairDriver, cursor: &mut _, done: WorkerResult| {
        driver.on_scrub_result(done.stripe, done.result.as_ref(), as_micros(started.elapsed()));
        maybe_checkpoint(cursor, driver.watermark(), CHECKPOINT_EVERY);
    };
    loop {
        if abort.load(Ordering::Acquire) {
            driver.abort();
        }
        // Absorb anything that has already landed.
        while let Ok(done) = result_rx.try_recv() {
            absorb(&mut driver, &mut cursor, done);
        }
        let now = as_micros(started.elapsed());
        match driver.poll(now) {
            Action::Scrub(stripe) => {
                if job_tx.send(stripe).is_err() {
                    // All workers died (client panic); give up cleanly.
                    driver.abort();
                }
            }
            Action::Wait { until_micros } => {
                let timeout = Duration::from_micros(until_micros.saturating_sub(now));
                if let Ok(done) = result_rx.recv_timeout(timeout) {
                    absorb(&mut driver, &mut cursor, done);
                }
            }
            Action::Idle => {
                // Results are the only thing that can unblock us; the
                // timeout keeps abort responsive.
                if let Ok(done) = result_rx.recv_timeout(Duration::from_millis(50)) {
                    absorb(&mut driver, &mut cursor, done);
                }
            }
            Action::Done => break,
        }
    }
    drop(job_tx);
    for w in workers {
        let _ = w.join();
    }
    end_run(cursor, &driver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use fab_core::{ClientError, ClientOp, RegisterConfig, StripeValue};
    use std::collections::BTreeSet;

    /// A scripted in-memory client that serves scrubs only: pre-written
    /// stripes scrub to data, the rest to nil, and the first attempt at a
    /// stripe in `flaky` finds the cluster unreachable.
    #[derive(Debug, Clone)]
    struct FakeClient {
        written: BTreeSet<u64>,
        flaky: BTreeSet<u64>,
    }

    impl FakeClient {
        fn with_written(written: impl IntoIterator<Item = u64>) -> Self {
            FakeClient {
                written: written.into_iter().collect(),
                flaky: BTreeSet::new(),
            }
        }
    }

    impl RegisterClient for FakeClient {
        fn config(&self) -> RegisterConfig {
            RegisterConfig::new(2, 4, 16).unwrap()
        }
        fn invoke(&mut self, op: ClientOp) -> Result<OpResult, ClientError> {
            let ClientOp::Scrub { stripe } = op else {
                return Err(ClientError::InvalidRequest);
            };
            if self.flaky.remove(&stripe.0) {
                return Err(ClientError::Unavailable);
            }
            Ok(OpResult::Stripe(if self.written.contains(&stripe.0) {
                StripeValue::Data(vec![Bytes::from_static(&[7; 16]); 2])
            } else {
                StripeValue::Nil
            }))
        }
    }

    fn plan(n: u64) -> RepairPlan {
        RepairPlan {
            stripes: (0..n).map(StripeId).collect(),
            bytes_per_stripe: 32,
            hash: 99,
        }
    }

    #[test]
    fn synchronous_runner_completes_and_counts() {
        let mut driver = RepairDriver::new(plan(8), DriverConfig::default());
        let mut client = FakeClient::with_written([0u64, 3, 5]);
        let out = run_with_client(&mut driver, &mut client, None, CHECKPOINT_EVERY);
        assert!(out.complete);
        assert_eq!(out.stats.repaired, 3);
        assert_eq!(out.stats.skipped, 5);
        assert_eq!(out.stats.bytes_reconstructed, 3 * 32);
    }

    #[test]
    fn threaded_runner_completes_over_multiple_workers() {
        let clients: Vec<FakeClient> = (0..3).map(|_| FakeClient::with_written(0..64)).collect();
        let cfg = DriverConfig {
            max_inflight: 3,
            ..DriverConfig::default()
        };
        let job = InProcRepair::spawn(plan(64), cfg, clients, None, None);
        let out = job.wait().expect("repair thread finished");
        assert!(out.complete);
        assert_eq!(out.stats.repaired, 64);
        assert_eq!(out.stats.watermark, 64);
    }

    /// A worker whose client cannot reach the cluster must still report
    /// its in-flight stripe: a worker that dies instead strands the stripe,
    /// and with another worker still alive the driver waits on it forever.
    #[test]
    fn an_unreachable_cluster_is_a_retried_attempt_not_a_hang() {
        let flaky: BTreeSet<u64> = [1u64, 4, 9, 20].into_iter().collect();
        let clients: Vec<FakeClient> = (0..2)
            .map(|_| FakeClient {
                written: (0..24).collect(),
                flaky: flaky.clone(),
            })
            .collect();
        let cfg = DriverConfig {
            max_inflight: 2,
            ..DriverConfig::default()
        };
        let job = InProcRepair::spawn(plan(24), cfg, clients, None, None);
        let out = job.wait().expect("no worker or driver thread panicked");
        assert!(out.complete, "{:?}", out.stats);
        assert_eq!(out.stats.repaired, 24);
        assert_eq!(out.stats.failed, 0);
        assert!(out.stats.retried >= 4, "{:?}", out.stats);

        // The synchronous runner accounts the same way.
        let mut driver = RepairDriver::new(plan(24), DriverConfig::default());
        let mut client = FakeClient {
            written: (0..24).collect(),
            flaky,
        };
        let out = run_with_client(&mut driver, &mut client, None, CHECKPOINT_EVERY);
        assert!(out.complete, "{:?}", out.stats);
        assert_eq!((out.stats.repaired, out.stats.retried), (24, 4));
    }

    #[test]
    fn abort_stops_a_threaded_run() {
        let clients = vec![FakeClient::with_written(0..100_000)];
        let cfg = DriverConfig {
            stripes_per_sec: 20, // slow enough that abort lands mid-run
            ..DriverConfig::default()
        };
        let job = InProcRepair::spawn(plan(100_000), cfg, clients, None, None);
        job.abort();
        let out = job.wait().expect("repair thread finished");
        assert!(!out.complete);
        assert!(out.stats.finished() < 100_000);
    }

    #[test]
    fn completed_run_retires_its_cursor_so_the_same_plan_rebuilds_again() {
        let path =
            std::env::temp_dir().join(format!("fab-repair-inproc-again-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // The same brick replaced twice: the identical plan (same hash)
        // must rebuild every stripe both times.
        for round in 0..2 {
            let client = FakeClient::with_written(0..40);
            let job = InProcRepair::spawn(
                plan(40),
                DriverConfig::default(),
                vec![client],
                Some(path.clone()),
                None,
            );
            let out = job.wait().expect("repair thread finished");
            assert!(out.complete);
            assert_eq!(
                out.stats.repaired, 40,
                "round {round} resumed at the plan's end"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// The cursor is progress insurance, opened on the repair's own thread:
    /// where none can be opened (here its path is a directory) the run is
    /// made without one rather than refused.
    #[test]
    fn an_unopenable_cursor_costs_the_resume_not_the_repair() {
        let dir = std::env::temp_dir().join(format!("fab-repair-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let client = FakeClient::with_written(0..40);
        let cfg = DriverConfig::default();
        let job = InProcRepair::spawn(plan(40), cfg, vec![client], Some(dir.clone()), None);
        let out = job.wait().expect("repair thread finished");
        assert!(out.complete);
        assert_eq!(out.stats.repaired, 40);
        std::fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn cursor_resume_after_simulated_crash_misses_no_stripe() {
        let path = std::env::temp_dir().join(format!(
            "fab-repair-inproc-resume-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        // First run: repair the first half, then "crash" (abort without
        // a final checkpoint path — emulated by running a driver
        // manually and checkpointing every stripe).
        let mut cursor = RepairCursor::open(&path, 99).unwrap();
        let mut driver = RepairDriver::new(plan(40), DriverConfig::default());
        let mut client = FakeClient::with_written(0..40);
        let mut issued = 0;
        loop {
            let now = 0;
            match driver.poll(now) {
                Action::Scrub(s) => {
                    driver.on_scrub_result(s, client.scrub(s).as_ref(), now);
                    cursor.checkpoint(driver.watermark()).unwrap();
                    issued += 1;
                    if issued == 17 {
                        break; // crash: no further checkpoints, no epilogue
                    }
                }
                _ => break,
            }
        }
        drop(cursor);
        drop(driver);
        // Restart: resume from the durable watermark via spawn().
        let job = InProcRepair::spawn(
            plan(40),
            DriverConfig::default(),
            vec![client],
            Some(path.clone()),
            None,
        );
        let out = job.wait().expect("repair thread finished");
        assert!(out.complete);
        assert_eq!(
            out.stats.repaired + out.stats.skipped,
            40 - 17,
            "resume repairs exactly the un-checkpointed suffix"
        );
        assert_eq!(out.stats.watermark, 40);
        std::fs::remove_file(&path).unwrap();
    }
}
