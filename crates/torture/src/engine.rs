//! The campaign engine: runs one [`CampaignPlan`] against the unchanged
//! sans-io protocol over `fab-simnet`, reconstructs the observed
//! per-stripe histories, and judges them with the strict-linearizability
//! checker plus the invariant probes.
//!
//! A run is a pure function of the plan: the simulation seed, the
//! workload, and the fault schedule are all in the plan, so identical
//! plans produce identical [`RunReport`]s (fingerprints included) — the
//! property the determinism gate and the shrinker both rely on.

use crate::plan::{CampaignPlan, FaultKind};
use crate::probes::{Journal, TortureBrick};
use crate::value::value_of;
use fab_checker::{History, OpRecord};
use fab_core::{Completion, OpResult, RegisterConfig, StripeId, TraceEvent};
use fab_simnet::{SimConfig, Simulation};
use fab_timestamp::{ProcessId, Timestamp};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Hard ceiling on simulator events per run: a generated campaign needs
/// tens of thousands; hitting the ceiling means a liveness bug.
const EVENT_CAP: u64 = 3_000_000;

/// Aggregate counters of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Operations actually invoked (calls on crashed bricks are skipped).
    pub ops_invoked: u64,
    /// Operations that reported a completion.
    pub ops_completed: u64,
    /// Writes that committed.
    pub ops_committed: u64,
    /// Operations that aborted.
    pub ops_aborted: u64,
    /// Crash faults injected.
    pub crashes: u64,
    /// Recovery faults injected (stabilization epilogue excluded).
    pub recoveries: u64,
    /// Partition faults injected.
    pub partitions: u64,
    /// Heal faults injected (stabilization epilogue excluded).
    pub heals: u64,
    /// Per-stripe histories checked.
    pub histories_checked: u64,
    /// Brick disks wiped by the repair phase.
    pub wipes: u64,
    /// Data-bearing stripes the repair phase reconstructed.
    pub repair_repaired: u64,
    /// Never-written stripes the repair phase skipped.
    pub repair_skipped: u64,
    /// Stripes whose repair retry budget ran out (hostile schedules can
    /// legitimately exhaust it; completion and fast-path probes are the
    /// correctness checks).
    pub repair_failed: u64,
    /// Whether the repair driver ran to completion (false when the
    /// orchestrator itself was crashed by the fault schedule, or the plan
    /// had no repair phase).
    pub repair_completed: bool,
    /// Post-repair fast-path probe reads that completed.
    pub fastpath_probes: u64,
    /// Reads that completed on the fast path, summed across bricks (from
    /// the coordinators' `op_reads` pair counters, reconciled against the
    /// journal).
    pub reads_fastpath: u64,
    /// Reads that completed through recovery, summed across bricks.
    pub reads_recovered: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Replica requests observed by the probes.
    pub requests_probed: u64,
    /// The simulation's event-history digest.
    pub fingerprint: u64,
}

/// The outcome of one campaign run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Violations found: probe hits, checker refutations, protocol
    /// errors, and panics, as `"<rule>: <detail>"` strings.
    pub violations: Vec<String>,
    /// Counters.
    pub stats: RunStats,
}

impl RunReport {
    /// `true` when the run passed every check.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The deterministic violation kinds (rule tags before the first
    /// `:`). The strict-linearizability checker's cycle *message* may
    /// name different witnesses across processes, so determinism is
    /// judged on kinds plus the fingerprint.
    #[must_use]
    pub fn violation_kinds(&self) -> Vec<String> {
        self.violations
            .iter()
            .map(|v| v.split(':').next().unwrap_or(v).to_string())
            .collect()
    }
}

/// Runs `plan` to completion and judges the observed behavior.
#[must_use]
pub fn run_plan(plan: &CampaignPlan) -> RunReport {
    let mut stats = RunStats::default();
    let mut violations: Vec<String> = Vec::new();

    let cfg = plan.check_ranges().and_then(|()| {
        RegisterConfig::new(plan.m, plan.n, plan.block_size)
            .map_err(|e| format!("plan-config: {e}"))
    });
    let cfg = match cfg {
        Ok(c) => c,
        Err(e) => {
            return RunReport {
                violations: vec![e],
                stats,
            }
        }
    };
    // Bound retransmission churn relative to the delay spread so runs
    // terminate quickly without starving loss recovery.
    let cfg = Arc::new(cfg.with_retransmit_interval((plan.net.max_delay * 3).max(60)));

    let journal = Journal::shared();
    let bricks: Vec<TortureBrick> = (0..plan.n)
        .map(|i| {
            TortureBrick::new(
                ProcessId::new(i as u32),
                cfg.clone(),
                plan.skews.get(i).copied().unwrap_or(0),
                journal.clone(),
            )
        })
        .collect();

    let sim_cfg = SimConfig {
        seed: plan.seed,
        min_delay: plan.net.min_delay,
        max_delay: plan.net.max_delay.max(plan.net.min_delay),
        local_delay: 0,
        drop_probability: f64::from(plan.net.drop_ppm) / 1_000_000.0,
        duplicate_probability: f64::from(plan.net.dup_ppm) / 1_000_000.0,
    };
    let mut sim = Simulation::new(sim_cfg, bricks);
    sim.set_event_cap(EVENT_CAP);

    // Workload.
    let (m, block_size) = (plan.m, plan.block_size);
    for op in &plan.ops {
        let (stripe, kind) = (StripeId(op.stripe), op.kind);
        sim.schedule_call(op.at, ProcessId::new(op.coordinator), move |b, ctx| {
            b.invoke(ctx, stripe, kind, m, block_size);
        });
    }

    // Fault schedule.
    for f in &plan.faults {
        match &f.kind {
            FaultKind::Crash(p) => {
                stats.crashes += 1;
                sim.schedule_crash(f.at, ProcessId::new(*p));
            }
            FaultKind::Recover(p) => {
                stats.recoveries += 1;
                sim.schedule_recovery(f.at, ProcessId::new(*p));
            }
            FaultKind::Heal => {
                stats.heals += 1;
                sim.schedule_heal(f.at);
            }
            FaultKind::Partition(groups) => {
                stats.partitions += 1;
                let pids: Vec<Vec<ProcessId>> = groups
                    .iter()
                    .map(|g| g.iter().map(|p| ProcessId::new(*p)).collect())
                    .collect();
                let refs: Vec<&[ProcessId]> = pids.iter().map(Vec::as_slice).collect();
                sim.schedule_partition(f.at, &refs);
            }
        }
    }

    // Repair phase: crash the brick, wipe its disk, restart it empty,
    // then have the next brick plan and drive the rebuild mid-workload.
    if let Some(rp) = plan.repair {
        stats.wipes += 1;
        let target = ProcessId::new(rp.brick);
        sim.schedule_crash(rp.at, target);
        sim.schedule_recovery(rp.at + 1, target);
        sim.schedule_call(rp.at + 2, target, |b: &mut TortureBrick, _ctx| b.wipe());
        let orchestrator = ProcessId::new((rp.brick + 1) % plan.n as u32);
        let (brick, stripes, n) = (rp.brick, plan.stripes, plan.n as u32);
        // The fast-path probe convicts only on benign campaigns: with
        // drops, duplicates, or faults in play, a post-repair read can
        // legitimately hit a divergent replica and recover. The margin
        // outlasts any straggler message from a completed op.
        let judge =
            plan.faults.is_empty() && plan.net.drop_ppm == 0 && plan.net.dup_ppm == 0;
        let margin = plan.net.max_delay * 4 + 32;
        sim.schedule_call(rp.at + 3, orchestrator, move |b, ctx| {
            b.start_repair(ctx, brick, stripes, m, block_size, n, judge, margin);
        });
    }

    // Stabilization epilogue (never shrunk): recover everyone, heal all
    // partitions, so retransmitting coordinators can finish and the event
    // queue drains.
    for p in 0..plan.n {
        sim.schedule_recovery(plan.horizon, ProcessId::new(p as u32));
    }
    sim.schedule_heal(plan.horizon);

    // Run. A panic (event-cap liveness guard included) is a violation,
    // not a harness abort: failing seeds must be reportable and
    // shrinkable.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        sim.run_until_idle();
    }));
    if let Err(panic) = outcome {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(ToString::to_string))
            .unwrap_or_else(|| "non-string panic".to_string());
        violations.push(format!("panic: {msg}"));
    }
    stats.events = sim.events_processed();
    stats.fingerprint = sim.fingerprint();

    // Coordinator-internal invariant violations survived during the run,
    // and each brick's op-lifecycle metrics for reconciliation.
    let mut metrics: Vec<(u32, Arc<fab_core::OpMetrics>)> = Vec::new();
    for p in 0..plan.n {
        let actor = sim.actor_mut(ProcessId::new(p as u32));
        for e in actor.take_protocol_errors() {
            violations.push(format!("protocol-error: p{p}: {e}"));
        }
        metrics.push((p as u32, actor.op_metrics().clone()));
    }

    // Judge the journal.
    let journal = journal.borrow();
    stats.requests_probed = journal.requests_probed;
    stats.repair_repaired = journal.repair_repaired;
    stats.repair_skipped = journal.repair_skipped;
    stats.repair_failed = journal.repair_failed;
    stats.repair_completed = journal.repair_completed;
    stats.fastpath_probes = journal.fastpath_probes;
    violations.extend(journal.violations.iter().cloned());
    judge_histories(plan, &journal, &mut stats, &mut violations);
    judge_quorum_accounting(&cfg, &journal, &mut violations);
    judge_metrics(plan, &journal, &metrics, &mut stats, &mut violations);

    RunReport { violations, stats }
}

/// Per-brick journal-derived tallies of what the coordinator metrics
/// *must* read at end of run: the journal records every completion the
/// coordinator delivered, and [`fab_core::OpMetrics`] records at the same
/// completion site, so the counts reconcile exactly — any drift means the
/// metrics path dropped, double-counted, or misclassified an operation.
#[derive(Debug, Default, PartialEq, Eq)]
struct MetricsTally {
    reads_fastpath: u64,
    reads_recovered: u64,
    writes_committed: u64,
    scrubs_completed: u64,
    aborts: u64,
}

/// The metrics-invariant probe: reconciles each brick's [`fab_core::OpMetrics`]
/// against the journal, and — on benign campaigns — convicts recovered
/// reads of settled stripes, using the same settledness rule as the
/// post-repair fast-path probe.
fn judge_metrics(
    plan: &CampaignPlan,
    journal: &Journal,
    metrics: &[(u32, Arc<fab_core::OpMetrics>)],
    stats: &mut RunStats,
    violations: &mut Vec<String>,
) {
    // Completion kinds: (pid, op) is unique per coordinator (op ids are
    // never reused, crashes included).
    let kinds: BTreeMap<(u32, u64), crate::plan::OpKind> = journal
        .invocations
        .iter()
        .map(|inv| ((inv.pid, inv.op), inv.kind))
        .collect();
    let mut tallies: BTreeMap<u32, MetricsTally> = BTreeMap::new();
    for (pid, c) in &journal.completions {
        let Some(kind) = kinds.get(&(*pid, c.op)) else {
            violations.push(format!(
                "obs-reconcile: p{pid} op{op}: completion without invocation",
                op = c.op
            ));
            continue;
        };
        let tally = tallies.entry(*pid).or_default();
        if matches!(c.result, OpResult::Aborted(_)) {
            tally.aborts += 1;
        } else if kind.write_id().is_some() {
            tally.writes_committed += 1;
        } else if matches!(kind, crate::plan::OpKind::Scrub) {
            tally.scrubs_completed += 1;
        } else if c.recovered {
            tally.reads_recovered += 1;
        } else {
            tally.reads_fastpath += 1;
        }
    }
    for (pid, m) in metrics {
        let (fastpath, recovered) = m.reads();
        stats.reads_fastpath += fastpath;
        stats.reads_recovered += recovered;
        let measured = MetricsTally {
            reads_fastpath: fastpath,
            reads_recovered: recovered,
            writes_committed: m.writes_committed(),
            scrubs_completed: m.scrubs_completed(),
            aborts: m.aborts(),
        };
        let expected = tallies.remove(pid).unwrap_or_default();
        if measured != expected {
            violations.push(format!(
                "obs-reconcile: p{pid}: metrics {measured:?} != journal {expected:?}"
            ));
        }
    }

    // On a benign campaign (lossless network, no faults, no disk
    // replacement) a recovered read of a *settled* stripe means the fast
    // path regressed. The settledness rule is the post-repair probe's:
    // every op on the stripe completed cleanly and every effectful op
    // drained `margin` ticks before the read was invoked.
    let benign = plan.faults.is_empty()
        && plan.repair.is_none()
        && plan.net.drop_ppm == 0
        && plan.net.dup_ppm == 0;
    if benign && stats.reads_recovered > 0 {
        let margin = plan.net.max_delay * 4 + 32;
        for (pid, c) in &journal.completions {
            let is_read = kinds
                .get(&(*pid, c.op))
                .is_some_and(|k| k.write_id().is_none() && !matches!(k, crate::plan::OpKind::Scrub));
            if is_read
                && c.recovered
                && !matches!(c.result, OpResult::Aborted(_))
                && !journal.fastpath_inconclusive(c.stripe.0, *pid, c.op, c.invoked_at, margin)
            {
                violations.push(format!(
                    "obs-recovered-read: p{pid} op{op}: recovered read of settled stripe{s}",
                    op = c.op,
                    s = c.stripe.0
                ));
            }
        }
    }
}

/// Reconstructs one strict-linearizability history per stripe from the
/// journal and checks each.
fn judge_histories(
    plan: &CampaignPlan,
    journal: &Journal,
    stats: &mut RunStats,
    violations: &mut Vec<String>,
) {
    // Completion lookup: (pid, op, invoked_at) is unique — op ids are
    // never reused by a coordinator (crashes do not reset the counter)
    // and plan op times are unique.
    let mut completions: BTreeMap<(u32, u64, u64), &Completion> = BTreeMap::new();
    for (pid, c) in &journal.completions {
        completions.insert((*pid, c.op, c.invoked_at), c);
    }
    // Crash times per pid, for bounding writes that died with their
    // coordinator.
    let mut crashes: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for f in &plan.faults {
        if let FaultKind::Crash(p) = f.kind {
            crashes.entry(p).or_default().push(f.at);
        }
    }

    let mut histories: BTreeMap<u64, History> = BTreeMap::new();
    stats.ops_invoked = journal.invocations.len() as u64;
    for inv in &journal.invocations {
        let history = histories.entry(inv.stripe).or_default();
        match completions.get(&(inv.pid, inv.op, inv.at)) {
            Some(c) => {
                stats.ops_completed += 1;
                match (&c.result, inv.kind.write_id()) {
                    (OpResult::Written, Some(id)) => {
                        stats.ops_committed += 1;
                        history.push(
                            OpRecord::write(id, c.invoked_at, c.completed_at).committed(),
                        );
                    }
                    (OpResult::Aborted(_), Some(id)) => {
                        stats.ops_aborted += 1;
                        // May or may not have taken effect (§3).
                        history.push(OpRecord::write(id, c.invoked_at, c.completed_at));
                    }
                    (OpResult::Aborted(_), None) => {
                        // An aborted read observes nothing.
                        stats.ops_aborted += 1;
                    }
                    (result, None) => match value_of(result, plan.m, plan.block_size) {
                        Some(v) => {
                            history.push(OpRecord::read(v, c.invoked_at, c.completed_at));
                        }
                        None => violations.push(format!(
                            "harness: p{pid} op{op}: read completed with write result {result:?}",
                            pid = inv.pid,
                            op = inv.op
                        )),
                    },
                    (result, Some(_)) => violations.push(format!(
                        "harness: p{pid} op{op}: write completed with read result {result:?}",
                        pid = inv.pid,
                        op = inv.op
                    )),
                }
            }
            None => {
                // Never completed: the coordinator crashed with the op in
                // flight (in-flight state is volatile). The first crash at
                // or after the invocation ended the op.
                if let Some(id) = inv.kind.write_id() {
                    let end = crashes
                        .get(&inv.pid)
                        .and_then(|ts| ts.iter().find(|t| **t >= inv.at).copied());
                    match end {
                        Some(t) => history.push(OpRecord::write(id, inv.at, t)),
                        None => history.push(OpRecord::pending_write(id, inv.at)),
                    }
                }
                // A read that never returned observes nothing and (per
                // strict linearizability) constrains nothing.
            }
        }
    }

    for (stripe, history) in &histories {
        stats.histories_checked += 1;
        if let Err(v) = history.check() {
            violations.push(format!("strict-linearizability: stripe{stripe}: {v}"));
        }
    }
}

/// Quorum-intersection accounting: every committed write's final
/// timestamp (from its trace) must have been acknowledged by at least an
/// m-quorum of replicas — otherwise a future read's quorum may miss it.
fn judge_quorum_accounting(
    cfg: &RegisterConfig,
    journal: &Journal,
    violations: &mut Vec<String>,
) {
    let quorum = cfg.quorum().quorum_size();
    // Traces keyed by (pid, op); op ids are unique per coordinator.
    let mut final_ts: BTreeMap<(u32, u64), Timestamp> = BTreeMap::new();
    for (pid, trace) in &journal.traces {
        for (_, ev) in &trace.events {
            if let TraceEvent::TimestampAssigned { ts } = ev {
                // Keep the last assignment: recovery re-times the write.
                final_ts.insert((*pid, trace.op), *ts);
            }
        }
    }
    for (pid, c) in &journal.completions {
        if c.result != OpResult::Written {
            continue;
        }
        let Some(ts) = final_ts.get(&(*pid, c.op)) else {
            // Tracing is always on; a missing trace would be a harness
            // bug worth hearing about.
            violations.push(format!(
                "quorum-accounting: p{pid} op{op}: committed write has no trace",
                op = c.op
            ));
            continue;
        };
        let acked = journal
            .acks
            .get(&(c.stripe.0, *ts))
            .map_or(0, std::collections::BTreeSet::len);
        if acked < quorum {
            violations.push(format!(
                "quorum-accounting: p{pid} op{op}: write at {ts} acked by {acked} < quorum {quorum}",
                op = c.op
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::generate;

    #[test]
    fn small_campaigns_run_clean() {
        for seed in 0..12 {
            let plan = generate(seed);
            let report = run_plan(&plan);
            assert!(
                report.is_clean(),
                "seed {seed}: {:?}",
                report.violations
            );
            assert!(report.stats.histories_checked >= 1);
            assert!(report.stats.requests_probed > 0);
        }
    }

    #[test]
    fn metrics_reconcile_with_journal_across_200_campaigns() {
        // The reconciliation probe runs inside every `run_plan`; a drift
        // between coordinator metrics and journal ground truth anywhere
        // in 200 generated campaigns (benign and hostile alike) surfaces
        // as an `obs-reconcile`/`obs-recovered-read` violation. Every
        // 20th campaign is re-run to pin the fingerprint bit-stable with
        // the metrics path on.
        let mut reads_total = 0u64;
        for seed in 0..200u64 {
            let plan = generate(seed);
            let report = run_plan(&plan);
            assert!(
                !report
                    .violations
                    .iter()
                    .any(|v| v.starts_with("obs-")),
                "seed {seed}: {:?}",
                report.violations
            );
            reads_total += report.stats.reads_fastpath + report.stats.reads_recovered;
            if seed % 20 == 0 {
                let again = run_plan(&plan);
                assert_eq!(report.stats, again.stats, "seed {seed}");
                assert_eq!(
                    report.stats.fingerprint, again.stats.fingerprint,
                    "seed {seed}"
                );
            }
        }
        assert!(reads_total > 0, "the corpus exercised no reads");
    }

    #[test]
    fn identical_plans_produce_identical_reports() {
        for seed in [3u64, 7, 11] {
            let plan = generate(seed);
            let a = run_plan(&plan);
            let b = run_plan(&plan);
            assert_eq!(a.stats, b.stats, "seed {seed}");
            assert_eq!(a.violation_kinds(), b.violation_kinds(), "seed {seed}");
        }
    }

    #[test]
    fn faults_are_counted() {
        // Find a seed whose plan has at least one crash.
        let plan = (0..64)
            .map(generate)
            .find(|p| {
                p.faults
                    .iter()
                    .any(|f| matches!(f.kind, FaultKind::Crash(_)))
            })
            .expect("some seed has a crash fault");
        let report = run_plan(&plan);
        assert!(report.stats.crashes >= 1);
    }

    #[test]
    fn repair_phase_rebuilds_wiped_brick_and_reads_fast_path() {
        use crate::plan::{NetModel, OpKind, PlannedOp, RepairPhase};
        // A hand-built campaign: two stripes written early, one never
        // written, brick 1's disk replaced at t=2000, rebuild driven by
        // brick 2, reads racing the rebuild. No other faults, so the
        // rebuild must run to completion and every repaired stripe must
        // read fast-path afterwards.
        let plan = CampaignPlan {
            seed: 424_242,
            m: 2,
            n: 4,
            block_size: 16,
            stripes: 3,
            horizon: 6000,
            skews: vec![0; 4],
            net: NetModel {
                min_delay: 1,
                max_delay: 5,
                drop_ppm: 0,
                dup_ppm: 0,
            },
            ops: vec![
                PlannedOp {
                    at: 50,
                    coordinator: 0,
                    stripe: 0,
                    kind: OpKind::WriteStripe { id: 1 },
                },
                PlannedOp {
                    at: 120,
                    coordinator: 3,
                    stripe: 1,
                    kind: OpKind::WriteStripe { id: 2 },
                },
                PlannedOp {
                    at: 2100,
                    coordinator: 0,
                    stripe: 0,
                    kind: OpKind::ReadStripe,
                },
                PlannedOp {
                    at: 2200,
                    coordinator: 3,
                    stripe: 1,
                    kind: OpKind::ReadStripe,
                },
            ],
            faults: vec![],
            repair: Some(RepairPhase { at: 2000, brick: 1 }),
        };
        let report = run_plan(&plan);
        assert!(report.is_clean(), "{:?}", report.violations);
        let s = &report.stats;
        assert_eq!(s.wipes, 1);
        assert!(s.repair_completed, "driver never reached Done: {s:?}");
        assert_eq!(s.repair_failed, 0);
        // Stripes 0 and 1 held data; stripe 2 was never written.
        assert_eq!(s.repair_repaired, 2, "{s:?}");
        assert_eq!(s.repair_skipped, 1, "{s:?}");
        // Every repaired stripe was probed and read fast-path.
        assert_eq!(s.fastpath_probes, 2, "{s:?}");
        // Determinism with the phase on: bit-identical reruns.
        let again = run_plan(&plan);
        assert_eq!(report.stats, again.stats);
        assert_eq!(report.stats.fingerprint, again.stats.fingerprint);
    }

    #[test]
    fn repair_phase_round_trips_through_text_replay() {
        let plan = (0..64)
            .map(generate)
            .find(|p| p.repair.is_some())
            .expect("some seed has a repair phase");
        let replayed = CampaignPlan::parse(&plan.to_text()).expect("parse");
        let (a, b) = (run_plan(&plan), run_plan(&replayed));
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.violation_kinds(), b.violation_kinds());
    }

    #[test]
    fn out_of_range_repair_brick_is_a_plan_error() {
        let mut plan = generate(1);
        plan.repair = Some(crate::plan::RepairPhase { at: 100, brick: 99 });
        let report = run_plan(&plan);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].starts_with("plan-config"));
    }

    #[test]
    fn replayed_text_plan_matches_original_run() {
        let plan = generate(5);
        let replayed = CampaignPlan::parse(&plan.to_text()).expect("parse");
        assert_eq!(
            run_plan(&plan).stats.fingerprint,
            run_plan(&replayed).stats.fingerprint
        );
    }
}
