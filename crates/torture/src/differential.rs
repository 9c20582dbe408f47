//! Sim-vs-sockets differential checking.
//!
//! The same [`CampaignPlan`] that drove a deterministic `fab-simnet` run
//! is mapped onto a real `fab-net` loopback TCP cluster: bricks are
//! killed and restarted (keeping their bound listeners and on-disk
//! stores) at the plan's crash/recovery points, the plan's workload is
//! issued in schedule order through a fail-over [`NetClient`], and the
//! observed wall-clock history goes through the *same*
//! strict-linearizability checker. Partitions and message-level timing
//! cannot be replayed over sockets, so the differential check is
//! necessarily approximate: it validates that the protocol stays
//! strictly linearizable under the socket substrate too, not that both
//! substrates produce byte-identical schedules.

use crate::plan::{CampaignPlan, FaultKind, PlannedOp};
use crate::value::value_of;
use fab_checker::{History, OpRecord};
use fab_core::{OpResult, RegisterClient, RegisterConfig, StripeId};
use fab_net::{BrickNode, NetClient, NodeConfig};
use fab_timestamp::ProcessId;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Outcome of one differential run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffReport {
    /// Operations issued to the socket cluster (ops scheduled while a
    /// quorum was down are skipped — they could only time out).
    pub ops_issued: u64,
    /// Operations that returned a result.
    pub ops_completed: u64,
    /// Crash/recovery faults applied to real processes.
    pub faults_applied: u64,
    /// Violations found in the socket history.
    pub violations: Vec<String>,
}

impl DiffReport {
    /// `true` when the socket run was strictly linearizable.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Distinguishes concurrent differential runs' store directories.
static NONCE: AtomicU64 = AtomicU64::new(0);

enum Step<'a> {
    Op(&'a PlannedOp),
    Crash(u32),
    Recover(u32),
}

/// Errors bringing up the loopback cluster (environment, not protocol).
#[derive(Debug)]
pub struct DiffSetupError(pub String);

impl std::fmt::Display for DiffSetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "differential setup failed: {}", self.0)
    }
}

impl std::error::Error for DiffSetupError {}

/// Runs `plan` against a real TCP loopback cluster and checks the
/// observed history.
///
/// # Errors
///
/// Returns [`DiffSetupError`] when the loopback cluster cannot be bound
/// or spawned (an environment problem, not a protocol violation).
pub fn run_differential(plan: &CampaignPlan) -> Result<DiffReport, DiffSetupError> {
    let cfg = RegisterConfig::new(plan.m, plan.n, plan.block_size)
        .map_err(|e| DiffSetupError(format!("config: {e}")))?;
    let quorum = cfg.quorum().quorum_size();

    // Bind every brick on an ephemeral port first so the cluster map is
    // complete before any node starts.
    let mut listeners: Vec<Option<TcpListener>> = Vec::new();
    let mut addrs: Vec<SocketAddr> = Vec::new();
    for _ in 0..plan.n {
        let l = TcpListener::bind("127.0.0.1:0").map_err(|e| DiffSetupError(format!("bind: {e}")))?;
        addrs.push(l.local_addr().map_err(|e| DiffSetupError(format!("addr: {e}")))?);
        listeners.push(Some(l));
    }

    let nonce = NONCE.fetch_add(1, Ordering::Relaxed);
    let store_root = std::env::temp_dir().join(format!(
        "fab-torture-diff-{}-{}-{nonce}",
        std::process::id(),
        plan.seed
    ));
    let store_dir = |p: usize| -> PathBuf { store_root.join(format!("brick{p}")) };

    let spawn = |p: usize, listener: TcpListener| -> Result<BrickNode, DiffSetupError> {
        let node_cfg = NodeConfig::new(ProcessId::new(p as u32), addrs.clone(), cfg.clone())
            .with_store_dir(store_dir(p));
        let node = BrickNode::spawn(node_cfg, listener)
            .map_err(|e| DiffSetupError(format!("spawn brick {p}: {e}")))?;
        // Mild fair-loss on peer links: exercises retransmission without
        // blowing up wall-clock time.
        if plan.net.drop_ppm > 0 {
            node.set_drop_probability(0.02);
        }
        Ok(node)
    };

    let mut nodes: Vec<Option<BrickNode>> = Vec::new();
    let initial: Vec<TcpListener> = listeners
        .iter_mut()
        .map(|slot| {
            slot.take().unwrap_or_else(|| {
                // Unreachable: every slot was just filled.
                TcpListener::bind("127.0.0.1:0").expect("rebind")
            })
        })
        .collect();
    for (p, listener) in initial.into_iter().enumerate() {
        nodes.push(Some(spawn(p, listener)?));
    }

    let mut client = NetClient::connect(addrs.clone(), cfg.clone());
    client.attempt_timeout = std::time::Duration::from_millis(500);
    client.max_rounds = 3;

    // Merge workload and process-level faults in schedule order.
    let mut steps: Vec<(u64, Step<'_>)> = Vec::new();
    for op in &plan.ops {
        steps.push((op.at, Step::Op(op)));
    }
    for f in &plan.faults {
        match f.kind {
            FaultKind::Crash(p) => steps.push((f.at, Step::Crash(p))),
            FaultKind::Recover(p) => steps.push((f.at, Step::Recover(p))),
            // Sockets cannot partition the loopback interface; skipped.
            FaultKind::Partition(_) | FaultKind::Heal => {}
        }
    }
    steps.sort_by_key(|(at, _)| *at);

    let started = Instant::now();
    let now_us = |started: &Instant| -> u64 {
        u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
    };

    let mut report = DiffReport {
        ops_issued: 0,
        ops_completed: 0,
        faults_applied: 0,
        violations: Vec::new(),
    };
    let mut histories: BTreeMap<u64, History> = BTreeMap::new();

    for (_, step) in steps {
        match step {
            Step::Crash(p) => {
                let p = p as usize;
                if let Some(node) = nodes.get_mut(p).and_then(Option::take) {
                    report.faults_applied += 1;
                    listeners[p] = node.shutdown();
                }
            }
            Step::Recover(p) => {
                let p = p as usize;
                if nodes.get(p).is_some_and(Option::is_none) {
                    if let Some(listener) = listeners[p].take() {
                        report.faults_applied += 1;
                        nodes[p] = Some(spawn(p, listener)?);
                    }
                }
            }
            Step::Op(op) => {
                let alive = nodes.iter().filter(|n| n.is_some()).count();
                if alive < quorum {
                    // The op could only burn its full timeout budget.
                    continue;
                }
                report.ops_issued += 1;
                let stripe = StripeId(op.stripe);
                let start = now_us(&started);
                let result = client.invoke(op.kind.client_op(stripe, plan.m, plan.block_size));
                let end = now_us(&started);
                let history = histories.entry(op.stripe).or_default();
                match result {
                    Ok(result) => {
                        report.ops_completed += 1;
                        match (&result, op.kind.write_id()) {
                            (OpResult::Written, Some(id)) => {
                                history.push(OpRecord::write(id, start, end).committed());
                            }
                            (OpResult::Aborted(_), Some(id)) => {
                                history.push(OpRecord::write(id, start, end));
                            }
                            (OpResult::Aborted(_), None) => {}
                            (r, None) => {
                                if let Some(v) = value_of(r, plan.m, plan.block_size) {
                                    history.push(OpRecord::read(v, start, end));
                                }
                            }
                            (r, Some(_)) => report.violations.push(format!(
                                "harness: write answered with read result {r:?}"
                            )),
                        }
                    }
                    // Transport failure: a write may still have taken
                    // effect; a read observed nothing.
                    Err(_) => {
                        if let Some(id) = op.kind.write_id() {
                            history.push(OpRecord::write(id, start, end));
                        }
                    }
                }
            }
        }
    }

    for (stripe, history) in &histories {
        if let Err(v) = history.check() {
            report
                .violations
                .push(format!("strict-linearizability(sockets): stripe{stripe}: {v}"));
        }
    }

    for node in nodes.into_iter().flatten() {
        let _ = node.shutdown();
    }
    let _ = std::fs::remove_dir_all(&store_root);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::generate;

    /// Boots a real loopback cluster; `#[ignore]`d so plain `cargo test`
    /// stays socket-free (ci.sh and nightly.sh run it explicitly).
    #[test]
    #[ignore = "binds TCP sockets; run via ci.sh/nightly.sh or --ignored"]
    fn differential_run_is_clean_on_sockets() {
        for seed in 0..2u64 {
            let plan = generate(seed);
            let report = run_differential(&plan).expect("loopback cluster");
            assert!(report.is_clean(), "seed {seed}: {:?}", report.violations);
            assert!(report.ops_issued > 0, "seed {seed}");
        }
    }
}
