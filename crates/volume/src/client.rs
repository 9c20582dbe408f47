//! The simulation-backed [`RegisterClient`].
//!
//! The volume layer is generic over [`fab_core::RegisterClient`], so the
//! same byte-range I/O logic runs over the deterministic simulator (tests,
//! benchmarks — [`SimClient`], here), the threaded runtime
//! (`fab_runtime::RuntimeClient`) and TCP bricks (`fab_net::NetClient`).

use fab_core::{ClientError, ClientOp, OpResult, RegisterClient, RegisterConfig, SimCluster};
use fab_timestamp::ProcessId;

/// A [`RegisterClient`] over the deterministic simulator, rotating the
/// coordinator role across bricks request-by-request — the decentralized
/// access pattern of Figure 1, where clients may contact any brick.
#[derive(Debug)]
pub struct SimClient {
    cluster: SimCluster,
    next: u32,
}

impl SimClient {
    /// Wraps a simulated cluster.
    pub fn new(cluster: SimCluster) -> Self {
        SimClient { cluster, next: 0 }
    }

    /// The wrapped cluster (for fault injection in tests).
    pub fn cluster_mut(&mut self) -> &mut SimCluster {
        &mut self.cluster
    }

    /// The wrapped cluster (read-only).
    pub fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    /// Picks the next coordinator round-robin, skipping crashed bricks
    /// (a client can observe connection failure and try another brick;
    /// this requires no failure *detector* — a live brick that is merely
    /// slow still works). `None` when every brick is down.
    fn coordinator(&mut self) -> Option<ProcessId> {
        let n = self.cluster.config().n() as u32;
        (0..n).find_map(|_| {
            let pid = ProcessId::new(self.next % n);
            self.next = self.next.wrapping_add(1);
            (!self.cluster.sim().is_crashed(pid)).then_some(pid)
        })
    }
}

impl RegisterClient for SimClient {
    fn config(&self) -> RegisterConfig {
        self.cluster.config().clone()
    }

    fn invoke(&mut self, op: ClientOp) -> Result<OpResult, ClientError> {
        let coordinator = self.coordinator().ok_or(ClientError::Unavailable)?;
        self.cluster.invoke(coordinator, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fab_simnet::SimConfig;

    #[test]
    fn rotates_coordinators() {
        let cfg = RegisterConfig::new(2, 4, 8).unwrap();
        let mut client = SimClient::new(SimCluster::new(cfg, SimConfig::ideal(0)));
        let picks: Vec<u32> = (0..5)
            .map(|_| client.coordinator().unwrap().value())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn skips_crashed_coordinators() {
        let cfg = RegisterConfig::new(2, 4, 8).unwrap();
        let mut client = SimClient::new(SimCluster::new(cfg, SimConfig::ideal(0)));
        client
            .cluster_mut()
            .sim_mut()
            .schedule_crash(0, ProcessId::new(1));
        client.cluster_mut().sim_mut().run_until(1);
        let picks: Vec<u32> = (0..4)
            .map(|_| client.coordinator().unwrap().value())
            .collect();
        assert!(
            !picks.contains(&1),
            "crashed brick never coordinates: {picks:?}"
        );
    }

    /// With no brick to coordinate, or too few for a quorum, the client
    /// answers `Unavailable`; it must not pick a dead brick and stall.
    #[test]
    fn every_brick_crashed_is_unavailable_not_a_panic() {
        let cfg = RegisterConfig::new(2, 4, 8).unwrap();
        let mut client = SimClient::new(SimCluster::new(cfg, SimConfig::ideal(0)));
        for i in 0..4 {
            let sim = client.cluster_mut().sim_mut();
            sim.schedule_crash(0, ProcessId::new(i));
        }
        client.cluster_mut().sim_mut().run_until(1);
        let read = client.read_stripe(fab_core::StripeId(0));
        assert_eq!(read, Err(ClientError::Unavailable));
        // One recovered brick cannot form a quorum of 3: the operation is
        // accepted, stalls, and surfaces as Unavailable at the deadline.
        client.cluster_mut().op_deadline = 50_000;
        client
            .cluster_mut()
            .sim_mut()
            .schedule_recovery(1, ProcessId::new(2));
        client.cluster_mut().sim_mut().run_until(2);
        let read = client.read_stripe(fab_core::StripeId(0));
        assert_eq!(read, Err(ClientError::Unavailable));
    }
}
