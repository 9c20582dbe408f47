//! Property tests for m-quorum systems: randomized checks of Definition 1
//! over parameters too large to enumerate exhaustively.

use fab_quorum::{MQuorumSystem, QuorumTracker};
use fab_timestamp::ProcessId;
use propcheck::{ensure, ensure_eq, Gen};

/// An `(m, n)` code with `n` drawn from `n_range` and `1 <= m < n` (`m = 1`
/// when `n = 1`).
fn code(g: &mut Gen, n_range: std::ops::RangeInclusive<usize>) -> (usize, usize) {
    let n = g.range(n_range);
    (g.range(1..=(n - 1).max(1)), n)
}

/// `k` distinct processes of `0..n`: a partial Fisher–Yates over `g`.
fn subset(g: &mut Gen, n: usize, k: usize) -> Vec<ProcessId> {
    let mut ids: Vec<u32> = (0..n as u32).collect();
    for i in 0..k {
        let j = g.range(i..n);
        ids.swap(i, j);
    }
    ids[..k].iter().map(|&p| ProcessId::new(p)).collect()
}

propcheck::properties! {
    cases: 256;

    fn random_quorums_intersect_in_at_least_m(g) {
        let (m, n) = code(g, 1..=64);
        let q = MQuorumSystem::for_code(m, n).unwrap();
        let a = subset(g, n, q.quorum_size());
        let b = subset(g, n, q.quorum_size());
        let inter = a.iter().filter(|p| b.contains(p)).count();
        ensure!(inter >= m, "m={m} n={n} intersection={inter}");
        ensure!(inter >= q.min_intersection());
    }

    /// Availability: kill any f processes; the survivors form a quorum.
    fn any_quorum_survives_max_faults(g) {
        let (m, n) = code(g, 1..=64);
        let q = MQuorumSystem::for_code(m, n).unwrap();
        let faulty = subset(g, n, q.max_faulty());
        let survivors = (0..n as u32).map(ProcessId::new).filter(|p| !faulty.contains(p));
        ensure!(q.is_quorum(survivors));
    }

    fn one_extra_fault_breaks_availability_or_consistency(g) {
        let (m, n) = code(g, 2..=64);
        let f = (n - m) / 2;
        ensure!(MQuorumSystem::with_faults(m, n, f + 1).is_err());
    }

    fn tracker_agrees_with_is_quorum(g) {
        let (m, n) = code(g, 1..=32);
        let replies = g.vec(0..64, |g| ProcessId::new(g.range(0u32..40)));
        let q = MQuorumSystem::for_code(m, n).unwrap();
        let mut t = QuorumTracker::new(q);
        for &r in &replies {
            t.record(r);
        }
        ensure_eq!(t.is_complete(), q.is_quorum(replies));
        ensure_eq!(t.responders().count(), t.replies());
    }
}
