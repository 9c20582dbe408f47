//! m-quorum systems (§2.2 and Appendix A of the paper).
//!
//! With m-out-of-n erasure coding, a read must see at least m blocks
//! written by the preceding write, so read and write quorums must intersect
//! in **m** processes — not 1, as in replicated quorum systems. Definition
//! 1 of the paper requires of a quorum system `Q ⊆ 2^U`:
//!
//! * **Consistency** — `|Q₁ ∩ Q₂| ≥ m` for all `Q₁, Q₂ ∈ Q`,
//! * **Availability** — for every set `S` of `f` processes there is a
//!   quorum disjoint from `S`.
//!
//! Theorem 2 shows an m-quorum system exists **iff `n ≥ 2f + m`**, and
//! Lemma 3 shows that whenever one exists, the *threshold* construction
//! `Q = { Q ⊆ U : |Q| ≥ n − f }` is one. [`MQuorumSystem`] implements that
//! canonical threshold construction; the existence theorem itself is
//! checked by exhaustive enumeration in this crate's tests.
//!
//! # Examples
//!
//! ```
//! use fab_quorum::MQuorumSystem;
//!
//! // 5-of-8 erasure coding: tolerates f = ⌊(8−5)/2⌋ = 1 faulty brick,
//! // and every quorum has 8 − 1 = 7 members.
//! let q = MQuorumSystem::for_code(5, 8)?;
//! assert_eq!(q.max_faulty(), 1);
//! assert_eq!(q.quorum_size(), 7);
//! // Any two quorums overlap in at least m = 5 processes.
//! assert!(q.min_intersection() >= 5);
//! # Ok::<(), fab_quorum::QuorumError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]
// Rules L2 (determinism) and L5 (no-as-truncation), DESIGN.md §6.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::as_conversions))]

use fab_timestamp::ProcessId;
use std::error::Error;
use std::fmt;

/// Errors from m-quorum-system construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QuorumError {
    /// Parameters violate `1 ≤ m ≤ n`.
    InvalidParams {
        /// Required intersection size.
        m: usize,
        /// Universe size.
        n: usize,
    },
    /// No m-quorum system exists: Theorem 2 requires `n ≥ 2f + m`.
    Unsatisfiable {
        /// Required intersection size.
        m: usize,
        /// Universe size.
        n: usize,
        /// Requested fault tolerance.
        f: usize,
    },
}

impl fmt::Display for QuorumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuorumError::InvalidParams { m, n } => {
                write!(f, "invalid quorum parameters m={m}, n={n}")
            }
            QuorumError::Unsatisfiable { m, n, f: faults } => write!(
                f,
                "no m-quorum system exists for m={m}, n={n}, f={faults} (needs n >= 2f + m)"
            ),
        }
    }
}

impl Error for QuorumError {}

/// The canonical threshold m-quorum system: every subset of `U` with at
/// least `n − f` members is a quorum.
///
/// By Lemma 4, this satisfies consistency (`|Q₁ ∩ Q₂| ≥ n − 2f ≥ m`) and
/// availability (any `n − f` correct processes form a quorum) exactly when
/// `n ≥ 2f + m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MQuorumSystem {
    m: usize,
    n: usize,
    f: usize,
}

impl MQuorumSystem {
    /// Creates the threshold m-quorum system for an m-of-n code with the
    /// **maximum** fault tolerance `f = ⌊(n − m)/2⌋` (the paper's standing
    /// assumption, §2.2).
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidParams`] unless `1 ≤ m ≤ n`.
    pub fn for_code(m: usize, n: usize) -> Result<Self, QuorumError> {
        if m == 0 || n < m {
            return Err(QuorumError::InvalidParams { m, n });
        }
        Self::with_faults(m, n, (n - m) / 2)
    }

    /// Creates a threshold m-quorum system tolerating exactly `f` faults.
    ///
    /// Smaller `f` than the maximum yields larger intersections (useful to
    /// trade availability for fast-read hit rate).
    ///
    /// # Errors
    ///
    /// * [`QuorumError::InvalidParams`] unless `1 ≤ m ≤ n`.
    /// * [`QuorumError::Unsatisfiable`] if `n < 2f + m` (Theorem 2).
    pub fn with_faults(m: usize, n: usize, f: usize) -> Result<Self, QuorumError> {
        if m == 0 || n < m {
            return Err(QuorumError::InvalidParams { m, n });
        }
        if n < 2 * f + m {
            return Err(QuorumError::Unsatisfiable { m, n, f });
        }
        Ok(MQuorumSystem { m, n, f })
    }

    /// Required intersection size m.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Universe size n.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Maximum number of faulty processes tolerated.
    #[must_use]
    pub fn max_faulty(&self) -> usize {
        self.f
    }

    /// Number of processes in every quorum (`n − f`).
    #[must_use]
    pub fn quorum_size(&self) -> usize {
        self.n - self.f
    }

    /// The guaranteed minimum intersection of any two quorums
    /// (`n − 2f ≥ m`).
    #[must_use]
    pub fn min_intersection(&self) -> usize {
        self.n - 2 * self.f
    }

    /// Returns `true` if the distinct processes in `members` form a quorum.
    ///
    /// Out-of-universe ids are ignored; duplicates count once.
    pub fn is_quorum<I>(&self, members: I) -> bool
    where
        I: IntoIterator<Item = ProcessId>,
    {
        let mut seen = vec![false; self.n];
        let mut count = 0usize;
        for p in members {
            let i = p.index();
            if i < self.n && !seen[i] {
                seen[i] = true;
                count += 1;
            }
        }
        count >= self.quorum_size()
    }
}

impl fmt::Display for MQuorumSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "m-quorum(m={}, n={}, f={}, |Q|={})",
            self.m,
            self.n,
            self.f,
            self.quorum_size()
        )
    }
}

/// Tracks which processes have replied during one messaging phase of a
/// `quorum()` exchange (§2.2).
///
/// The `quorum(msg)` primitive sends `msg` to all n processes, retransmits
/// over the fair-lossy channels, and returns once an m-quorum has replied.
/// A tracker records distinct responders and answers "is this a quorum
/// yet?"; the messaging itself lives in the drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumTracker {
    system: MQuorumSystem,
    replied: Vec<bool>,
    count: usize,
}

impl QuorumTracker {
    /// Creates an empty tracker for one messaging phase.
    #[must_use]
    pub fn new(system: MQuorumSystem) -> Self {
        QuorumTracker {
            replied: vec![false; system.n()],
            count: 0,
            system,
        }
    }

    /// Records a reply from `pid`. Returns `true` if this reply was new
    /// (not a duplicate or out-of-universe).
    pub fn record(&mut self, pid: ProcessId) -> bool {
        let i = pid.index();
        if i >= self.replied.len() || self.replied[i] {
            return false;
        }
        self.replied[i] = true;
        self.count += 1;
        true
    }

    /// Returns `true` once the distinct responders form an m-quorum.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.count >= self.system.quorum_size()
    }

    /// Number of distinct responders so far.
    #[must_use]
    pub fn replies(&self) -> usize {
        self.count
    }

    /// Returns `true` if `pid` has replied.
    #[must_use]
    pub fn has_replied(&self, pid: ProcessId) -> bool {
        pid.index() < self.replied.len() && self.replied[pid.index()]
    }

    /// Iterates over the processes that have replied, in id order.
    pub fn responders(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.replied
            .iter()
            .enumerate()
            .filter(|(_, &r)| r)
            .filter_map(|(i, _)| u32::try_from(i).ok().map(ProcessId::new))
    }

    /// The quorum system this tracker checks against.
    #[must_use]
    pub fn system(&self) -> MQuorumSystem {
        self.system
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_code_uses_max_faults() {
        let q = MQuorumSystem::for_code(5, 8).unwrap();
        assert_eq!(q.max_faulty(), 1);
        assert_eq!(q.quorum_size(), 7);
        assert_eq!(q.min_intersection(), 6);
        assert!(q.min_intersection() >= q.m());

        let q = MQuorumSystem::for_code(5, 7).unwrap();
        assert_eq!(q.max_faulty(), 1);
        assert_eq!(q.quorum_size(), 6);
        assert_eq!(q.min_intersection(), 5);

        // Replication: m=1, n=3 — the classic majority system.
        let q = MQuorumSystem::for_code(1, 3).unwrap();
        assert_eq!(q.max_faulty(), 1);
        assert_eq!(q.quorum_size(), 2);
    }

    #[test]
    fn with_faults_enforces_theorem2_bound() {
        // n >= 2f + m is necessary and sufficient.
        assert!(MQuorumSystem::with_faults(5, 8, 1).is_ok());
        assert!(matches!(
            MQuorumSystem::with_faults(5, 8, 2),
            Err(QuorumError::Unsatisfiable { m: 5, n: 8, f: 2 })
        ));
        assert!(MQuorumSystem::with_faults(3, 3, 0).is_ok());
        assert!(MQuorumSystem::with_faults(3, 9, 3).is_ok());
        assert!(MQuorumSystem::with_faults(3, 8, 3).is_err());
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(matches!(
            MQuorumSystem::for_code(0, 5),
            Err(QuorumError::InvalidParams { .. })
        ));
        assert!(MQuorumSystem::for_code(6, 5).is_err());
    }

    /// Exhaustively verifies Definition 1 for all small (m, n): every pair
    /// of threshold quorums intersects in ≥ m processes, and for every
    /// f-subset S there is a quorum disjoint from S.
    #[test]
    fn definition1_holds_exhaustively_for_small_systems() {
        for n in 1usize..=10 {
            for m in 1..=n {
                let q = MQuorumSystem::for_code(m, n).unwrap();
                let size = q.quorum_size();
                let subsets: Vec<u32> = (0u32..1 << n)
                    .filter(|s| s.count_ones() as usize == size)
                    .collect();
                // Consistency.
                for &a in &subsets {
                    for &b in &subsets {
                        assert!(
                            (a & b).count_ones() as usize >= m,
                            "n={n} m={m}: quorums {a:b} and {b:b} intersect in < m"
                        );
                    }
                }
                // Availability: for every f-subset there's a disjoint quorum.
                let f = q.max_faulty();
                for faulty in (0u32..1 << n).filter(|s| s.count_ones() as usize == f) {
                    let alive = !faulty & ((1u32 << n) - 1);
                    assert!(
                        alive.count_ones() as usize >= size,
                        "n={n} m={m} f={f}: no quorum avoids faulty set {faulty:b}"
                    );
                }
            }
        }
    }

    /// The "only if" direction of Theorem 2: with f one larger than the
    /// bound allows, consistency and availability cannot both hold.
    #[test]
    fn theorem2_bound_is_tight() {
        for n in 2usize..=10 {
            for m in 1..=n {
                let f_max = (n - m) / 2;
                // One more fault than allowed must be rejected.
                assert!(
                    MQuorumSystem::with_faults(m, n, f_max + 1).is_err(),
                    "n={n} m={m}: f={} should be unsatisfiable",
                    f_max + 1
                );
            }
        }
    }

    #[test]
    fn is_quorum_counts_distinct_members() {
        let q = MQuorumSystem::for_code(2, 5).unwrap(); // f=1, size=4
        let ids: Vec<ProcessId> = (0..4u32).map(ProcessId::new).collect();
        assert!(q.is_quorum(ids.iter().copied()));
        // Duplicates don't help.
        let dup = vec![
            ProcessId::new(0),
            ProcessId::new(0),
            ProcessId::new(1),
            ProcessId::new(2),
        ];
        assert!(!q.is_quorum(dup));
        // Out-of-universe ids are ignored.
        let oob = vec![
            ProcessId::new(0),
            ProcessId::new(1),
            ProcessId::new(2),
            ProcessId::new(99),
        ];
        assert!(!q.is_quorum(oob));
    }

    #[test]
    fn tracker_completes_exactly_at_quorum_size() {
        let q = MQuorumSystem::for_code(5, 8).unwrap(); // size 7
        let mut t = QuorumTracker::new(q);
        for i in 0..6u32 {
            assert!(t.record(ProcessId::new(i)));
            assert!(!t.is_complete(), "after {} replies", i + 1);
        }
        // Duplicate doesn't complete it.
        assert!(!t.record(ProcessId::new(0)));
        assert!(!t.is_complete());
        assert!(t.record(ProcessId::new(6)));
        assert!(t.is_complete());
        assert_eq!(t.replies(), 7);
        assert_eq!(t.responders().count(), 7);
        assert!(t.has_replied(ProcessId::new(3)));
        assert!(!t.has_replied(ProcessId::new(7)));
    }

    #[test]
    fn tracker_ignores_out_of_universe() {
        let q = MQuorumSystem::for_code(1, 3).unwrap();
        let mut t = QuorumTracker::new(q);
        assert!(!t.record(ProcessId::new(10)));
        assert_eq!(t.replies(), 0);
    }

    #[test]
    fn display_is_informative() {
        let q = MQuorumSystem::for_code(5, 8).unwrap();
        assert_eq!(q.to_string(), "m-quorum(m=5, n=8, f=1, |Q|=7)");
        let e = QuorumError::Unsatisfiable { m: 5, n: 8, f: 2 };
        assert!(e.to_string().contains("n >= 2f + m"));
    }
}
