//! Redundancy schemes and their MTTDL / storage-overhead models
//! (Figures 2 and 3 of the paper).
//!
//! Three ways to protect data across bricks are compared:
//!
//! 1. **Striping** over (possibly high-end) bricks — no cross-brick
//!    redundancy; data is lost when any one brick terminally fails.
//! 2. **k-way replication** — each block lives on k bricks; loss requires
//!    k concurrent brick failures touching one replica group.
//! 3. **m-of-n erasure coding** — loss requires more than n−m concurrent
//!    brick failures touching one stripe.
//!
//! The system model: bricks form redundancy groups of `g` bricks each
//! (`g = k` for replication, `n` for erasure coding, 1 for striping); a
//! group loses data when more than `tolerance` of its bricks are down at
//! once, and the system loses data when any group does. Per-group loss
//! times come from the birth–death chain in [`crate::markov`]; with `G`
//! statistically independent groups the system MTTDL is the group MTTDL
//! divided by `G` — the paper's observation that "the system-wide MTTDL is
//! roughly proportional to the number of combinations of brick failures
//! that can lead to a data loss" (§1.2).

use crate::markov::declustered_mttdl_hours;
use crate::params::{BrickParams, InternalLayout, HOURS_PER_YEAR};

/// A cross-brick redundancy scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Non-redundant striping across bricks.
    Striping,
    /// k-way replication (k ≥ 1; k = 1 degenerates to striping).
    Replication {
        /// Number of copies.
        k: usize,
    },
    /// m-of-n deterministic erasure coding.
    ErasureCode {
        /// Data blocks per stripe.
        m: usize,
        /// Total blocks per stripe.
        n: usize,
    },
}

impl Scheme {
    /// Number of concurrent *brick* failures the scheme survives.
    pub fn tolerance(&self) -> usize {
        match self {
            Scheme::Striping => 0,
            Scheme::Replication { k } => k - 1,
            Scheme::ErasureCode { m, n } => n - m,
        }
    }

    /// Raw-to-logical capacity ratio across bricks (excluding any
    /// intra-brick redundancy).
    pub fn cross_brick_overhead(&self) -> f64 {
        match self {
            Scheme::Striping => 1.0,
            Scheme::Replication { k } => *k as f64,
            Scheme::ErasureCode { m, n } => *n as f64 / *m as f64,
        }
    }

    /// Minimum number of bricks the scheme needs.
    pub fn min_bricks(&self) -> usize {
        match self {
            Scheme::Striping => 1,
            Scheme::Replication { k } => *k,
            Scheme::ErasureCode { n, .. } => *n,
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scheme::Striping => write!(f, "striping"),
            Scheme::Replication { k } => write!(f, "{k}-way replication"),
            Scheme::ErasureCode { m, n } => write!(f, "E.C.({m},{n})"),
        }
    }
}

/// A complete system design: scheme + brick hardware + internal layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemDesign {
    /// Cross-brick redundancy scheme.
    pub scheme: Scheme,
    /// Brick hardware parameters.
    pub brick: BrickParams,
    /// Intra-brick protection.
    pub layout: InternalLayout,
}

impl SystemDesign {
    /// Terminal MTTF of one brick in hours: the rate at which a brick
    /// irrecoverably loses its data.
    ///
    /// * R0: any disk failure or chassis failure is terminal.
    /// * R5: a chassis failure, or a second disk failing while the first
    ///   rebuilds (classic RAID-5 double-failure model).
    pub fn brick_mttf_hours(&self) -> f64 {
        let p = &self.brick;
        let d = p.disks_per_brick as f64;
        let disk_rate = match self.layout {
            InternalLayout::Raid0 => d / p.disk_mttf_hours,
            InternalLayout::Raid5 => {
                // Double-failure rate: d·λ · ((d−1)·λ) / μ, the standard
                // RAID-5 result MTTF²/(d(d−1)·MTTR).
                d * (d - 1.0) * p.disk_repair_hours / (p.disk_mttf_hours * p.disk_mttf_hours)
            }
        };
        let total_rate = disk_rate + 1.0 / p.brick_other_mttf_hours;
        1.0 / total_rate
    }

    /// Number of bricks needed to offer `logical_tb` of capacity.
    pub fn brick_count(&self, logical_tb: f64) -> usize {
        let usable = self.brick.usable_capacity_tb(self.layout);
        let raw_needed = logical_tb * self.scheme.cross_brick_overhead();
        let count = (raw_needed / usable).ceil() as usize;
        count.max(self.scheme.min_bricks())
    }

    /// Total storage overhead: raw disk capacity / logical capacity
    /// (the y-axis of Figure 3). Includes intra-brick R5 overhead.
    pub fn storage_overhead(&self) -> f64 {
        let internal = match self.layout {
            InternalLayout::Raid0 => 1.0,
            InternalLayout::Raid5 => {
                self.brick.disks_per_brick as f64 / (self.brick.disks_per_brick as f64 - 1.0)
            }
        };
        self.scheme.cross_brick_overhead() * internal
    }

    /// System MTTDL in hours for a given logical capacity.
    pub fn mttdl_hours(&self, logical_tb: f64) -> f64 {
        let bricks = self.brick_count(logical_tb);
        let group = self.scheme.min_bricks().max(1);
        let tolerance = self.scheme.tolerance().min(group - 1);
        let group_mttdl = declustered_mttdl_hours(
            group,
            tolerance,
            self.brick_mttf_hours(),
            self.brick.brick_repair_hours,
        );
        let groups = (bricks as f64 / group as f64).max(1.0);
        group_mttdl / groups
    }

    /// System MTTDL in years (the y-axis of Figure 2).
    pub fn mttdl_years(&self, logical_tb: f64) -> f64 {
        self.mttdl_hours(logical_tb) / HOURS_PER_YEAR
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design(scheme: Scheme, layout: InternalLayout) -> SystemDesign {
        SystemDesign {
            scheme,
            brick: BrickParams::commodity(),
            layout,
        }
    }

    #[test]
    fn tolerances() {
        assert_eq!(Scheme::Striping.tolerance(), 0);
        assert_eq!(Scheme::Replication { k: 4 }.tolerance(), 3);
        assert_eq!(Scheme::ErasureCode { m: 5, n: 8 }.tolerance(), 3);
    }

    #[test]
    fn overheads() {
        assert!((Scheme::Replication { k: 4 }.cross_brick_overhead() - 4.0).abs() < 1e-12);
        assert!((Scheme::ErasureCode { m: 5, n: 8 }.cross_brick_overhead() - 1.6).abs() < 1e-12);
        // R5 bricks add d/(d−1).
        let d = design(Scheme::ErasureCode { m: 5, n: 8 }, InternalLayout::Raid5);
        assert!((d.storage_overhead() - 1.6 * 12.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn r5_bricks_outlast_r0_bricks() {
        let r0 = design(Scheme::Striping, InternalLayout::Raid0);
        let r5 = design(Scheme::Striping, InternalLayout::Raid5);
        assert!(r5.brick_mttf_hours() > r0.brick_mttf_hours() * 2.0);
    }

    #[test]
    fn brick_count_scales_with_capacity_and_overhead() {
        let rep = design(Scheme::Replication { k: 4 }, InternalLayout::Raid0);
        let ec = design(Scheme::ErasureCode { m: 5, n: 8 }, InternalLayout::Raid0);
        assert_eq!(rep.brick_count(3.0), 4);
        assert!(rep.brick_count(256.0) > ec.brick_count(256.0) * 2);
        // Minimum bricks respected even for tiny capacities.
        assert_eq!(ec.brick_count(0.1), 8);
    }

    /// The Figure 2 shape at one capacity point: 4-way replication ≥
    /// EC(5,8) ≫ striping; R5 bricks beat R0 bricks for the same scheme.
    #[test]
    fn figure2_ordering_holds() {
        let cap = 256.0;
        let striping_highend = SystemDesign {
            scheme: Scheme::Striping,
            brick: BrickParams::high_end(),
            layout: InternalLayout::Raid5,
        };
        let rep_r0 = design(Scheme::Replication { k: 4 }, InternalLayout::Raid0);
        let rep_r5 = design(Scheme::Replication { k: 4 }, InternalLayout::Raid5);
        let ec_r0 = design(Scheme::ErasureCode { m: 5, n: 8 }, InternalLayout::Raid0);
        let ec_r5 = design(Scheme::ErasureCode { m: 5, n: 8 }, InternalLayout::Raid5);

        let s = striping_highend.mttdl_years(cap);
        let (r0, r5) = (rep_r0.mttdl_years(cap), rep_r5.mttdl_years(cap));
        let (e0, e5) = (ec_r0.mttdl_years(cap), ec_r5.mttdl_years(cap));

        assert!(r0 > s * 1e2, "replication dwarfs striping: {r0} vs {s}");
        assert!(e0 > s * 1e1, "EC dwarfs striping: {e0} vs {s}");
        assert!(r5 > r0, "R5 bricks beat R0: {r5} vs {r0}");
        assert!(e5 > e0, "R5 bricks beat R0: {e5} vs {e0}");
        assert!(r0 > e0, "4-way replication edges out EC(5,8): {r0} vs {e0}");
        assert!(
            e0 > r0 / 1e2,
            "but EC stays within ~2 orders of magnitude: {e0} vs {r0}"
        );
    }

    /// MTTDL declines with capacity for every scheme (Figure 2's x-axis
    /// trend). Below the scheme's minimum brick count the curve plateaus
    /// (the system cannot shrink), so we assert non-increasing everywhere
    /// and strict decline across the full sweep.
    #[test]
    fn mttdl_declines_with_capacity() {
        for scheme in [
            Scheme::Striping,
            Scheme::Replication { k: 4 },
            Scheme::ErasureCode { m: 5, n: 8 },
        ] {
            let d = design(scheme, InternalLayout::Raid0);
            let caps = [1.0, 10.0, 100.0, 1000.0];
            let ys: Vec<f64> = caps.iter().map(|&c| d.mttdl_years(c)).collect();
            for w in ys.windows(2) {
                assert!(w[1] <= w[0], "{scheme}: {ys:?} must be non-increasing");
            }
            assert!(
                ys[3] < ys[0] / 10.0,
                "{scheme}: {ys:?} must decline over three decades"
            );
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Scheme::ErasureCode { m: 5, n: 8 }.to_string(), "E.C.(5,8)");
        assert_eq!(
            Scheme::Replication { k: 4 }.to_string(),
            "4-way replication"
        );
    }
}
