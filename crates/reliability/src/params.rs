//! Component reliability parameters.
//!
//! The paper extrapolated brick and network reliability from the
//! component-wise figures in Asami's dissertation (the paper's reference 3),
//! which is
//! not publicly available. We substitute well-known commodity figures of
//! the same era and document them here; Figures 2–3 compare the *shapes* of
//! MTTDL/overhead curves across redundancy schemes, which depend on the
//! redundancy combinatorics rather than on these absolute constants (see
//! DESIGN.md, substitutions table).

/// Physical parameters of one storage brick and its repair process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrickParams {
    /// Disks per brick.
    pub disks_per_brick: usize,
    /// Raw capacity of one disk, in terabytes.
    pub disk_capacity_tb: f64,
    /// Mean time to failure of one disk, in hours.
    pub disk_mttf_hours: f64,
    /// Mean time to repair/replace a failed disk inside a brick, in hours.
    pub disk_repair_hours: f64,
    /// MTTF of the brick's non-disk components (controller, PSU, fans) —
    /// failures that take the whole brick's data offline, in hours.
    pub brick_other_mttf_hours: f64,
    /// Mean time to repair/rebuild a failed brick from redundancy, in
    /// hours. This is the window during which additional failures
    /// accumulate toward data loss.
    pub brick_repair_hours: f64,
}

impl BrickParams {
    /// Commodity bricks circa 2004: 12 × 250 GB ATA disks with 500k-hour
    /// disk MTTF, a 100k-hour chassis, 24 h disk swap, 48 h brick rebuild.
    pub fn commodity() -> Self {
        BrickParams {
            disks_per_brick: 12,
            disk_capacity_tb: 0.25,
            disk_mttf_hours: 500_000.0,
            disk_repair_hours: 24.0,
            brick_other_mttf_hours: 100_000.0,
            brick_repair_hours: 48.0,
        }
    }

    /// High-end, high-reliability array hardware (the "conventional
    /// arrays" of Figure 2's striping curve). Vendors quote terminal
    /// data-loss MTTFs of tens of thousands of years for such arrays
    /// (fully redundant controllers, paths, and power), so the non-disk
    /// terminal-failure MTTF here is 4×10⁸ hours (~45 000 years).
    pub fn high_end() -> Self {
        BrickParams {
            disks_per_brick: 12,
            disk_capacity_tb: 0.25,
            disk_mttf_hours: 1_000_000.0,
            disk_repair_hours: 12.0,
            brick_other_mttf_hours: 400_000_000.0,
            brick_repair_hours: 24.0,
        }
    }

    /// Raw capacity of one brick in terabytes.
    pub fn raw_capacity_tb(&self) -> f64 {
        self.disks_per_brick as f64 * self.disk_capacity_tb
    }

    /// Usable capacity of one brick under the given internal layout.
    pub fn usable_capacity_tb(&self, layout: InternalLayout) -> f64 {
        match layout {
            InternalLayout::Raid0 => self.raw_capacity_tb(),
            InternalLayout::Raid5 => {
                self.raw_capacity_tb() * (self.disks_per_brick as f64 - 1.0)
                    / self.disks_per_brick as f64
            }
        }
    }
}

impl Default for BrickParams {
    fn default() -> Self {
        BrickParams::commodity()
    }
}

/// How a brick protects data internally (Figures 2–3 compare both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InternalLayout {
    /// Non-redundant striping over the brick's disks: any disk failure
    /// loses the brick's data.
    Raid0,
    /// Single-parity protection over the brick's disks: the brick's data
    /// survives one disk failure at a time.
    Raid5,
}

impl std::fmt::Display for InternalLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InternalLayout::Raid0 => write!(f, "R0"),
            InternalLayout::Raid5 => write!(f, "R5"),
        }
    }
}

/// Hours per year, for MTTDL reporting in years.
pub const HOURS_PER_YEAR: f64 = 24.0 * 365.25;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities() {
        let p = BrickParams::commodity();
        assert!((p.raw_capacity_tb() - 3.0).abs() < 1e-9);
        assert!((p.usable_capacity_tb(InternalLayout::Raid0) - 3.0).abs() < 1e-9);
        assert!((p.usable_capacity_tb(InternalLayout::Raid5) - 2.75).abs() < 1e-9);
    }

    #[test]
    fn high_end_is_more_reliable() {
        let c = BrickParams::commodity();
        let h = BrickParams::high_end();
        assert!(h.brick_other_mttf_hours > c.brick_other_mttf_hours);
        assert!(h.disk_mttf_hours > c.disk_mttf_hours);
    }

    #[test]
    fn layout_display() {
        assert_eq!(InternalLayout::Raid0.to_string(), "R0");
        assert_eq!(InternalLayout::Raid5.to_string(), "R5");
    }
}
