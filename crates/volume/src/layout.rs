//! Logical-volume geometry: mapping logical blocks to stripe registers.
//!
//! A FAB logical volume is an array of fixed-size blocks spread over
//! `stripe_count` independent storage registers, each holding m blocks
//! (§1.1, §4). The mapping from logical block number to (stripe, index)
//! is a pluggable [`Layout`]:
//!
//! * [`Layout::Linear`] — block L lives in stripe `L / m` at index
//!   `L % m`; consecutive blocks share a stripe (good for whole-stripe
//!   transfers).
//! * [`Layout::Interleaved`] — block L lives in stripe `L % S` at index
//!   `L / S`; consecutive blocks land on *different* stripes, which is the
//!   §3 recommendation for making stripe-level conflicts (and thus aborts)
//!   unlikely under concurrent sequential workloads.

use fab_core::StripeId;

/// How logical blocks map onto stripes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// Consecutive blocks fill one stripe before moving to the next.
    Linear,
    /// Consecutive blocks round-robin across all stripes (§3).
    #[default]
    Interleaved,
}

/// The shape of one logical volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VolumeGeometry {
    /// Number of stripes (independent storage registers).
    pub stripe_count: u64,
    /// Data blocks per stripe (the code's m).
    pub m: usize,
    /// Bytes per block.
    pub block_size: usize,
    /// Block-to-stripe mapping.
    pub layout: Layout,
    /// First stripe id this volume occupies. Multiple volumes share one
    /// brick cluster by carving up the stripe-id space (FAB presents "a
    /// number of logical volumes", §1.1).
    pub stripe_base: u64,
}

impl VolumeGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(stripe_count: u64, m: usize, block_size: usize, layout: Layout) -> Self {
        assert!(stripe_count > 0, "volume needs at least one stripe");
        assert!(m > 0, "stripes hold at least one block");
        assert!(block_size > 0, "blocks must be non-empty");
        VolumeGeometry {
            stripe_count,
            m,
            block_size,
            layout,
            stripe_base: 0,
        }
    }

    /// Places the volume at a stripe-id offset, so several volumes can
    /// share one cluster without touching each other's registers.
    pub fn with_base(mut self, stripe_base: u64) -> Self {
        self.stripe_base = stripe_base;
        self
    }

    /// Volume capacity in logical blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.stripe_count * self.m as u64
    }

    /// Volume capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_blocks() * self.block_size as u64
    }

    /// Maps a logical block number to its (stripe, index-within-stripe).
    ///
    /// # Panics
    ///
    /// Panics if `block` is beyond the volume capacity.
    pub fn locate(&self, block: u64) -> (StripeId, usize) {
        assert!(
            block < self.capacity_blocks(),
            "logical block {block} beyond capacity {}",
            self.capacity_blocks()
        );
        match self.layout {
            Layout::Linear => (
                StripeId(self.stripe_base + block / self.m as u64),
                (block % self.m as u64) as usize,
            ),
            Layout::Interleaved => (
                StripeId(self.stripe_base + block % self.stripe_count),
                (block / self.stripe_count) as usize,
            ),
        }
    }

    /// Inverse of [`locate`](VolumeGeometry::locate).
    pub fn block_of(&self, stripe: StripeId, index: usize) -> u64 {
        debug_assert!(index < self.m);
        debug_assert!(stripe.0 >= self.stripe_base);
        let local = stripe.0 - self.stripe_base;
        match self.layout {
            Layout::Linear => local * self.m as u64 + index as u64,
            Layout::Interleaved => index as u64 * self.stripe_count + local,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_packs_stripes() {
        let g = VolumeGeometry::new(4, 3, 512, Layout::Linear);
        assert_eq!(g.locate(0), (StripeId(0), 0));
        assert_eq!(g.locate(2), (StripeId(0), 2));
        assert_eq!(g.locate(3), (StripeId(1), 0));
        assert_eq!(g.locate(11), (StripeId(3), 2));
    }

    #[test]
    fn interleaved_spreads_consecutive_blocks() {
        let g = VolumeGeometry::new(4, 3, 512, Layout::Interleaved);
        // Blocks 0..4 land on four different stripes (§3).
        let stripes: Vec<u64> = (0..4).map(|b| g.locate(b).0 .0).collect();
        assert_eq!(stripes, vec![0, 1, 2, 3]);
        assert_eq!(g.locate(4), (StripeId(0), 1));
        assert_eq!(g.locate(11), (StripeId(3), 2));
    }

    #[test]
    fn locate_and_block_of_are_inverse() {
        for layout in [Layout::Linear, Layout::Interleaved] {
            let g = VolumeGeometry::new(7, 5, 64, layout);
            for b in 0..g.capacity_blocks() {
                let (s, i) = g.locate(b);
                assert!(i < 5);
                assert!(s.0 < 7);
                assert_eq!(g.block_of(s, i), b, "{layout:?} block {b}");
            }
        }
    }

    #[test]
    fn every_slot_is_hit_exactly_once() {
        for layout in [Layout::Linear, Layout::Interleaved] {
            let g = VolumeGeometry::new(5, 4, 64, layout);
            let mut seen = vec![false; (g.capacity_blocks()) as usize];
            for b in 0..g.capacity_blocks() {
                let (s, i) = g.locate(b);
                let slot = (s.0 as usize) * 4 + i;
                assert!(!seen[slot], "{layout:?} slot collision at block {b}");
                seen[slot] = true;
            }
            assert!(seen.iter().all(|&x| x));
        }
    }

    #[test]
    fn capacities() {
        let g = VolumeGeometry::new(10, 5, 1024, Layout::Linear);
        assert_eq!(g.capacity_blocks(), 50);
        assert_eq!(g.capacity_bytes(), 51_200);
    }

    #[test]
    fn stripe_base_offsets_all_mappings() {
        for layout in [Layout::Linear, Layout::Interleaved] {
            let g = VolumeGeometry::new(4, 3, 64, layout).with_base(100);
            for b in 0..g.capacity_blocks() {
                let (s, i) = g.locate(b);
                assert!(s.0 >= 100 && s.0 < 104, "{layout:?} stripe {s}");
                assert_eq!(g.block_of(s, i), b);
            }
        }
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn locate_checks_bounds() {
        let g = VolumeGeometry::new(2, 2, 16, Layout::Linear);
        let _ = g.locate(4);
    }
}
