//! Block and stripe value types.
//!
//! The protocol distinguishes three kinds of per-process log values (§4.2):
//!
//! * **`Data`** — an actual erasure-coded block,
//! * **`Nil`** — the distinguished initial register value (the paper's
//!   `nil`, the value of the `[LowTS, nil]` entry every log starts with).
//!   A virtual disk reads `nil` as a zero-filled block, so [`BlockValue::Nil`]
//!   materializes as zeros when arithmetic needs bytes,
//! * **`Bottom`** — the paper's `⊥` marker: a timestamp-only log entry used
//!   by `Modify` on processes that store neither the written block nor
//!   parity (Alg. 3 line 96). `⊥` entries order operations but carry no
//!   block, so they cost no disk write (Table 1's cost model keeps
//!   timestamps in NVRAM).

use bytes::Bytes;
use fab_simnet::WireSize;
use std::fmt;

/// A value a process may hold in its log for one timestamp.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BlockValue {
    /// The paper's `⊥`: a timestamp-only entry with no block.
    Bottom,
    /// The paper's `nil`: the initial (zero) content of the register.
    Nil,
    /// An erasure-coded block.
    Data(Bytes),
}

impl BlockValue {
    /// Returns `true` for `⊥`.
    pub fn is_bottom(&self) -> bool {
        matches!(self, BlockValue::Bottom)
    }

    /// Returns `true` for `nil`.
    pub fn is_nil(&self) -> bool {
        matches!(self, BlockValue::Nil)
    }

    /// Returns the block bytes, materializing `Nil` as `block_size` zeros.
    ///
    /// Returns `None` for `Bottom` — `⊥` is a timestamp-only marker and
    /// never participates in block arithmetic. (The seed panicked here;
    /// handlers now *refuse* requests that would materialize `⊥`, per the
    /// no-panic discipline enforced by `cargo xtask analyze`.)
    pub fn materialize(&self, block_size: usize) -> Option<Bytes> {
        match self {
            BlockValue::Bottom => None,
            BlockValue::Nil => Some(Bytes::from(vec![0u8; block_size])),
            BlockValue::Data(b) => Some(b.clone()),
        }
    }

    /// The number of disk-block writes persisting this value costs: 1 for
    /// `Data`, 0 for `Nil` and `Bottom` (timestamp-only NVRAM updates).
    pub fn disk_write_cost(&self) -> u64 {
        match self {
            BlockValue::Data(_) => 1,
            _ => 0,
        }
    }

    /// The number of disk-block reads fetching this value costs.
    pub fn disk_read_cost(&self) -> u64 {
        match self {
            BlockValue::Data(_) => 1,
            _ => 0,
        }
    }
}

impl WireSize for BlockValue {
    fn wire_size(&self) -> usize {
        match self {
            BlockValue::Bottom | BlockValue::Nil => 1,
            BlockValue::Data(b) => 1 + b.len(),
        }
    }
}

impl fmt::Display for BlockValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockValue::Bottom => write!(f, "⊥"),
            BlockValue::Nil => write!(f, "nil"),
            BlockValue::Data(b) => write!(f, "data[{}B]", b.len()),
        }
    }
}

/// The value of a whole stripe: either the distinguished initial `nil`
/// (reads as zeros) or `m` data blocks.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StripeValue {
    /// The register has its initial content (all zeros).
    Nil,
    /// `m` data blocks.
    Data(Vec<Bytes>),
}

impl StripeValue {
    /// Returns the `m` data blocks, materializing `Nil` as zeros.
    pub fn materialize(&self, m: usize, block_size: usize) -> Vec<Bytes> {
        match self {
            StripeValue::Nil => vec![Bytes::from(vec![0u8; block_size]); m],
            StripeValue::Data(blocks) => blocks.clone(),
        }
    }

    /// Returns block `j` of the stripe, materializing `Nil` as zeros.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range for a `Data` stripe.
    pub fn block(&self, j: usize, block_size: usize) -> Bytes {
        match self {
            StripeValue::Nil => Bytes::from(vec![0u8; block_size]),
            StripeValue::Data(blocks) => blocks[j].clone(),
        }
    }

    /// Returns `true` if this is the initial `nil` value.
    pub fn is_nil(&self) -> bool {
        matches!(self, StripeValue::Nil)
    }
}

impl fmt::Display for StripeValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StripeValue::Nil => write!(f, "nil"),
            StripeValue::Data(blocks) => write!(f, "stripe[{} blocks]", blocks.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn materialize_nil_is_zeros() {
        assert_eq!(
            BlockValue::Nil.materialize(4),
            Some(Bytes::from(vec![0u8; 4]))
        );
        let s = StripeValue::Nil;
        assert_eq!(s.materialize(2, 3), vec![Bytes::from(vec![0u8; 3]); 2]);
        assert_eq!(s.block(1, 3), Bytes::from(vec![0u8; 3]));
    }

    #[test]
    fn materialize_data_is_identity() {
        let b = BlockValue::Data(Bytes::from_static(b"abc"));
        assert_eq!(b.materialize(99), Some(Bytes::from_static(b"abc")));
    }

    #[test]
    fn materialize_bottom_is_none() {
        assert_eq!(BlockValue::Bottom.materialize(4), None);
    }

    #[test]
    fn disk_costs_follow_table1_model() {
        assert_eq!(
            BlockValue::Data(Bytes::from_static(b"x")).disk_write_cost(),
            1
        );
        assert_eq!(BlockValue::Nil.disk_write_cost(), 0);
        assert_eq!(BlockValue::Bottom.disk_write_cost(), 0);
        assert_eq!(
            BlockValue::Data(Bytes::from_static(b"x")).disk_read_cost(),
            1
        );
        assert_eq!(BlockValue::Bottom.disk_read_cost(), 0);
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(BlockValue::Bottom.wire_size(), 1);
        assert_eq!(BlockValue::Nil.wire_size(), 1);
        assert_eq!(
            BlockValue::Data(Bytes::from(vec![0u8; 100])).wire_size(),
            101
        );
    }

    #[test]
    fn stripe_block_access() {
        let s = StripeValue::Data(vec![Bytes::from_static(b"a"), Bytes::from_static(b"b")]);
        assert_eq!(s.block(1, 1), Bytes::from_static(b"b"));
        assert!(!s.is_nil());
        assert!(StripeValue::Nil.is_nil());
    }

    #[test]
    fn display_forms() {
        assert_eq!(BlockValue::Bottom.to_string(), "⊥");
        assert_eq!(BlockValue::Nil.to_string(), "nil");
        assert_eq!(StripeValue::Nil.to_string(), "nil");
    }
}
