//! Erasure-code parameters, errors, and the [`Codec`] front end.
//!
//! The paper (§2.1) characterizes a deterministic erasure code by two
//! parameters *m* and *n*: a stripe holds *m* data blocks from which
//! *n − m* parity blocks are computed, and the original data can be
//! reconstructed from **any** *m* of the *n* blocks. Three primitive
//! operations are required (Figure 4):
//!
//! * `encode` — m data blocks → n blocks (the first m are the originals),
//! * `decode` — any m of the n blocks → the m data blocks,
//! * `modify_{i,j}` — incremental recomputation of parity block *j* after
//!   data block *i* changed, without touching the other m−1 data blocks.
//!
//! [`Codec`] implements all three for the three code families the paper
//! discusses: full replication (m = 1, the "special case of erasure coding"
//! used in Figure 5), single-parity / RAID-5 style XOR codes (m = n − 1),
//! and general Reed–Solomon codes (any m ≤ n).

use crate::kernel::{mul_acc_xor, xor_slice};
use crate::parity::ParityCode;
use crate::reed_solomon::ReedSolomon;
use crate::replication::Replication;
use std::error::Error;
use std::fmt;

/// Clears `buf` and refills it with a copy of `src`, reusing the existing
/// capacity. Reallocates only when `src` is longer than every block `buf`
/// previously held — i.e. never in the steady state of a reused buffer.
#[inline]
pub(crate) fn fill_from(buf: &mut Vec<u8>, src: &[u8]) {
    buf.clear();
    buf.extend_from_slice(src);
}

/// Clears `buf` and refills it with `len` zero bytes, reusing the existing
/// capacity (no reallocation in the steady state).
#[inline]
pub(crate) fn fill_zeroed(buf: &mut Vec<u8>, len: usize) {
    buf.clear();
    buf.resize(len, 0);
}

/// Maximum number of blocks per stripe supported by the GF(2⁸) codes.
pub const MAX_N: usize = 255;

/// Errors from erasure-code construction or use.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodeError {
    /// The (m, n) pair is not a valid code: requires 1 ≤ m ≤ n ≤ 255.
    InvalidParams {
        /// Requested number of data blocks.
        m: usize,
        /// Requested total number of blocks.
        n: usize,
    },
    /// An operation was given a different number of blocks than it needs.
    WrongBlockCount {
        /// How many blocks the operation needs.
        expected: usize,
        /// How many were supplied.
        actual: usize,
    },
    /// Blocks within one operation must all have the same length.
    UnequalBlockLengths,
    /// A block index was outside `0..n` (or outside the parity range for
    /// parity-specific operations).
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The exclusive upper bound that was violated.
        bound: usize,
    },
    /// The same block index appeared twice in a decode request.
    DuplicateShare {
        /// The duplicated index.
        index: usize,
    },
    /// Fewer than m distinct shares were supplied to `decode`.
    NotEnoughShares {
        /// How many shares decoding needs (m).
        needed: usize,
        /// How many distinct shares were supplied.
        actual: usize,
    },
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::InvalidParams { m, n } => {
                write!(f, "invalid erasure-code parameters m={m}, n={n}")
            }
            CodeError::WrongBlockCount { expected, actual } => {
                write!(f, "expected {expected} blocks, got {actual}")
            }
            CodeError::UnequalBlockLengths => {
                write!(f, "blocks in one stripe must have equal lengths")
            }
            CodeError::IndexOutOfRange { index, bound } => {
                write!(f, "block index {index} out of range (bound {bound})")
            }
            CodeError::DuplicateShare { index } => {
                write!(f, "duplicate share for block index {index}")
            }
            CodeError::NotEnoughShares { needed, actual } => {
                write!(f, "decoding needs {needed} distinct shares, got {actual}")
            }
        }
    }
}

impl Error for CodeError {}

/// A convenient result alias for erasure-code operations.
pub type Result<T> = std::result::Result<T, CodeError>;

/// Validated (m, n) erasure-code parameters.
///
/// # Examples
///
/// ```
/// use fab_erasure::CodeParams;
///
/// let p = CodeParams::new(5, 8)?;
/// assert_eq!(p.parity_count(), 3);
/// // A 5-of-8 code loses data only when more than 3 blocks disappear.
/// assert_eq!(p.loss_tolerance(), 3);
/// assert!((p.storage_overhead() - 1.6).abs() < 1e-9);
/// # Ok::<(), fab_erasure::CodeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodeParams {
    m: usize,
    n: usize,
}

impl CodeParams {
    /// Validates and creates (m, n) parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] unless `1 ≤ m ≤ n ≤ 255`.
    pub fn new(m: usize, n: usize) -> Result<Self> {
        if m == 0 || n < m || n > MAX_N {
            return Err(CodeError::InvalidParams { m, n });
        }
        Ok(CodeParams { m, n })
    }

    /// Number of data blocks per stripe.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Total number of blocks per stripe (data + parity).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of parity blocks per stripe (n − m).
    pub fn parity_count(&self) -> usize {
        self.n - self.m
    }

    /// Number of simultaneously *lost* blocks the code tolerates without
    /// data loss (n − m). Note this differs from the number of *faulty*
    /// processes the protocol tolerates, which is ⌊(n − m)/2⌋ (§2.2).
    pub fn loss_tolerance(&self) -> usize {
        self.n - self.m
    }

    /// Raw-to-logical storage ratio, n / m (compare Figure 3).
    pub fn storage_overhead(&self) -> f64 {
        self.n as f64 / self.m as f64
    }

    /// Returns `true` if `index` names a data block (`0..m`).
    pub fn is_data_index(&self, index: usize) -> bool {
        index < self.m
    }

    /// Returns `true` if `index` names a parity block (`m..n`).
    pub fn is_parity_index(&self, index: usize) -> bool {
        index >= self.m && index < self.n
    }
}

impl fmt::Display for CodeParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-of-{}", self.m, self.n)
    }
}

/// A single erasure-coded block tagged with its position in the stripe.
///
/// `index` is the absolute block index in `0..n`: indices `0..m` are data
/// blocks, `m..n` are parity blocks.
#[derive(Debug, Clone, Copy)]
pub struct Share<'a> {
    /// Absolute block index in `0..n`.
    pub index: usize,
    /// The block contents.
    pub data: &'a [u8],
}

impl<'a> Share<'a> {
    /// Creates a share from an index and block contents.
    pub fn new(index: usize, data: &'a [u8]) -> Self {
        Share { index, data }
    }
}

impl<'a> From<(usize, &'a [u8])> for Share<'a> {
    fn from((index, data): (usize, &'a [u8])) -> Self {
        Share { index, data }
    }
}

/// Which code family a [`Codec`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeKind {
    /// m = 1: every block is a full copy of the datum.
    Replication,
    /// m = n − 1: one XOR parity block (RAID-5 layout across bricks).
    Parity,
    /// General m-of-n Reed–Solomon.
    ReedSolomon,
}

/// An m-of-n erasure codec implementing the paper's `encode` / `decode` /
/// `modify` primitives (§2.1, Figure 4).
///
/// # Examples
///
/// The Figure 4 scenario — a 3-of-5 code, update block 3 (index 2), patch
/// parity incrementally, then decode from blocks {b₁, b₂, c₁′}:
///
/// ```
/// use fab_erasure::{Codec, Share};
///
/// let codec = Codec::new(3, 5)?;
/// let stripe: [&[u8]; 3] = [b"b1..", b"b2..", b"b3.."];
/// let blocks = codec.encode(&stripe)?;
///
/// // modify(3,1): recompute parity c1 (absolute index 3) after b3 changes.
/// let b3_new = b"B3!!";
/// let c1_new = codec.modify(2, 3, &blocks[2], b3_new, &blocks[3])?;
///
/// let data = codec.decode(&[
///     Share::new(0, &blocks[0]),
///     Share::new(1, &blocks[1]),
///     Share::new(3, &c1_new),
/// ])?;
/// assert_eq!(data[0], b"b1..");
/// assert_eq!(data[1], b"b2..");
/// assert_eq!(data[2], b"B3!!");
/// # Ok::<(), fab_erasure::CodeError>(())
/// ```
#[derive(Debug, Clone)]
pub enum Codec {
    /// Replication codec (m = 1).
    Replication(Replication),
    /// Single XOR parity codec (m = n − 1).
    Parity(ParityCode),
    /// General Reed–Solomon codec.
    ReedSolomon(ReedSolomon),
}

impl Codec {
    /// Creates a codec for the given (m, n), choosing the cheapest family
    /// that realizes it: replication for m = 1, XOR parity for m = n − 1
    /// (with n > 2), Reed–Solomon otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] for invalid (m, n).
    pub fn new(m: usize, n: usize) -> Result<Self> {
        let params = CodeParams::new(m, n)?;
        if m == 1 {
            Ok(Codec::Replication(Replication::new(n)?))
        } else if m == n - 1 {
            Ok(Codec::Parity(ParityCode::new(n)?))
        } else {
            Ok(Codec::ReedSolomon(ReedSolomon::new(
                params.m(),
                params.n(),
            )?))
        }
    }

    /// Creates a Reed–Solomon codec even where a cheaper family exists.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] for invalid (m, n).
    pub fn reed_solomon(m: usize, n: usize) -> Result<Self> {
        Ok(Codec::ReedSolomon(ReedSolomon::new(m, n)?))
    }

    /// Creates an n-way replication codec (m = 1).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] if `n` is 0 or exceeds 255.
    pub fn replication(n: usize) -> Result<Self> {
        Ok(Codec::Replication(Replication::new(n)?))
    }

    /// Creates a single-parity codec with m = n − 1.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] if `n < 2` or `n > 255`.
    pub fn parity(n: usize) -> Result<Self> {
        Ok(Codec::Parity(ParityCode::new(n)?))
    }

    /// The validated code parameters.
    pub fn params(&self) -> CodeParams {
        match self {
            Codec::Replication(c) => c.params(),
            Codec::Parity(c) => c.params(),
            Codec::ReedSolomon(c) => c.params(),
        }
    }

    /// Which family this codec belongs to.
    pub fn kind(&self) -> CodeKind {
        match self {
            Codec::Replication(_) => CodeKind::Replication,
            Codec::Parity(_) => CodeKind::Parity,
            Codec::ReedSolomon(_) => CodeKind::ReedSolomon,
        }
    }

    /// Number of data blocks per stripe.
    pub fn m(&self) -> usize {
        self.params().m()
    }

    /// Total number of blocks per stripe.
    pub fn n(&self) -> usize {
        self.params().n()
    }

    /// Encodes a stripe of m data blocks into n blocks.
    ///
    /// The first m returned blocks are the original data blocks (the code is
    /// systematic, matching the paper's definition of `encode`), the last
    /// n − m are parity.
    ///
    /// Allocates the n output blocks; hot paths that encode repeatedly
    /// should prefer [`Codec::encode_into`] with reused buffers.
    ///
    /// # Errors
    ///
    /// * [`CodeError::WrongBlockCount`] if `stripe.len() != m`.
    /// * [`CodeError::UnequalBlockLengths`] if the blocks differ in length.
    pub fn encode<B: AsRef<[u8]>>(&self, stripe: &[B]) -> Result<Vec<Vec<u8>>> {
        let mut out = vec![Vec::new(); self.n()];
        self.encode_into(stripe, &mut out)?;
        Ok(out)
    }

    /// Encodes a stripe of m data blocks into n caller-provided buffers.
    ///
    /// Byte-identical to [`Codec::encode`], but writes into `out` instead
    /// of allocating: each `out[k]` is cleared and refilled in place, so a
    /// buffer that already has sufficient capacity (any buffer reused from
    /// a previous call at the same block size) is **never reallocated** —
    /// the steady state performs no heap allocation.
    ///
    /// # Errors
    ///
    /// * [`CodeError::WrongBlockCount`] if `stripe.len() != m` **or**
    ///   `out.len() != n`.
    /// * [`CodeError::UnequalBlockLengths`] if the blocks differ in length.
    pub fn encode_into<B: AsRef<[u8]>>(&self, stripe: &[B], out: &mut [Vec<u8>]) -> Result<()> {
        let refs = check_stripe(stripe, self.m())?;
        if out.len() != self.n() {
            return Err(CodeError::WrongBlockCount {
                expected: self.n(),
                actual: out.len(),
            });
        }
        match self {
            Codec::Replication(c) => c.encode_into(&refs, out),
            Codec::Parity(c) => c.encode_into(&refs, out),
            Codec::ReedSolomon(c) => c.encode_into(&refs, out),
        }
        Ok(())
    }

    /// Decodes the m data blocks from any m distinct shares.
    ///
    /// Extra shares beyond the first m distinct ones are ignored.
    ///
    /// Allocates the m output blocks; hot paths that decode repeatedly
    /// should prefer [`Codec::decode_into`] with reused buffers.
    ///
    /// # Errors
    ///
    /// * [`CodeError::NotEnoughShares`] with fewer than m distinct shares.
    /// * [`CodeError::DuplicateShare`] on repeated indices.
    /// * [`CodeError::IndexOutOfRange`] on indices ≥ n.
    /// * [`CodeError::UnequalBlockLengths`] if shares differ in length.
    pub fn decode(&self, shares: &[Share<'_>]) -> Result<Vec<Vec<u8>>> {
        let mut out = vec![Vec::new(); self.m()];
        self.decode_into(shares, &mut out)?;
        Ok(out)
    }

    /// Decodes the m data blocks into m caller-provided buffers.
    ///
    /// Byte-identical to [`Codec::decode`], but writes into `out` instead
    /// of allocating the output blocks: each `out[k]` is cleared and
    /// refilled in place, so reused buffers are never reallocated in the
    /// steady state. (A non-systematic Reed–Solomon decode still builds its
    /// tiny m × m inversion matrix — that cost is independent of the block
    /// size.)
    ///
    /// # Errors
    ///
    /// Same conditions as [`Codec::decode`], plus
    /// [`CodeError::WrongBlockCount`] if `out.len() != m`.
    pub fn decode_into(&self, shares: &[Share<'_>], out: &mut [Vec<u8>]) -> Result<()> {
        let shares = check_shares(shares, self.params())?;
        if out.len() != self.m() {
            return Err(CodeError::WrongBlockCount {
                expected: self.m(),
                actual: out.len(),
            });
        }
        match self {
            Codec::Replication(c) => c.decode_into(&shares, out),
            Codec::Parity(c) => c.decode_into(&shares, out),
            Codec::ReedSolomon(c) => c.decode_into(&shares, out),
        }
        Ok(())
    }

    /// Reconstructs one block (data *or* parity) at `target` from any m
    /// distinct shares. Used for brick rebuild after permanent failures.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Codec::decode`], plus
    /// [`CodeError::IndexOutOfRange`] if `target ≥ n`.
    pub fn reconstruct(&self, target: usize, shares: &[Share<'_>]) -> Result<Vec<u8>> {
        if target >= self.n() {
            return Err(CodeError::IndexOutOfRange {
                index: target,
                bound: self.n(),
            });
        }
        // Fast path: the target is among the shares already.
        if let Some(s) = shares.iter().find(|s| s.index == target) {
            return Ok(s.data.to_vec());
        }
        let data = self.decode(shares)?;
        if target < self.m() {
            return Ok(data[target].clone());
        }
        let encoded = self.encode(&data)?;
        Ok(encoded[target].clone())
    }

    /// The paper's `modify_{i,j}` primitive: recomputes parity block `j`
    /// after data block `i` is updated from `old_data` to `new_data`,
    /// given the old parity contents `old_parity`.
    ///
    /// `i` is an absolute data index in `0..m`; `j` is an absolute parity
    /// index in `m..n`.
    ///
    /// # Errors
    ///
    /// * [`CodeError::IndexOutOfRange`] if `i` is not a data index or `j`
    ///   not a parity index.
    /// * [`CodeError::UnequalBlockLengths`] if the three blocks differ in
    ///   length.
    pub fn modify(
        &self,
        i: usize,
        j: usize,
        old_data: &[u8],
        new_data: &[u8],
        old_parity: &[u8],
    ) -> Result<Vec<u8>> {
        let mut parity = old_parity.to_vec();
        self.modify_in_place(i, j, old_data, new_data, &mut parity)?;
        Ok(parity)
    }

    /// In-place variant of [`Codec::modify`]: patches `parity` from the old
    /// to the new contents of parity block `j` directly, without allocating
    /// a result block or an intermediate difference block.
    ///
    /// This is the allocation-free core of the paper's `modify_{i,j}`:
    /// `c_j ^= g_{j,i} · (b_i ⊕ b_i′)` computed by one fused kernel pass.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Codec::modify`] (with `parity` playing the role
    /// of `old_parity` for the length check).
    pub fn modify_in_place(
        &self,
        i: usize,
        j: usize,
        old_data: &[u8],
        new_data: &[u8],
        parity: &mut [u8],
    ) -> Result<()> {
        let p = self.params();
        if !p.is_data_index(i) {
            return Err(CodeError::IndexOutOfRange {
                index: i,
                bound: p.m(),
            });
        }
        if !p.is_parity_index(j) {
            return Err(CodeError::IndexOutOfRange {
                index: j,
                bound: p.n(),
            });
        }
        if old_data.len() != new_data.len() || old_data.len() != parity.len() {
            return Err(CodeError::UnequalBlockLengths);
        }
        match self {
            Codec::Replication(_) => parity.copy_from_slice(new_data),
            // p' = p ⊕ b ⊕ b' — two word-wide XOR passes.
            Codec::Parity(_) => {
                xor_slice(parity, old_data);
                xor_slice(parity, new_data);
            }
            Codec::ReedSolomon(c) => {
                mul_acc_xor(parity, old_data, new_data, c.coefficient(j, i));
            }
        }
        Ok(())
    }

    /// Computes the coded delta `g_{j,i} · (new − old)` that parity process
    /// `j` must XOR into its parity block when data block `i` changes.
    ///
    /// This implements the §5.2(b) optimization: the coordinator sends each
    /// parity process a single pre-coded block instead of the old and new
    /// data values.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Codec::modify`].
    pub fn coded_delta(
        &self,
        i: usize,
        j: usize,
        old_data: &[u8],
        new_data: &[u8],
    ) -> Result<Vec<u8>> {
        let mut delta = vec![0u8; old_data.len()];
        self.coded_delta_acc(i, j, old_data, new_data, &mut delta)?;
        Ok(delta)
    }

    /// Accumulating variant of [`Codec::coded_delta`]: XORs the coded delta
    /// `g_{j,i} · (new ⊕ old)` into `acc` without allocating.
    ///
    /// Coded deltas are linear, so a coordinator combining the
    /// contributions of several written blocks into one parity patch can
    /// fold them all into a single reused buffer (§5.2(b)).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Codec::coded_delta`], plus
    /// [`CodeError::UnequalBlockLengths`] if `acc` differs in length.
    pub fn coded_delta_acc(
        &self,
        i: usize,
        j: usize,
        old_data: &[u8],
        new_data: &[u8],
        acc: &mut [u8],
    ) -> Result<()> {
        let p = self.params();
        if !p.is_data_index(i) {
            return Err(CodeError::IndexOutOfRange {
                index: i,
                bound: p.m(),
            });
        }
        if !p.is_parity_index(j) {
            return Err(CodeError::IndexOutOfRange {
                index: j,
                bound: p.n(),
            });
        }
        if old_data.len() != new_data.len() || old_data.len() != acc.len() {
            return Err(CodeError::UnequalBlockLengths);
        }
        match self {
            // A replica's "parity" is the value itself; the delta is the
            // XOR difference (coefficient 1).
            Codec::Replication(_) | Codec::Parity(_) => {
                xor_slice(acc, old_data);
                xor_slice(acc, new_data);
            }
            Codec::ReedSolomon(c) => {
                mul_acc_xor(acc, old_data, new_data, c.coefficient(j, i));
            }
        }
        Ok(())
    }

    /// Applies a coded delta produced by [`Codec::coded_delta`] to the old
    /// parity contents, yielding the new parity block.
    ///
    /// # Errors
    ///
    /// [`CodeError::UnequalBlockLengths`] if lengths differ.
    pub fn apply_coded_delta(&self, old_parity: &[u8], delta: &[u8]) -> Result<Vec<u8>> {
        let mut parity = old_parity.to_vec();
        self.apply_coded_delta_in_place(&mut parity, delta)?;
        Ok(parity)
    }

    /// In-place variant of [`Codec::apply_coded_delta`]: XORs `delta` into
    /// `parity` with the word-wide kernel, avoiding the result allocation.
    ///
    /// # Errors
    ///
    /// [`CodeError::UnequalBlockLengths`] if lengths differ.
    pub fn apply_coded_delta_in_place(&self, parity: &mut [u8], delta: &[u8]) -> Result<()> {
        if parity.len() != delta.len() {
            return Err(CodeError::UnequalBlockLengths);
        }
        xor_slice(parity, delta);
        Ok(())
    }
}

/// Validates a stripe argument and borrows its blocks.
fn check_stripe<B: AsRef<[u8]>>(stripe: &[B], m: usize) -> Result<Vec<&[u8]>> {
    if stripe.len() != m {
        return Err(CodeError::WrongBlockCount {
            expected: m,
            actual: stripe.len(),
        });
    }
    let refs: Vec<&[u8]> = stripe.iter().map(AsRef::as_ref).collect();
    let len = refs[0].len();
    if refs.iter().any(|b| b.len() != len) {
        return Err(CodeError::UnequalBlockLengths);
    }
    Ok(refs)
}

/// Validates shares: distinct in-range indices, equal lengths, at least m.
/// Returns exactly m shares (extras dropped), sorted by index.
fn check_shares<'a>(shares: &[Share<'a>], params: CodeParams) -> Result<Vec<Share<'a>>> {
    let mut seen = vec![false; params.n()];
    let mut picked: Vec<Share<'a>> = Vec::with_capacity(params.m());
    for s in shares {
        if s.index >= params.n() {
            return Err(CodeError::IndexOutOfRange {
                index: s.index,
                bound: params.n(),
            });
        }
        if seen[s.index] {
            return Err(CodeError::DuplicateShare { index: s.index });
        }
        seen[s.index] = true;
        if picked.len() < params.m() {
            picked.push(*s);
        }
    }
    if picked.len() < params.m() {
        return Err(CodeError::NotEnoughShares {
            needed: params.m(),
            actual: picked.len(),
        });
    }
    if !picked.is_empty() {
        let len = picked[0].data.len();
        if picked.iter().any(|s| s.data.len() != len) {
            return Err(CodeError::UnequalBlockLengths);
        }
    }
    picked.sort_by_key(|s| s.index);
    Ok(picked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_validation() {
        assert!(CodeParams::new(0, 5).is_err());
        assert!(CodeParams::new(3, 2).is_err());
        assert!(CodeParams::new(1, 256).is_err());
        assert!(CodeParams::new(1, 1).is_ok());
        assert!(CodeParams::new(5, 8).is_ok());
        assert!(CodeParams::new(255, 255).is_ok());
    }

    #[test]
    fn params_accessors() {
        let p = CodeParams::new(5, 8).unwrap();
        assert_eq!(p.m(), 5);
        assert_eq!(p.n(), 8);
        assert_eq!(p.parity_count(), 3);
        assert_eq!(p.loss_tolerance(), 3);
        assert!(p.is_data_index(4));
        assert!(!p.is_data_index(5));
        assert!(p.is_parity_index(5));
        assert!(!p.is_parity_index(8));
        assert_eq!(p.to_string(), "5-of-8");
    }

    #[test]
    fn codec_family_selection() {
        assert_eq!(Codec::new(1, 4).unwrap().kind(), CodeKind::Replication);
        assert_eq!(Codec::new(4, 5).unwrap().kind(), CodeKind::Parity);
        assert_eq!(Codec::new(5, 8).unwrap().kind(), CodeKind::ReedSolomon);
        // m = n with m > 1 is "striping": Reed-Solomon with no parity rows.
        assert_eq!(Codec::new(3, 3).unwrap().kind(), CodeKind::ReedSolomon);
    }

    #[test]
    fn encode_rejects_bad_stripe() {
        let c = Codec::new(3, 5).unwrap();
        let two: [&[u8]; 2] = [b"ab", b"cd"];
        assert!(matches!(
            c.encode(&two),
            Err(CodeError::WrongBlockCount {
                expected: 3,
                actual: 2
            })
        ));
        let uneven: [&[u8]; 3] = [b"ab", b"cd", b"e"];
        assert!(matches!(
            c.encode(&uneven),
            Err(CodeError::UnequalBlockLengths)
        ));
    }

    #[test]
    fn decode_rejects_bad_shares() {
        let c = Codec::new(2, 4).unwrap();
        let blocks = c.encode(&[b"ab".as_slice(), b"cd".as_slice()]).unwrap();
        // Too few.
        assert!(matches!(
            c.decode(&[Share::new(0, &blocks[0])]),
            Err(CodeError::NotEnoughShares {
                needed: 2,
                actual: 1
            })
        ));
        // Duplicate index.
        assert!(matches!(
            c.decode(&[Share::new(0, &blocks[0]), Share::new(0, &blocks[0])]),
            Err(CodeError::DuplicateShare { index: 0 })
        ));
        // Out of range.
        assert!(matches!(
            c.decode(&[Share::new(0, &blocks[0]), Share::new(9, &blocks[1])]),
            Err(CodeError::IndexOutOfRange { index: 9, bound: 4 })
        ));
    }

    #[test]
    fn error_display_is_meaningful() {
        let e = CodeError::NotEnoughShares {
            needed: 5,
            actual: 3,
        };
        assert_eq!(e.to_string(), "decoding needs 5 distinct shares, got 3");
        let e = CodeError::InvalidParams { m: 9, n: 3 };
        assert!(e.to_string().contains("m=9"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CodeError>();
        assert_send_sync::<Codec>();
    }

    fn stripe(m: usize, len: usize, seed: u8) -> Vec<Vec<u8>> {
        (0..m)
            .map(|i| {
                (0..len)
                    .map(|k| (seed as usize ^ (i * 37 + k * 11)) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn encode_into_matches_encode_all_families() {
        for (m, n) in [(1usize, 3usize), (3, 4), (5, 8), (2, 5)] {
            let codec = Codec::new(m, n).unwrap();
            let data = stripe(m, 40, 17);
            let fresh = codec.encode(&data).unwrap();
            let mut reused = vec![Vec::new(); n];
            codec.encode_into(&data, &mut reused).unwrap();
            assert_eq!(fresh, reused, "({m},{n})");
        }
    }

    #[test]
    fn decode_into_matches_decode_all_families() {
        for (m, n) in [(1usize, 3usize), (3, 4), (5, 8), (2, 5)] {
            let codec = Codec::new(m, n).unwrap();
            let data = stripe(m, 40, 23);
            let blocks = codec.encode(&data).unwrap();
            // Parity-heavy share selection exercises the real decode path.
            let shares: Vec<Share<'_>> = (n - m..n)
                .map(|i| Share::new(i, blocks[i].as_slice()))
                .collect();
            let fresh = codec.decode(&shares).unwrap();
            let mut reused = vec![Vec::new(); m];
            codec.decode_into(&shares, &mut reused).unwrap();
            assert_eq!(fresh, reused, "({m},{n})");
            assert_eq!(fresh, data, "({m},{n})");
        }
    }

    #[test]
    fn into_variants_reject_wrong_output_arity() {
        let codec = Codec::new(3, 5).unwrap();
        let data = stripe(3, 8, 1);
        let mut too_small = vec![Vec::new(); 4];
        assert!(matches!(
            codec.encode_into(&data, &mut too_small),
            Err(CodeError::WrongBlockCount {
                expected: 5,
                actual: 4
            })
        ));
        let blocks = codec.encode(&data).unwrap();
        let shares: Vec<Share<'_>> = (0..3).map(|i| Share::new(i, blocks[i].as_slice())).collect();
        let mut too_big = vec![Vec::new(); 4];
        assert!(matches!(
            codec.decode_into(&shares, &mut too_big),
            Err(CodeError::WrongBlockCount {
                expected: 3,
                actual: 4
            })
        ));
    }

    #[test]
    fn steady_state_encode_decode_do_not_reallocate() {
        let codec = Codec::new(5, 8).unwrap();
        let mut enc_out = vec![Vec::new(); 8];
        let mut dec_out = vec![Vec::new(); 5];
        codec.encode_into(&stripe(5, 256, 3), &mut enc_out).unwrap();
        {
            let shares: Vec<Share<'_>> = (3..8)
                .map(|i| Share::new(i, enc_out[i].as_slice()))
                .collect();
            codec.decode_into(&shares, &mut dec_out).unwrap();
        }
        let enc_ptrs: Vec<*const u8> = enc_out.iter().map(std::vec::Vec::as_ptr).collect();
        let dec_ptrs: Vec<*const u8> = dec_out.iter().map(std::vec::Vec::as_ptr).collect();
        // Ten more rounds at the same block size: every buffer stays put.
        for round in 0..10u8 {
            let data = stripe(5, 256, round.wrapping_mul(41));
            codec.encode_into(&data, &mut enc_out).unwrap();
            let shares: Vec<Share<'_>> = (3..8)
                .map(|i| Share::new(i, enc_out[i].as_slice()))
                .collect();
            let decoded_ok = codec.decode_into(&shares, &mut dec_out).is_ok();
            assert!(decoded_ok);
            assert_eq!(dec_out, data, "round {round}");
        }
        assert_eq!(
            enc_ptrs,
            enc_out.iter().map(std::vec::Vec::as_ptr).collect::<Vec<_>>(),
            "encode_into reallocated in steady state"
        );
        assert_eq!(
            dec_ptrs,
            dec_out.iter().map(std::vec::Vec::as_ptr).collect::<Vec<_>>(),
            "decode_into reallocated in steady state"
        );
    }

    #[test]
    fn modify_in_place_matches_modify_all_families() {
        for (m, n) in [(1usize, 3usize), (3, 4), (5, 8)] {
            let codec = Codec::new(m, n).unwrap();
            let data = stripe(m, 32, 9);
            let blocks = codec.encode(&data).unwrap();
            let new_b0 = vec![0x3Cu8; 32];
            for (j, block) in blocks.iter().enumerate().take(n).skip(m) {
                let owned = codec.modify(0, j, &data[0], &new_b0, block).unwrap();
                let mut in_place = block.clone();
                codec
                    .modify_in_place(0, j, &data[0], &new_b0, &mut in_place)
                    .unwrap();
                assert_eq!(owned, in_place, "({m},{n}) j={j}");
            }
        }
    }

    #[test]
    fn coded_delta_acc_folds_multiple_contributions() {
        let codec = Codec::new(5, 8).unwrap();
        let data = stripe(5, 24, 5);
        let new0 = vec![0x11u8; 24];
        let new2 = vec![0x77u8; 24];
        for j in 5..8 {
            // Reference: two allocating deltas XOR-ed together.
            let d0 = codec.coded_delta(0, j, &data[0], &new0).unwrap();
            let d2 = codec.coded_delta(2, j, &data[2], &new2).unwrap();
            let want: Vec<u8> = d0.iter().zip(&d2).map(|(a, b)| a ^ b).collect();
            // Accumulating: folded into one reused buffer.
            let mut acc = vec![0u8; 24];
            codec.coded_delta_acc(0, j, &data[0], &new0, &mut acc).unwrap();
            codec.coded_delta_acc(2, j, &data[2], &new2, &mut acc).unwrap();
            assert_eq!(want, acc, "j={j}");
        }
    }

    #[test]
    fn apply_coded_delta_in_place_matches_allocating() {
        let codec = Codec::new(3, 5).unwrap();
        let parity = stripe(1, 16, 31).pop().unwrap();
        let delta = stripe(1, 16, 77).pop().unwrap();
        let owned = codec.apply_coded_delta(&parity, &delta).unwrap();
        let mut in_place = parity.clone();
        codec.apply_coded_delta_in_place(&mut in_place, &delta).unwrap();
        assert_eq!(owned, in_place);
        assert!(codec
            .apply_coded_delta_in_place(&mut in_place, &delta[..8])
            .is_err());
    }

    #[test]
    fn share_conversions() {
        let data = b"abc";
        let s: Share<'_> = (3usize, data.as_slice()).into();
        assert_eq!(s.index, 3);
        assert_eq!(s.data, b"abc");
    }
}
