//! The register's client-facing vocabulary: which operations exist
//! ([`ClientOp`]), how a request is refused ([`ClientError`]), and the one
//! interface every substrate serves them through ([`RegisterClient`]).
//!
//! The paper's register has a small fixed interface — `read-stripe`,
//! `write-stripe`, `read-block`, `write-block` (Algs. 1–3), plus the
//! footnote-2 multi-block pair and `scrub` — and any brick serves it
//! (Figure 1). That decision is written down once, here: drivers build a
//! [`ClientOp`] and hand it to [`Coordinator::invoke`](crate::Coordinator::invoke),
//! the only place that dispatches on its variants; clients of the
//! simulator, the threaded runtime and the TCP bricks all implement the
//! same two-method [`RegisterClient`], and the typed calls are provided
//! methods written once. `fab-wire` owns only the byte encoding.

use crate::config::RegisterConfig;
use crate::coordinator::OpResult;
use crate::messages::StripeId;
use bytes::Bytes;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::{Arc, Mutex, PoisonError};

/// A client-requested register operation. Block indices are `u32`, their
/// width on the wire; the typed constructors take `usize` like the rest of
/// the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOp {
    /// Read a whole stripe.
    ReadStripe {
        /// Target stripe.
        stripe: StripeId,
    },
    /// Write a whole stripe (exactly `m` blocks of `block_size` bytes).
    WriteStripe {
        /// Target stripe.
        stripe: StripeId,
        /// The `m` data blocks.
        blocks: Vec<Bytes>,
    },
    /// Read one block.
    ReadBlock {
        /// Target stripe.
        stripe: StripeId,
        /// Block index.
        j: u32,
    },
    /// Write one block.
    WriteBlock {
        /// Target stripe.
        stripe: StripeId,
        /// Block index.
        j: u32,
        /// The new block contents.
        block: Bytes,
    },
    /// Read several blocks in one register operation.
    ReadBlocks {
        /// Target stripe.
        stripe: StripeId,
        /// Block indices (ascending, distinct).
        js: Vec<u32>,
    },
    /// Write several blocks in one register operation.
    WriteBlocks {
        /// Target stripe.
        stripe: StripeId,
        /// `(index, new contents)` pairs (distinct indices).
        updates: Vec<(u32, Bytes)>,
    },
    /// Scrub a stripe (recover and rewrite to all reachable bricks).
    Scrub {
        /// Target stripe.
        stripe: StripeId,
    },
}

/// A block index at its wire width. One too large for the wire is out of
/// range for every configuration, so it saturates and the coordinator
/// rejects it as malformed.
fn wire_index(j: usize) -> u32 {
    u32::try_from(j).unwrap_or(u32::MAX)
}

/// A wire-width block index as the coordinator's `usize`.
pub(crate) fn block_index(j: u32) -> usize {
    j as usize
}

impl ClientOp {
    /// Short operation name for logs and traces.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ClientOp::ReadStripe { .. } => "read-stripe",
            ClientOp::WriteStripe { .. } => "write-stripe",
            ClientOp::ReadBlock { .. } => "read-block",
            ClientOp::WriteBlock { .. } => "write-block",
            ClientOp::ReadBlocks { .. } => "read-blocks",
            ClientOp::WriteBlocks { .. } => "write-blocks",
            ClientOp::Scrub { .. } => "scrub",
        }
    }

    /// `read-stripe` (Alg. 1 line 1).
    #[must_use]
    pub fn read_stripe(stripe: StripeId) -> Self {
        ClientOp::ReadStripe { stripe }
    }

    /// `write-stripe` (Alg. 1 line 12).
    #[must_use]
    pub fn write_stripe(stripe: StripeId, blocks: Vec<Bytes>) -> Self {
        ClientOp::WriteStripe { stripe, blocks }
    }

    /// `read-block` (Alg. 3 line 61).
    #[must_use]
    pub fn read_block(stripe: StripeId, j: usize) -> Self {
        let j = wire_index(j);
        ClientOp::ReadBlock { stripe, j }
    }

    /// `write-block` (Alg. 3 line 70).
    #[must_use]
    pub fn write_block(stripe: StripeId, j: usize, block: Bytes) -> Self {
        let j = wire_index(j);
        ClientOp::WriteBlock { stripe, j, block }
    }

    /// Multi-block read (footnote 2); `js` must be ascending and distinct.
    #[must_use]
    pub fn read_blocks(stripe: StripeId, js: Vec<usize>) -> Self {
        let js = js.into_iter().map(wire_index).collect();
        ClientOp::ReadBlocks { stripe, js }
    }

    /// Multi-block write (footnote 2); indices must be distinct.
    #[must_use]
    pub fn write_blocks(stripe: StripeId, updates: Vec<(usize, Bytes)>) -> Self {
        let updates = updates
            .into_iter()
            .map(|(j, b)| (wire_index(j), b))
            .collect();
        ClientOp::WriteBlocks { stripe, updates }
    }

    /// Scrub: recover the current value and write it back to every
    /// reachable brick (maintenance after recovery or replacement).
    #[must_use]
    pub fn scrub(stripe: StripeId) -> Self {
        ClientOp::Scrub { stripe }
    }
}

/// A typed refusal of a client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClientError {
    /// The request was malformed for the cluster's configuration (wrong
    /// stripe shape, out-of-range block index).
    InvalidRequest,
    /// No brick served the request: the one asked is down or shutting
    /// down, or a client's fail-over budget ran out.
    Unavailable,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::InvalidRequest => write!(f, "malformed request"),
            ClientError::Unavailable => write!(f, "no brick answered"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Synchronous access to one cluster's stripe registers.
///
/// Implementors supply [`config`](RegisterClient::config) and
/// [`invoke`](RegisterClient::invoke); the typed calls are sugar over
/// `invoke`. An `Ok` carries the register's answer — including the paper's
/// `⊥`, [`OpResult::Aborted`] — and an `Err` means the register never
/// answered.
pub trait RegisterClient {
    /// The register configuration (code parameters, block size). An owned
    /// copy keeps the trait easy to implement for clients behind locks or
    /// `RefCell`s.
    fn config(&self) -> RegisterConfig;

    /// Runs one register operation to completion.
    ///
    /// # Errors
    ///
    /// [`ClientError::InvalidRequest`] if the operation is malformed for
    /// the configuration; [`ClientError::Unavailable`] if no brick answered.
    fn invoke(&mut self, op: ClientOp) -> Result<OpResult, ClientError>;

    /// Reads a whole stripe.
    ///
    /// # Errors
    ///
    /// As [`RegisterClient::invoke`], like every typed call below.
    fn read_stripe(&mut self, stripe: StripeId) -> Result<OpResult, ClientError> {
        self.invoke(ClientOp::read_stripe(stripe))
    }

    /// Writes a whole stripe (exactly m blocks of `block_size` bytes).
    fn write_stripe(
        &mut self,
        stripe: StripeId,
        blocks: Vec<Bytes>,
    ) -> Result<OpResult, ClientError> {
        self.invoke(ClientOp::write_stripe(stripe, blocks))
    }

    /// Reads one block of a stripe.
    fn read_block(&mut self, stripe: StripeId, j: usize) -> Result<OpResult, ClientError> {
        self.invoke(ClientOp::read_block(stripe, j))
    }

    /// Writes one block of a stripe.
    fn write_block(
        &mut self,
        stripe: StripeId,
        j: usize,
        block: Bytes,
    ) -> Result<OpResult, ClientError> {
        self.invoke(ClientOp::write_block(stripe, j, block))
    }

    /// Reads several blocks of one stripe in one register operation
    /// (footnote-2 extension). `js` must be ascending and distinct.
    fn read_blocks(&mut self, stripe: StripeId, js: Vec<usize>) -> Result<OpResult, ClientError> {
        self.invoke(ClientOp::read_blocks(stripe, js))
    }

    /// Writes several blocks of one stripe in one register operation.
    fn write_blocks(
        &mut self,
        stripe: StripeId,
        updates: Vec<(usize, Bytes)>,
    ) -> Result<OpResult, ClientError> {
        self.invoke(ClientOp::write_blocks(stripe, updates))
    }

    /// Scrubs a stripe: recover the current value and write it back to all
    /// reachable bricks (maintenance after recovery/replacement).
    fn scrub(&mut self, stripe: StripeId) -> Result<OpResult, ClientError> {
        self.invoke(ClientOp::scrub(stripe))
    }
}

/// Shared single-threaded client: several volumes over one `Rc<RefCell<C>>`.
impl<C: RegisterClient> RegisterClient for Rc<RefCell<C>> {
    fn config(&self) -> RegisterConfig {
        C::config(&self.borrow())
    }
    fn invoke(&mut self, op: ClientOp) -> Result<OpResult, ClientError> {
        C::invoke(&mut self.borrow_mut(), op)
    }
}

/// Shared thread-safe client: several volumes over one `Arc<Mutex<C>>`.
impl<C: RegisterClient> RegisterClient for Arc<Mutex<C>> {
    fn config(&self) -> RegisterConfig {
        // The configuration never changes, so it reads fine through a
        // poisoned lock.
        C::config(&self.lock().unwrap_or_else(PoisonError::into_inner))
    }
    fn invoke(&mut self, op: ClientOp) -> Result<OpResult, ClientError> {
        // Poisoned: another holder panicked mid-operation and may have left
        // the client half-updated. Refuse rather than reuse it.
        let mut client = self.lock().map_err(|_| ClientError::Unavailable)?;
        C::invoke(&mut client, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(ClientOp::read_stripe(StripeId(0)).name(), "read-stripe");
        assert_eq!(ClientOp::scrub(StripeId(0)).name(), "scrub");
    }

    #[test]
    fn constructors_saturate_indices_too_wide_for_the_wire() {
        let huge = u32::MAX as usize + 7;
        assert_eq!(
            ClientOp::read_block(StripeId(1), huge),
            ClientOp::ReadBlock {
                stripe: StripeId(1),
                j: u32::MAX
            }
        );
        assert_eq!(
            ClientOp::read_blocks(StripeId(1), vec![0, huge]),
            ClientOp::ReadBlocks {
                stripe: StripeId(1),
                js: vec![0, u32::MAX]
            }
        );
    }
}
