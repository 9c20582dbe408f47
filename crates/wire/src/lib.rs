//! `fab-wire` — the versioned binary wire format of the FAB brick network.
//!
//! The protocol's state machines (`fab-core`) are sans-io: they speak in
//! [`Envelope`](fab_core::Envelope) values and leave transport to the
//! driver. The simulator delivers those values as Rust objects; the
//! threaded runtime moves them over channels. This crate is the third
//! substrate's codec: a hand-rolled, dependency-free binary encoding that
//! lets the *same* envelopes cross real sockets between processes and
//! machines (`fab-net`).
//!
//! Design rules, in order:
//!
//! 1. **All input is untrusted.** Sockets deliver whatever the other end —
//!    or the network — produced. Every decode path returns a typed
//!    [`WireError`]; none panics; no allocation is sized from a declared
//!    length until that length has been validated against the bytes
//!    actually present ([`frame::MAX_BODY_LEN`] bounds the frame itself).
//! 2. **Versioned framing.** Every message travels in a fixed 16-byte
//!    frame: magic, protocol version, kind, body length, CRC32 (reusing
//!    `fab-store`'s checksum). A reader can reject a non-FAB peer, a
//!    version skew, or a corrupted body before interpreting a single body
//!    byte.
//! 3. **No new dependencies.** Encode/decode is hand-rolled over byte
//!    slices (little-endian, length-prefixed), so the crate builds in
//!    hermetic images and the format is fully specified by DESIGN.md §7.
//!
//! # Quick start
//!
//! ```
//! use fab_wire::{decode_message, encode_message, Message};
//! use fab_core::{Envelope, Payload, Request, StripeId};
//! use fab_timestamp::{ProcessId, Timestamp};
//!
//! let msg = Message::Peer {
//!     from: ProcessId::new(2),
//!     env: Envelope {
//!         stripe: StripeId(7),
//!         round: 1,
//!         kind: Payload::Request(Request::Order {
//!             ts: Timestamp::from_parts(9, ProcessId::new(2)),
//!         }),
//!     },
//! };
//! let frame = encode_message(&msg);
//! let (back, used) = decode_message(&frame)?;
//! assert_eq!(back, msg);
//! assert_eq!(used, frame.len());
//! # Ok::<(), fab_wire::WireError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]
// Rule L1 (no-panic), DESIGN.md §6: every byte decoded here came off a socket.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod codec;
pub mod error;
pub mod frame;

pub use codec::{
    decode_admin_reply_body, decode_admin_request_body, decode_body, decode_client_reply_body,
    decode_client_request_body, decode_message, decode_peer_body, encode_admin_reply_into,
    encode_admin_request_into, encode_client_reply_into, encode_client_request_into,
    encode_message, encode_message_into, encode_peer_message_into, AdminOp, AdminResponse,
    Message, RepairProgress, StatsEntry, StatsHistogramEntry, StatsReport,
};
pub use error::WireError;
/// The register's client vocabulary lives in `fab-core`; this crate owns
/// its byte encoding and re-exports the types for socket-side callers.
pub use fab_core::{ClientError, ClientOp};
pub use frame::{
    encode_frame_into, split_frame, FrameBuilder, FrameHeader, FrameKind, HEADER_LEN, MAGIC,
    MAX_BODY_LEN, VERSION,
};
