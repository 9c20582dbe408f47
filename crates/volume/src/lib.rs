//! FAB logical volumes: byte-addressable virtual disks over erasure-coded
//! storage registers (the access layer of Figure 1 in Frølund et al.,
//! DSN 2004).
//!
//! Each volume is an array of fixed-size blocks spread over many
//! independent storage registers (one per stripe, `fab-core`). This crate
//! supplies:
//!
//! * [`VolumeGeometry`] / [`Layout`] — the logical-block → (stripe, index)
//!   mapping, including the §3 interleaved layout that maps consecutive
//!   blocks to different stripes to make conflicts (and therefore aborts)
//!   unlikely,
//! * [`SimClient`] — the deterministic simulator behind
//!   [`RegisterClient`], the access interface every volume is generic
//!   over. The trait lives in `fab-core` (re-exported here) beside the
//!   operation vocabulary; `fab_runtime::RuntimeClient` and
//!   `fab_net::NetClient` implement it too, so this crate depends on
//!   neither,
//! * [`Volume`] — block- and byte-range reads/writes with zero-fill
//!   semantics for unwritten space, read-modify-write for sub-block
//!   fragments, and bounded retry of aborted (conflicting) operations.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod client;
pub mod layout;
pub mod manager;
pub mod volume;

pub use client::SimClient;
pub use fab_core::RegisterClient;
pub use layout::{Layout, VolumeGeometry};
pub use manager::{ManagerError, VolumeManager};
pub use volume::{Volume, VolumeError};
