//! Offline stand-in for `serde`. See `benchmark/README.md`, "Stand-in
//! crates": the registry is unreachable where the benchmark is built, and
//! no FAB crate on the benchmark's path serializes through serde.

pub use serde_derive::{Deserialize, Serialize};

/// Marker only; the no-op derive does not implement it.
pub trait Serialize {}

/// Marker only; the no-op derive does not implement it.
pub trait Deserialize<'de>: Sized {}
