//! Offline stand-in for `crossbeam`: the `channel` module only.

pub mod channel;
