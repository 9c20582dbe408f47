//! # fab — decentralized erasure-coded virtual disks
//!
//! A from-scratch Rust implementation of *"A Decentralized Algorithm for
//! Erasure-Coded Virtual Disks"* (Frølund, Merchant, Saito, Spence,
//! Veitch; DSN 2004): strictly linearizable read/write access to
//! erasure-coded data, coordinated by any brick, over an asynchronous
//! network with crash-recovery faults and no failure detection — built on
//! a quorum system where any two quorums intersect in m processes.
//!
//! This umbrella crate re-exports the workspace's layers:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`erasure`] | `fab-erasure` | GF(2⁸), Reed–Solomon, parity codes, `encode`/`decode`/`modify` |
//! | [`timestamp`] | `fab-timestamp` | process ids, `newTS` timestamps |
//! | [`quorum`] | `fab-quorum` | m-quorum systems (`n ≥ 2f + m`) |
//! | [`simnet`] | `fab-simnet` | deterministic fair-loss crash-recovery simulator |
//! | [`register`] | `fab-core` | the storage-register protocol (coordinator + replica) and its client interface (`ClientOp`, `RegisterClient`) |
//! | [`baseline`] | `fab-baseline` | LS97 replicated register (Table 1 baseline) |
//! | [`runtime`] | `fab-runtime` | threaded brick cluster |
//! | [`volume`] | `fab-volume` | byte-addressable logical volumes |
//! | [`reliability`] | `fab-reliability` | MTTDL / storage-overhead models (Figs. 2–3) |
//! | [`checker`] | `fab-checker` | strict-linearizability history checker |
//! | [`store`] | `fab-store` | durable append-only brick logs (WAL + compaction) |
//! | [`wire`] | `fab-wire` | versioned, checksummed binary wire format |
//! | [`net`] | `fab-net` | real TCP transport: brick nodes (`fabd`), network client (`fab-cli`) |
//!
//! # Quick start
//!
//! ```
//! use fab::prelude::*;
//! use bytes::Bytes;
//!
//! // A 5-of-8 erasure-coded virtual disk on a simulated 8-brick cluster.
//! let cfg = RegisterConfig::new(5, 8, 1024)?;
//! let cluster = SimCluster::new(cfg, SimConfig::ideal(42));
//! let geometry = VolumeGeometry::new(64, 5, 1024, Layout::Interleaved);
//! let mut disk = Volume::new(SimClient::new(cluster), geometry);
//!
//! disk.write(10_000, b"any brick can coordinate this write")?;
//! assert_eq!(disk.read(10_000, 35)?, b"any brick can coordinate this write");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fab_baseline as baseline;
pub use fab_checker as checker;
pub use fab_core as register;
pub use fab_erasure as erasure;
pub use fab_net as net;
pub use fab_quorum as quorum;
pub use fab_reliability as reliability;
pub use fab_runtime as runtime;
pub use fab_simnet as simnet;
pub use fab_store as store;
pub use fab_timestamp as timestamp;
pub use fab_volume as volume;
pub use fab_wire as wire;

/// The commonly-used types in one import.
pub mod prelude {
    pub use fab_core::{
        AbortReason, BlockValue, ClientError, ClientOp, OpResult, RegisterClient, RegisterConfig,
        SimCluster, StripeId, StripeValue, WriteStrategy,
    };
    pub use fab_erasure::{CodeParams, Codec, Share};
    pub use fab_net::{BrickNode, NetClient, NodeConfig};
    pub use fab_quorum::MQuorumSystem;
    pub use fab_reliability::{BrickParams, InternalLayout, Scheme, SystemDesign};
    pub use fab_runtime::{RuntimeClient, RuntimeCluster};
    pub use fab_simnet::SimConfig;
    pub use fab_timestamp::{ProcessId, Timestamp};
    pub use fab_volume::{Layout, SimClient, Volume, VolumeGeometry};
}
