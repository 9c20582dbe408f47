//! Strictly linearizable erasure-coded storage registers over m-quorums —
//! the core algorithm of *"A Decentralized Algorithm for Erasure-Coded
//! Virtual Disks"* (Frølund, Merchant, Saito, Spence, Veitch; DSN 2004).
//!
//! A set of n storage bricks collectively emulates, per stripe of data, a
//! **storage register**: a read/write register that is *strictly
//! linearizable* — operations appear to execute atomically between
//! invocation and response, and a write whose coordinator crashes either
//! takes effect before the crash or not at all (no delayed mutations),
//! which is the property that makes the register safe to put under a
//! virtual disk. The register tolerates `f = ⌊(n−m)/2⌋` crash-recovery
//! faulty bricks with no failure detection at all: every operation simply
//! runs a vote over an m-quorum (any two quorums intersect in ≥ m bricks,
//! enough to decode m-of-n erasure-coded data).
//!
//! The crate is layered:
//!
//! * [`messages`] — the wire protocol of Algorithms 2–3,
//! * [`log`] / [`value`] — the persistent per-brick version log,
//! * [`replica`] — the brick-side message handlers,
//! * [`coordinator`] — the operation state machines of Algorithms 1 and 3
//!   (reads with a one-round fast path, two-phase writes, recovery that
//!   rolls partial writes forward or back, §5.1 garbage collection, §5.2
//!   write optimizations),
//! * [`client`] — the register's client interface: the operation
//!   vocabulary ([`ClientOp`]), typed refusals ([`ClientError`]) and the
//!   one-method [`RegisterClient`] every substrate's client implements,
//! * [`effects`] — the sans-io driver interface,
//! * [`error`] — typed invariant-violation reporting (protocol code never
//!   panics; see `cargo xtask analyze`),
//! * [`brick`] — a deterministic-simulation driver ([`SimCluster`]) used
//!   by the test suite and benchmarks.
//!
//! # Quick start
//!
//! ```
//! use fab_core::{OpResult, RegisterConfig, SimCluster, StripeId, StripeValue};
//! use fab_simnet::SimConfig;
//! use fab_timestamp::ProcessId;
//! use bytes::Bytes;
//!
//! // 5-of-8 erasure coding, 1 KiB blocks, simulated network.
//! let cfg = RegisterConfig::new(5, 8, 1024)?;
//! let mut cluster = SimCluster::new(cfg, SimConfig::ideal(1));
//!
//! let stripe: Vec<Bytes> = (0..5).map(|i| Bytes::from(vec![i as u8; 1024])).collect();
//! let w = cluster.write_stripe(ProcessId::new(0), StripeId(0), stripe.clone());
//! assert_eq!(w, OpResult::Written);
//!
//! // Any brick can coordinate the read.
//! let r = cluster.read_stripe(ProcessId::new(7), StripeId(0));
//! assert_eq!(r, OpResult::Stripe(StripeValue::Data(stripe)));
//! # Ok::<(), fab_core::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]
// Rules L1 (no-panic) and L2 (determinism), DESIGN.md §6.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod brick;
pub mod client;
pub mod config;
pub mod coordinator;
pub mod effects;
pub mod error;
pub mod log;
pub mod messages;
pub mod obs;
pub mod replica;
pub mod trace;
pub mod value;

pub use brick::{Brick, OpCosts, SimCluster};
pub use client::{ClientError, ClientOp, RegisterClient};
pub use config::{ConfigError, GcPolicy, RegisterConfig, WriteStrategy};
pub use coordinator::{AbortReason, Completion, Coordinator, InvokeError, OpId, OpResult};
pub use effects::Effects;
pub use error::ProtocolError;
pub use log::Log;
pub use messages::{
    BlockTarget, BlockUpdate, Envelope, ModifyPayload, Payload, Reply, Request, StripeId,
};
pub use obs::OpMetrics;
pub use replica::{DiskMetrics, PersistEvent, Replica};
pub use trace::{OpTrace, TraceEvent};
pub use value::{BlockValue, StripeValue};
