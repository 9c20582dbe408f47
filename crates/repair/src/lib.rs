//! Background rebuild for FAB clusters: when a brick's disk is
//! replaced, every stripe it hosted runs degraded until the §3 scrub
//! operation reconstructs it. This crate turns the single-stripe
//! `scrub` primitive into an operable subsystem:
//!
//! * [`planner`] — which stripes need repair ([`SegmentMap`] placement,
//!   [`RepairPlan`] enumeration, full-volume scrub mode);
//! * [`driver`] — the sans-io [`RepairDriver`] state machine: bounded
//!   in-flight scrubs, token-bucket throttles (stripes/sec, bytes/sec),
//!   capped-exponential retry of aborted scrubs, degraded-stripe
//!   prioritization;
//! * [`cursor`] — the durable [`RepairCursor`] watermark, so a crashed
//!   driver resumes instead of rescanning;
//! * [`health`] — the shared [`HealthMap`] fed by recovery-path reads;
//! * [`stats`] — lock-free [`RepairCounters`] and [`RepairStats`]
//!   snapshots for `repair-status` and the bench harness;
//! * [`inproc`] — blocking runners over any
//!   [`RegisterClient`](fab_core::RegisterClient): the same driver
//!   repairs a simulated cluster and a TCP cluster, and a client that
//!   cannot reach the cluster is a retried attempt, never a dead worker.
//!
//! Everything outside [`inproc`] is deterministic (no clocks, no
//! threads, no ambient randomness): torture campaigns drive the state
//! machine on simulated time and stay bit-identical.

// Rules L1 (no-panic) and L2 (determinism), DESIGN.md §6; `inproc` is the
// threaded harness and opts out of L2 below.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod cursor;
pub mod driver;
pub mod health;
#[allow(clippy::disallowed_types, clippy::disallowed_methods)]
pub mod inproc;
pub mod planner;
pub mod stats;

pub use cursor::RepairCursor;
pub use driver::{Action, DriverConfig, RepairDriver, RepairOutcome};
pub use health::HealthMap;
pub use inproc::{run_with_client, InProcRepair, CHECKPOINT_EVERY};
pub use planner::{plan_brick_rebuild, plan_full_scrub, PlanError, RepairPlan, SegmentMap};
pub use stats::{RepairCounters, RepairStats};
