//! Deterministic discrete-event simulation of the paper's system model
//! (§2): asynchronous message passing over fair-loss channels between
//! crash-recovery processes.
//!
//! The simulator is the test and measurement substrate for the storage
//! register protocol:
//!
//! * **Asynchrony** — per-message random delays in a configurable interval
//!   reorder messages arbitrarily; there is no bound the protocol may rely
//!   on.
//! * **Fair loss** — each transmission is dropped independently with a
//!   configured probability, so a retransmitting sender eventually gets
//!   through (the assumption behind the paper's non-blocking `quorum()`
//!   primitive).
//! * **Crash-recovery** — processes crash (losing volatile state, keeping
//!   whatever the actor models as persistent) and later recover, matching
//!   the paper's fault model where *correct* processes eventually stop
//!   crashing.
//! * **Determinism** — one seeded RNG drives all randomness and events are
//!   totally ordered, so every run replays exactly; `fingerprint()`
//!   digests the event history for determinism checks.
//!
//! See [`Simulation`] for the event loop, [`Actor`] for the process
//! interface, and [`SimConfig`] for the network model.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]
// Rules L1 (no-panic) and L2 (determinism), DESIGN.md §6.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod config;
pub mod fault;
pub mod metrics;
pub mod rng;
pub mod sim;

pub use config::SimConfig;
pub use fault::{Backoff, FaultPlan};
pub use metrics::{NetMetrics, WireSize};
pub use rng::Rng64;
pub use sim::{Actor, Context, SimTime, Simulation, TimerId};
