//! Deterministic fault-campaign torture suite for the FAB protocol.
//!
//! Every campaign starts from a single `u64` seed. [`plan::generate`]
//! expands the seed into a [`plan::CampaignPlan`]: a cluster shape, a
//! workload of reads/writes/scrubs across stripes and coordinators, and
//! a fault schedule (crashes, recoveries, partitions, heals) over a
//! lossy, reordering network model. [`engine::run_plan`] executes the
//! plan on `fab-simnet` against the unchanged sans-io protocol state
//! machines and judges the observed history with `fab-checker`'s
//! strict-linearizability checker plus online invariant probes
//! ([`probes`]): ord-ts/max-ts monotonicity across crashes, the read
//! and order guards, log-before-send, and quorum-intersection
//! accounting of committed writes.
//!
//! Failing seeds are auto-minimized by greedy schedule shrinking
//! ([`shrink`]) and written as replayable `.seed` artifacts (the
//! [`plan::CampaignPlan::to_text`] format). The same plans cross-check
//! against a real `fab-net` loopback TCP cluster ([`differential`]).
//! A mutation smoke-mode (`tools/nightly.sh` phase 3)
//! flips known-critical protocol lines behind `#[cfg(fab_mutation)]`
//! gates in `fab-core` and asserts the suite catches each one.

pub mod differential;
pub mod engine;
pub mod plan;
pub mod probes;
pub mod shrink;
pub mod value;

pub use differential::{run_differential, DiffReport, DiffSetupError};
pub use engine::{run_plan, RunReport, RunStats};
pub use plan::{generate, CampaignPlan, FaultEvent, FaultKind, OpKind, PlannedOp};
pub use shrink::{shrink, shrink_with, ShrinkStats};
