//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation, plus the ablations called out in DESIGN.md.
//!
//! * [`table1`] — per-operation cost measurement (latency, messages, disk
//!   I/O, bandwidth) for our algorithm and the LS97 baseline.
//! * [`workload`] — synthetic request streams (read fraction and
//!   conflict skew are the inputs) for abort-rate and throughput
//!   experiments.
//!
//! Binaries (run with `cargo run -p fab-bench --bin <name>`):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1_costs` | Table 1 |
//! | `fig2_mttdl` | Figure 2 |
//! | `fig3_overhead` | Figure 3 |
//! | `ablation_write_strategies` | §5.2 write optimizations |
//! | `ablation_fast_read` | §4.1.2 optimistic-read contribution |
//! | `abort_rates` | §3 abort-rate discussion |
//! | `throughput_scaling` | §1.1 no-central-bottleneck claim |
//! | `latency_under_faults` | §1 graceful-degradation claim |
//! | `layout_conflicts` | §3 interleaved-layout advice |
//! | `gc_effectiveness` | §5.1 log garbage collection |
//! | `sensitivity` | reliability-model parameter elasticities |
//!
//! The `benches/` targets (`cargo bench -p fab-bench`, timed by [`timer`])
//! cover erasure-code throughput, protocol operation latency,
//! reliability-model evaluation, and volume I/O.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod table1;
pub mod timer;
pub mod workload;

pub use table1::{measure_ls97, measure_ours, render, PaperCosts, Table1Row};
pub use workload::{drive_concurrent, generate, run_workload, Op, WorkloadSpec, WorkloadStats};
