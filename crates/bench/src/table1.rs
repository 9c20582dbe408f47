//! Table 1: per-operation cost measurement.
//!
//! The paper's Table 1 states, for every operation of the storage register
//! and for the LS97 baseline, five costs: latency (in one-way delays δ),
//! message count, disk reads, disk writes, and network bandwidth (in block
//! sizes B). This module *measures* each row on the deterministic
//! simulator with unit delay (δ = 1) and compares against the paper's
//! formulas.
//!
//! Scenario construction for the slow ("/S") rows:
//!
//! * **read/S** — a partial write is emulated by injecting a bare `Order`
//!   at a higher timestamp into one replica (exactly the state left by a
//!   coordinator that crashed between its two write phases); the next
//!   read's optimistic phase sees `ord-ts > max-ts` and runs recovery.
//! * **write/S** — `p_j` misses a complete stripe write behind a transient
//!   partition, so the next `write-block` to block j reads a stale `ts_j`
//!   from it; every current replica refuses the `Modify` round
//!   (`ts_j ≠ max-ts`) and the coordinator falls back to
//!   `slow-write-block` (`p_j` is partitioned away again during recovery,
//!   spending exactly the f = 1 fault budget). Message counts for this row
//!   run slightly below the paper's pessimistic `8n` because the
//!   partitioned replica cannot answer two of the four rounds.

use bytes::Bytes;
use fab_baseline::BaselineCluster;
use fab_core::{
    GcPolicy, OpCosts, OpResult, RegisterConfig, Request, SimCluster, StripeId, WriteStrategy,
};
use fab_simnet::SimConfig;
use fab_timestamp::{ProcessId, Timestamp};

/// The paper's symbolic cost formulas, instantiated for (m, n, B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperCosts {
    /// Latency in δ.
    pub latency: u64,
    /// Message count.
    pub messages: u64,
    /// Disk block reads.
    pub disk_reads: u64,
    /// Disk block writes.
    pub disk_writes: u64,
    /// Network bandwidth in units of B.
    pub bandwidth_blocks: u64,
}

/// One measured row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Operation label, matching the paper's column heading.
    pub label: String,
    /// The paper's formula values.
    pub paper: PaperCosts,
    /// What the simulator measured.
    pub measured: OpCosts,
    /// Block size used (for bandwidth normalization).
    pub block_size: usize,
}

impl Table1Row {
    /// Measured bandwidth in block units (rounded down).
    pub fn measured_bandwidth_blocks(&self) -> u64 {
        self.measured.bytes / self.block_size as u64
    }
}

fn cfg(m: usize, n: usize, block_size: usize) -> RegisterConfig {
    // GC is disabled so its fire-and-forget messages do not pollute the
    // per-operation message counts (the paper's table has no GC either).
    RegisterConfig::new(m, n, block_size)
        .unwrap()
        .with_gc(GcPolicy::Disabled)
}

fn stripe_data(m: usize, block_size: usize, seed: u8) -> Vec<Bytes> {
    (0..m)
        .map(|i| Bytes::from(vec![seed.wrapping_add(i as u8); block_size]))
        .collect()
}

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i as u32)
}

/// Injects the residue of a coordinator that crashed between its `Order`
/// and `Write` phases: replica `p_0` receives a bare `Order` at a
/// timestamp just above anything in the system, then the clock advances
/// past it (as real time would after a crash) so the next operation's
/// `newTS` orders after the partial write. `p_0` is chosen because its
/// reply is always within the first m-quorum the reading coordinator
/// collects, guaranteeing the optimistic phase observes the partial write.
fn inject_partial_order(cluster: &mut SimCluster, stripe: StripeId) {
    let victim = pid(0);
    let at = cluster.sim().now();
    let ts = Timestamp::from_parts(at + 5, ProcessId::new(99));
    cluster
        .sim_mut()
        .schedule_call(at, victim, move |brick, _ctx| {
            let reply = brick.replica(stripe).handle(&Request::Order { ts });
            debug_assert!(reply.is_some());
        });
    cluster.sim_mut().run_until(at + 50);
}

/// Measures all seven rows of Table 1 for our algorithm at (m, n) with the
/// given block size and write strategy.
pub fn measure_ours(
    m: usize,
    n: usize,
    block_size: usize,
    strategy: WriteStrategy,
) -> Vec<Table1Row> {
    let k = (n - m) as u64;
    let nn = n as u64;
    let mm = m as u64;
    let s = StripeId(0);
    let mut rows = Vec::new();

    // --- stripe read/F ------------------------------------------------
    {
        let mut c = SimCluster::new(cfg(m, n, block_size), SimConfig::ideal(11));
        let data = stripe_data(m, block_size, 1);
        c.write_stripe(pid(0), s, data);
        let (done, costs) = c.measure_op(pid(1), move |b, ctx| {
            b.read_stripe(ctx, s).unwrap();
        });
        assert!(
            done.result.is_ok() && !done.recovered,
            "must take the fast path"
        );
        rows.push(Table1Row {
            label: "stripe read/F".into(),
            paper: PaperCosts {
                latency: 2,
                messages: 2 * nn,
                disk_reads: mm,
                disk_writes: 0,
                bandwidth_blocks: mm,
            },
            measured: costs,
            block_size,
        });
    }

    // --- stripe write ---------------------------------------------------
    {
        let mut c = SimCluster::new(cfg(m, n, block_size), SimConfig::ideal(12));
        c.write_stripe(pid(0), s, stripe_data(m, block_size, 1));
        let data = stripe_data(m, block_size, 2);
        let (done, costs) = c.measure_op(pid(1), move |b, ctx| {
            b.write_stripe(ctx, s, data).unwrap();
        });
        assert_eq!(done.result, OpResult::Written);
        rows.push(Table1Row {
            label: "stripe write".into(),
            paper: PaperCosts {
                latency: 4,
                messages: 4 * nn,
                disk_reads: 0,
                disk_writes: nn,
                bandwidth_blocks: nn,
            },
            measured: costs,
            block_size,
        });
    }

    // --- stripe read/S ---------------------------------------------------
    {
        let mut c = SimCluster::new(cfg(m, n, block_size), SimConfig::ideal(13));
        c.write_stripe(pid(0), s, stripe_data(m, block_size, 1));
        inject_partial_order(&mut c, s);
        let (done, costs) = c.measure_op(pid(1), move |b, ctx| {
            b.read_stripe(ctx, s).unwrap();
        });
        assert!(done.result.is_ok(), "recovery must succeed: {done:?}");
        assert!(done.recovered, "must take the slow path");
        rows.push(Table1Row {
            label: "stripe read/S".into(),
            paper: PaperCosts {
                latency: 6,
                messages: 6 * nn,
                disk_reads: nn + mm,
                disk_writes: nn,
                bandwidth_blocks: 2 * nn + mm,
            },
            measured: costs,
            block_size,
        });
    }

    // --- block read/F ---------------------------------------------------
    {
        let mut c = SimCluster::new(cfg(m, n, block_size), SimConfig::ideal(14));
        c.write_stripe(pid(0), s, stripe_data(m, block_size, 1));
        let (done, costs) = c.measure_op(pid(1), move |b, ctx| {
            b.read_block(ctx, s, 0).unwrap();
        });
        assert!(done.result.is_ok() && !done.recovered);
        rows.push(Table1Row {
            label: "block read/F".into(),
            paper: PaperCosts {
                latency: 2,
                messages: 2 * nn,
                disk_reads: 1,
                disk_writes: 0,
                bandwidth_blocks: 1,
            },
            measured: costs,
            block_size,
        });
    }

    // --- block write/F ---------------------------------------------------
    {
        let mut c = SimCluster::new(
            cfg(m, n, block_size).with_write_strategy(strategy),
            SimConfig::ideal(15),
        );
        c.write_stripe(pid(0), s, stripe_data(m, block_size, 1));
        let block = Bytes::from(vec![0xE1; block_size]);
        let (done, costs) = c.measure_op(pid(1), move |b, ctx| {
            b.write_block(ctx, s, 0, block).unwrap();
        });
        assert_eq!(done.result, OpResult::Written);
        assert!(!done.recovered, "must take the fast write path");
        rows.push(Table1Row {
            label: "block write/F".into(),
            paper: PaperCosts {
                latency: 4,
                messages: 4 * nn,
                disk_reads: k + 1,
                disk_writes: k + 1,
                bandwidth_blocks: 2 * nn + 1,
            },
            measured: costs,
            block_size,
        });
    }

    // --- block read/S ---------------------------------------------------
    {
        let mut c = SimCluster::new(cfg(m, n, block_size), SimConfig::ideal(16));
        c.write_stripe(pid(0), s, stripe_data(m, block_size, 1));
        inject_partial_order(&mut c, s);
        let (done, costs) = c.measure_op(pid(1), move |b, ctx| {
            b.read_block(ctx, s, 0).unwrap();
        });
        assert!(done.result.is_ok() && done.recovered);
        rows.push(Table1Row {
            label: "block read/S".into(),
            paper: PaperCosts {
                latency: 6,
                messages: 6 * nn,
                disk_reads: nn + 1,
                disk_writes: nn,
                bandwidth_blocks: 2 * nn + 1,
            },
            measured: costs,
            block_size,
        });
    }

    // --- block write/S ---------------------------------------------------
    {
        // The slow block write needs a Modify round that fails uniformly.
        // Scenario: p_0 misses one complete stripe write (transient
        // partition), so a later write-block to block 0 reads a stale
        // ts_j from p_0; every current replica then refuses the Modify
        // (`ts_j != max-ts`), p_0 alone would apply it — and p_0 is
        // partitioned away again for the recovery rounds, exactly the
        // f = 1 fault budget. The coordinator falls back to
        // slow-write-block: Order&Read + Write over the current replicas.
        let mut c = SimCluster::new(
            cfg(m, n, block_size).with_write_strategy(strategy),
            SimConfig::ideal(17),
        );
        c.write_stripe(pid(1), s, stripe_data(m, block_size, 1));
        let others: Vec<ProcessId> = (1..n).map(pid).collect();
        // p_0 misses v2.
        let t = c.sim().now();
        c.sim_mut().schedule_partition(t, &[&[pid(0)], &others]);
        c.sim_mut().run_until(t + 1);
        c.write_stripe(pid(1), s, stripe_data(m, block_size, 2));
        let t = c.sim().now();
        c.sim_mut().schedule_heal(t);
        c.sim_mut().run_until(t + 1);
        // The measured op starts at T = now: its Modify round completes at
        // T+4; partition p_0 away again at T+4 so its lone "applied"
        // state cannot poison the recovery quorum (it is the f-th fault).
        let t0 = c.sim().now();
        c.sim_mut()
            .schedule_partition(t0 + 4, &[&[pid(0)], &others]);
        let block = Bytes::from(vec![0xB2; block_size]);
        let (done, costs) = c.measure_op(pid(1), move |b, ctx| {
            b.write_block(ctx, s, 0, block).unwrap();
        });
        assert_eq!(done.result, OpResult::Written);
        assert!(done.recovered, "must fall back to slow-write-block");
        let t = c.sim().now();
        c.sim_mut().schedule_heal(t);
        c.sim_mut().run_until(t + 1);
        rows.push(Table1Row {
            label: "block write/S".into(),
            paper: PaperCosts {
                latency: 8,
                messages: 8 * nn,
                disk_reads: k + nn + 1,
                disk_writes: k + nn + 1,
                bandwidth_blocks: 4 * nn + 1,
            },
            measured: costs,
            block_size,
        });
    }

    rows
}

/// Measures the two LS97 baseline rows on `n` replicas.
pub fn measure_ls97(n: usize, block_size: usize) -> Vec<Table1Row> {
    let nn = n as u64;
    let mut rows = Vec::new();
    let mut c = BaselineCluster::new(n, SimConfig::ideal(21));
    c.write(pid(0), Bytes::from(vec![1u8; block_size]));

    let (_, costs) = c.measure(pid(1), |node, ctx| {
        node.read(ctx);
    });
    rows.push(Table1Row {
        label: "LS97 read".into(),
        paper: PaperCosts {
            latency: 4,
            messages: 4 * nn,
            disk_reads: nn,
            disk_writes: nn,
            bandwidth_blocks: 2 * nn,
        },
        measured: OpCosts {
            latency: costs.latency,
            messages: costs.messages,
            bytes: costs.bytes,
            disk_reads: costs.disk_reads,
            disk_writes: costs.disk_writes,
        },
        block_size,
    });

    let block = Bytes::from(vec![2u8; block_size]);
    let (_, costs) = c.measure(pid(2), move |node, ctx| {
        node.write(ctx, block);
    });
    rows.push(Table1Row {
        label: "LS97 write".into(),
        paper: PaperCosts {
            latency: 4,
            messages: 4 * nn,
            disk_reads: 0,
            disk_writes: nn,
            bandwidth_blocks: nn,
        },
        measured: OpCosts {
            latency: costs.latency,
            messages: costs.messages,
            bytes: costs.bytes,
            disk_reads: costs.disk_reads,
            disk_writes: costs.disk_writes,
        },
        block_size,
    });
    rows
}

/// Renders rows as an aligned text table (paper value / measured value).
pub fn render(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>12} {:>12} {:>12} {:>12} {:>14}\n",
        "operation", "latency(δ)", "#messages", "#disk reads", "#disk writes", "net b/w (B)"
    ));
    out.push_str(&"-".repeat(84));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>7}/{:<4} {:>7}/{:<4} {:>7}/{:<4} {:>7}/{:<4} {:>8}/{:<5}\n",
            r.label,
            r.paper.latency,
            r.measured.latency,
            r.paper.messages,
            r.measured.messages,
            r.paper.disk_reads,
            r.measured.disk_reads,
            r.paper.disk_writes,
            r.measured.disk_writes,
            r.paper.bandwidth_blocks,
            r.measured_bandwidth_blocks(),
        ));
    }
    out.push_str("(each cell: paper formula / measured on the simulator)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline Table 1 check: every failure-free row measured on the
    /// 5-of-8 system matches the paper's latency and message formulas
    /// exactly, and the fast read beats LS97 by one round trip.
    #[test]
    fn table1_exact_for_5_of_8() {
        let rows = measure_ours(5, 8, 256, WriteStrategy::Paper);
        for r in &rows {
            assert_eq!(
                r.measured.latency, r.paper.latency,
                "{}: latency mismatch",
                r.label
            );
            if r.label == "block write/S" {
                // The scenario's partitioned replica cannot answer two
                // rounds; the paper's 8n is the pessimistic all-answer
                // count.
                assert!(
                    r.measured.messages <= r.paper.messages
                        && r.measured.messages >= r.paper.messages - 2,
                    "{}: {} vs paper {}",
                    r.label,
                    r.measured.messages,
                    r.paper.messages
                );
            } else {
                assert_eq!(
                    r.measured.messages, r.paper.messages,
                    "{}: message-count mismatch",
                    r.label
                );
            }
        }
        // Disk I/O matches exactly on the failure-free rows.
        for label in [
            "stripe read/F",
            "stripe write",
            "block read/F",
            "block write/F",
        ] {
            let r = rows.iter().find(|r| r.label == label).unwrap();
            assert_eq!(r.measured.disk_reads, r.paper.disk_reads, "{label} reads");
            assert_eq!(
                r.measured.disk_writes, r.paper.disk_writes,
                "{label} writes"
            );
        }
        let ls97 = measure_ls97(8, 256);
        let our_read = rows.iter().find(|r| r.label == "stripe read/F").unwrap();
        let their_read = &ls97[0];
        assert_eq!(their_read.measured.latency, 4);
        assert_eq!(
            our_read.measured.latency + 2,
            their_read.measured.latency,
            "our fast read is one round (2δ) cheaper than LS97's"
        );
        assert!(our_read.measured.disk_reads < their_read.measured.disk_reads);
    }

    #[test]
    fn table1_holds_for_other_configs() {
        for (m, n) in [(2, 4), (3, 5), (5, 7)] {
            let rows = measure_ours(m, n, 128, WriteStrategy::Paper);
            for r in &rows {
                assert_eq!(r.measured.latency, r.paper.latency, "({m},{n}) {}", r.label);
                if r.label == "block write/S" {
                    assert!(
                        r.measured.messages <= r.paper.messages
                            && r.measured.messages + 2 >= r.paper.messages,
                        "({m},{n}) {}: {} vs {}",
                        r.label,
                        r.measured.messages,
                        r.paper.messages
                    );
                } else {
                    assert_eq!(
                        r.measured.messages, r.paper.messages,
                        "({m},{n}) {}",
                        r.label
                    );
                }
            }
        }
    }

    #[test]
    fn delta_strategy_cuts_block_write_bandwidth() {
        let paper = measure_ours(5, 8, 1024, WriteStrategy::Paper);
        let delta = measure_ours(5, 8, 1024, WriteStrategy::Delta);
        let f = |rows: &[Table1Row]| {
            rows.iter()
                .find(|r| r.label == "block write/F")
                .unwrap()
                .measured
                .bytes
        };
        assert!(
            f(&delta) * 2 < f(&paper),
            "delta {} vs paper {}",
            f(&delta),
            f(&paper)
        );
    }

    #[test]
    fn render_contains_all_rows() {
        let rows = measure_ours(2, 4, 64, WriteStrategy::Paper);
        let txt = render(&rows);
        for label in [
            "stripe read/F",
            "stripe write",
            "stripe read/S",
            "block read/F",
            "block write/F",
            "block read/S",
            "block write/S",
        ] {
            assert!(txt.contains(label), "missing {label} in:\n{txt}");
        }
    }
}
