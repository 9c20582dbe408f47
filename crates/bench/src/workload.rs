//! Synthetic workload generators.
//!
//! The paper's §3 justifies abort-on-conflict by appeal to real-world I/O
//! traces ("we have found no concurrent write-write or read-write accesses
//! to the same block of data"). Those traces are not available; instead
//! these generators produce controlled synthetic workloads so the
//! abort-rate experiments can *vary* the quantity the traces held at zero
//! — conflict probability — and measure its effect.

use bytes::Bytes;
use fab_core::{AbortReason, ClientOp, OpResult, RegisterConfig, SimCluster, StripeId};
use fab_simnet::{Rng64, SimConfig};
use fab_timestamp::ProcessId;

/// Mix and locality of a generated request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Fraction of operations that are reads (a web workload is ~0.95+,
    /// the paper's motivating case for erasure coding).
    pub read_fraction: f64,
    /// Number of distinct stripes touched.
    pub stripes: u64,
    /// Zipf-like skew: 0.0 = uniform, higher concentrates on few stripes
    /// (more conflicts).
    pub skew: f64,
    /// Operations to generate.
    pub operations: usize,
}

impl WorkloadSpec {
    /// A read-mostly web-server-like workload (§1.2: "read-intensive
    /// workloads (such as Web server workloads)").
    pub fn web(stripes: u64, operations: usize) -> Self {
        WorkloadSpec {
            read_fraction: 0.95,
            stripes,
            skew: 0.8,
            operations,
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Read a whole stripe.
    ReadStripe(StripeId),
    /// Write a whole stripe (payload seed).
    WriteStripe(StripeId, u8),
    /// Read one block.
    ReadBlock(StripeId, usize),
    /// Write one block (payload seed).
    WriteBlock(StripeId, usize, u8),
}

impl Op {
    /// The stripe this operation touches.
    pub fn stripe(&self) -> StripeId {
        match self {
            Op::ReadStripe(s) | Op::WriteStripe(s, _) => *s,
            Op::ReadBlock(s, _) | Op::WriteBlock(s, _, _) => *s,
        }
    }

    /// Whether this is a write.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::WriteStripe(..) | Op::WriteBlock(..))
    }

    /// The register operation to invoke, payloads expanded from their
    /// seeds for an `m`-block stripe of `block_size`-byte blocks.
    pub fn client_op(&self, m: usize, block_size: usize) -> ClientOp {
        match *self {
            Op::ReadStripe(s) => ClientOp::read_stripe(s),
            Op::WriteStripe(s, seed) => {
                let block = |i| Bytes::from(vec![seed.wrapping_add(i as u8); block_size]);
                ClientOp::write_stripe(s, (0..m).map(block).collect())
            }
            Op::ReadBlock(s, j) => ClientOp::read_block(s, j),
            Op::WriteBlock(s, j, seed) => {
                ClientOp::write_block(s, j, Bytes::from(vec![seed; block_size]))
            }
        }
    }
}

/// Generates a request stream from a spec, deterministically from `seed`.
pub fn generate(spec: &WorkloadSpec, m: usize, seed: u64) -> Vec<Op> {
    let mut rng = Rng64::new(seed);
    let mut ops = Vec::with_capacity(spec.operations);
    for i in 0..spec.operations {
        let stripe = StripeId(pick_skewed(&mut rng, spec.stripes, spec.skew));
        let read = rng.unit() < spec.read_fraction;
        let whole = rng.unit() < 0.25;
        let op = match (read, whole) {
            (true, true) => Op::ReadStripe(stripe),
            (true, false) => Op::ReadBlock(stripe, rng.below(m as u64) as usize),
            (false, true) => Op::WriteStripe(stripe, i as u8),
            (false, false) => Op::WriteBlock(stripe, rng.below(m as u64) as usize, i as u8),
        };
        ops.push(op);
    }
    ops
}

/// Skewed stripe pick: with probability `skew`, land in the hot 10% of
/// stripes; otherwise uniform.
fn pick_skewed(rng: &mut Rng64, stripes: u64, skew: f64) -> u64 {
    if stripes > 10 && rng.unit() < skew {
        rng.below(stripes.div_ceil(10))
    } else {
        rng.below(stripes)
    }
}

/// Outcome statistics of a driven workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Operations that completed successfully.
    pub ok: u64,
    /// Operations that aborted with a timestamp conflict.
    pub aborted: u64,
    /// Operations that needed the recovery path.
    pub recovered: u64,
}

impl WorkloadStats {
    /// Fraction of operations that aborted.
    pub fn abort_rate(&self) -> f64 {
        let total = self.ok + self.aborted;
        if total == 0 {
            0.0
        } else {
            self.aborted as f64 / total as f64
        }
    }
}

/// Drives a workload with `concurrency` simultaneous coordinators: at each
/// step, `concurrency` consecutive operations are launched at the same
/// simulated instant from distinct bricks, exercising the conflict paths
/// of §3.
pub fn drive_concurrent(
    cluster: &mut SimCluster,
    ops: &[Op],
    concurrency: usize,
    block_size: usize,
) -> WorkloadStats {
    assert!(concurrency >= 1);
    let n = cluster.config().n();
    let m = cluster.config().m();
    let mut stats = WorkloadStats::default();
    for batch in ops.chunks(concurrency) {
        let at = cluster.sim().now();
        for (slot, op) in batch.iter().enumerate() {
            let coordinator = ProcessId::new((slot % n) as u32);
            let op = op.client_op(m, block_size);
            cluster
                .sim_mut()
                .schedule_call(at, coordinator, move |brick, ctx| {
                    brick.invoke(ctx, op).unwrap();
                });
        }
        cluster.sim_mut().run_until_idle();
        for (_, c) in cluster.drain_all_completions() {
            match c.result {
                OpResult::Aborted(AbortReason::Conflict) => stats.aborted += 1,
                OpResult::Aborted(_) => stats.aborted += 1,
                _ => stats.ok += 1,
            }
            if c.recovered {
                stats.recovered += 1;
            }
        }
    }
    stats
}

/// Convenience: build a cluster, generate, and drive in one call.
pub fn run_workload(
    m: usize,
    n: usize,
    block_size: usize,
    spec: &WorkloadSpec,
    concurrency: usize,
    seed: u64,
) -> WorkloadStats {
    let cfg = RegisterConfig::new(m, n, block_size).unwrap();
    let mut cluster = SimCluster::new(cfg, SimConfig::ideal(seed));
    let ops = generate(spec, m, seed);
    drive_concurrent(&mut cluster, &ops, concurrency, block_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_respects_mix() {
        let spec = WorkloadSpec::web(100, 2000);
        let a = generate(&spec, 5, 7);
        let b = generate(&spec, 5, 7);
        assert_eq!(a, b);
        let writes = a.iter().filter(|o| o.is_write()).count();
        let frac = writes as f64 / a.len() as f64;
        assert!((0.02..0.10).contains(&frac), "write fraction {frac}");
        assert!(a.iter().all(|o| o.stripe().0 < 100));
    }

    #[test]
    fn sequential_workload_never_aborts() {
        let spec = WorkloadSpec {
            read_fraction: 0.5,
            stripes: 8,
            skew: 0.0,
            operations: 120,
        };
        let stats = run_workload(2, 4, 32, &spec, 1, 3);
        assert_eq!(stats.aborted, 0, "{stats:?}");
        assert_eq!(stats.ok, 120);
    }

    #[test]
    fn heavy_contention_aborts_some_but_completes_all() {
        let spec = WorkloadSpec {
            read_fraction: 0.2,
            stripes: 1, // every op hits the same stripe
            skew: 0.0,
            operations: 64,
        };
        let stats = run_workload(2, 4, 32, &spec, 4, 9);
        assert_eq!(stats.ok + stats.aborted, 64, "every op terminates");
        assert!(stats.aborted > 0, "single-stripe contention must conflict");
    }

    #[test]
    fn spreading_stripes_reduces_aborts() {
        let mk = |stripes| WorkloadSpec {
            read_fraction: 0.3,
            stripes,
            skew: 0.0,
            operations: 200,
        };
        let contended = run_workload(2, 4, 16, &mk(1), 4, 11).abort_rate();
        let spread = run_workload(2, 4, 16, &mk(64), 4, 11).abort_rate();
        assert!(
            spread < contended,
            "spread {spread} !< contended {contended}"
        );
    }
}
