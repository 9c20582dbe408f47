//! Seeded input generation: the op stream and every payload byte come from
//! splitmix64 streams keyed by `--seed`, so one seed always produces the
//! same requests and the bricks see nothing but those requests.

use std::ops::Range;

/// Closed-loop load generators per workload (`nproc` is 2 in the sandbox
/// the bounds were tuned in; a virtual-disk host waits for each I/O).
pub const CLIENTS: usize = 2;

/// splitmix64 (Steele, Lea, Flood 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n` must be non-zero).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Folds `b` into the key `a`; one splitmix64 step per component keeps
/// `(seed, stripe, block, version)` tuples from colliding.
fn fold(a: u64, b: u64) -> u64 {
    SplitMix64::new(a ^ b.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// The `len` bytes a client writes to `(stripe, block)` as its `version`-th
/// write. Readers regenerate it to check what they got back.
pub fn payload(seed: u64, stripe: u64, block: usize, version: u32, len: usize) -> Vec<u8> {
    let key = fold(fold(fold(seed, stripe), block as u64), u64::from(version));
    let mut rng = SplitMix64::new(key);
    let mut out = vec![0u8; len];
    for chunk in out.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    out
}

/// The contiguous stripe range client `index` of `clients` owns out of
/// `total` stripes. Ranges are disjoint, so no two generators ever touch
/// one stripe and an abort is a conflict the benchmark did not ask for.
pub fn client_range(index: usize, clients: usize, total: u64) -> Range<u64> {
    let per = total / clients as u64;
    let start = per * index as u64;
    let end = if index + 1 == clients {
        total
    } else {
        start + per
    };
    start..end
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    WriteStripe,
    ReadBlock,
    WriteBlock,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub stripe: u64,
    pub block: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Full-stripe writes cycling over the client's stripes in order.
    StripeWrites,
    /// `read_pct` % read-block, the rest write-block, uniform over the
    /// client's stripes and the stripe's `m` blocks.
    BlockMix { read_pct: u64 },
}

/// One client's op sequence.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SplitMix64,
    pattern: Pattern,
    range: Range<u64>,
    m: usize,
    issued: u64,
}

impl OpStream {
    pub fn new(seed: u64, client: usize, pattern: Pattern, range: Range<u64>, m: usize) -> Self {
        assert!(!range.is_empty(), "client {client} owns no stripes");
        OpStream {
            rng: SplitMix64::new(fold(seed, 0xC11E_0000 + client as u64)),
            pattern,
            range,
            m,
            issued: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let span = self.range.end - self.range.start;
        let op = match self.pattern {
            Pattern::StripeWrites => Op {
                kind: OpKind::WriteStripe,
                stripe: self.range.start + self.issued % span,
                block: 0,
            },
            Pattern::BlockMix { read_pct } => {
                let stripe = self.range.start + self.rng.below(span);
                let block = self.rng.below(self.m as u64) as usize;
                let kind = if self.rng.below(100) < read_pct {
                    OpKind::ReadBlock
                } else {
                    OpKind::WriteBlock
                };
                Op {
                    kind,
                    stripe,
                    block,
                }
            }
        };
        self.issued += 1;
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_op_stream() {
        for pattern in [Pattern::StripeWrites, Pattern::BlockMix { read_pct: 80 }] {
            let mut a = OpStream::new(42, 1, pattern, 100..200, 3);
            let mut b = OpStream::new(42, 1, pattern, 100..200, 3);
            let mut other_seed = OpStream::new(43, 1, pattern, 100..200, 3);
            let ops_a: Vec<Op> = (0..500).map(|_| a.next_op()).collect();
            let ops_b: Vec<Op> = (0..500).map(|_| b.next_op()).collect();
            let ops_c: Vec<Op> = (0..500).map(|_| other_seed.next_op()).collect();
            assert_eq!(ops_a, ops_b);
            assert!(ops_a
                .iter()
                .all(|op| (100..200).contains(&op.stripe) && op.block < 3));
            if pattern != Pattern::StripeWrites {
                assert_ne!(ops_a, ops_c);
            }
        }
    }

    #[test]
    fn block_mix_honours_read_share() {
        let mut s = OpStream::new(7, 0, Pattern::BlockMix { read_pct: 80 }, 0..1024, 3);
        let reads = (0..10_000)
            .filter(|_| s.next_op().kind == OpKind::ReadBlock)
            .count();
        assert!((7_700..8_300).contains(&reads), "{reads} reads of 10000");
    }

    #[test]
    fn client_ranges_are_disjoint_and_cover() {
        for total in [2u64, 64, 1025, 4096] {
            for clients in [1usize, 2, 3, 8] {
                if (total as usize) < clients {
                    continue;
                }
                let ranges: Vec<_> = (0..clients)
                    .map(|c| client_range(c, clients, total))
                    .collect();
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges[clients - 1].end, total);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "adjacent, never overlapping");
                    assert!(!w[0].is_empty());
                }
            }
        }
    }

    #[test]
    fn payload_depends_on_every_key_component() {
        let base = payload(1, 2, 0, 1, 64);
        assert_eq!(base, payload(1, 2, 0, 1, 64));
        assert_eq!(&base[..13], &payload(1, 2, 0, 1, 13)[..]);
        for other in [
            payload(9, 2, 0, 1, 64),
            payload(1, 3, 0, 1, 64),
            payload(1, 2, 1, 1, 64),
            payload(1, 2, 0, 2, 64),
        ] {
            assert_ne!(base, other);
        }
    }
}
