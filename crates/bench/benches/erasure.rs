//! Timings of the erasure-coding substrate (Figure 4's primitives):
//! encode/decode/modify throughput across code families and block sizes,
//! and the GF(256) kernel tiers (DESIGN.md §4c).

use fab_bench::timer::time;
use fab_erasure::kernel::{mul_acc, mul_slice, set_kernel_override, simd_available, xor_slice};
use fab_erasure::{Codec, Gf256, Kernel, Share};

fn stripe(m: usize, len: usize) -> Vec<Vec<u8>> {
    (0..m)
        .map(|i| (0..len).map(|k| (i * 131 + k * 7) as u8).collect())
        .collect()
}

fn bench_encode() {
    for (m, n) in [(1usize, 3usize), (3, 4), (5, 8), (10, 14)] {
        for size in [4096usize, 65536] {
            let codec = Codec::new(m, n).unwrap();
            let data = stripe(m, size);
            time(&format!("encode/{m}-of-{n}/{size}"), (m * size) as u64, || {
                codec.encode(&data).unwrap()
            });
        }
    }
}

fn bench_decode() {
    for (m, n) in [(3usize, 4usize), (5, 8), (10, 14)] {
        let size = 65536usize;
        let codec = Codec::new(m, n).unwrap();
        let blocks = codec.encode(&stripe(m, size)).unwrap();
        // Worst case: decode entirely from the tail (parity-heavy) shares;
        // best case: all data shares present (systematic fast path).
        for (label, indices) in [("parity", n - m..n), ("systematic", 0..m)] {
            let shares: Vec<Share<'_>> = indices
                .map(|i| Share::new(i, blocks[i].as_slice()))
                .collect();
            time(&format!("decode/{m}-of-{n}/{label}"), (m * size) as u64, || {
                codec.decode(&shares).unwrap()
            });
        }
    }
}

fn bench_modify() {
    let (m, n, size) = (5usize, 8usize, 65536usize);
    let codec = Codec::new(m, n).unwrap();
    let data = stripe(m, size);
    let blocks = codec.encode(&data).unwrap();
    let new_block = vec![0xA5u8; size];
    time("modify/incremental modify_{0,5}", size as u64, || {
        codec
            .modify(0, 5, &data[0], &new_block, &blocks[5])
            .unwrap()
    });
    time("modify/coded_delta", size as u64, || {
        codec.coded_delta(0, 5, &data[0], &new_block).unwrap()
    });
    // The alternative the paper's modify primitive avoids: re-encoding the
    // whole stripe.
    time("modify/full re-encode (baseline)", size as u64, || {
        let mut d = data.clone();
        d[0] = new_block.clone();
        codec.encode(&d).unwrap()
    });
}

/// The kernel tiers worth measuring on this machine: the scalar reference,
/// the branch-free full-table path, and (when the CPU has it) the SIMD
/// nibble-shuffle path.
fn kernel_tiers() -> Vec<Kernel> {
    let mut tiers = vec![Kernel::Scalar, Kernel::Table];
    if simd_available() {
        tiers.push(Kernel::Simd);
    }
    tiers
}

fn bench_kernels() {
    let coeff = Gf256::new(0x8E); // arbitrary non-trivial field element
    for size in [1usize << 10, 1 << 14, 1 << 17, 1 << 20] {
        let src: Vec<u8> = (0..size).map(|k| (k * 31 + 7) as u8).collect();
        for kernel in kernel_tiers() {
            set_kernel_override(Some(kernel));
            let tag = format!("{kernel:?}").to_lowercase();
            let mut acc = vec![0u8; size];
            time(&format!("kernels/mul_acc/{tag}/{size}"), size as u64, || {
                mul_acc(&mut acc, &src, coeff);
            });
            let mut buf = src.clone();
            time(&format!("kernels/mul_slice/{tag}/{size}"), size as u64, || {
                mul_slice(&mut buf, coeff);
            });
        }
        set_kernel_override(None);
        let mut dst = vec![0u8; size];
        time(&format!("kernels/xor_slice/{size}"), size as u64, || {
            xor_slice(&mut dst, &src);
        });
    }
}

fn main() {
    bench_encode();
    bench_decode();
    bench_modify();
    bench_kernels();
}
