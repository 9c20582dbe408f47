//! Property-based tests for the erasure-coding substrate.
//!
//! These check the algebraic laws the storage-register protocol depends on:
//! `decode ∘ encode = id` for *any* m-subset of shares, `modify` agreeing
//! with full re-encoding, and delta updates agreeing with `modify` — for
//! randomized parameters, block contents, and share subsets.

#![allow(clippy::needless_range_loop)] // indices double as share ids

use fab_erasure::{Codec, Gf256, Matrix, Share};
use propcheck::{ensure, ensure_eq, Gen};

/// A valid (m, n) pair small enough to enumerate subsets.
fn params(g: &mut Gen) -> (usize, usize) {
    let m = g.range(1usize..=8);
    (m, g.range(m..=(m + 6).min(12)))
}

/// The (m, n) grid the zero-copy equivalence tests must cover, spanning
/// replication (m = 1), small parity-style codes, and wide Reed-Solomon.
const INTO_PARAMS: [(usize, usize); 4] = [(1, 3), (3, 4), (5, 8), (10, 14)];

/// Block sizes the zero-copy equivalence tests must cover: empty, single
/// byte, around the 64-byte SIMD/word boundaries, and a page.
const INTO_LENS: [usize; 6] = [0, 1, 63, 64, 65, 4096];

/// A stripe of `m` random blocks of `len` bytes.
fn stripe(g: &mut Gen, m: usize, len: usize) -> Vec<Vec<u8>> {
    (0..m).map(|_| g.vec(len..=len, Gen::u8)).collect()
}

/// A uniformly random `k`-subset of `0..n`, in random order.
fn subset(g: &mut Gen, n: usize, k: usize) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        indices.swap(i, g.range(0..=i));
    }
    indices.truncate(k);
    indices
}

/// A stripe of 1..=64-byte blocks, its encoding, a data index `i` and a
/// replacement block for it.
#[allow(clippy::type_complexity)]
fn update(g: &mut Gen) -> (Codec, Vec<Vec<u8>>, Vec<Vec<u8>>, usize, Vec<u8>) {
    let (m, n) = params(g);
    let codec = Codec::new(m, n).unwrap();
    let len = g.range(1usize..=64);
    let data = stripe(g, m, len);
    let blocks = codec.encode(&data).unwrap();
    (codec, data, blocks, g.range(0..m), g.vec(len..=len, Gen::u8))
}

propcheck::properties! {
    cases: 64;

    fn decode_inverts_encode_on_random_subset(g) {
        let (m, n) = params(g);
        let codec = Codec::new(m, n).unwrap();
        let data = stripe(g, m, 24);
        let blocks = codec.encode(&data).unwrap();
        let shares: Vec<Share<'_>> = subset(g, n, m)
            .into_iter()
            .map(|i| Share::new(i, blocks[i].as_slice()))
            .collect();
        ensure_eq!(codec.decode(&shares).unwrap(), data);
    }

    fn modify_agrees_with_reencode(g) {
        let (codec, data, blocks, i, new_block) = update(g);
        let mut new_data = data.clone();
        new_data[i] = new_block.clone();
        let reencoded = codec.encode(&new_data).unwrap();
        for j in codec.m()..codec.n() {
            let patched = codec.modify(i, j, &data[i], &new_block, &blocks[j]).unwrap();
            ensure_eq!(&patched, &reencoded[j], "i={i} j={j}");
        }
    }

    fn coded_delta_agrees_with_modify(g) {
        let (codec, data, blocks, i, new_block) = update(g);
        for j in codec.m()..codec.n() {
            let delta = codec.coded_delta(i, j, &data[i], &new_block).unwrap();
            let via_delta = codec.apply_coded_delta(&blocks[j], &delta).unwrap();
            let via_modify = codec.modify(i, j, &data[i], &new_block, &blocks[j]).unwrap();
            ensure_eq!(via_delta, via_modify);
        }
    }

    fn reconstruct_rebuilds_any_block(g) {
        let (m, n) = params(g);
        let codec = Codec::new(m, n).unwrap();
        let blocks = codec.encode(&stripe(g, m, 16)).unwrap();
        // Use m shares at indices != target (any target when n = m, where
        // nothing else could be left out).
        let target = g.range(0..n);
        let shares: Vec<Share<'_>> = (0..n)
            .filter(|&i| i != target || n == m)
            .take(m)
            .map(|i| Share::new(i, blocks[i].as_slice()))
            .collect();
        ensure_eq!(codec.reconstruct(target, &shares).unwrap(), blocks[target].clone());
    }

    fn encode_into_is_byte_identical_to_encode(g) {
        let ((m, n), len) = (g.pick(&INTO_PARAMS), g.pick(&INTO_LENS));
        let codec = Codec::new(m, n).unwrap();
        let data = stripe(g, m, len);
        let expected = codec.encode(&data).unwrap();

        // Fresh buffers and dirty reused buffers must both converge on the
        // same bytes as the allocating path.
        let mut out = vec![Vec::new(); n];
        codec.encode_into(&data, &mut out).unwrap();
        ensure_eq!(&out, &expected);

        for buf in &mut out {
            buf.clear();
            buf.extend_from_slice(&[0xAB; 9]);
        }
        codec.encode_into(&data, &mut out).unwrap();
        ensure_eq!(&out, &expected);
    }

    fn decode_into_is_byte_identical_to_decode(g) {
        let ((m, n), len) = (g.pick(&INTO_PARAMS), g.pick(&INTO_LENS));
        let codec = Codec::new(m, n).unwrap();
        let data = stripe(g, m, len);
        let blocks = codec.encode(&data).unwrap();
        let shares: Vec<Share<'_>> = subset(g, n, m)
            .into_iter()
            .map(|i| Share::new(i, blocks[i].as_slice()))
            .collect();
        let expected = codec.decode(&shares).unwrap();
        ensure_eq!(&expected, &data);

        let mut out = vec![Vec::new(); m];
        codec.decode_into(&shares, &mut out).unwrap();
        ensure_eq!(&out, &expected);

        for buf in &mut out {
            buf.clear();
            buf.extend_from_slice(&[0xCD; 17]);
        }
        codec.decode_into(&shares, &mut out).unwrap();
        ensure_eq!(&out, &expected);
    }

    fn gf256_field_laws(g) {
        let (a, b, c) = (Gf256::new(g.u8()), Gf256::new(g.u8()), Gf256::new(g.u8()));
        ensure_eq!(a + b, b + a);
        ensure_eq!(a * b, b * a);
        ensure_eq!((a + b) + c, a + (b + c));
        ensure_eq!((a * b) * c, a * (b * c));
        ensure_eq!(a * (b + c), a * b + a * c);
        ensure_eq!(a + Gf256::ZERO, a);
        ensure_eq!(a * Gf256::ONE, a);
        if !b.is_zero() {
            ensure_eq!((a / b) * b, a);
            ensure_eq!(b * b.inv(), Gf256::ONE);
        }
    }

    /// Any m distinct rows of an n x m Vandermonde matrix are independent.
    fn random_vandermonde_row_subsets_invertible(g) {
        let n = g.range(2usize..=12);
        let m = g.range(1..=n);
        let rows = subset(g, n, m);
        ensure!(Matrix::vandermonde(n, m).select_rows(&rows).inverted().is_some());
    }

    /// Random matrices are usually invertible; when they are, A * A^-1 = I.
    fn matrix_inverse_round_trip(g) {
        let n = g.range(1usize..=6);
        let rows = stripe(g, n, n);
        let refs: Vec<&[u8]> = rows.iter().map(std::vec::Vec::as_slice).collect();
        let mat = Matrix::from_rows(&refs);
        if let Some(inv) = mat.inverted() {
            ensure!((&mat * &inv).is_identity());
            ensure!((&inv * &mat).is_identity());
        }
    }
}
