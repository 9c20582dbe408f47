//! Property tests for the volume layer: geometry bijections for arbitrary
//! shapes, and byte-range I/O equivalence with a flat mirror under random
//! operation sequences and random geometries.

use bytes::Bytes;
use fab_core::{RegisterConfig, SimCluster};
use fab_simnet::SimConfig;
use fab_volume::{Layout, SimClient, Volume, VolumeGeometry};
use propcheck::{ensure, ensure_eq};

propcheck::properties! {
    cases: 48;

    /// locate/block_of form a bijection between logical blocks and
    /// (stripe, index) slots for any geometry and base.
    fn geometry_bijection(g) {
        let (stripes, m, base) = (g.range(1u64..40), g.range(1usize..8), g.range(0u64..1000));
        let layout = g.pick(&[Layout::Interleaved, Layout::Linear]);
        let geo = VolumeGeometry::new(stripes, m, 16, layout).with_base(base);
        let mut seen = std::collections::HashSet::new();
        for b in 0..geo.capacity_blocks() {
            let (s, i) = geo.locate(b);
            ensure!(s.0 >= base && s.0 < base + stripes);
            ensure!(i < m);
            ensure!(seen.insert((s, i)), "slot collision at block {b}");
            ensure_eq!(geo.block_of(s, i), b);
        }
    }

    /// Random byte-range reads/writes agree with an in-memory mirror for
    /// random (m, n), geometry, and layouts.
    fn volume_matches_mirror(g) {
        let (m, n) = g.pick(&[(1usize, 3usize), (2, 4), (3, 5)]);
        let bs = 1usize << g.range(3u32..7); // 8..64 byte blocks
        let layout = g.pick(&[Layout::Interleaved, Layout::Linear]);
        let cfg = RegisterConfig::new(m, n, bs).unwrap();
        let cluster = SimCluster::new(cfg, SimConfig::ideal(g.u64()));
        let mut vol = Volume::new(
            SimClient::new(cluster),
            VolumeGeometry::new(g.range(1u64..6), m, bs, layout),
        );
        let cap = vol.capacity_bytes() as usize;
        let mut mirror = vec![0u8; cap];
        for _ in 0..g.range(1..25) {
            let offset = g.range(0..cap);
            let len = g.range(1..=cap - offset);
            if g.bool() {
                let tag = g.u8();
                let data: Vec<u8> = (0..len).map(|i| tag.wrapping_add(i as u8)).collect();
                vol.write(offset as u64, &data).unwrap();
                mirror[offset..offset + len].copy_from_slice(&data);
            } else {
                let got = vol.read(offset as u64, len).unwrap();
                ensure_eq!(&got, &mirror[offset..offset + len]);
            }
        }
        // Full-volume scan at the end.
        ensure_eq!(vol.read(0, cap).unwrap(), mirror);
    }

    /// Single-block APIs agree with byte-range APIs.
    fn block_api_agrees_with_byte_api(g) {
        let (m, n, bs) = (2usize, 4usize, 32usize);
        let cfg = RegisterConfig::new(m, n, bs).unwrap();
        let cluster = SimCluster::new(cfg, SimConfig::ideal(g.u64()));
        let mut vol = Volume::new(
            SimClient::new(cluster),
            VolumeGeometry::new(4, m, bs, Layout::Interleaved),
        );
        let block_idx = g.range(0u64..8);
        let data = Bytes::from(vec![g.u8(); bs]);
        vol.write_block(block_idx, &data).unwrap();
        let via_bytes = vol.read((block_idx as usize * bs) as u64, bs).unwrap();
        ensure_eq!(via_bytes, data.to_vec());
        ensure_eq!(vol.read_block(block_idx).unwrap(), data);
    }
}
