//! Timings of the volume layer: byte-range I/O cost over the simulated
//! cluster, and the linear-vs-interleaved layout trade-off.

use fab_bench::timer::time;
use fab_core::{RegisterConfig, SimCluster};
use fab_simnet::SimConfig;
use fab_volume::{Layout, SimClient, Volume, VolumeGeometry};

fn volume(layout: Layout) -> Volume<SimClient> {
    let (m, bs, stripes) = (5usize, 1024usize, 64u64);
    let cfg = RegisterConfig::new(m, 8, bs).unwrap();
    let cluster = SimCluster::new(cfg, SimConfig::ideal(8));
    Volume::new(
        SimClient::new(cluster),
        VolumeGeometry::new(stripes, m, bs, layout),
    )
}

fn main() {
    for layout in [Layout::Linear, Layout::Interleaved] {
        let mut v = volume(layout);
        let data = vec![0x5Au8; 8 * 1024];
        let mut off = 0u64;
        time(&format!("volume_io/write_8k/{layout:?}"), 8 * 1024, || {
            v.write(off % 40_960, &data).unwrap();
            off += 8 * 1024;
        });
        let mut v = volume(layout);
        v.write(0, &vec![1u8; 40_960]).unwrap();
        let mut off = 0u64;
        time(&format!("volume_io/read_8k/{layout:?}"), 8 * 1024, || {
            off += 8 * 1024;
            v.read(off % 32_768, 8 * 1024).unwrap()
        });
    }
    // Sub-block read-modify-write cost.
    let mut v = volume(Layout::Interleaved);
    let data = vec![0xEEu8; 64];
    let mut off = 100u64;
    time("volume_io/sub_block_write_64B", 64, || {
        v.write(off % 40_000, &data).unwrap();
        off += 512;
    });
}
