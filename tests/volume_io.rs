//! End-to-end volume I/O: randomized byte-range operations checked against
//! an in-memory mirror, across layouts, with mid-workload faults.

use fab_core::{RegisterConfig, SimCluster};
use fab_simnet::SimConfig;
use fab_timestamp::ProcessId;
use fab_volume::{Layout, SimClient, Volume, VolumeGeometry};

struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn make_volume(
    m: usize,
    n: usize,
    stripes: u64,
    block: usize,
    layout: Layout,
    seed: u64,
) -> Volume<SimClient> {
    let cfg = RegisterConfig::new(m, n, block).unwrap();
    let cluster = SimCluster::new(cfg, SimConfig::ideal(seed));
    Volume::new(
        SimClient::new(cluster),
        VolumeGeometry::new(stripes, m, block, layout),
    )
}

/// Random reads/writes mirrored against a plain byte array.
fn mirror_workload(layout: Layout, seed: u64, with_fault: bool) {
    let (m, n, stripes, block) = (2usize, 4usize, 8u64, 32usize);
    let mut v = make_volume(m, n, stripes, block, layout, seed);
    let cap = v.capacity_bytes() as usize;
    let mut mirror = vec![0u8; cap];
    let mut rng = Lcg(seed);

    for step in 0..120 {
        if with_fault && step == 40 {
            let t = v.client_mut().cluster_mut().sim().now();
            v.client_mut()
                .cluster_mut()
                .sim_mut()
                .schedule_crash(t, ProcessId::new(1));
            v.client_mut().cluster_mut().sim_mut().run_until(t + 1);
        }
        if with_fault && step == 80 {
            let t = v.client_mut().cluster_mut().sim().now();
            v.client_mut()
                .cluster_mut()
                .sim_mut()
                .schedule_recovery(t, ProcessId::new(1));
            v.client_mut().cluster_mut().sim_mut().run_until(t + 1);
        }
        let offset = rng.below(cap as u64 - 1);
        let len = 1 + rng.below((cap as u64 - offset).min(100)) as usize;
        if rng.below(2) == 0 {
            let data: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            v.write(offset, &data).expect("write");
            mirror[offset as usize..offset as usize + len].copy_from_slice(&data);
        } else {
            let got = v.read(offset, len).expect("read");
            assert_eq!(
                got,
                &mirror[offset as usize..offset as usize + len],
                "step {step} offset {offset} len {len} ({layout:?}, seed {seed})"
            );
        }
    }
    // Final full scan.
    let got = v.read(0, cap).expect("full read");
    assert_eq!(got, mirror, "final state ({layout:?}, seed {seed})");
}

#[test]
fn mirror_workload_linear() {
    for seed in [1, 2, 3] {
        mirror_workload(Layout::Linear, seed, false);
    }
}

#[test]
fn mirror_workload_interleaved() {
    for seed in [4, 5, 6] {
        mirror_workload(Layout::Interleaved, seed, false);
    }
}

#[test]
fn mirror_workload_with_brick_failure() {
    mirror_workload(Layout::Interleaved, 7, true);
    mirror_workload(Layout::Linear, 8, true);
}

/// Volume semantics on the paper's flagship 5-of-8 configuration with a
/// realistic 4 KiB block size.
#[test]
fn five_of_eight_4k_blocks() {
    let mut v = make_volume(5, 8, 16, 4096, Layout::Interleaved, 99);
    assert_eq!(v.capacity_bytes(), 16 * 5 * 4096);
    // A 10 KiB object spanning three blocks (on three stripes).
    let object: Vec<u8> = (0..10_240).map(|i| (i * 7) as u8).collect();
    v.write(4096 * 3 + 100, &object).expect("write");
    assert_eq!(v.read(4096 * 3 + 100, object.len()).expect("read"), object);
    // Everything around it is still zero.
    assert_eq!(v.read(0, 4096).expect("read"), vec![0u8; 4096]);
}

/// The same byte-level semantics hold over the threaded runtime:
/// `RuntimeClient` is a `RegisterClient`, no adapter in between.
#[test]
fn volume_over_threaded_runtime() {
    use fab_runtime::RuntimeCluster;

    let cfg = RegisterConfig::new(2, 4, 64).unwrap();
    let cluster = RuntimeCluster::new(cfg);
    let mut vol = Volume::new(
        cluster.client(),
        VolumeGeometry::new(8, 2, 64, Layout::Interleaved),
    );
    vol.write(100, b"threads and simulation share one protocol")
        .expect("write");
    assert_eq!(
        vol.read(100, 42).expect("read"),
        b"threads and simulation share one protocol\x00"[..42].to_vec()
    );
    // Crash a brick, scrub, verify.
    cluster.crash(fab_timestamp::ProcessId::new(0));
    assert_eq!(vol.read(100, 10).expect("read"), b"threads an".to_vec());
    cluster.recover(fab_timestamp::ProcessId::new(0));
    vol.scrub_all().expect("scrub");
    assert_eq!(vol.read(100, 10).expect("read"), b"threads an".to_vec());
    cluster.shutdown();
}

/// A volume over a cluster with every brick down reports a typed error
/// (an unreachable cluster is a state to recover from, not a panic).
#[test]
fn volume_over_fully_crashed_runtime_is_unavailable() {
    use fab_runtime::RuntimeCluster;
    use fab_volume::VolumeError;

    let cluster = RuntimeCluster::new(RegisterConfig::new(2, 4, 64).unwrap());
    let mut client = cluster.client();
    client.timeout = std::time::Duration::from_millis(200);
    let mut vol = Volume::new(client, VolumeGeometry::new(8, 2, 64, Layout::Interleaved));
    vol.write(0, b"while the bricks are up").expect("write");
    for i in 0..4 {
        cluster.crash(fab_timestamp::ProcessId::new(i));
    }
    assert_eq!(vol.read(0, 8), Err(VolumeError::Unavailable));
    assert_eq!(vol.write(0, b"nobody home"), Err(VolumeError::Unavailable));
    assert_eq!(vol.scrub_all(), Err(VolumeError::Unavailable));
    // The data outlives the outage.
    for i in 0..4 {
        cluster.recover(fab_timestamp::ProcessId::new(i));
    }
    assert_eq!(vol.read(0, 8).expect("read"), b"while th".to_vec());
    cluster.shutdown();
}
