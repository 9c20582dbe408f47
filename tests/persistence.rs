//! Durable bricks: replica state written through `fab-store` survives
//! emulated crashes (state reloaded from disk on recovery) and full
//! process restarts (a new cluster over the same directory).

use bytes::Bytes;
use fab_core::{OpResult, RegisterClient, RegisterConfig, StripeId, StripeValue};
use fab_runtime::RuntimeCluster;
use fab_timestamp::ProcessId;
use std::path::PathBuf;

fn blocks(m: usize, tag: u8, size: usize) -> Vec<Bytes> {
    (0..m)
        .map(|i| Bytes::from(vec![tag.wrapping_add(i as u8); size]))
        .collect()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fab-persist-{}-{}-{tag}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn cluster_state_survives_full_restart() {
    let dir = tmpdir("restart");
    let (m, n, size) = (2usize, 4usize, 64usize);
    let data1 = blocks(m, 0x11, size);
    let data2 = blocks(m, 0x22, size);

    // First incarnation: write two stripes, then shut down.
    {
        let cluster =
            RuntimeCluster::with_persistence(RegisterConfig::new(m, n, size).unwrap(), &dir);
        let mut client = cluster.client();
        assert_eq!(
            client.write_stripe(StripeId(0), data1.clone()).unwrap(),
            OpResult::Written
        );
        assert_eq!(
            client.write_stripe(StripeId(5), data2.clone()).unwrap(),
            OpResult::Written
        );
        cluster.shutdown();
    }

    // Second incarnation over the same directory: everything is back.
    {
        let cluster =
            RuntimeCluster::with_persistence(RegisterConfig::new(m, n, size).unwrap(), &dir);
        let mut client = cluster.client();
        assert_eq!(
            client.read_stripe(StripeId(0)).unwrap(),
            OpResult::Stripe(StripeValue::Data(data1))
        );
        assert_eq!(
            client.read_stripe(StripeId(5)).unwrap(),
            OpResult::Stripe(StripeValue::Data(data2.clone()))
        );
        // And it keeps serving writes.
        let data3 = blocks(m, 0x33, size);
        assert_eq!(
            client.write_stripe(StripeId(0), data3.clone()).unwrap(),
            OpResult::Written
        );
        assert_eq!(
            client.read_stripe(StripeId(0)).unwrap(),
            OpResult::Stripe(StripeValue::Data(data3))
        );
        cluster.shutdown();
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn durable_brick_recovers_from_disk_after_crash() {
    let dir = tmpdir("crash");
    let (m, n, size) = (2usize, 4usize, 32usize);
    let cluster = RuntimeCluster::with_persistence(RegisterConfig::new(m, n, size).unwrap(), &dir);
    let mut client = cluster.client();
    client.timeout = std::time::Duration::from_millis(500);

    let data1 = blocks(m, 1, size);
    assert_eq!(
        client.write_stripe(StripeId(0), data1.clone()).unwrap(),
        OpResult::Written
    );

    // Crash p0 (durable bricks drop ALL in-memory state on crash).
    cluster.crash(ProcessId::new(0));
    // Cluster keeps serving without it; write a new version.
    let data2 = blocks(m, 2, size);
    assert_eq!(
        client.write_stripe(StripeId(0), data2.clone()).unwrap(),
        OpResult::Written
    );

    // Recover p0: its pre-crash state is reloaded from its on-disk log;
    // subsequent protocol traffic brings it forward. Crash another brick
    // so quorums must lean on the recovered one.
    cluster.recover(ProcessId::new(0));
    // Let p0 absorb a fresh complete write so it is provably current.
    let data3 = blocks(m, 3, size);
    assert_eq!(
        client.write_stripe(StripeId(0), data3.clone()).unwrap(),
        OpResult::Written
    );
    cluster.crash(ProcessId::new(1));
    assert_eq!(
        client.read_stripe(StripeId(0)).unwrap(),
        OpResult::Stripe(StripeValue::Data(data3))
    );
    cluster.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn block_writes_and_gc_persist_correctly() {
    let dir = tmpdir("blocks");
    let (m, n, size) = (2usize, 4usize, 32usize);
    {
        let cluster =
            RuntimeCluster::with_persistence(RegisterConfig::new(m, n, size).unwrap(), &dir);
        let mut client = cluster.client();
        client
            .write_stripe(StripeId(0), blocks(m, 1, size))
            .unwrap();
        // Many block writes (each triggers GC of old versions).
        for i in 0..10u8 {
            assert_eq!(
                client
                    .write_block(StripeId(0), 1, Bytes::from(vec![0x80 + i; size]))
                    .unwrap(),
                OpResult::Written
            );
        }
        cluster.shutdown();
    }
    {
        let cluster =
            RuntimeCluster::with_persistence(RegisterConfig::new(m, n, size).unwrap(), &dir);
        let mut client = cluster.client();
        match client.read_stripe(StripeId(0)).unwrap() {
            OpResult::Stripe(StripeValue::Data(got)) => {
                assert_eq!(got[0].as_ref(), &[1u8; 32], "block 0 kept across restart");
                assert_eq!(got[1].as_ref(), &[0x89u8; 32], "latest block write kept");
            }
            other => panic!("unexpected {other:?}"),
        }
        cluster.shutdown();
    }
    std::fs::remove_dir_all(dir).ok();
}
