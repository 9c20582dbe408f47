//! A brick must give back everything an accepted connection cost once the
//! client hangs up: `fabd` serves one-shot `fab-cli` calls for as long as
//! it runs, so a descriptor kept per connection ends in `EMFILE` and a
//! brick that refuses clients and reconnecting peers alike.
//!
//! The check counts this process's open descriptors, so it lives in a test
//! binary of its own: no other test opens sockets beside it.

#![cfg(target_os = "linux")]

use bytes::Bytes;
use fab_core::{OpResult, RegisterConfig, StripeId};
use fab_net::{BrickNode, NetClient, NodeConfig};
use fab_timestamp::ProcessId;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

const BURST: usize = 300;
/// Descriptors the process may hold beyond its pre-burst count once the
/// burst has drained (a peer link re-dialled meanwhile); far below `BURST`.
const SLACK: usize = 16;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

#[test]
fn closed_connections_give_their_descriptors_back() {
    let (m, n, block) = (2, 3, 64);
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<_> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect();
    let cfg = RegisterConfig::new(m, n, block).unwrap();
    let nodes: Vec<BrickNode> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| {
            let node = NodeConfig::new(ProcessId::new(i as u32), addrs.clone(), cfg.clone());
            BrickNode::spawn(node, l).unwrap()
        })
        .collect();
    let stripe = vec![Bytes::from(vec![7u8; block]); m];

    // One served operation first, so the peer links exist before counting.
    {
        let mut warm = NetClient::connect(addrs.clone(), cfg.clone());
        let written = warm.try_write_stripe(StripeId(0), stripe.clone()).unwrap();
        assert_eq!(written, OpResult::Written);
    }
    let before = open_fds();

    for _ in 0..BURST {
        drop(TcpStream::connect(addrs[0]).expect("brick accepts"));
    }

    // Readers notice the hang-ups on their own threads; give them time.
    let deadline = Instant::now() + Duration::from_secs(10);
    while open_fds() > before + SLACK && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let after = open_fds();
    assert!(
        after <= before + SLACK,
        "{BURST} closed connections left {after} descriptors open, {before} before the burst"
    );

    let mut fresh = NetClient::connect(addrs, cfg);
    let written = fresh.try_write_stripe(StripeId(1), stripe).unwrap();
    assert_eq!(written, OpResult::Written);

    for node in nodes {
        assert!(node.shutdown().is_some());
    }
}
