//! Cross-substrate conformance: one script of [`ClientOp`]s — all seven
//! variants, then malformed ones — run through [`RegisterClient::invoke`]
//! on the simulator, the threaded runtime and a loopback TCP cluster must
//! give the same `Result<OpResult, ClientError>` sequence, entry for entry.
//!
//! Each leg is checked against the one expected column of [`script`], so
//! the three sequences are identical by construction and a divergence
//! names the substrate and the operation. The TCP leg binds sockets and is
//! `#[ignore]`d like the other loopback tests (`tools/ci.sh` stage 6).

use bytes::Bytes;
use fab_core::{
    BlockValue, ClientError, ClientOp, OpResult, RegisterClient, RegisterConfig, SimCluster,
    StripeId, StripeValue,
};
use fab_net::{BrickNode, NetClient, NodeConfig};
use fab_runtime::RuntimeCluster;
use fab_simnet::SimConfig;
use fab_timestamp::ProcessId;
use fab_volume::SimClient;
use std::net::TcpListener;

const M: usize = 2;
const N: usize = 4;
const BLOCK: usize = 16;

fn cfg() -> RegisterConfig {
    RegisterConfig::new(M, N, BLOCK).unwrap()
}

fn block(fill: u8) -> Bytes {
    Bytes::from(vec![fill; BLOCK])
}

/// The script and its expected answers. `fresh` is never written; `s` goes
/// through a stripe write, a block write and a multi-block write.
fn script() -> Vec<(ClientOp, Result<OpResult, ClientError>)> {
    let (fresh, s) = (StripeId(0), StripeId(1));
    let data = |a: u8, b: u8| OpResult::Stripe(StripeValue::Data(vec![block(a), block(b)]));
    let invalid = Err(ClientError::InvalidRequest);
    vec![
        (
            ClientOp::read_stripe(fresh),
            Ok(OpResult::Stripe(StripeValue::Nil)),
        ),
        (
            ClientOp::read_block(fresh, 1),
            Ok(OpResult::Block(BlockValue::Nil)),
        ),
        (
            ClientOp::scrub(fresh),
            Ok(OpResult::Stripe(StripeValue::Nil)),
        ),
        (
            ClientOp::write_stripe(s, vec![block(1), block(2)]),
            Ok(OpResult::Written),
        ),
        (ClientOp::read_stripe(s), Ok(data(1, 2))),
        (
            ClientOp::read_block(s, 0),
            Ok(OpResult::Block(BlockValue::Data(block(1)))),
        ),
        (ClientOp::write_block(s, 1, block(3)), Ok(OpResult::Written)),
        (
            ClientOp::read_blocks(s, vec![0, 1]),
            Ok(OpResult::Blocks(vec![
                BlockValue::Data(block(1)),
                BlockValue::Data(block(3)),
            ])),
        ),
        // Unsorted updates are sorted by the coordinator, not rejected.
        (
            ClientOp::write_blocks(s, vec![(1, block(5)), (0, block(4))]),
            Ok(OpResult::Written),
        ),
        (ClientOp::scrub(s), Ok(data(4, 5))),
        // Malformed: out-of-range index, wrong block count, wrong block
        // length, unsorted / repeated / empty index sets.
        (ClientOp::read_block(s, M), invalid.clone()),
        (
            ClientOp::write_block(s, usize::MAX, block(9)),
            invalid.clone(),
        ),
        (
            ClientOp::write_stripe(s, vec![block(9); M + 1]),
            invalid.clone(),
        ),
        (
            ClientOp::write_stripe(s, vec![block(9), Bytes::from(vec![9; BLOCK - 1])]),
            invalid.clone(),
        ),
        (
            ClientOp::write_block(s, 0, Bytes::from(vec![9; BLOCK + 1])),
            invalid.clone(),
        ),
        (ClientOp::read_blocks(s, vec![1, 0]), invalid.clone()),
        (ClientOp::read_blocks(s, vec![0, 0]), invalid.clone()),
        (ClientOp::read_blocks(s, vec![]), invalid.clone()),
        (
            ClientOp::write_blocks(s, vec![(0, block(9)), (0, block(9))]),
            invalid,
        ),
        // None of which changed anything.
        (ClientOp::read_stripe(s), Ok(data(4, 5))),
    ]
}

/// Runs the script on `client`. An abort (the paper's `⊥`: coordinators on
/// wall-clock substrates have skewed `newTS` clocks) is retried like any
/// register client would; the conformance claim is about the answer.
fn conforms<C: RegisterClient>(substrate: &str, client: &mut C) {
    for (i, (op, expected)) in script().into_iter().enumerate() {
        let mut got = client.invoke(op.clone());
        for _ in 0..16 {
            if !matches!(got, Ok(OpResult::Aborted(_))) {
                break;
            }
            got = client.invoke(op.clone());
        }
        assert_eq!(got, expected, "{substrate}: step {i} ({})", op.name());
    }
}

#[test]
fn simulator_conforms() {
    let cluster = SimCluster::new(cfg(), SimConfig::ideal(11));
    conforms("sim", &mut SimClient::new(cluster));
}

#[test]
fn threaded_runtime_conforms() {
    let cluster = RuntimeCluster::new(cfg());
    conforms("runtime", &mut cluster.client());
    cluster.shutdown();
}

#[test]
#[ignore = "binds TCP sockets; run explicitly (tools/ci.sh stage 6)"]
fn tcp_cluster_conforms() {
    let listeners: Vec<TcpListener> = (0..N)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<_> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let nodes: Vec<BrickNode> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| {
            let node = NodeConfig::new(ProcessId::new(i as u32), addrs.clone(), cfg());
            BrickNode::spawn(node, l).unwrap()
        })
        .collect();
    conforms("tcp", &mut NetClient::connect(addrs, cfg()));
    for node in nodes {
        node.shutdown();
    }
}
