//! `fab-net` — real TCP transport and multi-process brick cluster for the
//! FAB storage-register protocol.
//!
//! This is the third substrate for the *same* sans-io protocol state
//! machines ([`fab_core::Coordinator`] / [`fab_core::Replica`]):
//!
//! | substrate     | network                | host                     | purpose                  |
//! |---------------|------------------------|--------------------------|--------------------------|
//! | `fab-simnet`  | deterministic schedule | `fab_core::Brick` actor  | asynchrony/fault hunting |
//! | `fab-runtime` | crossbeam channels     | `fab_runtime::host`      | threaded in-process runs |
//! | **`fab-net`** | TCP (`fab-wire` codec) | `fab_runtime::host`      | multi-process deployment |
//!
//! The two wall-clock substrates run one and the same durable event loop
//! (`fab_runtime::host::Host`: one group commit per turn, then the turn's
//! replies; fencing, recovery); this crate supplies its TCP `Transport` and
//! the admin front end.
//!
//! A [`BrickNode`] is one brick: an event-loop thread running the host
//! (coordinator and replicas), an accept loop feeding per-connection reader
//! threads, and one writer thread per peer with reconnect + capped
//! exponential backoff ([`fab_simnet::Backoff`]). Links are **fair-loss**
//! — exactly the model the protocol was proved against — so a down
//! connection drops frames (counted, never buffered unboundedly) and the
//! coordinator's retransmission timers carry the operation. Fault
//! injection shares the simulator's [`fab_simnet::FaultPlan`] semantics.
//!
//! [`NetClient`] is the client half: rotate coordinators across bricks,
//! fail over on connection errors, no failure detector. It implements
//! [`fab_core::RegisterClient`] — `config` plus one `invoke(ClientOp)`,
//! the typed calls being the trait's provided methods — so a virtual disk
//! (or a repair job) runs over a real cluster unchanged, and an
//! unreachable cluster is the typed `ClientError::Unavailable`.
//!
//! The `fabd` binary serves one brick per process; `fab-cli` drives a
//! cluster from the command line. See the repository README for the
//! five-brick localhost quickstart.
//!
//! # Quick start (in-process loopback cluster)
//!
//! ```
//! use fab_net::{BrickNode, NetClient, NodeConfig};
//! use fab_core::{OpResult, RegisterClient, RegisterConfig, StripeId, StripeValue};
//! use fab_timestamp::ProcessId;
//! use bytes::Bytes;
//! use std::net::TcpListener;
//!
//! // Bind three ports first so every brick knows the full cluster map.
//! let listeners: Vec<TcpListener> =
//!     (0..3).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<Result<_, _>>()?;
//! let cluster: Vec<_> =
//!     listeners.iter().map(|l| l.local_addr()).collect::<Result<_, _>>()?;
//!
//! let cfg = RegisterConfig::new(2, 3, 64)?; // 2-of-3, 64-byte blocks
//! let nodes: Vec<BrickNode> = listeners
//!     .into_iter()
//!     .enumerate()
//!     .map(|(i, l)| {
//!         BrickNode::spawn(
//!             NodeConfig::new(ProcessId::new(i as u32), cluster.clone(), cfg.clone()),
//!             l,
//!         )
//!     })
//!     .collect::<Result<_, _>>()?;
//!
//! let mut client = NetClient::connect(cluster, cfg);
//! let stripe: Vec<Bytes> = vec![Bytes::from(vec![1u8; 64]), Bytes::from(vec![2u8; 64])];
//! assert_eq!(client.write_stripe(StripeId(0), stripe.clone())?, OpResult::Written);
//! assert_eq!(
//!     client.read_stripe(StripeId(0))?,
//!     OpResult::Stripe(StripeValue::Data(stripe))
//! );
//! for node in nodes {
//!     node.shutdown();
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod client;
pub mod server;
pub mod transport;

pub use client::NetClient;
pub use server::{BrickNode, NodeConfig, TransportMetrics, WRITE_TIMEOUT};
pub use transport::{
    read_frame, CounterSnapshot, PeerCounters, PeerSender, RecvError, CONNECT_TIMEOUT,
    MAILBOX_FRAMES, MAX_COALESCED_BYTES, MAX_COALESCED_FRAMES,
};
