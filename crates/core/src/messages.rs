//! Protocol messages: the requests of Algorithms 2–3 and their replies.
//!
//! Every message travels inside an [`Envelope`] carrying the stripe it
//! addresses (one brick hosts one register instance per stripe; instances
//! share nothing, §4) and a *round* number. A round uniquely identifies one
//! messaging phase of one operation at one coordinator; replies echo it so
//! the coordinator can route them and discard stragglers from completed
//! phases. Retransmissions reuse the round number, and replica handlers are
//! idempotent, so fair-loss channels plus retransmission realize the
//! paper's non-blocking `quorum()` primitive (§2.2).

use crate::value::BlockValue;
use bytes::Bytes;
use fab_simnet::WireSize;
use fab_timestamp::{ProcessId, Timestamp};

/// Identifies one storage-register instance hosted by the bricks (one per
/// stripe of a logical volume). Instances are fully independent (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StripeId(pub u64);

impl std::fmt::Display for StripeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stripe{}", self.0)
    }
}

/// The block parameter of an `Order&Read` request: a specific process's
/// block, or `ALL` for whole-stripe recovery (Alg. 2 line 49).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BlockTarget {
    /// Every recipient reports its block (`j = ALL`).
    All,
    /// Only process `j` reports its block.
    One(ProcessId),
    /// The listed processes report their blocks (the footnote-2 extension
    /// to multi-block operations).
    Many(Vec<ProcessId>),
}

impl BlockTarget {
    /// Whether `pid` should report its block under this target.
    pub fn includes(&self, pid: ProcessId) -> bool {
        match self {
            BlockTarget::All => true,
            BlockTarget::One(j) => *j == pid,
            BlockTarget::Many(js) => js.contains(&pid),
        }
    }
}

/// One block update inside a `Modify` request: the old and new values of
/// one data block (the paper's `b_j` and `b`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockUpdate {
    /// The old value of the block (may be `nil` for a fresh stripe).
    pub old: BlockValue,
    /// The new value of the block.
    pub new: Bytes,
}

impl WireSize for BlockUpdate {
    fn wire_size(&self) -> usize {
        self.old.wire_size() + self.new.len()
    }
}

/// Block data attached to a `Modify` request, by §5.2 write strategy.
/// Updates are parallel to the request's `js` list (single-block writes
/// carry exactly one entry; the footnote-2 multi-block extension carries
/// several).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModifyPayload {
    /// The paper's pseudocode payload: old and new values of every written
    /// block. Serves both the written processes (each stores its new
    /// value) and parity processes (incremental `modify_{j,i}` folds).
    Full {
        /// Old/new pairs, parallel to the request's `js`.
        updates: Vec<BlockUpdate>,
    },
    /// §5.2(a) targeted variant for a written process: just its new value.
    NewValue {
        /// The new value of the recipient's block.
        new: Bytes,
    },
    /// §5.2(b) delta variant for one parity process: the pre-coded block
    /// `Σ_j g_{i,j} · (b_j′ − b_j)` the recipient XORs into its parity
    /// (coded deltas are linear, so multi-block updates combine into one).
    Delta {
        /// The combined coded parity delta.
        delta: Bytes,
    },
    /// Timestamp-only participation (processes that store neither a
    /// written block nor parity log `⊥`).
    Empty,
}

impl WireSize for ModifyPayload {
    fn wire_size(&self) -> usize {
        match self {
            ModifyPayload::Full { updates } => updates.iter().map(WireSize::wire_size).sum(),
            ModifyPayload::NewValue { new } => new.len(),
            ModifyPayload::Delta { delta } => delta.len(),
            ModifyPayload::Empty => 1,
        }
    }
}

/// A coordinator-to-replica request (Algorithms 2 and 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `[Read, targets]` — report `max-ts`, and the newest block if the
    /// recipient is in `targets`.
    Read {
        /// Processes asked to return their block contents.
        targets: Vec<ProcessId>,
    },
    /// `[Order, ts]` — phase one of a write: reserve the place of `ts` in
    /// the operation order.
    Order {
        /// The write's timestamp.
        ts: Timestamp,
    },
    /// `[Order&Read, j, max, ts]` — order `ts` *and* report the newest
    /// block below `max` (recovery and fast block writes).
    OrderRead {
        /// Whose block to report.
        target: BlockTarget,
        /// Strict upper bound on the reported block's timestamp.
        below: Timestamp,
        /// The operation's timestamp.
        ts: Timestamp,
    },
    /// `[Write, b_i, ts]` — store the recipient's block for version `ts`.
    /// (The pseudocode broadcasts the whole encoded stripe; sending each
    /// process only its own block is the obvious optimization and is what
    /// Table 1's `nB` bandwidth figure assumes.)
    Write {
        /// The block for the recipient to append.
        block: BlockValue,
        /// The write's timestamp.
        ts: Timestamp,
    },
    /// `[Modify, j, b_j, b, ts_j, ts]` — incremental block write,
    /// generalized to a set of data blocks (footnote 2).
    Modify {
        /// The data blocks being written (ascending, distinct).
        js: Vec<ProcessId>,
        /// Timestamp of the version the coordinator read from the written
        /// processes (all must agree for the fast path).
        ts_j: Timestamp,
        /// The write's timestamp.
        ts: Timestamp,
        /// Block data (varies by write strategy).
        payload: ModifyPayload,
    },
    /// §5.1 — discard log entries older than `up_to` (fire-and-forget).
    Gc {
        /// Horizon of a known-complete write.
        up_to: Timestamp,
    },
}

impl Request {
    /// Short operation name for traces.
    pub fn name(&self) -> &'static str {
        match self {
            Request::Read { .. } => "Read",
            Request::Order { .. } => "Order",
            Request::OrderRead { .. } => "Order&Read",
            Request::Write { .. } => "Write",
            Request::Modify { .. } => "Modify",
            Request::Gc { .. } => "Gc",
        }
    }
}

impl WireSize for Request {
    fn wire_size(&self) -> usize {
        match self {
            Request::Read { targets } => 1 + targets.len() * 4,
            Request::Order { .. } => 1 + TS_BYTES,
            Request::OrderRead { .. } => 1 + 2 * TS_BYTES + 5,
            Request::Write { block, .. } => 1 + TS_BYTES + block.wire_size(),
            Request::Modify { js, payload, .. } => {
                1 + 2 * TS_BYTES + 4 * js.len() + payload.wire_size()
            }
            Request::Gc { .. } => 1 + TS_BYTES,
        }
    }
}

/// Serialized size of a timestamp on the wire.
const TS_BYTES: usize = 12;

/// A replica-to-coordinator reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Reply to `Read`.
    ReadR {
        /// `max-ts(log) ≥ ord-ts` — no partial write observed.
        status: bool,
        /// `max-ts(log)` — the replica's newest version timestamp.
        val_ts: Timestamp,
        /// The newest block, if the replica was a target and `status`.
        block: Option<BlockValue>,
    },
    /// Reply to `Order`.
    OrderR {
        /// Whether `ts` was accepted into the order.
        status: bool,
        /// The replica's highest known timestamp (max of `ord-ts` and
        /// `max-ts(log)`); lets a refused coordinator advance its clock
        /// past the competitor before retrying (the PROGRESS acceleration
        /// behind Proposition 23).
        seen: Timestamp,
    },
    /// Reply to `Order&Read`.
    OrderReadR {
        /// Whether `ts` was accepted into the order.
        status: bool,
        /// Timestamp of the reported block (`LowTS` if none reported).
        lts: Timestamp,
        /// The newest block below the request's bound, if asked and
        /// `status`.
        block: Option<BlockValue>,
        /// The replica's highest known timestamp (see [`Reply::OrderR`]).
        seen: Timestamp,
    },
    /// Reply to `Write`.
    WriteR {
        /// Whether the block was appended.
        status: bool,
        /// The replica's highest known timestamp (see [`Reply::OrderR`]).
        seen: Timestamp,
    },
    /// Reply to `Modify`.
    ModifyR {
        /// Whether the modified block was appended.
        status: bool,
        /// The replica's highest known timestamp (see [`Reply::OrderR`]).
        seen: Timestamp,
    },
}

impl Reply {
    /// The reply's status bit.
    pub fn status(&self) -> bool {
        match self {
            Reply::ReadR { status, .. }
            | Reply::OrderR { status, .. }
            | Reply::OrderReadR { status, .. }
            | Reply::WriteR { status, .. }
            | Reply::ModifyR { status, .. } => *status,
        }
    }

    /// The replica's highest known timestamp at reply time.
    pub fn seen(&self) -> Timestamp {
        match self {
            Reply::ReadR { val_ts, .. } => *val_ts,
            Reply::OrderR { seen, .. }
            | Reply::OrderReadR { seen, .. }
            | Reply::WriteR { seen, .. }
            | Reply::ModifyR { seen, .. } => *seen,
        }
    }
}

impl WireSize for Reply {
    fn wire_size(&self) -> usize {
        match self {
            Reply::ReadR { block, .. } => 2 + TS_BYTES + block.wire_size(),
            Reply::OrderR { .. } => 2 + TS_BYTES,
            Reply::OrderReadR { block, .. } => 2 + 2 * TS_BYTES + block.wire_size(),
            Reply::WriteR { .. } => 2 + TS_BYTES,
            Reply::ModifyR { .. } => 2 + TS_BYTES,
        }
    }
}

/// A routed protocol message: request or reply for one stripe's register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Which register instance this message addresses.
    pub stripe: StripeId,
    /// Phase identifier: unique per (coordinator, operation, phase,
    /// iteration); replies echo the request's round.
    pub round: u64,
    /// Request or reply.
    pub kind: Payload,
}

/// The two directions of protocol traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Coordinator → replica.
    Request(Request),
    /// Replica → coordinator.
    Reply(Reply),
}

/// Fixed per-message framing overhead charged by the wire-size model.
pub const HEADER_BYTES: usize = 24;

impl WireSize for Envelope {
    fn wire_size(&self) -> usize {
        HEADER_BYTES
            + match &self.kind {
                Payload::Request(r) => r.wire_size(),
                Payload::Reply(r) => r.wire_size(),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_parts(t, ProcessId::new(1))
    }

    #[test]
    fn block_target_includes() {
        assert!(BlockTarget::All.includes(ProcessId::new(5)));
        assert!(BlockTarget::One(ProcessId::new(5)).includes(ProcessId::new(5)));
        assert!(!BlockTarget::One(ProcessId::new(5)).includes(ProcessId::new(6)));
    }

    #[test]
    fn reply_status_extraction() {
        assert!(Reply::OrderR {
            status: true,
            seen: Timestamp::LOW
        }
        .status());
        assert!(!Reply::WriteR {
            status: false,
            seen: ts(9)
        }
        .status());
        assert_eq!(
            Reply::WriteR {
                status: false,
                seen: ts(9)
            }
            .seen(),
            ts(9)
        );
        assert!(Reply::ReadR {
            status: true,
            val_ts: ts(1),
            block: None
        }
        .status());
    }

    #[test]
    fn wire_size_counts_blocks() {
        let small = Envelope {
            stripe: StripeId(0),
            round: 1,
            kind: Payload::Request(Request::Order { ts: ts(1) }),
        };
        let big = Envelope {
            stripe: StripeId(0),
            round: 1,
            kind: Payload::Request(Request::Write {
                block: BlockValue::Data(Bytes::from(vec![0u8; 1024])),
                ts: ts(1),
            }),
        };
        assert!(big.wire_size() > small.wire_size() + 1000);
        assert!(small.wire_size() >= HEADER_BYTES);
    }

    #[test]
    fn modify_payload_sizes_reflect_strategy() {
        let full = ModifyPayload::Full {
            updates: vec![BlockUpdate {
                old: BlockValue::Data(Bytes::from(vec![0u8; 100])),
                new: Bytes::from(vec![0u8; 100]),
            }],
        };
        let delta = ModifyPayload::Delta {
            delta: Bytes::from(vec![0u8; 100]),
        };
        assert!(full.wire_size() > 200);
        assert!(delta.wire_size() < 110);
        assert_eq!(ModifyPayload::Empty.wire_size(), 1);
    }

    #[test]
    fn request_names() {
        assert_eq!(Request::Order { ts: ts(1) }.name(), "Order");
        assert_eq!(Request::Gc { up_to: ts(1) }.name(), "Gc");
    }
}
