//! Property tests for the wire codec.
//!
//! Two properties carry the whole crate:
//!
//! 1. **Round-trip identity** — any encodable message decodes back to an
//!    equal value, consuming exactly the bytes it produced.
//! 2. **Hostile-input totality** — any mutation of a valid frame
//!    (truncation, bit flip, length lie) produces a typed [`WireError`]
//!    or a *different* message (when the flip lands in the already-decoded
//!    plaintext of an equally-valid frame), never a panic and never an
//!    allocation bigger than the input could justify.

use bytes::Bytes;
use fab_core::{
    AbortReason, BlockTarget, BlockUpdate, BlockValue, Envelope, ModifyPayload, OpResult, Payload,
    Reply, Request, StripeId, StripeValue,
};
use fab_timestamp::{ProcessId, Timestamp};
use fab_wire::{
    decode_message, encode_frame_into, encode_message, encode_message_into, AdminOp, AdminResponse,
    ClientError, ClientOp, FrameBuilder, FrameKind, Message, RepairProgress, WireError,
};
use proptest::prelude::*;

// ------------------------------------------------------------ strategies --

fn arb_pid() -> impl Strategy<Value = ProcessId> {
    (0u32..64).prop_map(ProcessId::new)
}

fn arb_ts() -> impl Strategy<Value = Timestamp> {
    prop_oneof![
        Just(Timestamp::LOW),
        Just(Timestamp::HIGH),
        // ticks ≥ 1 and pid < 64 can never collide with a sentinel.
        (1u64..u64::MAX, 0u32..64)
            .prop_map(|(t, p)| Timestamp::from_parts(t, ProcessId::new(p))),
    ]
}

fn arb_bytes() -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..48).prop_map(Bytes::from)
}

fn arb_block_value() -> impl Strategy<Value = BlockValue> {
    prop_oneof![
        Just(BlockValue::Bottom),
        Just(BlockValue::Nil),
        arb_bytes().prop_map(BlockValue::Data),
    ]
}

fn arb_block_target() -> impl Strategy<Value = BlockTarget> {
    prop_oneof![
        Just(BlockTarget::All),
        arb_pid().prop_map(BlockTarget::One),
        proptest::collection::vec(arb_pid(), 0..6).prop_map(BlockTarget::Many),
    ]
}

fn arb_modify_payload() -> impl Strategy<Value = ModifyPayload> {
    prop_oneof![
        proptest::collection::vec(
            (arb_block_value(), arb_bytes()).prop_map(|(old, new)| BlockUpdate { old, new }),
            0..4
        )
        .prop_map(|updates| ModifyPayload::Full { updates }),
        arb_bytes().prop_map(|new| ModifyPayload::NewValue { new }),
        arb_bytes().prop_map(|delta| ModifyPayload::Delta { delta }),
        Just(ModifyPayload::Empty),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        proptest::collection::vec(arb_pid(), 0..8).prop_map(|targets| Request::Read { targets }),
        arb_ts().prop_map(|ts| Request::Order { ts }),
        (arb_block_target(), arb_ts(), arb_ts())
            .prop_map(|(target, below, ts)| Request::OrderRead { target, below, ts }),
        (arb_block_value(), arb_ts()).prop_map(|(block, ts)| Request::Write { block, ts }),
        (
            proptest::collection::vec(arb_pid(), 0..6),
            arb_ts(),
            arb_ts(),
            arb_modify_payload()
        )
            .prop_map(|(js, ts_j, ts, payload)| Request::Modify {
                js,
                ts_j,
                ts,
                payload
            }),
        arb_ts().prop_map(|up_to| Request::Gc { up_to }),
    ]
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    let opt_block = || proptest::option::of(arb_block_value());
    prop_oneof![
        (any::<bool>(), arb_ts(), opt_block())
            .prop_map(|(status, val_ts, block)| Reply::ReadR {
                status,
                val_ts,
                block
            }),
        (any::<bool>(), arb_ts()).prop_map(|(status, seen)| Reply::OrderR { status, seen }),
        (any::<bool>(), arb_ts(), opt_block(), arb_ts()).prop_map(
            |(status, lts, block, seen)| Reply::OrderReadR {
                status,
                lts,
                block,
                seen
            }
        ),
        (any::<bool>(), arb_ts()).prop_map(|(status, seen)| Reply::WriteR { status, seen }),
        (any::<bool>(), arb_ts()).prop_map(|(status, seen)| Reply::ModifyR { status, seen }),
    ]
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (
        any::<u64>(),
        any::<u64>(),
        prop_oneof![
            arb_request().prop_map(Payload::Request),
            arb_reply().prop_map(Payload::Reply),
        ],
    )
        .prop_map(|(stripe, round, kind)| Envelope {
            stripe: StripeId(stripe),
            round,
            kind,
        })
}

fn arb_client_op() -> impl Strategy<Value = ClientOp> {
    let stripe = || any::<u64>().prop_map(StripeId);
    prop_oneof![
        stripe().prop_map(|stripe| ClientOp::ReadStripe { stripe }),
        (stripe(), proptest::collection::vec(arb_bytes(), 0..5))
            .prop_map(|(stripe, blocks)| ClientOp::WriteStripe { stripe, blocks }),
        (stripe(), any::<u32>()).prop_map(|(stripe, j)| ClientOp::ReadBlock { stripe, j }),
        (stripe(), any::<u32>(), arb_bytes())
            .prop_map(|(stripe, j, block)| ClientOp::WriteBlock { stripe, j, block }),
        (stripe(), proptest::collection::vec(any::<u32>(), 0..6))
            .prop_map(|(stripe, js)| ClientOp::ReadBlocks { stripe, js }),
        (
            stripe(),
            proptest::collection::vec((any::<u32>(), arb_bytes()), 0..4)
        )
            .prop_map(|(stripe, updates)| ClientOp::WriteBlocks { stripe, updates }),
        stripe().prop_map(|stripe| ClientOp::Scrub { stripe }),
    ]
}

fn arb_op_result() -> impl Strategy<Value = OpResult> {
    prop_oneof![
        Just(OpResult::Stripe(StripeValue::Nil)),
        proptest::collection::vec(arb_bytes(), 0..5)
            .prop_map(|blocks| OpResult::Stripe(StripeValue::Data(blocks))),
        arb_block_value().prop_map(OpResult::Block),
        proptest::collection::vec(arb_block_value(), 0..5).prop_map(OpResult::Blocks),
        Just(OpResult::Written),
        prop_oneof![
            Just(AbortReason::Conflict),
            Just(AbortReason::RecoveryExhausted),
            Just(AbortReason::Internal),
        ]
        .prop_map(OpResult::Aborted),
    ]
}

fn arb_admin_op() -> impl Strategy<Value = AdminOp> {
    prop_oneof![
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<bool>()
        )
            .prop_map(
                |(brick, stripe_count, stripes_per_sec, bytes_per_sec, max_inflight, scrub_all)| {
                    AdminOp::RepairStart {
                        brick,
                        stripe_count,
                        stripes_per_sec,
                        bytes_per_sec,
                        max_inflight,
                        scrub_all,
                    }
                }
            ),
        Just(AdminOp::RepairStatus),
        Just(AdminOp::RepairAbort),
    ]
}

fn arb_admin_response() -> impl Strategy<Value = AdminResponse> {
    prop_oneof![
        Just(AdminResponse::Started),
        (
            proptest::collection::vec(any::<u64>(), 10),
            any::<bool>(),
            any::<bool>()
        )
            .prop_map(|(f, running, complete)| {
                AdminResponse::Status(RepairProgress {
                    planned: f[0],
                    repaired: f[1],
                    skipped: f[2],
                    retried: f[3],
                    failed: f[4],
                    bytes_reconstructed: f[5],
                    throttle_waits: f[6],
                    watermark: f[7],
                    scrub_p50_micros: f[8],
                    scrub_p99_micros: f[9],
                    running,
                    complete,
                })
            }),
        Just(AdminResponse::Aborted),
    ]
}

fn arb_client_error() -> impl Strategy<Value = ClientError> {
    prop_oneof![
        Just(ClientError::InvalidRequest),
        Just(ClientError::Unavailable)
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (arb_pid(), arb_envelope()).prop_map(|(from, env)| Message::Peer { from, env }),
        (any::<u64>(), arb_client_op()).prop_map(|(id, op)| Message::ClientRequest { id, op }),
        (
            any::<u64>(),
            prop_oneof![
                arb_op_result().prop_map(Ok),
                arb_client_error().prop_map(Err),
            ]
        )
            .prop_map(|(id, result)| Message::ClientReply { id, result }),
        (any::<u64>(), arb_admin_op()).prop_map(|(id, op)| Message::AdminRequest { id, op }),
        (
            any::<u64>(),
            prop_oneof![
                arb_admin_response().prop_map(Ok),
                arb_client_error().prop_map(Err),
            ]
        )
            .prop_map(|(id, result)| Message::AdminReply { id, result }),
    ]
}

// ------------------------------------------------------------ properties --

proptest! {
    /// Encode→decode is the identity, consuming exactly the frame.
    #[test]
    fn round_trip_identity(msg in arb_message()) {
        let frame = encode_message(&msg);
        let (back, used) = decode_message(&frame).expect("own encoding must decode");
        prop_assert_eq!(back, msg);
        prop_assert_eq!(used, frame.len());
    }

    /// Every strict prefix of a valid frame is rejected with a typed
    /// error — never a panic, never a bogus success.
    #[test]
    fn every_truncation_is_an_error(msg in arb_message()) {
        let frame = encode_message(&msg);
        for cut in 0..frame.len() {
            match decode_message(&frame[..cut]) {
                Err(_) => {}
                Ok((m, _)) => prop_assert!(false, "cut={} decoded {:?}", cut, m),
            }
        }
    }

    /// A single flipped bit anywhere in the frame is either rejected or —
    /// only when the flip happens to produce another completely valid
    /// frame — decodes to a message that differs from the original.
    #[test]
    fn bit_flips_never_panic_and_never_forge_the_original(
        msg in arb_message(),
        byte_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let frame = encode_message(&msg);
        let mut bad = frame.clone();
        let idx = byte_seed % bad.len();
        bad[idx] ^= 1 << bit;
        match decode_message(&bad) {
            Err(_) => {} // the common case: CRC or header validation
            Ok((m, _)) => prop_assert_ne!(m, msg, "flip at byte {} bit {}", idx, bit),
        }
    }

    /// A header that lies about the body length is rejected before any
    /// allocation sized from the lie (oversized) or any misparse (short).
    #[test]
    fn length_lies_are_rejected(msg in arb_message(), lie in any::<u32>()) {
        let mut frame = encode_message(&msg);
        let truth = u32::from_le_bytes([frame[8], frame[9], frame[10], frame[11]]);
        prop_assume!(lie != truth);
        frame[8..12].copy_from_slice(&lie.to_le_bytes());
        match decode_message(&frame) {
            Err(
                WireError::BodyTooLarge { .. }
                | WireError::Truncated { .. }
                | WireError::ChecksumMismatch { .. }
                | WireError::TrailingBytes { .. }
            ) => {}
            other => prop_assert!(false, "lie={} gave {:?}", lie, other),
        }
    }

    /// Concatenated frames decode one at a time, each reporting its exact
    /// length, so a socket reader can stream them back-to-back.
    #[test]
    fn frames_stream_back_to_back(
        msgs in proptest::collection::vec(arb_message(), 1..4)
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_message(m));
        }
        let mut at = 0;
        for m in &msgs {
            let (back, used) = decode_message(&stream[at..]).expect("frame boundary");
            prop_assert_eq!(&back, m);
            at += used;
        }
        prop_assert_eq!(at, stream.len());
    }

    /// Random bytes under a valid header (correct CRC!) still cannot crash
    /// the body decoders: any outcome is fine except a panic.
    #[test]
    fn random_bodies_with_valid_checksums_never_panic(
        kind in 0u16..6,
        body in proptest::collection::vec(any::<u8>(), 0..256)
    ) {
        let kind = match kind {
            0 => fab_wire::FrameKind::Peer,
            1 => fab_wire::FrameKind::ClientRequest,
            2 => fab_wire::FrameKind::ClientReply,
            3 => fab_wire::FrameKind::AdminRequest,
            _ => fab_wire::FrameKind::AdminReply,
        };
        let mut frame = Vec::new();
        encode_frame_into(kind, &body, &mut frame);
        let _ = decode_message(&frame); // must return, Ok or Err
    }

    /// Appending a frame never disturbs bytes already in the buffer, and
    /// the frame's bytes do not depend on where in the buffer it lands.
    #[test]
    fn encode_into_is_position_independent(
        msg in arb_message(),
        prefix in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut buf = prefix.clone();
        encode_message_into(&msg, &mut buf);
        let alone = encode_message(&msg);
        prop_assert_eq!(&buf[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&buf[prefix.len()..], &alone[..]);
    }

    /// FrameBuilder (header patched in place) matches encode_frame_into
    /// (header computed up front) for any body, including when the
    /// builder's body is appended piecewise.
    #[test]
    fn frame_builder_matches_encode_frame_into(
        kind in 0u16..3,
        body in proptest::collection::vec(any::<u8>(), 0..128),
        split in any::<usize>(),
    ) {
        let kind = match kind {
            0 => FrameKind::Peer,
            1 => FrameKind::ClientRequest,
            _ => FrameKind::ClientReply,
        };
        let mut reference = Vec::new();
        encode_frame_into(kind, &body, &mut reference);

        let mut via_builder = Vec::new();
        let frame = FrameBuilder::begin(&mut via_builder);
        let cut = split % (body.len() + 1);
        via_builder.extend_from_slice(&body[..cut]);
        via_builder.extend_from_slice(&body[cut..]);
        frame.finish(kind, &mut via_builder);
        prop_assert_eq!(&via_builder[..], &reference[..]);
    }

    /// Back-to-back frames built with the `_into` encoders into ONE reused
    /// buffer stream-decode exactly like individually allocated frames.
    #[test]
    fn reused_buffer_streams_decode(
        msgs in proptest::collection::vec(arb_message(), 1..4)
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            encode_message_into(m, &mut stream);
        }
        let mut at = 0;
        for m in &msgs {
            let (back, used) = decode_message(&stream[at..]).expect("frame boundary");
            prop_assert_eq!(&back, m);
            at += used;
        }
        prop_assert_eq!(at, stream.len());
    }
}
