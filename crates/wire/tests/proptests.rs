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
use propcheck::{ensure, ensure_eq, Gen};

// ------------------------------------------------------------ generators --

fn pid(g: &mut Gen) -> ProcessId {
    ProcessId::new(g.range(0u32..64))
}

fn ts(g: &mut Gen) -> Timestamp {
    match g.range(0..3) {
        0 => Timestamp::LOW,
        1 => Timestamp::HIGH,
        // ticks ≥ 1 and pid < 64 can never collide with a sentinel.
        _ => Timestamp::from_parts(g.range(1u64..u64::MAX), pid(g)),
    }
}

fn bytes(g: &mut Gen) -> Bytes {
    Bytes::from(g.vec(0..48, Gen::u8))
}

fn block_value(g: &mut Gen) -> BlockValue {
    match g.range(0..3) {
        0 => BlockValue::Bottom,
        1 => BlockValue::Nil,
        _ => BlockValue::Data(bytes(g)),
    }
}

fn opt_block(g: &mut Gen) -> Option<BlockValue> {
    g.bool().then(|| block_value(g))
}

fn block_target(g: &mut Gen) -> BlockTarget {
    match g.range(0..3) {
        0 => BlockTarget::All,
        1 => BlockTarget::One(pid(g)),
        _ => BlockTarget::Many(g.vec(0..6, pid)),
    }
}

fn modify_payload(g: &mut Gen) -> ModifyPayload {
    match g.range(0..4) {
        0 => ModifyPayload::Full {
            updates: g.vec(0..4, |g| BlockUpdate { old: block_value(g), new: bytes(g) }),
        },
        1 => ModifyPayload::NewValue { new: bytes(g) },
        2 => ModifyPayload::Delta { delta: bytes(g) },
        _ => ModifyPayload::Empty,
    }
}

fn request(g: &mut Gen) -> Request {
    match g.range(0..6) {
        0 => Request::Read { targets: g.vec(0..8, pid) },
        1 => Request::Order { ts: ts(g) },
        2 => Request::OrderRead { target: block_target(g), below: ts(g), ts: ts(g) },
        3 => Request::Write { block: block_value(g), ts: ts(g) },
        4 => Request::Modify {
            js: g.vec(0..6, pid),
            ts_j: ts(g),
            ts: ts(g),
            payload: modify_payload(g),
        },
        _ => Request::Gc { up_to: ts(g) },
    }
}

fn reply(g: &mut Gen) -> Reply {
    let status = g.bool();
    match g.range(0..5) {
        0 => Reply::ReadR { status, val_ts: ts(g), block: opt_block(g) },
        1 => Reply::OrderR { status, seen: ts(g) },
        2 => Reply::OrderReadR { status, lts: ts(g), block: opt_block(g), seen: ts(g) },
        3 => Reply::WriteR { status, seen: ts(g) },
        _ => Reply::ModifyR { status, seen: ts(g) },
    }
}

fn envelope(g: &mut Gen) -> Envelope {
    Envelope {
        stripe: StripeId(g.u64()),
        round: g.u64(),
        kind: if g.bool() { Payload::Request(request(g)) } else { Payload::Reply(reply(g)) },
    }
}

fn client_op(g: &mut Gen) -> ClientOp {
    let stripe = StripeId(g.u64());
    let j = |g: &mut Gen| g.u64() as u32;
    match g.range(0..7) {
        0 => ClientOp::ReadStripe { stripe },
        1 => ClientOp::WriteStripe { stripe, blocks: g.vec(0..5, bytes) },
        2 => ClientOp::ReadBlock { stripe, j: j(g) },
        3 => ClientOp::WriteBlock { stripe, j: j(g), block: bytes(g) },
        4 => ClientOp::ReadBlocks { stripe, js: g.vec(0..6, j) },
        5 => ClientOp::WriteBlocks { stripe, updates: g.vec(0..4, |g| (j(g), bytes(g))) },
        _ => ClientOp::Scrub { stripe },
    }
}

fn op_result(g: &mut Gen) -> OpResult {
    match g.range(0..6) {
        0 => OpResult::Stripe(StripeValue::Nil),
        1 => OpResult::Stripe(StripeValue::Data(g.vec(0..5, bytes))),
        2 => OpResult::Block(block_value(g)),
        3 => OpResult::Blocks(g.vec(0..5, block_value)),
        4 => OpResult::Written,
        _ => OpResult::Aborted(g.pick(&[
            AbortReason::Conflict,
            AbortReason::RecoveryExhausted,
            AbortReason::Internal,
        ])),
    }
}

fn admin_op(g: &mut Gen) -> AdminOp {
    match g.range(0..3) {
        0 => AdminOp::RepairStart {
            brick: g.u64() as u32,
            stripe_count: g.u64(),
            stripes_per_sec: g.u64(),
            bytes_per_sec: g.u64(),
            max_inflight: g.u64() as u32,
            scrub_all: g.bool(),
        },
        1 => AdminOp::RepairStatus,
        _ => AdminOp::RepairAbort,
    }
}

fn admin_response(g: &mut Gen) -> AdminResponse {
    match g.range(0..3) {
        0 => AdminResponse::Started,
        1 => AdminResponse::Status(RepairProgress {
            planned: g.u64(),
            repaired: g.u64(),
            skipped: g.u64(),
            retried: g.u64(),
            failed: g.u64(),
            bytes_reconstructed: g.u64(),
            throttle_waits: g.u64(),
            watermark: g.u64(),
            scrub_p50_micros: g.u64(),
            scrub_p99_micros: g.u64(),
            running: g.bool(),
            complete: g.bool(),
        }),
        _ => AdminResponse::Aborted,
    }
}

/// `Ok(ok(g))`, or a client error half the time.
fn refusable<T>(g: &mut Gen, ok: fn(&mut Gen) -> T) -> Result<T, ClientError> {
    match g.range(0..4) {
        0 => Err(ClientError::InvalidRequest),
        1 => Err(ClientError::Unavailable),
        _ => Ok(ok(g)),
    }
}

fn message(g: &mut Gen) -> Message {
    match g.range(0..5) {
        0 => Message::Peer { from: pid(g), env: envelope(g) },
        1 => Message::ClientRequest { id: g.u64(), op: client_op(g) },
        2 => Message::ClientReply { id: g.u64(), result: refusable(g, op_result) },
        3 => Message::AdminRequest { id: g.u64(), op: admin_op(g) },
        _ => Message::AdminReply { id: g.u64(), result: refusable(g, admin_response) },
    }
}

fn frame_kind(g: &mut Gen, kinds: usize) -> FrameKind {
    g.pick(&[
        FrameKind::Peer,
        FrameKind::ClientRequest,
        FrameKind::ClientReply,
        FrameKind::AdminRequest,
        FrameKind::AdminReply,
    ][..kinds])
}

/// `msgs` decode back-to-back out of `stream`, consuming all of it.
fn decodes_in_order(stream: &[u8], msgs: &[Message]) -> Result<(), String> {
    let mut at = 0;
    for m in msgs {
        let (back, used) = decode_message(&stream[at..]).expect("frame boundary");
        ensure_eq!(&back, m);
        at += used;
    }
    ensure_eq!(at, stream.len());
    Ok(())
}

// ------------------------------------------------------------ properties --

propcheck::properties! {
    cases: 256;

    /// Encode→decode is the identity, consuming exactly the frame.
    fn round_trip_identity(g) {
        let msg = message(g);
        let frame = encode_message(&msg);
        let (back, used) = decode_message(&frame).expect("own encoding must decode");
        ensure_eq!(back, msg);
        ensure_eq!(used, frame.len());
    }

    /// Every strict prefix of a valid frame is rejected with a typed error —
    /// never a panic, never a bogus success.
    fn every_truncation_is_an_error(g) {
        let frame = encode_message(&message(g));
        for cut in 0..frame.len() {
            if let Ok((m, _)) = decode_message(&frame[..cut]) {
                return Err(format!("cut={cut} decoded {m:?}"));
            }
        }
    }

    /// A single flipped bit anywhere in the frame is either rejected or —
    /// only when the flip happens to produce another completely valid frame —
    /// decodes to a message that differs from the original.
    fn bit_flips_never_panic_and_never_forge_the_original(g) {
        let msg = message(g);
        let mut bad = encode_message(&msg);
        let (idx, bit) = (g.range(0..bad.len()), g.range(0u8..8));
        bad[idx] ^= 1 << bit;
        // The common case is an error: CRC or header validation.
        if let Ok((m, _)) = decode_message(&bad) {
            ensure!(m != msg, "flip at byte {idx} bit {bit}");
        }
    }

    /// A header that lies about the body length is rejected before any
    /// allocation sized from the lie (oversized) or any misparse (short).
    fn length_lies_are_rejected(g) {
        let mut frame = encode_message(&message(g));
        let truth = u32::from_le_bytes([frame[8], frame[9], frame[10], frame[11]]);
        // Any u32 but the truth, at every magnitude (shorter lies too).
        let lie = (g.u64() as u32) >> g.range(0u32..32);
        let lie = if lie == truth { !truth } else { lie };
        frame[8..12].copy_from_slice(&lie.to_le_bytes());
        match decode_message(&frame) {
            Err(
                WireError::BodyTooLarge { .. }
                | WireError::Truncated { .. }
                | WireError::ChecksumMismatch { .. }
                | WireError::TrailingBytes { .. },
            ) => {}
            other => return Err(format!("lie={lie} gave {other:?}")),
        }
    }

    /// Concatenated frames decode one at a time, each reporting its exact
    /// length, so a socket reader can stream them back-to-back.
    fn frames_stream_back_to_back(g) {
        let msgs = g.vec(1..4, message);
        let stream: Vec<u8> = msgs.iter().flat_map(encode_message).collect();
        decodes_in_order(&stream, &msgs)?;
    }

    /// Random bytes under a valid header (correct CRC!) still cannot crash
    /// the body decoders: any outcome is fine except a panic.
    fn random_bodies_with_valid_checksums_never_panic(g) {
        let mut frame = Vec::new();
        encode_frame_into(frame_kind(g, 5), &g.vec(0..256, Gen::u8), &mut frame);
        let _ = decode_message(&frame); // must return, Ok or Err
    }

    /// Appending a frame never disturbs bytes already in the buffer, and the
    /// frame's bytes do not depend on where in the buffer it lands.
    fn encode_into_is_position_independent(g) {
        let (msg, prefix) = (message(g), g.vec(0..32, Gen::u8));
        let mut buf = prefix.clone();
        encode_message_into(&msg, &mut buf);
        ensure_eq!(&buf[..prefix.len()], &prefix[..]);
        ensure_eq!(&buf[prefix.len()..], &encode_message(&msg)[..]);
    }

    /// FrameBuilder (header patched in place) matches encode_frame_into
    /// (header computed up front) for any body, including when the builder's
    /// body is appended piecewise.
    fn frame_builder_matches_encode_frame_into(g) {
        let (kind, body) = (frame_kind(g, 3), g.vec(0..128, Gen::u8));
        let mut reference = Vec::new();
        encode_frame_into(kind, &body, &mut reference);

        let mut via_builder = Vec::new();
        let frame = FrameBuilder::begin(&mut via_builder);
        let cut = g.range(0..=body.len());
        via_builder.extend_from_slice(&body[..cut]);
        via_builder.extend_from_slice(&body[cut..]);
        frame.finish(kind, &mut via_builder);
        ensure_eq!(&via_builder[..], &reference[..]);
    }

    /// Back-to-back frames built with the `_into` encoders into ONE reused
    /// buffer stream-decode exactly like individually allocated frames.
    fn reused_buffer_streams_decode(g) {
        let msgs = g.vec(1..4, message);
        let mut stream = Vec::new();
        for m in &msgs {
            encode_message_into(m, &mut stream);
        }
        decodes_in_order(&stream, &msgs)?;
    }
}
