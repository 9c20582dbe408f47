//! Hostile-frame seed corpus: a checked-in set of adversarial inputs that
//! every build must reject with a typed error.
//!
//! The corpus lives in `tests/corpus/*.bin` and is versioned with the
//! code, so a refactor of the decoder is always exercised against the
//! exact byte sequences that encode historical attack shapes (length
//! lies, checksum forgeries, schema violations). `regenerate_corpus`
//! (`#[ignore]`d) rewrites the files from the generators below when the
//! wire format version changes.

use fab_core::{Envelope, Payload, Request, StripeId};
use fab_timestamp::{ProcessId, Timestamp};
use fab_wire::{
    decode_message, encode_frame_into, encode_message, AdminResponse, FrameKind, Message,
    StatsEntry, StatsReport, WireError, HEADER_LEN, MAGIC, VERSION,
};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Frames an arbitrary (possibly mutated) `body` under `kind`.
fn framed(kind: FrameKind, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(kind, body, &mut out);
    out
}

/// The body of `msg`'s frame, to mutate and re-frame.
fn body_of(msg: &Message) -> Vec<u8> {
    encode_message(msg)[HEADER_LEN..].to_vec()
}

/// A well-formed reference frame to mutate.
fn valid_frame() -> Vec<u8> {
    let env = Envelope {
        stripe: StripeId(42),
        round: 7,
        kind: Payload::Request(Request::Order {
            ts: Timestamp::from_parts(99, ProcessId::new(3)),
        }),
    };
    encode_message(&Message::Peer {
        from: ProcessId::new(3),
        env,
    })
}

/// Builds a frame with an arbitrary (possibly wrong) CRC and length.
fn raw_frame(version: u16, kind: u16, body_len: u32, crc: u32, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&body_len.to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// The named corpus: every entry must fail to decode, forever.
fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    let valid = valid_frame();
    let body = &valid[HEADER_LEN..];
    let crc = u32::from_le_bytes([valid[12], valid[13], valid[14], valid[15]]);
    let body_len = body.len() as u32;

    let mut entries: Vec<(&'static str, Vec<u8>)> = Vec::new();

    entries.push(("empty", Vec::new()));
    entries.push(("truncated-header", valid[..HEADER_LEN / 2].to_vec()));
    entries.push(("truncated-body", valid[..valid.len() - 3].to_vec()));

    let mut bad_magic = valid.clone();
    bad_magic[..4].copy_from_slice(b"HTTP");
    entries.push(("bad-magic", bad_magic));

    entries.push((
        "future-version",
        raw_frame(VERSION + 1, 1, body_len, crc, body),
    ));
    entries.push(("unknown-kind", raw_frame(VERSION, 0xBEEF, body_len, crc, body)));

    // The header claims a 4 GiB body: must be refused before allocation.
    entries.push((
        "length-lie-huge",
        raw_frame(VERSION, 1, u32::MAX, crc, body),
    ));
    // The header claims one byte more than present: truncation.
    entries.push((
        "length-lie-short",
        raw_frame(VERSION, 1, body_len + 1, crc, body),
    ));

    let mut forged = valid.clone();
    let last = forged.len() - 1;
    forged[last] ^= 0x40;
    entries.push(("crc-forgery", forged));

    // A valid message followed by junk inside the same body.
    let mut trailing = body_of(&Message::Peer {
        from: ProcessId::new(1),
        env: Envelope {
            stripe: StripeId(1),
            round: 1,
            kind: Payload::Request(Request::Gc {
                up_to: Timestamp::LOW,
            }),
        },
    });
    trailing.extend_from_slice(b"\xDE\xAD\xBE\xEF");
    entries.push(("trailing-bytes", framed(FrameKind::Peer, &trailing)));

    // An undefined payload tag inside an otherwise perfect frame.
    let mut bad_tag = body_of(&Message::Peer {
        from: ProcessId::new(1),
        env: Envelope {
            stripe: StripeId(1),
            round: 1,
            kind: Payload::Request(Request::Gc {
                up_to: Timestamp::LOW,
            }),
        },
    });
    // from(4) + stripe(8) + round(8) = offset 20 is the payload tag.
    bad_tag[20] = 0xFF;
    entries.push(("bad-payload-tag", framed(FrameKind::Peer, &bad_tag)));

    // A `Read` request whose target count claims more elements than the
    // remaining body could hold — the classic allocation bomb.
    let mut bomb = Vec::new();
    bomb.extend_from_slice(&1u32.to_le_bytes()); // from
    bomb.extend_from_slice(&1u64.to_le_bytes()); // stripe
    bomb.extend_from_slice(&1u64.to_le_bytes()); // round
    bomb.push(0); // Payload::Request
    bomb.push(0); // Request::Read
    bomb.extend_from_slice(&u32::MAX.to_le_bytes()); // targets count: lie
    entries.push(("count-bomb", framed(FrameKind::Peer, &bomb)));

    // A client reply whose OpResult tag is undefined.
    let mut bad_reply = Vec::new();
    bad_reply.extend_from_slice(&7u64.to_le_bytes()); // correlation id
    bad_reply.push(0); // Ok
    bad_reply.push(0xEE); // undefined OpResult tag
    entries.push((
        "bad-opresult-tag",
        framed(FrameKind::ClientReply, &bad_reply),
    ));

    // An admin request with an undefined op tag.
    let mut bad_admin = Vec::new();
    bad_admin.extend_from_slice(&5u64.to_le_bytes()); // correlation id
    bad_admin.push(0x77); // undefined AdminOp tag
    entries.push((
        "bad-admin-op-tag",
        framed(FrameKind::AdminRequest, &bad_admin),
    ));

    // A RepairStart body cut off mid-field.
    let mut short_admin = Vec::new();
    short_admin.extend_from_slice(&5u64.to_le_bytes()); // correlation id
    short_admin.push(0); // AdminOp::RepairStart
    short_admin.extend_from_slice(&4u32.to_le_bytes()); // brick
    short_admin.extend_from_slice(&64u64.to_le_bytes()); // stripe_count
    // ...and nothing else: throttles, inflight, scrub_all all missing.
    entries.push((
        "truncated-admin-start",
        framed(FrameKind::AdminRequest, &short_admin),
    ));

    // A RepairStart whose scrub_all byte is not a boolean.
    let mut bad_bool = Vec::new();
    bad_bool.extend_from_slice(&5u64.to_le_bytes()); // correlation id
    bad_bool.push(0); // AdminOp::RepairStart
    bad_bool.extend_from_slice(&4u32.to_le_bytes()); // brick
    bad_bool.extend_from_slice(&64u64.to_le_bytes()); // stripe_count
    bad_bool.extend_from_slice(&0u64.to_le_bytes()); // stripes_per_sec
    bad_bool.extend_from_slice(&0u64.to_le_bytes()); // bytes_per_sec
    bad_bool.extend_from_slice(&4u32.to_le_bytes()); // max_inflight
    bad_bool.push(9); // scrub_all: not 0/1
    entries.push((
        "bad-admin-bool",
        framed(FrameKind::AdminRequest, &bad_bool),
    ));

    // An admin status reply with trailing junk after the fixed payload.
    let mut admin_trailing = Vec::new();
    admin_trailing.extend_from_slice(&6u64.to_le_bytes()); // correlation id
    admin_trailing.push(0); // Ok
    admin_trailing.push(0); // AdminResponse::Started
    admin_trailing.extend_from_slice(b"\xCA\xFE");
    entries.push((
        "admin-trailing-bytes",
        framed(FrameKind::AdminReply, &admin_trailing),
    ));

    // A stats reply cut off inside its first counter's value.
    let reference_stats = {
        let report = StatsReport {
            node: 3,
            counters: vec![StatsEntry {
                name: "op_reads_fastpath".to_string(),
                value: 41,
            }],
            gauges: Vec::new(),
            histograms: Vec::new(),
        };
        body_of(&Message::AdminReply {
            id: 8,
            result: Ok(AdminResponse::Stats(report)),
        })
    };
    entries.push((
        "truncated-stats",
        framed(FrameKind::AdminReply, &reference_stats[..reference_stats.len() - 3]),
    ));

    // A stats reply whose counter count claims ~4 billion entries with an
    // empty body behind it — the stats flavor of the allocation bomb.
    let mut stats_bomb = Vec::new();
    stats_bomb.extend_from_slice(&8u64.to_le_bytes()); // correlation id
    stats_bomb.push(0); // Ok
    stats_bomb.push(3); // AdminResponse::Stats
    stats_bomb.extend_from_slice(&3u32.to_le_bytes()); // node
    stats_bomb.extend_from_slice(&u32::MAX.to_le_bytes()); // counter count: lie
    entries.push((
        "stats-count-bomb",
        framed(FrameKind::AdminReply, &stats_bomb),
    ));

    // A counter name whose byte length claims more than the body holds.
    let mut stats_name_lie = Vec::new();
    stats_name_lie.extend_from_slice(&8u64.to_le_bytes()); // correlation id
    stats_name_lie.push(0); // Ok
    stats_name_lie.push(3); // AdminResponse::Stats
    stats_name_lie.extend_from_slice(&3u32.to_le_bytes()); // node
    stats_name_lie.extend_from_slice(&1u32.to_le_bytes()); // one counter
    // Enough bytes remain to pass the per-entry count guard (>= 12), but
    // the name's own length prefix claims far more than is present.
    stats_name_lie.extend_from_slice(&500u32.to_le_bytes()); // name length: lie
    stats_name_lie.extend_from_slice(b"op_padding"); // ...but 10 bytes present
    entries.push((
        "stats-name-length-lie",
        framed(FrameKind::AdminReply, &stats_name_lie),
    ));

    // A perfectly valid (empty) stats reply followed by junk.
    let mut stats_trailing = body_of(&Message::AdminReply {
        id: 9,
        result: Ok(AdminResponse::Stats(StatsReport::default())),
    });
    stats_trailing.extend_from_slice(b"\xFE\xED");
    entries.push((
        "stats-trailing-bytes",
        framed(FrameKind::AdminReply, &stats_trailing),
    ));

    entries
}

/// Rewrites `tests/corpus/` from the generators. Run manually after an
/// intentional format change:
/// `cargo test -p fab-wire --test hostile regenerate_corpus -- --ignored`
#[test]
#[ignore = "writes the checked-in corpus; run only on intentional format changes"]
fn regenerate_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in corpus() {
        std::fs::write(dir.join(format!("{name}.bin")), bytes).unwrap();
    }
}

/// Every checked-in corpus file must be rejected with a typed error.
#[test]
fn checked_in_corpus_is_always_rejected() {
    let dir = corpus_dir();
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("tests/corpus exists and is checked in") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("bin") {
            continue;
        }
        let bytes = std::fs::read(&path).unwrap();
        match decode_message(&bytes) {
            Err(_) => seen += 1,
            Ok((msg, _)) => panic!("{} decoded as {msg:?}", path.display()),
        }
    }
    assert!(seen >= 16, "corpus too small: only {seen} files");
}

/// The in-memory generators agree with the checked-in files (catches a
/// stale corpus after a format change).
#[test]
fn corpus_files_match_generators() {
    for (name, bytes) in corpus() {
        let path = corpus_dir().join(format!("{name}.bin"));
        let on_disk = std::fs::read(&path)
            .unwrap_or_else(|_| panic!("{} missing — run regenerate_corpus", path.display()));
        assert_eq!(on_disk, bytes, "{name}.bin is stale — run regenerate_corpus");
    }
}

/// Each corpus entry fails for the *intended* reason (the corpus encodes
/// attack shapes, not incidental breakage).
#[test]
fn corpus_entries_fail_for_their_intended_reason() {
    let by_name: std::collections::HashMap<_, _> = corpus().into_iter().collect();
    let expect = |name: &str, want: fn(&WireError) -> bool| {
        let err = decode_message(&by_name[name]).unwrap_err();
        assert!(want(&err), "{name}: unexpected {err:?}");
    };
    expect("empty", |e| matches!(e, WireError::Truncated { .. }));
    expect("truncated-header", |e| matches!(e, WireError::Truncated { .. }));
    expect("truncated-body", |e| matches!(e, WireError::Truncated { .. }));
    expect("bad-magic", |e| matches!(e, WireError::BadMagic { .. }));
    expect("future-version", |e| {
        matches!(e, WireError::UnsupportedVersion { .. })
    });
    expect("unknown-kind", |e| matches!(e, WireError::UnknownKind { .. }));
    expect("length-lie-huge", |e| {
        matches!(e, WireError::BodyTooLarge { .. })
    });
    expect("length-lie-short", |e| matches!(e, WireError::Truncated { .. }));
    expect("crc-forgery", |e| {
        matches!(e, WireError::ChecksumMismatch { .. })
    });
    expect("trailing-bytes", |e| {
        matches!(e, WireError::TrailingBytes { .. })
    });
    expect("bad-payload-tag", |e| matches!(e, WireError::BadTag { .. }));
    expect("count-bomb", |e| matches!(e, WireError::BadCount { .. }));
    expect("bad-opresult-tag", |e| matches!(e, WireError::BadTag { .. }));
    expect("bad-admin-op-tag", |e| matches!(e, WireError::BadTag { .. }));
    expect("truncated-admin-start", |e| {
        matches!(e, WireError::Truncated { .. })
    });
    expect("bad-admin-bool", |e| matches!(e, WireError::BadTag { .. }));
    expect("admin-trailing-bytes", |e| {
        matches!(e, WireError::TrailingBytes { .. })
    });
    expect("truncated-stats", |e| matches!(e, WireError::Truncated { .. }));
    expect("stats-count-bomb", |e| matches!(e, WireError::BadCount { .. }));
    expect("stats-name-length-lie", |e| {
        matches!(e, WireError::Truncated { .. })
    });
    expect("stats-trailing-bytes", |e| {
        matches!(e, WireError::TrailingBytes { .. })
    });
}

/// Sanity: the reference frame itself is valid (the corpus mutations are
/// what break it).
#[test]
fn reference_frame_is_valid() {
    let frame = valid_frame();
    let (msg, used) = decode_message(&frame).unwrap();
    assert_eq!(used, frame.len());
    assert!(matches!(msg, Message::Peer { .. }));
    assert_eq!(encode_message(&msg), frame);
}
