//! Frame layer: the fixed 16-byte header that delimits and protects every
//! message on a FAB connection.
//!
//! Byte layout (all integers little-endian; see DESIGN.md §7 for the
//! rationale of each field):
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     4  magic            b"FABW"
//!      4     2  protocol version (currently 1)
//!      6     2  message kind     (1 = peer, 2 = client req, 3 = reply,
//!                                  4 = admin req, 5 = admin reply)
//!      8     4  body length      bytes following the header
//!     12     4  CRC32 (IEEE)     over the body bytes only
//!     16     …  body             kind-specific encoding (`codec`)
//! ```
//!
//! The header is fixed-size so a reader can `read_exact` it, validate it,
//! and only then commit to reading (and allocating for) the body. A
//! length-lying header is rejected by [`MAX_BODY_LEN`] before any
//! allocation happens; a corrupted body is rejected by the checksum before
//! any message decoding happens. All input is treated as untrusted.

use crate::error::WireError;
use fab_store::crc32;

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"FABW";

/// The wire-protocol version this build speaks.
pub const VERSION: u16 = 1;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 16;

/// Upper bound on a frame body. Generous for full-stripe writes of large
/// blocks (a 5-of-8 stripe of 1 MiB blocks is ~5 MiB) while keeping a
/// hostile header from reserving unbounded memory.
pub const MAX_BODY_LEN: usize = 64 << 20;

/// Message kinds carried in the frame header.
///
/// Kind tags are part of the versioned format: new kinds may be added in
/// later versions, and an unknown kind is a decode error (never a panic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum FrameKind {
    /// Brick↔brick protocol traffic: a routed [`fab_core::Envelope`]
    /// tagged with the sender's process id.
    Peer = 1,
    /// Client→brick operation request.
    ClientRequest = 2,
    /// Brick→client operation reply.
    ClientReply = 3,
    /// Client→brick administrative request (repair orchestration).
    AdminRequest = 4,
    /// Brick→client administrative reply.
    AdminReply = 5,
}

impl FrameKind {
    /// Decodes a kind tag.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownKind`] for tags this version does not define.
    pub fn decode(tag: u16) -> Result<Self, WireError> {
        match tag {
            1 => Ok(FrameKind::Peer),
            2 => Ok(FrameKind::ClientRequest),
            3 => Ok(FrameKind::ClientReply),
            4 => Ok(FrameKind::AdminRequest),
            5 => Ok(FrameKind::AdminReply),
            found => Err(WireError::UnknownKind { found }),
        }
    }
}

/// A validated frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct FrameHeader {
    /// The message kind of the body.
    pub kind: FrameKind,
    /// Length of the body in bytes (≤ [`MAX_BODY_LEN`]).
    pub body_len: usize,
    /// CRC32 (IEEE) of the body bytes.
    pub crc: u32,
}

impl FrameHeader {
    /// Builds the header for `body` under `kind`.
    pub fn for_body(kind: FrameKind, body: &[u8]) -> Self {
        debug_assert!(body.len() <= MAX_BODY_LEN);
        FrameHeader {
            kind,
            body_len: body.len(),
            crc: crc32(body),
        }
    }

    /// Serializes the header into its 16-byte wire form.
    #[must_use]
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..4].copy_from_slice(&MAGIC);
        out[4..6].copy_from_slice(&VERSION.to_le_bytes());
        out[6..8].copy_from_slice(&(self.kind as u16).to_le_bytes());
        // body_len ≤ MAX_BODY_LEN < 2^32, so the truncation cannot occur.
        out[8..12].copy_from_slice(&(self.body_len as u32).to_le_bytes());
        out[12..16].copy_from_slice(&self.crc.to_le_bytes());
        out
    }

    /// Parses and validates a 16-byte header.
    ///
    /// Validation order is magic → version → kind → length, so the caller
    /// learns the most fundamental mismatch first (a non-FAB peer is
    /// reported as `BadMagic`, not as a bizarre length).
    ///
    /// # Errors
    ///
    /// [`WireError`] if the magic, version, kind, or declared length is
    /// invalid. The body checksum is *not* checked here — the body has
    /// typically not been read yet; use [`FrameHeader::verify_body`].
    pub fn decode(raw: &[u8; HEADER_LEN]) -> Result<Self, WireError> {
        let magic: [u8; 4] = [raw[0], raw[1], raw[2], raw[3]];
        if magic != MAGIC {
            return Err(WireError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes([raw[4], raw[5]]);
        if version != VERSION {
            return Err(WireError::UnsupportedVersion { found: version });
        }
        let kind = FrameKind::decode(u16::from_le_bytes([raw[6], raw[7]]))?;
        let body_len = u32::from_le_bytes([raw[8], raw[9], raw[10], raw[11]]);
        if body_len as usize > MAX_BODY_LEN {
            return Err(WireError::BodyTooLarge {
                declared: u64::from(body_len),
                max: MAX_BODY_LEN as u64,
            });
        }
        let crc = u32::from_le_bytes([raw[12], raw[13], raw[14], raw[15]]);
        Ok(FrameHeader {
            kind,
            body_len: body_len as usize,
            crc,
        })
    }

    /// Checks the received body against the header's checksum.
    ///
    /// # Errors
    ///
    /// [`WireError::ChecksumMismatch`] if the CRC32 of `body` differs from
    /// the header's, [`WireError::Truncated`] if the body is shorter than
    /// declared.
    pub fn verify_body(&self, body: &[u8]) -> Result<(), WireError> {
        if body.len() != self.body_len {
            return Err(WireError::Truncated {
                needed: self.body_len,
                have: body.len(),
            });
        }
        let actual = crc32(body);
        if actual != self.crc {
            return Err(WireError::ChecksumMismatch {
                expected: self.crc,
                actual,
            });
        }
        Ok(())
    }
}

/// Appends one frame (header + body) for `body` under `kind` to `out`
/// without allocating: the caller owns (and reuses) the buffer.
pub fn encode_frame_into(kind: FrameKind, body: &[u8], out: &mut Vec<u8>) {
    let header = FrameHeader::for_body(kind, body);
    out.reserve(HEADER_LEN + body.len());
    out.extend_from_slice(&header.encode());
    out.extend_from_slice(body);
}

/// Builds a frame directly inside a caller-owned buffer, skipping the
/// intermediate body allocation: reserve the header, append the body bytes
/// straight into the buffer, then patch the header in place.
///
/// ```
/// use fab_wire::{encode_frame_into, FrameBuilder, FrameKind};
/// let mut buf = Vec::new();
/// let frame = FrameBuilder::begin(&mut buf);
/// buf.extend_from_slice(b"payload");
/// frame.finish(FrameKind::Peer, &mut buf);
/// let mut copied = Vec::new();
/// encode_frame_into(FrameKind::Peer, b"payload", &mut copied);
/// assert_eq!(buf, copied);
/// ```
#[derive(Debug)]
#[must_use = "an unfinished frame leaves a zeroed header in the buffer"]
pub struct FrameBuilder {
    /// Offset of the reserved header within the output buffer.
    start: usize,
}

impl FrameBuilder {
    /// Reserves header space at the current tail of `out`. All bytes the
    /// caller appends afterwards (until [`FrameBuilder::finish`]) form the
    /// frame body.
    pub fn begin(out: &mut Vec<u8>) -> FrameBuilder {
        let start = out.len();
        out.extend_from_slice(&[0u8; HEADER_LEN]);
        FrameBuilder { start }
    }

    /// Patches the reserved header so `out` ends with a complete, valid
    /// frame of `kind` whose body is everything appended since
    /// [`FrameBuilder::begin`].
    pub fn finish(self, kind: FrameKind, out: &mut [u8]) {
        debug_assert!(out.len() >= self.start + HEADER_LEN, "buffer shrank");
        let body_start = self.start + HEADER_LEN;
        let header = FrameHeader::for_body(kind, &out[body_start..]);
        out[self.start..body_start].copy_from_slice(&header.encode());
    }
}

/// Splits one frame off the front of `buf`.
///
/// Returns the validated header, the body slice, and the total number of
/// bytes consumed. Intended for in-memory parsing (tests, benches, fuzz
/// corpus); socket readers use [`FrameHeader::decode`] +
/// [`FrameHeader::verify_body`] directly on their own buffers.
///
/// # Errors
///
/// [`WireError`] on any malformed, truncated, or corrupted frame.
pub fn split_frame(buf: &[u8]) -> Result<(FrameHeader, &[u8], usize), WireError> {
    let Some(raw) = buf.get(..HEADER_LEN) else {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            have: buf.len(),
        });
    };
    let mut fixed = [0u8; HEADER_LEN];
    fixed.copy_from_slice(raw);
    let header = FrameHeader::decode(&fixed)?;
    let Some(body) = buf.get(HEADER_LEN..HEADER_LEN + header.body_len) else {
        return Err(WireError::Truncated {
            needed: header.body_len,
            have: buf.len().saturating_sub(HEADER_LEN),
        });
    };
    header.verify_body(body)?;
    Ok((header, body, HEADER_LEN + header.body_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(kind: FrameKind, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame_into(kind, body, &mut out);
        out
    }

    #[test]
    fn encode_frame_into_appends_after_a_prefix() {
        let mut buf = vec![0xAA]; // prefix survives
        encode_frame_into(FrameKind::ClientRequest, b"body-bytes", &mut buf);
        assert_eq!(buf[0], 0xAA);
        assert_eq!(&buf[1..], &framed(FrameKind::ClientRequest, b"body-bytes")[..]);
    }

    #[test]
    fn frame_builder_patches_header_in_place() {
        let mut buf = Vec::new();
        for (i, kind) in [FrameKind::Peer, FrameKind::ClientReply].iter().enumerate() {
            let frame = FrameBuilder::begin(&mut buf);
            buf.extend_from_slice(&[i as u8; 7]);
            frame.finish(*kind, &mut buf);
        }
        // Both frames parse back, in order, with intact CRCs.
        let (h0, b0, used0) = split_frame(&buf).expect("first frame");
        assert_eq!((h0.kind, b0), (FrameKind::Peer, &[0u8; 7][..]));
        let (h1, b1, used1) = split_frame(&buf[used0..]).expect("second frame");
        assert_eq!((h1.kind, b1), (FrameKind::ClientReply, &[1u8; 7][..]));
        assert_eq!(used0 + used1, buf.len());
        // And the builder output is byte-identical to the copying path.
        assert_eq!(&buf[..used0], &framed(FrameKind::Peer, &[0u8; 7])[..]);
    }

    #[test]
    fn frame_builder_empty_body() {
        let mut buf = Vec::new();
        let frame = FrameBuilder::begin(&mut buf);
        frame.finish(FrameKind::Peer, &mut buf);
        assert_eq!(buf, framed(FrameKind::Peer, b""));
    }

    #[test]
    fn header_round_trip() {
        let h = FrameHeader::for_body(FrameKind::Peer, b"hello");
        let raw = h.encode();
        assert_eq!(FrameHeader::decode(&raw), Ok(h));
        assert_eq!(h.body_len, 5);
        assert_eq!(h.crc, fab_store::crc32(b"hello"));
    }

    #[test]
    fn bad_magic_version_kind_rejected() {
        let mut raw = FrameHeader::for_body(FrameKind::ClientReply, b"x").encode();
        raw[0] = b'X';
        assert!(matches!(
            FrameHeader::decode(&raw),
            Err(WireError::BadMagic { .. })
        ));

        let mut raw = FrameHeader::for_body(FrameKind::ClientReply, b"x").encode();
        raw[4] = 0x7F;
        assert!(matches!(
            FrameHeader::decode(&raw),
            Err(WireError::UnsupportedVersion { found: 0x7F01 }) | Err(WireError::UnsupportedVersion { .. })
        ));

        let mut raw = FrameHeader::for_body(FrameKind::ClientReply, b"x").encode();
        raw[6] = 0xEE;
        assert!(matches!(
            FrameHeader::decode(&raw),
            Err(WireError::UnknownKind { .. })
        ));
    }

    #[test]
    fn length_lying_header_rejected_before_allocation() {
        let mut raw = FrameHeader::for_body(FrameKind::Peer, b"x").encode();
        raw[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            FrameHeader::decode(&raw),
            Err(WireError::BodyTooLarge {
                declared: u64::from(u32::MAX),
                max: MAX_BODY_LEN as u64,
            })
        );
    }

    #[test]
    fn corrupt_body_fails_checksum() {
        let frame = framed(FrameKind::Peer, b"payload");
        let mut bad = frame.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        assert!(matches!(
            split_frame(&bad),
            Err(WireError::ChecksumMismatch { .. })
        ));
        let (h, body, used) = split_frame(&frame).unwrap();
        assert_eq!(h.kind, FrameKind::Peer);
        assert_eq!(body, b"payload");
        assert_eq!(used, frame.len());
    }

    #[test]
    fn truncation_at_every_length_is_an_error() {
        let frame = framed(FrameKind::ClientRequest, b"some body bytes");
        for cut in 0..frame.len() {
            let err = split_frame(&frame[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut={cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn frames_concatenate() {
        let mut stream = framed(FrameKind::Peer, b"one");
        stream.extend_from_slice(&framed(FrameKind::ClientReply, b"two"));
        let (h1, b1, used) = split_frame(&stream).unwrap();
        assert_eq!((h1.kind, b1), (FrameKind::Peer, &b"one"[..]));
        let (h2, b2, _) = split_frame(&stream[used..]).unwrap();
        assert_eq!((h2.kind, b2), (FrameKind::ClientReply, &b"two"[..]));
    }
}
