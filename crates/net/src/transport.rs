//! TCP transport primitives: outbound peer connections with reconnect and
//! capped exponential backoff, blocking framed reads, and per-peer traffic
//! counters.
//!
//! The transport offers exactly the guarantee the protocol was proved
//! against: a **fair-loss link**. A frame handed to [`PeerSender::send`]
//! is delivered at most once; if the connection is down (or fault
//! injection drops it) the frame is simply lost and the loss is counted.
//! Retransmission is the *coordinator's* job (`fab-core` timers), not the
//! transport's — buffering unbounded backlog for a dead peer would turn a
//! crashed brick into a memory leak on every live one.
//!
//! Reconnection uses the shared [`fab_simnet::Backoff`] schedule so the
//! threaded runtime, the simulator harnesses, and this transport agree on
//! fault-handling parameters.

// Rule L1 (no-panic), DESIGN.md §6: socket threads never panic on input.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::server::WRITE_TIMEOUT;
use crossbeam::channel::{bounded, Receiver, Sender};
use fab_core::Envelope;
use fab_timestamp::ProcessId;
use fab_wire::{
    decode_body, encode_peer_message_into, FrameHeader, Message, WireError, HEADER_LEN,
    MAX_BODY_LEN,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an outbound connection attempt may block the writer thread.
pub const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Most frames a writer coalesces into one `write` syscall.
pub const MAX_COALESCED_FRAMES: usize = 64;

/// Most staged bytes a writer coalesces into one `write` syscall. A batch
/// closes as soon as it crosses this line (one oversized frame still goes
/// out alone).
pub const MAX_COALESCED_BYTES: usize = 1 << 20;

/// Most envelopes a peer's mailbox holds. A peer that stops reading costs
/// its sender this many queued envelopes (their payloads are shared
/// `Bytes`) and no more: what does not fit is dropped and counted like any
/// other loss on a fair-loss link.
pub const MAILBOX_FRAMES: usize = 1024;

/// Monotonic per-peer traffic counters, shared between the transport
/// threads and whoever wants to observe them ([`CounterSnapshot`]).
#[derive(Debug, Default)]
pub struct PeerCounters {
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    frames_recv: AtomicU64,
    bytes_recv: AtomicU64,
    decode_errors: AtomicU64,
    reconnects: AtomicU64,
    dropped: AtomicU64,
    writes: AtomicU64,
    batched_writes: AtomicU64,
    max_frames_per_write: AtomicU64,
}

impl PeerCounters {
    /// Fresh all-zero counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one frame of `bytes` handed to the socket.
    pub fn record_sent(&self, bytes: usize) {
        self.record_write(1, bytes);
    }

    /// Records one `write` syscall carrying `frames` coalesced frames of
    /// `bytes` total.
    pub fn record_write(&self, frames: usize, bytes: usize) {
        self.frames_sent.fetch_add(frames as u64, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
        self.writes.fetch_add(1, Ordering::Relaxed);
        if frames > 1 {
            self.batched_writes.fetch_add(1, Ordering::Relaxed);
        }
        self.max_frames_per_write
            .fetch_max(frames as u64, Ordering::Relaxed);
    }

    /// Records one frame of `bytes` received and decoded.
    pub fn record_recv(&self, bytes: usize) {
        self.frames_recv.fetch_add(1, Ordering::Relaxed);
        self.bytes_recv.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records a frame that failed to decode (hostile or corrupt input).
    pub fn record_decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a successful re-establishment of a previously-working
    /// connection.
    pub fn record_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a frame lost to a down link or to fault injection.
    pub fn record_drop(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `frames` lost at once (a failed coalesced write).
    pub fn record_drops(&self, frames: usize) {
        self.dropped.fetch_add(frames as u64, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy of the counters.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            frames_recv: self.frames_recv.load(Ordering::Relaxed),
            bytes_recv: self.bytes_recv.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            batched_writes: self.batched_writes.load(Ordering::Relaxed),
            max_frames_per_write: self.max_frames_per_write.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time counter values (see [`PeerCounters::snapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use]
pub struct CounterSnapshot {
    /// Frames handed to the socket.
    pub frames_sent: u64,
    /// Bytes handed to the socket (headers included).
    pub bytes_sent: u64,
    /// Frames received and decoded.
    pub frames_recv: u64,
    /// Bytes received in decoded frames (headers included).
    pub bytes_recv: u64,
    /// Frames rejected by the wire decoder.
    pub decode_errors: u64,
    /// Connection re-establishments after the first success.
    pub reconnects: u64,
    /// Frames lost to a down link or to fault injection.
    pub dropped: u64,
    /// `write` syscalls issued (each may carry many frames).
    pub writes: u64,
    /// Writes that carried more than one coalesced frame.
    pub batched_writes: u64,
    /// Most frames ever coalesced into a single write.
    pub max_frames_per_write: u64,
}

/// Why a framed read from a socket failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The socket failed mid-frame (reset, timeout, shutdown).
    Io(ErrorKind),
    /// The bytes were not a valid frame or message — hostile, corrupt, or
    /// version-skewed input.
    Wire(WireError),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Closed => write!(f, "connection closed"),
            RecvError::Io(kind) => write!(f, "socket error: {kind:?}"),
            RecvError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Reads one framed [`Message`] from `stream`, blocking.
///
/// The 16-byte header is read and validated first (magic, version, kind,
/// bounded length), then exactly `body_len` bytes are read, checksummed,
/// and decoded. A length-lying header is rejected before the body buffer
/// is allocated. Returns the message and the total frame size in bytes.
///
/// # Errors
///
/// [`RecvError::Closed`] on clean EOF at a frame boundary, [`RecvError::Io`]
/// on socket failure, [`RecvError::Wire`] on any malformed input.
pub fn read_frame(stream: &mut TcpStream) -> Result<(Message, usize), RecvError> {
    let mut head = [0u8; HEADER_LEN];
    match stream.read_exact(&mut head) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Err(RecvError::Closed),
        Err(e) => return Err(RecvError::Io(e.kind())),
    }
    let header = FrameHeader::decode(&head).map_err(RecvError::Wire)?;
    // `decode` already rejected lengths above MAX_BODY_LEN, but the bound is
    // re-checked here, next to the allocation it protects, so the guarantee
    // survives refactors of the decoder (and L9 can see it locally).
    let body_len = header.body_len;
    if body_len > MAX_BODY_LEN {
        return Err(RecvError::Wire(WireError::BodyTooLarge {
            declared: body_len as u64,
            max: MAX_BODY_LEN as u64,
        }));
    }
    let mut body = vec![0u8; body_len];
    if let Err(e) = stream.read_exact(&mut body) {
        return Err(RecvError::Io(e.kind()));
    }
    header.verify_body(&body).map_err(RecvError::Wire)?;
    let msg = decode_body(header.kind, &body).map_err(RecvError::Wire)?;
    Ok((msg, HEADER_LEN + header.body_len))
}

/// A handle to one outbound peer connection, serviced by a writer thread.
///
/// Envelopes are queued on a bounded mailbox; the writer thread owns the
/// socket, encodes each envelope into the buffer it writes from, and
/// (re)connects lazily with [`fab_simnet::Backoff`]-scheduled retries.
/// Send semantics are fair-loss: if the link is down or the mailbox is
/// full, the envelope is dropped and counted.
#[derive(Debug)]
#[must_use]
pub struct PeerSender {
    tx: Sender<Envelope>,
    handle: Option<JoinHandle<()>>,
    counters: Arc<PeerCounters>,
}

impl PeerSender {
    /// Spawns the writer thread that carries brick `from`'s envelopes to
    /// `peer`.
    pub fn spawn(
        from: ProcessId,
        peer: SocketAddr,
        backoff: fab_simnet::Backoff,
        counters: Arc<PeerCounters>,
    ) -> Self {
        let (tx, rx) = bounded(MAILBOX_FRAMES);
        let thread_counters = counters.clone();
        let handle = std::thread::Builder::new()
            .name(format!("fab-peer-{peer}"))
            .spawn(move || writer_loop(from, peer, &rx, backoff, &thread_counters))
            .ok();
        PeerSender {
            tx,
            handle,
            counters,
        }
    }

    /// Queues one envelope for transmission without ever blocking
    /// (fair-loss: it is dropped and counted if the mailbox is full, and
    /// may be dropped later if the link is down).
    pub fn send(&self, env: Envelope) {
        if self.tx.try_send(env).is_err() {
            self.counters.record_drop();
        }
    }

    /// This peer's traffic counters.
    #[must_use]
    pub fn counters(&self) -> &Arc<PeerCounters> {
        &self.counters
    }

    /// Closes the mailbox and joins the writer thread, which first sends
    /// (or, on a down link, drops) what is still queued. Merely dropping a
    /// `PeerSender` closes the mailbox too, without waiting behind a slow
    /// socket.
    pub fn shutdown(self) {
        let PeerSender { tx, handle, .. } = self;
        drop(tx);
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

/// The writer thread: owns the socket, reconnects with backoff, encodes
/// queued envelopes back to back into single writes, drops what it cannot
/// deliver. It ends when the mailbox is closed and empty.
///
/// After blocking for the first envelope it greedily drains whatever else
/// is already queued (up to [`MAX_COALESCED_FRAMES`] / [`MAX_COALESCED_BYTES`])
/// into one reused staging buffer — the only buffer between an envelope and
/// the socket — and issues a single `write_all`. Under load this collapses
/// dozens of per-frame syscalls into one; when idle the first frame still
/// goes out immediately — coalescing never waits.
fn writer_loop(
    from: ProcessId,
    peer: SocketAddr,
    rx: &Receiver<Envelope>,
    backoff: fab_simnet::Backoff,
    counters: &PeerCounters,
) {
    let mut conn: Option<TcpStream> = None;
    let mut attempt: u32 = 0;
    let mut next_retry = Instant::now();
    let mut connected_before = false;
    let mut staging: Vec<u8> = Vec::new();
    while let Ok(first) = rx.recv() {
        staging.clear();
        let mut frames = 0usize;
        // `try_iter` ends at an empty (or closed) mailbox: flush then.
        for env in std::iter::once(first).chain(rx.try_iter()) {
            encode_peer_message_into(from, &env, &mut staging);
            frames += 1;
            if frames >= MAX_COALESCED_FRAMES || staging.len() >= MAX_COALESCED_BYTES {
                break;
            }
        }
        if conn.is_none() && Instant::now() >= next_retry {
            match TcpStream::connect_timeout(&peer, CONNECT_TIMEOUT) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    let _ = s.set_write_timeout(Some(WRITE_TIMEOUT));
                    if connected_before {
                        counters.record_reconnect();
                    }
                    connected_before = true;
                    attempt = 0;
                    conn = Some(s);
                }
                Err(_) => {
                    next_retry =
                        Instant::now() + Duration::from_micros(backoff.delay_micros(attempt));
                    attempt = attempt.saturating_add(1);
                }
            }
        }
        match conn.as_mut() {
            Some(s) => {
                if s.write_all(&staging).is_ok() {
                    counters.record_write(frames, staging.len());
                } else {
                    // Write failed: the link is down. Drop the whole batch
                    // (the coordinator's retransmission timer covers the
                    // loss) and schedule a reconnect.
                    conn = None;
                    counters.record_drops(frames);
                    next_retry =
                        Instant::now() + Duration::from_micros(backoff.delay_micros(attempt));
                    attempt = attempt.saturating_add(1);
                }
            }
            None => counters.record_drops(frames),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use fab_core::{BlockValue, Payload, Request, StripeId};
    use fab_simnet::Backoff;
    use fab_timestamp::Timestamp;
    use std::net::TcpListener;

    const FROM: ProcessId = ProcessId::new(0);

    fn envelope(ticks: u64) -> Envelope {
        Envelope {
            stripe: StripeId(1),
            round: ticks,
            kind: Payload::Request(Request::Order {
                ts: Timestamp::from_parts(ticks.max(1), FROM),
            }),
        }
    }

    fn write_envelope(ticks: u64, block: Bytes) -> Envelope {
        Envelope {
            kind: Payload::Request(Request::Write {
                block: BlockValue::Data(block),
                ts: Timestamp::from_parts(ticks, FROM),
            }),
            ..envelope(ticks)
        }
    }

    fn spawn(addr: SocketAddr, backoff: Backoff) -> (PeerSender, Arc<PeerCounters>) {
        let counters = Arc::new(PeerCounters::new());
        (
            PeerSender::spawn(FROM, addr, backoff, counters.clone()),
            counters,
        )
    }

    #[test]
    fn sender_delivers_frames_to_a_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (sender, counters) = spawn(listener.local_addr().unwrap(), Backoff::default());
        sender.send(envelope(7));

        let (mut conn, _) = listener.accept().unwrap();
        let (msg, len) = read_frame(&mut conn).unwrap();
        assert_eq!(
            msg,
            Message::Peer {
                from: FROM,
                env: envelope(7)
            }
        );
        assert!(len > HEADER_LEN);
        sender.shutdown();
        let snap = counters.snapshot();
        assert_eq!(snap.frames_sent, 1);
        assert_eq!(snap.bytes_sent, len as u64);
    }

    #[test]
    fn down_link_drops_and_counts_then_reconnects() {
        // Bind a listener to learn a port, then close it: sends must drop.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);

        let (sender, counters) = spawn(
            addr,
            Backoff {
                base_micros: 1_000,
                factor: 2,
                max_micros: 10_000,
            },
        );
        for t in 0..5 {
            sender.send(envelope(t + 1));
            std::thread::sleep(Duration::from_millis(5));
        }
        // Everything so far was dropped (link down).
        assert!(counters.snapshot().dropped >= 1);
        assert_eq!(counters.snapshot().frames_sent, 0);

        // Revive the listener on the same port and keep sending: the
        // backoff schedule must reconnect and deliver. The port was just
        // released, so another parallel test's ephemeral bind can grab it
        // for a moment — retry instead of flaking.
        let listener = {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match TcpListener::bind(addr) {
                    Ok(l) => break l,
                    Err(e) if Instant::now() < deadline => {
                        let _ = e;
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(e) => panic!("could not rebind {addr}: {e}"),
                }
            }
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut delivered = false;
        let mut t = 100;
        while Instant::now() < deadline {
            sender.send(envelope(t));
            t += 1;
            std::thread::sleep(Duration::from_millis(10));
            if counters.snapshot().frames_sent > 0 {
                delivered = true;
                break;
            }
        }
        assert!(delivered, "sender never reconnected");
        let (mut conn, _) = listener.accept().unwrap();
        let (msg, _) = read_frame(&mut conn).unwrap();
        assert!(matches!(msg, Message::Peer { .. }));
        sender.shutdown();
    }

    #[test]
    fn writer_coalesces_queued_frames_into_batched_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (sender, counters) = spawn(listener.local_addr().unwrap(), Backoff::default());

        // Queue a burst before the writer can connect: once the connection
        // is up, the backlog must go out in far fewer writes than frames.
        const BURST: u64 = 48;
        for t in 0..BURST {
            sender.send(envelope(t + 1));
        }
        let (mut conn, _) = listener.accept().unwrap();
        let mut seen = Vec::new();
        while seen.len() < BURST as usize {
            let (msg, _) = read_frame(&mut conn).unwrap();
            match msg {
                Message::Peer { env, .. } => seen.push(env.round),
                other => panic!("unexpected {other:?}"),
            }
        }
        // FIFO, nothing lost, nothing reordered by coalescing.
        assert_eq!(seen, (1..=BURST).collect::<Vec<_>>());
        // The writer records a batch *after* its write_all returns, so the
        // reader can observe all frames a beat before the counters move.
        let deadline = Instant::now() + Duration::from_secs(5);
        while counters.snapshot().frames_sent < BURST && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let snap = counters.snapshot();
        assert_eq!(snap.frames_sent, BURST);
        assert!(
            snap.writes < snap.frames_sent,
            "coalescing must shrink syscall count: {} writes for {} frames",
            snap.writes,
            snap.frames_sent
        );
        assert!(snap.batched_writes >= 1, "at least one multi-frame write");
        assert!(snap.max_frames_per_write > 1);
        sender.shutdown();
    }

    /// No format change: what a listener receives for a batch of envelopes
    /// is the concatenation of `encode_peer_message_into` for each.
    #[test]
    fn a_batch_on_the_wire_is_the_concatenated_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (sender, _) = spawn(listener.local_addr().unwrap(), Backoff::default());
        let mut expected = Vec::new();
        for t in 1..=5 {
            let env = if t % 2 == 0 {
                write_envelope(t, Bytes::from(vec![t as u8; 300]))
            } else {
                envelope(t)
            };
            encode_peer_message_into(FROM, &env, &mut expected);
            sender.send(env);
        }
        let (mut conn, _) = listener.accept().unwrap();
        let mut received = vec![0u8; expected.len()];
        conn.read_exact(&mut received).unwrap();
        assert_eq!(received, expected);
        // Nothing follows the batch.
        sender.shutdown();
        assert_eq!(conn.read(&mut [0u8; 1]).unwrap(), 0);
    }

    #[test]
    fn a_stalled_peer_bounds_the_mailbox() {
        // The peer accepts and never reads: once the socket buffers fill,
        // the writer sits in `write_all` and the mailbox behind it fills.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (sender, counters) = spawn(listener.local_addr().unwrap(), Backoff::default());
        let block = Bytes::from(vec![0xabu8; 64 << 10]);
        let started = Instant::now();
        for t in 0..4 * MAILBOX_FRAMES as u64 {
            sender.send(write_envelope(t + 1, block.clone()));
        }
        let took = started.elapsed();
        assert!(took < WRITE_TIMEOUT / 4, "send blocked: {took:?}");
        let snap = counters.snapshot();
        assert!(snap.dropped > 0, "{snap:?}");
        // Sent, in flight, queued or dropped: never more than the bound queued.
        assert!(
            snap.frames_sent + snap.dropped >= (3 * MAILBOX_FRAMES - MAX_COALESCED_FRAMES) as u64,
            "{snap:?}"
        );
        // Reset the stalled connection so the writer fails fast and exits.
        let stalled = listener.accept().unwrap();
        drop((stalled, listener));
        sender.shutdown();
    }

    #[test]
    fn read_frame_rejects_garbage_and_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        // Clean close: Closed.
        let c = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        drop(c);
        assert_eq!(read_frame(&mut server_side).unwrap_err(), RecvError::Closed);

        // Garbage bytes: a wire error, not a panic.
        let mut c = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        c.write_all(b"this is not a FAB frame at all!!").unwrap();
        drop(c);
        assert!(matches!(
            read_frame(&mut server_side).unwrap_err(),
            RecvError::Wire(WireError::BadMagic { .. })
        ));

        // Truncated mid-body: an I/O error (EOF inside the frame).
        let mut c = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        let mut frame = Vec::new();
        encode_peer_message_into(FROM, &envelope(3), &mut frame);
        c.write_all(&frame[..frame.len() - 4]).unwrap();
        drop(c);
        assert!(matches!(
            read_frame(&mut server_side).unwrap_err(),
            RecvError::Io(_)
        ));
    }
}
