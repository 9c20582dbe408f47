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

use crate::server::WRITE_TIMEOUT;
use crossbeam::channel::{unbounded, Receiver, Sender};
use fab_wire::{decode_body, FrameHeader, Message, WireError, HEADER_LEN, MAX_BODY_LEN};
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

/// A bounded free-list of encoding buffers, shared between the threads
/// that encode frames and the writer threads that retire them.
///
/// The hot send path takes a buffer, encodes a frame into it with the
/// `fab-wire` `_into` encoders, and queues it; the writer copies it into
/// its staging buffer and puts it straight back. After warm-up every
/// `take` is a hit and the steady-state path allocates nothing per frame.
#[derive(Debug)]
pub struct BufferPool {
    free: crate::sys::Mutex<Vec<Vec<u8>>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BufferPool {
    /// A pool retaining at most `capacity` idle buffers.
    #[must_use]
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(BufferPool {
            free: crate::sys::Mutex::new(Vec::new()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// An empty buffer: recycled if one is idle (hit), freshly allocated
    /// otherwise (miss).
    #[must_use]
    pub fn take(&self) -> Vec<u8> {
        // A poisoned lock (impossible in practice: no panics while held)
        // degrades to recycling anyway — the free list is a plain Vec whose
        // invariants can't be torn by an unwind — never to panicking on the
        // hot path.
        let recycled = self
            .free
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop();
        if let Some(buf) = recycled {
            self.hits.fetch_add(1, Ordering::Relaxed);
            buf
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        }
    }

    /// Returns `buf` to the free list (cleared, capacity kept). Dropped on
    /// the floor if the pool is already full.
    ///
    /// The `capacity` bound holds on *every* path, including a poisoned
    /// lock: a pool that stopped bounding itself after an unrelated panic
    /// would silently become the unbounded backlog this type exists to
    /// prevent.
    pub fn put(&self, mut buf: Vec<u8>) {
        buf.clear();
        let mut free = self
            .free
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if free.len() < self.capacity {
            free.push(buf);
        }
    }

    /// Test hook: poison the free-list lock by panicking while holding it.
    ///
    /// Only compiled for model-checking builds; lets `tests/loom.rs` prove
    /// the degraded (poisoned) path still enforces the capacity bound.
    #[cfg(loom)]
    #[doc(hidden)]
    pub fn poison_free_list(self: &Arc<Self>) {
        let me = Arc::clone(self);
        let _ = loom::thread::spawn(move || {
            // Hold the guard (inside the Ok) across the panic so the
            // unwind poisons the lock.
            let _guard = me.free.lock();
            // xtask-allow(no-panic): deliberate panic-while-locked, cfg(loom)-only, to drive the poisoned-path test
            panic!("poisoning BufferPool free list for the model checker");
        })
        .join();
    }

    /// `(hits, misses)` so far. A steady-state sender stops accumulating
    /// misses once the pool is warm.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

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
/// Frames are queued on a channel; the writer thread owns the socket and
/// (re)connects lazily with [`fab_simnet::Backoff`]-scheduled retries.
/// Send semantics are fair-loss: if the link is down, the frame is dropped
/// and counted, never buffered past the queue.
#[derive(Debug)]
#[must_use]
pub struct PeerSender {
    tx: Sender<Vec<u8>>,
    handle: Option<JoinHandle<()>>,
    counters: Arc<PeerCounters>,
}

impl PeerSender {
    /// Spawns the writer thread for `peer`. Frame buffers handed to
    /// [`PeerSender::send`] are retired into `pool` once their bytes are
    /// staged, so encode-side callers can take them back and reuse them.
    pub fn spawn(
        peer: SocketAddr,
        backoff: fab_simnet::Backoff,
        counters: Arc<PeerCounters>,
        pool: Arc<BufferPool>,
    ) -> Self {
        let (tx, rx) = unbounded();
        let thread_counters = counters.clone();
        let handle = std::thread::Builder::new()
            .name(format!("fab-peer-{peer}"))
            .spawn(move || writer_loop(peer, &rx, backoff, &thread_counters, &pool))
            .ok();
        PeerSender {
            tx,
            handle,
            counters,
        }
    }

    /// Queues one encoded frame for transmission (fair-loss: the frame may
    /// be dropped if the link is down).
    pub fn send(&self, frame: Vec<u8>) {
        if self.tx.send(frame).is_err() {
            self.counters.record_drop();
        }
    }

    /// This peer's traffic counters.
    #[must_use]
    pub fn counters(&self) -> &Arc<PeerCounters> {
        &self.counters
    }

    /// Stops the writer thread and joins it. Queued frames not yet written
    /// are discarded (fair-loss).
    pub fn shutdown(mut self) {
        // An empty frame can never be produced by the encoder (every frame
        // starts with a 16-byte header), so it doubles as a stop sentinel.
        let _ = self.tx.send(Vec::new());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for PeerSender {
    fn drop(&mut self) {
        // Dropping the sender disconnects the channel; the writer thread
        // exits after its current frame. Joining here would risk blocking
        // drops behind a slow socket, so detach instead.
        let _ = self.tx.send(Vec::new());
    }
}

/// The writer thread: owns the socket, reconnects with backoff, coalesces
/// queued frames into single writes, drops what it cannot deliver.
///
/// After blocking for the first frame it greedily drains whatever else is
/// already queued (up to [`MAX_COALESCED_FRAMES`] / [`MAX_COALESCED_BYTES`])
/// into one reused staging buffer and issues a single `write_all`. Under
/// load this collapses dozens of per-frame syscalls into one; when idle the
/// first frame still goes out immediately — coalescing never waits.
fn writer_loop(
    peer: SocketAddr,
    rx: &Receiver<Vec<u8>>,
    backoff: fab_simnet::Backoff,
    counters: &PeerCounters,
    pool: &BufferPool,
) {
    let mut conn: Option<TcpStream> = None;
    let mut attempt: u32 = 0;
    let mut next_retry = Instant::now();
    let mut connected_before = false;
    let mut staging: Vec<u8> = Vec::new();
    while let Ok(first) = rx.recv() {
        if first.is_empty() {
            return; // stop sentinel
        }
        // Stage the first frame, then drain everything already queued.
        staging.clear();
        staging.extend_from_slice(&first);
        pool.put(first);
        let mut frames = 1usize;
        let mut stop_after_flush = false;
        while frames < MAX_COALESCED_FRAMES && staging.len() < MAX_COALESCED_BYTES {
            match rx.try_recv() {
                Ok(f) if f.is_empty() => {
                    stop_after_flush = true;
                    break;
                }
                Ok(f) => {
                    staging.extend_from_slice(&f);
                    pool.put(f);
                    frames += 1;
                }
                Err(_) => break, // queue momentarily empty: flush now
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
        if stop_after_flush {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fab_simnet::Backoff;
    use fab_timestamp::{ProcessId, Timestamp};
    use std::net::TcpListener;

    fn peer_frame(ticks: u64) -> Vec<u8> {
        let env = fab_core::Envelope {
            stripe: fab_core::StripeId(1),
            round: ticks,
            kind: fab_core::Payload::Request(fab_core::Request::Order {
                ts: Timestamp::from_parts(ticks.max(1), ProcessId::new(0)),
            }),
        };
        let mut frame = Vec::new();
        fab_wire::encode_peer_message_into(ProcessId::new(0), &env, &mut frame);
        frame
    }

    #[test]
    fn sender_delivers_frames_to_a_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let counters = Arc::new(PeerCounters::new());
        let sender = PeerSender::spawn(addr, Backoff::default(), counters.clone(), BufferPool::new(8));
        sender.send(peer_frame(7));

        let (mut conn, _) = listener.accept().unwrap();
        let (msg, len) = read_frame(&mut conn).unwrap();
        match msg {
            Message::Peer { from, env } => {
                assert_eq!(from, ProcessId::new(0));
                assert_eq!(env.round, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(len > HEADER_LEN);
        sender.shutdown();
        let snap = counters.snapshot();
        assert_eq!(snap.frames_sent, 1);
        assert_eq!(snap.bytes_sent, len as u64);
    }

    #[test]
    fn buffer_pool_bound_survives_poisoned_lock() {
        let pool = BufferPool::new(1);

        // Poison the free-list lock: panic while holding the guard.
        let poisoner = Arc::clone(&pool);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _guard = poisoner.free.lock().unwrap();
            panic!("poison the pool lock");
        }));
        assert!(pool.free.lock().is_err(), "lock should now be poisoned");

        // The degraded path must still enforce the capacity bound...
        pool.put(Vec::with_capacity(64));
        pool.put(Vec::with_capacity(64));
        assert_eq!(
            pool.free
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .len(),
            1,
            "poisoned path must keep the capacity bound"
        );

        // ...and `take` must still recycle rather than always allocating.
        let _ = pool.take();
        let (hits, misses) = pool.stats();
        assert_eq!((hits, misses), (1, 0));
    }

    #[test]
    fn down_link_drops_and_counts_then_reconnects() {
        // Bind a listener to learn a port, then close it: sends must drop.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);

        let counters = Arc::new(PeerCounters::new());
        let sender = PeerSender::spawn(
            addr,
            Backoff {
                base_micros: 1_000,
                factor: 2,
                max_micros: 10_000,
            },
            counters.clone(),
            BufferPool::new(8),
        );
        for t in 0..5 {
            sender.send(peer_frame(t + 1));
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
            sender.send(peer_frame(t));
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
        let addr = listener.local_addr().unwrap();
        let counters = Arc::new(PeerCounters::new());
        let sender = PeerSender::spawn(addr, Backoff::default(), counters.clone(), BufferPool::new(64));

        // Queue a burst before the writer can connect: once the connection
        // is up, the backlog must go out in far fewer writes than frames.
        const BURST: u64 = 48;
        for t in 0..BURST {
            sender.send(peer_frame(t + 1));
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

    #[test]
    fn steady_state_send_path_reuses_pooled_buffers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let counters = Arc::new(PeerCounters::new());
        let pool = BufferPool::new(8);
        let sender = PeerSender::spawn(addr, Backoff::default(), counters.clone(), pool.clone());

        // The writer only connects once the first frame is queued, so the
        // accept must not block the sending thread.
        let reader = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut n = 0u64;
            while read_frame(&mut conn).is_ok() {
                n += 1;
            }
            n
        });
        const ROUNDS: u64 = 100;
        for t in 0..ROUNDS {
            let mut buf = pool.take();
            let env = fab_core::Envelope {
                stripe: fab_core::StripeId(1),
                round: t,
                kind: fab_core::Payload::Request(fab_core::Request::Order {
                    ts: Timestamp::from_parts(t + 1, ProcessId::new(0)),
                }),
            };
            fab_wire::encode_peer_message_into(ProcessId::new(0), &env, &mut buf);
            sender.send(buf);
            // Wait until this frame is staged (and its buffer pooled).
            let deadline = Instant::now() + Duration::from_secs(10);
            while counters.snapshot().frames_sent <= t {
                assert!(Instant::now() < deadline, "frame {t} never sent");
                std::thread::yield_now();
            }
        }
        let (hits, misses) = pool.stats();
        assert_eq!(hits + misses, ROUNDS);
        // Steady state allocates nothing per frame: after the first take
        // warms the pool, every subsequent take is a hit.
        assert_eq!(misses, 1, "{misses} allocations for {ROUNDS} frames");
        sender.shutdown();
        assert_eq!(reader.join().unwrap(), ROUNDS);
    }

    #[test]
    fn buffer_pool_is_bounded_and_clears_returned_buffers() {
        let pool = BufferPool::new(2);
        let a = pool.take();
        assert!(a.is_empty());
        pool.put(vec![1, 2, 3]);
        pool.put(vec![4]);
        pool.put(vec![5]); // beyond capacity: dropped
        let b = pool.take();
        let c = pool.take();
        assert!(b.is_empty() && c.is_empty(), "returned buffers are cleared");
        let (hits, misses) = pool.stats();
        assert_eq!((hits, misses), (2, 1));
        // Pool drained again: next take allocates.
        let _ = pool.take();
        assert_eq!(pool.stats(), (2, 2));
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
        let frame = peer_frame(3);
        c.write_all(&frame[..frame.len() - 4]).unwrap();
        drop(c);
        assert!(matches!(
            read_frame(&mut server_side).unwrap_err(),
            RecvError::Io(_)
        ));
    }
}
