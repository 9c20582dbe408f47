//! The client side: a blocking, fail-over TCP client for a FAB cluster.
//!
//! [`NetClient`] mirrors `fab_runtime::RuntimeClient`'s behavior over real
//! sockets: requests rotate across bricks (any brick can coordinate any
//! operation — Figure 1's decentralized access), and a brick that fails to
//! answer within the per-attempt timeout is simply skipped. No failure
//! detector is needed; a connection error *is* the signal to try the next
//! brick (§1.3).
//!
//! [`NetClient`] implements [`RegisterClient`]: every register operation
//! goes through [`RegisterClient::invoke`], and an exhausted retry budget
//! is the typed [`ClientError::Unavailable`], never a panic.

use crate::transport::{read_frame, RecvError};
use bytes::Bytes;
use fab_core::{ClientError, ClientOp, OpResult, RegisterClient, RegisterConfig, StripeId};
use fab_wire::{
    encode_admin_request_into, encode_client_request_into, AdminOp, AdminResponse, Message,
};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A blocking client for a TCP brick cluster.
///
/// Connections are opened lazily, cached per brick, and discarded on any
/// error; correlation ids pair replies with requests so a stale reply on a
/// reused connection can never be mistaken for the current one.
#[derive(Debug)]
#[must_use]
pub struct NetClient {
    cluster: Vec<SocketAddr>,
    cfg: RegisterConfig,
    conns: Vec<Option<TcpStream>>,
    next: usize,
    next_id: u64,
    /// Reused request-encoding buffer: the steady-state request path
    /// allocates nothing per operation.
    encode_buf: Vec<u8>,
    /// Per-attempt budget: connect + write + read of one request.
    pub attempt_timeout: Duration,
    /// How many full passes over the cluster to make before giving up
    /// (with a short pause between passes, so a restarting brick gets a
    /// chance to come back).
    pub max_rounds: u32,
}

impl NetClient {
    /// Creates a client for `cluster` (no connections are opened yet).
    ///
    /// `cfg` must match the bricks' configuration; there is no negotiation
    /// on the wire (version skew is caught by the frame header, config
    /// skew by `InvalidRequest` rejections).
    pub fn connect(cluster: Vec<SocketAddr>, cfg: RegisterConfig) -> Self {
        let n = cluster.len();
        NetClient {
            cluster,
            cfg,
            conns: (0..n).map(|_| None).collect(),
            next: 0,
            next_id: 1,
            encode_buf: Vec::new(),
            attempt_timeout: Duration::from_secs(5),
            max_rounds: 8,
        }
    }

    /// One request/reply exchange against brick `target`: sends the frame
    /// `encode` writes for a fresh correlation id and waits for the reply
    /// `matching` recognises as its kind with that id. Any failure
    /// invalidates the cached connection.
    fn exchange<T>(
        &mut self,
        target: usize,
        encode: impl FnOnce(u64, &mut Vec<u8>),
        matching: impl Fn(Message) -> Result<(u64, Result<T, ClientError>), Message>,
    ) -> Result<Result<T, ClientError>, ()> {
        let addr = *self.cluster.get(target).ok_or(())?;
        let id = self.next_id;
        self.next_id += 1;
        // `frame` and `slot` borrow disjoint fields, so a failed attempt
        // keeps the buffer (and its capacity) for the next one.
        let frame = &mut self.encode_buf;
        frame.clear();
        encode(id, frame);

        let slot = self.conns.get_mut(target).ok_or(())?;
        if slot.is_none() {
            let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500))
                .map_err(|_| ())?;
            let _ = stream.set_nodelay(true);
            *slot = Some(stream);
        }
        let stream = slot.as_mut().ok_or(())?;
        let _ = stream.set_read_timeout(Some(self.attempt_timeout));
        let _ = stream.set_write_timeout(Some(self.attempt_timeout));
        let outcome = (|| {
            stream.write_all(frame).map_err(|_| ())?;
            loop {
                match read_frame(stream).map(|(msg, _)| matching(msg)) {
                    Ok(Ok((got, result))) if got == id => return Ok(result),
                    // Defensive: ignore replies to correlation ids we have
                    // given up on (possible only if a timeout policy ever
                    // keeps a connection — today every failure drops it).
                    Ok(Ok(_) | Err(Message::ClientReply { .. } | Message::AdminReply { .. })) => {}
                    Ok(Err(_)) => return Err(()), // peers never talk to clients
                    Err(RecvError::Closed | RecvError::Io(_) | RecvError::Wire(_)) => {
                        return Err(());
                    }
                }
            }
        })();
        if outcome.is_err() {
            *slot = None; // poisoned: mid-stream state is unknowable
        }
        outcome
    }

    /// [`RegisterClient::write_stripe`], for callers without the trait in
    /// scope (like the two below).
    pub fn try_write_stripe(
        &mut self,
        stripe: StripeId,
        blocks: Vec<Bytes>,
    ) -> Result<OpResult, ClientError> {
        self.invoke(ClientOp::write_stripe(stripe, blocks))
    }

    /// [`RegisterClient::read_block`].
    pub fn try_read_block(&mut self, stripe: StripeId, j: usize) -> Result<OpResult, ClientError> {
        self.invoke(ClientOp::read_block(stripe, j))
    }

    /// [`RegisterClient::write_block`].
    pub fn try_write_block(
        &mut self,
        stripe: StripeId,
        j: usize,
        block: Bytes,
    ) -> Result<OpResult, ClientError> {
        self.invoke(ClientOp::write_block(stripe, j, block))
    }

    /// Runs one admin operation against a *specific* brick (repair is
    /// orchestrated by the node it was started on, so admin traffic does
    /// not rotate). Retries `max_rounds` times with a short pause so a
    /// restarting brick gets a chance to come back.
    ///
    /// # Errors
    ///
    /// [`ClientError::InvalidRequest`] if the brick refuses the request;
    /// [`ClientError::Unavailable`] when the retry budget is exhausted.
    pub fn try_admin(&mut self, target: usize, op: &AdminOp) -> Result<AdminResponse, ClientError> {
        for round in 0..self.max_rounds {
            let outcome = self.exchange(
                target,
                |id, buf| encode_admin_request_into(id, op, buf),
                |msg| match msg {
                    Message::AdminReply { id, result } => Ok((id, result)),
                    other => Err(other),
                },
            );
            match outcome {
                Ok(Ok(resp)) => return Ok(resp),
                Ok(Err(ClientError::InvalidRequest)) => return Err(ClientError::InvalidRequest),
                Ok(Err(_)) | Err(()) => {}
            }
            if round + 1 < self.max_rounds {
                std::thread::sleep(Duration::from_millis(100));
            }
        }
        Err(ClientError::Unavailable)
    }
}

impl RegisterClient for NetClient {
    fn config(&self) -> RegisterConfig {
        self.cfg.clone()
    }

    /// Runs one register operation with rotation and fail-over:
    /// [`ClientError::InvalidRequest`] if a brick refuses the request as
    /// malformed (retrying elsewhere cannot help),
    /// [`ClientError::Unavailable`] when the retry budget is exhausted.
    fn invoke(&mut self, op: ClientOp) -> Result<OpResult, ClientError> {
        let n = self.cluster.len().max(1);
        for round in 0..self.max_rounds {
            for _ in 0..n {
                let target = self.next % n;
                self.next = self.next.wrapping_add(1);
                let outcome = self.exchange(
                    target,
                    |id, buf| encode_client_request_into(id, &op, buf),
                    |msg| match msg {
                        Message::ClientReply { id, result } => Ok((id, result)),
                        other => Err(other),
                    },
                );
                match outcome {
                    Ok(Ok(result)) => return Ok(result),
                    Ok(Err(ClientError::InvalidRequest)) => {
                        return Err(ClientError::InvalidRequest);
                    }
                    // `Unavailable` (brick shutting down) and transport
                    // errors both mean: try the next brick.
                    Ok(Err(_)) | Err(()) => continue,
                }
            }
            if round + 1 < self.max_rounds {
                std::thread::sleep(Duration::from_millis(100));
            }
        }
        Err(ClientError::Unavailable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A refused connection (each failover past a dead brick) must not
    /// throw the request buffer away.
    #[test]
    fn a_refused_connect_keeps_the_request_buffer() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let cfg = RegisterConfig::new(1, 1, 16).unwrap();
        let mut client = NetClient::connect(vec![addr], cfg);
        client.max_rounds = 1;
        assert_eq!(
            client.try_read_block(StripeId(0), 0),
            Err(ClientError::Unavailable)
        );
        assert!(client.encode_buf.capacity() > 0);
    }
}
