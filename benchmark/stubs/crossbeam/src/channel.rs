//! A multi-producer multi-consumer FIFO channel with crossbeam-channel's
//! API shape (`unbounded`, `bounded`, cloneable `Sender`/`Receiver`,
//! disconnect on last drop), built on one `Mutex<VecDeque>` and two
//! `Condvar`s. Slower than the lock-free original under contention; the
//! FAB hosts use it as single-consumer mailboxes.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// `None` = unbounded. `Some(0)` is treated as capacity 1 (no
    /// rendezvous channels are used by the FAB crates).
    cap: Option<usize>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // The queue is valid at every step, so a panicking peer thread
        // cannot leave it torn.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

pub struct Sender<T>(Arc<Shared<T>>);
pub struct Receiver<T>(Arc<Shared<T>>);

#[derive(PartialEq, Eq, Clone, Copy)]
pub struct SendError<T>(pub T);

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub struct RecvError;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum RecvTimeoutError {
    Timeout,
    Disconnected,
}

#[derive(PartialEq, Eq, Clone, Copy)]
pub enum TrySendError<T> {
    Full(T),
    Disconnected(T),
}

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("Full(..)"),
            TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
        }
    }
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("timed out waiting on receive"),
            RecvTimeoutError::Disconnected => f.write_str("channel is empty and disconnected"),
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        cap: cap.map(|c| c.max(1)),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(shared.clone()), Receiver(shared))
}

pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(None)
}

pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    channel(Some(cap))
}

impl<T> Sender<T> {
    /// Blocks while a bounded channel is full.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.0.lock();
        loop {
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            match self.0.cap {
                Some(cap) if st.queue.len() >= cap => {
                    st = self.0.not_full.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                _ => break,
            }
        }
        st.queue.push_back(value);
        drop(st);
        self.0.not_empty.notify_one();
        Ok(())
    }

    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut st = self.0.lock();
        if st.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if self.0.cap.is_some_and(|cap| st.queue.len() >= cap) {
            return Err(TrySendError::Full(value));
        }
        st.queue.push_back(value);
        drop(st);
        self.0.not_empty.notify_one();
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.0.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Receiver<T> {
    fn pop(&self, st: &mut State<T>) -> Option<T> {
        let value = st.queue.pop_front()?;
        if self.0.cap.is_some() {
            self.0.not_full.notify_one();
        }
        Some(value)
    }

    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.0.lock();
        loop {
            if let Some(v) = self.pop(&mut st) {
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st = self.0.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.0.lock();
        match self.pop(&mut st) {
            Some(v) => Ok(v),
            None if st.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.0.lock();
        loop {
            if let Some(v) = self.pop(&mut st) {
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            st = self
                .0
                .not_empty
                .wait_timeout(st, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.try_recv().ok())
    }

    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.recv().ok())
    }

    pub fn len(&self) -> usize {
        self.0.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.lock().senders += 1;
        Sender(self.0.clone())
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.lock().receivers += 1;
        Receiver(self.0.clone())
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.receivers -= 1;
        if st.receivers == 0 {
            // Like crossbeam: messages nobody can receive are dropped now,
            // so resources they own (sockets, reply channels) are released.
            let orphaned = std::mem::take(&mut st.queue);
            drop(st);
            drop(orphaned);
            self.0.not_full.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_disconnect() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        assert_eq!(
            rx.try_iter().collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        let (tx, rx) = unbounded();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn bounded_blocks_until_received_and_mpmc_delivers_once() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
        let rx2 = rx.clone();
        let producer = std::thread::spawn(move || {
            for i in 2..100 {
                tx.send(i).unwrap();
            }
        });
        let consumer = std::thread::spawn(move || rx2.iter().collect::<Vec<i32>>());
        let mut got: Vec<i32> = rx.iter().collect();
        producer.join().unwrap();
        got.extend(consumer.join().unwrap());
        got.sort_unstable();
        assert_eq!(got, (1..100).collect::<Vec<i32>>());
    }
}
