//! Shim for `crossbeam-channel`: a bounded MPMC channel built on a
//! `Mutex<VecDeque>` + two condvars. Implements the subset used by the
//! telemetry bus and the cluster: `bounded`, non-blocking
//! `try_send`/`try_recv`, blocking `send`/`recv`, and disconnect
//! semantics on drop of the last peer.
//!
//! A condvar is notified only when a peer is blocked on it, so the
//! non-blocking paths never make a wake-up system call.

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    Full(T),
    Disconnected(T),
}

#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

struct State<T> {
    queue: VecDeque<T>,
    /// Receivers blocked in `recv`.
    waiting_rx: usize,
    /// Senders blocked in `send`.
    waiting_tx: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    cap: usize,
    not_empty: Condvar,
    not_full: Condvar,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

impl<T> Shared<T> {
    fn disconnected_tx(&self) -> bool {
        self.senders.load(Ordering::Acquire) == 0
    }

    fn disconnected_rx(&self) -> bool {
        self.receivers.load(Ordering::Acquire) == 0
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pushes `msg` and wakes a blocked receiver, if there is one.
    fn push(&self, mut st: MutexGuard<'_, State<T>>, msg: T) {
        st.queue.push_back(msg);
        let wake = st.waiting_rx > 0;
        drop(st);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Pops the oldest message and wakes a blocked sender, if there is one;
    /// hands the guard back if the queue is empty.
    fn pop<'a>(&self, mut st: MutexGuard<'a, State<T>>) -> Result<T, MutexGuard<'a, State<T>>> {
        let Some(msg) = st.queue.pop_front() else {
            return Err(st);
        };
        let wake = st.waiting_tx > 0;
        drop(st);
        if wake {
            self.not_full.notify_one();
        }
        Ok(msg)
    }
}

/// Creates a bounded channel with room for `cap` in-flight messages.
/// `cap == 0` is treated as capacity 1 (this shim has no rendezvous mode).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            waiting_rx: 0,
            waiting_tx: 0,
        }),
        cap: cap.max(1),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

pub struct Sender<T>(Arc<Shared<T>>);

impl<T> Sender<T> {
    pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        if self.0.disconnected_rx() {
            return Err(TrySendError::Disconnected(msg));
        }
        let st = self.0.lock();
        if st.queue.len() >= self.0.cap {
            return Err(TrySendError::Full(msg));
        }
        self.0.push(st, msg);
        Ok(())
    }

    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut st = self.0.lock();
        loop {
            if self.0.disconnected_rx() {
                return Err(SendError(msg));
            }
            if st.queue.len() < self.0.cap {
                self.0.push(st, msg);
                return Ok(());
            }
            st.waiting_tx += 1;
            st = self
                .0
                .not_full
                .wait_timeout(st, Duration::from_millis(10))
                .unwrap_or_else(|e| e.into_inner())
                .0;
            st.waiting_tx -= 1;
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.senders.fetch_add(1, Ordering::AcqRel);
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.0.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.0.not_empty.notify_all();
        }
    }
}

pub struct Receiver<T>(Arc<Shared<T>>);

impl<T> Receiver<T> {
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match self.0.pop(self.0.lock()) {
            Ok(v) => Ok(v),
            Err(_) if self.0.disconnected_tx() => Err(TryRecvError::Disconnected),
            Err(_) => Err(TryRecvError::Empty),
        }
    }

    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.0.lock();
        loop {
            st = match self.0.pop(st) {
                Ok(v) => return Ok(v),
                Err(st) => st,
            };
            if self.0.disconnected_tx() {
                return Err(RecvError);
            }
            st.waiting_rx += 1;
            st = self
                .0
                .not_empty
                .wait_timeout(st, Duration::from_millis(10))
                .unwrap_or_else(|e| e.into_inner())
                .0;
            st.waiting_rx -= 1;
        }
    }

    pub fn len(&self) -> usize {
        self.0.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.receivers.fetch_add(1, Ordering::AcqRel);
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if self.0.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.0.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_full() {
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_semantics() {
        let (tx, rx) = bounded::<u32>(4);
        tx.try_send(7).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(7));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));

        let (tx, rx) = bounded::<u32>(4);
        drop(rx);
        assert_eq!(tx.try_send(1), Err(TrySendError::Disconnected(1)));
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = bounded(8);
        let h = std::thread::spawn(move || {
            for i in 0..100u32 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<u32> = (0..100).map(|_| rx.recv().unwrap()).collect();
        h.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn blocked_peers_proceed() {
        // A receiver blocked on an empty channel gets the next send.
        let (tx, rx) = bounded::<u32>(1);
        let h = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(50));
        tx.try_send(9).unwrap();
        assert_eq!(h.join().unwrap(), Ok(9));

        // A sender blocked on a full channel proceeds once it drains.
        let (tx, rx) = bounded::<u32>(1);
        tx.try_send(1).unwrap();
        let h = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(rx.try_recv(), Ok(1));
        h.join().unwrap().unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }
}
