//! A bounded MPMC queue with backpressure, built on `Mutex` + `Condvar`.
//!
//! The serving front end pushes single-sample requests; worker threads
//! pop them, batching greedily up to a deadline. The queue is *bounded*:
//! a full queue rejects (or times out) instead of buffering unbounded
//! work, which is what turns overload into fast, typed feedback rather
//! than silently growing latency.
//!
//! All lock acquisition goes through `spg-sync`'s poison-recovering
//! helpers: a worker that panics mid-batch (the supervisor catches it at
//! the batch boundary) must not take the queue — and with it every other
//! worker and submitter — down via `Mutex` poisoning. Queue state is
//! updated atomically under the guard (a `VecDeque` push/pop either
//! happened or it didn't), so a recovered guard always sees a consistent
//! queue.
//!
//! This file is compiled twice: here against std + `spg-sync`, and via
//! `#[path]` inclusion inside `spg-race` against that crate's model
//! primitives, which is how the model checker explores every schedule
//! of the *production* queue source. All synchronization imports must
//! therefore go through `crate::sync_prims` (which resolves per
//! including crate), and unit tests live in `tests/queue.rs` rather
//! than an in-file module.

use std::collections::VecDeque;

use crate::sync_prims::{lock, wait, wait_timeout, Condvar, Instant, Mutex};

/// Outcome of a non-blocking or deadline-bounded push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue was at capacity.
    Full,
    /// The queue was closed for new work (shutdown in progress).
    Closed,
    /// The deadline passed while waiting for space.
    TimedOut,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer FIFO queue.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Non-blocking push: errors immediately when full or closed.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`close`](Self::close).
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut state = lock(&self.state);
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Push that waits for space until `deadline`.
    ///
    /// # Errors
    ///
    /// [`PushError::TimedOut`] when the deadline passes while the queue
    /// is still full, [`PushError::Closed`] if it closes while waiting.
    pub fn push_deadline(&self, item: T, deadline: Instant) -> Result<(), PushError> {
        let mut state = lock(&self.state);
        loop {
            if state.closed {
                return Err(PushError::Closed);
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                drop(state);
                self.not_empty.notify_one();
                return Ok(());
            }
            let now = Instant::now();
            let Some(remaining) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
            else {
                return Err(PushError::TimedOut);
            };
            let (guard, timed_out) = wait_timeout(&self.not_full, state, remaining);
            state = guard;
            if timed_out && state.items.len() >= self.capacity {
                return Err(PushError::TimedOut);
            }
        }
    }

    /// Blocking pop. Returns `None` only once the queue is closed *and*
    /// drained — in-flight work is always completed before shutdown.
    pub fn pop(&self) -> Option<T> {
        let mut state = lock(&self.state);
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = wait(&self.not_empty, state);
        }
    }

    /// Non-blocking pop of one item, if any is immediately available.
    pub fn try_pop(&self) -> Option<T> {
        let mut state = lock(&self.state);
        let item = state.items.pop_front();
        if item.is_some() {
            drop(state);
            self.not_full.notify_one();
        }
        item
    }

    /// Pops one item, waiting at most until `deadline`. Returns `None` on
    /// deadline expiry or on closed-and-drained.
    pub fn pop_deadline(&self, deadline: Instant) -> Option<T> {
        let mut state = lock(&self.state);
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            let now = Instant::now();
            let remaining = deadline.checked_duration_since(now).filter(|d| !d.is_zero())?;
            let (guard, _) = wait_timeout(&self.not_empty, state, remaining);
            state = guard;
        }
    }

    /// Closes the queue: new pushes fail, pops drain what remains and
    /// then return `None`.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}
