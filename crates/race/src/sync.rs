//! Model synchronization primitives: drop-in shapes for the std types
//! the production concurrency code uses, backed by the deterministic
//! scheduler instead of the OS.
//!
//! Every operation is one scheduler step, so the explorer enumerates
//! every interleaving of them. The types mirror std closely enough that
//! `BoundedQueue` compiles against them unchanged (via the crate's
//! `sync_prims` indirection — see `crate::queue`), but they are *not*
//! poisoning: a model-thread panic cancels the whole run and is
//! reported as a typed finding instead.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Duration;

use crate::sched::{current, Engine};

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A model mutex. Acquisition is a scheduler decision point; contended
/// acquisition models barging (all waiters race for the freed lock).
pub struct Mutex<T> {
    eng: Arc<Engine>,
    id: usize,
    data: UnsafeCell<T>,
}

// SAFETY: the cell is only dereferenced through a `MutexGuard`, which
// exists only while the model scheduler records this thread as the
// lock's unique owner; owners are mutually exclusive by construction.
unsafe impl<T: Send> Send for Mutex<T> {}
// SAFETY: as above — shared references hand out data only via the
// guard, whose existence proves model-exclusive ownership.
unsafe impl<T: Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// Registers a new mutex with the active exploration.
    ///
    /// # Panics
    ///
    /// Panics outside [`crate::explore`].
    pub fn new(value: T) -> Self {
        let (eng, _me) = current();
        let id = eng.register_mutex();
        Mutex { eng, id, data: UnsafeCell::new(value) }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        let (_, me) = current();
        self.eng.mutex_lock(me, self.id);
        MutexGuard { mutex: self, _not_send: PhantomData }
    }
}

/// Guard for a model [`Mutex`]. Dropping releases the lock (release is
/// not a decision point, so guard drops are safe during cancellation).
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    /// Like std's guard, it must be dropped on the acquiring thread, so
    /// it is deliberately `!Send`.
    _not_send: PhantomData<*mut ()>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: this guard exists only while the model scheduler
        // records the current thread as the unique owner of the lock.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref` — model ownership is exclusive.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.mutex.eng.mutex_unlock(self.mutex.id);
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// A model condition variable with FIFO waiters: `notify_one` wakes the
/// longest waiter, so a given schedule is fully deterministic. Lost
/// wakeups surface naturally as deadlock findings; the
/// `drop_nth_notify` config hook injects one deliberately.
pub struct Condvar {
    eng: Arc<Engine>,
    id: usize,
}

impl Condvar {
    /// Registers a new condvar with the active exploration.
    ///
    /// # Panics
    ///
    /// Panics outside [`crate::explore`].
    pub fn new() -> Self {
        let (eng, _me) = current();
        let id = eng.register_condvar();
        Condvar { eng, id }
    }

    pub fn notify_one(&self) {
        let (_, me) = current();
        self.eng.condvar_notify(me, self.id, false);
    }

    pub fn notify_all(&self) {
        let (_, me) = current();
        self.eng.condvar_notify(me, self.id, true);
    }

    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let (guard, _) = self.wait_inner(guard, None);
        guard
    }

    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        self.wait_inner(guard, Some(timeout))
    }

    fn wait_inner<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Option<Duration>,
    ) -> (MutexGuard<'a, T>, bool) {
        let (_, me) = current();
        let mutex: &'a Mutex<T> = guard.mutex;
        // The engine releases the lock as part of the wait; forget the
        // guard so its drop doesn't release a second time. If the run
        // is cancelled mid-wait we unwind holding no guard, matching
        // the engine's view that this thread owns nothing.
        std::mem::forget(guard);
        let timed_out = mutex.eng.condvar_wait(me, self.id, mutex.id, timeout);
        (MutexGuard { mutex, _not_send: PhantomData }, timed_out)
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}
