//! Model threads: real OS threads serialized by the scheduler.
//!
//! A model thread becomes runnable at spawn but only executes model
//! operations when scheduled; its final retirement is itself a
//! scheduler step, so the set of live threads the explorer sees is
//! identical on every replay of a prefix.

use std::sync::{Arc, Mutex as StdMutex};

use crate::sched::{current, spawn_model};

/// Handle to a model thread; [`join`](JoinHandle::join) blocks (in
/// model time) until the thread retires.
pub struct JoinHandle<T> {
    tid: usize,
    result: Arc<StdMutex<Option<T>>>,
}

/// Spawns a model thread whose name appears in deadlock and panic
/// findings — name supervisor/worker roles for readable reports.
///
/// # Panics
///
/// Panics outside [`crate::explore`].
pub fn spawn_named<F, T>(name: impl Into<String>, f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (tid, result) = spawn_model(name.into(), f);
    JoinHandle { tid, result }
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to retire and returns its value. A real
    /// panic in any model thread cancels the whole run with a typed
    /// finding, so there is no `Err` arm to handle here.
    pub fn join(self) -> T {
        let (eng, me) = current();
        eng.thread_join(me, self.tid);
        self.result
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
            .expect("joined model thread retired without a result")
    }
}
