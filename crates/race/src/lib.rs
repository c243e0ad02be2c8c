//! `spg-race`: a loom-style deterministic-interleaving model checker
//! for the spg concurrency layer.
//!
//! The serving pool's hand-off and every pool's restart loop rest on
//! the scheduling behaviour of `spg-serve`'s `BoundedQueue` and
//! `spg-sync`'s `supervise`. This crate compiles those two sources
//! unchanged against model primitives and explores every *schedule*
//! of small configurations (2–5 threads, queue depth 1–2) under a
//! bounded-preemption DFS scheduler, asserting the concurrency
//! invariants on every interleaving.
//!
//! # Layers
//!
//! * [`sync`], [`thread`], [`time`] — model primitives (Mutex, Condvar,
//!   named threads, a logical clock).
//! * [`sched`](fn.explore.html) — the DFS scheduler: bounded
//!   preemptions, state-hash pruning, logical-time timeouts, typed
//!   findings ([`RaceError`]).
//! * [`queue`], [`supervise`] — the **production** `BoundedQueue`
//!   source from `spg-serve` and the production restart loop
//!   (`supervise` / `Restarts` / `backoff_delay`) from `spg-sync`,
//!   compiled unchanged against the model via the `sync_prims`
//!   indirection (`#[path]` inclusion, so `crate::` in the shared
//!   source resolves here to model types and in the owning crate to
//!   std + `spg-sync`).
//! * [`scenarios`] — the proof suite: queue hand-off and close, and
//!   serve-pool supervision. Each scenario accepts a `Mutation` so the
//!   test suite can prove the checker *catches* a seeded bug (dropped
//!   notify, double slot claim) with a typed finding.
//!
//! # What "proved" means here
//!
//! Exploration is exhaustive over schedules of the shipped sources up
//! to the preemption bound. Properties of code the model cannot host
//! (kernels, OS processes, sockets) are checked on that code instead:
//! the bit-identity tests, the fault-replay drills, `spg-lint`'s
//! lock-order pass and the ThreadSanitizer legs. See DESIGN.md
//! "Concurrency invariants" for the invariant-by-invariant mapping.

pub mod scenarios;
mod sched;
pub mod sync;
pub mod thread;
pub mod time;

/// The production `BoundedQueue` source, compiled against the model
/// primitives. `crate::sync_prims` inside the included file resolves to
/// `sync_prims` here (model types) and to std + `spg-sync` when the
/// same file is compiled inside `spg-serve`.
#[path = "../../serve/src/queue.rs"]
pub mod queue;

/// The production restart loop (`spg_sync::{supervise, Restarts,
/// backoff_delay}`), compiled against the model clock the same way:
/// its backoff `sleep` resolves to [`time::sleep`] here.
#[path = "../../sync/src/supervise.rs"]
pub mod supervise;

pub use sched::explore;

use std::fmt;

/// Model-facing names for the primitives the shared production sources
/// import. The twin module in `spg-serve` re-exports std's `Mutex`,
/// `Condvar` and `Instant` plus `spg-sync`'s poison-recovering helpers,
/// the one in `spg-sync` std's `sleep`; this one re-exports the model
/// equivalents (the model does not poison — a panic is a typed finding
/// instead).
pub(crate) mod sync_prims {
    pub use crate::sync::{Condvar, Mutex, MutexGuard};
    pub use crate::time::{sleep, Instant};

    /// Model twin of `spg_sync::lock`.
    pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock()
    }

    /// Model twin of `spg_sync::wait`.
    pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        cv.wait(guard)
    }

    /// Model twin of `spg_sync::wait_timeout`.
    pub fn wait_timeout<'a, T>(
        cv: &Condvar,
        guard: MutexGuard<'a, T>,
        timeout: std::time::Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        cv.wait_timeout(guard, timeout)
    }
}

/// Exploration parameters for one scenario. The preemption bound and
/// the schedule and step budgets are the scheduler's own constants.
#[derive(Clone, Debug)]
pub struct Config {
    /// Scenario name, carried into findings and reports.
    pub(crate) name: String,
    /// Budget of spurious condvar wakeups to inject per schedule (each
    /// is a branch point), proving wait-site predicate loops.
    pub(crate) spurious_wakeups: u32,
    /// Mutation hook: silently drop the nth (1-based) notify of the
    /// run, proving lost wakeups are caught as deadlock findings.
    pub(crate) drop_nth_notify: Option<u64>,
}

impl Config {
    /// No spurious wakeups, no dropped notify.
    pub fn new(name: impl Into<String>) -> Config {
        Config { name: name.into(), spurious_wakeups: 0, drop_nth_notify: None }
    }

    pub fn spurious(mut self, n: u32) -> Config {
        self.spurious_wakeups = n;
        self
    }

    pub fn drop_notify(mut self, nth: u64) -> Config {
        self.drop_nth_notify = Some(nth);
        self
    }
}

/// Outcome of a completed exploration with no findings.
#[derive(Clone, Debug)]
pub struct Report {
    pub scenario: String,
    /// Schedules fully executed.
    pub schedules: u64,
    /// Decision nodes collapsed by state-hash pruning.
    pub pruned: u64,
    /// Deepest decision vector seen.
    pub max_depth: usize,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} schedules explored (depth ≤ {}, {} pruned), no findings",
            self.scenario, self.schedules, self.max_depth, self.pruned
        )
    }
}

/// A typed model-checking finding. `schedule` is the 1-based index of
/// the failing schedule in DFS order — rerunning the same scenario and
/// config reproduces it deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaceError {
    /// Every live thread blocked with no pending logical timeout. Lost
    /// wakeups (e.g. a dropped notify) surface as this.
    Deadlock { scenario: String, schedule: u64, waiting: Vec<String> },
    /// A [`invariant`] assertion failed on some interleaving.
    InvariantViolation { scenario: String, schedule: u64, invariant: String, detail: String },
    /// A model thread panicked (not a cancellation).
    Panic { scenario: String, schedule: u64, thread: String, message: String },
    /// Exploration exceeded a hard budget — the proof is inconclusive,
    /// which a proof test must treat as failure.
    ScheduleLimit { scenario: String, limit: u64, what: &'static str },
    /// The scenario behaved differently on replay of an identical
    /// prefix (it must be deterministic apart from scheduling).
    Nondeterminism { scenario: String, detail: String },
}

impl fmt::Display for RaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaceError::Deadlock { scenario, schedule, waiting } => {
                write!(f, "{scenario}: deadlock on schedule {schedule}: {}", waiting.join("; "))
            }
            RaceError::InvariantViolation { scenario, schedule, invariant, detail } => {
                write!(
                    f,
                    "{scenario}: invariant '{invariant}' violated on schedule {schedule}: {detail}"
                )
            }
            RaceError::Panic { scenario, schedule, thread, message } => {
                write!(
                    f,
                    "{scenario}: thread '{thread}' panicked on schedule {schedule}: {message}"
                )
            }
            RaceError::ScheduleLimit { scenario, limit, what } => {
                write!(f, "{scenario}: exploration exceeded {limit} {what} (inconclusive)")
            }
            RaceError::Nondeterminism { scenario, detail } => {
                write!(f, "{scenario}: {detail}")
            }
        }
    }
}

impl std::error::Error for RaceError {}

/// Asserts a concurrency invariant inside a scenario. On violation the
/// run is cancelled and the explorer reports
/// [`RaceError::InvariantViolation`] naming `name`; outside a model run
/// it degrades to a plain panic. The detail closure only runs on
/// failure.
pub fn invariant(cond: bool, name: &str, detail: impl FnOnce() -> String) {
    if cond {
        return;
    }
    if let Some((eng, _me)) = sched::try_current() {
        eng.invariant_failed(name, detail());
    }
    panic!("invariant '{name}' violated outside a model run: {}", detail());
}
