//! `spg-race`: a loom-style deterministic-interleaving model checker
//! for the spg concurrency layer.
//!
//! The repo's headline correctness property — epoch losses and served
//! outputs bit-identical for any worker count, shard kill, or
//! mid-all-reduce rank fault — rests on the scheduling behaviour of
//! `spg-sync` locks, `BoundedQueue`, the serve/SGD supervisors, and
//! the chain-in-ring all-reduce. PR 5 proved every memory-access plan
//! safe before it runs; this crate does the same for every *schedule*:
//! small configurations (2–3 workers, 2–3 ranks, queue depth 2) are
//! explored exhaustively under a bounded-preemption DFS scheduler, and
//! the concurrency invariants are asserted on every interleaving.
//!
//! # Layers
//!
//! * [`sync`], [`thread`], [`time`] — model primitives (Mutex, Condvar,
//!   channels, atomics with a modeled happens-before relation,
//!   [`sync::RaceCell`] for data-race detection, a logical clock).
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
//! * [`scenarios`] — the proof suite: queue, serve-pool supervision,
//!   SGD merge order, router eviction/respawn, ring all-reduce fault
//!   replay. Each scenario accepts a `Mutation` so the test suite can
//!   prove the checker *catches* seeded bugs (reordered merge, dropped
//!   notify, swapped lock order, double slot claim, stale replay) with
//!   a typed finding, mirroring PR 5's plan-mutation proptests.
//!
//! # What "proved" means here
//!
//! Exploration is exhaustive over schedules of the *model* up to the
//! configured preemption bound. The queue scenarios run the production
//! queue source and the serve-pool scenario the production restart loop
//! around it — the supervisor every pool in the workspace calls; the
//! lock-order, SGD-merge, router and ring scenarios run distilled
//! protocol models of code the model cannot host (OS processes, kernel
//! pools, sockets), so they prove the *protocol*, and the lints plus
//! ThreadSanitizer CI tie the production code to that protocol. See
//! DESIGN.md "Concurrency invariants" for the invariant-by-invariant
//! mapping.

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

/// Exploration parameters for one scenario.
#[derive(Clone, Debug)]
pub struct Config {
    /// Scenario name, carried into findings and reports.
    pub name: String,
    /// Preemption budget per schedule: switches away from a thread that
    /// could still run. Forced switches (current thread blocked) are
    /// free. 2 is CHESS's classic "most bugs need ≤2" bound.
    pub max_preemptions: usize,
    /// Hard cap on schedules explored; exceeding it is a
    /// [`RaceError::ScheduleLimit`] so a proof test can never silently
    /// under-explore.
    pub max_schedules: u64,
    /// Hard cap on scheduler steps within one schedule (livelock guard).
    pub max_steps: u64,
    /// Budget of spurious condvar wakeups to inject per schedule (each
    /// is a branch point), proving wait-site predicate loops.
    pub spurious_wakeups: u32,
    /// Mutation hook: silently drop the nth (1-based) notify of the
    /// run, proving lost wakeups are caught as deadlock findings.
    pub drop_nth_notify: Option<u64>,
    /// Merge schedule branches whose scheduler-visible state (thread
    /// statuses and op counts, lock owners, waiter queues, channel
    /// occupancy, logical clock) was already explored with at least as
    /// much preemption budget.
    pub state_hash_pruning: bool,
}

impl Config {
    /// Defaults tuned for the bundled small-config scenarios.
    pub fn new(name: impl Into<String>) -> Config {
        Config {
            name: name.into(),
            max_preemptions: 2,
            max_schedules: 500_000,
            max_steps: 100_000,
            spurious_wakeups: 0,
            drop_nth_notify: None,
            state_hash_pruning: true,
        }
    }

    pub fn preemptions(mut self, n: usize) -> Config {
        self.max_preemptions = n;
        self
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
    /// Two unordered accesses to a [`sync::RaceCell`], at least one a
    /// write (no happens-before edge between them).
    DataRace { scenario: String, schedule: u64, location: String },
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
            RaceError::DataRace { scenario, schedule, location } => {
                write!(f, "{scenario}: data race on schedule {schedule} at {location}")
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
