//! The worker runtime every pool in the workspace is a client of: one
//! restart loop ([`supervise`]), one fork-join ([`fork_join`]), lock
//! helpers that *recover* from poisoning instead of propagating it, and a
//! deterministic fault-injection harness for supervision testing.
//!
//! # One restart loop, one fork-join
//!
//! The paper's scalability idea is P independent single-threaded workers
//! with private warm state and a static partition of the work. Two shapes
//! recur wherever that idea is applied, and each exists exactly once,
//! here: a long-lived worker that runs incarnations under a restart
//! budget with exponential backoff ([`supervise`], [`Restarts`]), and a
//! short-lived fan-out of n independent tasks that joins and re-raises a
//! worker's panic ([`fork_join`]). Both are plain safe Rust over
//! `std::thread` — scoped threads, no lifetime erasure.
//!
//! # Poison recovery
//!
//! `std` poisons a `Mutex`/`RwLock` when a thread panics while holding the
//! guard, and every later `lock()` returns `Err(PoisonError)`. The idiomatic
//! `.expect("poisoned")` response turns one worker's panic into a
//! process-wide cascade: every other worker that touches the same lock
//! aborts too. The pools in spg-serve and spg-convnet instead confine a
//! panic with `catch_unwind` at the worker-batch boundary and repair any
//! invariants themselves, so for them poisoning carries no information —
//! these helpers simply take the guard back with
//! [`PoisonError::into_inner`].
//!
//! Callers that recover a poisoned guard must be able to tolerate the
//! protected data being mid-update; every pool in this workspace only
//! holds locks around operations that are atomic at the data level
//! (queue push/pop, whole-buffer reads), which is what makes recovery
//! sound here.
//!
//! # Fault injection
//!
//! [`FaultPlan`] describes one deterministic fault — "panic on the Nth
//! batch of worker K" — and [`FaultInjector`] carries it into the pools.
//! The panic site only exists when the `fault-injection` cargo feature is
//! enabled; release builds without the feature compile the injector down
//! to a no-op.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod fork_join;
mod supervise;
mod sync_prims;

pub use fork_join::{fork_join, fork_join_spawns};
pub use supervise::{backoff_delay, supervise, Restarts};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering the guard if a previous holder panicked.
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Acquires a read guard, recovering from poisoning.
pub fn read<T>(rwlock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    rwlock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Acquires a write guard, recovering from poisoning.
pub fn write<T>(rwlock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    rwlock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on a condvar, recovering the reacquired guard from poisoning.
pub fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Waits on a condvar with a timeout, recovering the reacquired guard
/// from poisoning. Returns the guard and whether the wait timed out.
pub fn wait_timeout<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> (MutexGuard<'a, T>, bool) {
    match condvar.wait_timeout(guard, dur) {
        Ok((guard, timeout)) => (guard, timeout.timed_out()),
        Err(poisoned) => {
            let (guard, timeout) = poisoned.into_inner();
            (guard, timeout.timed_out())
        }
    }
}

/// `start + patience`, or — where that sum overflows `Instant`, which `+`
/// answers with a panic — the furthest deadline halving `patience` can
/// represent: centuries out, so a bounded wait on it only ends when what
/// it waits for happens.
pub fn deadline_after(start: Instant, mut patience: Duration) -> Instant {
    loop {
        if let Some(deadline) = start.checked_add(patience) {
            return deadline;
        }
        patience /= 2;
    }
}

/// Best-effort extraction of a panic payload's message, for turning a
/// caught worker panic into a typed error.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// A monotone event counter that threads can park on: the supervision
/// paths `bump()` it when an externally observable event happens (a
/// worker restart, a shard eviction), and tests `wait_until(n)` instead
/// of sleep-polling — turning "sleep 200ms and hope the respawn
/// happened" into "block until the nth respawn is observed", which is
/// both faster and immune to slow-CI flakiness.
///
/// The wait sits in a predicate loop (spurious wakeups re-check), and
/// all lock traffic goes through the poison-recovering helpers: a
/// panicking bumper cannot wedge the waiters.
#[derive(Debug, Default)]
pub struct ProgressCounter {
    count: Mutex<u64>,
    changed: Condvar,
}

impl ProgressCounter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        ProgressCounter::default()
    }

    /// Increment and wake every waiter. Returns the new value.
    pub fn bump(&self) -> u64 {
        let mut count = lock(&self.count);
        *count += 1;
        let now = *count;
        drop(count);
        self.changed.notify_all();
        now
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        *lock(&self.count)
    }

    /// Block until the counter reaches at least `target`.
    pub fn wait_until(&self, target: u64) -> u64 {
        let mut count = lock(&self.count);
        while *count < target {
            count = wait(&self.changed, count);
        }
        *count
    }

    /// Block until the counter reaches `target` or `dur` elapses.
    /// Returns `true` when the target was reached. The deadline is
    /// computed up front so spurious wakeups cannot extend it.
    pub fn wait_until_timeout(&self, target: u64, dur: Duration) -> bool {
        let Some(deadline) = std::time::Instant::now().checked_add(dur) else {
            // A duration too large to represent as a deadline is an
            // infinite timeout, not an overflow panic.
            self.wait_until(target);
            return true;
        };
        let mut count = lock(&self.count);
        while *count < target {
            let Some(left) = deadline.checked_duration_since(std::time::Instant::now()) else {
                return false;
            };
            let (guard, timed_out) = wait_timeout(&self.changed, count, left);
            count = guard;
            if timed_out && *count < target {
                return false;
            }
        }
        true
    }
}

/// Sentinel for [`FaultPlan::worker`]: the fault fires on whichever worker
/// first reaches the target batch. Useful when the MPMC queue makes the
/// request-to-worker mapping nondeterministic.
pub const ANY_WORKER: usize = usize::MAX;

/// One deterministic injected fault: panic when worker `worker` starts its
/// `batch`-th unit of work (1-based; a "unit" is a micro-batch for serving
/// workers, a sample job for training workers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Target worker index, or [`ANY_WORKER`] for the first worker to get
    /// there.
    pub worker: usize,
    /// 1-based index of the work unit that panics.
    pub batch: u64,
    /// Free-form seed echoed in the panic message so a failure in CI can
    /// be tied back to the exact plan that produced it.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan that panics on worker `worker`'s `batch`-th work unit.
    pub fn panic_on(worker: usize, batch: u64) -> Self {
        FaultPlan { worker, batch, seed: 0 }
    }

    /// A plan that panics on the `batch`-th work unit of whichever worker
    /// reaches it first.
    pub fn any_worker(batch: u64) -> Self {
        FaultPlan { worker: ANY_WORKER, batch, seed: 0 }
    }

    /// Replaces the seed, keeping worker/batch.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether the current build can actually fire injected faults (the
    /// `fault-injection` cargo feature is enabled).
    pub fn armed() -> bool {
        cfg!(feature = "fault-injection")
    }

    /// Parses a CLI-style spec: `K:N` (worker K, batch N), `any:N`, with
    /// an optional `:SEED` suffix, e.g. `0:3`, `any:2`, `1:4:99`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed specs.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() < 2 || parts.len() > 3 {
            return Err(format!("fault spec '{spec}' is not K:N, any:N, or K:N:SEED"));
        }
        let worker = if parts[0].eq_ignore_ascii_case("any") {
            ANY_WORKER
        } else {
            parts[0]
                .parse::<usize>()
                .map_err(|_| format!("fault spec '{spec}': worker must be an index or 'any'"))?
        };
        let batch = parts[1]
            .parse::<u64>()
            .ok()
            .filter(|&b| b >= 1)
            .ok_or_else(|| format!("fault spec '{spec}': batch must be a positive integer"))?;
        let seed = match parts.get(2) {
            Some(s) => s
                .parse::<u64>()
                .map_err(|_| format!("fault spec '{spec}': seed must be an integer"))?,
            None => 0,
        };
        Ok(FaultPlan { worker, batch, seed })
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.worker == ANY_WORKER {
            write!(f, "any:{}", self.batch)?;
        } else {
            write!(f, "{}:{}", self.worker, self.batch)?;
        }
        if self.seed != 0 {
            write!(f, ":{}", self.seed)?;
        }
        Ok(())
    }
}

/// Carries a [`FaultPlan`] into a worker pool and fires it exactly once.
///
/// Clones share the one-shot flag, so a pool that hands each worker a
/// clone still injects a single fault for the whole run — and a worker
/// respawned by its supervisor does not re-trip the same plan.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: Option<FaultPlan>,
    fired: Arc<AtomicBool>,
}

impl FaultInjector {
    /// An injector for `plan`; `None` never fires.
    pub fn new(plan: Option<FaultPlan>) -> Self {
        FaultInjector { plan, fired: Arc::new(AtomicBool::new(false)) }
    }

    /// An injector that never fires.
    pub fn disarmed() -> Self {
        FaultInjector::new(None)
    }

    /// Whether the injected fault has already fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// The plan this injector carries, if any.
    pub fn plan(&self) -> Option<FaultPlan> {
        self.plan
    }

    /// Call at the top of each work unit. Panics iff the build has the
    /// `fault-injection` feature, the plan targets this `(worker, batch)`,
    /// and no clone of this injector has fired yet.
    #[allow(unused_variables)]
    pub fn check(&self, worker: usize, batch: u64) {
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = self.plan {
            if (plan.worker == ANY_WORKER || plan.worker == worker)
                && batch == plan.batch
                && !self.fired.swap(true, Ordering::SeqCst)
            {
                panic!(
                    "injected fault (plan {plan}): worker {worker} panicking on work unit {batch}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_recovers_from_poison() {
        let mutex = Arc::new(Mutex::new(7u32));
        let poisoner = Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(mutex.is_poisoned());
        assert_eq!(*lock(&mutex), 7);
        *lock(&mutex) = 8;
        assert_eq!(*lock(&mutex), 8);
    }

    #[test]
    fn rwlock_recovers_from_poison() {
        let rw = Arc::new(RwLock::new(vec![1, 2, 3]));
        let poisoner = Arc::clone(&rw);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.write().unwrap();
            panic!("poison the rwlock");
        })
        .join();
        assert_eq!(read(&rw).len(), 3);
        write(&rw).push(4);
        assert_eq!(read(&rw).len(), 4);
    }

    #[test]
    fn wait_timeout_reports_expiry() {
        let mutex = Mutex::new(());
        let condvar = Condvar::new();
        let guard = lock(&mutex);
        let (_guard, timed_out) = wait_timeout(&condvar, guard, Duration::from_millis(5));
        assert!(timed_out);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(5);
        assert_eq!(backoff_delay(base, 1), Duration::from_millis(5));
        assert_eq!(backoff_delay(base, 2), Duration::from_millis(10));
        assert_eq!(backoff_delay(base, 3), Duration::from_millis(20));
        assert_eq!(backoff_delay(Duration::from_millis(400), 9), Duration::from_secs(1));
        assert_eq!(backoff_delay(Duration::ZERO, 5), Duration::ZERO);
    }

    #[test]
    fn backoff_saturates_at_extremes() {
        // Regression: each of these once risked a shift/mul overflow.
        // The schedule must clamp, never panic or wrap to near-zero.
        let base = Duration::from_millis(5);
        assert_eq!(backoff_delay(base, usize::MAX), Duration::from_secs(1));
        assert_eq!(backoff_delay(Duration::MAX, 1), Duration::from_secs(1));
        assert_eq!(backoff_delay(Duration::MAX, usize::MAX), Duration::from_secs(1));
        assert_eq!(backoff_delay(Duration::from_nanos(1), 64), Duration::from_nanos(1024));
        assert_eq!(backoff_delay(Duration::ZERO, usize::MAX), Duration::ZERO);
    }

    #[test]
    fn supervise_without_budget_runs_one_incarnation() {
        let mut runs = 0;
        let result: Result<(), &str> = supervise(
            Restarts { budget: 0, backoff: Duration::from_secs(1) },
            || {
                runs += 1;
                Err("fault")
            },
            |_, _| panic!("budget 0 never restarts"),
        );
        assert_eq!((result, runs), (Err("fault"), 1));
    }

    #[test]
    fn supervise_restarts_exactly_budget_times_then_returns_the_last_fault() {
        let (mut runs, mut seen) = (0usize, Vec::new());
        let result: Result<(), usize> = supervise(
            Restarts { budget: 3, backoff: Duration::ZERO },
            || {
                runs += 1;
                Err(runs)
            },
            |n, fault| seen.push((n, *fault)),
        );
        // Four incarnations; restart n was caused by incarnation n's fault.
        assert_eq!(result, Err(4));
        assert_eq!(seen, [(1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn supervise_returns_a_later_ok_as_is() {
        let (mut runs, mut restarts) = (0, 0);
        let result: Result<&str, ()> = supervise(
            Restarts { budget: 5, backoff: Duration::ZERO },
            || {
                runs += 1;
                if runs < 3 {
                    Err(())
                } else {
                    Ok("done")
                }
            },
            |n, ()| restarts = n,
        );
        assert_eq!((result, runs, restarts), (Ok("done"), 3, 2));
    }

    #[test]
    fn supervise_sleeps_the_backoff_after_the_restart_event() {
        let base = Duration::from_millis(10);
        let mut event_at = None;
        let mut second_start = None;
        let mut first = true;
        let _: Result<(), ()> = supervise(
            Restarts { budget: 1, backoff: base },
            || {
                if std::mem::take(&mut first) {
                    return Err(());
                }
                second_start = Some(std::time::Instant::now());
                Ok(())
            },
            |_, ()| event_at = Some(std::time::Instant::now()),
        );
        let slept = second_start.unwrap().duration_since(event_at.unwrap());
        assert!(slept >= base, "restart event precedes a {base:?} backoff, saw {slept:?}");
    }

    #[test]
    fn progress_counter_bumps_and_waits() {
        let counter = Arc::new(ProgressCounter::new());
        assert_eq!(counter.get(), 0);
        let waiter = {
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || counter.wait_until(3))
        };
        for expect in 1..=3 {
            assert_eq!(counter.bump(), expect);
        }
        assert!(waiter.join().unwrap() >= 3);
        assert!(counter.wait_until_timeout(3, Duration::ZERO), "already reached");
        assert!(!counter.wait_until_timeout(4, Duration::from_millis(5)), "4 never happens");
        assert!(counter.wait_until_timeout(1, Duration::MAX), "unrepresentable deadline waits");
    }

    #[test]
    fn progress_counter_survives_a_panicking_bumper() {
        let counter = Arc::new(ProgressCounter::new());
        let bumper = Arc::clone(&counter);
        let _ = std::thread::spawn(move || {
            bumper.bump();
            panic!("die after bumping");
        })
        .join();
        // The panicking thread held the lock only inside bump(); the
        // counter stays usable and the count it published stays visible.
        assert_eq!(counter.get(), 1);
        assert_eq!(counter.bump(), 2);
        assert_eq!(counter.wait_until(2), 2);
    }

    /// Many threads repeatedly panic *while holding* the helpers' locks;
    /// the poison-recovering helpers must keep every surviving thread
    /// making progress and the protected data consistent. This is the
    /// stress-level complement to the single-poisoner unit tests.
    #[test]
    fn helpers_survive_concurrent_panics() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        const THREADS: usize = 8;
        const ROUNDS: usize = 25;
        let mutex = Arc::new(Mutex::new(0u64));
        let rw = Arc::new(RwLock::new(0u64));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let mutex = Arc::clone(&mutex);
                let rw = Arc::clone(&rw);
                std::thread::spawn(move || {
                    for round in 0..ROUNDS {
                        // Half the acquisitions panic under the guard,
                        // poisoning the locks for everyone else.
                        let poison = (t + round) % 2 == 0;
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            let mut guard = lock(&mutex);
                            *guard += 1;
                            if poison {
                                panic!("poison the mutex");
                            }
                        }));
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            let mut guard = write(&rw);
                            *guard += 1;
                            if poison {
                                panic!("poison the rwlock");
                            }
                        }));
                        // Readers interleave with the poisoners.
                        let _ = *lock(&mutex);
                        let _ = *read(&rw);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker threads themselves never die");
        }
        // Every increment ran under a recovered guard exactly once:
        // the panics happened *after* the +1, so totals are exact.
        assert_eq!(*lock(&mutex), (THREADS * ROUNDS) as u64);
        assert_eq!(*read(&rw), (THREADS * ROUNDS) as u64);
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let payload: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(payload.as_ref()), "static str");
        let payload: Box<dyn std::any::Any + Send> = Box::new("owned".to_string());
        assert_eq!(panic_message(payload.as_ref()), "owned");
        let payload: Box<dyn std::any::Any + Send> = Box::new(42u8);
        assert_eq!(panic_message(payload.as_ref()), "worker panicked");
    }

    #[test]
    fn fault_plan_parses_cli_specs() {
        assert_eq!(FaultPlan::parse("0:3").unwrap(), FaultPlan::panic_on(0, 3));
        assert_eq!(FaultPlan::parse("any:2").unwrap(), FaultPlan::any_worker(2));
        assert_eq!(FaultPlan::parse("1:4:99").unwrap(), FaultPlan::panic_on(1, 4).with_seed(99));
        assert!(FaultPlan::parse("nope").is_err());
        assert!(FaultPlan::parse("0:0").is_err(), "batch is 1-based");
        assert!(FaultPlan::parse("a:b:c:d").is_err());
    }

    #[test]
    fn fault_plan_display_round_trips() {
        for spec in ["0:3", "any:2", "1:4:99"] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert_eq!(plan.to_string(), spec);
            assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
        }
    }

    #[cfg(not(feature = "fault-injection"))]
    #[test]
    fn injector_is_inert_without_the_feature() {
        let injector = FaultInjector::new(Some(FaultPlan::any_worker(1)));
        injector.check(0, 1); // would panic if armed
        assert!(!injector.fired());
    }

    #[cfg(feature = "fault-injection")]
    mod armed {
        use super::*;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        #[test]
        fn injector_fires_exactly_once_across_clones() {
            let injector = FaultInjector::new(Some(FaultPlan::panic_on(1, 2)));
            injector.check(0, 2); // wrong worker
            injector.check(1, 1); // wrong batch
            assert!(!injector.fired());
            let clone = injector.clone();
            assert!(catch_unwind(AssertUnwindSafe(|| clone.check(1, 2))).is_err());
            assert!(injector.fired());
            // A respawned worker re-running the same (worker, batch) must
            // not re-trip the one-shot plan.
            injector.check(1, 2);
        }

        #[test]
        fn any_worker_plan_fires_for_first_arrival() {
            let injector = FaultInjector::new(Some(FaultPlan::any_worker(3)));
            injector.check(5, 2);
            assert!(catch_unwind(AssertUnwindSafe(|| injector.check(5, 3))).is_err());
            injector.check(0, 3); // already fired
        }
    }
}
