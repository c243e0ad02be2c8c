//! The workspace's one fork-join.
//!
//! Every "split n independent tasks over threads, join" site — the
//! Parallel-GEMM row and column bands, GEMM-in-Parallel's job claimers,
//! the banded stencil, batched inference, the in-process ring's ranks —
//! is one [`fork_join`] call. Each site keeps its own partition
//! arithmetic; what is shared is the part that is easy to get subtly
//! wrong: result order, and what happens to a worker's panic.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Threads [`fork_join`] has spawned in this process.
static SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Threads [`fork_join`] has spawned in this process so far — every task
/// but a call's first. A statistic (relaxed, process-wide): a test that
/// runs alone reads it before and after to assert that a walk which owns
/// no spare cores forked nothing, and a profile divides its delta by a
/// call count to get forks per call.
pub fn fork_join_spawns() -> u64 {
    SPAWNED.load(Ordering::Relaxed)
}

/// Runs every task to completion and returns their results in task
/// order.
///
/// The calling thread runs the first task itself; each remaining task
/// runs on its own scoped thread, so a single task spawns nothing and
/// `n` tasks occupy exactly `n` threads. Tasks may borrow from the
/// caller's stack.
///
/// # Panics
///
/// If any task panicked: after **every** task has finished, the first
/// panic in task order is re-raised on the caller with its original
/// payload.
pub fn fork_join<F, R>(tasks: impl IntoIterator<Item = F>) -> Vec<R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    let mut tasks = tasks.into_iter();
    let Some(first) = tasks.next() else { return Vec::new() };
    // A lone task needs no scope: a sequential stencil plan is one region
    // and runs here once per sample.
    let Some(second) = tasks.next() else { return vec![first()] };
    let outcomes: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let rest: Vec<_> =
            std::iter::once(second).chain(tasks).map(|task| scope.spawn(task)).collect();
        SPAWNED.fetch_add(rest.len() as u64, Ordering::Relaxed);
        let first = catch_unwind(AssertUnwindSafe(first));
        std::iter::once(first).chain(rest.into_iter().map(|handle| handle.join())).collect()
    });
    outcomes.into_iter().map(|outcome| outcome.unwrap_or_else(|p| resume_unwind(p))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_task_order() {
        for n in [0usize, 1, 2, 7] {
            // Later tasks finish first: order must come from the task
            // list, not from completion.
            let done = AtomicUsize::new(0);
            let out = fork_join((0..n).map(|i| {
                let done = &done;
                move || {
                    while done.load(Ordering::SeqCst) < n - 1 - i {
                        std::thread::yield_now();
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                    i * 10
                }
            }));
            assert_eq!(out, (0..n).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn the_caller_runs_the_first_task_and_one_task_spawns_nothing() {
        let me = std::thread::current().id();
        assert_eq!(fork_join([|| std::thread::current().id()]), vec![me]);
        let spawned = fork_join_spawns();
        let ids = fork_join((0..3).map(|_| || std::thread::current().id()));
        // Sibling tests fork too, so the process-wide count is a floor.
        assert!(fork_join_spawns() >= spawned + 2, "two spawns counted");
        assert_eq!(ids[0], me, "first task on the calling thread");
        assert!(ids[1] != me && ids[2] != me && ids[1] != ids[2], "one thread per other task");
    }

    #[test]
    fn tasks_may_borrow_and_mutate_disjoint_caller_state() {
        let mut data = vec![0usize; 12];
        fork_join(data.chunks_mut(4).enumerate().map(|(i, chunk)| move || chunk.fill(i)));
        assert_eq!(data, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn first_panic_in_task_order_is_reraised_after_every_task_ran() {
        #[derive(Debug, PartialEq)]
        struct Payload(usize);
        for panicking in [vec![0usize], vec![2], vec![1, 3]] {
            let (dying, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let caught = catch_unwind(AssertUnwindSafe(|| {
                fork_join((0..4).map(|i| {
                    let (dying, finished, panicking) = (&dying, &finished, &panicking);
                    move || {
                        if panicking.contains(&i) {
                            dying.fetch_add(1, Ordering::SeqCst);
                            std::panic::panic_any(Payload(i));
                        }
                        // Outlive the panicking siblings.
                        while dying.load(Ordering::SeqCst) < panicking.len() {
                            std::thread::yield_now();
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    }
                }))
            }));
            let payload = caught.expect_err("a task panicked");
            assert_eq!(payload.downcast_ref::<Payload>(), Some(&Payload(panicking[0])));
            assert_eq!(finished.load(Ordering::SeqCst), 4 - panicking.len(), "others completed");
        }
    }
}
