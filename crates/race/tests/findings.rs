//! Every typed finding the explorer can report, provoked by a scenario
//! built to raise it. The proof suite (`proofs.rs`) shows the bundled
//! scenarios clean and their seeded mutations caught; these show that the
//! budget, replay and panic findings a proof test must treat as failures
//! are really raised.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use spg_race::sync::Mutex;
use spg_race::{explore, thread, Config, RaceError};

/// A thread that never stops taking a lock exhausts one schedule's step
/// budget: the exploration is inconclusive, not clean.
#[test]
fn a_livelocked_thread_runs_out_of_steps() {
    let got = explore(&Config::new("livelock"), || {
        let spins = Mutex::new(0u64);
        loop {
            *spins.lock() += 1;
        }
    });
    assert!(
        matches!(got, Err(RaceError::ScheduleLimit { what: "steps per schedule", .. })),
        "{got:?}"
    );
}

/// A scenario that spawns two threads on its first run and one on every
/// later run cannot replay the first run's decisions.
#[test]
fn a_thread_count_that_varies_between_runs_is_nondeterminism() {
    let runs = AtomicUsize::new(0);
    let got = explore(&Config::new("varying-threads"), || {
        let threads = if runs.fetch_add(1, Ordering::Relaxed) == 0 { 2 } else { 1 };
        let count = Arc::new(Mutex::new(0u32));
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let count = Arc::clone(&count);
                thread::spawn_named(format!("bump{i}"), move || *count.lock() += 1)
            })
            .collect();
        handles.into_iter().for_each(thread::JoinHandle::join);
    });
    assert!(matches!(got, Err(RaceError::Nondeterminism { .. })), "{got:?}");
}

/// A model thread's own panic is a typed finding naming the thread.
#[test]
fn a_panicking_model_thread_is_reported_by_name() {
    let got = explore(&Config::new("panics"), || {
        thread::spawn_named("crasher", || panic!("seeded panic")).join();
    });
    match got {
        Err(RaceError::Panic { thread, message, .. }) => {
            assert_eq!(thread, "crasher");
            assert!(message.contains("seeded panic"), "{message}");
        }
        other => panic!("a model thread's panic must be a typed finding, got {other:?}"),
    }
}
