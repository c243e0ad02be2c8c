//! The proof suite: every bundled scenario explores clean on the real
//! protocol, and every seeded mutation is rejected with a typed
//! [`RaceError`]. These tests are the acceptance gate for `spg-race` —
//! a clean scenario that starts failing means a real protocol
//! regression (or an engine bug); a mutation that stops being caught
//! means the checker lost coverage.

use spg_race::scenarios::{locks, queue, ring, router, serve_pool, sgd_merge};
use spg_race::RaceError;

// ---------------------------------------------------------------------------
// Clean runs: zero findings over every explored interleaving.
// ---------------------------------------------------------------------------

#[test]
fn queue_producer_consumer_2x1_clean() {
    let report = queue::producer_consumer(2, 1, 2, None).expect("no findings");
    assert!(report.schedules > 1, "explorer must branch: {report}");
}

#[test]
fn queue_producer_consumer_2x2_clean() {
    let report = queue::producer_consumer(2, 2, 2, None).expect("no findings");
    assert!(report.schedules > 1, "explorer must branch: {report}");
}

#[test]
fn queue_close_while_full_clean() {
    let report = queue::close_while_full(None).expect("no findings");
    assert!(report.schedules > 1, "explorer must branch: {report}");
}

#[test]
fn queue_close_while_empty_clean() {
    let report = queue::close_while_empty(None).expect("no findings");
    assert!(report.schedules > 1, "explorer must branch: {report}");
}

#[test]
fn locks_ordered_acquisition_clean() {
    let report = locks::lock_order(None).expect("no findings");
    assert!(report.schedules > 1, "explorer must branch: {report}");
}

#[test]
fn serve_pool_supervised_respawn_clean() {
    // The production supervisor over the production queue, with budget
    // left (restart) and without (the slot retires, nothing strands).
    for report in [
        serve_pool::supervised_respawn(None).expect("no findings"),
        serve_pool::retired_slot_strands_nothing().expect("no findings"),
    ] {
        assert!(report.schedules > 1, "explorer must branch: {report}");
    }
}

/// The included `supervise` sleeps through the model clock, which only
/// exists inside an exploration — so outside one, a zero backoff passing
/// proves the production loop never sleeps a zero delay, and a non-zero
/// one panicking proves the hook it would have slept through is live.
#[test]
fn production_supervise_never_sleeps_a_zero_backoff() {
    use spg_race::supervise::{supervise, Restarts};
    use std::time::Duration;
    let run = |backoff| {
        let mut runs = 0;
        supervise(
            Restarts { budget: 3, backoff },
            || {
                runs += 1;
                if runs <= 3 {
                    Err(runs)
                } else {
                    Ok(runs)
                }
            },
            |_, _| {},
        )
    };
    assert_eq!(run(Duration::ZERO), Ok::<_, i32>(4));
    let slept = std::panic::catch_unwind(|| run(Duration::from_millis(1)));
    assert!(slept.is_err(), "a non-zero backoff reaches the model sleep");
}

#[test]
fn sgd_merge_in_order_clean() {
    let report = sgd_merge::merge_order(None).expect("no findings");
    assert!(report.schedules > 1, "explorer must branch: {report}");
}

#[test]
fn router_evict_respawn_clean() {
    let report = router::evict_respawn(None).expect("no findings");
    assert!(report.schedules > 1, "explorer must branch: {report}");
}

#[test]
fn ring_fault_replay_clean() {
    let report = ring::fault_replay(None).expect("no findings");
    assert!(report.schedules > 1, "explorer must branch: {report}");
}

// ---------------------------------------------------------------------------
// Seeded mutations: each one must be rejected with the right typed
// finding. The checker proving "clean" means nothing unless it also
// catches every bug we know how to plant.
// ---------------------------------------------------------------------------

#[test]
fn mutation_swapped_lock_order_is_a_deadlock() {
    match locks::lock_order(Some(locks::Mutation::SwapLockOrder)) {
        Err(RaceError::Deadlock { waiting, .. }) => {
            // Both workers wedge acquiring each other's mutex (main may
            // also appear, blocked joining them).
            for w in ["worker-a", "worker-b"] {
                assert!(
                    waiting.iter().any(|l| l.starts_with(w) && l.contains("acquiring")),
                    "{w} missing from deadlock report: {waiting:?}"
                );
            }
        }
        other => panic!("swapped lock order must deadlock, got {other:?}"),
    }
}

#[test]
fn mutation_dropped_notify_loses_a_wakeup() {
    // The queue's condvar discipline survives *one* dropped notify only
    // when another waiter or a timeout covers for it; with plain
    // (untimed) waits in the scenario, some dropped notify must strand
    // a waiter. Sweep the notify index: at least one n deadlocks.
    let caught = (1..=10).any(|n| {
        matches!(
            queue::producer_consumer(2, 1, 2, Some(queue::Mutation::DropNotify(n))),
            Err(RaceError::Deadlock { .. })
        )
    });
    assert!(caught, "dropping some notify_one must strand a waiter");
}

#[test]
fn mutation_double_claim_respawns_twice() {
    match serve_pool::supervised_respawn(Some(serve_pool::Mutation::DoubleClaim)) {
        Err(RaceError::InvariantViolation { invariant, .. }) => {
            assert!(
                invariant == "serve.single-claim-respawn"
                    || invariant == "serve.respawn-exactly-once",
                "unexpected invariant: {invariant}"
            );
        }
        other => panic!("double claim must violate an invariant, got {other:?}"),
    }
}

#[test]
fn mutation_arrival_order_merge_changes_bits() {
    match sgd_merge::merge_order(Some(sgd_merge::Mutation::MergeArrivalOrder)) {
        Err(RaceError::InvariantViolation { invariant, .. }) => {
            assert_eq!(invariant, "sgd.merge-order-bit-identical");
        }
        other => panic!("arrival-order merge must change bits on some schedule, got {other:?}"),
    }
}

#[test]
fn mutation_double_evict_caught() {
    match router::evict_respawn(Some(router::Mutation::DoubleEvict)) {
        Err(RaceError::InvariantViolation { invariant, .. }) => {
            assert!(invariant.starts_with("router."), "unexpected invariant: {invariant}");
        }
        other => panic!("double evict must violate an invariant, got {other:?}"),
    }
}

#[test]
fn mutation_replay_from_stale_state_caught() {
    match ring::fault_replay(Some(ring::Mutation::ReplayFromStale)) {
        Err(RaceError::InvariantViolation { invariant, .. }) => {
            assert!(
                invariant == "ring.replay-most-committed"
                    || invariant == "ring.recovered-weight-bit-identical",
                "unexpected invariant: {invariant}"
            );
        }
        other => panic!("replay-from-stale must violate an invariant, got {other:?}"),
    }
}
