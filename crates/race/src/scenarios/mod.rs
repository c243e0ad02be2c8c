//! The proof suite: the shipped queue and supervisor, run on every
//! schedule.
//!
//! Each scenario is a closure the explorer runs once per schedule, with
//! [`crate::invariant`] assertions inline and at the end of the run, so
//! a property is checked on *every* interleaving the DFS scheduler can
//! reach. Each also takes an optional seeded `Mutation` reintroducing a
//! specific bug class; the test suite proves the checker rejects every
//! mutation with a typed [`crate::RaceError`] (a verifier that cannot
//! catch the bug it was built for proves nothing).
//!
//! Every scenario runs *production source*:
//!
//! | scenario | code under test |
//! |---|---|
//! | [`queue`] | production `BoundedQueue` source (`#[path]`-included) |
//! | [`serve_pool`] | production `supervise` restart loop around the production `BoundedQueue` (both `#[path]`-included) |
//!
//! `supervise` is the one restart loop every pool calls, so the
//! `serve_pool` proof covers the budget/restart-event/backoff skeleton
//! of the SGD workers, router forwarders and ring driver too. What is
//! particular to each (kernels, OS processes, sockets) the model cannot
//! host; it is checked on the shipped code by the bit-identity tests,
//! the fault-replay drills, the lock-order lint and the
//! ThreadSanitizer legs instead.

pub mod queue;
pub mod serve_pool;

use crate::{RaceError, Report};

/// Runs every clean scenario at its smoke size (the configs CI
/// explores on every push). Returns the per-scenario reports, or the
/// first finding — which on `main` means a real concurrency bug.
pub fn run_smoke() -> Result<Vec<Report>, RaceError> {
    Ok(vec![
        queue::producer_consumer(2, 1, 2, None)?,
        queue::close_while_full(None)?,
        queue::close_while_empty(None)?,
        serve_pool::supervised_respawn(None)?,
        serve_pool::retired_slot_strands_nothing()?,
    ])
}

/// Runs the smoke configs plus the larger queue world (3 producers,
/// 2 consumers) used by the full proof tests.
pub fn run_full() -> Result<Vec<Report>, RaceError> {
    let mut reports = run_smoke()?;
    reports.push(queue::producer_consumer(3, 2, 2, None)?);
    Ok(reports)
}
