//! The proof suite: small-config models of every pool and the ring.
//!
//! Each scenario is a closure the explorer runs once per schedule, with
//! [`crate::invariant`] assertions inline and at the end of the run, so
//! a property is checked on *every* interleaving the DFS scheduler can
//! reach. Each also takes an optional seeded `Mutation` reintroducing a
//! specific bug class; the test suite proves the checker rejects every
//! mutation with a typed [`crate::RaceError`], mirroring PR 5's
//! plan-mutation proptests (a verifier that cannot catch the bug it was
//! built for proves nothing).
//!
//! What runs *production source* vs a *protocol model* — stated
//! honestly, because the distinction bounds what "proved" means:
//!
//! | scenario | code under test |
//! |---|---|
//! | [`queue`] | production `BoundedQueue` source (`#[path]`-included) |
//! | [`serve_pool`] | production `supervise` restart loop around the production `BoundedQueue` (both `#[path]`-included) |
//! | [`locks`] | protocol model (lock-order discipline) |
//! | [`sgd_merge`] | protocol model of the `spg_convnet::sgd` pool fold's merge |
//! | [`router`] | protocol model of the cluster router's eviction |
//! | [`ring`] | protocol model of the chain-in-ring all-reduce |
//!
//! `supervise` is the one restart loop every pool calls, so the
//! `serve_pool` proof covers the budget/restart-event/backoff skeleton
//! of the SGD workers, router forwarders and ring driver too; what is
//! particular to each (kernels, OS processes, sockets) the model cannot
//! host, and the four protocol models distill it to its synchronization
//! skeleton. The lock-order, blocking-under-lock and thread-spawn lints
//! plus the ThreadSanitizer CI legs tie the production code back to
//! these skeletons.

pub mod locks;
pub mod queue;
pub mod ring;
pub mod router;
pub mod serve_pool;
pub mod sgd_merge;

use crate::{RaceError, Report};

/// Runs every clean scenario at its smoke size (the configs CI
/// explores on every push). Returns the per-scenario reports, or the
/// first finding — which on `main` means a real concurrency bug.
pub fn run_smoke() -> Result<Vec<Report>, RaceError> {
    Ok(vec![
        queue::producer_consumer(2, 1, 2, None)?,
        queue::close_while_full(None)?,
        queue::close_while_empty(None)?,
        locks::lock_order(None)?,
        serve_pool::supervised_respawn(None)?,
        serve_pool::retired_slot_strands_nothing()?,
        sgd_merge::merge_order(None)?,
        router::evict_respawn(None)?,
        ring::fault_replay(None)?,
    ])
}

/// Runs the larger configs (3 producers, spurious wakeups armed, wider
/// preemption bounds) used by the full proof tests.
pub fn run_full() -> Result<Vec<Report>, RaceError> {
    let mut reports = run_smoke()?;
    reports.push(queue::producer_consumer(3, 2, 2, None)?);
    Ok(reports)
}
