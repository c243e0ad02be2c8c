//! The workspace's one restart loop.
//!
//! Every supervised pool — serve workers, router forwarders, SGD pool
//! workers, the in-process ring driver — is a client of `supervise`:
//! it is the only place a restart budget is counted and the only place
//! `backoff_delay` is slept. A client supplies what is particular to
//! it: what one incarnation does (and what fresh state it builds), and
//! what a restart means to its observers (a counter, an event).
//!
//! This file is compiled twice: here against std, and via `#[path]`
//! inclusion inside `spg-race` against that crate's model clock, which
//! is how the model checker explores every schedule of the *production*
//! supervisor. All time imports therefore go through
//! `crate::sync_prims` (which resolves per including crate), and unit
//! tests live in `lib.rs` rather than an in-file module.

use std::time::Duration;

use crate::sync_prims::sleep;

/// A restart policy: how many times a faulted worker slot is restarted
/// and how long to wait before each restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Restarts {
    /// Restarts allowed over the slot's lifetime. The budget is per
    /// [`supervise`] call — per worker slot — never global.
    pub budget: usize,
    /// Base delay before the first restart; see [`backoff_delay`].
    pub backoff: Duration,
}

/// Supervisor backoff schedule: `base * 2^(n-1)` before the `n`-th
/// restart of the same worker, capped at one second.
///
/// Saturates instead of overflowing at every stage: the exponent is
/// clamped (a restart count in the billions shifts by at most 10), the
/// multiply is saturating, and the cap bounds the result — so extreme
/// `base` or `restart` values degrade to the one-second cap, never to a
/// panic or a wrapped-around near-zero delay.
pub fn backoff_delay(base: Duration, restart: usize) -> Duration {
    let factor = 1u32 << restart.saturating_sub(1).min(10);
    base.saturating_mul(factor).min(Duration::from_secs(1))
}

/// Runs `incarnation` until it returns `Ok` or has faulted with the
/// restart budget spent, and returns that last result.
///
/// An `Err` with budget left is a restart: `on_restart(n, &err)` is
/// called with the 1-based restart count and the fault that caused it —
/// the hook for the client's restart counter and event, which therefore
/// happen *before* the backoff — then the thread sleeps
/// `backoff_delay(restarts.backoff, n)` (a zero delay does not sleep)
/// and `incarnation` runs again. The incarnation builds whatever state
/// a fault may have left torn; state it captures from outside survives
/// across incarnations. Panics are not caught here: each client draws
/// its own panic boundary around the unit of work it can fail alone.
///
/// # Errors
///
/// The fault of the incarnation that found the budget spent.
pub fn supervise<T, E>(
    restarts: Restarts,
    mut incarnation: impl FnMut() -> Result<T, E>,
    mut on_restart: impl FnMut(usize, &E),
) -> Result<T, E> {
    let mut used = 0;
    loop {
        match incarnation() {
            Err(fault) if used < restarts.budget => {
                used += 1;
                on_restart(used, &fault);
                let delay = backoff_delay(restarts.backoff, used);
                if !delay.is_zero() {
                    sleep(delay);
                }
            }
            last => return last,
        }
    }
}
