//! Serve-pool supervision, proved on the supervisor that ships.
//!
//! Each model worker thread is one pool slot running the **production**
//! restart loop (`spg_sync::supervise`, `#[path]`-included as
//! [`crate::supervise`]) around a batch loop over the **production**
//! `BoundedQueue` ([`crate::queue`]) — the shape of `spg-serve`'s worker
//! threads, with the kernels replaced by a scripted fault: slot 0's first
//! incarnation faults on the first item it pops (if it ever gets one).
//! The scenario side only adds bookkeeping: which slot has a live
//! incarnation, and who answered what.
//!
//! Proved on every interleaving: each pushed item is answered exactly
//! once (a reply xor a typed fault); a fault is followed by exactly one
//! restart event, recorded before the next incarnation pops anything;
//! `close` drains the queue and both threads retire. The budget-0
//! variant proves the claim in `server.rs` that a retired slot strands
//! nothing while another slot lives.
//!
//! The `DoubleClaim` mutation is seeded from the scenario side — no hook
//! enters production source: a second thread supervises slot 0 too, the
//! double-spawn a respawn protocol must never produce, and the checker
//! must catch the two live incarnations.

use std::sync::Arc;
use std::time::Duration;

use crate::queue::BoundedQueue;
use crate::supervise::{supervise, Restarts};
use crate::sync::Mutex;
use crate::time::Instant;
use crate::{explore, invariant, thread, Config, RaceError, Report};

/// Seeded bug classes for the supervision scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Two threads supervise the same slot, so two incarnations of it
    /// can be live at once.
    DoubleClaim,
}

const SLOTS: usize = 2;
const ITEMS: u32 = 3;

#[derive(Default)]
struct PoolState {
    /// Slot has a live incarnation.
    live: [bool; SLOTS],
    faults: [usize; SLOTS],
    restarts: [usize; SLOTS],
    /// `(item, answered with the typed fault rather than a reply)`.
    answers: Vec<(u32, bool)>,
}

struct Pool {
    queue: BoundedQueue<u32>,
    state: Mutex<PoolState>,
}

impl Pool {
    /// An incarnation of `slot` starts: the slot must be free, and every
    /// earlier fault of it must already have had its restart event.
    fn claim(&self, slot: usize, who: &str) {
        let mut st = self.state.lock();
        invariant(!st.live[slot], "serve.single-claim-respawn", || {
            format!("{who} started an incarnation of slot {slot} while one was live")
        });
        invariant(st.restarts[slot] == st.faults[slot], "serve.respawn-exactly-once", || {
            format!(
                "{who} starts slot {slot} after {} fault(s) but {} restart event(s)",
                st.faults[slot], st.restarts[slot]
            )
        });
        st.live[slot] = true;
    }

    /// One slot's thread: the production supervisor around a
    /// micro-batching worker loop (`max_batch` 2, `max_delay` 0).
    /// Returns whether the slot retired with its budget spent.
    fn run_slot(&self, slot: usize, who: &str, budget: usize) -> bool {
        let mut incarnations = 0;
        supervise(
            Restarts { budget, backoff: Duration::ZERO },
            || {
                incarnations += 1;
                self.claim(slot, who);
                let mut batches = 0;
                while let Some(first) = self.queue.pop() {
                    batches += 1;
                    // The panicking batch: its request gets the typed
                    // fault and the incarnation ends.
                    let faulted = slot == 0 && incarnations == 1 && batches == 1;
                    let second =
                        if faulted { None } else { self.queue.pop_deadline(Instant::now()) };
                    let mut st = self.state.lock();
                    st.answers.extend(std::iter::once(first).chain(second).map(|i| (i, faulted)));
                    if faulted {
                        st.faults[slot] += 1;
                        st.live[slot] = false;
                        return Err(());
                    }
                }
                self.state.lock().live[slot] = false;
                Ok(())
            },
            |_, ()| self.state.lock().restarts[slot] += 1,
        )
        .is_err()
    }
}

fn serve_pool(name: &str, budget: usize, double_claim: bool) -> Result<Report, RaceError> {
    let cfg = Config::new(name).spurious(1);
    explore(&cfg, move || {
        let pool =
            Arc::new(Pool { queue: BoundedQueue::new(2), state: Mutex::new(PoolState::default()) });
        let mut owners = vec![(0, "worker-0"), (1, "worker-1")];
        if double_claim {
            owners.push((0, "worker-0.twin"));
        }
        let workers: Vec<_> = owners
            .into_iter()
            .map(|(slot, who)| {
                let pool = Arc::clone(&pool);
                thread::spawn_named(who, move || pool.run_slot(slot, who, budget))
            })
            .collect();

        for item in 0..ITEMS {
            // A rejected push shows up below as an unanswered item.
            let _ = pool.queue.push_deadline(item, Instant::now() + Duration::from_secs(3600));
        }
        pool.queue.close();
        let retired: Vec<bool> = workers.into_iter().map(thread::JoinHandle::join).collect();

        let st = pool.state.lock();
        let mut answered: Vec<u32> = st.answers.iter().map(|&(item, _)| item).collect();
        answered.sort_unstable();
        invariant(
            answered == (0..ITEMS).collect::<Vec<_>>(),
            "serve.answered-exactly-once",
            || format!("answers {:?} for items 0..{ITEMS}", st.answers),
        );
        invariant(
            st.restarts[0] == st.faults[0].min(budget) && st.restarts[1] == 0,
            "serve.respawn-exactly-once",
            || format!("restarts {:?} for faults {:?} at budget {budget}", st.restarts, st.faults),
        );
        // Only a slot whose fault found the budget spent ends in `Err`.
        let spent = retired.iter().filter(|&&r| r).count();
        invariant(
            spent == usize::from(st.faults[0] > budget) && st.live == [false; SLOTS],
            "serve.slots-retire-after-close",
            || format!("retired {retired:?}, live {:?}, faults {:?}", st.live, st.faults),
        );
    })
}

/// Budget 1: slot 0 faults at most once and is restarted exactly once
/// per fault; mutated, a twin thread supervises slot 0 as well.
pub fn supervised_respawn(mutation: Option<Mutation>) -> Result<Report, RaceError> {
    match mutation {
        None => serve_pool("serve.supervised_respawn", 1, false),
        Some(Mutation::DoubleClaim) => {
            serve_pool("serve.supervised_respawn[double-claim]", 1, true)
        }
    }
}

/// Budget 0: slot 0's fault retires it for good, and slot 1 alone still
/// answers every other item before it retires at close.
pub fn retired_slot_strands_nothing() -> Result<Report, RaceError> {
    serve_pool("serve.retired_slot_strands_nothing", 0, false)
}
