//! The deterministic scheduler at the heart of `spg-race`.
//!
//! Model threads are real OS threads, but only one is ever *runnable* at
//! a time: every model operation (lock, wait, notify, spawn, join)
//! passes through [`Engine::step`], which hands control to exactly one
//! thread chosen by a recorded decision. A run is therefore fully
//! described by its decision vector, and the explorer enumerates runs by
//! depth-first backtracking over that vector: replay the shared prefix,
//! take the next untried branch at the deepest unexhausted decision,
//! extend greedily (choice 0 = keep running the current thread).
//!
//! Two standard reductions keep small configs tractable without giving
//! up soundness for the bundled scenarios:
//!
//! * **Bounded preemptions** — switching away from a thread that could
//!   still run costs one unit of a per-run budget
//!   ([`MAX_PREEMPTIONS`]); forced switches (the current thread blocked
//!   or finished) are free. Most real concurrency bugs need very few
//!   preemptions (CHESS's observation), and the bound makes the schedule
//!   tree finite.
//! * **State-hash pruning** — at a fresh decision node the scheduler
//!   hashes the scheduler-visible state (thread statuses and per-thread
//!   op counts, lock owners, condvar waiter queues, the logical clock).
//!   If that hash was already reached with at least as much remaining
//!   preemption budget, the node's alternatives are pruned and the run
//!   completes greedily. Because per-thread op counts are part of the
//!   hash, two merged states have each thread at the same point of its
//!   own history; scenarios whose invariants are checked on every
//!   completed run (ours all are) lose no findings.
//!
//! Timeouts use a logical clock: a timed wait only fires when *nothing
//! else can run* (quiescence), at which point the clock jumps to the
//! earliest deadline. This keeps `wait_timeout` loops from spinning the
//! explorer forever while still covering the timed-out paths. A state
//! where every thread is blocked and no deadline is pending is reported
//! as [`RaceError::Deadlock`].
//!
//! When a finding is recorded the run is *cancelled*: every model
//! thread panics with a private [`CancelToken`] at its next operation,
//! unwinds (guard destructors release model locks without scheduling),
//! and the explorer joins the OS threads before reporting.

use std::any::Any;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, Once};
use std::time::Duration;

use crate::{Config, RaceError, Report};

/// Preemption budget per schedule. 2 is CHESS's classic "most bugs need
/// ≤2" bound.
const MAX_PREEMPTIONS: usize = 2;
/// Schedules explored before the proof is declared inconclusive
/// ([`RaceError::ScheduleLimit`]), so a proof test can never silently
/// under-explore.
const MAX_SCHEDULES: u64 = 500_000;
/// Scheduler steps within one schedule (livelock guard).
const MAX_STEPS: u64 = 100_000;

/// Panic payload used to unwind model threads when a run is cancelled.
/// Never escapes the crate: the explorer and the spawn wrapper swallow
/// it; a custom panic hook keeps it off stderr.
pub(crate) struct CancelToken;

fn panic_cancel() -> ! {
    panic::panic_any(CancelToken);
}

/// Install (once per process) a panic hook that silences `CancelToken`
/// unwinds but forwards every real panic to the previous hook.
fn install_cancel_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().is::<CancelToken>() {
                return;
            }
            prev(info);
        }));
    });
}

pub(crate) fn panic_msg(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Block {
    Lock { mutex: usize },
    CvWait { condvar: usize, mutex: usize, deadline: Option<u128> },
    Join { thread: usize },
}

#[derive(Clone, Debug)]
enum Status {
    Runnable,
    Blocked(Block),
    Finished,
}

struct ThreadInfo {
    name: String,
    status: Status,
    /// Model operations executed so far; part of the state hash so two
    /// merged states have each thread at the same point of its history.
    ops: u64,
    /// Set by the waker of a condvar wait: `true` when the wake was the
    /// logical-clock timeout rather than a notify.
    wake_timed_out: bool,
}

impl ThreadInfo {
    fn new(name: String) -> Self {
        ThreadInfo { name, status: Status::Runnable, ops: 0, wake_timed_out: false }
    }
}

/// One branch point in a run. `natural` is how many options existed,
/// `limit` how many the explorer may try (1 when the preemption budget
/// is spent or the state hash pruned the node), `taken` which one this
/// run took.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Decision {
    taken: usize,
    limit: usize,
    natural: usize,
}

/// Internal finding; the explorer wraps it into a public [`RaceError`]
/// with the scenario name and schedule number attached.
#[derive(Clone, Debug)]
pub(crate) enum Finding {
    Deadlock { waiting: Vec<String> },
    InvariantViolation { invariant: String, detail: String },
    Panic { thread: String, message: String },
    StepLimit,
    Nondeterminism { detail: String },
}

impl Finding {
    fn into_race_error(self, scenario: &str, schedule: u64) -> RaceError {
        let scenario = scenario.to_string();
        match self {
            Finding::Deadlock { waiting } => RaceError::Deadlock { scenario, schedule, waiting },
            Finding::InvariantViolation { invariant, detail } => {
                RaceError::InvariantViolation { scenario, schedule, invariant, detail }
            }
            Finding::Panic { thread, message } => {
                RaceError::Panic { scenario, schedule, thread, message }
            }
            Finding::StepLimit => {
                RaceError::ScheduleLimit { scenario, limit: MAX_STEPS, what: "steps per schedule" }
            }
            Finding::Nondeterminism { detail } => RaceError::Nondeterminism { scenario, detail },
        }
    }
}

pub(crate) struct EngineState {
    active: usize,
    threads: Vec<ThreadInfo>,
    /// Owner of each registered mutex.
    mutexes: Vec<Option<usize>>,
    /// FIFO waiters of each registered condvar: `notify_one` wakes the
    /// longest waiter, deterministically.
    condvars: Vec<VecDeque<usize>>,
    decisions: Vec<Decision>,
    cursor: usize,
    preemptions: usize,
    steps: u64,
    clock_ns: u128,
    notify_seq: u64,
    spurious_left: u32,
    pruned: u64,
    finding: Option<Finding>,
    cancelled: bool,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

pub(crate) struct Engine {
    state: StdMutex<EngineState>,
    cv: StdCondvar,
    cfg: Config,
    /// State-hash memo shared across every run of one exploration:
    /// hash -> best (largest) remaining preemption budget seen.
    visited: Arc<StdMutex<HashMap<u64, usize>>>,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Engine>, usize)>> = const { RefCell::new(None) };
}

/// The engine and model-thread id of the calling thread.
///
/// # Panics
///
/// Panics if called outside [`crate::explore`].
pub(crate) fn current() -> (Arc<Engine>, usize) {
    try_current().expect("spg-race model primitive used outside explore()")
}

pub(crate) fn try_current() -> Option<(Arc<Engine>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

fn set_current(eng: &Arc<Engine>, tid: usize) {
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(eng), tid)));
}

fn clear_current() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

impl Engine {
    fn new(
        cfg: Config,
        prefix: Vec<Decision>,
        visited: Arc<StdMutex<HashMap<u64, usize>>>,
    ) -> Self {
        let spurious = cfg.spurious_wakeups;
        Engine {
            state: StdMutex::new(EngineState {
                active: 0,
                threads: vec![ThreadInfo::new("main".to_string())],
                mutexes: Vec::new(),
                condvars: Vec::new(),
                decisions: prefix,
                cursor: 0,
                preemptions: 0,
                steps: 0,
                clock_ns: 0,
                notify_seq: 0,
                spurious_left: spurious,
                pruned: 0,
                finding: None,
                cancelled: false,
                os_handles: Vec::new(),
            }),
            cv: StdCondvar::new(),
            cfg,
            visited,
        }
    }

    fn lock_state(&self) -> StdMutexGuard<'_, EngineState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Record a finding (first one wins) and cancel the run: every model
    /// thread unwinds via `CancelToken` at its next operation.
    fn cancel_with(&self, st: &mut EngineState, finding: Finding) {
        if st.finding.is_none() {
            st.finding = Some(finding);
        }
        st.cancelled = true;
        self.cv.notify_all();
    }

    // -- decision core ------------------------------------------------------

    /// Replay or extend the decision vector. `natural` is the number of
    /// options at this point, `limit` how many the explorer may branch
    /// over (callers pass `natural` unless the preemption budget is
    /// spent), `prunable` whether state-hash pruning may collapse it.
    fn decide(&self, st: &mut EngineState, natural: usize, limit: usize, prunable: bool) -> usize {
        if st.cursor < st.decisions.len() {
            let d = st.decisions[st.cursor];
            if d.natural != natural {
                let detail = format!(
                    "replay divergence at decision {}: {} options now, {} when recorded; \
                     model scenarios must be deterministic apart from scheduling",
                    st.cursor, natural, d.natural
                );
                self.cancel_with(st, Finding::Nondeterminism { detail });
                st.cursor += 1;
                return d.taken.min(natural.saturating_sub(1));
            }
            st.cursor += 1;
            return d.taken;
        }
        let mut lim = limit;
        if prunable && lim > 1 {
            let hash = state_hash(st);
            let remaining = MAX_PREEMPTIONS.saturating_sub(st.preemptions);
            let mut seen = self.visited.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            match seen.get(&hash) {
                Some(&best) if best >= remaining => {
                    lim = 1;
                    st.pruned += 1;
                }
                _ => {
                    seen.insert(hash, remaining);
                }
            }
        }
        st.decisions.push(Decision { taken: 0, limit: lim, natural });
        st.cursor += 1;
        0
    }

    /// Choose which thread runs next. Option 0 is "keep running `me`"
    /// when `me` is still runnable; picking anyone else then costs a
    /// preemption. When nothing is runnable, fire the earliest
    /// logical-clock deadline, or report a deadlock.
    fn reschedule(&self, st: &mut EngineState, me: usize) {
        let me_runnable = matches!(st.threads[me].status, Status::Runnable);
        let mut opts: Vec<usize> = (0..st.threads.len())
            .filter(|&t| t != me && matches!(st.threads[t].status, Status::Runnable))
            .collect();
        if me_runnable {
            opts.insert(0, me);
        }
        if opts.is_empty() {
            if st.threads.iter().all(|t| matches!(t.status, Status::Finished)) {
                st.active = me;
                self.cv.notify_all();
                return;
            }
            // Quiescent: fire the earliest timed wait, else deadlock.
            let mut earliest: Option<(u128, usize)> = None;
            for (t, info) in st.threads.iter().enumerate() {
                if let Status::Blocked(Block::CvWait { deadline: Some(dl), .. }) = info.status {
                    if earliest.is_none_or(|(best, _)| dl < best) {
                        earliest = Some((dl, t));
                    }
                }
            }
            if let Some((deadline, t)) = earliest {
                st.clock_ns = st.clock_ns.max(deadline);
                if let Status::Blocked(Block::CvWait { condvar, .. }) = st.threads[t].status {
                    st.condvars[condvar].retain(|&w| w != t);
                }
                st.threads[t].wake_timed_out = true;
                st.threads[t].status = Status::Runnable;
                opts.push(t);
            } else {
                let waiting = describe_waiting(st);
                self.cancel_with(st, Finding::Deadlock { waiting });
                return;
            }
        }
        let natural = opts.len();
        let limit = if me_runnable && st.preemptions >= MAX_PREEMPTIONS { 1 } else { natural };
        let choice = self.decide(st, natural, limit, true);
        let next = opts[choice.min(natural - 1)];
        if me_runnable && next != me {
            st.preemptions += 1;
        }
        st.active = next;
        self.cv.notify_all();
    }

    /// Block until this thread is the active runnable thread. Panics
    /// with `CancelToken` if the run is cancelled meanwhile.
    fn wait_my_turn<'a>(
        &'a self,
        mut st: StdMutexGuard<'a, EngineState>,
        me: usize,
    ) -> StdMutexGuard<'a, EngineState> {
        loop {
            if st.cancelled {
                drop(st);
                panic_cancel();
            }
            if st.active == me && matches!(st.threads[me].status, Status::Runnable) {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// One model operation: a decision point after which `me` holds the
    /// engine lock and is the only runnable thread allowed to proceed.
    /// Every visible effect a primitive makes happens under the
    /// returned guard, which is what makes an "operation" atomic.
    fn step(&self, me: usize) -> StdMutexGuard<'_, EngineState> {
        let mut st = self.lock_state();
        if st.cancelled {
            drop(st);
            panic_cancel();
        }
        st.steps += 1;
        if st.steps > MAX_STEPS {
            self.cancel_with(&mut st, Finding::StepLimit);
            drop(st);
            panic_cancel();
        }
        st.threads[me].ops += 1;
        self.reschedule(&mut st, me);
        self.wait_my_turn(st, me)
    }

    /// Mark `me` blocked for `why`, hand control elsewhere, and return
    /// once some waker made `me` runnable and the scheduler picked it.
    fn block_here<'a>(
        &'a self,
        mut st: StdMutexGuard<'a, EngineState>,
        me: usize,
        why: Block,
    ) -> StdMutexGuard<'a, EngineState> {
        st.threads[me].status = Status::Blocked(why);
        self.reschedule(&mut st, me);
        self.wait_my_turn(st, me)
    }

    fn wake(st: &mut EngineState, tid: usize, timed_out: bool) {
        st.threads[tid].wake_timed_out = timed_out;
        st.threads[tid].status = Status::Runnable;
    }

    fn wake_where(st: &mut EngineState, pred: impl Fn(&Block) -> bool) {
        for t in 0..st.threads.len() {
            if let Status::Blocked(b) = &st.threads[t].status {
                if pred(b) {
                    Self::wake(st, t, false);
                }
            }
        }
    }

    // -- object registry ----------------------------------------------------

    pub(crate) fn register_mutex(&self) -> usize {
        let mut st = self.lock_state();
        st.mutexes.push(None);
        st.mutexes.len() - 1
    }

    pub(crate) fn register_condvar(&self) -> usize {
        let mut st = self.lock_state();
        st.condvars.push(VecDeque::new());
        st.condvars.len() - 1
    }

    // -- mutex --------------------------------------------------------------

    pub(crate) fn mutex_lock(&self, me: usize, m: usize) {
        loop {
            let mut st = self.step(me);
            if st.mutexes[m].is_none() {
                st.mutexes[m] = Some(me);
                return;
            }
            let st = self.block_here(st, me, Block::Lock { mutex: m });
            drop(st);
        }
    }

    /// Release `m` and wake every thread blocked acquiring it. Not a
    /// decision point: the release itself is invisible; the next
    /// acquisition by a waiter is where schedules diverge, and that
    /// happens at the releaser's (or acquirer's) next `step`.
    fn release(st: &mut EngineState, m: usize) {
        st.mutexes[m] = None;
        Self::wake_where(st, |b| matches!(b, Block::Lock { mutex } if *mutex == m));
    }

    /// Being panic-free makes guard drops safe during cancel unwinding.
    pub(crate) fn mutex_unlock(&self, m: usize) {
        Self::release(&mut self.lock_state(), m);
        self.cv.notify_all();
    }

    // -- condvar ------------------------------------------------------------

    /// Release `m`, wait on `cv` (optionally with a logical deadline),
    /// then reacquire `m`. Returns `true` when the wake was a timeout.
    pub(crate) fn condvar_wait(
        &self,
        me: usize,
        cv: usize,
        m: usize,
        timeout: Option<Duration>,
    ) -> bool {
        let mut st = self.step(me);
        // A spurious wakeup is modelled as: release the lock, then wake
        // immediately with no notify, racing everyone for reacquisition.
        let mut spurious = false;
        if st.spurious_left > 0 && self.decide(&mut st, 2, 2, false) == 1 {
            st.spurious_left -= 1;
            spurious = true;
        }
        Self::release(&mut st, m);
        let timed_out = if spurious {
            st.threads[me].wake_timed_out = false;
            drop(st);
            false
        } else {
            let deadline = timeout.map(|d| st.clock_ns + d.as_nanos());
            st.condvars[cv].push_back(me);
            let st = self.block_here(st, me, Block::CvWait { condvar: cv, mutex: m, deadline });
            let timed_out = st.threads[me].wake_timed_out;
            drop(st);
            timed_out
        };
        self.mutex_lock(me, m);
        timed_out
    }

    pub(crate) fn condvar_notify(&self, me: usize, cv: usize, all: bool) {
        let mut st = self.step(me);
        st.notify_seq += 1;
        // Mutation hook: silently drop the nth notify so the explorer
        // can prove a lost wakeup is *caught* (as a deadlock finding)
        // without editing the code under test.
        if self.cfg.drop_nth_notify == Some(st.notify_seq) {
            return;
        }
        if all {
            while let Some(t) = st.condvars[cv].pop_front() {
                Self::wake(&mut st, t, false);
            }
        } else if let Some(t) = st.condvars[cv].pop_front() {
            Self::wake(&mut st, t, false);
        }
        self.cv.notify_all();
    }

    // -- threads ------------------------------------------------------------

    pub(crate) fn spawn_thread(&self, me: usize, name: String) -> usize {
        let mut st = self.step(me);
        st.threads.push(ThreadInfo::new(name));
        st.threads.len() - 1
    }

    pub(crate) fn store_handle(&self, handle: std::thread::JoinHandle<()>) {
        self.lock_state().os_handles.push(handle);
    }

    pub(crate) fn thread_join(&self, me: usize, target: usize) {
        loop {
            let st = self.step(me);
            if matches!(st.threads[target].status, Status::Finished) {
                return;
            }
            let st = self.block_here(st, me, Block::Join { thread: target });
            drop(st);
        }
    }

    /// First thing a freshly spawned model thread does: park until the
    /// scheduler hands it the floor. Without this the new OS thread's
    /// first `step` would race the parent's next one, and the decision
    /// order — the whole basis of replay — would depend on OS timing.
    pub(crate) fn thread_start(&self, me: usize) {
        let st = self.lock_state();
        let st = self.wait_my_turn(st, me);
        drop(st);
    }

    /// Normal end of a model thread: a final decision point, then mark
    /// finished, wake joiners, and hand control onward (detecting the
    /// deadlock where every survivor is blocked).
    pub(crate) fn retire(&self, me: usize) {
        let mut st = self.step(me);
        st.threads[me].status = Status::Finished;
        Self::wake_where(&mut st, |b| matches!(b, Block::Join { thread } if *thread == me));
        if st.threads.iter().all(|t| matches!(t.status, Status::Finished)) {
            self.cv.notify_all();
        } else {
            self.reschedule(&mut st, me);
        }
    }

    /// End of a model thread that unwound via `CancelToken`: just mark
    /// it finished so the explorer's join completes.
    pub(crate) fn retire_cancelled(&self, me: usize) {
        let mut st = self.lock_state();
        st.threads[me].status = Status::Finished;
        self.cv.notify_all();
    }

    /// A model thread panicked for real: record the finding and cancel.
    pub(crate) fn report_panic(&self, me: usize, message: String) {
        let mut st = self.lock_state();
        st.threads[me].status = Status::Finished;
        let thread = st.threads[me].name.clone();
        self.cancel_with(&mut st, Finding::Panic { thread, message });
    }

    pub(crate) fn invariant_failed(&self, invariant: &str, detail: String) -> ! {
        let mut st = self.lock_state();
        self.cancel_with(
            &mut st,
            Finding::InvariantViolation { invariant: invariant.to_string(), detail },
        );
        drop(st);
        panic_cancel();
    }

    pub(crate) fn now_ns(&self) -> u128 {
        self.lock_state().clock_ns
    }

    fn join_all(&self) {
        loop {
            let handles = std::mem::take(&mut self.lock_state().os_handles);
            if handles.is_empty() {
                return;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }

    fn take_results(&self) -> (Vec<Decision>, Option<Finding>, u64) {
        let mut st = self.lock_state();
        (std::mem::take(&mut st.decisions), st.finding.take(), st.pruned)
    }
}

fn describe_waiting(st: &EngineState) -> Vec<String> {
    let mut out = Vec::new();
    for info in &st.threads {
        let what = match &info.status {
            Status::Runnable | Status::Finished => continue,
            Status::Blocked(Block::Lock { mutex }) => format!("acquiring mutex #{mutex}"),
            Status::Blocked(Block::CvWait { condvar, mutex, deadline }) => match deadline {
                Some(_) => format!("in a timed wait on condvar #{condvar} (mutex #{mutex})"),
                None => format!("waiting on condvar #{condvar} (mutex #{mutex})"),
            },
            Status::Blocked(Block::Join { thread }) => {
                format!("joining {}", st.threads[*thread].name)
            }
        };
        out.push(format!("{}: {what}", info.name));
    }
    out
}

fn state_hash(st: &EngineState) -> u64 {
    let mut h = DefaultHasher::new();
    for info in &st.threads {
        match &info.status {
            Status::Runnable => 0u8.hash(&mut h),
            Status::Finished => 1u8.hash(&mut h),
            Status::Blocked(b) => {
                2u8.hash(&mut h);
                match b {
                    Block::Lock { mutex } => (0u8, *mutex).hash(&mut h),
                    Block::CvWait { condvar, mutex, deadline } => {
                        (1u8, *condvar, *mutex, *deadline).hash(&mut h);
                    }
                    Block::Join { thread } => (2u8, *thread).hash(&mut h),
                }
            }
        }
        info.ops.hash(&mut h);
    }
    for owner in &st.mutexes {
        owner.hash(&mut h);
    }
    for waiters in &st.condvars {
        waiters.hash(&mut h);
    }
    st.clock_ns.hash(&mut h);
    st.spurious_left.hash(&mut h);
    h.finish()
}

// ---------------------------------------------------------------------------
// Spawn wrapper and the explorer
// ---------------------------------------------------------------------------

/// Spawn a model thread. Used by [`crate::thread::spawn_named`].
pub(crate) fn spawn_model<F, T>(name: String, f: F) -> (usize, Arc<StdMutex<Option<T>>>)
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (eng, me) = current();
    let tid = eng.spawn_thread(me, name);
    let result = Arc::new(StdMutex::new(None));
    let slot = Arc::clone(&result);
    let eng2 = Arc::clone(&eng);
    let os = std::thread::Builder::new()
        .name(format!("spg-race-{tid}"))
        .spawn(move || {
            set_current(&eng2, tid);
            let out = panic::catch_unwind(AssertUnwindSafe(|| {
                // Park until scheduled: keeps the decision order a pure
                // function of the decision vector, not of OS timing.
                eng2.thread_start(tid);
                f()
            }));
            match out {
                Ok(v) => {
                    *slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(v);
                    // retire() steps, which panics CancelToken if the
                    // run was cancelled after our last real op.
                    let _ = panic::catch_unwind(AssertUnwindSafe(|| eng2.retire(tid)));
                }
                Err(p) if p.is::<CancelToken>() => eng2.retire_cancelled(tid),
                Err(p) => eng2.report_panic(tid, panic_msg(p.as_ref())),
            }
            clear_current();
        })
        .expect("spawn spg-race model thread");
    eng.store_handle(os);
    (tid, result)
}

/// Exhaustively explore every schedule of `scenario` under `cfg`.
///
/// Returns a [`Report`] when exploration completes with no finding, or
/// the first typed [`RaceError`] otherwise. The closure runs once per
/// schedule and must be deterministic apart from scheduling (no wall
/// clock, no OS randomness — the model's `Instant` is a logical clock).
pub fn explore<F: Fn()>(cfg: &Config, scenario: F) -> Result<Report, RaceError> {
    install_cancel_hook();
    let visited = Arc::new(StdMutex::new(HashMap::new()));
    let mut prefix: Vec<Decision> = Vec::new();
    let mut schedules: u64 = 0;
    let mut pruned: u64 = 0;
    let mut max_depth: usize = 0;
    loop {
        if schedules >= MAX_SCHEDULES {
            return Err(RaceError::ScheduleLimit {
                scenario: cfg.name.clone(),
                limit: MAX_SCHEDULES,
                what: "schedules",
            });
        }
        schedules += 1;
        let eng = Arc::new(Engine::new(cfg.clone(), prefix, Arc::clone(&visited)));
        set_current(&eng, 0);
        let out = panic::catch_unwind(AssertUnwindSafe(&scenario));
        match out {
            Ok(()) => {
                let _ = panic::catch_unwind(AssertUnwindSafe(|| eng.retire(0)));
            }
            Err(p) if p.is::<CancelToken>() => eng.retire_cancelled(0),
            Err(p) => eng.report_panic(0, panic_msg(p.as_ref())),
        }
        clear_current();
        eng.join_all();
        let (decisions, finding, run_pruned) = eng.take_results();
        pruned += run_pruned;
        max_depth = max_depth.max(decisions.len());
        if let Some(f) = finding {
            return Err(f.into_race_error(&cfg.name, schedules));
        }
        // Depth-first backtrack: advance the deepest unexhausted branch.
        prefix = decisions;
        loop {
            match prefix.last_mut() {
                None => {
                    return Ok(Report { scenario: cfg.name.clone(), schedules, pruned, max_depth });
                }
                Some(d) if d.taken + 1 < d.limit => {
                    d.taken += 1;
                    break;
                }
                Some(_) => {
                    prefix.pop();
                }
            }
        }
    }
}
