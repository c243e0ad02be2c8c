//! Logical model time.
//!
//! The engine's clock only advances when every thread is blocked and
//! the earliest timed wait fires, so "time" is a function of the
//! schedule, never of the wall clock — replays are exact, and a
//! `wait_timeout` loop can't spin the explorer.

use std::ops::Add;
use std::time::Duration;

use crate::sched::current;

/// A point on the engine's logical clock (nanoseconds since run start).
/// API-compatible with the subset of `std::time::Instant` the
/// production queue uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Instant(u128);

impl Instant {
    /// The current logical time.
    ///
    /// # Panics
    ///
    /// Panics outside [`crate::explore`].
    pub fn now() -> Instant {
        let (eng, _me) = current();
        Instant(eng.now_ns())
    }

    /// `Some(self - earlier)`, or `None` when `earlier` is later.
    pub fn checked_duration_since(&self, earlier: Instant) -> Option<Duration> {
        let nanos = self.0.checked_sub(earlier.0)?;
        Some(nanos_to_duration(nanos))
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, d: Duration) -> Instant {
        Instant(self.0.saturating_add(d.as_nanos()))
    }
}

/// Model twin of `std::thread::sleep`: parks the calling model thread
/// until the logical clock has advanced by `dur`. Like every timed wait
/// it only fires at quiescence, so a sleeping thread never spins the
/// explorer (an injected spurious wakeup may cut it short — callers of
/// `sleep` must not rely on it for synchronization, which is the point).
///
/// # Panics
///
/// Panics outside [`crate::explore`].
pub fn sleep(dur: Duration) {
    let lock = crate::sync::Mutex::new(());
    let _ = crate::sync::Condvar::new().wait_timeout(lock.lock(), dur);
}

fn nanos_to_duration(nanos: u128) -> Duration {
    let secs = u64::try_from(nanos / 1_000_000_000).unwrap_or(u64::MAX);
    let sub = u32::try_from(nanos % 1_000_000_000).unwrap_or(0);
    Duration::new(secs, sub)
}
