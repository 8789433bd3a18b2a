//! Deterministic interleaving harness (test-only).
//!
//! The races this crate's structures have to defend against live in windows of a
//! few instructions — between a traversal's *validation* of a link and the CAS
//! that acts on what was validated. Stress tests cross those windows once in
//! millions of runs; this module makes the crossing *deterministic* instead.
//!
//! Structures call [`hit`] at named **pause points** placed exactly at the
//! validate/CAS boundaries. With the `interleave` feature disabled (the default,
//! and always the case for release builds: the feature is only enabled by test
//! targets), `hit` compiles to an empty inline function — zero cost, no
//! dependencies. With the feature enabled, [`set_scheduler`] installs a hook
//! that observes every pause point and decides when the calling thread may go
//! on. `crates/reclaim-check`'s explorer is that hook: it serializes model
//! threads through the pause points and enumerates their interleavings up to a
//! preemption bound, and a test that needs one schedule — park a thread in its
//! window, run a conflicting operation to completion, resume — asks it for a
//! trace with that shape and replays it.
//!
//! The scheduler is process-global (the pause points are reached deep inside
//! data structure internals), so its users must serialize themselves; the
//! explorer does, behind its own lock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Fast-path gate: pause points only take the scheduler lock while one is
/// installed, so an instrumented binary with none pays one load per point.
static SCHEDULER_ACTIVE: AtomicBool = AtomicBool::new(false);

/// A scheduler observes every pause point (the point name is passed through);
/// it decides when the calling thread may proceed, typically by parking it.
type Scheduler = Arc<dyn Fn(&'static str) + Send + Sync>;

/// The (single) installed scheduler hook.
static SCHEDULER: Mutex<Option<Scheduler>> = Mutex::new(None);

/// A pause point. Structures call this at validate/CAS boundaries; if a
/// scheduler is set, it runs on the calling thread (and may park it until it
/// is granted a turn).
#[inline]
pub fn hit(point: &'static str) {
    if !SCHEDULER_ACTIVE.load(Ordering::Acquire) {
        return;
    }
    let sched = SCHEDULER
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map(Arc::clone);
    if let Some(sched) = sched {
        sched(point);
    }
}

/// Uninstalls the scheduler on drop.
pub struct SchedulerGuard {
    _private: (),
}

impl Drop for SchedulerGuard {
    fn drop(&mut self) {
        let mut slot = SCHEDULER.lock().unwrap_or_else(|e| e.into_inner());
        SCHEDULER_ACTIVE.store(false, Ordering::Release);
        *slot = None;
    }
}

/// Installs the process-global scheduler hook: `sched` is called with the point
/// name at **every** pause point on every thread until the returned guard
/// drops.
///
/// # Panics
///
/// Panics if a scheduler is already installed: at most one can be active, so
/// its users must serialize.
pub fn set_scheduler(sched: impl Fn(&'static str) + Send + Sync + 'static) -> SchedulerGuard {
    let mut slot = SCHEDULER.lock().unwrap_or_else(|e| e.into_inner());
    assert!(
        slot.is_none(),
        "interleave: a scheduler is already installed; drop its guard first"
    );
    *slot = Some(Arc::new(sched));
    SCHEDULER_ACTIVE.store(true, Ordering::Release);
    SchedulerGuard { _private: () }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_without_hooks_is_a_no_op() {
        hit("interleave::test::never-installed");
    }

    #[test]
    fn scheduler_sees_every_point_and_second_scheduler_is_rejected() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sched_seen = Arc::clone(&seen);
        let guard = set_scheduler(move |point| {
            sched_seen
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(point);
        });
        assert!(std::panic::catch_unwind(|| set_scheduler(|_| {})).is_err());
        hit("interleave::test::sched-a");
        hit("interleave::test::sched-b");
        {
            let seen = seen.lock().unwrap_or_else(|e| e.into_inner());
            assert!(seen.contains(&"interleave::test::sched-a"));
            assert!(seen.contains(&"interleave::test::sched-b"));
        }
        drop(guard);
        hit("interleave::test::sched-after-drop");
        let seen = seen.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!seen.contains(&"interleave::test::sched-after-drop"));
    }
}
