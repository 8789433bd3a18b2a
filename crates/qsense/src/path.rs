//! Path-switching state: the fallback flag and the presence flags.
//!
//! QSense switches between its two modes through a single shared *fallback flag*
//! (paper §5.2). Any worker that notices its limbo list has grown past `C` sets the
//! flag to the fallback path; any worker that notices every registered thread has
//! been active again sets it back to the fast path. Activity is tracked through one
//! *presence flag* per thread, set by the owner after each batch of operations and
//! reset collectively whenever a path switch happens (the paper only says the array
//! is "reset periodically"; resetting at switches is the natural choice because each
//! fallback episode needs a fresh observation window).

use std::sync::atomic::{AtomicBool, Ordering};

/// Which reclamation path QSense is currently using.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// The common case: QSBR-style epoch reclamation.
    Fast,
    /// The degraded mode entered under prolonged process delays: Cadence scans.
    Fallback,
}

/// The shared fallback flag.
///
/// ## Memory ordering
///
/// The flag is *read* on the hot path (every `retire` checks it), so the load is
/// acquire — a plain load on x86/TSO. Acquire/release suffices for correctness
/// because the paper's safety argument never depends on *when* a thread observes a
/// path switch (§4.1/§5.2): hazard pointers and retire stamps are maintained
/// on **both** paths at all times, so a thread acting on a stale path value only
/// chooses a different — equally safe — reclamation condition. The switch CASes
/// are AcqRel so the winner's preceding state (e.g. the presence reset) is
/// visible to threads that subsequently observe the new path; no decision
/// compares this flag against unrelated atomics, so no `SeqCst` total order is
/// needed.
#[derive(Debug, Default)]
pub struct FallbackFlag {
    /// `false` = fast path, `true` = fallback path.
    fallback: AtomicBool,
}

impl FallbackFlag {
    /// Creates a flag in the fast-path state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the current path (one acquire load — the hot-path cost).
    #[inline]
    pub fn load(&self) -> Path {
        if self.fallback.load(Ordering::Acquire) {
            Path::Fallback
        } else {
            Path::Fast
        }
    }

    /// Attempts to switch fast → fallback. Returns `true` if this call performed the
    /// transition (so exactly one thread accounts for each switch).
    pub fn trigger_fallback(&self) -> bool {
        self.fallback
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Attempts to switch fallback → fast. Returns `true` if this call performed the
    /// transition.
    pub fn trigger_fast_path(&self) -> bool {
        self.fallback
            .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// One thread's presence flag (owned slot in the registry record).
///
/// Release/acquire is enough: presence only feeds *liveness* decisions (when to
/// switch back to the fast path), never a freeing decision — a stale read can
/// delay or hasten a path switch, both of which are safe because every node's
/// protection state is maintained identically on both paths.
#[derive(Debug, Default)]
pub struct PresenceFlag {
    active: AtomicBool,
}

impl PresenceFlag {
    /// Creates an inactive flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the owning thread as active (paper: `is_active(process_id)`).
    #[inline]
    pub fn set_active(&self) {
        self.active.store(true, Ordering::Release);
    }

    /// Reads whether the owner has been active since the last reset.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// Clears the flag (done collectively at path switches).
    #[inline]
    pub fn reset(&self) {
        self.active.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fallback_flag_starts_on_the_fast_path() {
        let flag = FallbackFlag::new();
        assert_eq!(flag.load(), Path::Fast);
    }

    #[test]
    fn only_one_thread_wins_each_transition() {
        let flag = FallbackFlag::new();
        assert!(flag.trigger_fallback());
        assert!(
            !flag.trigger_fallback(),
            "second trigger must observe it is already set"
        );
        assert_eq!(flag.load(), Path::Fallback);
        assert!(flag.trigger_fast_path());
        assert!(!flag.trigger_fast_path());
        assert_eq!(flag.load(), Path::Fast);
    }

    #[test]
    fn presence_flag_set_and_reset() {
        let p = PresenceFlag::new();
        assert!(!p.is_active());
        p.set_active();
        assert!(p.is_active());
        p.reset();
        assert!(!p.is_active());
    }

    #[test]
    fn concurrent_fallback_triggers_count_once() {
        use std::sync::Arc;
        use std::thread;
        let flag = Arc::new(FallbackFlag::new());
        let wins: usize = (0..8)
            .map(|_| {
                let flag = Arc::clone(&flag);
                thread::spawn(move || usize::from(flag.trigger_fallback()))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum();
        assert_eq!(wins, 1);
        assert_eq!(flag.load(), Path::Fallback);
    }
}
