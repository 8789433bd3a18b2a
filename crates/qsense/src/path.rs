//! Path-switching state: the fallback flag, which counts fallback episodes.
//!
//! QSense switches between its two modes through a single shared *fallback flag*
//! (paper §5.2). Any worker that notices its limbo list has grown past `C` sets the
//! flag to the fallback path; any worker that notices every registered thread has
//! been active again sets it back to the fast path. Each switch starts a new
//! *episode* of the flag, and each thread records the episode it last saw at an
//! operation boundary; a thread has been active in this fallback episode when
//! its record holds it. Starting an episode is the reset the paper's presence
//! array needs "periodically": every fallback episode gets a fresh observation
//! window, and nothing has to be cleared.

use std::sync::atomic::{AtomicU64, Ordering};

/// Which reclamation path QSense is currently using.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// The common case: QSBR-style epoch reclamation.
    Fast,
    /// The degraded mode entered under prolonged process delays: Cadence scans.
    Fallback,
}

/// The shared fallback flag, as an episode counter: even is the fast path, odd
/// the fallback path, and each switch adds one.
///
/// ## Memory ordering
///
/// The flag is *read* on the hot path (every `retire` checks it), so the load is
/// acquire — a plain load on x86/TSO. Acquire/release suffices for correctness
/// because the paper's safety argument never depends on *when* a thread observes a
/// path switch (§4.1/§5.2): hazard pointers and retire stamps are maintained
/// on **both** paths at all times, so a thread acting on a stale path value only
/// chooses a different — equally safe — reclamation condition. The same holds
/// for a stale episode: it only delays or hastens the switch back. The switch
/// RMWs are AcqRel; no decision compares this flag against unrelated atomics,
/// so no `SeqCst` total order is needed.
#[derive(Debug, Default)]
pub(crate) struct FallbackFlag {
    episode: AtomicU64,
}

impl FallbackFlag {
    /// Creates a flag in the fast-path state.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The current episode (one acquire load — the hot-path cost).
    #[inline]
    pub(crate) fn episode(&self) -> u64 {
        self.episode.load(Ordering::Acquire)
    }

    /// Reads the current path.
    #[inline]
    pub(crate) fn load(&self) -> Path {
        path_of(self.episode())
    }

    /// Attempts to switch fast → fallback. Returns `true` if this call performed the
    /// transition (so exactly one thread accounts for each switch).
    pub(crate) fn trigger_fallback(&self) -> bool {
        self.switch_from(Path::Fast)
    }

    /// Attempts to switch fallback → fast. Returns `true` if this call performed the
    /// transition.
    pub(crate) fn trigger_fast_path(&self) -> bool {
        self.switch_from(Path::Fallback)
    }

    fn switch_from(&self, from: Path) -> bool {
        let next = |episode| (path_of(episode) == from).then_some(episode + 1);
        self.episode
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, next)
            .is_ok()
    }
}

/// The path an episode of the [`FallbackFlag`] runs.
#[inline]
fn path_of(episode: u64) -> Path {
    if episode.is_multiple_of(2) {
        Path::Fast
    } else {
        Path::Fallback
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
