//! # cadence — fence-free hazard pointers behind a rooster
//!
//! Cadence is the paper's novel fallback path (§5) and is also usable as a
//! stand-alone reclamation scheme, which this crate names: [`Cadence`] is the
//! hazard-pointer family's one scheme (`hazard::HpFamily`) with the rooster's
//! answer to "who issues the process-wide barrier". Slots, scan and free rule
//! are `hazard`'s (`hazard::{HpSlots, OwnedSlots, hp_scan}`); this crate holds
//! no code of its own.
//!
//! Cadence keeps the hazard-pointer *interface* — per-thread protection slots, a scan
//! that frees unprotected retired nodes — but removes the per-node memory fence that
//! makes classic HP slow. Two mechanisms replace it:
//!
//! * **A rooster thread**: a background thread that wakes every `T` (the *sleep
//!   interval*). In the paper a rooster process pinned to each core forces a context
//!   switch, which drains the store buffer of whichever worker was running there; in
//!   this reproduction the wake-up issues a process-wide asymmetric barrier
//!   (`membarrier(2)` — see `reclaim_core::fence::process_barrier`), so one thread per
//!   *process* serves every core and every Cadence and QSense instance. Either way,
//!   every hazard-pointer store issued before a wake-up is globally visible after it.
//! * **Deferred reclamation**: every retired node is stamped with the ticket of the
//!   last wake-up started before its removal, and a scan may only free nodes for which
//!   a later wake-up has *completed* ([`reclaim_core::BarrierLedger`]). That is the
//!   paper's Property 1 with the event observed instead of timed (the paper waits
//!   `T + ε` because a 2016 process could not see its rooster's wake-up return): when
//!   a node is covered, any hazard pointer that could protect it is already visible,
//!   so "unprotected and covered" really means unreachable.
//!
//! Where the kernel offers no process-wide barrier a rooster could only fence itself,
//! so Cadence runs reader-fenced there — it *is* the paper's HP — chosen from what the
//! kernel answers ([`FenceStrategy::detect_rooster`]), never by an option.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use hazard::{Cadence, FenceStrategy};

#[cfg(test)]
// Sanctioned raw-protocol site: these tests exercise the scheme's own
// `protect`/retire interface below the guard layer.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use reclaim_core::{retire_box, Smr, SmrConfig, SmrHandle};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    struct Tracked(Arc<AtomicUsize>);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn tracked(drops: &Arc<AtomicUsize>) -> *mut Tracked {
        Box::into_raw(Box::new(Tracked(Arc::clone(drops))))
    }

    /// Runs `case` under both protocols `Cadence::new` can pick, on every
    /// kernel.
    fn under_both_policies(case: impl Fn(FenceStrategy)) {
        case(FenceStrategy::Rooster);
        case(FenceStrategy::ReaderFenced);
    }

    /// A Cadence with no rooster: [`tick`] is its wake-up, so the tests count
    /// barriers instead of sleeping.
    fn cadence(strategy: FenceStrategy, config: SmrConfig) -> Arc<Cadence> {
        Cadence::with_fence_strategy(config.with_rooster_interval(Duration::MAX), strategy)
    }

    /// One completed rooster wake-up, entered by hand.
    fn tick(scheme: &Cadence) {
        // SAFETY: the deterministic tests run on one thread: no sibling's
        // store buffer holds a publication for a barrier to drain.
        assert!(unsafe { scheme.ledger().issue(|| true) });
    }

    #[test]
    fn a_node_no_barrier_completed_for_since_its_retire_is_never_freed() {
        under_both_policies(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme = cadence(strategy, SmrConfig::default());
            let mut handle = scheme.register();
            tick(&scheme);
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut handle, tracked(&drops)) };
            handle.flush();
            if strategy == FenceStrategy::Rooster {
                assert_eq!(
                    drops.load(Ordering::SeqCst),
                    0,
                    "deferred reclamation: the last wake-up started before the unlink"
                );
                tick(&scheme);
                handle.flush();
            }
            assert_eq!(drops.load(Ordering::SeqCst), 1, "{strategy:?}");
            assert_eq!(scheme.stats().heavy_barriers, 0, "scans never issue");
        });
    }

    #[test]
    fn covered_but_protected_nodes_survive() {
        under_both_policies(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme = cadence(strategy, SmrConfig::default().with_hp_per_thread(2));
            let mut owner = scheme.register();
            let mut reader = scheme.register();
            let ptr = tracked(&drops);
            reader.protect(0, ptr.cast());
            // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
            unsafe { retire_box(&mut owner, ptr) };
            tick(&scheme);
            owner.flush();
            assert_eq!(
                drops.load(Ordering::SeqCst),
                0,
                "hazard pointer must still protect"
            );
            reader.clear_protections();
            owner.flush();
            assert_eq!(drops.load(Ordering::SeqCst), 1);
        });
    }

    #[test]
    fn scan_threshold_triggers_reclamation_of_covered_nodes() {
        under_both_policies(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme = cadence(strategy, SmrConfig::default().with_scan_threshold(5));
            let mut handle = scheme.register();
            for _ in 0..4 {
                // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
                unsafe { retire_box(&mut handle, tracked(&drops)) };
            }
            tick(&scheme);
            assert_eq!(drops.load(Ordering::SeqCst), 0, "below R: no scan yet");
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut handle, tracked(&drops)) };
            // The 5th retire triggers a scan. Behind a rooster the first four
            // nodes are covered and the fifth, retired since the wake-up,
            // must survive; a fenced reader leaves nothing to wait for. The
            // scan proves and frees nothing: the next retires do, two each.
            let waiting = usize::from(strategy == FenceStrategy::Rooster);
            let proven = 5 - waiting;
            assert_eq!((scheme.stats().scans, drops.load(Ordering::SeqCst)), (1, 0));
            assert_eq!(handle.local_in_limbo(), 5, "proven nodes stay on the books");
            for retires in 1..=proven.div_ceil(2) {
                // SAFETY: as above.
                unsafe { retire_box(&mut handle, tracked(&drops)) };
                assert_eq!(drops.load(Ordering::SeqCst), proven.min(2 * retires));
            }
            assert_eq!(scheme.stats().scans, 1, "{strategy:?}: no second scan");
            assert_eq!(handle.local_in_limbo(), waiting + proven.div_ceil(2));
        });
    }

    #[test]
    fn only_the_reader_fenced_fallback_issues_traversal_fences() {
        under_both_policies(|strategy| {
            let scheme = cadence(strategy, SmrConfig::default());
            let mut handle = scheme.register();
            for i in 0..1000 {
                handle.protect(0, (0x1000 + i) as *mut u8);
            }
            handle.clear_protections();
            handle.flush();
            let fences = if strategy == FenceStrategy::Rooster {
                0 // Cadence's defining property
            } else {
                1000
            };
            assert_eq!(scheme.stats().traversal_fences, fences);
        });
    }

    #[test]
    fn the_process_rooster_end_to_end_reclaims() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = Cadence::new(
            SmrConfig::default()
                .with_rooster_interval(Duration::from_millis(2))
                .with_scan_threshold(8),
        );
        let mut handle = scheme.register();
        for _ in 0..64 {
            handle.begin_op();
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut handle, tracked(&drops)) };
            handle.end_op();
        }
        // Not a sleep: wait for the wake-up that covers the last retire
        // (reader-fenced, where there is no rooster, nothing waits).
        let newest = scheme.ledger().stamp();
        while scheme.fence_strategy() == FenceStrategy::Rooster && !scheme.ledger().covers(newest) {
            std::thread::yield_now();
        }
        handle.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 64);
        drop(handle);
        drop(scheme);
        assert_eq!(drops.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn a_scan_after_a_wake_up_leaves_no_stuck_nodes() {
        // Property 2 of the paper: at most N(K + T + R) retired nodes in the
        // system. With no wake-up during the run, "T" (nodes removable during
        // one rooster interval) is the entire run, so we check the weaker but
        // exact invariant that limbo never exceeds what was retired and that a
        // scan after a wake-up empties it completely.
        under_both_policies(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme = cadence(strategy, SmrConfig::default().with_scan_threshold(16));
            let mut handle = scheme.register();
            for _ in 0..100 {
                // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
                unsafe { retire_box(&mut handle, tracked(&drops)) };
            }
            assert!(handle.local_in_limbo() <= 100);
            tick(&scheme);
            handle.flush();
            assert_eq!(handle.local_in_limbo(), 0);
            assert_eq!(drops.load(Ordering::SeqCst), 100);
        });
    }

    #[test]
    fn scheme_drop_frees_parked_leftovers() {
        under_both_policies(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme = cadence(strategy, SmrConfig::default());
            let mut blocker = scheme.register();
            let ptr = tracked(&drops);
            blocker.protect(0, ptr.cast());
            {
                let mut handle = scheme.register();
                // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
                unsafe { retire_box(&mut handle, ptr) };
                // Handle dropped while the node is uncovered, or protected.
            }
            assert_eq!(drops.load(Ordering::SeqCst), 0);
            drop(blocker);
            drop(scheme);
            assert_eq!(drops.load(Ordering::SeqCst), 1);
        });
    }

    #[test]
    fn scheme_reports_its_name() {
        let scheme = Cadence::with_defaults();
        assert_eq!(scheme.name(), "cadence");
    }
}
