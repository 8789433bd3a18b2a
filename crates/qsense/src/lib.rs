//! # qsense — hybrid fast/robust memory reclamation
//!
//! The primary contribution of *"Fast and Robust Memory Reclamation for Concurrent
//! Data Structures"* (SPAA 2016): a reclamation scheme that is as fast as
//! quiescent-state-based reclamation in the common case and as robust as hazard
//! pointers under prolonged process delays.
//!
//! ## How it works
//!
//! * **Fast path (QSBR).** While every worker thread keeps passing through quiescent
//!   states, reclamation uses epochs and limbo lists — zero per-node overhead on
//!   traversals.
//! * **Fallback path (Cadence).** When one thread's limbo list grows past the
//!   threshold `C` (evidence that quiescence has not happened for a long time —
//!   e.g. a thread is stuck in I/O or descheduled), the scheme sets a shared
//!   *fallback flag*. All threads then reclaim through Cadence scans: hazard
//!   pointers plus deferred reclamation, robust to the delayed thread.
//! * **Switching back.** Each switch starts a new *episode* of the flag, and
//!   every thread records the episode it last saw as it runs; once a thread
//!   observes every registered thread in the current episode it flips the flag
//!   back and the scheme resumes QSBR.
//!
//! Crucially (paper §4.1), hazard pointers and retire stamps are maintained *at
//! all times*, even on the fast path — otherwise references acquired before a switch
//! would be unprotected — and they are maintained **without memory fences**, which is
//! only safe because the fallback path is Cadence (a rooster thread + deferred
//! reclamation, counted in completed barriers: `reclaim_core::BarrierLedger`) rather
//! than classic HP. Where the kernel offers no process-wide barrier for a rooster to
//! issue, the hazard pointers are fenced by their readers instead — detected, never
//! configured ([`FenceStrategy::detect_rooster`](reclaim_core::FenceStrategy::detect_rooster)).
//!
//! The paper builds QSense out of two existing schemes plus a flag, and so does
//! this crate: the fast path is `qsbr`'s epoch part (`qsbr::{GlobalEpoch,
//! EpochLimbo, grace_drain}`), the fallback path `hazard`'s hazard-pointer part
//! (`hazard::{HpSlots, OwnedSlots, hp_scan}`), both imported. Written here are
//! Algorithm 5's switch between them (the fallback flag as an episode counter)
//! and the eviction extension, whose state shares the epoch word
//! (`qsbr::EVICTED`).
//!
//! ## Using it
//!
//! ```
//! use qsense::QSense;
//! use reclaim_core::{retire_box, Smr, SmrConfig, SmrHandle};
//!
//! // K = 2 hazard pointers a thread, as a linked list needs.
//! let scheme = QSense::new(SmrConfig::default().with_hp_per_thread(2));
//! let mut handle = scheme.register();
//!
//! handle.begin_op();                    // manage_qsense_state()
//! let node = Box::into_raw(Box::new(42u64));
//! handle.protect(0, node.cast());      // assign_HP()  (then re-validate!)
//! // ... traverse / unlink `node` from your structure ...
//! unsafe { retire_box(&mut handle, node) };  // free_node_later()
//! handle.end_op();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod path;
mod scheme;

pub use path::Path;
pub use scheme::{QSense, QSenseHandle};

#[cfg(test)]
// Sanctioned raw-protocol site: these tests exercise the scheme's own
// `protect`/retire interface below the guard layer.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use reclaim_core::{retire_box, Clock, FenceStrategy, ManualClock, Smr, SmrConfig, SmrHandle};
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

    /// Runs `case` under both protocols `QSense::new` can pick, on every
    /// kernel.
    fn under_both_policies(case: impl Fn(FenceStrategy)) {
        case(FenceStrategy::Rooster);
        case(FenceStrategy::ReaderFenced);
    }

    /// Deterministic QSense: no rooster ([`tick`] is its wake-up), small
    /// thresholds.
    fn test_config(c: usize, q: usize) -> SmrConfig {
        SmrConfig::default()
            .with_rooster_interval(Duration::MAX)
            .with_quiescence_threshold(q)
            .with_scan_threshold(4)
            .with_fallback_threshold(c)
            .with_max_threads(4)
    }

    fn test_scheme(strategy: FenceStrategy, c: usize, q: usize) -> Arc<QSense> {
        QSense::with_fence_strategy(test_config(c, q), strategy)
    }

    /// One completed rooster wake-up, entered by hand.
    fn tick(scheme: &QSense) {
        // SAFETY: the deterministic tests run on one thread: no sibling's
        // store buffer holds a publication for a barrier to drain.
        assert!(unsafe { scheme.ledger().issue(|| true) });
    }

    /// Deterministic QSense with the eviction extension enabled: the manual
    /// clock drives the eviction timeout, and nothing else.
    fn eviction_scheme(
        strategy: FenceStrategy,
        manual: &ManualClock,
        c: usize,
        timeout_ms: u64,
    ) -> Arc<QSense> {
        let config = test_config(c, 1)
            .with_clock(Clock::manual(manual.clone()))
            .with_eviction_timeout(Some(Duration::from_millis(timeout_ms)));
        QSense::with_fence_strategy(config, strategy)
    }

    /// `count` operations of `handle`, each retiring one fresh node.
    fn retire_ops(handle: &mut QSenseHandle, drops: &Arc<AtomicUsize>, count: usize) {
        for _ in 0..count {
            handle.begin_op();
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(handle, tracked(drops)) };
            handle.end_op();
        }
    }

    /// Its scans name no newest stamp, so under scanner-barrier one barrier
    /// would cover every later scan and the fallback path would stop freeing.
    #[test]
    #[should_panic(expected = "never scanner-barrier")]
    fn scanner_barrier_is_refused() {
        let _ = test_scheme(FenceStrategy::ScannerBarrier, 16, 4);
    }

    #[test]
    fn fast_path_reclaims_like_qsbr() {
        under_both_policies(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme = test_scheme(strategy, 1_000_000, 1);
            let mut handle = scheme.register();
            retire_ops(&mut handle, &drops, 50);
            handle.flush();
            assert_eq!(scheme.current_path(), Path::Fast);
            assert_eq!(drops.load(Ordering::SeqCst), 50, "no barrier needed");
            let snap = scheme.stats();
            assert_eq!(snap.fallback_switches, 0);
            assert!(snap.quiescent_states > 0);
            assert_eq!(snap.traversal_fences, 0);
        });
    }

    /// The seam: QSense's fast path is `qsbr`'s code, not a copy of it. A QSense
    /// that never reaches `C` and never evicts, and a `Qsbr`, driven through the
    /// identical sequence — two handles taking turns, a third joining late and
    /// leaving early, flushes in between — count the same quiescent states, the
    /// same grace drains (wholesale and skipped), retires and frees. (No rooster
    /// tick is ever entered, so the Cadence scan that ends a QSense flush frees
    /// nothing: every free on either side is a grace drain.)
    #[test]
    fn a_qsense_that_never_leaves_the_fast_path_counts_what_qsbr_counts() {
        fn drive<S: Smr>(scheme: &Arc<S>) -> [u64; 5] {
            let drops = Arc::new(AtomicUsize::new(0));
            let mut turns = [scheme.register(), scheme.register()];
            let mut late = None;
            for round in 0..120 {
                let handle = &mut turns[round % 2];
                handle.begin_op();
                for _ in 0..round % 3 {
                    // SAFETY: fresh from `tracked` (Box::into_raw), retired once.
                    unsafe { retire_box(handle, tracked(&drops)) };
                }
                handle.end_op();
                match round {
                    40 => late = Some(scheme.register()),
                    41..80 => late.as_mut().unwrap().begin_op(),
                    80 => late = None,
                    _ if round % 32 == 31 => handle.flush(),
                    _ => {}
                }
            }
            drop(turns);
            let s = scheme.stats();
            assert_eq!(
                (s.retired, s.freed),
                (120, drops.load(Ordering::SeqCst) as u64)
            );
            [
                s.quiescent_states,
                s.scan_wholesale,
                s.scan_skips,
                s.retired,
                s.freed,
            ]
        }
        let config = test_config(1_000_000, 3);
        let qsense = QSense::with_fence_strategy(config.clone(), FenceStrategy::Rooster);
        assert_eq!(drive(&qsense), drive(&qsbr::Qsbr::new(config)));
        assert_eq!(qsense.stats().fallback_switches, 0);
        assert_eq!(qsense.evicted_count(), 0);
    }

    #[test]
    fn delayed_thread_triggers_fallback_switch() {
        under_both_policies(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            // C = 20: once a worker accumulates 20 unreclaimed nodes the switch happens.
            let scheme = test_scheme(strategy, 20, 1);
            let _delayed = scheme.register(); // registers, then never calls begin_op
            let mut worker = scheme.register();
            retire_ops(&mut worker, &drops, 30);
            assert_eq!(
                scheme.current_path(),
                Path::Fallback,
                "limbo grew past C while a thread was delayed: QSense must switch"
            );
            assert_eq!(scheme.stats().fallback_switches, 1);
            // On the fallback path, covered nodes are reclaimed even though the
            // delayed thread never quiesces — this is the robustness QSBR lacks.
            // (A few nodes per scan: the threshold scans amortise a burst.)
            tick(&scheme);
            retire_ops(&mut worker, &drops, 20);
            assert!(
                drops.load(Ordering::SeqCst) >= 30,
                "fallback path must reclaim covered nodes despite the delayed thread (freed = {})",
                drops.load(Ordering::SeqCst)
            );
        });
    }

    #[test]
    fn no_fallback_scan_frees_a_node_no_barrier_completed_for_since_its_retire() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = test_scheme(FenceStrategy::Rooster, 20, 1);
        let _delayed = scheme.register();
        let mut worker = scheme.register();
        tick(&scheme);
        retire_ops(&mut worker, &drops, 40);
        worker.flush();
        assert_eq!(scheme.current_path(), Path::Fallback);
        assert!(scheme.stats().scans > 1, "fallback scans ran");
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "deferred reclamation: the last wake-up started before every unlink"
        );
        tick(&scheme);
        worker.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 40);
        assert_eq!(scheme.stats().heavy_barriers, 0, "scans never issue");
    }

    #[test]
    fn system_switches_back_to_fast_path_when_all_threads_are_active() {
        under_both_policies(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme = test_scheme(strategy, 20, 1);
            let mut delayed = scheme.register();
            let mut worker = scheme.register();
            // Phase 1: `delayed` is inactive; worker pushes the system into fallback.
            retire_ops(&mut worker, &drops, 30);
            assert_eq!(scheme.current_path(), Path::Fallback);
            // Phase 2: the delayed thread wakes up and both threads keep working; some
            // thread must notice everyone is active and switch back to the fast path.
            for _ in 0..10 {
                delayed.begin_op();
                delayed.end_op();
                worker.begin_op();
                worker.end_op();
            }
            assert_eq!(scheme.current_path(), Path::Fast);
            assert_eq!(scheme.stats().fast_path_switches, 1);
            // And reclamation proceeds normally afterwards.
            for _ in 0..20 {
                delayed.begin_op();
                delayed.end_op();
                worker.begin_op();
                worker.end_op();
            }
            worker.flush();
            delayed.flush();
            assert_eq!(drops.load(Ordering::SeqCst), 30);
        });
    }

    #[test]
    fn fallback_respects_hazard_pointers_and_the_ledger() {
        under_both_policies(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme = test_scheme(strategy, 5, 1);
            let mut reader = scheme.register();
            let mut worker = scheme.register();

            // The reader protects one node that the worker will retire.
            let protected = tracked(&drops);
            reader.protect(0, protected.cast());
            // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
            unsafe { retire_box(&mut worker, protected) };

            // Push the worker past C so the system is in fallback mode.
            retire_ops(&mut worker, &drops, 10);
            assert_eq!(scheme.current_path(), Path::Fallback);

            // Even once covered, the protected node must survive every scan.
            tick(&scheme);
            worker.flush();
            let freed_before_release = drops.load(Ordering::SeqCst);
            assert_eq!(
                freed_before_release, 10,
                "unprotected covered nodes are freed"
            );
            assert_eq!(worker.local_in_limbo(), 1);

            reader.clear_protections();
            worker.flush();
            assert_eq!(drops.load(Ordering::SeqCst), 11);
            // A handle's fence count reaches the shared stats when it flushes.
            reader.flush();
            let fences = u64::from(strategy == FenceStrategy::ReaderFenced);
            assert_eq!(scheme.stats().traversal_fences, fences, "{strategy:?}");
        });
    }

    #[test]
    fn multi_threaded_stress_reclaims_everything_eventually() {
        use std::thread;
        let drops = Arc::new(AtomicUsize::new(0));
        let allocated = Arc::new(AtomicUsize::new(0));
        let scheme = QSense::new(
            SmrConfig::default()
                .with_max_threads(4)
                .with_quiescence_threshold(16)
                .with_scan_threshold(32)
                .with_fallback_threshold(256)
                .with_rooster_interval(Duration::from_millis(1)),
        );
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let scheme = Arc::clone(&scheme);
                let drops = Arc::clone(&drops);
                let allocated = Arc::clone(&allocated);
                thread::spawn(move || {
                    let mut handle = scheme.register();
                    for i in 0..2000 {
                        handle.begin_op();
                        // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
                        unsafe { retire_box(&mut handle, tracked(&drops)) };
                        allocated.fetch_add(1, Ordering::SeqCst);
                        if i % 128 == 0 {
                            std::thread::yield_now();
                        }
                        handle.end_op();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        drop(scheme);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            allocated.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn liveness_bound_2nc_holds_on_the_fallback_path() {
        // Property 4: with a legal C, at most 2·N·C retired nodes exist at any time.
        // We check the per-thread version (≤ 2·C) during a run where the fallback
        // threshold is tiny and the rooster ticks once per operation.
        under_both_policies(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme = test_scheme(strategy, 8, 1);
            let _delayed = scheme.register();
            let mut worker = scheme.register();
            for i in 0..200 {
                retire_ops(&mut worker, &drops, 1);
                // Wake-ups keep coming so the fallback scans can make progress.
                tick(&scheme);
                assert!(
                    worker.local_in_limbo() <= 2 * 8 + 4,
                    "iteration {i}: limbo {} exceeded the 2C liveness bound",
                    worker.local_in_limbo()
                );
            }
        });
    }

    #[test]
    fn without_eviction_a_crashed_thread_pins_the_system_in_fallback() {
        // The published behaviour (paper §5.2, last paragraph): a thread that never
        // recovers keeps QSense on the fallback path forever.
        under_both_policies(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme = test_scheme(strategy, 20, 1);
            let _crashed = scheme.register(); // never active again
            let mut worker = scheme.register();
            for _ in 0..200 {
                retire_ops(&mut worker, &drops, 1);
                tick(&scheme);
            }
            assert_eq!(scheme.current_path(), Path::Fallback);
            assert_eq!(scheme.stats().fast_path_switches, 0);
            assert_eq!(scheme.evicted_count(), 0, "eviction is disabled by default");
        });
    }

    #[test]
    fn eviction_recovers_the_fast_path_after_a_permanent_thread_failure() {
        // Extension: with an eviction timeout configured, the crashed thread is
        // evicted and the system returns to (and stays on) the fast path.
        under_both_policies(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let manual = ManualClock::new();
            let scheme = eviction_scheme(strategy, &manual, 20, 50);
            let _crashed = scheme.register(); // never active again
            let mut worker = scheme.register();
            // Phase 1: drive the system into fallback mode.
            retire_ops(&mut worker, &drops, 30);
            assert_eq!(scheme.current_path(), Path::Fallback);
            // Phase 2: let the crashed thread exceed the eviction timeout, keep
            // working while the rooster keeps ticking.
            manual.advance(Duration::from_millis(100));
            for _ in 0..20 {
                retire_ops(&mut worker, &drops, 1);
                tick(&scheme);
            }
            assert_eq!(
                scheme.evicted_count(),
                1,
                "the silent thread must be evicted"
            );
            assert_eq!(
                scheme.current_path(),
                Path::Fast,
                "after eviction the system must return to the fast path"
            );
            // The worker kept retiring during recovery, so it may have bounced through
            // fallback more than once; what matters is that every fallback episode ended
            // in a recovery (impossible without eviction, see the previous test).
            let snap = scheme.stats();
            assert!(snap.fast_path_switches >= 1);
            assert_eq!(snap.fast_path_switches, snap.fallback_switches);
            assert_eq!(snap.evictions, 1, "one silent thread, evicted once");
            // Phase 3: reclamation keeps working on the fast path despite the crashed
            // thread (grace periods no longer wait for it; frees go through the Cadence
            // condition while it stays evicted).
            tick(&scheme);
            worker.flush();
            assert_eq!(drops.load(Ordering::SeqCst), 50);
        });
    }

    #[test]
    fn an_evicted_thread_rejoins_when_it_becomes_active_again() {
        under_both_policies(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let manual = ManualClock::new();
            let scheme = eviction_scheme(strategy, &manual, 15, 30);
            let mut sleepy = scheme.register();
            let mut worker = scheme.register();
            // Drive into fallback, evict the sleeper, recover the fast path.
            retire_ops(&mut worker, &drops, 25);
            manual.advance(Duration::from_millis(60));
            for _ in 0..10 {
                worker.begin_op();
                worker.end_op();
            }
            assert_eq!(scheme.evicted_count(), 1);
            assert_eq!(scheme.current_path(), Path::Fast);
            // The sleeper wakes up: its first operation boundary clears the eviction.
            sleepy.begin_op();
            sleepy.end_op();
            assert_eq!(scheme.evicted_count(), 0, "activity lifts the eviction");
            assert_eq!(scheme.current_path(), Path::Fast);
            // With everyone participating again, plain grace periods reclaim
            // everything: no wake-up has completed since the retires.
            for _ in 0..10 {
                sleepy.begin_op();
                sleepy.end_op();
                worker.begin_op();
                worker.end_op();
            }
            worker.flush();
            assert_eq!(drops.load(Ordering::SeqCst), 25);
        });
    }

    #[test]
    fn eviction_still_respects_the_evicted_threads_hazard_pointers() {
        // Safety of the extension: an evicted thread may in reality be alive and
        // holding a protected reference; that node must survive until the protection
        // is dropped, no matter what the eviction logic decides.
        under_both_policies(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let manual = ManualClock::new();
            let scheme = eviction_scheme(strategy, &manual, 10, 20);
            let mut slow_reader = scheme.register();
            let mut worker = scheme.register();

            // The slow reader protects a node, then goes silent (as a descheduled thread
            // would, mid-operation).
            let protected = tracked(&drops);
            slow_reader.protect(0, protected.cast());
            // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
            unsafe { retire_box(&mut worker, protected) };

            // Worker drives the system into fallback, the reader gets evicted, the
            // system returns to the fast path, and plenty of wake-ups pass.
            retire_ops(&mut worker, &drops, 20);
            manual.advance(Duration::from_millis(50));
            for _ in 0..20 {
                worker.begin_op();
                worker.end_op();
                tick(&scheme);
            }
            assert_eq!(scheme.evicted_count(), 1);
            worker.flush();
            // Every node except the protected one is reclaimable by now.
            assert_eq!(
                drops.load(Ordering::SeqCst),
                20,
                "the evicted thread's protected node must survive"
            );
            // The reader finally drops its protection; the node becomes reclaimable.
            slow_reader.clear_protections();
            worker.flush();
            assert_eq!(drops.load(Ordering::SeqCst), 21);
        });
    }

    #[test]
    fn while_a_thread_is_evicted_the_fast_path_frees_by_the_ledger_too() {
        let drops = Arc::new(AtomicUsize::new(0));
        let manual = ManualClock::new();
        let scheme = eviction_scheme(FenceStrategy::Rooster, &manual, 10, 20);
        let _silent = scheme.register();
        let mut worker = scheme.register();
        retire_ops(&mut worker, &drops, 20);
        tick(&scheme);
        manual.advance(Duration::from_millis(50));
        for _ in 0..10 {
            worker.begin_op();
            worker.end_op();
        }
        assert_eq!(
            (scheme.evicted_count(), scheme.current_path()),
            (1, Path::Fast)
        );
        worker.flush();
        let freed = drops.load(Ordering::SeqCst);
        assert_eq!(freed, 20, "covered by the one wake-up");
        // Retired on the fast path since that wake-up: grace periods pass (the
        // evicted thread is not waited for), but no barrier has completed.
        retire_ops(&mut worker, &drops, 5);
        worker.flush();
        assert_eq!(scheme.current_path(), Path::Fast);
        assert_eq!(drops.load(Ordering::SeqCst), freed, "uncovered: kept");
        tick(&scheme);
        worker.flush();
        assert_eq!(drops.load(Ordering::SeqCst), freed + 5);
    }

    #[test]
    fn switch_counters_are_monotonic_and_paired() {
        under_both_policies(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme = test_scheme(strategy, 10, 1);
            let mut delayed = scheme.register();
            let mut worker = scheme.register();
            for round in 0..3 {
                // Delay phase: worker alone, drives the system into fallback.
                retire_ops(&mut worker, &drops, 15);
                assert_eq!(scheme.current_path(), Path::Fallback, "round {round}");
                // Recovery phase: both threads active, system returns to the fast path.
                tick(&scheme);
                for _ in 0..10 {
                    delayed.begin_op();
                    delayed.end_op();
                    worker.begin_op();
                    worker.end_op();
                }
                assert_eq!(scheme.current_path(), Path::Fast, "round {round}");
            }
            let snap = scheme.stats();
            assert_eq!(snap.fallback_switches, 3);
            assert_eq!(snap.fast_path_switches, 3);
        });
    }
}
