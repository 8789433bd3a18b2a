//! # hazard — the hazard-pointer family
//!
//! The HP baseline of the QSense paper: Michael's hazard-pointer scheme
//! (*Hazard pointers: Safe memory reclamation for lock-free objects*, IEEE TPDS 2004)
//! as the paper describes it in §3.2. A reader publishes the node it is about to
//! dereference in a hazard-pointer slot and re-validates the link it came through;
//! a scan frees a retired node only if no slot holds it. Between the reader's
//! publication and its validation there must be a **full memory fence**
//! (Algorithm 1, line 3), or the scan can miss a publication still sitting in a
//! store buffer and free a node the reader goes on to use. That fence, paid once
//! per node *traversed*, is the cost the whole paper is about — HP loses up to
//! 75–80% of throughput on read-heavy traversal workloads to it, and
//! Cadence/QSense exist to remove it.
//!
//! The protocol does not say *which side* executes the fence, only that the
//! reader's CPU passes through one between the two accesses — so HP and Cadence
//! are one scheme here ([`HpFamily`]: one record, one handle, one scan, one free
//! rule) behind two paper-named constructors that differ in **who issues the
//! barrier**, chosen once per process from what the kernel answers — there is no
//! option to set. [`Hazard::new`] runs one of:
//!
//! * **scanner-barrier** (Linux ≥ 4.14 with `membarrier` permitted): `protect`
//!   is a store and a compiler fence (≈ 2 ns, Cadence's cost), and a scan
//!   issues one `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)` between its last
//!   retire and its snapshot — the kernel runs the fence on every CPU a sibling
//!   thread occupies. A publication is then either drained before the snapshot,
//!   or was issued after the barrier, in which case its validation load also
//!   follows the barrier, sees the unlink and fails. Threshold scans run every
//!   `R` retires, as under every protocol; a scan whose newest node a
//!   sibling's barrier already covers skips its own
//!   ([`BarrierLedger`](reclaim_core::BarrierLedger)). A scan whose barrier the
//!   kernel refuses frees nothing new. `StatsSnapshot::traversal_fences` reads
//!   0; `heavy_barriers` counts the barriers scans issued.
//! * **reader-fenced** (everywhere else — older kernels, other platforms,
//!   seccomp profiles that filter `membarrier`, such as Docker's default): the
//!   paper's form exactly, a `SeqCst` fence in every `protect` (≈ 9 ns) and a
//!   scan every `R` retires. It is also the reference the tests run beside the
//!   detected protocol ([`HpFamily::with_fence_strategy`]).
//!
//! Neither defers reclamation: a node is freed by the first scan that finds it
//! unprotected. [`Cadence::new`] runs **rooster** — the same compiler-fenced
//! `protect`, scans that never issue a barrier and free only what the process
//! rooster's last completed tick covers (see the `cadence` crate) — or, where
//! the kernel has no process-wide barrier at all, reader-fenced too.
//! `reclaim-check`'s store-buffer litmus checks the argument for all three, and
//! convicts the protocol with no fence at all, with the barrier moved after the
//! snapshot, and with each near miss of the ledger rule.
//!
//! This crate also owns the family's machinery, which QSense's fallback path
//! imports rather than copies: the slot record and its owner's view
//! ([`HpSlots`], [`OwnedSlots`]) and the one scan and free rule ([`hp_scan`]),
//! which every handle of the family and of QSense calls directly.
//!
//! Layout: every registered thread owns `K` single-writer multi-reader hazard-pointer
//! slots in a shared [`Registry`](reclaim_core::Registry), in 128-byte blocks no
//! two threads share. Retired nodes accumulate in a thread-local segment-chain bag
//! ([`reclaim_core::SegBag`]); every `R` retirements the owner runs
//! [`scan`](reclaim_core::SmrHandle::flush), which snapshots all `N·K` hazard
//! pointers and frees every covered retired node not present in the snapshot
//! (Michael's wait-free scan).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod hp_slots;
mod scheme;

pub use hp_slots::{hp_scan, HpSlots, OwnedSlots};
pub use reclaim_core::FenceStrategy;
pub use scheme::{Cadence, Hazard, HpFamily, HpHandle};

#[cfg(test)]
// Sanctioned raw-protocol site: these tests exercise the scheme's own
// `protect`/retire interface below the guard layer.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use reclaim_core::fence::ProcessBarrier;
    use reclaim_core::{retire_box, Smr, SmrConfig, SmrHandle};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;

    struct Tracked(Arc<AtomicUsize>);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn tracked(drops: &Arc<AtomicUsize>) -> *mut Tracked {
        Box::into_raw(Box::new(Tracked(Arc::clone(drops))))
    }

    /// Runs `case` under the protocol this kernel selects and under the
    /// paper's, so both are tested on every kernel.
    fn under_both_protocols(case: impl Fn(FenceStrategy)) {
        case(FenceStrategy::detect());
        case(FenceStrategy::ReaderFenced);
    }

    #[test]
    fn new_runs_the_detected_protocol() {
        let scheme = Hazard::with_defaults();
        println!("hp fence strategy: {}", scheme.fence_strategy().name());
        assert_eq!(scheme.fence_strategy(), FenceStrategy::detect());
        assert_eq!(
            scheme.fence_strategy() == FenceStrategy::ScannerBarrier,
            ProcessBarrier::detected() == ProcessBarrier::Expedited
        );
    }

    #[test]
    fn unprotected_nodes_are_freed_by_scan() {
        under_both_protocols(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let config = SmrConfig::default().with_scan_threshold(4);
            let scheme = Hazard::with_fence_strategy(config, strategy);
            let mut handle = scheme.register();
            for _ in 0..8 {
                handle.begin_op();
                let ptr = tracked(&drops);
                // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
                unsafe { retire_box(&mut handle, ptr) };
                handle.end_op();
            }
            handle.flush();
            assert_eq!(drops.load(Ordering::SeqCst), 8);
            let snap = scheme.stats();
            assert_eq!(snap.retired, 8);
            assert_eq!(snap.freed, 8);
            // Two threshold scans and the flush.
            assert_eq!(snap.scans, 3, "{strategy:?}");
        });
    }

    #[test]
    fn protected_node_survives_scan_until_cleared() {
        under_both_protocols(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let config = SmrConfig::default().with_hp_per_thread(2);
            let scheme = Hazard::with_fence_strategy(config, strategy);
            let mut owner = scheme.register();
            let mut reader = scheme.register();

            let ptr = tracked(&drops);
            reader.begin_op();
            reader.protect(0, ptr.cast());

            owner.begin_op();
            // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
            unsafe { retire_box(&mut owner, ptr) };
            owner.flush();
            assert_eq!(
                drops.load(Ordering::SeqCst),
                0,
                "node protected by another thread's hazard pointer must not be freed"
            );
            assert_eq!(owner.local_in_limbo(), 1);

            reader.clear_protections();
            reader.end_op();
            owner.flush();
            assert_eq!(drops.load(Ordering::SeqCst), 1);
            assert_eq!(owner.local_in_limbo(), 0);
        });
    }

    #[test]
    fn own_protection_does_not_block_own_reclamation_of_other_nodes() {
        under_both_protocols(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme = Hazard::with_fence_strategy(SmrConfig::default(), strategy);
            let mut handle = scheme.register();
            let protected = tracked(&drops);
            handle.protect(0, protected.cast());
            let unprotected = tracked(&drops);
            // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
            unsafe { retire_box(&mut handle, unprotected) };
            handle.flush();
            assert_eq!(drops.load(Ordering::SeqCst), 1);
            // Clean up the still-live protected node: retire it too.
            handle.clear_protections();
            // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
            unsafe { retire_box(&mut handle, protected) };
            handle.flush();
            assert_eq!(drops.load(Ordering::SeqCst), 2);
        });
    }

    #[test]
    fn scan_threshold_triggers_automatic_scans() {
        under_both_protocols(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            // One scan per `R` retires, under either protocol.
            const R: usize = 10;
            let config = SmrConfig::default().with_scan_threshold(R);
            let scheme = Hazard::with_fence_strategy(config, strategy);
            let mut handle = scheme.register();
            for _ in 0..R - 1 {
                // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
                unsafe { retire_box(&mut handle, tracked(&drops)) };
            }
            assert_eq!(
                drops.load(Ordering::SeqCst),
                0,
                "below threshold: no scan yet"
            );
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut handle, tracked(&drops)) };
            assert_eq!(scheme.stats().scans, 1, "threshold reached: scan runs");
            assert_eq!(drops.load(Ordering::SeqCst), 0, "it proves; retires free");
            for retires in 1..=R / 2 {
                // SAFETY: as above.
                unsafe { retire_box(&mut handle, tracked(&drops)) };
                assert_eq!(drops.load(Ordering::SeqCst), 2 * retires);
            }
            assert_eq!((scheme.stats().scans, handle.local_in_limbo()), (1, R / 2));
        });
    }

    #[test]
    fn a_budget_crossing_forces_a_scan_before_the_count_threshold() {
        under_both_protocols(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let node = std::mem::size_of::<Tracked>();
            let config = SmrConfig::default()
                .with_scan_threshold(1_000)
                .with_limbo_budget(Some(40 * node));
            let scheme = Hazard::with_fence_strategy(config, strategy);
            let mut handle = scheme.register();
            // The handle looks at the estimate a grain (256 B = 32 nodes) of
            // its own drift at a time: the look at 64 nodes is the first to
            // find it over 40.
            for _ in 0..63 {
                // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
                unsafe { retire_box(&mut handle, tracked(&drops)) };
            }
            assert_eq!((scheme.stats().scans, drops.load(Ordering::SeqCst)), (0, 0));
            // SAFETY: as above.
            unsafe { retire_box(&mut handle, tracked(&drops)) };
            assert_eq!(
                (scheme.stats().scans, drops.load(Ordering::SeqCst)),
                (1, 64),
                "{strategy:?}: the crossing scans at once, far below the threshold"
            );
            assert_eq!(scheme.stats().forced_scans, 1);
        });
    }

    #[test]
    fn a_kernel_without_the_expedited_barrier_runs_the_papers_protocol_at_the_papers_cadence() {
        // What `new` selects when the probe or the registration fails
        // (`fence::tests` drives the probe itself with refusing kernels).
        let drops = Arc::new(AtomicUsize::new(0));
        for refused in [ProcessBarrier::Global, ProcessBarrier::LocalFence] {
            let strategy = FenceStrategy::for_barrier(refused);
            let config = SmrConfig::default().with_scan_threshold(10);
            let scheme = Hazard::with_fence_strategy(config, strategy);
            let mut handle = scheme.register();
            for i in 0..30 {
                handle.protect(0, (0x1000 + i) as *mut u8);
                // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
                unsafe { retire_box(&mut handle, tracked(&drops)) };
            }
            drop(handle);
            let snap = scheme.stats();
            assert_eq!(snap.scans, 3 + 1, "every 10 retires, and the drop");
            assert_eq!(snap.traversal_fences, 30, "a fence per protect");
            assert_eq!((snap.heavy_barriers, snap.heavy_barrier_failures), (0, 0));
            assert_eq!(snap.freed, 30);
        }
    }

    #[test]
    fn handle_drop_parks_protected_leftovers_and_scheme_drop_frees_them() {
        under_both_protocols(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme = Hazard::with_fence_strategy(SmrConfig::default(), strategy);
            let mut blocker = scheme.register();
            let ptr = tracked(&drops);
            blocker.protect(0, ptr.cast());
            {
                let mut owner = scheme.register();
                // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
                unsafe { retire_box(&mut owner, ptr) };
                // owner drops here while the node is still protected by `blocker`.
            }
            assert_eq!(drops.load(Ordering::SeqCst), 0);
            drop(blocker);
            drop(scheme);
            assert_eq!(drops.load(Ordering::SeqCst), 1);
        });
    }

    #[test]
    fn traversal_fences_are_counted() {
        under_both_protocols(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme = Hazard::with_fence_strategy(SmrConfig::default(), strategy);
            let mut handle = scheme.register();
            for i in 0..100 {
                handle.protect(0, (0x1000 + i) as *mut u8);
            }
            handle.flush();
            let snap = scheme.stats();
            // The fence is the reader's or the scanner's, never both; and a
            // flush with nothing retired has nothing to prove.
            let reader_fenced = strategy == FenceStrategy::ReaderFenced;
            assert_eq!(snap.traversal_fences, if reader_fenced { 100 } else { 0 });
            assert_eq!(snap.heavy_barriers, 0);

            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut handle, tracked(&drops)) };
            handle.flush();
            drop(handle);
            let snap = scheme.stats();
            assert_eq!(snap.scans, 3, "two flushes and the drop");
            assert_eq!(snap.heavy_barriers, if reader_fenced { 0 } else { 1 });
            assert_eq!(snap.heavy_barrier_failures, 0);
            assert_eq!(drops.load(Ordering::SeqCst), 1);
        });
    }

    #[test]
    fn a_scan_shares_the_barrier_a_siblings_scan_already_paid_for() {
        if ProcessBarrier::detected() != ProcessBarrier::Expedited {
            println!("skipped: no expedited membarrier on this kernel");
            return;
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme =
            Hazard::with_fence_strategy(SmrConfig::default(), FenceStrategy::ScannerBarrier);
        let (mut early, mut late) = (scheme.register(), scheme.register());
        for handle in [&mut early, &mut late] {
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(handle, tracked(&drops)) };
        }
        late.flush();
        assert_eq!(
            (scheme.stats().heavy_barriers, drops.load(Ordering::SeqCst)),
            (1, 1)
        );
        // That barrier started after `early`'s retire too: nothing to pay.
        early.flush();
        let snap = scheme.stats();
        assert_eq!(
            (snap.scans, snap.heavy_barriers, snap.heavy_barrier_failures),
            (2, 1, 0)
        );
        assert_eq!(drops.load(Ordering::SeqCst), 2);
        // A retire since then is covered by no one's barrier yet.
        // SAFETY: as above.
        unsafe { retire_box(&mut early, tracked(&drops)) };
        early.flush();
        assert_eq!(
            (scheme.stats().heavy_barriers, drops.load(Ordering::SeqCst)),
            (2, 3)
        );
    }

    #[test]
    fn protect_out_of_range_panics() {
        let scheme = Hazard::new(SmrConfig::default().with_hp_per_thread(2));
        let mut handle = scheme.register();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle.protect(2, 0x1000 as *mut u8);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn registration_beyond_capacity_panics() {
        let scheme = Hazard::new(SmrConfig::default().with_max_threads(1));
        let _h = scheme.register();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = scheme.register();
        }));
        assert!(result.is_err());
    }

    #[test]
    fn concurrent_retire_and_protect_stress() {
        under_both_protocols(retire_and_protect_stress);
    }

    /// A lightweight cross-thread stress: one shared "slot" of published nodes;
    /// readers protect and validate, a writer swaps nodes out and retires them.
    fn retire_and_protect_stress(strategy: FenceStrategy) {
        use std::sync::atomic::AtomicPtr;
        let drops = Arc::new(AtomicUsize::new(0));
        let allocated = Arc::new(AtomicUsize::new(0));
        // R = 2: the writer scans (and, scanner-side, issues a barrier) every
        // 2 retires, under the readers' feet.
        let config = SmrConfig::default()
            .with_max_threads(4)
            .with_scan_threshold(2);
        let scheme = Hazard::with_fence_strategy(config, strategy);
        let slot: Arc<AtomicPtr<Tracked>> = Arc::new(AtomicPtr::new(std::ptr::null_mut()));

        let writer = {
            let scheme = Arc::clone(&scheme);
            let slot = Arc::clone(&slot);
            let drops = Arc::clone(&drops);
            let allocated = Arc::clone(&allocated);
            thread::spawn(move || {
                let mut handle = scheme.register();
                for _ in 0..2000 {
                    let fresh = Box::into_raw(Box::new(Tracked(Arc::clone(&drops))));
                    allocated.fetch_add(1, Ordering::SeqCst);
                    let old = slot.swap(fresh, Ordering::AcqRel);
                    if !old.is_null() {
                        // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
                        unsafe { retire_box(&mut handle, old) };
                    }
                }
                // Unpublish the final node and retire it as well.
                let last = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
                if !last.is_null() {
                    // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
                    unsafe { retire_box(&mut handle, last) };
                }
                handle.flush();
            })
        };

        let readers: Vec<_> = (0..2)
            .map(|_| {
                let scheme = Arc::clone(&scheme);
                let slot = Arc::clone(&slot);
                thread::spawn(move || {
                    let mut handle = scheme.register();
                    let mut observed = 0usize;
                    for _ in 0..2000 {
                        handle.begin_op();
                        loop {
                            let p = slot.load(Ordering::Acquire);
                            if p.is_null() {
                                break;
                            }
                            handle.protect(0, p.cast());
                            // Validate: still published after the fence?
                            if slot.load(Ordering::Acquire) == p {
                                // SAFETY: the pointer is hazard-protected (slot 0) and revalidated still published.
                                let tracked = unsafe { &*p };
                                observed += Arc::strong_count(&tracked.0).min(1);
                                break;
                            }
                        }
                        handle.clear_protections();
                        handle.end_op();
                    }
                    observed
                })
            })
            .collect();

        writer.join().unwrap();
        for r in readers {
            let _ = r.join().unwrap();
        }
        drop(scheme);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            allocated.load(Ordering::SeqCst),
            "every allocated node must be freed exactly once after scheme drop"
        );
    }
}
