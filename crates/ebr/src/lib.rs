//! # ebr — epoch-based reclamation with per-operation pinning
//!
//! The classic epoch-based technique from the paper's related work (§8,
//! "Epoch-based techniques" [13, 14]): every operation *pins* the thread at the
//! current global epoch; the epoch may advance once every pinned thread has observed
//! it; a retired node may be freed once the epoch has advanced three times past the
//! epoch its retirer was pinned at (three, not the textbook two, because that tag is
//! taken at pin time and can lag the epoch at unlink time by one).
//!
//! The paper puts EBR in QSBR's class, differing only in where quiescent
//! states happen, and this crate builds it that way (as Brown's DEBRA does):
//! on `qsbr`'s epoch part, with a quiescent state at each operation boundary.
//! A pin publishes the epoch to the thread's `qsbr::EpochRecord` and an unpin
//! publishes `qsbr::OFFLINE`; the limbo is `qsbr::EpochLimbo`, whose three
//! buckets are the three-epoch wait; an advance confirms the epoch with the
//! walk QSBR's quiescent state runs, `qsbr::confirmed`.
//!
//! This crate exists as an additional baseline for the evaluation, sitting between
//! the paper's two fast-path candidates:
//!
//! | scheme | hot-path cost | blocked by an idle thread | blocked by a stalled operation |
//! |--------|---------------|---------------------------|--------------------------------|
//! | QSBR (`qsbr`) | nothing (one shared store per `Q` ops) | **yes** | yes |
//! | EBR (this crate) | two stores to an owned line per op (pin, unpin) and the pin's fence | no | **yes** |
//! | Cadence / QSense fallback | one local store per node | no | no |
//!
//! The pin's fence is paid the way classic HP pays its hazard pointers'
//! (`reclaim_core::fence`), chosen once per process from what the kernel
//! answers and never configured: where `membarrier(PRIVATE_EXPEDITED)` works,
//! a pin is a plain store and a compiler fence, and the thread that tries to
//! advance the epoch runs the hardware fence for every reader with one
//! barrier per attempt (an attempt every `R` retires, as under the other
//! protocol); everywhere else a pin is a store and a `SeqCst` fence.
//!
//! Like QSBR it is *blocking* in the paper's sense — a thread delayed in the middle
//! of an operation stops all reclamation — so it cannot replace the Cadence fallback
//! path; it documents where the classic alternative lands on the fast/robust
//! trade-off the paper's introduction describes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod scheme;

pub use scheme::{Ebr, EbrHandle};

/// Runs `case` under the protocol this kernel selects and under the
/// reader-fenced one, so both are tested on every kernel.
#[cfg(test)]
pub(crate) fn under_both_protocols(case: impl Fn(reclaim_core::FenceStrategy)) {
    case(reclaim_core::FenceStrategy::detect());
    case(reclaim_core::FenceStrategy::ReaderFenced);
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn interleaved_pins_from_many_threads_never_lose_nodes() {
        under_both_protocols(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let retired = Arc::new(AtomicUsize::new(0));
            let scheme = Ebr::with_fence_strategy(
                SmrConfig::default()
                    .with_max_threads(8)
                    .with_scan_threshold(8),
                strategy,
            );
            let threads: Vec<_> = (0..6)
                .map(|t| {
                    let scheme = Arc::clone(&scheme);
                    let drops = Arc::clone(&drops);
                    let retired = Arc::clone(&retired);
                    thread::spawn(move || {
                        let mut handle = scheme.register();
                        for i in 0..400 {
                            handle.begin_op();
                            if (i + t) % 3 != 0 {
                                // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
                                unsafe { retire_box(&mut handle, tracked(&drops)) };
                                retired.fetch_add(1, Ordering::SeqCst);
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
            assert_eq!(drops.load(Ordering::SeqCst), retired.load(Ordering::SeqCst));
        });
    }

    #[test]
    fn stats_track_retired_and_freed_consistently() {
        under_both_protocols(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme =
                Ebr::with_fence_strategy(SmrConfig::default().with_scan_threshold(2), strategy);
            let mut handle = scheme.register();
            for _ in 0..20 {
                handle.begin_op();
                // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
                unsafe { retire_box(&mut handle, tracked(&drops)) };
                handle.end_op();
            }
            handle.flush();
            let snap = scheme.stats();
            assert_eq!(snap.retired, 20);
            assert_eq!(snap.freed, 20);
            assert_eq!(snap.in_limbo(), 0);
            assert!(snap.quiescent_states > 0, "epoch advances are counted");
            assert_eq!(snap.traversal_fences, 0, "EBR issues no traversal fences");
        });
    }

    #[test]
    fn handle_drop_parks_protected_leftovers_instead_of_leaking() {
        under_both_protocols(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme = Ebr::with_fence_strategy(
                SmrConfig::default()
                    .with_max_threads(2)
                    .with_scan_threshold(1_000),
                strategy,
            );
            let mut blocker = scheme.register();
            blocker.begin_op(); // holds the epoch back so the worker's nodes stay young
            {
                let mut worker = scheme.register();
                worker.begin_op();
                for _ in 0..10 {
                    // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
                    unsafe { retire_box(&mut worker, tracked(&drops)) };
                }
                worker.end_op();
                // worker drops here with its nodes still too young to free
            }
            assert_eq!(
                drops.load(Ordering::SeqCst),
                0,
                "nothing freed while blocked"
            );
            blocker.end_op();
            drop(blocker);
            drop(scheme);
            assert_eq!(
                drops.load(Ordering::SeqCst),
                10,
                "scheme drop releases parked nodes"
            );
        });
    }
}
