//! # qsbr — quiescent-state-based reclamation
//!
//! The paper's fast-but-blocking baseline (§3.1) and the fast path inside QSense.
//!
//! QSBR is an epoch scheme: a global epoch counter, a local epoch per thread, and
//! three *limbo lists* per thread (one per logical epoch, indexed modulo 3). A thread
//! declares a *quiescent state* — a point where it holds no references to shared
//! nodes — once every `Q` operations (the quiescence threshold). At a quiescent
//! state the thread either adopts the global epoch (freeing the limbo list it is
//! about to reuse, safe by Lemma 3 of the paper) or, if every registered thread has
//! already adopted the current epoch, advances the global epoch.
//!
//! The machinery is two parts, which [`Qsbr`] composes, QSense imports as its
//! fast path and EBR runs with a quiescent state at each operation boundary:
//! scheme side, the [`GlobalEpoch`] over a registry of [`EpochRecord`]s and
//! their confirmation, one walk over the claimed slots ([`confirmed`]); handle
//! side, the [`EpochLimbo`] (limbo lists, local epoch, quiescence counter,
//! `quiescent_state()`, `catch_up()`) with [`grace_drain`].
//!
//! The strength of QSBR is its hot path: traversals pay **nothing** — no fences, no
//! per-node stores. Its weakness, which the paper's Figure 5 (bottom) demonstrates
//! and this crate reproduces in its tests, is that a single delayed thread stops the
//! epoch from advancing, so every thread's limbo lists grow without bound.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod epoch;
mod limbo;
mod scheme;

pub use epoch::{limbo_index, EpochRecord, GlobalEpoch, EPOCH_BUCKETS, EVICTED, OFFLINE};
pub use limbo::{confirmed, grace_drain, EpochLimbo};
pub use scheme::{Qsbr, QsbrHandle};

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
    fn single_thread_reclaims_after_epoch_cycles() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = Qsbr::new(SmrConfig::default().with_quiescence_threshold(1));
        let mut handle = scheme.register();
        for _ in 0..10 {
            handle.begin_op();
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut handle, tracked(&drops)) };
            handle.end_op();
        }
        handle.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 10);
        let snap = scheme.stats();
        assert_eq!(snap.retired, 10);
        assert_eq!(snap.freed, 10);
        assert!(snap.quiescent_states > 0);
    }

    #[test]
    fn nothing_is_freed_before_a_grace_period() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = Qsbr::new(SmrConfig::default().with_quiescence_threshold(1000));
        let mut handle = scheme.register();
        handle.begin_op();
        for _ in 0..50 {
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut handle, tracked(&drops)) };
        }
        // Below the quiescence threshold no quiescent state was declared, so nothing
        // may be freed yet.
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        assert_eq!(handle.local_in_limbo(), 50);
        handle.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn a_stalled_thread_blocks_reclamation() {
        // This is the behaviour that motivates the whole paper: one registered thread
        // that never quiesces keeps every other thread's limbo lists growing.
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = Qsbr::new(
            SmrConfig::default()
                .with_max_threads(2)
                .with_quiescence_threshold(1),
        );
        let stalled = scheme.register(); // never calls begin_op again
        let mut worker = scheme.register();
        for _ in 0..100 {
            worker.begin_op();
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut worker, tracked(&drops)) };
            worker.end_op();
        }
        worker.flush();
        // The stalled thread has not passed through a quiescent state, so the global
        // epoch cannot advance twice and (almost) nothing can be reclaimed. Allow the
        // small prefix freed while epochs could still advance right after startup.
        assert!(
            drops.load(Ordering::SeqCst) <= 2,
            "a stalled thread must prevent reclamation, freed = {}",
            drops.load(Ordering::SeqCst)
        );
        assert!(worker.local_in_limbo() >= 98);
        drop(stalled);
        drop(worker);
        drop(scheme);
        assert_eq!(drops.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn reclamation_resumes_once_the_stalled_thread_quiesces() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = Qsbr::new(
            SmrConfig::default()
                .with_max_threads(2)
                .with_quiescence_threshold(1),
        );
        let mut sleepy = scheme.register();
        let mut worker = scheme.register();
        for _ in 0..100 {
            worker.begin_op();
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut worker, tracked(&drops)) };
            worker.end_op();
        }
        let before = drops.load(Ordering::SeqCst);
        assert!(before <= 2);
        // The delayed thread becomes active again and quiesces a few times.
        for _ in 0..4 {
            sleepy.begin_op();
            sleepy.end_op();
            worker.begin_op();
            worker.end_op();
        }
        worker.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn concurrent_producers_all_reclaim() {
        let drops = Arc::new(AtomicUsize::new(0));
        let total = Arc::new(AtomicUsize::new(0));
        let scheme = Qsbr::new(
            SmrConfig::default()
                .with_max_threads(4)
                .with_quiescence_threshold(8),
        );
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let scheme = Arc::clone(&scheme);
                let drops = Arc::clone(&drops);
                let total = Arc::clone(&total);
                thread::spawn(move || {
                    let mut handle = scheme.register();
                    for _ in 0..500 {
                        handle.begin_op();
                        // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
                        unsafe { retire_box(&mut handle, tracked(&drops)) };
                        total.fetch_add(1, Ordering::SeqCst);
                        handle.end_op();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        drop(scheme);
        assert_eq!(drops.load(Ordering::SeqCst), total.load(Ordering::SeqCst));
    }

    #[test]
    fn stats_report_scheme_name() {
        let scheme = Qsbr::new(SmrConfig::default());
        assert_eq!(scheme.name(), "qsbr");
    }
}
