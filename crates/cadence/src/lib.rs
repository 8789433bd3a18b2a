//! # cadence — fence-free hazard pointers with rooster threads
//!
//! Cadence is the paper's novel fallback path (§5) and is also usable as a
//! stand-alone reclamation scheme, which this crate provides.
//!
//! Cadence keeps the hazard-pointer *interface* — per-thread protection slots, a scan
//! that frees unprotected retired nodes — but removes the per-node memory fence that
//! makes classic HP slow. Two mechanisms replace it:
//!
//! * **Rooster threads** ([`Rooster`]): background threads that wake every `T`
//!   (the *sleep interval*). In the paper a rooster process pinned to each core
//!   forces a context switch, which drains the store buffer of whichever worker was
//!   running there; in this reproduction the rooster wake-up issues a process-wide
//!   asymmetric barrier (`membarrier(2)` where available — see
//!   `reclaim_core::fence::process_barrier`).
//!   Either way, every hazard-pointer store issued before time `t` is globally
//!   visible by `t + T`.
//! * **Deferred reclamation**: every retired node is timestamped; a scan may only
//!   free nodes older than `T + ε` ([`reclaim_core::RetiredPtr::is_old_enough`]).
//!   Combined with the rooster bound this yields the paper's Property 1: when a node
//!   becomes old enough, any hazard pointer that could protect it is already visible,
//!   so "unprotected and old enough" really means unreachable.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod rooster;
mod scheme;

pub use rooster::Rooster;
pub use scheme::{Cadence, CadenceHandle};

#[cfg(test)]
// Sanctioned raw-protocol site: these tests exercise the scheme's own
// `protect`/retire interface below the guard layer.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use reclaim_core::{retire_box, Clock, ManualClock, Smr, SmrConfig, SmrHandle};
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

    /// A Cadence instance driven by a manual clock and without real rooster threads,
    /// so tests control the passage of time deterministically.
    fn manual_cadence(
        manual: &ManualClock,
        extra: impl FnOnce(SmrConfig) -> SmrConfig,
    ) -> Arc<Cadence> {
        let config = SmrConfig::default()
            .with_clock(Clock::manual(manual.clone()))
            .with_rooster_threads(0)
            .with_rooster_interval(Duration::from_millis(10))
            .with_rooster_epsilon(Duration::from_millis(1));
        Cadence::new(extra(config))
    }

    #[test]
    fn young_nodes_are_never_freed_even_if_unprotected() {
        let drops = Arc::new(AtomicUsize::new(0));
        let manual = ManualClock::new();
        let scheme = manual_cadence(&manual, |c| c);
        let mut handle = scheme.register();
        // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
        unsafe { retire_box(&mut handle, tracked(&drops)) };
        handle.flush();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "deferred reclamation: a node younger than T + ε must survive the scan"
        );
        // Advance past T + ε = 11 ms and scan again.
        manual.advance(Duration::from_millis(12));
        handle.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn old_but_protected_nodes_survive() {
        let drops = Arc::new(AtomicUsize::new(0));
        let manual = ManualClock::new();
        let scheme = manual_cadence(&manual, |c| c.with_hp_per_thread(2));
        let mut owner = scheme.register();
        let mut reader = scheme.register();
        let ptr = tracked(&drops);
        reader.protect(0, ptr.cast());
        // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
        unsafe { retire_box(&mut owner, ptr) };
        manual.advance(Duration::from_millis(100));
        owner.flush();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "hazard pointer must still protect"
        );
        reader.clear_protections();
        owner.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn scan_threshold_triggers_reclamation_of_aged_nodes() {
        let drops = Arc::new(AtomicUsize::new(0));
        let manual = ManualClock::new();
        let scheme = manual_cadence(&manual, |c| c.with_scan_threshold(5));
        let mut handle = scheme.register();
        for _ in 0..4 {
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut handle, tracked(&drops)) };
        }
        manual.advance(Duration::from_millis(20));
        assert_eq!(drops.load(Ordering::SeqCst), 0, "below R: no scan yet");
        // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
        unsafe { retire_box(&mut handle, tracked(&drops)) };
        // The 5th retire triggers a scan; the first four nodes are old enough, the
        // fifth was retired just now and must survive.
        assert_eq!(drops.load(Ordering::SeqCst), 4);
        assert_eq!(handle.local_in_limbo(), 1);
    }

    #[test]
    fn no_traversal_fences_are_issued() {
        let manual = ManualClock::new();
        let scheme = manual_cadence(&manual, |c| c);
        let mut handle = scheme.register();
        for i in 0..1000 {
            handle.protect(0, (0x1000 + i) as *mut u8);
        }
        handle.clear_protections();
        handle.flush();
        assert_eq!(
            scheme.stats().traversal_fences,
            0,
            "Cadence's defining property: zero fences on the traversal path"
        );
        drop(handle);
    }

    #[test]
    fn rooster_threads_wake_up_periodically() {
        let scheme = Cadence::new(
            SmrConfig::default()
                .with_rooster_threads(1)
                .with_rooster_interval(Duration::from_millis(2)),
        );
        // The property is "periodic", not a rate: one wake-up costs a
        // process-wide barrier whose latency is the kernel's, not ours, so poll
        // for repeated wake-ups under a generous deadline.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while scheme.rooster_wakeups() < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            scheme.rooster_wakeups() >= 3,
            "expected repeated rooster wake-ups within 5 s, got {}",
            scheme.rooster_wakeups()
        );
        drop(scheme);
    }

    #[test]
    fn real_clock_end_to_end_reclaims() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = Cadence::new(
            SmrConfig::default()
                .with_rooster_threads(1)
                .with_rooster_interval(Duration::from_millis(2))
                .with_rooster_epsilon(Duration::from_millis(1))
                .with_scan_threshold(8),
        );
        let mut handle = scheme.register();
        for _ in 0..64 {
            handle.begin_op();
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut handle, tracked(&drops)) };
            handle.end_op();
        }
        std::thread::sleep(Duration::from_millis(10));
        handle.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 64);
        drop(handle);
        drop(scheme);
        assert_eq!(drops.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn liveness_bound_on_limbo_size_holds() {
        // Property 2 of the paper: at most N(K + T + R) retired nodes in the system.
        // With a manual clock that never advances, "T" (nodes removable during one
        // rooster interval) is the entire run, so we check the weaker but exact
        // invariant that limbo never exceeds what was retired and that a scan after
        // aging empties it completely (no stuck nodes).
        let drops = Arc::new(AtomicUsize::new(0));
        let manual = ManualClock::new();
        let scheme = manual_cadence(&manual, |c| c.with_scan_threshold(16));
        let mut handle = scheme.register();
        for _ in 0..100 {
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut handle, tracked(&drops)) };
        }
        assert!(handle.local_in_limbo() <= 100);
        manual.advance(Duration::from_secs(1));
        handle.flush();
        assert_eq!(handle.local_in_limbo(), 0);
        assert_eq!(drops.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn scheme_drop_frees_parked_leftovers() {
        let drops = Arc::new(AtomicUsize::new(0));
        let manual = ManualClock::new();
        let scheme = manual_cadence(&manual, |c| c);
        {
            let mut handle = scheme.register();
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut handle, tracked(&drops)) };
            // Handle dropped while the node is still too young to free.
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(scheme);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn scheme_reports_its_name() {
        let scheme = Cadence::with_defaults();
        assert_eq!(scheme.name(), "cadence");
    }
}
