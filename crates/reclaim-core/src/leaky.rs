//! The *None* baseline: no reclamation at all.
//!
//! The paper's evaluation compares every scheme against a "leaky" implementation that
//! never frees removed nodes — the upper bound on throughput, since it pays zero
//! reclamation overhead on the hot path. [`Leaky`] reproduces that baseline:
//! `begin_op`, `protect` and `flush` are no-ops, and `retire` books the node,
//! and records only what the arena cannot free. It is the baseline for what a
//! scheme costs beyond its nodes' allocation: no record, no scan, no free.
//!
//! Unlike a literal `free`-never-called port, retired nodes are released when the
//! scheme itself is dropped. During a run the behaviour is identical to the
//! paper's leaky baseline (nothing is ever freed, no hot-path work is done), but
//! the benchmark process does not permanently leak the memory of every
//! experiment it has already finished.
//!
//! Its nodes come from the scheme's arena like every scheme's
//! ([`crate::node_cache`]): since nothing is freed, every allocation misses the
//! handle's cache and takes a spare of the last refill, or a refill of
//! [`REFILL_BLOCKS`](crate::node_cache::REFILL_BLOCKS) carved from the current
//! chunk, and the arena takes a whole 64 KiB chunk from the allocator when that
//! one is used up. A retired plain block of that arena — a node with nothing to
//! drop, every structure node the benchmark retires — is counted and left
//! where it is, with no record written: the arena frees its chunk at scheme
//! drop (`HandleCore::retire_unfreed`); a structure's sentinels come from
//! the same arena, so a retired one is no exception. Anything else — a node
//! with drop glue, a `retire_box` — is recorded and parked with the handle,
//! and scheme drop frees it through its destructor before the arena's chunks
//! go back to the allocator.

use crate::config::SmrConfig;
use crate::limbo::{HandleCore, SchemeCore};
use crate::retired::RetiredPtr;
use crate::segbag::SegBag;
use crate::smr::{CapacityExhausted, CoreToken, Smr, SmrHandle};
use std::sync::Arc;

/// The no-reclamation scheme (paper: *None*).
///
/// This is the throughput *baseline*: `retire` books a node, and records
/// only what the arena cannot free (module docs). Its whole state is the
/// shared [`SchemeCore`] — per-handle counter stripes (so `retire` accounting
/// adds none of the cacheline contention the other schemes are measured
/// against), the parked store dying handles splice into, a tracking-only byte
/// estimate (so `peak_limbo_bytes` and the verdict honestly report the
/// unbounded growth the baseline exists to demonstrate), and telemetry whose
/// retire→free histogram stays honestly empty (garbage is never reclaimed,
/// not reclaimed at delay 0).
pub struct Leaky {
    core: Arc<SchemeCore>,
}

impl Leaky {
    /// Creates a leaky scheme instance.
    pub fn new(config: SmrConfig) -> Arc<Self> {
        Arc::new(Self {
            core: SchemeCore::new("none", config),
        })
    }

    /// Creates a leaky scheme with default configuration.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(SmrConfig::default())
    }
}

impl Smr for Leaky {
    type Handle = LeakyHandle;

    // Leaky has no slot registry, so registration can never exhaust.
    fn try_register(self: &Arc<Self>) -> Result<LeakyHandle, CapacityExhausted> {
        Ok(LeakyHandle {
            core: self.core.attach(None, 0),
            bag: SegBag::new(),
        })
    }

    fn core(&self) -> &SchemeCore {
        &self.core
    }
}

/// Per-thread handle for [`Leaky`].
pub struct LeakyHandle {
    core: HandleCore,
    bag: SegBag,
}

impl SmrHandle for LeakyHandle {
    fn begin_op(&mut self) {}

    fn end_op(&mut self) {}

    fn protect(&mut self, _index: usize, _ptr: *mut u8) {}

    fn clear_protections(&mut self) {}

    unsafe fn retire(&mut self, node: RetiredPtr) {
        // SAFETY: forwarded directly from the caller's contract; Leaky frees
        // nothing while it runs.
        unsafe { self.core.retire_unfreed(&mut self.bag, node) };
        // Track bytes (so peak/verdict are honest) but never escalate: Leaky
        // has no reclamation pass to force, and that is the point of the
        // baseline.
        self.core.track();
    }

    fn flush(&mut self) {
        // Leaky never reclaims while running; that is the whole point of the baseline.
    }

    fn core(&self, _: CoreToken) -> &HandleCore {
        &self.core
    }

    fn core_mut(&mut self, _: CoreToken) -> &mut HandleCore {
        &mut self.core
    }
}

impl Drop for LeakyHandle {
    fn drop(&mut self) {
        // Park this thread's recorded nodes, and the tally of its kept ones, on
        // the scheme so they are released when the scheme itself goes away —
        // an O(1) chain splice, no allocation.
        self.core.park(&mut self.bag);
    }
}

#[cfg(test)]
// Sanctioned raw-protocol site: these tests exercise the scheme's own
// `protect`/retire interface below the guard layer.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::guard::{Atomic, Guard, Owned, Shared};
    use crate::retire_box;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Links `value` in a fresh node off `handle` and retires it through the
    /// guard layer.
    fn retire_node<T>(handle: &mut LeakyHandle, value: T) {
        let guard = Guard::new(handle);
        let link = Atomic::new(Owned::new(value, &guard));
        let published = guard.load_protected(0, &link);
        // SAFETY: the link is this test's own: the only path to the node.
        let (unlinked, _) = unsafe { link.cas_unlink(published, Shared::null()) }
            .expect("nothing else writes the link");
        unlinked.retire(&guard);
    }

    #[test]
    fn a_plain_node_is_booked_and_leaves_no_record() {
        // A 1 KiB budget makes the grain 256 B, so the peak moves mid-run.
        let scheme = Leaky::new(SmrConfig::default().with_limbo_budget(Some(1024)));
        let mut handle = scheme.register();
        for key in 0..64_u64 {
            retire_node(&mut handle, key);
        }
        // A `u64` behind the birth-era header: a 16 B block, nothing to drop.
        assert_eq!(
            (handle.local_in_limbo(), handle.local_limbo_bytes()),
            (64, 64 * 16)
        );
        assert!(handle.bag.is_empty(), "no record was written");
        let stats = scheme.stats();
        assert_eq!((stats.retired, stats.retired_bytes), (64, 64 * 16));
        assert_eq!(stats.peak_limbo_bytes, 64 * 16);
        assert_eq!(stats.freed, 0);
        drop(handle);
        let stats = scheme.stats();
        assert_eq!(stats.freed, 0, "parking frees nothing");
        assert_eq!(scheme.core.limbo_estimate(), 64 * 16);
    }

    #[test]
    fn a_node_with_drop_glue_is_recorded_and_dropped_once_at_scheme_drop() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = Leaky::with_defaults();
        let mut handle = scheme.register();
        retire_node(&mut handle, 7_u64);
        retire_node(&mut handle, Tracked(Arc::clone(&drops)));
        assert_eq!(handle.local_in_limbo(), 2);
        assert_eq!(handle.bag.len(), 1, "only the node with drop glue");
        drop(handle);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(scheme);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    struct Tracked(Arc<AtomicUsize>);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn retire_does_not_free_until_scheme_drop() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = Leaky::with_defaults();
        {
            let mut handle = scheme.register();
            handle.begin_op();
            for _ in 0..10 {
                let ptr = Box::into_raw(Box::new(Tracked(Arc::clone(&drops))));
                // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
                unsafe { retire_box(&mut handle, ptr) };
            }
            handle.flush();
            handle.end_op();
            assert_eq!(handle.local_in_limbo(), 10);
            assert_eq!(
                drops.load(Ordering::SeqCst),
                0,
                "leaky must not free while running"
            );
            let snap = scheme.stats();
            assert_eq!(snap.retired, 10);
            assert_eq!(snap.freed, 0);
        }
        // Handle dropped: still nothing freed.
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(scheme);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            10,
            "scheme drop releases parked nodes"
        );
    }

    #[test]
    fn protect_and_begin_op_are_no_ops() {
        let scheme = Leaky::with_defaults();
        let mut handle = scheme.register();
        handle.begin_op();
        handle.protect(0, std::ptr::null_mut());
        handle.protect(5, 0x1000 as *mut u8);
        handle.clear_protections();
        handle.end_op();
        assert_eq!(handle.local_in_limbo(), 0);
        assert_eq!(scheme.name(), "none");
    }
}
