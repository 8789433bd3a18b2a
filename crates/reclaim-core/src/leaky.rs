//! The *None* baseline: no reclamation at all.
//!
//! The paper's evaluation compares every scheme against a "leaky" implementation that
//! never frees removed nodes — the upper bound on throughput, since it pays zero
//! reclamation overhead on the hot path. [`Leaky`] reproduces that baseline:
//! `begin_op`, `protect` and `flush` are no-ops and `retire` merely records the node.
//!
//! Unlike a literal `free`-never-called port, retired nodes are parked in the scheme
//! object and released when the scheme itself is dropped. During a run the behaviour
//! is identical to the paper's leaky baseline (nothing is ever freed, no hot-path
//! work is done), but the benchmark process does not permanently leak the memory of
//! every experiment it has already finished.

use crate::clock::Era;
use crate::config::SmrConfig;
use crate::limbo::{HandleCore, SchemeCore};
use crate::retired::DropFn;
use crate::segbag::{SegBag, SegPool};
use crate::smr::{CapacityExhausted, Smr, SmrHandle};
use crate::telemetry::HandleTelemetry;
use std::sync::Arc;

/// The no-reclamation scheme (paper: *None*).
///
/// This is the throughput *baseline*: its whole state is the shared
/// [`SchemeCore`] — per-handle counter stripes (so `retire` accounting adds
/// none of the cacheline contention the other schemes are measured against),
/// the parked chain dying handles splice into, a tracking-only byte estimate
/// (so `peak_limbo_bytes` and the verdict honestly report the unbounded growth
/// the baseline exists to demonstrate), and telemetry whose retire→free
/// histogram stays honestly empty (garbage is never reclaimed, not reclaimed
/// at delay 0).
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

    /// The configuration this scheme was created with.
    pub fn config(&self) -> &SmrConfig {
        self.core.config()
    }
}

impl Smr for Leaky {
    type Handle = LeakyHandle;
    type Scratch = ();

    // Leaky has no slot registry, so registration can never exhaust.
    fn try_register(self: &Arc<Self>) -> Result<LeakyHandle, CapacityExhausted> {
        Ok(LeakyHandle {
            core: self.core.attach(None, |_| (SegPool::new(), ())),
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

    unsafe fn retire(&mut self, ptr: *mut u8, drop_fn: DropFn, birth_era: Era, size_bytes: usize) {
        // SAFETY: forwarded directly from the caller's contract.
        unsafe {
            self.core
                .retire(&mut self.bag, ptr, drop_fn, 0, birth_era, size_bytes)
        };
        // Track bytes (so peak/verdict are honest) but never escalate: Leaky
        // has no reclamation pass to force, and that is the point of the
        // baseline.
        self.core.track();
    }

    fn flush(&mut self) {
        // Leaky never reclaims while running; that is the whole point of the baseline.
    }

    fn ledger(&self) -> (usize, usize) {
        (self.core.in_limbo(), self.core.limbo_bytes())
    }

    fn telemetry_cursor(&mut self) -> HandleTelemetry<'_> {
        self.core.tele()
    }
}

impl Drop for LeakyHandle {
    fn drop(&mut self) {
        // Park this thread's retired nodes on the scheme so they are released when
        // the scheme itself goes away — an O(1) chain splice, no allocation.
        self.core.park(&mut self.bag);
    }
}

#[cfg(test)]
// Sanctioned raw-protocol site: these tests exercise the scheme's own
// `protect`/retire interface below the guard layer.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::retire_box;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
