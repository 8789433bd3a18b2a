//! The reference-counting scheme object and per-thread handle.

use crate::table::{CountTable, DEFAULT_BUCKETS};
use reclaim_core::{
    CapacityExhausted, CoreToken, Counter, HandleCore, RetiredPtr, SchemeCore, SegBag, Smr,
    SmrConfig, SmrHandle,
};
use std::sync::Arc;

/// Reference-counting reclamation (the paper's related-work baseline, §8
/// "Reference counting" [9, 12, 15, 30]).
///
/// Every protected node access performs an atomic increment on a shared counter and
/// every hand-over-hand step performs the matching decrement; a retired node may be
/// freed once its counter is zero. The counters live in a shared `CountTable`
/// indexed by node address rather than inside the nodes (see that module's docs for
/// why the substitution is faithful). The scheme exists to reproduce the related-work
/// claim that RC's per-access read-modify-write makes it the slowest of the classic
/// techniques on read-mostly workloads.
///
/// RC has no slot registry (counter stripes are dealt round-robin at
/// registration, so registration never exhausts). Its counter check is safe at
/// any point, so a limbo-budget breach forces a sweep on the retire path, then
/// retire-side backpressure while a referenced (or colliding) node keeps its
/// bucket pinned above the budget.
pub struct RefCount {
    core: Arc<SchemeCore>,
    table: CountTable,
}

impl RefCount {
    /// Creates a reference-counting scheme with the given configuration.
    pub fn new(config: SmrConfig) -> Arc<Self> {
        Self::with_buckets(config, DEFAULT_BUCKETS)
    }

    /// Creates a scheme with an explicit counter-table size (tests use small tables
    /// to exercise collisions).
    pub(crate) fn with_buckets(config: SmrConfig, buckets: usize) -> Arc<Self> {
        Arc::new(Self {
            core: SchemeCore::new("rc", config),
            table: CountTable::new(buckets),
        })
    }
}

impl Smr for RefCount {
    type Handle = RefCountHandle;

    fn try_register(self: &Arc<Self>) -> Result<RefCountHandle, CapacityExhausted> {
        let k = self.core.config().hp_per_thread;
        let mut core = self.core.attach(None, k);
        // The scratch is this handle's announced-address table. Fresh buffers
        // are empty; adopted ones are already all-zero with the right length
        // (the previous owner's drop ran `clear_protections`). Either way this
        // is in-capacity and allocation-free.
        core.scratch.clear();
        core.scratch.resize(k, 0);
        Ok(RefCountHandle {
            scheme: Arc::clone(self),
            core,
            retired: SegBag::new(),
        })
    }

    fn core(&self) -> &SchemeCore {
        &self.core
    }
}

/// Per-thread handle for [`RefCount`].
///
/// The core's scratch holds the address currently announced through each
/// protection slot, 0 for none, so the matching decrement can be issued when
/// the slot is overwritten or cleared. The table only hashes an address, so
/// none is dereferenced; the scratch is all-zero whenever it changes hands.
pub struct RefCountHandle {
    scheme: Arc<RefCount>,
    core: HandleCore,
    retired: SegBag,
}

impl RefCountHandle {
    /// Releases every retired node whose counter bucket is currently zero.
    fn scan(core: &mut HandleCore, table: &CountTable, retired: &mut SegBag) {
        core.stats().add(Counter::Scans, 1);
        core.scan(|reclaim, _| {
            // SAFETY: a retired node is already unlinked. If its counter bucket is zero
            // then no thread currently announces a reference that could cover it; a
            // thread announcing a reference *after* this load must re-validate the node's
            // reachability (rule 2 of the integration methodology) and will find it
            // unlinked, so it can never dereference the node. The SeqCst counter
            // operations on both sides give the total order this argument needs — the
            // same structure as Michael's hazard-pointer scan proof, with "counter
            // bucket is non-zero" in place of "a hazard pointer matches".
            unsafe {
                let unreferenced = |node: &RetiredPtr| table.is_unreferenced(node.addr());
                reclaim.free_walk(retired, |_| true, unreferenced, |_| {})
            };
        })
    }
}

impl SmrHandle for RefCountHandle {
    fn begin_op(&mut self) {}

    fn end_op(&mut self) {
        // Holding announcements across operations would only delay reclamation, but
        // dropping them eagerly keeps the counters tight and matches how an intrusive
        // RC implementation drops its references when local variables go out of
        // scope.
        self.clear_protections();
    }

    #[inline]
    fn protect(&mut self, index: usize, ptr: *mut u8) {
        let slots = &mut self.core.scratch;
        assert!(
            index < slots.len(),
            "protection index {index} out of range (K = {})",
            slots.len()
        );
        let (old, new) = (slots[index], ptr as usize as u64);
        if old == new {
            return;
        }
        if !ptr.is_null() {
            // Announce the new reference *before* dropping the old one so that a
            // hand-over-hand traversal never leaves a window where neither node is
            // covered.
            self.scheme.table.acquire(ptr);
        }
        if old != 0 {
            self.scheme.table.release(old as usize as *mut u8);
        }
        slots[index] = new;
    }

    fn clear_protections(&mut self) {
        for slot in self.core.scratch.iter_mut() {
            if *slot != 0 {
                self.scheme
                    .table
                    .release(std::mem::take(slot) as usize as *mut u8);
            }
        }
    }

    unsafe fn retire(&mut self, node: RetiredPtr) {
        let (table, retired) = (&self.scheme.table, &mut self.retired);
        // SAFETY: forwarded from the caller's contract. RC's free rule reads no stamp.
        unsafe { self.core.retire(retired, node, 0) };
        self.core
            .after_retire(|core| Self::scan(core, table, retired));
    }

    fn flush(&mut self) {
        self.core.adopt_parked(&mut self.retired);
        Self::scan(&mut self.core, &self.scheme.table, &mut self.retired);
        self.core.drain_ready();
    }

    fn core(&self, _: CoreToken) -> &HandleCore {
        &self.core
    }

    fn core_mut(&mut self, _: CoreToken) -> &mut HandleCore {
        &mut self.core
    }
}

impl Drop for RefCountHandle {
    fn drop(&mut self) {
        // Leaves the slot buffer all-null for the next registrant.
        self.clear_protections();
        Self::scan(&mut self.core, &self.scheme.table, &mut self.retired);
        self.core.park(&mut self.retired);
    }
}

#[cfg(test)]
// Sanctioned raw-protocol site: these tests exercise the scheme's own
// `protect`/retire interface below the guard layer.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use reclaim_core::retire_box;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn protect_and_clear_balance_the_counters() {
        let scheme = RefCount::new(SmrConfig::default().with_hp_per_thread(2));
        let mut handle = scheme.register();
        let a = 0x1000 as *mut u8;
        let b = 0x2000 as *mut u8;
        handle.protect(0, a);
        handle.protect(1, b);
        assert_eq!(scheme.table.count(a), 1);
        assert_eq!(scheme.table.count(b), 1);
        // Re-protecting the same pointer is idempotent.
        handle.protect(0, a);
        assert_eq!(scheme.table.count(a), 1);
        // Moving a slot to a new pointer releases the old one.
        handle.protect(0, b);
        assert!(scheme.table.is_unreferenced(a));
        assert_eq!(scheme.table.count(b), 2);
        handle.clear_protections();
        assert!(scheme.table.is_unreferenced(b));
    }

    #[test]
    fn a_referenced_node_is_not_freed() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = RefCount::new(
            SmrConfig::default()
                .with_hp_per_thread(2)
                .with_scan_threshold(1),
        );
        let mut reader = scheme.register();
        let mut deleter = scheme.register();
        let node = tracked(&drops);
        reader.protect(0, node.cast());
        // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
        unsafe { retire_box(&mut deleter, node) };
        deleter.flush();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "referenced node must survive"
        );
        reader.clear_protections();
        deleter.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn unreferenced_nodes_are_freed_at_the_scan_threshold() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = RefCount::new(
            SmrConfig::default()
                .with_hp_per_thread(1)
                .with_scan_threshold(8),
        );
        let mut handle = scheme.register();
        for _ in 0..8 {
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut handle, tracked(&drops)) };
        }
        // The 8th retire crossed the threshold and triggered a scan, which
        // released all eight; the next four retires return them, two each.
        assert_eq!((scheme.stats().scans, drops.load(Ordering::SeqCst)), (1, 0));
        for retires in 1..=4 {
            // SAFETY: as above.
            unsafe { retire_box(&mut handle, tracked(&drops)) };
            assert_eq!(drops.load(Ordering::SeqCst), 2 * retires);
        }
        let snap = scheme.stats();
        assert_eq!(snap.retired, 12);
        assert_eq!(snap.freed, 8);
        assert_eq!(snap.scans, 1);
    }

    #[test]
    fn every_sweep_is_one_walk_an_empty_bag_included() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = RefCount::new(
            SmrConfig::default()
                .with_hp_per_thread(1)
                .with_scan_threshold(1_000),
        );
        let mut handle = scheme.register();
        let dispatch = |scheme: &RefCount| {
            let snap = scheme.stats();
            (
                snap.scans,
                snap.scan_walks,
                snap.scan_wholesale,
                snap.scan_skips,
            )
        };
        handle.flush();
        assert_eq!(dispatch(&scheme), (1, 1, 0, 0), "an empty bag is walked");
        for _ in 0..3 {
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut handle, tracked(&drops)) };
        }
        handle.flush();
        assert_eq!(dispatch(&scheme), (2, 2, 0, 0));
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn colliding_pointers_only_delay_reclamation() {
        let drops = Arc::new(AtomicUsize::new(0));
        // A two-bucket table forces collisions.
        let scheme = RefCount::with_buckets(
            SmrConfig::default()
                .with_hp_per_thread(1)
                .with_scan_threshold(1),
            2,
        );
        let mut reader = scheme.register();
        let mut deleter = scheme.register();
        let protected = tracked(&drops);
        let doomed = tracked(&drops);
        reader.protect(0, protected.cast());
        // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
        unsafe { retire_box(&mut deleter, doomed) };
        deleter.flush();
        // Whether or not `doomed` collided with `protected`, it must not be freed
        // unsafely; once the reader lets go, everything can be reclaimed.
        reader.clear_protections();
        deleter.flush();
        // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
        unsafe { retire_box(&mut deleter, protected) };
        deleter.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn handle_drop_parks_still_referenced_nodes() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = RefCount::new(
            SmrConfig::default()
                .with_hp_per_thread(1)
                .with_scan_threshold(1_000),
        );
        let mut reader = scheme.register();
        let node = tracked(&drops);
        reader.protect(0, node.cast());
        {
            let mut deleter = scheme.register();
            // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
            unsafe { retire_box(&mut deleter, node) };
            // deleter exits while the reader still references the node
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(reader);
        drop(scheme);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "scheme drop frees parked nodes"
        );
    }

    #[test]
    fn scheme_reports_name() {
        let scheme = RefCount::new(SmrConfig::default());
        assert_eq!(scheme.name(), "rc");
        assert!(scheme.config().hp_per_thread >= 1);
    }
}
