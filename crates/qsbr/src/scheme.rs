//! The QSBR scheme object and per-thread handle.

use crate::epoch::{
    limbo_index, CursorCheck, EpochCursor, EpochRecord, GlobalEpoch, EPOCH_BUCKETS,
};
use reclaim_core::retired::DropFn;
use reclaim_core::stats::StatsSnapshot;
use reclaim_core::{
    BudgetVerdict, CapacityExhausted, Era, HandleCore, HandleTelemetry, Registry, SchemeCore,
    SegBag, SegPool, SlotId, Smr, SmrConfig, SmrHandle, Telemetry,
};
use std::sync::Arc;

/// Quiescent-state-based reclamation (the paper's **QSBR** baseline and the fast path
/// of QSense).
///
/// Limbo bytes are **tracked only**. QSBR has no escalation ladder to climb:
/// declaring a quiescent state mid-operation would be unsound, and no
/// hazard-gated scan exists. Under a stalled reader the estimate exceeds any
/// budget and the verdict records exactly that — QSBR's non-robustness is the
/// measurement, not a bug.
pub struct Qsbr {
    core: Arc<SchemeCore>,
    global_epoch: GlobalEpoch,
    /// Cooperative epoch-confirmation state: quiescent states contribute bounded
    /// slices of the "has everyone adopted the epoch?" check instead of each
    /// sweeping the whole registry (see [`EpochCursor`]).
    cursor: EpochCursor,
    registry: Registry<EpochRecord>,
}

impl Qsbr {
    /// Creates a QSBR scheme with the given configuration.
    pub fn new(config: SmrConfig) -> Arc<Self> {
        let registry = Registry::new(config.max_threads, |_| EpochRecord::new());
        Arc::new(Self {
            core: SchemeCore::new("qsbr", config),
            global_epoch: GlobalEpoch::new(),
            cursor: EpochCursor::new(),
            registry,
        })
    }

    /// Creates a QSBR scheme with default configuration.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(SmrConfig::default())
    }

    /// The configuration this scheme was created with.
    pub fn config(&self) -> &SmrConfig {
        self.core.config()
    }

    /// The current global epoch (exposed for tests and diagnostics).
    pub fn current_epoch(&self) -> u64 {
        self.global_epoch.load()
    }

    /// Contributes a bounded slice of the "has every registered thread adopted
    /// `epoch`?" check and advances the global epoch once the cooperative pass
    /// completes. Replaces the old full-registry sweep each quiescent state paid.
    fn poll_epoch_confirmation(&self, epoch: u64) {
        let confirmed = self.cursor.poll(epoch, self.registry.capacity(), |i| {
            // Shard-granular vacancy first: a wholly-vacant shard is classified
            // on one bitmap load and the pass jumps straight past it, so
            // confirmation cost tracks active shards, not capacity.
            let next = self.registry.skip_vacant_shards(i);
            if next > i {
                CursorCheck::VacantRun(next)
            } else if !self.registry.is_claimed(i) {
                CursorCheck::Vacant
            } else if self.registry.get(i).load() == epoch {
                CursorCheck::Confirmed
            } else {
                CursorCheck::Lagging
            }
        });
        if confirmed {
            self.global_epoch.try_advance(epoch);
        }
    }
}

impl Smr for Qsbr {
    type Handle = QsbrHandle;

    fn try_register(self: &Arc<Self>) -> Result<QsbrHandle, CapacityExhausted> {
        let (slot, core) = self
            .core
            .register(&self.registry, |_| (SegPool::new(), ()))?;
        // Adopt the current global epoch immediately: a freshly registered thread
        // holds no references, so adopting (rather than lagging at a stale value) is
        // always safe and avoids spuriously blocking epoch advancement.
        let epoch = self.global_epoch.load();
        self.registry.get_mine(slot).store(epoch);
        Ok(QsbrHandle {
            scheme: Arc::clone(self),
            slot,
            core,
            limbo: std::array::from_fn(|_| SegBag::new()),
            local_epoch: epoch,
            ops_since_quiescence: 0,
        })
    }

    fn name(&self) -> &'static str {
        self.core.name()
    }

    fn stats(&self) -> StatsSnapshot {
        let mut snap = self.core.stats();
        self.registry.merge_shard_counters(&mut snap);
        snap
    }

    fn budget_verdict(&self) -> BudgetVerdict {
        self.core.governor().verdict()
    }

    fn telemetry(&self) -> &Telemetry {
        self.core.telemetry()
    }
}

/// Per-thread handle for [`Qsbr`].
pub struct QsbrHandle {
    scheme: Arc<Qsbr>,
    slot: SlotId,
    core: HandleCore,
    /// One limbo list per logical epoch, as in the paper (§3.1). All three
    /// share the core's segment pool: a bucket freed on epoch adoption feeds
    /// the segments the next bucket grows into, so the retire path stays
    /// allocation-free even when one bucket grows past another's high-water
    /// mark.
    limbo: [SegBag; EPOCH_BUCKETS],
    /// Cached copy of this thread's published epoch.
    local_epoch: u64,
    ops_since_quiescence: usize,
}

impl QsbrHandle {
    /// Declares a quiescent state *right now*, regardless of the batching threshold.
    ///
    /// This is the paper's `quiescent_state()`:
    /// * if the local epoch lags the global epoch, adopt it and free the limbo list
    ///   that the new epoch maps to (Lemma 3: a full grace period has elapsed since
    ///   those nodes were retired);
    /// * otherwise, if every registered thread has adopted the global epoch, advance
    ///   it.
    pub fn quiesce(&mut self) {
        self.core.stats().add_quiescent_state();
        let global = self.scheme.global_epoch.load();
        if self.local_epoch != global {
            self.adopt(global);
        } else {
            self.scheme.poll_epoch_confirmation(global);
        }
    }

    fn adopt(&mut self, global: u64) {
        self.scheme.registry.get_mine(self.slot).store(global);
        self.local_epoch = global;
        let limbo = &mut self.limbo;
        self.core.scan(|reclaim, _| {
            let bucket = &mut limbo[limbo_index(global)];
            if bucket.is_empty() {
                // Nothing matured in this bucket: the grace drain passes it over.
                reclaim.stats().add_scan_skip();
            } else {
                // Grace-period drains free the whole bucket without per-node tests.
                reclaim.stats().add_scan_wholesale();
            }
            // SAFETY: (Lemma 3 of the paper) every node in this bucket was retired three
            // local-epoch transitions ago; the global epoch has advanced at least twice
            // since, and each advance requires every registered thread to have passed
            // through a quiescent state, i.e. a grace period has elapsed. No thread can
            // therefore still hold a hazardous reference to these nodes.
            unsafe { reclaim.free_all(bucket) };
        });
    }
}

impl SmrHandle for QsbrHandle {
    fn begin_op(&mut self) {
        // The paper batches quiescent states: only every Q-th operation boundary
        // actually declares one (§3.1, "quiescence threshold").
        self.ops_since_quiescence += 1;
        if self.ops_since_quiescence >= self.core.config().quiescence_threshold {
            self.ops_since_quiescence = 0;
            self.quiesce();
        }
    }

    fn end_op(&mut self) {}

    fn protect(&mut self, _index: usize, _ptr: *mut u8) {
        // QSBR needs no per-node protection: safety comes from grace periods alone.
    }

    fn clear_protections(&mut self) {}

    unsafe fn retire(&mut self, ptr: *mut u8, drop_fn: DropFn, birth_era: Era, size_bytes: usize) {
        let bucket = &mut self.limbo[limbo_index(self.local_epoch)];
        // SAFETY: forwarded from the caller's contract. Grace periods read no stamp.
        unsafe {
            self.core
                .retire(bucket, ptr, drop_fn, 0, birth_era, size_bytes)
        };
        // Never escalates: a quiescent state cannot be declared mid-operation,
        // so the only lever QSBR has is waiting — which is precisely the
        // non-robustness the verdict exists to record.
        self.core.track();
    }

    fn flush(&mut self) {
        // Adopt limbo leftovers of exited threads into the current bucket: they
        // were retired (unlinked) before the adoption, so freeing them after this
        // bucket's next full grace period is safe.
        self.core
            .adopt_parked(&mut self.limbo[limbo_index(self.local_epoch)]);
        // Cycle through enough quiescent states to let the epoch advance and every
        // limbo bucket be visited, assuming no other thread is blocking advancement.
        // (If one is, this frees whatever a partial cycle allows — same as QSBR's
        // normal behaviour under delays.)
        for _ in 0..2 * EPOCH_BUCKETS {
            self.quiesce();
        }
    }

    fn local_in_limbo(&self) -> usize {
        self.core.in_limbo()
    }

    fn local_limbo_bytes(&self) -> usize {
        self.core.limbo_bytes()
    }

    fn telemetry_cursor(&mut self) -> &mut HandleTelemetry {
        &mut self.core.tele
    }
}

impl Drop for QsbrHandle {
    fn drop(&mut self) {
        // Try to reclaim what a final set of quiescent states allows, then park the
        // rest on the scheme with O(1) splices.
        self.flush();
        let mut leftovers = SegBag::new();
        for bag in &mut self.limbo {
            leftovers.splice(bag);
        }
        self.core.park(&mut leftovers);
        self.scheme.registry.release(self.slot);
    }
}

#[cfg(test)]
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

    #[test]
    fn epoch_advances_when_all_threads_quiesce() {
        let scheme = Qsbr::new(SmrConfig::default().with_max_threads(2));
        let mut a = scheme.register();
        let mut b = scheme.register();
        let start = scheme.current_epoch();
        // Both threads quiesce repeatedly; the epoch must move forward.
        for _ in 0..4 {
            a.quiesce();
            b.quiesce();
        }
        assert!(scheme.current_epoch() > start);
    }

    #[test]
    fn epoch_does_not_advance_past_a_lagging_thread() {
        let scheme = Qsbr::new(SmrConfig::default().with_max_threads(2));
        let mut active = scheme.register();
        let _lagging = scheme.register(); // registered at the current epoch, never quiesces
        let start = scheme.current_epoch();
        for _ in 0..10 {
            active.quiesce();
        }
        // The active thread can advance the epoch at most once on its own: the first
        // advance needs everyone at `start` (true right after registration), but the
        // next needs everyone at `start + 1`, which the lagging thread never adopts.
        assert!(scheme.current_epoch() <= start + 1);
    }

    #[test]
    fn retired_nodes_land_in_the_current_epoch_bucket() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = Qsbr::new(SmrConfig::default().with_quiescence_threshold(1));
        let mut handle = scheme.register();
        let ptr = Box::into_raw(Box::new(Tracked(Arc::clone(&drops))));
        // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
        unsafe { retire_box(&mut handle, ptr) };
        assert_eq!(handle.local_in_limbo(), 1);
        assert_eq!(handle.limbo[limbo_index(handle.local_epoch)].len(), 1);
        handle.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }
}
