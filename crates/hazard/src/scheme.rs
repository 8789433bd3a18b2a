//! The hazard-pointer scheme object and per-thread handle.

use reclaim_core::retired::DropFn;
use reclaim_core::stats::StatsSnapshot;
use reclaim_core::{
    hp_scan, BudgetVerdict, CapacityExhausted, Era, FenceStrategy, HandleCore, HandleTelemetry,
    HpSlots, OwnedSlots, PtrScratch, Registry, SchemeCore, SegBag, SegPool, SlotId, Smr, SmrConfig,
    SmrHandle, Telemetry,
};
use std::sync::Arc;

/// Classic hazard-pointer scheme (the paper's **HP** baseline).
///
/// HP scans are hazard-gated and therefore safe at any point of the retire
/// path, so a limbo-budget breach forces an immediate scan; if hazard pointers
/// still pin the handle over budget, the retiring thread yields once.
pub struct Hazard {
    core: Arc<SchemeCore<PtrScratch>>,
    registry: Registry<HpSlots>,
    strategy: FenceStrategy,
}

impl Hazard {
    /// Creates a hazard-pointer scheme with the given configuration, running
    /// the protocol this process's kernel supports
    /// ([`FenceStrategy::detect`]).
    pub fn new(config: SmrConfig) -> Arc<Self> {
        Self::with_fence_strategy(config, FenceStrategy::detect())
    }

    /// [`new`](Self::new) with the protocol named instead of detected: for
    /// tests, which run both on every kernel, and for the fence ablation.
    /// Naming [`FenceStrategy::ScannerBarrier`] on a kernel without the
    /// expedited barrier is safe and useless: every scan is refused and frees
    /// nothing.
    pub fn with_fence_strategy(config: SmrConfig, strategy: FenceStrategy) -> Arc<Self> {
        let registry = Registry::new(config.max_threads, |_| HpSlots::new(config.hp_per_thread));
        Arc::new(Self {
            core: SchemeCore::with_scan_batch("hp", config, strategy.scan_batch()),
            registry,
            strategy,
        })
    }

    /// The protocol this scheme's readers and scans run.
    pub fn fence_strategy(&self) -> FenceStrategy {
        self.strategy
    }

    /// Creates a hazard-pointer scheme with default configuration.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(SmrConfig::default())
    }

    /// The configuration this scheme was created with.
    pub fn config(&self) -> &SmrConfig {
        self.core.config()
    }
}

impl Smr for Hazard {
    type Handle = HazardHandle;

    fn try_register(self: &Arc<Self>) -> Result<HazardHandle, CapacityExhausted> {
        // A fresh workspace: pool (one scan batch of retires) and snapshot
        // scratch pre-sized so that neither the first bag fill nor any scan
        // allocates.
        let scan_every = self.core.scan_every();
        let (slot, core) = self.core.register(&self.registry, |config| {
            let pool = SegPool::for_scan_threshold(scan_every);
            (pool, HpSlots::snapshot_scratch(config))
        })?;
        Ok(HazardHandle {
            // SAFETY: the handle's `Arc<Hazard>` keeps the registry alive.
            slots: unsafe { self.registry.get_mine(slot).owner() },
            scheme: Arc::clone(self),
            slot,
            core,
            retired: SegBag::new(),
            strategy: self.strategy,
            local_fences: 0,
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

/// Per-thread handle for [`Hazard`].
pub struct HazardHandle {
    scheme: Arc<Hazard>,
    slot: SlotId,
    /// This handle's hazard pointers: the writer's view of `registry[slot]`.
    slots: OwnedSlots,
    core: HandleCore<PtrScratch>,
    retired: SegBag,
    /// The scheme's protocol, by value: `protect` branches on it per node.
    strategy: FenceStrategy,
    /// Traversal fences issued by this thread since the last flush to shared stats
    /// (kept local so the hot path does not add an extra shared atomic per node).
    local_fences: u64,
}

impl HazardHandle {
    /// Michael's scan: free every retired node absent from a fresh snapshot
    /// of all hazard pointers.
    fn scan(core: &mut HandleCore<PtrScratch>, scheme: &Hazard, retired: &mut SegBag) {
        // SAFETY: the proof is the one `protect` upholds, both read from the
        // scheme's one `FenceStrategy` — reader-fenced: every publication is
        // followed by a `SeqCst` fence before the caller's validation load;
        // scanner-barrier: nothing is owed by `protect`, `hp_scan` issues the
        // barrier itself. `retired` holds only nodes protected through this
        // scheme's registry.
        unsafe { hp_scan(core, &scheme.registry, retired, scheme.strategy.proof()) }
    }

    fn publish_fence_count(&mut self) {
        if self.local_fences > 0 {
            self.core.stats().add_traversal_fences(self.local_fences);
            self.local_fences = 0;
        }
    }
}

impl SmrHandle for HazardHandle {
    fn begin_op(&mut self) {
        // Classic HP has no per-operation bookkeeping.
    }

    fn end_op(&mut self) {
        // Protections are cleared lazily by the next protect/clear; nothing to do.
    }

    #[inline]
    fn protect(&mut self, index: usize, ptr: *mut u8) {
        self.slots.set(index, ptr);
        // The paper's Algorithm 1, line 3: the store above must become visible before
        // the caller's validation load, otherwise the interleaving of Algorithm 2
        // frees a node the reader is about to use. Reader-fenced, that is a `SeqCst`
        // fence here — exactly the per-node cost that Cadence removes;
        // scanner-barrier, every scan runs that fence on this thread's CPU instead
        // and this is a compiler fence (and no counter update).
        if self.strategy.publication_fence() {
            self.local_fences += 1;
        }
    }

    fn clear_protections(&mut self) {
        self.slots.clear_all();
    }

    unsafe fn retire(&mut self, ptr: *mut u8, drop_fn: DropFn, birth_era: Era, size_bytes: usize) {
        let (scheme, retired) = (&*self.scheme, &mut self.retired);
        // SAFETY: forwarded from the caller's contract. HP's free rule reads no stamp.
        unsafe {
            self.core
                .retire(retired, ptr, drop_fn, 0, birth_era, size_bytes)
        };
        self.core
            .after_retire(|core| Self::scan(core, scheme, retired));
    }

    fn flush(&mut self) {
        self.publish_fence_count();
        self.core.adopt_parked(&mut self.retired);
        Self::scan(&mut self.core, &self.scheme, &mut self.retired);
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

impl Drop for HazardHandle {
    fn drop(&mut self) {
        self.publish_fence_count();
        // This thread is done traversing: its own protections can go away.
        self.slots.clear_all();
        // Last chance to free what other threads no longer protect; whatever
        // they still protect is parked on the scheme.
        Self::scan(&mut self.core, &self.scheme, &mut self.retired);
        self.core.park(&mut self.retired);
        self.scheme.registry.release(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protected_snapshot_is_sorted_and_deduplicated() {
        let scheme = Hazard::new(
            SmrConfig::default()
                .with_max_threads(2)
                .with_hp_per_thread(2),
        );
        let h1 = scheme.register();
        let h2 = scheme.register();
        h1.slots.set(0, 0x300 as *mut u8);
        h1.slots.set(1, 0x100 as *mut u8);
        h2.slots.set(0, 0x300 as *mut u8);
        let mut snapshot = Vec::new();
        scheme
            .registry
            .collect_protected(&mut snapshot, HpSlots::collect_into);
        assert_eq!(snapshot, vec![0x100 as *mut u8, 0x300 as *mut u8]);
        drop(h1);
        drop(h2);
    }

    #[test]
    fn scheme_name_and_config_accessors() {
        let scheme = Hazard::with_defaults();
        assert_eq!(scheme.name(), "hp");
        assert!(scheme.config().hp_per_thread >= 1);
    }
}
