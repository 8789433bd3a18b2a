//! The Cadence scheme object and per-thread handle.

use crate::rooster::Rooster;
use reclaim_core::retired::DropFn;
use reclaim_core::stats::StatsSnapshot;
use reclaim_core::{
    fence, hp_scan, BudgetVerdict, CapacityExhausted, Era, HandleCore, HandleTelemetry, HpSlots,
    OwnedSlots, PtrScratch, Registry, SchemeCore, SegBag, SegPool, SlotId, Smr, SmrConfig,
    SmrHandle, SnapshotProof, Telemetry,
};
use std::sync::{Arc, Mutex};

/// The Cadence reclamation scheme (the paper's fallback path, usable stand-alone).
///
/// A budget-forced scan still honours the `T + ε` age gate — bypassing it would
/// forfeit exactly the fence-free safety argument Cadence exists for — so under
/// a very coarse `rooster_interval` the budget can only be met by scanning more
/// often, never by freeing younger nodes: time is the only thing that makes
/// Cadence garbage reclaimable.
pub struct Cadence {
    core: Arc<SchemeCore<PtrScratch>>,
    registry: Registry<HpSlots>,
    rooster: Mutex<Rooster>,
}

impl Cadence {
    /// Creates a Cadence scheme, spawning its rooster threads.
    pub fn new(config: SmrConfig) -> Arc<Self> {
        let registry = Registry::new(config.max_threads, |_| HpSlots::new(config.hp_per_thread));
        let rooster = Rooster::spawn(config.rooster_threads, config.rooster_interval);
        Arc::new(Self {
            core: SchemeCore::new("cadence", config),
            registry,
            rooster: Mutex::new(rooster),
        })
    }

    /// Creates a Cadence scheme with default configuration.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(SmrConfig::default())
    }

    /// The configuration this scheme was created with.
    pub fn config(&self) -> &SmrConfig {
        self.core.config()
    }

    /// Total rooster wake-ups so far (diagnostics / tests).
    pub fn rooster_wakeups(&self) -> u64 {
        self.rooster
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .wakeup_count()
    }
}

impl Smr for Cadence {
    type Handle = CadenceHandle;

    fn try_register(self: &Arc<Self>) -> Result<CadenceHandle, CapacityExhausted> {
        // A fresh workspace: pool and snapshot scratch pre-sized so that neither
        // the first bag fill nor any scan allocates.
        let (slot, core) = self.core.register(&self.registry, |config| {
            let pool = SegPool::for_scan_threshold(config.scan_threshold);
            (pool, HpSlots::snapshot_scratch(config))
        })?;
        Ok(CadenceHandle {
            // SAFETY: the handle's `Arc<Cadence>` keeps the registry alive.
            slots: unsafe { self.registry.get_mine(slot).owner() },
            scheme: Arc::clone(self),
            slot,
            core,
            retired: SegBag::new(),
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

impl Drop for Cadence {
    fn drop(&mut self) {
        self.rooster
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .shutdown();
    }
}

/// Per-thread handle for [`Cadence`].
pub struct CadenceHandle {
    scheme: Arc<Cadence>,
    slot: SlotId,
    /// This handle's hazard pointers: the writer's view of `registry[slot]`.
    slots: OwnedSlots,
    core: HandleCore<PtrScratch>,
    retired: SegBag,
}

impl CadenceHandle {
    /// The paper's `scan` (Algorithm 3, lines 14–33): free retired nodes that are
    /// both *old enough* (deferred reclamation) and not covered by any hazard
    /// pointer; keep the rest for a later scan.
    fn scan(core: &mut HandleCore<PtrScratch>, scheme: &Cadence, retired: &mut SegBag) {
        let aged = SnapshotProof::Aged(core.config().min_reclaim_age_nanos());
        // SAFETY: the aged proof — the bound is T + ε, within which a rooster
        // wake-up makes every unfenced publication of `protect` visible — and
        // `retired` holds only nodes protected through this scheme's registry.
        unsafe { hp_scan(core, &scheme.registry, retired, aged) }
    }
}

impl SmrHandle for CadenceHandle {
    fn begin_op(&mut self) {}

    fn end_op(&mut self) {}

    /// Publishes a hazard pointer **without a hardware fence** — the defining
    /// difference from classic HP (paper Algorithm 3, `assign_HP`, lines 8–12:
    /// "No need for a memory barrier here").
    #[inline]
    fn protect(&mut self, index: usize, ptr: *mut u8) {
        self.slots.set(index, ptr);
        // Only a compiler fence: the store must not be reordered (by the compiler)
        // after the caller's validation load; hardware-level visibility is provided
        // by the rooster wake-up + deferred-reclamation age bound.
        fence::compiler_only();
    }

    fn clear_protections(&mut self) {
        self.slots.clear_all();
    }

    unsafe fn retire(&mut self, ptr: *mut u8, drop_fn: DropFn, birth_era: Era, size_bytes: usize) {
        let (scheme, retired) = (&*self.scheme, &mut self.retired);
        // Timestamp at removal time — the paper's `free_node_later` records
        // `time_created` on the wrapper node.
        let now = self.core.config().clock.now();
        // SAFETY: forwarded from the caller's contract.
        unsafe {
            self.core
                .retire(retired, ptr, drop_fn, now, birth_era, size_bytes)
        };
        self.core
            .after_retire(|core| Self::scan(core, scheme, retired));
    }

    fn flush(&mut self) {
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

impl Drop for CadenceHandle {
    fn drop(&mut self) {
        self.slots.clear_all();
        // Free what has aged out unprotected; park the rest on the scheme.
        Self::scan(&mut self.core, &self.scheme, &mut self.retired);
        self.core.park(&mut self.retired);
        self.scheme.registry.release(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_merges_all_threads() {
        let scheme = Cadence::new(
            SmrConfig::default()
                .with_max_threads(2)
                .with_hp_per_thread(1)
                .with_rooster_threads(0),
        );
        let a = scheme.register();
        let b = scheme.register();
        a.slots.set(0, 0x10 as *mut u8);
        b.slots.set(0, 0x20 as *mut u8);
        let mut snapshot = Vec::new();
        scheme
            .registry
            .collect_protected(&mut snapshot, HpSlots::collect_into);
        assert_eq!(snapshot, vec![0x10 as *mut u8, 0x20 as *mut u8]);
        drop(a);
        drop(b);
    }
}
