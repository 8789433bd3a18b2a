//! The hazard-pointer family's scheme object and per-thread handle.

use crate::hp_slots::{hp_scan, HpSlots, OwnedSlots};
use reclaim_core::retired::DropFn;
use reclaim_core::{
    BarrierLedger, CapacityExhausted, Era, FenceStrategy, HandleCore, HandleTelemetry, PtrScratch,
    Registry, SchemeCore, SegBag, SegPool, SlotId, Smr, SmrConfig, SmrHandle,
};
use std::slice::from_mut;
use std::sync::Arc;

/// Classic hazard pointers (the paper's **HP** baseline): the fence is the
/// reader's or, where the kernel offers an expedited `membarrier`, the
/// scanner's ([`FenceStrategy::detect`]).
pub type Hazard = HpFamily<false>;

/// Cadence: fence-free hazard pointers behind a rooster (the paper's fallback
/// path, usable stand-alone). The fence is a rooster's, or the reader's where
/// the kernel has no process-wide barrier ([`FenceStrategy::detect_rooster`]).
pub type Cadence = HpFamily<true>;

/// A hazard-pointer scheme: HP and Cadence are this one protocol with
/// different answers to "who issues the process-wide barrier" — the reader,
/// the scanner, or a rooster (`reclaim_core::fence`).
///
/// Scans are hazard-gated and therefore safe at any point of the retire path,
/// so a limbo-budget breach forces an immediate scan; if hazard pointers (or,
/// under a rooster, barriers not yet completed) still pin the handle over
/// budget, the retiring thread yields once. A forced scan honours the ledger
/// like any other — bypassing it would forfeit exactly the fence-free safety
/// argument Cadence exists for — so under a very coarse `rooster_interval` the
/// budget can only be met by scanning more often, never by freeing uncovered
/// nodes: a rooster tick is the only thing that makes Cadence garbage
/// reclaimable.
///
/// `CADENCE` is which paper-named member this is ([`Hazard`], [`Cadence`]): it
/// picks the name the scheme reports and the protocol `new` detects, nothing
/// else — slots, limbo, scan and free rule exist once.
pub struct HpFamily<const CADENCE: bool> {
    core: Arc<SchemeCore<PtrScratch>>,
    registry: Registry<HpSlots>,
    ledger: BarrierLedger,
}

impl<const CADENCE: bool> HpFamily<CADENCE> {
    /// Creates the scheme with the given configuration, running the protocol
    /// this process's kernel supports.
    pub fn new(config: SmrConfig) -> Arc<Self> {
        let detected = if CADENCE {
            FenceStrategy::detect_rooster()
        } else {
            FenceStrategy::detect()
        };
        Self::with_fence_strategy(config, detected)
    }

    /// [`new`](Self::new) with the protocol named instead of detected: for
    /// tests, which run every member under each protocol it can detect on
    /// every kernel, and for the fence ablation. Naming a protocol whose
    /// barrier the kernel lacks is safe and useless: no barrier ever
    /// completes, so scans free nothing.
    pub fn with_fence_strategy(config: SmrConfig, strategy: FenceStrategy) -> Arc<Self> {
        let registry = Registry::new(config.max_threads, |_| HpSlots::new(config.hp_per_thread));
        let ledger = BarrierLedger::new(strategy, config.rooster_interval);
        let name = if CADENCE { "cadence" } else { "hp" };
        Arc::new(Self {
            core: SchemeCore::with_scan_batch(name, config, strategy.scan_batch()),
            registry,
            ledger,
        })
    }

    /// The protocol this scheme's readers and scans run.
    pub fn fence_strategy(&self) -> FenceStrategy {
        self.ledger.strategy()
    }

    /// The scheme's barrier ledger (diagnostics; tests tick it).
    pub fn ledger(&self) -> &BarrierLedger {
        &self.ledger
    }

    /// Creates the scheme with default configuration.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(SmrConfig::default())
    }

    /// The configuration this scheme was created with.
    pub fn config(&self) -> &SmrConfig {
        self.core.config()
    }
}

impl<const CADENCE: bool> Smr for HpFamily<CADENCE> {
    type Handle = HpHandle<CADENCE>;
    type Scratch = PtrScratch;

    fn try_register(self: &Arc<Self>) -> Result<HpHandle<CADENCE>, CapacityExhausted> {
        // A fresh workspace: pool (one scan batch of retires) and snapshot
        // scratch pre-sized so that neither the first bag fill nor any scan
        // allocates.
        let scan_every = self.core.scan_every();
        let (slot, core) = self.core.register(&self.registry, |config| {
            let pool = SegPool::for_scan_threshold(scan_every);
            (pool, HpSlots::snapshot_scratch(config))
        })?;
        let strategy = self.ledger.strategy();
        Ok(HpHandle {
            // SAFETY: the handle's `Arc<HpFamily>` keeps the registry alive,
            // and the strategy is the ledger's.
            slots: unsafe { self.registry.get_mine(slot).owner(strategy) },
            scheme: Arc::clone(self),
            slot,
            core,
            retired: SegBag::new(),
            newest: 0,
        })
    }

    fn core(&self) -> &SchemeCore<PtrScratch> {
        &self.core
    }
}

/// Per-thread handle for [`HpFamily`].
///
/// `retired` holds only nodes this scheme's handles retired — this one's, or
/// an exited one's it adopted — each protected through `OwnedSlots` of the
/// ledger's strategy and stamped from the ledger at its retire, and `newest`
/// bounds those stamps: [`hp_scan`]'s contract, at all three call sites.
pub struct HpHandle<const CADENCE: bool> {
    scheme: Arc<HpFamily<CADENCE>>,
    slot: SlotId,
    /// This handle's hazard pointers: the writer's view of `registry[slot]`.
    slots: OwnedSlots,
    core: HandleCore<PtrScratch>,
    retired: SegBag,
    /// An upper bound on the stamps in `retired`: what a scanner-barrier scan
    /// needs covered before it may skip its own barrier.
    newest: u64,
}

impl<const CADENCE: bool> SmrHandle for HpHandle<CADENCE> {
    fn begin_op(&mut self) {
        // The hazard-pointer family has no per-operation bookkeeping.
    }

    fn end_op(&mut self) {
        // Protections are cleared lazily by the next protect/clear; nothing to do.
    }

    #[inline]
    fn protect(&mut self, index: usize, ptr: *mut u8) {
        self.slots.protect(index, ptr);
    }

    fn clear_protections(&mut self) {
        self.slots.clear_all();
    }

    unsafe fn retire(&mut self, ptr: *mut u8, drop_fn: DropFn, birth_era: Era, size_bytes: usize) {
        let (scheme, retired) = (&*self.scheme, &mut self.retired);
        // The paper's `free_node_later` records `time_created` on the wrapper
        // node; here it is the ticket of the last barrier started before now —
        // after the caller's unlink, which is what the free rule needs.
        let stamp = scheme.ledger.stamp();
        self.newest = stamp;
        // SAFETY: forwarded from the caller's contract.
        unsafe {
            self.core
                .retire(retired, ptr, drop_fn, stamp, birth_era, size_bytes)
        };
        let (registry, ledger, bags) = (&scheme.registry, &scheme.ledger, from_mut(retired));
        // SAFETY: `retired` and `stamp`, its newest, are as the type says.
        let scan = |core: &mut _| unsafe { hp_scan(core, registry, |r| r, bags, ledger, stamp) };
        self.core.after_retire(scan);
    }

    fn flush(&mut self) {
        self.slots.publish_fence_count(self.core.stats());
        let held = self.core.in_limbo();
        self.core.adopt_parked(&mut self.retired);
        if self.core.in_limbo() != held {
            // Adopted nodes carry other handles' stamps; none is newer than now.
            self.newest = self.scheme.ledger.stamp();
        }
        let (registry, ledger) = (&self.scheme.registry, &self.scheme.ledger);
        let (core, bags) = (&mut self.core, from_mut(&mut self.retired));
        // SAFETY: `retired` and `newest` are as the type says.
        unsafe { hp_scan(core, registry, |r| r, bags, ledger, self.newest) };
        core.drain_ready();
    }

    fn ledger(&self) -> (usize, usize) {
        (self.core.in_limbo(), self.core.limbo_bytes())
    }

    fn telemetry_cursor(&mut self) -> HandleTelemetry<'_> {
        self.core.tele()
    }
}

impl<const CADENCE: bool> Drop for HpHandle<CADENCE> {
    fn drop(&mut self) {
        self.slots.publish_fence_count(self.core.stats());
        // This thread is done traversing: its own protections can go away.
        self.slots.clear_all();
        // Last chance to free what the ledger covers and other threads no
        // longer protect; the rest is parked on the scheme.
        let (registry, ledger) = (&self.scheme.registry, &self.scheme.ledger);
        let (core, bags) = (&mut self.core, from_mut(&mut self.retired));
        // SAFETY: `retired` and `newest` are as the type says.
        unsafe { hp_scan(core, registry, |r| r, bags, ledger, self.newest) };
        self.core.park(&mut self.retired);
        self.scheme.registry.release(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protected_snapshot_is_sorted_deduplicated_and_merges_all_threads() {
        let scheme = Hazard::new(
            SmrConfig::default()
                .with_max_threads(2)
                .with_hp_per_thread(2),
        );
        let mut h1 = scheme.register();
        let mut h2 = scheme.register();
        h1.slots.protect(0, 0x300 as *mut u8);
        h1.slots.protect(1, 0x100 as *mut u8);
        h2.slots.protect(0, 0x300 as *mut u8);
        h2.slots.protect(1, 0x200 as *mut u8);
        let mut snapshot = Vec::new();
        let (registry, tally) = (&scheme.registry, scheme.core.orphan_stats());
        registry.collect_protected(tally, &mut snapshot, HpSlots::collect_into);
        assert_eq!(
            snapshot,
            vec![0x100 as *mut u8, 0x200 as *mut u8, 0x300 as *mut u8]
        );
        drop(h1);
        drop(h2);
    }

    #[test]
    fn the_members_differ_in_name_and_detection_only() {
        let (hp, cadence) = (Hazard::with_defaults(), Cadence::with_defaults());
        assert_eq!((hp.name(), cadence.name()), ("hp", "cadence"));
        assert_eq!(hp.fence_strategy(), FenceStrategy::detect());
        assert_eq!(cadence.fence_strategy(), FenceStrategy::detect_rooster());
        assert!(hp.config().hp_per_thread >= 1);
    }
}
