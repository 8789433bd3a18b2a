//! The hazard-pointer slot record and scan shared by HP, Cadence and QSense.
//!
//! The three schemes publish protections the same way — `K` single-writer
//! multi-reader pointer slots per registered thread — and free by the same
//! rule: a retired node absent from a full snapshot of those slots is
//! unreachable, provided the snapshot is complete. They differ only in *who
//! issues the barrier that completes it* ([`FenceStrategy`]): the reader
//! (a fence per publication), the scan, or the process rooster — and the
//! scheme's [`BarrierLedger`] records when one has.
//!
//! Who writes, who reads: the record ([`HpSlots`]) lives in the scheme's
//! registry and is the **scan side** — [`HpSlots::collect_into`] under
//! [`hp_scan`], from any thread. The **writer** is the one handle that claimed
//! the registry slot, through the [`OwnedSlots`] view it takes at registration:
//! one bounds check against a handle-local `K`, one store and the strategy's
//! fence per protection, with no walk through scheme → registry → record →
//! block on the way.

use reclaim_core::fence::{self, BarrierLedger, FenceStrategy};
use reclaim_core::{CachePadded, Counter, HandleCore, Registry, RetiredPtr, SegBag, StatStripe};
use std::sync::atomic::{AtomicPtr, Ordering};

/// Slots per storage block: 128 bytes' worth, the unit [`CachePadded`] keeps
/// apart (a cache-line pair).
const BLOCK_SLOTS: usize = 128 / std::mem::size_of::<AtomicPtr<u8>>();

/// Per-thread shared record: `K` single-writer multi-reader hazard-pointer slots.
pub struct HpSlots {
    /// Slot `i` is `blocks[i / BLOCK_SLOTS][i % BLOCK_SLOTS]`. The storage is
    /// whole 128-byte-aligned blocks, so no two records ever have slots in one
    /// 128-byte block: the registry pads the *record* (this pointer), which
    /// does nothing for the array behind it — as plain `Box<[AtomicPtr]>`s,
    /// the `K = 2` arrays of neighbouring records sat 32 bytes apart and every
    /// per-node hazard store of one thread invalidated its neighbour's line.
    blocks: Box<[CachePadded<[AtomicPtr<u8>; BLOCK_SLOTS]>]>,
    k: usize,
}

impl HpSlots {
    /// Creates `k` null slots.
    pub fn new(k: usize) -> Self {
        Self {
            blocks: (0..k.div_ceil(BLOCK_SLOTS))
                .map(|_| {
                    CachePadded::new(std::array::from_fn(
                        |_| AtomicPtr::new(std::ptr::null_mut()),
                    ))
                })
                .collect(),
            k,
        }
    }

    /// The `k` slots in index order (and none of the last block's unused
    /// tail), as the one flat array they are.
    #[inline]
    fn slots(&self) -> &[AtomicPtr<u8>] {
        // SAFETY: the blocks are one allocation of `blocks.len() * BLOCK_SLOTS`
        // contiguous slots (const assert below) and `k` is at most that many.
        unsafe { std::slice::from_raw_parts(self.blocks.as_ptr().cast(), self.k) }
    }

    /// The write-side view of this record, for the handle that claimed its
    /// registry slot, publishing under the scheme's `strategy`.
    ///
    /// # Safety
    ///
    /// The record must stay alive (registry not dropped) for as long as the
    /// view is used: the view borrows nothing. `strategy` must be the one the
    /// scheme's scans run ([`hp_scan`]'s ledger).
    pub unsafe fn owner(&self, strategy: FenceStrategy) -> OwnedSlots {
        OwnedSlots {
            slots: self.slots(),
            strategy,
            fences: 0,
        }
    }

    /// Appends the address of every non-null slot to `out` (one claimed
    /// record's share of [`hp_scan`]'s snapshot).
    pub fn collect_into(&self, out: &mut Vec<u64>) {
        for slot in self.slots() {
            let p = slot.load(Ordering::Acquire);
            if !p.is_null() {
                out.push(p as usize as u64);
            }
        }
    }
}

// `HpSlots::slots` reads the blocks as one flat array of slots.
const _: () = assert!(
    std::mem::size_of::<CachePadded<[AtomicPtr<u8>; BLOCK_SLOTS]>>()
        == BLOCK_SLOTS * std::mem::size_of::<AtomicPtr<u8>>()
);

/// The owner's write-side view of one [`HpSlots`] record ([`HpSlots::owner`]):
/// `protect` and `clear_protections` of HP, Cadence and QSense.
pub struct OwnedSlots {
    slots: *const [AtomicPtr<u8>],
    /// The scheme's strategy, by value: `protect` branches on it per node.
    strategy: FenceStrategy,
    /// Hardware fences issued since the last [`publish_fence_count`]
    /// (kept local so the hot path adds no shared atomic per node).
    ///
    /// [`publish_fence_count`]: Self::publish_fence_count
    fences: u64,
}

// SAFETY: `slots` points into a record of the scheme's registry, which the
// `Arc<scheme>` held by the same handle keeps alive wherever the handle moves
// (`HpSlots::owner`'s contract); the slots are atomics, and the handle that
// claimed the registry slot is their single writer, so moving it to another
// thread moves the one writer with it. The other fields are plain values.
unsafe impl Send for OwnedSlots {}

impl OwnedSlots {
    #[inline]
    fn slots(&self) -> &[AtomicPtr<u8>] {
        // SAFETY: the record is alive by `HpSlots::owner`'s contract.
        unsafe { &*self.slots }
    }

    /// Publishes `ptr` in slot `index` — `SmrHandle::protect` for the whole
    /// family: a release store, then the strategy's fence before the caller's
    /// validation load. The paper's Algorithm 1, line 3: the store must be
    /// visible before a scan misses it, or the interleaving of Algorithm 2
    /// frees a node the reader is about to use. Reader-fenced, that is a
    /// `SeqCst` fence here — the per-node cost Cadence exists to remove;
    /// otherwise a compiler fence (Algorithm 3, `assign_HP`: "no need for a
    /// memory barrier here"), with the hardware half issued by the scan or the
    /// rooster and waited for through the ledger.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below `K`.
    #[inline]
    pub fn protect(&mut self, index: usize, ptr: *mut u8) {
        let slots = self.slots();
        assert!(
            index < slots.len(),
            "hazard-pointer index {index} out of range (K = {})",
            slots.len()
        );
        slots[index].store(ptr, Ordering::Release);
        if self.strategy.publication_fence() {
            self.fences += 1;
        }
    }

    /// Nulls the `k` slots (and nothing of the last block's unused tail).
    #[inline]
    pub fn clear_all(&self) {
        for slot in self.slots() {
            slot.store(std::ptr::null_mut(), Ordering::Release);
        }
    }

    /// Moves the local fence count into `stats` (`traversal_fences`); handles
    /// call it at flush and drop.
    pub fn publish_fence_count(&mut self, stats: &StatStripe) {
        if self.fences > 0 {
            stats.add(Counter::TraversalFences, std::mem::take(&mut self.fences));
        }
    }
}

/// One hazard-pointer scan over `bags`, as HP, Cadence and QSense's fallback
/// and evicted fast path run it — threshold scans, budget-forced scans, `flush`
/// and handle `Drop` alike: count the scan, learn from `ledger` how far its
/// barriers have come (issuing one if this scheme's scans do), snapshot the
/// claimed records' published addresses, sorted and deduplicated, into the
/// handle's scratch (`get_protected_nodes`, Algorithm 3 / Michael's stage 1 —
/// the scheme sizes the scratch at `N·K` words at registration, so
/// steady-state scans never allocate; a vacant slot is safe to miss,
/// [`Registry`]'s docs say why) and release what the barriers cover and the
/// snapshot does not hold. The snapshot holds addresses as integers, only
/// ever compared: none is dereferenced.
///
/// Each bag is walked in retirement order and the walk stops at the first
/// uncovered node: everything behind it was stamped later, so a rooster scan is
/// O(covered prefix), not O(bag). (Adopted parked leftovers spliced behind younger
/// nodes are only delayed by this, never endangered.) A rooster's tick covers
/// a whole interval's retires at once (7 000 a thread at `T = 5 ms` on the
/// benchmark's queue); the scan releases them all and the core hands them to
/// the allocator a few per retire (`reclaim_core::READY_FREES_PER_RETIRE`), as
/// it does for every scheme — whole only under `flush`, `Drop` and a budget
/// crossing.
///
/// Under [`FenceStrategy::ScannerBarrier`] a pass issues one
/// [`fence::scanner_barrier`] through the ledger — unless the bags are empty,
/// or a sibling's barrier already covers `newest`, the newest stamp they can
/// hold. If the kernel refuses it the pass frees only what was covered before:
/// keeping a node is always safe, and scans run in `Drop`, where there is no
/// one to tell. The other strategies ignore `newest`.
///
/// # Safety
///
/// Every node in `bags` must have been protected through `slots` of
/// `registry`'s records under `ledger`'s strategy ([`HpSlots::owner`]) and
/// stamped with [`BarrierLedger::stamp`] of this `ledger` after its unlink.
pub unsafe fn hp_scan<R>(
    core: &mut HandleCore,
    registry: &Registry<R>,
    slots: impl Fn(&R) -> &HpSlots,
    bags: &mut [SegBag],
    ledger: &BarrierLedger,
    newest: u64,
) {
    let stats = core.stats();
    stats.add(Counter::Scans, 1);
    // How far the scheme's barriers have come. Read before the snapshot: the
    // snapshot then follows the barrier that raised it.
    let covered = match ledger.strategy() {
        // Nothing waits on a reader's own fence.
        FenceStrategy::ReaderFenced => u64::MAX,
        FenceStrategy::Rooster => ledger.completed(),
        FenceStrategy::ScannerBarrier => {
            if !ledger.covers(newest) && bags.iter().any(|bag| !bag.is_empty()) {
                // SAFETY: `scanner_barrier` is true only of a successful
                // expedited `membarrier`. A refusal is counted, and covers
                // nothing.
                let _ = unsafe { ledger.issue(|| fence::scanner_barrier(stats)) };
            }
            ledger.completed()
        }
    };
    core.scan(|reclaim, protected| {
        let tally = reclaim.stats();
        protected.clear();
        for (_, record) in registry.iter_claimed(tally) {
            slots(record).collect_into(protected);
        }
        protected.sort_unstable();
        protected.dedup();
        let due = |node: &RetiredPtr| node.stamp() < covered;
        let unprotected = |node: &RetiredPtr| {
            protected
                .binary_search(&(node.addr() as usize as u64))
                .is_err()
        };
        for bag in bags {
            // SAFETY: (Michael's scan argument) a node absent from a full
            // hazard-pointer snapshot and already unlinked (the retire
            // contract) is unreachable by any thread, if the snapshot holds
            // every hazard pointer that validated — was published while the
            // node was still reachable. Reader-fenced it does: the publisher's
            // `SeqCst` fence precedes its validation load, so the store is
            // visible before the unlink it did not see, and the snapshot was
            // taken after the retire. Otherwise (the ledger rule; paper
            // Property 1 with the rooster's wake-up observed, not timed) a
            // freed node has `stamp < covered`: a process-wide barrier took
            // its ticket after the stamp was read — so after the unlink — and
            // returned before `covered` was read — so before the snapshot. It
            // drained, on every sibling, each publication issued before it;
            // one issued after it is validated after it too, against a link
            // already unlinked, and fails.
            unsafe { reclaim.free_walk(bag, due, unprotected, |_| {}) };
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use reclaim_core::{drop_fn_for, RetiredPtr, SchemeCore, SmrConfig, NO_BIRTH_ERA};
    use std::collections::HashSet;
    use std::time::Duration;

    /// The view a handle would take of `record` at registration.
    fn owner_of(record: &HpSlots) -> OwnedSlots {
        // SAFETY: every test keeps its record (or registry) alive past the
        // view, and none frees through a scan while a slot is published.
        unsafe { record.owner(FenceStrategy::Rooster) }
    }

    fn collected(record: &HpSlots) -> Vec<u64> {
        let mut out = Vec::new();
        record.collect_into(&mut out);
        out
    }

    #[test]
    fn set_clear_collect_round_trip() {
        // 20 slots span two storage blocks; 15 | 16 is the boundary.
        let record = HpSlots::new(BLOCK_SLOTS + 4);
        let mut view = owner_of(&record);
        let published = [0, 2, BLOCK_SLOTS - 1, BLOCK_SLOTS, BLOCK_SLOTS + 3];
        for index in published {
            view.protect(index, (0x10 * (index + 1)) as *mut u8);
        }
        let expected: Vec<_> = published
            .iter()
            .map(|&index| 0x10 * (index as u64 + 1))
            .collect();
        assert_eq!(collected(&record), expected);
        view.clear_all();
        assert!(collected(&record).is_empty());
    }

    #[test]
    #[should_panic(expected = "index 2 out of range (K = 2)")]
    fn protect_rejects_an_out_of_range_slot() {
        // Slot 2 exists in the storage block, but not in a `K = 2` record.
        let record = HpSlots::new(2);
        owner_of(&record).protect(2, std::ptr::null_mut());
    }

    #[test]
    fn only_a_reader_fenced_view_counts_fences_and_publishes_them_once() {
        let record = HpSlots::new(1);
        let stats = StatStripe::new();
        for (strategy, fences) in [
            (FenceStrategy::ReaderFenced, 3),
            (FenceStrategy::ScannerBarrier, 0),
            (FenceStrategy::Rooster, 0),
        ] {
            // SAFETY: `record` outlives the view; nothing scans.
            let mut view = unsafe { record.owner(strategy) };
            for _ in 0..3 {
                view.protect(0, 0x10 as *mut u8);
            }
            let before = stats.snapshot().traversal_fences;
            view.publish_fence_count(&stats);
            view.publish_fence_count(&stats);
            assert_eq!(stats.snapshot().traversal_fences - before, fences);
        }
    }

    #[test]
    fn clear_all_stops_at_k_inside_the_last_block() {
        // `K = 20` leaves slots 20..32 of the second block unused: a scan
        // never reads them (`slots`), and the owner never writes them.
        let record = HpSlots::new(BLOCK_SLOTS + 4);
        let tail = &record.blocks[1][4..];
        for slot in tail {
            slot.store(0xdead as *mut u8, Ordering::Relaxed);
        }
        let mut view = owner_of(&record);
        view.protect(BLOCK_SLOTS + 3, 0x10 as *mut u8);
        view.clear_all();
        assert!(collected(&record).is_empty());
        assert!(tail
            .iter()
            .all(|slot| slot.load(Ordering::Relaxed) == 0xdead as *mut u8));
    }

    #[test]
    fn the_view_of_a_recycled_registry_slot_writes_the_record_scans_read() {
        let (registry, tally) = (
            Registry::new(1, |_| HpSlots::new(BLOCK_SLOTS + 1)),
            StatStripe::new(),
        );
        for tenancy in 1..=2_usize {
            let slot = registry.acquire().expect("the one slot is free");
            let mut view = owner_of(registry.get_mine(slot));
            view.protect(BLOCK_SLOTS, (0x100 * tenancy) as *mut u8);
            // What `hp_scan` reads: the claimed records' published slots.
            let claimed = registry.iter_claimed(&tally);
            let snapshot: Vec<_> = claimed.flat_map(|(_, r)| collected(r)).collect();
            assert_eq!(snapshot, vec![0x100 * tenancy as u64]);
            view.clear_all();
            registry.release(slot);
        }
    }

    #[test]
    fn no_two_records_of_a_registry_share_a_128_byte_block() {
        for k in [1, 2, 6, 16, 17, 34] {
            let registry = Registry::new(4, |_| HpSlots::new(k));
            let mut owner_of_block = HashSet::new();
            for record in (0..registry.capacity()).map(|i| registry.get(i)) {
                let slots: Vec<usize> = record
                    .slots()
                    .iter()
                    .map(|slot| std::ptr::from_ref(slot) as usize)
                    .collect();
                assert_eq!(slots.len(), k);
                let blocks: HashSet<usize> = slots.iter().map(|slot| slot / 128).collect();
                for block in blocks {
                    assert!(
                        owner_of_block.insert(block),
                        "K = {k}: two records have slots in block {:#x}",
                        block * 128
                    );
                }
            }
        }
    }

    /// One registered handle of a scheme running `strategy` (no rooster: the
    /// tests issue), with a reader registered beside it.
    struct Fixture {
        registry: Registry<HpSlots>,
        ledger: BarrierLedger,
        core: HandleCore,
        bag: SegBag,
        reader: OwnedSlots,
    }

    impl Fixture {
        fn new(strategy: FenceStrategy) -> Self {
            let config = SmrConfig::default().with_max_threads(2);
            let registry =
                Registry::new(config.max_threads, |_| HpSlots::new(config.hp_per_thread));
            let words = config.max_threads * config.hp_per_thread;
            let scheme = SchemeCore::new("test", config);
            let (_slot, core) = scheme.register(&registry, words).expect("two free slots");
            let reader = registry.acquire().expect("one free slot");
            Self {
                // SAFETY: the fixture keeps the registry alive beside the view.
                reader: unsafe { registry.get_mine(reader).owner(strategy) },
                registry,
                ledger: BarrierLedger::new(strategy, Duration::MAX),
                core,
                bag: SegBag::new(),
            }
        }

        /// Retires one fresh node, stamped now; returns its address.
        fn retire(&mut self) -> *mut u8 {
            let node = Box::into_raw(Box::new(0u64)).cast::<u8>();
            // SAFETY: freshly boxed, never linked anywhere, retired exactly once.
            unsafe {
                let retired = RetiredPtr::new(node, drop_fn_for::<u64>(), NO_BIRTH_ERA, 8);
                self.core
                    .retire(&mut self.bag, retired, self.ledger.stamp());
            }
            node
        }

        /// A scan as `flush` runs it: what it proves goes to the allocator.
        fn scan(&mut self, newest: u64) {
            self.prove(newest);
            self.core.drain_ready();
        }

        /// A scan as a retire runs it: the proof alone.
        fn prove(&mut self, newest: u64) {
            // SAFETY: the bag's nodes were stamped from this ledger by
            // `retire`, and the only publications are `reader`'s, under the
            // ledger's strategy.
            unsafe {
                hp_scan(
                    &mut self.core,
                    &self.registry,
                    |record| record,
                    std::slice::from_mut(&mut self.bag),
                    &self.ledger,
                    newest,
                )
            }
        }

        /// A completed barrier, as a sibling's scan or a rooster would enter it.
        fn tick(&self) {
            // SAFETY: a single-threaded test: no sibling's store buffer holds
            // a publication.
            assert!(unsafe { self.ledger.issue(|| true) });
        }

        /// (scans, barriers issued, barriers refused, scan walks, freed).
        fn counters(&self) -> (u64, u64, u64, u64, u64) {
            let s = self.core.stats().snapshot();
            (
                s.scans,
                s.heavy_barriers,
                s.heavy_barrier_failures,
                s.scan_walks,
                s.freed,
            )
        }

        fn finish(mut self) {
            self.core.park(&mut self.bag);
        }
    }

    #[test]
    fn a_rooster_scan_issues_no_barrier_and_frees_only_what_a_tick_covered() {
        let mut f = Fixture::new(FenceStrategy::Rooster);
        for _ in 0..3 {
            f.retire();
        }
        f.scan(0);
        assert_eq!(f.counters(), (1, 0, 0, 1, 0), "no barrier completed yet");
        f.tick();
        let young = f.retire();
        let held = f.retire();
        f.reader.protect(0, held);
        f.scan(0);
        assert_eq!(f.counters(), (2, 0, 0, 2, 3), "the three the tick covered");
        assert_eq!((f.core.in_limbo(), f.core.limbo_bytes()), (2, 16), "ledger");
        f.tick();
        f.scan(0);
        assert_eq!(f.counters().4, 4, "covered and unprotected: `young` goes");
        assert_eq!(
            f.bag.iter().map(RetiredPtr::addr).collect::<Vec<_>>(),
            [held]
        );
        assert_ne!(young, held);
        f.reader.clear_all();
        f.scan(0);
        assert_eq!(f.counters(), (4, 0, 0, 4, 5));
        f.finish();
    }

    #[test]
    fn a_reader_fenced_scan_waits_for_nothing() {
        let mut f = Fixture::new(FenceStrategy::ReaderFenced);
        let held = f.retire();
        f.retire();
        f.reader.protect(0, held);
        f.scan(0);
        assert_eq!(f.counters(), (1, 0, 0, 1, 1));
        assert_eq!(f.ledger.completed(), 0, "and enters nothing in the ledger");
        f.reader.clear_all();
        f.scan(0);
        assert_eq!(f.counters().4, 2);
        f.finish();
    }

    #[test]
    fn a_scanner_barrier_scan_issues_exactly_one_barrier_unless_a_sibling_covered_it() {
        let mut f = Fixture::new(FenceStrategy::ScannerBarrier);
        // With nothing to free there is nothing to prove: no barrier.
        f.scan(f.ledger.stamp());
        assert_eq!(f.counters(), (1, 0, 0, 1, 0));

        for _ in 0..3 {
            f.retire();
        }
        let newest = f.ledger.stamp();
        // A sibling's scan (or a rooster) ran a whole barrier since the
        // newest retire: this scan shares it.
        f.tick();
        f.scan(newest);
        assert_eq!(
            f.counters(),
            (2, 0, 0, 2, 3),
            "`heavy_barriers` flat, all freed"
        );

        // Nobody has since this one: the scan pays, once. Where the kernel
        // has no expedited command that one barrier fails and frees nothing.
        f.retire();
        let refused = u64::from(!fence::expedited_barrier());
        f.scan(f.ledger.stamp());
        assert_eq!(f.counters(), (3, 1, refused, 3, 4 - refused));
        f.finish();
    }

    #[test]
    fn a_refused_barrier_frees_nothing_it_did_not_already_have_covered() {
        let mut f = Fixture::new(FenceStrategy::ScannerBarrier);
        for _ in 0..2 {
            f.retire();
        }
        f.tick();
        for _ in 0..3 {
            f.retire();
        }
        fence::REFUSE_EXPEDITED.set(true);
        f.prove(f.ledger.stamp());
        fence::REFUSE_EXPEDITED.set(false);
        assert_eq!(
            f.counters(),
            (1, 1, 1, 1, 0),
            "counted; a scan frees nothing"
        );
        assert_eq!(f.bag.len(), 3, "and releases only the two");
        assert_eq!((f.core.in_limbo(), f.core.limbo_bytes()), (5, 40), "ledger");
        assert_eq!(f.ledger.completed(), 1, "the refusal entered nothing");
        // The next retire returns both (two a retire); a flush would too.
        f.retire();
        assert_eq!(f.counters().4, 2);
        assert_eq!((f.core.in_limbo(), f.core.limbo_bytes()), (4, 32), "ledger");
        f.finish();
    }
}
