//! The hazard-pointer slot record and scan shared by HP, Cadence and QSense.
//!
//! The three schemes publish protections the same way — `K` single-writer
//! multi-reader pointer slots per registered thread — and free by the same
//! rule: a retired node absent from a full snapshot of those slots is
//! unreachable. They differ only in *why the snapshot is complete*
//! ([`SnapshotProof`]): classic HP fences every publication or, where the
//! kernel offers an expedited `membarrier`, has the scan run that fence for its
//! readers; Cadence and QSense wait out `T + ε`.
//!
//! Who writes, who reads: the record ([`HpSlots`]) lives in the scheme's
//! registry and is the **scan side** — [`HpSlots::collect_into`] under
//! [`hp_scan`], from any thread. The **writer** is the one handle that claimed
//! the registry slot, through the [`OwnedSlots`] view it takes at registration:
//! one bounds check against a handle-local `K` and one store per protection,
//! with no walk through scheme → registry → record → block on the way. The
//! fence after a publication is left to the caller of [`OwnedSlots::set`]; what
//! the scan owes its proof is [`hp_scan`]'s.

use crate::clock::Nanos;
use crate::config::SmrConfig;
use crate::fence::{self, SnapshotProof};
use crate::limbo::{HandleCore, Reclaim};
use crate::pad::CachePadded;
use crate::registry::Registry;
use crate::retired::RetiredPtr;
use crate::scratch::PtrScratch;
use crate::segbag::SegBag;
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
    /// registry slot.
    ///
    /// # Safety
    ///
    /// The record must stay alive (registry not dropped) for as long as the
    /// view is used: the view borrows nothing.
    pub unsafe fn owner(&self) -> OwnedSlots {
        OwnedSlots {
            slots: self.slots(),
        }
    }

    /// A snapshot buffer sized for the `N·K` worst case — every slot of every
    /// registered thread published — so scans never allocate.
    pub fn snapshot_scratch(config: &SmrConfig) -> PtrScratch {
        PtrScratch::with_capacity(config.max_threads * config.hp_per_thread)
    }

    /// Appends every non-null slot to `out` (one record's share of
    /// [`Registry::collect_protected`]).
    pub fn collect_into(&self, out: &mut Vec<*mut u8>) {
        for slot in self.slots() {
            let p = slot.load(Ordering::Acquire);
            if !p.is_null() {
                out.push(p);
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
/// what `protect` and `clear_protections` of HP, Cadence and QSense go through.
pub struct OwnedSlots {
    slots: *const [AtomicPtr<u8>],
}

// SAFETY: `slots` points into a record of the scheme's registry, which the
// `Arc<scheme>` held by the same handle keeps alive wherever the handle moves
// (`HpSlots::owner`'s contract); the slots are atomics, and the handle that
// claimed the registry slot is their single writer, so moving it to another
// thread moves the one writer with it.
unsafe impl Send for OwnedSlots {}

impl OwnedSlots {
    #[inline]
    fn slots(&self) -> &[AtomicPtr<u8>] {
        // SAFETY: the record is alive by `HpSlots::owner`'s contract.
        unsafe { &*self.slots }
    }

    /// Publishes `ptr` in slot `index` with a release store and **no fence**:
    /// the caller issues whatever its scheme needs before the validation load
    /// (HP: its [`FenceStrategy`](crate::fence::FenceStrategy)'s; Cadence and
    /// QSense: a compiler fence, with hardware visibility bounded by the
    /// rooster).
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below `K`.
    #[inline]
    pub fn set(&self, index: usize, ptr: *mut u8) {
        let slots = self.slots();
        assert!(
            index < slots.len(),
            "hazard-pointer index {index} out of range (K = {})",
            slots.len()
        );
        slots[index].store(ptr, Ordering::Release);
    }

    /// Nulls the `k` slots (and nothing of the last block's unused tail).
    #[inline]
    pub fn clear_all(&self) {
        for slot in self.slots() {
            slot.store(std::ptr::null_mut(), Ordering::Release);
        }
    }
}

impl Reclaim<'_> {
    /// Walks `bag` freeing every node absent from `protected`. With an
    /// `age_gate` of `(now, min_age)` the walk stops at the first node younger
    /// than `min_age`: bags are pushed in retirement order, so everything
    /// behind it is younger still and the scan is O(aged prefix), not O(bag).
    /// (Adopted parked chains spliced behind younger nodes are only delayed by
    /// this, never endangered.) Counts one scan walk.
    ///
    /// # Safety
    ///
    /// `protected` must be a sorted snapshot of the scheme's hazard pointers
    /// taken after every node in `bag` was retired, and complete by one of the
    /// three [`SnapshotProof`]s: without an age gate, reader-fenced (every
    /// publication fenced before its validation load) or scanner-barrier (a
    /// successful [`fence::expedited_barrier`] between the last retire and the
    /// snapshot); with one, aged — `min_age` at least the scheme's
    /// store-visibility bound `T + ε`.
    pub unsafe fn free_unprotected(
        &mut self,
        bag: &mut SegBag,
        protected: &[*mut u8],
        age_gate: Option<(Nanos, Nanos)>,
    ) -> usize {
        self.stats().add_scan_walk();
        let unprotected = |node: &RetiredPtr| protected.binary_search(&node.addr()).is_err();
        match age_gate {
            // SAFETY: (Michael's scan argument) a node absent from the full
            // hazard-pointer snapshot and already unlinked (guaranteed by the
            // retire contract) is unreachable by any thread: the snapshot was
            // taken *after* the node was retired, and a hazard pointer that
            // validated — was published while the node was still reachable —
            // is in it. That last step is the caller's proof. Reader-fenced:
            // the publisher's `SeqCst` fence precedes its validation load, so
            // the store is visible before the unlink it did not see.
            // Scanner-barrier: the barrier drained, on every sibling, each
            // publication issued before it; one issued after it is validated
            // after it too, against a link the barrier's caller had already
            // unlinked, and fails.
            None => unsafe { self.free_walk(bag, |_| true, unprotected, |_| {}) },
            // SAFETY: (paper Property 1, the aged proof) a node that has been
            // retired for at least T + ε was unlinked before the most recent
            // rooster wake-up, so any hazard pointer that could protect it
            // (published, per Condition 1, while the node was still reachable,
            // i.e. before it was retired) is visible to this scan. If the
            // snapshot does not contain the node, no thread holds a hazardous
            // reference to it and freeing is safe.
            Some((now, min_age)) => unsafe {
                let aged = |node: &RetiredPtr| node.is_old_enough(now, min_age);
                self.free_walk(bag, aged, unprotected, |_| {})
            },
        }
    }
}

/// One whole-bag hazard-pointer scan, as HP and Cadence run it — threshold
/// scans, budget-forced scans, `flush` and handle `Drop` alike: count the scan,
/// do what `proof` calls for, snapshot every published pointer into the
/// handle's scratch (`get_protected_nodes`, Algorithm 3 / Michael's stage 1 —
/// the buffer is sized `N·K` at registration, so steady-state scans never
/// allocate) and free what the snapshot does not cover.
///
/// Under [`SnapshotProof::ScannerBarrier`] a pass over a non-empty bag issues
/// exactly one [`fence::scanner_barrier`], after every retire into `bag` and
/// before the snapshot. If the kernel refuses it the pass frees nothing:
/// keeping the bag is always safe, and scans run in `Drop`, where there is no
/// one to tell.
///
/// # Safety
///
/// `proof` must be true of the scheme's `protect` (a `SeqCst` fence after every
/// publication for `ReaderFenced`; `Aged`'s bound at least `T + ε`), and
/// `registry` must be the one `bag`'s nodes were protected through.
pub unsafe fn hp_scan(
    core: &mut HandleCore<PtrScratch>,
    registry: &Registry<HpSlots>,
    bag: &mut SegBag,
    proof: SnapshotProof,
) {
    let stats = core.stats();
    stats.add_scan();
    let age_gate = match proof {
        SnapshotProof::ReaderFenced => None,
        SnapshotProof::ScannerBarrier => {
            if !bag.is_empty() && !fence::scanner_barrier(stats) {
                return;
            }
            None
        }
        // Read before the snapshot: an earlier `now` only makes nodes look younger.
        SnapshotProof::Aged(min_age) => Some((core.config().clock.now(), min_age)),
    };
    core.scan(|reclaim, scratch| {
        registry.collect_protected(scratch, HpSlots::collect_into);
        // SAFETY: the snapshot was taken just above, after every retire into
        // `bag`, and is complete by `proof`: reader-fenced and aged are the
        // caller's contract; for scanner-barrier the barrier succeeded just
        // before the snapshot (or the bag is empty and nothing is freed).
        unsafe { reclaim.free_unprotected(bag, scratch, age_gate) };
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::NO_BIRTH_ERA;
    use crate::limbo::SchemeCore;
    use crate::segbag::SegPool;
    use crate::smr::drop_fn_for;
    use std::collections::HashSet;

    /// The view a handle would take of `record` at registration.
    fn owner_of(record: &HpSlots) -> OwnedSlots {
        // SAFETY: every test keeps its record (or registry) alive past the view.
        unsafe { record.owner() }
    }

    fn collected(record: &HpSlots) -> Vec<*mut u8> {
        let mut out = Vec::new();
        record.collect_into(&mut out);
        out
    }

    #[test]
    fn set_clear_collect_round_trip() {
        // 20 slots span two storage blocks; 15 | 16 is the boundary.
        let record = HpSlots::new(BLOCK_SLOTS + 4);
        let view = owner_of(&record);
        let published = [0, 2, BLOCK_SLOTS - 1, BLOCK_SLOTS, BLOCK_SLOTS + 3];
        for index in published {
            view.set(index, (0x10 * (index + 1)) as *mut u8);
        }
        let expected: Vec<_> = published
            .iter()
            .map(|index| (0x10 * (index + 1)) as *mut u8)
            .collect();
        assert_eq!(collected(&record), expected);
        view.clear_all();
        assert!(collected(&record).is_empty());
    }

    #[test]
    #[should_panic(expected = "index 2 out of range (K = 2)")]
    fn set_rejects_an_out_of_range_slot() {
        // Slot 2 exists in the storage block, but not in a `K = 2` record.
        let record = HpSlots::new(2);
        owner_of(&record).set(2, std::ptr::null_mut());
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
        let view = owner_of(&record);
        view.set(BLOCK_SLOTS + 3, 0x10 as *mut u8);
        view.clear_all();
        assert!(collected(&record).is_empty());
        assert!(tail
            .iter()
            .all(|slot| slot.load(Ordering::Relaxed) == 0xdead as *mut u8));
    }

    #[test]
    fn the_view_of_a_recycled_registry_slot_writes_the_record_scans_read() {
        let registry = Registry::new(1, |_| HpSlots::new(BLOCK_SLOTS + 1));
        let mut snapshot = Vec::new();
        for tenancy in 1..=2_usize {
            let slot = registry.try_acquire().expect("the one slot is free");
            let view = owner_of(registry.get_mine(slot));
            view.set(BLOCK_SLOTS, (0x100 * tenancy) as *mut u8);
            registry.collect_protected(&mut snapshot, HpSlots::collect_into);
            assert_eq!(snapshot, vec![(0x100 * tenancy) as *mut u8]);
            view.clear_all();
            registry.release(slot);
        }
    }

    #[test]
    fn no_two_records_of_a_registry_share_a_128_byte_block() {
        for k in [1, 2, 6, 16, 17, 34] {
            let registry = Registry::new(4, |_| HpSlots::new(k));
            let mut owner_of_block = HashSet::new();
            for (_, record) in registry.iter_all() {
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

    /// One registered handle with `retired` nodes in its bag.
    fn handle_with_garbage(retired: usize) -> (Registry<HpSlots>, HandleCore<PtrScratch>, SegBag) {
        let config = SmrConfig::default().with_max_threads(2);
        let registry = Registry::new(config.max_threads, |_| HpSlots::new(config.hp_per_thread));
        let scheme = SchemeCore::<PtrScratch>::new("test", config);
        let (_slot, mut core) = scheme
            .register(&registry, |config| {
                (SegPool::new(), HpSlots::snapshot_scratch(config))
            })
            .expect("two free slots");
        let mut bag = SegBag::new();
        for _ in 0..retired {
            let node = Box::into_raw(Box::new(0u64));
            // SAFETY: freshly boxed, never linked anywhere, retired exactly once.
            unsafe {
                core.retire(
                    &mut bag,
                    node.cast(),
                    drop_fn_for::<u64>(),
                    0,
                    NO_BIRTH_ERA,
                    8,
                )
            };
        }
        (registry, core, bag)
    }

    fn scan(
        core: &mut HandleCore<PtrScratch>,
        registry: &Registry<HpSlots>,
        bag: &mut SegBag,
        proof: SnapshotProof,
    ) {
        // SAFETY: these tests never publish a slot, so any proof holds.
        unsafe { hp_scan(core, registry, bag, proof) }
    }

    #[test]
    fn a_refused_barrier_frees_nothing_and_is_counted() {
        let (registry, mut core, mut bag) = handle_with_garbage(5);
        fence::REFUSE_EXPEDITED.set(true);
        scan(
            &mut core,
            &registry,
            &mut bag,
            SnapshotProof::ScannerBarrier,
        );
        fence::REFUSE_EXPEDITED.set(false);
        let stats = core.stats().snapshot();
        assert_eq!(
            (
                stats.scans,
                stats.heavy_barriers,
                stats.heavy_barrier_failures
            ),
            (1, 1, 1)
        );
        assert_eq!((stats.freed, stats.scan_walks), (0, 0));
        assert_eq!((core.in_limbo(), core.limbo_bytes()), (5, 40), "ledger");
        assert_eq!(bag.len(), 5);

        // The fenced proof needs no barrier and frees the lot.
        scan(&mut core, &registry, &mut bag, SnapshotProof::ReaderFenced);
        assert_eq!(core.stats().snapshot().freed, 5);
        core.park(&mut bag);
    }

    #[test]
    fn only_the_scanner_barrier_proof_issues_a_barrier_and_exactly_one_per_pass() {
        let (registry, mut core, mut bag) = handle_with_garbage(3);
        let barriers = |core: &HandleCore<PtrScratch>| {
            let stats = core.stats().snapshot();
            (stats.heavy_barriers, stats.heavy_barrier_failures)
        };
        scan(
            &mut core,
            &registry,
            &mut bag,
            SnapshotProof::Aged(u64::MAX),
        );
        assert_eq!((bag.len(), barriers(&core)), (3, (0, 0)), "aged: too young");
        scan(
            &mut core,
            &registry,
            &mut bag,
            SnapshotProof::ScannerBarrier,
        );
        // Where the kernel has no expedited command, the one barrier fails.
        let refused = u64::from(!fence::expedited_barrier());
        assert_eq!(barriers(&core), (1, refused), "one barrier for the pass");
        assert_eq!(bag.len(), if refused == 1 { 3 } else { 0 });
        // With nothing left to free there is nothing to prove: no barrier.
        scan(&mut core, &registry, &mut bag, SnapshotProof::ReaderFenced);
        assert!(bag.is_empty());
        scan(
            &mut core,
            &registry,
            &mut bag,
            SnapshotProof::ScannerBarrier,
        );
        assert_eq!(barriers(&core), (1, refused));
        assert_eq!(core.stats().snapshot().scans, 4);
        core.park(&mut bag);
    }
}
