//! The hazard-pointer slot record and scan shared by HP, Cadence and QSense.
//!
//! The three schemes publish protections the same way — `K` single-writer
//! multi-reader pointer slots per registered thread — and free by the same
//! rule: a retired node absent from a full snapshot of those slots is
//! unreachable. They differ only in the **fence** after a publication (classic
//! HP issues `SeqCst`, Cadence and QSense a compiler fence — left to the
//! caller of [`HpSlots::set`]) and in the **age gate** on the scan (none for
//! HP, `T + ε` for the deferred-reclamation pair).

use crate::clock::Nanos;
use crate::config::SmrConfig;
use crate::limbo::{HandleCore, Reclaim};
use crate::registry::Registry;
use crate::retired::RetiredPtr;
use crate::scratch::PtrScratch;
use crate::segbag::SegBag;
use std::sync::atomic::{AtomicPtr, Ordering};

/// Per-thread shared record: `K` single-writer multi-reader hazard-pointer slots.
pub struct HpSlots {
    slots: Box<[AtomicPtr<u8>]>,
}

impl HpSlots {
    /// Creates `k` null slots.
    pub fn new(k: usize) -> Self {
        Self {
            slots: (0..k)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
        }
    }

    /// Publishes `ptr` in slot `index` with a release store and **no fence**:
    /// the caller issues whatever its scheme needs before the validation load
    /// (HP: `fence(SeqCst)`; Cadence/QSense: a compiler fence, with hardware
    /// visibility bounded by the rooster).
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below `K`.
    #[inline]
    pub fn set(&self, index: usize, ptr: *mut u8) {
        assert!(
            index < self.slots.len(),
            "hazard-pointer index {index} out of range (K = {})",
            self.slots.len()
        );
        self.slots[index].store(ptr, Ordering::Release);
    }

    /// A snapshot buffer sized for the `N·K` worst case — every slot of every
    /// registered thread published — so scans never allocate.
    pub fn snapshot_scratch(config: &SmrConfig) -> PtrScratch {
        PtrScratch::with_capacity(config.max_threads * config.hp_per_thread)
    }

    /// Nulls every slot.
    pub fn clear_all(&self) {
        for slot in self.slots.iter() {
            slot.store(std::ptr::null_mut(), Ordering::Release);
        }
    }

    /// Appends every non-null slot to `out` (one record's share of
    /// [`Registry::collect_protected`]).
    pub fn collect_into(&self, out: &mut Vec<*mut u8>) {
        for slot in self.slots.iter() {
            let p = slot.load(Ordering::Acquire);
            if !p.is_null() {
                out.push(p);
            }
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
    /// `protected` must be a sorted, complete snapshot of the scheme's hazard
    /// pointers taken after every node in `bag` was retired. Without an age
    /// gate every publication must be fenced before its validation load
    /// (classic HP); with one, `min_age` must be at least the scheme's
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
            // retire contract) is unreachable by any thread. The snapshot is
            // taken *after* the node was retired, so any hazard pointer
            // published before the node became unreachable is visible to this
            // scan (the publisher's fence pairs with the acquire loads of the
            // snapshot).
            None => unsafe { self.free_walk(bag, |_| true, unprotected, |_| {}) },
            // SAFETY: (paper Property 1) a node that has been retired for at
            // least T + ε was unlinked before the most recent rooster wake-up,
            // so any hazard pointer that could protect it (published, per
            // Condition 1, while the node was still reachable, i.e. before it
            // was retired) is visible to this scan. If the snapshot does not
            // contain the node, no thread holds a hazardous reference to it
            // and freeing is safe.
            Some((now, min_age)) => unsafe {
                let aged = |node: &RetiredPtr| node.is_old_enough(now, min_age);
                self.free_walk(bag, aged, unprotected, |_| {})
            },
        }
    }
}

/// One whole-bag hazard-pointer scan, as HP and Cadence run it: count the
/// scan, snapshot every published pointer into the handle's scratch
/// (`get_protected_nodes`, Algorithm 3 / Michael's stage 1 — the buffer is
/// sized `N·K` at registration, so steady-state scans never allocate) and free
/// what the snapshot does not cover. `min_age` is Cadence's `T + ε` gate;
/// `None` is classic HP.
///
/// # Safety
///
/// The contract of [`Reclaim::free_unprotected`], for the scheme's publication
/// protocol and `min_age`; `registry` must be the one `bag`'s nodes were
/// protected through.
pub unsafe fn hp_scan(
    core: &mut HandleCore<PtrScratch>,
    registry: &Registry<HpSlots>,
    bag: &mut SegBag,
    min_age: Option<Nanos>,
) {
    core.stats().add_scan();
    // Read before the snapshot: an earlier `now` only makes nodes look younger.
    let age_gate = min_age.map(|age| (core.config().clock.now(), age));
    core.scan(|reclaim, scratch| {
        registry.collect_protected(scratch, HpSlots::collect_into);
        // SAFETY: forwarded from the caller's contract; the snapshot was taken
        // just above, after every retire into `bag`.
        unsafe { reclaim.free_unprotected(bag, scratch, age_gate) };
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_collect_round_trip() {
        let record = HpSlots::new(3);
        record.set(0, 0x10 as *mut u8);
        record.set(2, 0x30 as *mut u8);
        let mut out = Vec::new();
        record.collect_into(&mut out);
        assert_eq!(out, vec![0x10 as *mut u8, 0x30 as *mut u8]);
        record.clear_all();
        out.clear();
        record.collect_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_rejects_an_out_of_range_slot() {
        HpSlots::new(2).set(2, std::ptr::null_mut());
    }
}
