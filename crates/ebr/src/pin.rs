//! Per-thread pin records.
//!
//! Epoch-based reclamation differs from QSBR in *when* a thread is considered safe
//! to ignore: QSBR waits for every registered thread to pass through an explicit
//! quiescent state, whereas EBR tracks whether a thread is currently *inside* an
//! operation (pinned). A thread that is registered but idle (not pinned) never blocks
//! the epoch from advancing. The cost is two shared stores per operation (the pin
//! and the unpin) that QSBR's batched quiescence avoids — exactly the trade-off the
//! paper's related-work section ([13, 14]) attributes to epoch-based techniques.
//! Who pays for the *fence* behind the pin is the scheme's
//! [`FenceStrategy`], as for a hazard pointer.

use reclaim_core::{CachePadded, FenceStrategy};
use std::sync::atomic::{AtomicU64, Ordering};

/// Low bit of the record word: set while the owner is pinned.
const PINNED: u64 = 1;

/// Per-thread shared record read by threads attempting to advance the global
/// epoch: `0` while the owner is outside an operation, `epoch << 1 | 1` while it
/// is pinned at `epoch`. One word on one line, so an advancer reads activity
/// and epoch in a single load that cannot tear between two pins.
#[derive(Debug, Default)]
pub struct PinRecord {
    word: CachePadded<AtomicU64>,
}

impl PinRecord {
    /// Creates an unpinned record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the owner as pinned at `epoch` and issues the reader's half of
    /// `strategy`: what follows in program order is the owner's first load of
    /// the operation (the tag load of `EbrHandle::pin_at`).
    ///
    /// * The store is `Relaxed`: it publishes no other data. An advancer that
    ///   reads it learns only that an operation is in flight at `epoch`.
    /// * The fence carries the **pin-before-tag** invariant — an advance whose
    ///   record walk misses this store started its walk before the owner's
    ///   next load. Reader-fenced it is a `SeqCst` fence, ordered against the
    ///   `SeqCst` fence the advancer issues between its epoch load and its
    ///   walk. Scanner-barrier it is a compiler fence, and the hardware half
    ///   is the advancer's `membarrier`: a store that barrier did not drain
    ///   was issued after it, and so was every later load of this thread.
    #[inline]
    pub fn pin(&self, epoch: u64, strategy: FenceStrategy) {
        self.word.store(epoch << 1 | PINNED, Ordering::Relaxed);
        strategy.publication_fence();
    }

    /// Marks the owner as no longer pinned. `Release` carries the
    /// **accesses-before-unpin** invariant: an advancer whose (`Acquire`) walk
    /// reads this store, or any later one, has every access of the operation
    /// it ended happen-before its epoch CAS — and so before any free that CAS
    /// justifies.
    #[inline]
    pub fn unpin(&self) {
        self.word.store(0, Ordering::Release);
    }

    /// The epoch the owner is pinned at, if it is: one `Acquire` load (the
    /// other end of [`unpin`](Self::unpin)'s `Release`).
    #[inline]
    pub fn pinned_epoch(&self) -> Option<u64> {
        let word = self.word.load(Ordering::Acquire);
        (word & PINNED != 0).then_some(word >> 1)
    }

    /// True if this record does not prevent the global epoch from advancing past
    /// `global`: either the owner is not pinned at all, or it has already observed
    /// `global`.
    #[inline]
    pub fn permits_advance_from(&self, global: u64) -> bool {
        self.pinned_epoch().is_none_or(|epoch| epoch == global)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both reader halves: the record's contents do not depend on the fence.
    const STRATEGIES: [FenceStrategy; 2] =
        [FenceStrategy::ReaderFenced, FenceStrategy::ScannerBarrier];

    #[test]
    fn starts_unpinned() {
        let r = PinRecord::new();
        assert_eq!(r.pinned_epoch(), None);
        assert!(r.permits_advance_from(0));
        assert!(
            r.permits_advance_from(17),
            "an unpinned thread never blocks"
        );
    }

    #[test]
    fn pin_publishes_epoch_and_activity_in_one_word() {
        for strategy in STRATEGIES {
            let r = PinRecord::new();
            r.pin(4, strategy);
            assert_eq!(r.pinned_epoch(), Some(4));
            assert!(r.permits_advance_from(4));
            assert!(
                !r.permits_advance_from(5),
                "a pinned thread at an older epoch blocks"
            );
            r.unpin();
            assert_eq!(r.pinned_epoch(), None);
            assert!(r.permits_advance_from(5));
        }
    }

    #[test]
    fn a_pin_at_epoch_zero_is_not_an_unpinned_record() {
        let r = PinRecord::new();
        r.pin(0, FenceStrategy::ReaderFenced);
        assert_eq!(r.pinned_epoch(), Some(0));
        assert!(!r.permits_advance_from(1));
    }

    #[test]
    fn the_epoch_round_trips_through_the_shift() {
        let r = PinRecord::new();
        for epoch in [1, 2, 3, u64::from(u32::MAX) + 1, (1 << 63) - 1] {
            r.pin(epoch, FenceStrategy::ScannerBarrier);
            assert_eq!(r.pinned_epoch(), Some(epoch));
            assert!(r.permits_advance_from(epoch));
            assert!(!r.permits_advance_from(epoch - 1));
        }
    }

    #[test]
    fn repinning_adopts_the_new_epoch() {
        let r = PinRecord::new();
        r.pin(1, FenceStrategy::ReaderFenced);
        r.unpin();
        r.pin(3, FenceStrategy::ReaderFenced);
        assert_eq!(r.pinned_epoch(), Some(3));
        assert!(r.permits_advance_from(3));
    }
}
