//! Epoch machinery: the global epoch counter ([`GlobalEpoch`], shared by QSBR,
//! QSense's fast path and EBR) and the per-thread epoch records.
//!
//! Epochs are monotonically increasing `u64` values; the paper's "three logical
//! epochs" correspond to the epoch value modulo [`EPOCH_BUCKETS`] (= 3), which is also
//! the index of the limbo list a retired node goes into.
//!
//! ## Memory ordering
//!
//! All epoch traffic uses acquire/release, not `SeqCst`. The safety argument (the
//! paper's Lemma 3) only needs a happens-before chain, which acquire/release
//! provides:
//!
//! 1. a thread adopting epoch `e` **release-swaps** it into its [`EpochRecord`]
//!    at a quiescent point, so everything it did before (all its accesses to
//!    shared nodes) is ordered before the write;
//! 2. the advancer **acquire-loads** every claimed record while confirming `e`
//!    ([`confirmed`](crate::confirmed): one walk over the claimed slots), so every
//!    thread's pre-adoption accesses happen-before the advance;
//! 3. the advance itself is an **AcqRel** compare-exchange on [`GlobalEpoch`], and
//!    any thread that later acquire-loads the advanced value inherits the whole
//!    chain — by the time it observes epoch `e + 2` and frees a limbo bucket, every
//!    registered thread's accesses from epoch `e` happen-before the frees.
//!
//! The walk is not atomic, and need not be: a record read at `e` can leave `e`
//! only by adopting a newer global epoch, which no thread can publish before
//! this advance (a concurrent advance makes this one's CAS fail); a slot read
//! vacant or [`OFFLINE`] that gets claimed mid-walk registers at the global
//! epoch its owner reads then, `e` while the walk can still succeed; one read
//! [`EVICTED`] is out of the count by design ([`EpochRecord`]).
//!
//! No decision here ever needs a *total* order across unrelated variables, which is
//! the only thing `SeqCst` would add.

use reclaim_core::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of limbo lists per thread (and of logical epochs), as in the paper.
pub const EPOCH_BUCKETS: usize = 3;

/// Maps an epoch value to its limbo-list index.
#[inline]
pub fn limbo_index(epoch: u64) -> usize {
    (epoch % EPOCH_BUCKETS as u64) as usize
}

/// The shared global epoch (`e_G` in the paper).
#[derive(Debug, Default)]
pub struct GlobalEpoch {
    value: CachePadded<AtomicU64>,
}

impl GlobalEpoch {
    /// Creates a global epoch starting at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the current global epoch. The acquire pairs with the release half of
    /// [`try_advance`](Self::try_advance): observing epoch `e` implies observing
    /// every record confirmation that justified advancing to `e` (see module docs).
    #[inline]
    pub fn load(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }

    /// Attempts to advance the global epoch from `expected` to `expected + 1`.
    /// Failure means another thread advanced it concurrently, which is fine — the
    /// caller's goal (make the epoch move) has been accomplished either way.
    pub fn try_advance(&self, expected: u64) -> bool {
        self.value
            .compare_exchange(expected, expected + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// An [`EpochRecord`] whose thread an evictor took out of grace periods (QSense).
pub const EVICTED: u64 = u64::MAX;
/// An [`EpochRecord`] no thread uses: its initial state, and a leaving owner's.
pub const OFFLINE: u64 = u64::MAX - 1;

/// Per-thread epoch record (`e_p` in the paper), scanned by other threads when they
/// try to advance the global epoch. Its word holds an epoch, written only by the
/// owner ([`adopt`](Self::adopt), [`publish`](Self::publish)); [`EVICTED`], written
/// only by an evictor over an epoch ([`evict`](Self::evict)), so never on a vacant
/// slot; or [`OFFLINE`]. Grace periods count a thread in either sentinel as confirmed.
///
/// **The eviction counter** of a scheme that evicts is at least the number of
/// words reading [`EVICTED`]: the evictor increments it before its CAS (and takes
/// that back if the CAS fails), and each owner write that replaced [`EVICTED`]
/// decrements it — registration, adoption (an evictor whose staleness check came
/// before the owner's refresh can CAS between the owner's lift and its adoption),
/// the lift ([`EpochLimbo::lift`](crate::EpochLimbo::lift): back to the local
/// epoch) and leaving. A stale CAS can land on a successor registered at the same
/// epoch (ABA): evicting a live thread is safe — the owner lifts it at its next
/// operation boundary, and QSense frees by hazard pointers what it left ungraced.
#[derive(Debug)]
pub struct EpochRecord(AtomicU64);

impl Default for EpochRecord {
    /// An [`OFFLINE`] record.
    fn default() -> Self {
        Self(AtomicU64::new(OFFLINE))
    }
}

impl EpochRecord {
    /// Reads the word (acquire: pairs with the owner's release, making the
    /// owner's pre-quiescence accesses visible to the advancer).
    #[inline]
    pub fn load(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// The thread's epoch, or `None` while it is [`EVICTED`] or [`OFFLINE`].
    #[inline]
    pub fn epoch(&self) -> Option<u64> {
        Some(self.load()).filter(|&word| word < OFFLINE)
    }

    /// The owner's write of an epoch or [`OFFLINE`]: true if it replaced
    /// [`EVICTED`]. Release orders the owner's accesses before it (module docs);
    /// acquire, the evictor's increment before the owner's decrement.
    #[inline]
    pub fn adopt(&self, state: u64) -> bool {
        debug_assert_ne!(state, EVICTED, "only an evictor writes EVICTED");
        self.0.swap(state, Ordering::AcqRel) == EVICTED
    }

    /// The owner's write where no evictor writes: EBR's pin (the epoch it
    /// observed, then its strategy's publication fence) and unpin ([`OFFLINE`]).
    /// EBR's three-epoch wait rests on three orderings:
    /// * **pin-before-tag** — the pin's fence keeps the next load, the tag,
    ///   after this store: an advance whose walk misses the pin fenced before
    ///   the tag load, which so reads that advance's epoch or a newer one;
    /// * **accesses-before-unpin** — this `Release`: a walk (`Acquire`) that
    ///   reads the unpin orders the operation's accesses before its CAS;
    /// * **walk-before-epoch** — the CAS's `Release` and [`GlobalEpoch::load`]'s
    ///   `Acquire`: reading `e` shows every unpin the advance to `e` relied on.
    #[inline]
    pub fn publish(&self, state: u64) {
        debug_assert_ne!(state, EVICTED, "only an evictor writes EVICTED");
        self.0.store(state, Ordering::Release);
    }

    /// The evictor's write: [`EVICTED`] over the epoch `seen`, if the word
    /// still holds it.
    pub fn evict(&self, seen: u64) -> bool {
        debug_assert!(seen < OFFLINE, "an evictor only replaces an epoch");
        self.0
            .compare_exchange(seen, EVICTED, Ordering::Release, Ordering::Relaxed)
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confirmed;
    use reclaim_core::{Registry, StatStripe};

    #[test]
    fn limbo_index_cycles_mod_3() {
        assert_eq!(limbo_index(0), 0);
        assert_eq!(limbo_index(1), 1);
        assert_eq!(limbo_index(2), 2);
        assert_eq!(limbo_index(3), 0);
        assert_eq!(limbo_index(u64::MAX), (u64::MAX % 3) as usize);
    }

    #[test]
    fn global_epoch_advances_only_from_expected_value() {
        let g = GlobalEpoch::new();
        assert_eq!(g.load(), 0);
        assert!(g.try_advance(0));
        assert_eq!(g.load(), 1);
        assert!(!g.try_advance(0), "stale expected value must fail");
        assert!(g.try_advance(1));
        assert_eq!(g.load(), 2);
    }

    #[test]
    fn epoch_record_moves_between_its_three_states() {
        let r = EpochRecord::default();
        assert_eq!(
            (r.load(), r.epoch()),
            (OFFLINE, None),
            "records start offline"
        );
        assert!(!r.evict(7), "an evictor cannot land on an offline word");
        assert!(!r.adopt(7));
        assert_eq!(r.epoch(), Some(7));
        assert!(!r.evict(6), "nor on an epoch it did not see");
        assert!(r.evict(7));
        assert_eq!((r.load(), r.epoch()), (EVICTED, None));
        assert!(r.adopt(8), "an adoption over EVICTED reports it");
        assert!(r.evict(8));
        assert!(r.adopt(OFFLINE), "and so does leaving");
        assert_eq!(r.load(), OFFLINE);
    }

    /// A one-slot registry, claimed, and whether it confirms an epoch.
    fn one_claimed_record(check: impl Fn(&EpochRecord, &dyn Fn(u64) -> bool)) {
        let (registry, stats) = (
            Registry::new(1, |_| EpochRecord::default()),
            StatStripe::new(),
        );
        let slot = registry.acquire().expect("one free slot");
        let confirms = |epoch| confirmed(&registry, &stats, |r| r, epoch);
        check(registry.get_mine(slot), &confirms);
    }

    #[test]
    fn a_published_epoch_zero_is_not_offline() {
        one_claimed_record(|r, confirms| {
            r.publish(0);
            assert_eq!(r.epoch(), Some(0));
            assert!(confirms(0));
            assert!(!confirms(1), "a pin at epoch 0 blocks the advance from 1");
        });
    }

    #[test]
    fn an_offline_record_never_blocks_and_a_republish_moves_the_epoch() {
        one_claimed_record(|r, confirms| {
            assert!(confirms(0) && confirms(17), "records start offline");
            r.publish(4);
            assert!(confirms(4) && !confirms(5), "an older epoch blocks");
            r.publish(OFFLINE);
            assert_eq!(r.epoch(), None);
            assert!(confirms(5));
            r.publish(3);
            assert_eq!(r.epoch(), Some(3));
            assert!(confirms(3) && !confirms(4));
        });
    }

    #[test]
    fn concurrent_advance_moves_epoch_exactly_once_per_value() {
        use std::sync::Arc;
        use std::thread;
        let g = Arc::new(GlobalEpoch::new());
        let winners: usize = (0..4)
            .map(|_| {
                let g = Arc::clone(&g);
                thread::spawn(move || usize::from(g.try_advance(0)))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum();
        assert_eq!(winners, 1, "exactly one advance from 0 to 1 may succeed");
        assert_eq!(g.load(), 1);
    }
}
