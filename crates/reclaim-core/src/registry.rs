//! Per-thread slot registry, sharded so scan cost tracks *active* threads.
//!
//! Every scheme in the paper keeps *per-process* shared records that other processes
//! scan: hazard-pointer arrays (HP, Cadence), local epochs (QSBR), the fallback
//! episode each thread last saw (QSense). The paper assumes a fixed set of `N`
//! processes with no dynamic membership (§5.2, last paragraph); this registry
//! implements exactly that model — a fixed-capacity set of slots — but lets
//! threads claim and release slots so that worker threads can come and go
//! between experiments, which the benchmarks need.
//!
//! The registry is generic over the per-thread record `T`. Records are constructed
//! once at registry creation and never moved, so scanners can hold references to them
//! while owners update their interiorly mutable fields (atomics).
//!
//! ## Sharding
//!
//! Slots are grouped into shards of [`SHARD_SLOTS`] (= 8). Each shard owns one
//! cache-padded control line holding a **claim bitmap** (bit `s` set ⇔ slot `s` of
//! the shard is claimed; its popcount is the shard's occupancy). The per-slot
//! record keeps its own padded line — that is the owner's single-writer
//! hot-path traffic. (The owner's statistics stripe lives in the scheme's
//! [`SchemeCore`](crate::limbo::SchemeCore), keyed by the slot index.)
//!
//! The shard layout buys two things the flat array could not provide:
//!
//! * **Vacancy tests are O(1) per 8 slots.** One bitmap load classifies a whole
//!   shard, and its bits name the claimed slots in it: every walk over the
//!   registry — a hazard-pointer snapshot, an epoch confirmation, QSense's
//!   episode check and evictor — is one [`iter_claimed`](Registry::iter_claimed),
//!   which steps over a wholly-vacant shard without touching any of its slot
//!   lines and reads only the claimed records of the others, so a walk's cost
//!   tracks *claimed slots and shards*, not registered capacity. The
//!   [`shard_skips`](crate::stats::StatsSnapshot::shard_skips) /
//!   [`shard_walks`](crate::stats::StatsSnapshot::shard_walks) counters make the
//!   skip behaviour observable: each walk is handed the walker's own
//!   [`StatStripe`], tallies locally and adds once when it ends, so the
//!   registry itself holds no counter and no line every scanner writes.
//! * **Registration does not contend on one array.** [`acquire`](Registry::acquire)
//!   deals a round-robin *home shard* to each registrant and CASes the lowest free
//!   bit of that shard's bitmap, spilling linearly to the next shard only when the
//!   home shard is full — concurrent registrants land on different cache lines
//!   instead of racing down one array of claim flags.
//!
//! ## Why skipping a vacant slot is safe
//!
//! A walker that acquire-loads a shard bitmap and finds slot `s`'s bit clear
//! has one of two cases. Either the bit was cleared by a
//! [`release`](Registry::release) the load synchronized with: schemes
//! neutralize a slot's record (clear hazard pointers, write `OFFLINE` to an
//! epoch word, drain or hand off limbo) *before* releasing, and the
//! release-ordered clear publishes that cleanup — so the record held neutral
//! values at the load, exactly the state whose inclusion a walk over every slot
//! would call conservative, and its *exclusion* is exact. Or the slot's claim
//! comes after the load: the new owner publishes anything only after its claim
//! CAS, so this is the race every scan has with a thread that starts later — a
//! protection published after a node was unlinked fails its re-validation
//! (Michael's step 4), and a registrant adopts the global epoch it reads after
//! its claim. Either way the walk misses no protection that re-validated and no
//! thread that has not yet seen the epoch it confirms. A wholly-vacant shard is
//! the same argument for its eight bits at once.

use crate::pad::CachePadded;
use crate::stats::{Counter, StatStripe};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Slots per shard: one `u64` bitmap word classifies this many slots in a single
/// load. Capacities that are not a multiple simply leave the tail bits of the last
/// shard permanently unset.
pub const SHARD_SLOTS: usize = 8;

/// The shard a slot index belongs to.
#[inline]
pub const fn shard_of(index: usize) -> usize {
    index / SHARD_SLOTS
}

/// Identifier of a claimed registry slot. The wrapped index is stable for the
/// lifetime of the claim and doubles as the "process id" in paper terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SlotId(usize);

impl SlotId {
    /// The slot's index in `0..capacity`.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Fixed-capacity, shard-striped registry of per-thread records (module docs).
pub struct Registry<T> {
    /// One padded claim bitmap per shard (bit `s` set ⇔ slot `s` of the shard
    /// is claimed), written only at (de)registration.
    shards: Box<[CachePadded<AtomicU64>]>,
    slots: Box<[CachePadded<T>]>,
    /// Round-robin home-shard seed: each `acquire` starts at a different shard.
    home_seed: CachePadded<AtomicUsize>,
}

/// One walk's shard dispatch, counted locally and added to the walker's stripe
/// once, when the walk ends (or is dropped half-way: `iter_claimed().all(..)`).
struct ShardTally<'a> {
    stripe: &'a StatStripe,
    skips: u64,
    walks: u64,
}

impl<'a> ShardTally<'a> {
    fn new(stripe: &'a StatStripe) -> Self {
        Self {
            stripe,
            skips: 0,
            walks: 0,
        }
    }

    /// Classifies one shard by the claim bitmap just loaded; true = walk it.
    fn walk(&mut self, claimed: u64) -> bool {
        if claimed == 0 {
            self.skips += 1;
        } else {
            self.walks += 1;
        }
        claimed != 0
    }
}

impl Drop for ShardTally<'_> {
    /// Adds what the walk counted, skipping a zero.
    #[inline]
    fn drop(&mut self) {
        for (c, n) in [
            (Counter::ShardSkips, self.skips),
            (Counter::ShardWalks, self.walks),
        ] {
            if n != 0 {
                self.stripe.add(c, n);
            }
        }
    }
}

impl<T> Registry<T> {
    /// Creates a registry with `capacity` slots, each initialized by `init(index)`.
    pub fn new(capacity: usize, mut init: impl FnMut(usize) -> T) -> Self {
        assert!(capacity > 0, "registry capacity must be positive");
        let shard_count = capacity.div_ceil(SHARD_SLOTS);
        let shards = (0..shard_count)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let slots = (0..capacity)
            .map(|i| CachePadded::new(init(i)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            shards,
            slots,
            home_seed: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Maximum number of simultaneously registered threads (`N` in the paper).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of shards ([`capacity`](Self::capacity) / [`SHARD_SLOTS`], rounded up).
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The usable-bit mask of shard `si` (the last shard of a non-multiple
    /// capacity has fewer than [`SHARD_SLOTS`] usable bits).
    #[inline]
    fn usable_mask(&self, si: usize) -> u64 {
        let used = (self.capacity() - si * SHARD_SLOTS).min(SHARD_SLOTS);
        if used == 64 {
            u64::MAX
        } else {
            (1 << used) - 1
        }
    }

    /// Number of currently claimed slots: one popcount per shard.
    pub fn claimed_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.load(Ordering::Acquire).count_ones() as usize)
            .sum()
    }

    /// Claims a free slot, returning its id, or `None` if all `N` slots are
    /// taken ([`SchemeCore::register`](crate::SchemeCore::register) turns that
    /// into the scheme's [`CapacityExhausted`](crate::CapacityExhausted)).
    ///
    /// Registration is dealt a round-robin **home shard** and CASes the lowest
    /// free bit of its bitmap, spilling to subsequent shards only on overflow —
    /// so concurrent registrants touch different control lines. The AcqRel claim
    /// CAS pairs with the release-ordered bitmap clear in
    /// [`release`](Self::release), making everything the previous owner wrote to
    /// the slot's record visible to the new owner.
    pub fn acquire(&self) -> Option<SlotId> {
        let shard_count = self.shards.len();
        let home = self.home_seed.fetch_add(1, Ordering::Relaxed) % shard_count;
        for probe in 0..shard_count {
            let si = (home + probe) % shard_count;
            if let Some(id) = self.acquire_in_shard(si) {
                return Some(id);
            }
        }
        None
    }

    /// Attempts to claim the lowest free usable bit of shard `si`.
    fn acquire_in_shard(&self, si: usize) -> Option<SlotId> {
        let claimed = &self.shards[si];
        let mask = self.usable_mask(si);
        let mut bits = claimed.load(Ordering::Relaxed);
        loop {
            let free = !bits & mask;
            if free == 0 {
                return None;
            }
            let bit = free.trailing_zeros() as usize;
            let claim = bits | (1 << bit);
            match claimed.compare_exchange(bits, claim, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return Some(SlotId(si * SHARD_SLOTS + bit)),
                Err(actual) => bits = actual,
            }
        }
    }

    /// Releases a previously claimed slot.
    ///
    /// The caller must have cleaned up the slot's record (cleared hazard pointers,
    /// drained limbo lists) before releasing; schemes do this in their handle `Drop`.
    /// The release-ordered bitmap clear publishes the record cleanup to any
    /// scanner that observes the shard as (partially) vacant, and to the slot's
    /// next owner.
    pub fn release(&self, id: SlotId) {
        let bit = id.0 % SHARD_SLOTS;
        let was = self.shards[shard_of(id.0)].fetch_and(!(1u64 << bit), Ordering::Release);
        debug_assert!(
            was & (1 << bit) != 0,
            "releasing a slot that was not claimed"
        );
    }

    /// Returns the record stored in slot `index` regardless of claim state
    /// (tests and diagnostics: walks read claimed records through
    /// [`iter_claimed`](Self::iter_claimed)).
    pub fn get(&self, index: usize) -> &T {
        &self.slots[index]
    }

    /// Returns the record for a claimed slot id (same as [`get`](Self::get), but takes
    /// the typed id the owner holds).
    pub fn get_mine(&self, id: SlotId) -> &T {
        &self.slots[id.0]
    }

    /// Iterates over `(index, record)` for currently claimed slots only, stepping
    /// over wholly-vacant shards on one bitmap load each (counted on `tally`,
    /// in [`shard_skips`](crate::stats::StatsSnapshot::shard_skips) /
    /// [`shard_walks`](crate::stats::StatsSnapshot::shard_walks), when the
    /// iterator is dropped).
    ///
    /// A slot may be claimed or released while the walk is in progress: a
    /// scheme neutralizes a record before releasing its slot, so that missing
    /// it is safe (module docs, "Why skipping a vacant slot is safe").
    pub fn iter_claimed<'a>(
        &'a self,
        tally: &'a StatStripe,
    ) -> impl Iterator<Item = (usize, &'a T)> + 'a {
        let mut tally = ShardTally::new(tally);
        self.shards.iter().enumerate().flat_map(move |(si, shard)| {
            let bits = shard.load(Ordering::Acquire);
            tally.walk(bits);
            let base = si * SHARD_SLOTS;
            (0..SHARD_SLOTS)
                .filter(move |&bit| bits & (1 << bit) != 0)
                .map(move |bit| {
                    let i = base + bit;
                    (i, &*self.slots[i])
                })
        })
    }
}

impl<T> fmt::Debug for Registry<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("capacity", &self.capacity())
            .field("shards", &self.shard_count())
            .field("claimed", &self.claimed_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn acquire_release_round_trip() {
        let reg: Registry<AtomicUsize> = Registry::new(2, |_| AtomicUsize::new(0));
        assert_eq!(reg.capacity(), 2);
        assert_eq!(reg.shard_count(), 1);
        let a = reg.acquire().unwrap();
        let b = reg.acquire().unwrap();
        assert_ne!(a, b);
        assert!(reg.acquire().is_none(), "registry should be full");
        assert_eq!(reg.claimed_count(), 2);
        reg.release(a);
        assert_eq!(reg.claimed_count(), 1);
        let c = reg.acquire().unwrap();
        assert_eq!(
            c.index(),
            a.index(),
            "within one shard the lowest free bit reuses the released slot"
        );
        reg.release(b);
        reg.release(c);
        assert_eq!(reg.claimed_count(), 0);
    }

    #[test]
    fn records_are_initialized_per_index() {
        let reg: Registry<usize> = Registry::new(4, |i| i * 10);
        for (i, v) in (0..reg.capacity()).map(|i| (i, reg.get(i))) {
            assert_eq!(*v, i * 10);
        }
    }

    #[test]
    fn iter_claimed_sees_only_claimed_slots() {
        let reg: Registry<AtomicUsize> = Registry::new(3, |_| AtomicUsize::new(0));
        let a = reg.acquire().unwrap();
        reg.get_mine(a).store(7, Ordering::Relaxed);
        let tally = StatStripe::new();
        let claimed: Vec<_> = reg.iter_claimed(&tally).map(|(i, _)| i).collect();
        assert_eq!(claimed, vec![a.index()]);
        assert_eq!(reg.get(a.index()).load(Ordering::Relaxed), 7);
        reg.release(a);
        assert_eq!(reg.iter_claimed(&tally).count(), 0);
        let tally = tally.snapshot();
        assert_eq!((tally.shard_walks, tally.shard_skips), (1, 1));
    }

    #[test]
    fn concurrent_acquisition_hands_out_distinct_slots() {
        let reg: Arc<Registry<AtomicUsize>> = Arc::new(Registry::new(8, |_| AtomicUsize::new(0)));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let reg = Arc::clone(&reg);
                thread::spawn(move || {
                    let id = reg.acquire().expect("capacity is exactly the thread count");
                    id.index()
                })
            })
            .collect();
        let mut indices: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        indices.sort_unstable();
        indices.dedup();
        assert_eq!(indices.len(), 8, "every thread must get a distinct slot");
    }

    #[test]
    fn concurrent_acquisition_fills_a_multi_shard_registry_exactly() {
        // 20 slots = 2 full shards + a 4-slot tail shard; 20 threads racing with
        // round-robin homes and spill must each get a distinct in-range slot.
        const CAP: usize = 20;
        let reg: Arc<Registry<AtomicUsize>> = Arc::new(Registry::new(CAP, |_| AtomicUsize::new(0)));
        let handles: Vec<_> = (0..CAP)
            .map(|_| {
                let reg = Arc::clone(&reg);
                thread::spawn(move || reg.acquire().expect("capacity matches threads").index())
            })
            .collect();
        let mut indices: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        indices.sort_unstable();
        indices.dedup();
        assert_eq!(indices.len(), CAP);
        assert!(
            indices.iter().all(|&i| i < CAP),
            "tail-shard bits beyond capacity stay unused"
        );
        assert!(reg.acquire().is_none(), "registry is exactly full");
    }

    #[test]
    fn round_robin_homes_spread_registrants_across_shards() {
        let reg: Registry<usize> = Registry::new(64, |_| 0);
        assert_eq!(reg.shard_count(), 8);
        let ids: Vec<_> = (0..8).map(|_| reg.acquire().unwrap()).collect();
        let mut shards: Vec<_> = ids.iter().map(|id| shard_of(id.index())).collect();
        shards.sort_unstable();
        shards.dedup();
        assert_eq!(
            shards.len(),
            8,
            "8 sequential registrations land in 8 distinct home shards"
        );
    }

    #[test]
    fn walks_skip_wholly_vacant_shards_and_vacant_slots() {
        let reg: Registry<AtomicUsize> = Registry::new(256, |_| AtomicUsize::new(0));
        assert_eq!(reg.shard_count(), 32);
        // Two registrants: at most two active shards, and two records read.
        let a = reg.acquire().unwrap();
        let b = reg.acquire().unwrap();
        let tally = StatStripe::new();
        let walked: Vec<_> = reg.iter_claimed(&tally).map(|(i, _)| i).collect();
        assert_eq!(walked, [a.index().min(b.index()), a.index().max(b.index())]);
        let scan = tally.snapshot();
        let (skips, walks) = (scan.shard_skips, scan.shard_walks);
        assert_eq!(walks + skips, 32, "every shard classified exactly once");
        assert!(
            walks <= 2,
            "the walk visits only the active shards, got {walks}"
        );
        reg.release(a);
        reg.release(b);
        // All vacant now: a walk touches no slot lines at all.
        assert_eq!(reg.iter_claimed(&tally).count(), 0);
        assert_eq!(tally.snapshot().shard_walks, walks);
        assert_eq!(tally.snapshot().shard_skips, skips + 32);
    }

    #[test]
    fn each_walk_lands_its_shard_tally_on_the_stripe_it_was_handed() {
        let reg: Registry<AtomicUsize> = Registry::new(32, |_| AtomicUsize::new(0));
        let a = reg.acquire().unwrap();
        let (mine, theirs) = (StatStripe::new(), StatStripe::new());
        // Two handles' walks: each stripe holds its own walk's four shards and
        // nothing of the other's.
        assert_eq!(reg.iter_claimed(&mine).count(), 1);
        let dispatch = |s: &StatStripe| (s.snapshot().shard_skips, s.snapshot().shard_walks);
        assert_eq!((dispatch(&mine), dispatch(&theirs)), ((3, 1), (0, 0)));
        assert_eq!(reg.iter_claimed(&theirs).count(), 1);
        assert_eq!(reg.iter_claimed(&theirs).count(), 1);
        assert_eq!((dispatch(&mine), dispatch(&theirs)), ((3, 1), (6, 2)));
        // A walk abandoned half-way (the first registrant's home is shard 0)
        // reports the shards it got to classify, and only those.
        let stopped = StatStripe::new();
        assert!(reg.iter_claimed(&stopped).any(|(i, _)| i == a.index()));
        assert_eq!(dispatch(&stopped), (0, 1));
        reg.release(a);
    }

    #[test]
    fn a_released_slot_leaves_its_shard_walked_but_its_record_unread() {
        let reg: Registry<AtomicUsize> = Registry::new(8, |_| AtomicUsize::new(0));
        let (a, b) = (reg.acquire().unwrap(), reg.acquire().unwrap());
        reg.release(a);
        let tally = StatStripe::new();
        let walked: Vec<_> = reg.iter_claimed(&tally).map(|(i, _)| i).collect();
        assert_eq!(walked, [b.index()], "one shard, one claim bit, one record");
        assert_eq!(tally.snapshot().shard_walks, 1);
        reg.release(b);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: Registry<u8> = Registry::new(0, |_| 0);
    }
}
