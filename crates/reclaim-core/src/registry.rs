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
//!   shard; a scan ([`collect_protected`](Registry::collect_protected),
//!   [`iter_claimed`](Registry::iter_claimed)) or a cursor walk
//!   ([`skip_vacant_shards`](Registry::skip_vacant_shards)) steps over a
//!   wholly-vacant shard without touching any of its slot lines, so scan cost
//!   tracks *active shards*, not registered capacity. The
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
//! ## Why skipping vacant shards is safe
//!
//! A scanner that acquire-loads a shard bitmap as zero has synchronized with every
//! release that cleared a bit in it: schemes neutralize a slot's record (clear
//! hazard pointers, drain or hand off limbo) *before* calling
//! [`release`](Registry::release), whose release-ordered bitmap clear publishes
//! that cleanup. So "shard vacant at the bitmap load" implies "every record in it
//! holds neutral values at that moment" — exactly the state whose inclusion the
//! flat scan called conservative, so its *exclusion* is exact. A claim that lands
//! after the bitmap load is the same race the per-slot scan always had: the new
//! owner publishes protections only after the claim CAS, and a protection
//! published after a node was unlinked fails its re-validation (Michael's step 4),
//! so missing it never frees a node that re-validated successfully.

use crate::pad::CachePadded;
use crate::stats::StatStripe;
use std::error::Error;
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

/// Error returned by [`Registry::try_acquire`] when every usable slot is claimed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegistryFull {
    /// The registry's fixed capacity (`N`, the scheme's `max_threads`).
    pub capacity: usize,
}

impl fmt::Display for RegistryFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "all {} registry slots are claimed; raise SmrConfig::max_threads or \
             lease existing handles instead of registering new ones",
            self.capacity
        )
    }
}

impl Error for RegistryFull {}

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
    fn drop(&mut self) {
        self.stripe.add_shard_dispatch(self.skips, self.walks);
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
    pub fn shard_count(&self) -> usize {
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

    /// Claims a free slot, returning its id, or `None` if all `N` slots are taken.
    /// (See [`try_acquire`](Self::try_acquire) for the error-carrying variant.)
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

    /// Like [`acquire`](Self::acquire), but reports exhaustion as a descriptive
    /// [`RegistryFull`] error carrying the configured capacity.
    pub fn try_acquire(&self) -> Result<SlotId, RegistryFull> {
        self.acquire().ok_or(RegistryFull {
            capacity: self.capacity(),
        })
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

    /// Whether the given slot index is currently claimed.
    pub fn is_claimed(&self, index: usize) -> bool {
        let bits = self.shards[shard_of(index)].load(Ordering::Acquire);
        bits & (1 << (index % SHARD_SLOTS)) != 0
    }

    /// Returns the record stored in slot `index` regardless of claim state.
    ///
    /// Scanners use this to read hazard pointers / epochs of *all* slots; records of
    /// unclaimed slots hold neutral values (null hazard pointers, quiesced epochs), so
    /// including them is always conservative.
    pub fn get(&self, index: usize) -> &T {
        &self.slots[index]
    }

    /// Returns the record for a claimed slot id (same as [`get`](Self::get), but takes
    /// the typed id the owner holds).
    pub fn get_mine(&self, id: SlotId) -> &T {
        &self.slots[id.0]
    }

    /// Snapshots per-record pointer sets into `out` (cleared first), sorted and
    /// deduplicated for binary search — the shared `get_protected_nodes` step of
    /// every scanning scheme (HP, Cadence, QSense). `collect` appends one
    /// record's published pointers to the buffer.
    ///
    /// Wholly-vacant shards are stepped over on a single bitmap load (and
    /// counted, on `tally`, in
    /// [`shard_skips`](crate::stats::StatsSnapshot::shard_skips)); within an
    /// active shard every slot is visited, claimed or not — unclaimed records
    /// hold null pointers,
    /// so including them is conservative, and the module docs give the argument
    /// for why excluding vacant *shards* is exact. Allocation-free whenever
    /// `out` already has capacity for the `N·K` worst case.
    pub fn collect_protected(
        &self,
        tally: &StatStripe,
        out: &mut Vec<*mut u8>,
        mut collect: impl FnMut(&T, &mut Vec<*mut u8>),
    ) {
        out.clear();
        let mut tally = ShardTally::new(tally);
        for (si, shard) in self.shards.iter().enumerate() {
            if !tally.walk(shard.load(Ordering::Acquire)) {
                continue;
            }
            let base = si * SHARD_SLOTS;
            let end = (base + SHARD_SLOTS).min(self.slots.len());
            for slot in &self.slots[base..end] {
                collect(slot, out);
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// If slot `index`'s shard is wholly vacant, returns the first index of the
    /// next non-vacant shard (or `capacity` if none) — the jump target that lets
    /// cursor walks (`qsbr::EpochDomain`'s confirmation) step over
    /// vacant shards in O(#shards) instead of O(capacity). Returns `index`
    /// unchanged when its shard has any claimed slot. Skipped shards are counted
    /// on `tally`, in [`shard_skips`](crate::stats::StatsSnapshot::shard_skips).
    pub fn skip_vacant_shards(&self, tally: &StatStripe, index: usize) -> usize {
        let mut si = shard_of(index);
        let mut skipped = 0u64;
        while si < self.shards.len() {
            if self.shards[si].load(Ordering::Acquire) != 0 {
                break;
            }
            skipped += 1;
            si += 1;
        }
        if skipped == 0 {
            return index;
        }
        tally.add_shard_dispatch(skipped, 0);
        (si * SHARD_SLOTS).min(self.capacity())
    }

    /// Iterates over `(index, record)` for currently claimed slots only, stepping
    /// over wholly-vacant shards on one bitmap load each (counted on `tally`,
    /// in [`shard_skips`](crate::stats::StatsSnapshot::shard_skips) /
    /// [`shard_walks`](crate::stats::StatsSnapshot::shard_walks), when the
    /// iterator is dropped).
    ///
    /// Note the inherent race: a slot may be claimed or released while the iteration
    /// is in progress. Schemes must therefore make sure that *releasing* a slot leaves
    /// its record in a state that is safe to miss (e.g. hazard pointers cleared only
    /// after the owner's retired nodes have been handed off or reclaimed).
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
        assert_eq!(
            reg.try_acquire().unwrap_err(),
            RegistryFull { capacity: 2 },
            "try_acquire names the exhausted capacity"
        );
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
        assert!(reg.is_claimed(a.index()));
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
    fn scans_skip_wholly_vacant_shards() {
        let reg: Registry<AtomicUsize> = Registry::new(256, |_| AtomicUsize::new(0));
        assert_eq!(reg.shard_count(), 32);
        // Two registrants: at most two active shards.
        let a = reg.acquire().unwrap();
        let b = reg.acquire().unwrap();
        let (tally, mut out) = (StatStripe::new(), Vec::new());
        reg.collect_protected(&tally, &mut out, |_, _| {});
        let scan = tally.snapshot();
        let (skips, walks) = (scan.shard_skips, scan.shard_walks);
        assert_eq!(walks + skips, 32, "every shard classified exactly once");
        assert!(walks <= 2, "scan walks only the active shards, got {walks}");
        assert!(
            skips >= 30,
            "vacant shards are skipped in O(1), got {skips}"
        );
        reg.release(a);
        reg.release(b);
        // All vacant now: a scan touches no slot lines at all.
        reg.collect_protected(&tally, &mut out, |_, _| panic!("no shard should be walked"));
        assert_eq!(tally.snapshot().shard_walks, walks);
        assert_eq!(tally.snapshot().shard_skips, skips + 32);
    }

    #[test]
    fn each_walk_lands_its_shard_tally_on_the_stripe_it_was_handed() {
        let reg: Registry<AtomicUsize> = Registry::new(32, |_| AtomicUsize::new(0));
        let a = reg.acquire().unwrap();
        let (mine, theirs, mut out) = (StatStripe::new(), StatStripe::new(), Vec::new());
        // Two handles' scans: each stripe holds its own scan's four shards and
        // nothing of the other's.
        reg.collect_protected(&mine, &mut out, |_, _| {});
        let dispatch = |s: &StatStripe| (s.snapshot().shard_skips, s.snapshot().shard_walks);
        assert_eq!((dispatch(&mine), dispatch(&theirs)), ((3, 1), (0, 0)));
        reg.collect_protected(&theirs, &mut out, |_, _| {});
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
    fn skip_vacant_shards_jumps_to_the_next_active_shard() {
        let reg: Registry<AtomicUsize> = Registry::new(64, |_| AtomicUsize::new(0));
        // Occupy only shard 5 (slots 40..48): deal homes until one lands there.
        let id = loop {
            let id = reg.acquire().unwrap();
            if shard_of(id.index()) == 5 {
                break id;
            }
            reg.release(id);
        };
        let tally = StatStripe::new();
        assert_eq!(
            reg.skip_vacant_shards(&tally, 0),
            40,
            "jumps over shards 0..5"
        );
        assert_eq!(
            reg.skip_vacant_shards(&tally, 41),
            41,
            "active shard: no jump"
        );
        assert_eq!(
            reg.skip_vacant_shards(&tally, 48),
            64,
            "nothing after shard 5: jump to capacity"
        );
        assert_eq!(tally.snapshot().shard_skips, 5 + 2);
        reg.release(id);
        assert_eq!(
            reg.skip_vacant_shards(&tally, 0),
            64,
            "empty registry: one jump to the end"
        );
        assert_eq!(tally.snapshot().shard_skips, 7 + 8);
        assert_eq!(tally.snapshot().shard_walks, 0, "a jump walks nothing");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: Registry<u8> = Registry::new(0, |_| 0);
    }
}
