//! Epoch machinery: the global epoch counter, per-thread epoch records, and the
//! amortized-O(1) epoch-confirmation cursor — together, the [`EpochDomain`].
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
//! 1. a thread adopting epoch `e` **release-stores** its [`EpochRecord`] at a
//!    quiescent point, so everything it did before (all its accesses to shared
//!    nodes) is ordered before the store;
//! 2. the advancer **acquire-loads** every record while confirming `e`, so every
//!    thread's pre-adoption accesses happen-before the advance;
//! 3. the advance itself is an **AcqRel** compare-exchange on [`GlobalEpoch`], and
//!    any thread that later acquire-loads the advanced value inherits the whole
//!    chain — by the time it observes epoch `e + 2` and frees a limbo bucket, every
//!    registered thread's accesses from epoch `e` happen-before the frees.
//!
//! No decision here ever needs a *total* order across unrelated variables, which is
//! the only thing `SeqCst` would add.

use reclaim_core::{CachePadded, Registry, StatStripe};
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

/// Per-thread epoch record (`e_p` in the paper), scanned by other threads when they
/// try to advance the global epoch.
#[derive(Debug, Default)]
pub struct EpochRecord {
    local: AtomicU64,
}

impl EpochRecord {
    /// Creates a record at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads this thread's local epoch (acquire: pairs with the owner's release
    /// store, making the owner's pre-quiescence accesses visible to the advancer).
    #[inline]
    pub fn load(&self) -> u64 {
        self.local.load(Ordering::Acquire)
    }

    /// Adopts a (new) local epoch. Release suffices: the store is the owner's
    /// quiescent point, and release orders every preceding access to shared nodes
    /// before it — exactly the edge the grace-period argument needs (module docs).
    /// Nothing in the protocol compares this store against *other* threads'
    /// unrelated stores, so no total (`SeqCst`) order is required.
    #[inline]
    pub fn store(&self, epoch: u64) {
        self.local.store(epoch, Ordering::Release);
    }
}

/// Outcome of checking one registry slot during an epoch-confirmation pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CursorCheck {
    /// The slot is unclaimed — it cannot block the epoch and costs nothing to skip.
    Vacant,
    /// The slot — and every slot up to (but excluding) the carried index — is
    /// unclaimed: the pass jumps straight there. Produced by shard-granular
    /// vacancy tests ([`Registry::skip_vacant_shards`]), which classify
    /// a whole vacant shard on one bitmap load, so a confirmation pass over a
    /// mostly-vacant registry costs O(active shards), not O(capacity).
    /// Soundness matches `Vacant`: a slot vacant at the check can only be
    /// claimed by a thread adopting the *current* global epoch (see the
    /// confirmed-once-stays-confirmed argument on [`EpochCursor`]).
    VacantRun(usize),
    /// The slot's thread has confirmed the epoch (adopted it, or is excluded from
    /// grace periods, e.g. evicted in QSense's extension).
    Confirmed,
    /// The slot's thread has not yet adopted the epoch; the pass cannot complete.
    Lagging,
}

/// How many *claimed* slots one [`EpochCursor::poll`] call may confirm before
/// yielding. Bounds the per-quiescent-state cost to O(1) amortized: a full
/// confirmation pass over `N` registered threads is spread over `N / 8` calls.
const CURSOR_BATCH: usize = 8;

/// Bits of [`EpochCursor`] state reserved for the pass position; the rest tag the
/// epoch the pass belongs to.
const CURSOR_POS_BITS: u32 = 16;
const CURSOR_POS_MASK: u64 = (1 << CURSOR_POS_BITS) - 1;

/// Shared cursor turning the O(N) "has every thread adopted epoch `e`?" sweep into
/// amortized-O(1) work per quiescent state.
///
/// The old protocol re-scanned the whole registry on *every* quiescent state whose
/// local epoch was current — per-Q-ops work proportional to `N`, on the fast path.
/// The cursor instead maintains one packed word `(epoch_tag << 16) | position`:
/// each poll confirms at most [`CURSOR_BATCH`] claimed slots starting at
/// `position`, publishes its progress with a CAS, and reports completion once the
/// position reaches the capacity. Threads cooperate on one pass instead of each
/// redoing it.
///
/// **Why confirmed-once stays confirmed** (the invariant that makes a monotonic
/// cursor sound): a slot is confirmed for epoch `e` only if it is vacant, excluded,
/// or its record is *at* `e`. A record at `e` can only change by adopting a newer
/// global epoch — but the global epoch cannot move past `e` before this very pass
/// completes, so within a pass a confirmed record stays at `e`. A vacant slot that
/// gets claimed mid-pass adopts the *current* global epoch at registration, i.e.
/// `e` itself (or the pass is already stale and its final CAS/advance fails).
///
/// The epoch tag keeps only the low 48 bits of the epoch; a stale CAS could be
/// confused only after 2^48 epoch advances within one racing poll, which is
/// unreachable.
#[derive(Debug, Default)]
pub struct EpochCursor {
    state: CachePadded<AtomicU64>,
}

impl EpochCursor {
    /// Creates a cursor positioned at the start of epoch 0's pass.
    pub fn new() -> Self {
        Self::default()
    }

    /// Contributes a bounded amount of confirmation work for `global`, checking
    /// slots via `check`. Returns `true` once every slot in `0..capacity` has been
    /// confirmed for `global` (the caller should then try to advance the epoch).
    ///
    /// `check(i)` must classify slot `i` *at this moment*; see the type-level docs
    /// for why earlier confirmations remain valid.
    pub fn poll(
        &self,
        global: u64,
        capacity: usize,
        mut check: impl FnMut(usize) -> CursorCheck,
    ) -> bool {
        if capacity > CURSOR_POS_MASK as usize {
            // Degenerate fallback for registries larger than the position field
            // (> 65535 slots): one full sweep, as the pre-cursor protocol did.
            return (0..capacity).all(|i| check(i) != CursorCheck::Lagging);
        }
        let tag = global << CURSOR_POS_BITS;
        let mut state = self.state.load(Ordering::Acquire);
        if state & !CURSOR_POS_MASK != tag {
            if (state >> CURSOR_POS_BITS) > (tag >> CURSOR_POS_BITS) {
                // The stored pass belongs to a *newer* epoch than the caller's
                // (the caller read `global` before a concurrent advance). Never
                // reset a live pass back to a dead epoch — that would wipe its
                // progress for a pass whose advance could no longer succeed.
                return false;
            }
            // The stored pass belongs to an older epoch: restart it for `global`.
            match self
                .state
                .compare_exchange(state, tag, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => state = tag,
                Err(actual) => {
                    if actual & !CURSOR_POS_MASK != tag {
                        // Someone is already working on a different pass; let the
                        // threads that observed that epoch drive it.
                        return false;
                    }
                    state = actual;
                }
            }
        }
        let start = (state & CURSOR_POS_MASK) as usize;
        let mut pos = start;
        let mut budget = CURSOR_BATCH;
        while pos < capacity {
            match check(pos) {
                CursorCheck::Vacant => pos += 1,
                // Clamp below by pos + 1 so a misbehaving check cannot stall
                // the pass, and above by capacity so it terminates.
                CursorCheck::VacantRun(next) => pos = next.clamp(pos + 1, capacity),
                CursorCheck::Confirmed => {
                    pos += 1;
                    budget -= 1;
                    if budget == 0 {
                        break;
                    }
                }
                CursorCheck::Lagging => break,
            }
        }
        if pos == capacity {
            return true;
        }
        if pos > start {
            // Publish progress so the next poll resumes here. A failure means either
            // a concurrent poll already published further progress or the pass was
            // restarted for a newer epoch; both make our update obsolete.
            let _ = self.state.compare_exchange(
                state,
                tag | pos as u64,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
        }
        false
    }
}

/// The scheme side of the epoch part: `Qsbr` is this plus a registry of
/// [`EpochRecord`]s, and QSense runs it over its own records as its fast path.
#[derive(Debug, Default)]
pub struct EpochDomain {
    global: GlobalEpoch,
    /// Cooperative epoch-confirmation state: quiescent states contribute bounded
    /// slices of the "has everyone adopted the epoch?" check instead of each
    /// sweeping the whole registry (see [`EpochCursor`]).
    cursor: EpochCursor,
}

impl EpochDomain {
    /// Creates a domain at epoch 0.
    pub fn new() -> Self {
        Self {
            global: GlobalEpoch::new(),
            cursor: EpochCursor::new(),
        }
    }

    /// The current global epoch.
    #[inline]
    pub fn current(&self) -> u64 {
        self.global.load()
    }

    /// Contributes a bounded slice of the "has every registered thread adopted
    /// `epoch`?" check and advances the global epoch once the cooperative pass
    /// completes. Replaces the old full-registry sweep each quiescent state paid.
    ///
    /// `epoch_of(i, record)` is the epoch the thread in claimed slot `i` is at,
    /// or `None` if the scheme excludes it from grace periods (it then counts
    /// as confirmed, and `grace_drain`'s contract covers it). `stats` is the
    /// polling handle's stripe, which takes the walk's vacant-shard tally.
    pub fn poll_epoch_confirmation<R>(
        &self,
        stats: &StatStripe,
        epoch: u64,
        registry: &Registry<R>,
        epoch_of: impl Fn(usize, &R) -> Option<u64>,
    ) {
        let confirmed = self.cursor.poll(epoch, registry.capacity(), |i| {
            // Shard-granular vacancy first: a wholly-vacant shard is classified
            // on one bitmap load and the pass jumps straight past it, so
            // confirmation cost tracks active shards, not capacity.
            let next = registry.skip_vacant_shards(stats, i);
            if next > i {
                CursorCheck::VacantRun(next)
            } else if !registry.is_claimed(i) {
                CursorCheck::Vacant
            } else if epoch_of(i, registry.get(i)).is_none_or(|at| at == epoch) {
                CursorCheck::Confirmed
            } else {
                CursorCheck::Lagging
            }
        });
        if confirmed {
            self.global.try_advance(epoch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn epoch_record_round_trips() {
        let r = EpochRecord::new();
        assert_eq!(r.load(), 0);
        r.store(7);
        assert_eq!(r.load(), 7);
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

    #[test]
    fn cursor_confirms_small_registries_in_one_poll() {
        let cursor = EpochCursor::new();
        assert!(cursor.poll(0, 4, |_| CursorCheck::Confirmed));
    }

    #[test]
    fn cursor_skips_vacant_slots_for_free() {
        let cursor = EpochCursor::new();
        // 60 vacant slots around 4 confirmed ones: still one poll, because only
        // claimed slots consume the batch budget.
        assert!(cursor.poll(0, 64, |i| if i % 16 == 0 {
            CursorCheck::Confirmed
        } else {
            CursorCheck::Vacant
        }));
    }

    #[test]
    fn cursor_jumps_vacant_runs_without_touching_their_slots() {
        let cursor = EpochCursor::new();
        use std::cell::Cell;
        let checks = Cell::new(0);
        // 256 slots, only 252..256 claimed: a shard-granular vacancy test jumps
        // the first 252 in one check, so the whole pass costs 5 checks.
        assert!(cursor.poll(0, 256, |i| {
            checks.set(checks.get() + 1);
            if i < 252 {
                CursorCheck::VacantRun(252)
            } else {
                CursorCheck::Confirmed
            }
        }));
        assert_eq!(checks.get(), 5, "one jump + four confirmations");
    }

    #[test]
    fn cursor_clamps_backwards_vacant_runs_to_forward_progress() {
        let cursor = EpochCursor::new();
        // A check that always reports a stale jump target must still terminate.
        assert!(cursor.poll(0, 16, |_| CursorCheck::VacantRun(0)));
    }

    #[test]
    fn cursor_spreads_a_full_registry_over_batched_polls() {
        let cursor = EpochCursor::new();
        let capacity = 4 * CURSOR_BATCH;
        let mut polls = 0;
        while !cursor.poll(0, capacity, |_| CursorCheck::Confirmed) {
            polls += 1;
            assert!(polls <= capacity, "cursor failed to make progress");
        }
        assert_eq!(polls, 3, "32 claimed slots need ceil(32/8) - 1 extra polls");
    }

    #[test]
    fn cursor_stops_at_a_lagging_slot_and_resumes() {
        let cursor = EpochCursor::new();
        let mut lagging = true;
        // Slot 2 lags: the pass cannot complete …
        for _ in 0..4 {
            assert!(!cursor.poll(0, 4, |i| if i == 2 && lagging {
                CursorCheck::Lagging
            } else {
                CursorCheck::Confirmed
            }));
        }
        // … until it catches up; progress up to slot 2 was remembered.
        lagging = false;
        assert!(cursor.poll(0, 4, |i| if i == 2 && lagging {
            CursorCheck::Lagging
        } else {
            CursorCheck::Confirmed
        }));
    }

    #[test]
    fn cursor_ignores_stale_epoch_pollers() {
        let cursor = EpochCursor::new();
        let capacity = 3 * CURSOR_BATCH;
        // Build partial progress for epoch 1.
        assert!(!cursor.poll(1, capacity, |_| CursorCheck::Confirmed));
        // A poller still holding a stale epoch value must not wipe that progress.
        assert!(!cursor.poll(0, capacity, |_| CursorCheck::Confirmed));
        // The live pass resumes where it left off: exactly two more polls finish.
        assert!(!cursor.poll(1, capacity, |_| CursorCheck::Confirmed));
        assert!(cursor.poll(1, capacity, |_| CursorCheck::Confirmed));
    }

    #[test]
    fn cursor_restarts_when_the_epoch_moves() {
        let cursor = EpochCursor::new();
        // Partial pass at epoch 0 over a large registry (needs > 1 poll).
        let capacity = 3 * CURSOR_BATCH;
        assert!(!cursor.poll(0, capacity, |_| CursorCheck::Confirmed));
        // A new epoch restarts from position 0: completing it takes a full set of
        // polls again.
        let mut polls = 1;
        while !cursor.poll(1, capacity, |_| CursorCheck::Confirmed) {
            polls += 1;
            assert!(polls <= capacity);
        }
        assert_eq!(polls, 3);
    }
}
