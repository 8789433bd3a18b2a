//! The handle side of the epoch part: one registered thread's limbo lists,
//! local epoch and quiescence counter ([`EpochLimbo`]), and the grace-period
//! drain of a matured list ([`grace_drain`]).

use crate::epoch::{limbo_index, EpochRecord, GlobalEpoch, EPOCH_BUCKETS, EVICTED};
use reclaim_core::{Counter, HandleCore, Registry, SegBag, StatStripe};

/// `QsbrHandle` is this plus a `HandleCore`; QSense's handle holds the same
/// part as its fast path, EBR's with the local epoch as its retires' tag.
pub struct EpochLimbo {
    /// One limbo list per logical epoch, as in the paper (§3.1). All three
    /// share the core's segment pool: a bucket freed on epoch adoption feeds
    /// the segments the next bucket grows into, so the retire path stays
    /// allocation-free even when one bucket grows past another's high-water
    /// mark.
    bags: [SegBag; EPOCH_BUCKETS],
    /// Cached copy of this thread's published epoch.
    local_epoch: u64,
    /// `call_count` in the paper's Algorithm 5.
    ops_since_quiescence: usize,
}

impl EpochLimbo {
    /// Quiescent states a `flush` cycles through: enough to let the epoch
    /// advance and every limbo bucket be visited, assuming no other thread is
    /// blocking advancement. (If one is, this frees whatever a partial cycle
    /// allows — same as QSBR's normal behaviour under delays.)
    pub const FLUSH_CYCLE: usize = 2 * EPOCH_BUCKETS;

    /// The part of a thread registering now, whose record is `mine`, and whether
    /// that replaced [`EVICTED`] (the caller owns the decrement: [`EpochRecord`]).
    pub fn register(global: &GlobalEpoch, mine: &EpochRecord) -> (Self, bool) {
        // Adopt the current global epoch immediately: a freshly registered thread
        // holds no references, so adopting (rather than lagging at a stale value) is
        // always safe and avoids spuriously blocking epoch advancement.
        let epoch = global.load();
        let part = Self {
            bags: std::array::from_fn(|_| SegBag::new()),
            local_epoch: epoch,
            ops_since_quiescence: 0,
        };
        (part, mine.adopt(epoch))
    }

    /// The owner's lift: if `mine` reads [`EVICTED`], restores the local epoch
    /// the evictor replaced, and returns true (the caller owns the decrement).
    pub fn lift(&self, mine: &EpochRecord) -> bool {
        mine.load() == EVICTED && mine.adopt(self.local_epoch)
    }

    /// Counts an operation boundary; true when a quiescent state is due. The
    /// paper batches quiescent states: only every `q`-th operation boundary
    /// actually declares one (§3.1, "quiescence threshold").
    #[inline]
    pub fn due(&mut self, q: usize) -> bool {
        self.ops_since_quiescence += 1;
        let due = self.ops_since_quiescence >= q;
        if due {
            self.ops_since_quiescence = 0;
        }
        due
    }

    /// The bucket of the local epoch: where a retire goes, and where a flush
    /// adopts the limbo leftovers of exited threads — they were retired
    /// (unlinked) before the adoption, so freeing them after this bucket's
    /// next full grace period is safe.
    #[inline]
    pub fn current(&mut self) -> &mut SegBag {
        &mut self.bags[limbo_index(self.local_epoch)]
    }

    /// All three buckets, for a scheme that also frees node by node.
    pub fn bags(&mut self) -> &mut [SegBag] {
        &mut self.bags
    }

    /// Empties the part into one bag (O(1) splices), for a dropped handle to park.
    pub fn take_all(&mut self) -> SegBag {
        let mut all = SegBag::new();
        for bag in &mut self.bags {
            all.splice(bag);
        }
        all
    }

    /// Declares a quiescent state *right now*, regardless of the batching
    /// threshold. This is the paper's `quiescent_state()`:
    /// * if the local epoch lags the global epoch, adopt it and hand back the
    ///   limbo list that the new epoch maps to ([`catch_up`](Self::catch_up)),
    ///   and whether the adoption replaced [`EVICTED`];
    /// * otherwise, if every claimed slot of `registry` has adopted the global
    ///   epoch ([`confirmed`], through `record`, onto the caller's stripe
    ///   `stats`), advance it.
    pub fn quiescent_state<R>(
        &mut self,
        stats: &StatStripe,
        global: &GlobalEpoch,
        mine: &EpochRecord,
        registry: &Registry<R>,
        record: impl Fn(&R) -> &EpochRecord,
    ) -> Option<(&mut SegBag, bool)> {
        stats.add(Counter::QuiescentStates, 1);
        let epoch = global.load();
        if self.local_epoch == epoch {
            if confirmed(registry, stats, record, epoch) {
                global.try_advance(epoch);
            }
            return None;
        }
        let lifted = mine.adopt(epoch);
        self.catch_up(epoch).map(|bucket| (bucket, lifted))
    }

    /// Moves the local epoch to `epoch`, a global epoch read since the last
    /// move, and hands back its bucket for the caller to free ([`grace_drain`]),
    /// unless it is there already. Retires enter only the local epoch's bucket,
    /// so a bucket holds one epoch's nodes and comes back once the global epoch
    /// reaches that + [`EPOCH_BUCKETS`]; one a jump passes over waits for its
    /// epoch to come round again.
    #[inline]
    pub fn catch_up(&mut self, epoch: u64) -> Option<&mut SegBag> {
        if self.local_epoch == epoch {
            return None;
        }
        self.local_epoch = epoch;
        Some(self.current())
    }
}

/// The confirmation of `epoch`: no claimed slot of `registry` holds another
/// epoch in its [`EpochRecord`] (`record` projects it; a sentinel counts as
/// confirmed — for an [`EVICTED`] thread, [`grace_drain`]'s contract answers).
/// One walk over the claimed slots, stopping at the first laggard, tallied to
/// `stats`, the caller's stripe.
pub fn confirmed<R>(
    registry: &Registry<R>,
    stats: &StatStripe,
    record: impl Fn(&R) -> &EpochRecord,
    epoch: u64,
) -> bool {
    let mut claimed = registry.iter_claimed(stats);
    claimed.all(|(_, r)| record(r).epoch().is_none_or(|at| at == epoch))
}

/// Releases the whole of a matured bucket to the core's free stage.
///
/// # Safety
///
/// `matured` must be what [`EpochLimbo::catch_up`] just handed `core`'s handle,
/// and its grace period must have counted every thread that may hold a
/// reference to a node in it: a grace period skips a thread whose word reads
/// [`EVICTED`], and proves nothing of a node retired while the caller's did.
pub unsafe fn grace_drain(core: &mut HandleCore, matured: &mut SegBag) {
    core.scan(|reclaim, _| {
        // SAFETY: (Lemma 3 of the paper) every node in this bucket was retired three
        // local-epoch transitions ago; the global epoch has advanced at least twice
        // since, and each advance requires every registered thread to have passed
        // through a quiescent state, i.e. a grace period has elapsed. No thread can
        // therefore still hold a hazardous reference to these nodes — or, if
        // excluded from the count, the caller answers for it.
        unsafe { reclaim.free_all(matured) };
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use reclaim_core::{drop_fn_for, RetiredPtr, SchemeCore, SmrConfig, NO_BIRTH_ERA};

    /// A one-thread domain: its registry, and the part and core of the thread.
    struct Fixture {
        global: GlobalEpoch,
        registry: Registry<EpochRecord>,
        core: HandleCore,
        limbo: EpochLimbo,
    }

    impl Fixture {
        fn new() -> Self {
            let global = GlobalEpoch::new();
            let registry = Registry::new(1, |_| EpochRecord::default());
            let scheme = SchemeCore::new("test", SmrConfig::default());
            let (slot, core) = scheme.register(&registry, 0).expect("one free slot");
            let (limbo, _) = EpochLimbo::register(&global, registry.get_mine(slot));
            Self {
                global,
                registry,
                core,
                limbo,
            }
        }

        fn retire(&mut self) {
            let node = Box::into_raw(Box::new(0u64)).cast::<u8>();
            // SAFETY: freshly boxed, never linked anywhere, retired exactly once.
            unsafe {
                let node = RetiredPtr::new(node, drop_fn_for::<u64>(), NO_BIRTH_ERA, 8);
                self.core.retire(self.limbo.current(), node, 0);
            }
        }

        /// One quiescent state; the length of the bucket it handed back, if any.
        fn quiesce(&mut self) -> Option<usize> {
            let Self {
                global,
                registry,
                core,
                limbo,
            } = self;
            let mine = registry.get(0);
            limbo
                .quiescent_state(core.stats(), global, mine, registry, |r| r)
                .map(|(matured, _)| matured.len())
        }

        /// Catches up to `epoch` and drains what comes back; its length.
        fn catch_up(&mut self, epoch: u64) -> Option<usize> {
            let bucket = self.limbo.catch_up(epoch)?;
            let len = bucket.len();
            // SAFETY: the bucket just handed back; the fixture's one thread
            // holds no reference.
            unsafe { grace_drain(&mut self.core, bucket) };
            Some(len)
        }

        fn lens(&mut self) -> [usize; EPOCH_BUCKETS] {
            std::array::from_fn(|i| self.limbo.bags()[i].len())
        }
    }

    #[test]
    fn a_retire_lands_in_the_bucket_of_the_local_epoch() {
        let mut f = Fixture::new();
        f.retire();
        assert_eq!(f.lens(), [1, 0, 0]);
        // Alone in the registry, one quiescent state confirms epoch 0 and the
        // next adopts epoch 1: retires follow.
        assert_eq!(f.quiesce(), None, "confirmed and advanced, nothing adopted");
        assert_eq!(f.quiesce(), Some(0), "adopted epoch 1: its bucket is empty");
        f.retire();
        f.retire();
        assert_eq!(f.lens(), [1, 2, 0]);
        assert_eq!(f.core.in_limbo(), 3);
        let mut all = f.limbo.take_all();
        f.core.park(&mut all);
    }

    #[test]
    fn adoption_hands_back_the_bucket_three_epochs_old() {
        let mut f = Fixture::new();
        f.retire(); // epoch 0
        for epoch in 1..EPOCH_BUCKETS as u64 {
            assert_eq!(f.quiesce(), None);
            assert_eq!(f.quiesce(), Some(0), "epoch {epoch}: nothing that old");
            assert_eq!(f.global.load(), epoch);
        }
        // Epoch 3 maps to epoch 0's bucket again: its node has matured.
        assert_eq!(f.quiesce(), None);
        assert_eq!(f.quiesce(), Some(1));
        assert_eq!(
            f.registry.get(0).epoch(),
            Some(3),
            "adopted through the record"
        );
        let Fixture { core, limbo, .. } = &mut f;
        // SAFETY: the bucket of the epoch just adopted; the one thread there is
        // holds no reference.
        unsafe { grace_drain(core, limbo.current()) };
        // The drain empties the bucket; its node stays on the books until the
        // allocator has it — at the next retire, or here as `flush` ends.
        assert_eq!((f.core.in_limbo(), f.lens()), (1, [0, 0, 0]));
        let snap = f.core.stats().snapshot();
        assert_eq!(
            (snap.scan_wholesale, snap.scan_skips, snap.freed),
            (1, 0, 0)
        );
        assert_eq!(snap.quiescent_states, 6);
        f.core.drain_ready();
        assert_eq!((f.core.in_limbo(), f.core.stats().snapshot().freed), (0, 1));
    }

    #[test]
    fn a_jump_hands_back_only_the_new_epochs_bucket() {
        let mut f = Fixture::new();
        // Epoch `t` retires `t + 1` nodes, so a bucket's length names its epoch.
        for t in 0..EPOCH_BUCKETS as u64 {
            if t > 0 {
                assert_eq!(f.catch_up(t), Some(0), "epoch {t}: a fresh bucket");
            }
            (0..=t).for_each(|_| f.retire());
        }
        assert_eq!((f.lens(), f.catch_up(2)), ([1, 2, 3], None));
        // A jump of two: epoch 4's bucket (epoch 1's nodes) comes back, and
        // epoch 3's (epoch 0's) keeps its nodes until epoch 6.
        assert_eq!(f.catch_up(4), Some(2));
        assert_eq!(f.lens(), [1, 0, 3]);
        for (epoch, handed) in [(5, 3), (6, 1)] {
            assert_eq!(f.catch_up(epoch), Some(handed));
            let retired_at = handed as u64 - 1;
            assert!(epoch >= retired_at + EPOCH_BUCKETS as u64);
        }
        assert_eq!((f.lens(), f.core.in_limbo()), ([0, 0, 0], 6));
        f.core.drain_ready();
        assert_eq!(f.core.in_limbo(), 0);
    }

    #[test]
    fn take_all_leaves_the_part_empty() {
        let mut f = Fixture::new();
        for _ in 0..EPOCH_BUCKETS {
            f.retire();
            f.quiesce();
            f.quiesce();
        }
        assert_eq!(f.lens(), [1, 1, 1]);
        let mut all = f.limbo.take_all();
        assert_eq!((all.len(), f.lens()), (3, [0, 0, 0]));
        f.core.park(&mut all);
    }

    #[test]
    fn a_quiescent_state_is_due_every_qth_boundary() {
        let mut f = Fixture::new();
        let due: Vec<bool> = (0..6).map(|_| f.limbo.due(3)).collect();
        assert_eq!(due, [false, false, true, false, false, true]);
    }
}
