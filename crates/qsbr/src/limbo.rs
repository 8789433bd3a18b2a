//! The handle side of the epoch part: one registered thread's limbo lists,
//! local epoch and quiescence counter ([`EpochLimbo`]), and the grace-period
//! drain of a matured list ([`grace_drain`]).

use crate::epoch::{limbo_index, EpochDomain, EpochRecord, EPOCH_BUCKETS};
use reclaim_core::{HandleCore, Registry, SegBag, StatStripe};

/// `QsbrHandle` is this plus a `HandleCore`; QSense's handle holds the same
/// part as its fast path.
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

    /// The part of a thread registering now, whose record is `mine`.
    pub fn register(domain: &EpochDomain, mine: &EpochRecord) -> Self {
        // Adopt the current global epoch immediately: a freshly registered thread
        // holds no references, so adopting (rather than lagging at a stale value) is
        // always safe and avoids spuriously blocking epoch advancement.
        let epoch = domain.current();
        mine.store(epoch);
        Self {
            bags: std::array::from_fn(|_| SegBag::new()),
            local_epoch: epoch,
            ops_since_quiescence: 0,
        }
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
    ///   limbo list that the new epoch maps to, for the caller to free
    ///   ([`grace_drain`]);
    /// * otherwise, if every thread of `registry` has adopted the global epoch,
    ///   advance it ([`EpochDomain::poll_epoch_confirmation`], as is `epoch_of`).
    pub fn quiescent_state<R>(
        &mut self,
        stats: &StatStripe,
        domain: &EpochDomain,
        mine: &EpochRecord,
        registry: &Registry<R>,
        epoch_of: impl Fn(usize, &R) -> Option<u64>,
    ) -> Option<&mut SegBag> {
        stats.add_quiescent_state();
        let global = domain.current();
        if self.local_epoch == global {
            domain.poll_epoch_confirmation(stats, global, registry, epoch_of);
            return None;
        }
        mine.store(global);
        self.local_epoch = global;
        Some(self.current())
    }
}

/// Releases the whole of a matured bucket to the core's free stage.
///
/// # Safety
///
/// `matured` must be what [`EpochLimbo::quiescent_state`] just handed `core`'s
/// handle, and no thread `epoch_of` excluded since the bucket was last emptied
/// may hold a reference to a node in it.
pub unsafe fn grace_drain<W: Default>(core: &mut HandleCore<W>, matured: &mut SegBag) {
    core.scan(|reclaim, _| {
        if matured.is_empty() {
            // Nothing matured in this bucket: the grace drain passes it over.
            reclaim.stats().add_scan_skip();
        } else {
            // Grace-period drains free the whole bucket without per-node tests.
            reclaim.stats().add_scan_wholesale();
        }
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
    use reclaim_core::{drop_fn_for, SchemeCore, SegPool, SmrConfig, NO_BIRTH_ERA};

    /// A one-thread domain: its registry, and the part and core of the thread.
    struct Fixture {
        domain: EpochDomain,
        registry: Registry<EpochRecord>,
        core: HandleCore,
        limbo: EpochLimbo,
    }

    impl Fixture {
        fn new() -> Self {
            let domain = EpochDomain::new();
            let registry = Registry::new(1, |_| EpochRecord::new());
            let scheme = SchemeCore::new("test", SmrConfig::default());
            let (slot, core) = scheme
                .register(&registry, |_| (SegPool::new(), ()))
                .expect("one free slot");
            let limbo = EpochLimbo::register(&domain, registry.get_mine(slot));
            Self {
                domain,
                registry,
                core,
                limbo,
            }
        }

        fn retire(&mut self) {
            let node = Box::into_raw(Box::new(0u64)).cast::<u8>();
            let bag = self.limbo.current();
            // SAFETY: freshly boxed, never linked anywhere, retired exactly once.
            unsafe {
                self.core
                    .retire(bag, node, drop_fn_for::<u64>(), 0, NO_BIRTH_ERA, 8)
            };
        }

        /// One quiescent state; the length of the bucket it handed back, if any.
        fn quiesce(&mut self) -> Option<usize> {
            let Self {
                domain,
                registry,
                core,
                limbo,
            } = self;
            let mine = registry.get(0);
            limbo
                .quiescent_state(core.stats(), domain, mine, registry, |_, record| {
                    Some(record.load())
                })
                .map(|matured| matured.len())
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
            assert_eq!(f.domain.current(), epoch);
        }
        // Epoch 3 maps to epoch 0's bucket again: its node has matured.
        assert_eq!(f.quiesce(), None);
        assert_eq!(f.quiesce(), Some(1));
        assert_eq!(f.registry.get(0).load(), 3, "adopted through the record");
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
