//! The QSBR scheme object and per-thread handle.

use crate::epoch::{EpochRecord, GlobalEpoch, OFFLINE};
use crate::limbo::{grace_drain, EpochLimbo};
use reclaim_core::{
    CapacityExhausted, CoreToken, HandleCore, Registry, RetiredPtr, SchemeCore, SlotId, Smr,
    SmrConfig, SmrHandle,
};
use std::sync::Arc;

/// Quiescent-state-based reclamation (the paper's **QSBR** baseline and the fast path
/// of QSense): the epoch part ([`GlobalEpoch`], [`EpochLimbo`]) and nothing else.
///
/// Limbo bytes are **tracked only**. QSBR has no escalation ladder to climb:
/// declaring a quiescent state mid-operation would be unsound, and no
/// hazard-gated scan exists. Under a stalled reader the estimate exceeds any
/// budget and the verdict records exactly that — QSBR's non-robustness is the
/// measurement, not a bug.
pub struct Qsbr {
    core: Arc<SchemeCore>,
    global: GlobalEpoch,
    registry: Registry<EpochRecord>,
}

impl Qsbr {
    /// Creates a QSBR scheme with the given configuration.
    pub fn new(config: SmrConfig) -> Arc<Self> {
        let registry = Registry::new(config.max_threads, |_| EpochRecord::default());
        Arc::new(Self {
            core: SchemeCore::new("qsbr", config),
            global: GlobalEpoch::new(),
            registry,
        })
    }

    /// The current global epoch.
    #[cfg(test)]
    pub(crate) fn current_epoch(&self) -> u64 {
        self.global.load()
    }
}

impl Smr for Qsbr {
    type Handle = QsbrHandle;

    fn try_register(self: &Arc<Self>) -> Result<QsbrHandle, CapacityExhausted> {
        let (slot, core) = self.core.register(&self.registry, 0)?;
        Ok(QsbrHandle {
            // QSBR never evicts: no registration replaces `EVICTED`.
            limbo: EpochLimbo::register(&self.global, self.registry.get_mine(slot)).0,
            scheme: Arc::clone(self),
            slot,
            core,
        })
    }

    fn core(&self) -> &SchemeCore {
        &self.core
    }
}

/// Per-thread handle for [`Qsbr`].
pub struct QsbrHandle {
    scheme: Arc<Qsbr>,
    slot: SlotId,
    core: HandleCore,
    limbo: EpochLimbo,
}

impl QsbrHandle {
    /// Declares a quiescent state *right now*, regardless of the batching
    /// threshold ([`EpochLimbo::quiescent_state`]), freeing the limbo list an
    /// adopted epoch hands back.
    pub(crate) fn quiesce(&mut self) {
        let (scheme, stats) = (&*self.scheme, self.core.stats());
        let (registry, mine) = (&scheme.registry, scheme.registry.get_mine(self.slot));
        let limbo = &mut self.limbo;
        let matured = limbo.quiescent_state(stats, &scheme.global, mine, registry, |r| r);
        if let Some((bucket, _)) = matured {
            // SAFETY: the bucket just handed back; QSBR excludes no thread
            // from a grace period.
            unsafe { grace_drain(&mut self.core, bucket) };
        }
    }
}

impl SmrHandle for QsbrHandle {
    fn begin_op(&mut self) {
        if self.limbo.due(self.core.config().quiescence_threshold) {
            self.quiesce();
        }
    }

    fn end_op(&mut self) {}

    fn protect(&mut self, _index: usize, _ptr: *mut u8) {
        // QSBR needs no per-node protection: safety comes from grace periods alone.
    }

    fn clear_protections(&mut self) {}

    unsafe fn retire(&mut self, node: RetiredPtr) {
        // SAFETY: forwarded from the caller's contract. Grace periods read no stamp.
        unsafe { self.core.retire(self.limbo.current(), node, 0) };
        // Never escalates: a quiescent state cannot be declared mid-operation,
        // so the only lever QSBR has is waiting — which is precisely the
        // non-robustness the verdict exists to record.
        self.core.track();
    }

    fn flush(&mut self) {
        self.core.adopt_parked(self.limbo.current());
        for _ in 0..EpochLimbo::FLUSH_CYCLE {
            self.quiesce();
        }
        self.core.drain_ready();
    }

    fn core(&self, _: CoreToken) -> &HandleCore {
        &self.core
    }

    fn core_mut(&mut self, _: CoreToken) -> &mut HandleCore {
        &mut self.core
    }
}

impl Drop for QsbrHandle {
    fn drop(&mut self) {
        // Try to reclaim what a final set of quiescent states allows, then park the
        // rest on the scheme.
        self.flush();
        self.core.park(&mut self.limbo.take_all());
        // Leaving: OFFLINE stops this slot blocking the epoch advance between
        // its next claim and that tenant's adoption. QSBR never evicts.
        self.scheme.registry.get_mine(self.slot).adopt(OFFLINE);
        self.scheme.registry.release(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reclaim_core::SHARD_SLOTS;

    #[test]
    fn epoch_advances_when_all_threads_quiesce() {
        let scheme = Qsbr::new(SmrConfig::default().with_max_threads(2));
        let mut a = scheme.register();
        let mut b = scheme.register();
        let start = scheme.current_epoch();
        // Both threads quiesce repeatedly; the epoch must move forward.
        for _ in 0..4 {
            a.quiesce();
            b.quiesce();
        }
        assert!(scheme.current_epoch() > start);
    }

    #[test]
    fn epoch_does_not_advance_past_a_lagging_thread() {
        let scheme = Qsbr::new(SmrConfig::default().with_max_threads(2));
        let mut active = scheme.register();
        let _lagging = scheme.register(); // registered at the current epoch, never quiesces
        let start = scheme.current_epoch();
        for _ in 0..10 {
            active.quiesce();
        }
        // The active thread can advance the epoch at most once on its own: the first
        // advance needs everyone at `start` (true right after registration), but the
        // next needs everyone at `start + 1`, which the lagging thread never adopts.
        assert!(scheme.current_epoch() <= start + 1);
    }

    #[test]
    fn a_dropped_handle_leaves_its_record_offline() {
        let scheme = Qsbr::new(SmrConfig::default().with_max_threads(1));
        let handle = scheme.register();
        let mine = scheme.registry.get_mine(handle.slot);
        assert_eq!(mine.epoch(), Some(0));
        drop(handle);
        assert_eq!(
            mine.load(),
            OFFLINE,
            "a walk never reads a stale epoch here"
        );
    }

    /// Sixteen handles in three of a 64-slot registry's eight shards (6, 6
    /// and 4 in shards 0, 3 and 6), each still at epoch 0; the 48 others'
    /// drops advanced the epoch to 1. Twice what any benchmark registers.
    fn spread_handles() -> (Arc<Qsbr>, Vec<QsbrHandle>) {
        use reclaim_core::registry::shard_of;
        let scheme = Qsbr::new(SmrConfig::default().with_max_threads(64));
        let mut all: Vec<_> = (0..64).map(|_| scheme.register()).collect();
        all.sort_by_key(|h| h.slot.index());
        let keep = |i: usize| matches!(shard_of(i), 0 | 3 | 6) && i % SHARD_SLOTS < 6;
        let (kept, left): (Vec<_>, Vec<_>) = all.into_iter().partition(|h| keep(h.slot.index()));
        drop(left);
        let kept: Vec<_> = kept.into_iter().take(16).collect();
        assert_eq!(scheme.registry.claimed_count(), 16);
        assert_eq!(scheme.current_epoch(), 1);
        (scheme, kept)
    }

    #[test]
    fn sixteen_handles_over_three_shards_advance_the_epoch_once_all_quiesce() {
        let (scheme, mut handles) = spread_handles();
        let (last, rest) = handles.split_last_mut().expect("sixteen handles");
        for handle in rest.iter_mut() {
            handle.quiesce(); // adopts epoch 1: no walk
        }
        rest[0].quiesce(); // walks: the last handle, in shard 6, is at 0
        assert_eq!(scheme.current_epoch(), 1);
        last.quiesce();
        rest[0].quiesce(); // walks all sixteen
        assert_eq!(scheme.current_epoch(), 2);
    }

    #[test]
    fn every_confirmation_walk_skips_the_five_vacant_shards() {
        let (scheme, mut handles) = spread_handles();
        for epoch in 1..6 {
            for handle in &mut handles {
                handle.quiesce(); // adopts `epoch`: no walk
            }
            let before = scheme.stats();
            handles[0].quiesce(); // one walk, confirmed
            let after = scheme.stats();
            assert_eq!(scheme.current_epoch(), epoch + 1);
            let skips = after.shard_skips - before.shard_skips;
            let walks = after.shard_walks - before.shard_walks;
            assert_eq!((skips, walks), (5, 3), "epoch {epoch}");
        }
    }

    #[test]
    fn the_epoch_moves_at_most_one_step_past_a_handle_that_stopped_quiescing() {
        let (scheme, mut handles) = spread_handles();
        for handle in &mut handles {
            handle.quiesce();
        }
        let stopped = handles.remove(8); // in shard 3, between two active shards
        let at = scheme.registry.get_mine(stopped.slot).epoch();
        assert_eq!(at, Some(1));
        for _ in 0..8 {
            for handle in &mut handles {
                handle.quiesce();
                assert!(scheme.current_epoch() <= 2);
            }
        }
        assert_eq!(scheme.current_epoch(), 2, "one step, then it holds");
        drop(stopped); // leaves OFFLINE: the epoch moves again
        for _ in 0..2 {
            for handle in &mut handles {
                handle.quiesce();
            }
        }
        assert!(scheme.current_epoch() > 2);
    }
}
