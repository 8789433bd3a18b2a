//! The QSBR scheme object and per-thread handle.

use crate::epoch::{EpochDomain, EpochRecord};
use crate::limbo::{grace_drain, EpochLimbo};
use reclaim_core::retired::DropFn;
use reclaim_core::{
    CapacityExhausted, Era, HandleCore, HandleTelemetry, Registry, SchemeCore, SegPool, SlotId,
    Smr, SmrConfig, SmrHandle,
};
use std::sync::Arc;

/// Quiescent-state-based reclamation (the paper's **QSBR** baseline and the fast path
/// of QSense): the epoch part ([`EpochDomain`], [`EpochLimbo`]) and nothing else.
///
/// Limbo bytes are **tracked only**. QSBR has no escalation ladder to climb:
/// declaring a quiescent state mid-operation would be unsound, and no
/// hazard-gated scan exists. Under a stalled reader the estimate exceeds any
/// budget and the verdict records exactly that — QSBR's non-robustness is the
/// measurement, not a bug.
pub struct Qsbr {
    core: Arc<SchemeCore>,
    epochs: EpochDomain,
    registry: Registry<EpochRecord>,
}

impl Qsbr {
    /// Creates a QSBR scheme with the given configuration.
    pub fn new(config: SmrConfig) -> Arc<Self> {
        let registry = Registry::new(config.max_threads, |_| EpochRecord::new());
        Arc::new(Self {
            core: SchemeCore::new("qsbr", config),
            epochs: EpochDomain::new(),
            registry,
        })
    }

    /// Creates a QSBR scheme with default configuration.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(SmrConfig::default())
    }

    /// The configuration this scheme was created with.
    pub fn config(&self) -> &SmrConfig {
        self.core.config()
    }

    /// The current global epoch (exposed for tests and diagnostics).
    pub fn current_epoch(&self) -> u64 {
        self.epochs.current()
    }
}

impl Smr for Qsbr {
    type Handle = QsbrHandle;
    type Scratch = ();

    fn try_register(self: &Arc<Self>) -> Result<QsbrHandle, CapacityExhausted> {
        let (slot, core) = self
            .core
            .register(&self.registry, |_| (SegPool::new(), ()))?;
        Ok(QsbrHandle {
            limbo: EpochLimbo::register(&self.epochs, self.registry.get_mine(slot)),
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
    pub fn quiesce(&mut self) {
        let (scheme, stats) = (&*self.scheme, self.core.stats());
        let (registry, mine) = (&scheme.registry, scheme.registry.get_mine(self.slot));
        let epoch_of = |_, record: &EpochRecord| Some(record.load());
        let limbo = &mut self.limbo;
        let matured = limbo.quiescent_state(stats, &scheme.epochs, mine, registry, epoch_of);
        if let Some(bucket) = matured {
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

    unsafe fn retire(&mut self, ptr: *mut u8, drop_fn: DropFn, birth_era: Era, size_bytes: usize) {
        let bucket = self.limbo.current();
        // SAFETY: forwarded from the caller's contract. Grace periods read no stamp.
        unsafe {
            self.core
                .retire(bucket, ptr, drop_fn, 0, birth_era, size_bytes)
        };
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

    fn ledger(&self) -> (usize, usize) {
        (self.core.in_limbo(), self.core.limbo_bytes())
    }

    fn telemetry_cursor(&mut self) -> HandleTelemetry<'_> {
        self.core.tele()
    }
}

impl Drop for QsbrHandle {
    fn drop(&mut self) {
        // Try to reclaim what a final set of quiescent states allows, then park the
        // rest on the scheme.
        self.flush();
        self.core.park(&mut self.limbo.take_all());
        self.scheme.registry.release(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
