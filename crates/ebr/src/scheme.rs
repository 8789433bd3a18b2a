//! The EBR scheme object and per-thread handle.

use crate::pin::PinRecord;
use qsbr::GlobalEpoch;
use reclaim_core::retired::DropFn;
use reclaim_core::{
    fence, CapacityExhausted, Era, FenceStrategy, HandleCore, HandleTelemetry, Reclaim, Registry,
    SchemeCore, SegBag, SegPool, SlotId, Smr, SmrConfig, SmrHandle,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A retired node may be freed once the global epoch has advanced this many times
/// past its **pin-time** tag. Three, not the classic two, because the tag is the
/// epoch the retirer observed when it *pinned*, which can lag the global epoch at
/// unlink time by one: a node tagged `T` may have been unlinked while the global
/// was already `T + 1`, and a reader that pinned at `T + 1` before the unlink can
/// hold a reference without ever blocking the advances to `T + 2` (a pin at `p`
/// only blocks advancement beyond `p + 1`). Only once the global reaches
/// `T + 3 >= p + 2` for every possible reader pin `p <= T + 1` is each such
/// reader guaranteed to have unpinned since the unlink. (A gap of 2 is sound
/// only for tags taken from a fresh global load *at retire time*, which is the
/// shared load per retire this design removes.)
const SAFE_EPOCH_GAP: u64 = 3;

/// Number of per-epoch limbo chains a handle keeps. Nodes tagged with epoch `e`
/// land in chain `e % LIMBO_BUCKETS`; two tags can collide in a bucket only when
/// they differ by at least `LIMBO_BUCKETS > SAFE_EPOCH_GAP` epochs, by which time
/// the older tag's nodes are reclaimable wholesale (see `EbrHandle::retire`).
const LIMBO_BUCKETS: usize = SAFE_EPOCH_GAP as usize + 1;

/// Epoch-based reclamation with per-operation pinning (the classic epoch scheme of
/// the paper's related work, [13, 14] — Fraser's technique, the one crossbeam-epoch
/// popularized).
///
/// Compared to [`qsbr::Qsbr`]:
///
/// * protection is the *operation* (a thread pins on `begin_op` and unpins on
///   `end_op`), so an idle registered thread never blocks reclamation — under QSBR an
///   idle thread that stops calling `manage_qsense_state` blocks everyone;
/// * the price is two plain stores to an owned line per operation (pin and unpin)
///   instead of one per `Q` operations — and the fence behind the pin, which is
///   the reader's or the advancer's by [`FenceStrategy`], as for classic HP;
/// * a thread *delayed in the middle of an operation* still blocks the epoch, so the
///   scheme remains blocking in the sense that motivates the paper: it is a faster
///   point in the same robustness class as QSBR, not a replacement for the fallback
///   path.
///
/// Unlike QSBR, EBR *can* escalate on a limbo-budget breach mid-operation —
/// `try_advance` plus a bucket collect are safe at any point — but a thread
/// stalled inside an operation still caps the epoch at `pin + 1`, so escalation
/// helps against bursty load and is powerless against a mid-op stall (the
/// verdict records which).
pub struct Ebr {
    core: Arc<SchemeCore>,
    global_epoch: GlobalEpoch,
    registry: Registry<PinRecord>,
    strategy: FenceStrategy,
}

impl Ebr {
    /// Creates an EBR scheme with the given configuration, running the
    /// protocol this process's kernel supports ([`FenceStrategy::detect`]).
    pub fn new(config: SmrConfig) -> Arc<Self> {
        Self::with_fence_strategy(config, FenceStrategy::detect())
    }

    /// [`new`](Self::new) with the protocol named instead of detected: for
    /// tests, which run both on every kernel. Naming
    /// [`FenceStrategy::ScannerBarrier`] on a kernel without the expedited
    /// barrier is safe and useless: every advance is refused and nothing is
    /// ever freed. [`FenceStrategy::Rooster`] is not a protocol of EBR, which
    /// keeps no ledger for a rooster to raise: named, it runs — and reports,
    /// and batches its advances as — scanner-barrier, the advancer paying for
    /// the compiler-fenced pins itself.
    pub fn with_fence_strategy(config: SmrConfig, strategy: FenceStrategy) -> Arc<Self> {
        let strategy = match strategy {
            FenceStrategy::Rooster => FenceStrategy::ScannerBarrier,
            other => other,
        };
        let registry = Registry::new(config.max_threads, |_| PinRecord::new());
        Arc::new(Self {
            core: SchemeCore::with_scan_batch("ebr", config, strategy.scan_batch()),
            global_epoch: GlobalEpoch::new(),
            registry,
            strategy,
        })
    }

    /// The protocol this scheme's pins and epoch advances run.
    pub fn fence_strategy(&self) -> FenceStrategy {
        self.strategy
    }

    /// Creates an EBR scheme with default configuration.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(SmrConfig::default())
    }

    /// The configuration this scheme was created with.
    pub fn config(&self) -> &SmrConfig {
        self.core.config()
    }

    /// The current global epoch (exposed for tests and diagnostics).
    pub fn current_epoch(&self) -> u64 {
        self.global_epoch.load()
    }

    /// Attempts to advance the global epoch by one. Succeeds only if every *pinned*
    /// thread has already observed the current epoch; idle (unpinned) threads are
    /// ignored — the defining difference from QSBR.
    ///
    /// This is the scanner's half of the pin protocol ([`PinRecord::pin`] is the
    /// reader's): **epoch load, fence, record walk, CAS**, in that order. The
    /// fence — the advancer's own `SeqCst` fence against reader-fenced pins, one
    /// process-wide [`fence::scanner_barrier`] against compiler-fenced ones —
    /// splits every pin in two cases. Either its store is drained before the
    /// walk, which then reads it: the advance goes through only if the pin
    /// announces `global`, and no later walk can miss it. Or it was issued after
    /// the fence, and then so was the tag load that follows it, which therefore
    /// reads `global` or newer. Either way a successful advance leaves the epoch
    /// at most one past the tag of every operation in flight — the bound
    /// `SAFE_EPOCH_GAP` is derived from. With the fence *after* the walk the
    /// second case loses a step (`reclaim-check`'s epoch litmus prints the
    /// schedule). A refused barrier proves nothing and advances nothing.
    pub fn try_advance(&self) -> bool {
        let global = self.global_epoch.load();
        // An advance belongs to no handle: its barrier, its quiescent state and
        // its walks' shard tallies go to the orphan stripe.
        let orphan = self.core.orphan_stats();
        let all_caught_up = || {
            self.registry
                .iter_claimed(orphan)
                .all(|(_, record)| record.permits_advance_from(global))
        };
        match self.strategy {
            FenceStrategy::ReaderFenced => std::sync::atomic::fence(Ordering::SeqCst),
            // Look before the barrier: a pin that is visible now and blocks
            // this advance stays visible until its owner unpins, so the walk
            // after the barrier could only find the same. A sibling stalled
            // mid-operation thus costs its peers a shard walk per attempt, not
            // a syscall.
            // (`Rooster` never gets here: `with_fence_strategy`.)
            FenceStrategy::ScannerBarrier | FenceStrategy::Rooster => {
                if !all_caught_up() || !fence::scanner_barrier(orphan) {
                    return false;
                }
            }
        }
        if all_caught_up() && self.global_epoch.try_advance(global) {
            orphan.add_quiescent_state();
            return true;
        }
        false
    }
}

impl Smr for Ebr {
    type Handle = EbrHandle;
    type Scratch = ();

    fn try_register(self: &Arc<Self>) -> Result<EbrHandle, CapacityExhausted> {
        let (slot, core) = self
            .core
            .register(&self.registry, |_| (SegPool::new(), ()))?;
        // A fresh thread starts unpinned; an unpinned record never blocks advancement.
        self.registry.get_mine(slot).unpin();
        let epoch = self.global_epoch.load();
        Ok(EbrHandle {
            scheme: Arc::clone(self),
            slot,
            core,
            limbo: std::array::from_fn(|_| EpochChain {
                epoch: 0,
                bag: SegBag::new(),
            }),
            pin_epoch: epoch,
            pinned: false,
            collected_at: epoch,
            strategy: self.strategy,
        })
    }

    fn core(&self) -> &SchemeCore {
        &self.core
    }
}

/// One per-epoch limbo chain: every node in `bag` was retired while the owner
/// was pinned at `epoch`, so the whole chain becomes reclaimable at once when
/// `global >= epoch + SAFE_EPOCH_GAP` — no per-node examination needed.
struct EpochChain {
    epoch: u64,
    bag: SegBag,
}

impl EpochChain {
    /// Non-empty and at least [`SAFE_EPOCH_GAP`] behind `global`.
    fn matured(&self, global: u64) -> bool {
        !self.bag.is_empty() && global >= self.epoch + SAFE_EPOCH_GAP
    }

    /// Frees the chain wholesale — no per-node tests.
    ///
    /// # Safety
    ///
    /// The global epoch must have reached `self.epoch + SAFE_EPOCH_GAP`.
    unsafe fn drain(&mut self, reclaim: &mut Reclaim<'_>) {
        reclaim.stats().add_scan_wholesale();
        // SAFETY: every node in this bucket was unlinked while its owner
        // was pinned at `self.epoch`, i.e. at a global epoch of at most
        // `self.epoch + 1`. Any thread still holding a reference has
        // been pinned continuously since before that unlink, so its pin
        // epoch is at most `self.epoch + 1` — and a continuous pin at
        // `p` blocks every advance beyond `p + 1`. The global having
        // reached `self.epoch + 3 >= p + 2` therefore proves each such
        // thread has unpinned at least once since the unlink, dropping
        // all references obtained before it (see [`SAFE_EPOCH_GAP`] for
        // why 3 and not the retire-time-tag gap of 2). The nodes are
        // unreachable.
        unsafe { reclaim.free_all(&mut self.bag) };
    }
}

/// Per-thread handle for [`Ebr`].
///
/// The limbo state is the heart of EBR's retire-path cost model. A previous
/// revision kept one flat `Vec<(epoch, node)>` and re-examined *every* entry on
/// *every* pin; whenever the epoch stalled (one preempted thread suffices — the
/// single-CPU pathology behind the 8-thread retire blowup the seed's overhead
/// bench recorded; `scheme.retire_cycle_ns.ebr` in `benchmark/ --trace 1` is
/// where the retire path is measured now), the list grew while each pin
/// rescanned all of it:
/// quadratic work, on top of one shared global-epoch load per retire. Nodes now
/// land in one of [`LIMBO_BUCKETS`] per-epoch segment chains, tagged with the
/// **pin-time** epoch the handle already holds, so `retire` touches no shared
/// state at all and freeing is a whole-chain drain at segment granularity: a
/// pin that finds the epoch moved checks `LIMBO_BUCKETS` bucket tags, never
/// individual nodes, and every other pin checks nothing.
pub struct EbrHandle {
    scheme: Arc<Ebr>,
    slot: SlotId,
    /// Its retire counter paces `try_advance` (retires since the last attempt).
    core: HandleCore,
    limbo: [EpochChain; LIMBO_BUCKETS],
    /// The global epoch observed once the last pin was visible
    /// ([`pin_at`](Self::pin_at)). While pinned, `retire` tags nodes with this
    /// cached value instead of re-loading the (contended) global epoch: the
    /// pin bounds the global at `pin_epoch + 1`, and the grace-period argument
    /// below covers the difference.
    pin_epoch: u64,
    /// Whether the owner is currently inside an operation. Handle-local mirror
    /// of the shared active flag: it decides, without a shared load, whether
    /// `retire` may trust `pin_epoch` (the [`SmrHandle::retire`] contract does
    /// not require being inside an operation, and an *unpinned* retire must
    /// not use a stale cached tag — that would free nodes before a real grace
    /// period).
    pinned: bool,
    /// The epoch of the last pin-time [`collect`](Self::collect). A chain can
    /// only mature when the epoch moves, so pins that find it unchanged skip
    /// the bucket checks (and their skip counters) altogether.
    collected_at: u64,
    /// The scheme's protocol, by value: `begin_op` branches on it per operation.
    strategy: FenceStrategy,
}

impl EbrHandle {
    fn record(&self) -> &PinRecord {
        self.scheme.registry.get_mine(self.slot)
    }

    /// Publishes the pin at `observed` — the global epoch `begin_op` loaded —
    /// and only then reads the epoch this operation's retires are tagged with.
    /// The two loads differ when the thread was held up between the first and
    /// the pin's store: until the pin is published nothing stops the epoch, so
    /// `observed` can be arbitrarily stale, and tagging with it would let the
    /// very next `collect` free a node a current reader still holds. The
    /// second load is the tag the [`SAFE_EPOCH_GAP`] argument needs — the
    /// global stays within `pin_epoch + 1` for the whole operation — by the
    /// case split of [`Ebr::try_advance`], one ordering per step:
    ///
    /// * the pin's fence ([`PinRecord::pin`]) keeps the tag load after the pin
    ///   store — **pin-before-tag**: an advance from `g` that misses the pin
    ///   fenced before the tag load, which therefore reads `g` or newer, so
    ///   that advance ends at most one past the tag;
    /// * an advance that reads the pin goes through only from `observed`, and
    ///   `observed <= pin_epoch` because both are loads of one monotone
    ///   counter, in program order (coherence; no ordering needed);
    /// * the tag load is `Acquire` ([`GlobalEpoch::load`]), pairing with the
    ///   advancing CAS's `Release` — **walk-before-epoch**: reading epoch `e`
    ///   makes visible every unpin the advance to `e` relied on, and with it
    ///   (`Release` in [`PinRecord::unpin`]) every access of the operations
    ///   those unpins ended, before this operation frees or reuses anything.
    ///
    /// (The record keeps announcing the possibly stale `observed`, which merely
    /// blocks advances until `end_op`.)
    fn pin_at(&mut self, observed: u64) {
        self.record().pin(observed, self.strategy);
        let global = self.scheme.global_epoch.load();
        self.pin_epoch = global;
        self.pinned = true;
        // Pinning is also the natural point to free what previous epoch advances
        // made safe (equivalent to crossbeam's collect-on-pin). Whatever entered
        // limbo since the last collect is tagged with that collect's epoch or a
        // newer one, so nothing can have matured while the epoch stood still.
        if global != self.collected_at {
            self.collected_at = global;
            Self::collect(&mut self.core, &mut self.limbo, global);
        }
    }

    /// Frees every limbo bucket whose tag is at least [`SAFE_EPOCH_GAP`] behind
    /// `global`, wholesale. O([`LIMBO_BUCKETS`]) bucket checks regardless of
    /// limbo size, and usually frees nothing: the reclaim pass (its clock reads
    /// and budget report) runs only when some bucket has actually matured.
    fn collect(core: &mut HandleCore, limbo: &mut [EpochChain; LIMBO_BUCKETS], global: u64) {
        let mut any_matured = false;
        for chain in limbo.iter() {
            if chain.matured(global) {
                any_matured = true;
            } else if !chain.bag.is_empty() {
                // Non-empty but too young: the collect passes it over unexamined.
                core.stats().add_scan_skip();
            }
        }
        if any_matured {
            core.scan(|reclaim, _| {
                for chain in limbo.iter_mut().filter(|chain| chain.matured(global)) {
                    // SAFETY: `matured` checked the epoch gap.
                    unsafe { chain.drain(reclaim) };
                }
            });
        }
    }

    /// Index of the limbo bucket for nodes tagged `epoch`, retagging (and
    /// draining) it if it still carries an older epoch's tag.
    fn bucket_for(&mut self, epoch: u64) -> usize {
        let b = (epoch % LIMBO_BUCKETS as u64) as usize;
        if self.limbo[b].epoch != epoch {
            if !self.limbo[b].bag.is_empty() {
                // A colliding tag differs by >= LIMBO_BUCKETS epochs, and the
                // owner's epoch tags are monotone, so the old contents are at
                // least LIMBO_BUCKETS > SAFE_EPOCH_GAP advances old — and the
                // global epoch has reached at least `epoch` (the owner observed
                // it) — hence reclaimable wholesale (same argument as `collect`).
                debug_assert!(epoch >= self.limbo[b].epoch + LIMBO_BUCKETS as u64);
                let limbo = &mut self.limbo;
                self.core.scan(|reclaim, _| {
                    // SAFETY: the chain is LIMBO_BUCKETS > SAFE_EPOCH_GAP epochs behind the epoch its owner observed.
                    unsafe { limbo[b].drain(reclaim) };
                });
            }
            self.limbo[b].epoch = epoch;
        }
        b
    }
}

impl SmrHandle for EbrHandle {
    fn begin_op(&mut self) {
        // Pin: observe the global epoch and announce it. This store per
        // operation (and `end_op`'s) is EBR's hot-path cost.
        self.pin_at(self.scheme.global_epoch.load());
    }

    fn end_op(&mut self) {
        self.record().unpin();
        self.pinned = false;
    }

    fn protect(&mut self, _index: usize, _ptr: *mut u8) {
        // EBR needs no per-node protection: being pinned protects every node
        // reachable during the operation.
    }

    fn clear_protections(&mut self) {}

    unsafe fn retire(&mut self, ptr: *mut u8, drop_fn: DropFn, birth_era: Era, size_bytes: usize) {
        // While pinned (the normal case — retires happen inside operations),
        // tag with the cached pin-time epoch: the pin bounds the global at
        // `pin_epoch + 1`, which is exactly why [`SAFE_EPOCH_GAP`] is 3 rather
        // than the 2 a fresh retire-time tag would need. Re-loading the global
        // here (as a previous revision did) put one shared acquire load on
        // every retire, the dominant contention source at high thread counts.
        //
        // The `SmrHandle::retire` contract does NOT require being inside an
        // operation, and an unpinned handle's `pin_epoch` can be arbitrarily
        // stale — tagging with it would free nodes arbitrarily early. Unpinned
        // retires therefore pay the fresh global load: any reader still
        // holding a reference was pinned before the (earlier) unlink, so its
        // pin epoch is at most the loaded value and the same gap covers it.
        let epoch = if self.pinned {
            self.pin_epoch
        } else {
            self.scheme.global_epoch.load()
        };
        let b = self.bucket_for(epoch);
        let (scheme, limbo) = (&*self.scheme, &mut self.limbo);
        // SAFETY: forwarded from the caller's contract. The epoch tag lives on
        // the chain; the per-node stamp goes unread.
        unsafe {
            self.core
                .retire(&mut limbo[b].bag, ptr, drop_fn, 0, birth_era, size_bytes)
        };
        if self.core.scan_due() {
            scheme.try_advance();
        } else {
            // Budget breach: push the epoch forward and collect what aged out
            // (both are safe mid-operation). If a mid-op stall elsewhere keeps
            // the epoch capped and us over budget, the core takes one bounded
            // backpressure yield.
            self.core.enforce_budget(|core| {
                scheme.try_advance();
                Self::collect(core, limbo, scheme.global_epoch.load());
            });
        }
    }

    fn flush(&mut self) {
        // Adopt limbo leftovers of exited threads into the current-epoch bucket:
        // they were unlinked before this adoption, so any reader still holding a
        // reference pinned at an epoch <= global + 1, and the bucket's
        // `SAFE_EPOCH_GAP` wait covers it.
        let global = self.scheme.global_epoch.load();
        let b = self.bucket_for(global);
        self.core.adopt_parked(&mut self.limbo[b].bag);
        // Make a best-effort attempt to push the epoch far enough forward that every
        // limbo node becomes reclaimable, then free whatever the advances allowed.
        // The thread must not be pinned while doing this (flush is called between
        // operations), so unpin defensively.
        self.record().unpin();
        self.pinned = false;
        // As far as the youngest chain needs and no further: with nothing in
        // limbo there is nothing to prove, and an advance may cost a barrier.
        let held = self.limbo.iter().filter(|chain| !chain.bag.is_empty());
        if let Some(youngest) = held.map(|chain| chain.epoch).max() {
            for _ in 0..2 * SAFE_EPOCH_GAP {
                if self.scheme.global_epoch.load() >= youngest + SAFE_EPOCH_GAP {
                    break;
                }
                self.scheme.try_advance();
            }
        }
        let global = self.scheme.global_epoch.load();
        Self::collect(&mut self.core, &mut self.limbo, global);
        self.core.drain_ready();
    }

    fn ledger(&self) -> (usize, usize) {
        (self.core.in_limbo(), self.core.limbo_bytes())
    }

    fn telemetry_cursor(&mut self) -> HandleTelemetry<'_> {
        self.core.tele()
    }
}

impl Drop for EbrHandle {
    fn drop(&mut self) {
        self.flush();
        // Whatever is still too young is parked on the scheme with O(1) splices.
        let mut leftovers = SegBag::new();
        for chain in &mut self.limbo {
            leftovers.splice(&mut chain.bag);
        }
        self.core.park(&mut leftovers);
        self.scheme.registry.release(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::under_both_protocols;
    use reclaim_core::retire_box;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Tracked(Arc<AtomicUsize>);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn tracked(drops: &Arc<AtomicUsize>) -> *mut Tracked {
        Box::into_raw(Box::new(Tracked(Arc::clone(drops))))
    }

    /// (`heavy_barriers`, `heavy_barrier_failures`) of the scheme so far.
    fn barriers(scheme: &Ebr) -> (u64, u64) {
        let snap = scheme.stats();
        (snap.heavy_barriers, snap.heavy_barrier_failures)
    }

    #[test]
    fn new_runs_the_detected_protocol() {
        let scheme = Ebr::with_defaults();
        println!("ebr fence strategy: {}", scheme.fence_strategy().name());
        assert_eq!(scheme.fence_strategy(), FenceStrategy::detect());
    }

    #[test]
    fn an_advance_pays_one_barrier_and_a_refused_one_advances_nothing() {
        // Named, not detected: where the kernel has no expedited command every
        // barrier is refused, and this is the refusal test.
        let scheme = Ebr::with_fence_strategy(SmrConfig::default(), FenceStrategy::ScannerBarrier);
        let works = fence::expedited_barrier();
        let mut handle = scheme.register();
        // SAFETY: the pointer comes fresh from `Box::into_raw` and is retired exactly once.
        unsafe { retire_box(&mut handle, Box::into_raw(Box::new(0u64))) };
        assert_eq!(scheme.try_advance(), works);
        assert_eq!(scheme.current_epoch(), u64::from(works));
        assert_eq!(barriers(&scheme), (1, u64::from(!works)));
        handle.flush();
        let snap = scheme.stats();
        assert_eq!(snap.freed, u64::from(works), "refused: nothing is freed");
        assert_eq!(
            snap.heavy_barrier_failures,
            if works { 0 } else { snap.heavy_barriers }
        );
    }

    #[test]
    fn naming_rooster_runs_reports_and_batches_scanner_barrier() {
        let config = SmrConfig::default().with_scan_threshold(10);
        let scheme = Ebr::with_fence_strategy(config, FenceStrategy::Rooster);
        assert_eq!(scheme.fence_strategy(), FenceStrategy::ScannerBarrier);
        let mut handle = scheme.register();
        let batch = 10 * FenceStrategy::ScannerBarrier.scan_batch();
        for retired in 1..=batch {
            handle.begin_op();
            // SAFETY: the pointer comes fresh from `Box::into_raw` and is retired exactly once.
            unsafe { retire_box(&mut handle, Box::into_raw(Box::new(0u64))) };
            handle.end_op();
            let attempts = u64::from(retired == batch);
            assert_eq!(barriers(&scheme).0, attempts, "after {retired} retires");
        }
    }

    #[test]
    fn reader_fenced_advances_issue_no_barrier_and_run_at_the_unbatched_cadence() {
        use reclaim_core::fence::ProcessBarrier;
        // What `new` selects when the probe or the registration fails.
        for refused in [ProcessBarrier::Global, ProcessBarrier::LocalFence] {
            let drops = Arc::new(AtomicUsize::new(0));
            let strategy = FenceStrategy::for_barrier(refused);
            let config = SmrConfig::default().with_scan_threshold(10);
            let scheme = Ebr::with_fence_strategy(config, strategy);
            let mut handle = scheme.register();
            for _ in 0..30 {
                handle.begin_op();
                // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
                unsafe { retire_box(&mut handle, tracked(&drops)) };
                handle.end_op();
            }
            assert_eq!(scheme.current_epoch(), 3, "an advance every 10 retires");
            drop(handle);
            assert_eq!(barriers(&scheme), (0, 0));
            assert_eq!(drops.load(Ordering::SeqCst), 30);
        }
    }

    #[test]
    fn a_visibly_stale_pin_blocks_advances_before_they_reach_the_barrier() {
        under_both_protocols(|strategy| {
            let scheme =
                Ebr::with_fence_strategy(SmrConfig::default().with_max_threads(2), strategy);
            let mut stalled = scheme.register();
            stalled.begin_op();
            assert!(scheme.try_advance(), "the pin has observed this epoch");
            let before = barriers(&scheme);
            for _ in 0..100 {
                assert!(!scheme.try_advance());
            }
            assert_eq!(
                barriers(&scheme),
                before,
                "{strategy:?}: a walk each, no syscall"
            );
            stalled.end_op();
            assert!(scheme.try_advance());
        });
    }

    #[test]
    fn a_flush_with_nothing_in_limbo_advances_nothing() {
        under_both_protocols(|strategy| {
            let scheme = Ebr::with_fence_strategy(SmrConfig::default(), strategy);
            let mut handle = scheme.register();
            handle.begin_op();
            handle.end_op();
            handle.flush();
            drop(handle);
            assert_eq!(scheme.current_epoch(), 0);
            assert_eq!(barriers(&scheme), (0, 0));
        });
    }

    #[test]
    fn pins_at_an_unchanged_epoch_check_no_bucket_and_a_moved_epoch_drains_on_the_next_pin() {
        under_both_protocols(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let config = SmrConfig::default().with_scan_threshold(1_000_000);
            let scheme = Ebr::with_fence_strategy(config, strategy);
            let mut handle = scheme.register();
            handle.begin_op();
            for _ in 0..10 {
                // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
                unsafe { retire_box(&mut handle, tracked(&drops)) };
            }
            handle.end_op();
            let dispatch = |scheme: &Ebr| {
                let snap = scheme.stats();
                (snap.scans, snap.scan_skips, snap.scan_wholesale)
            };
            let before = dispatch(&scheme);
            for _ in 0..1_000 {
                handle.begin_op();
                handle.end_op();
            }
            assert_eq!(
                dispatch(&scheme),
                before,
                "{strategy:?}: a non-empty young bucket"
            );
            // Each moved epoch is looked at once, by the next pin; the third
            // drains the bucket. A pin proves: it frees nothing itself.
            for _ in 1..=SAFE_EPOCH_GAP {
                assert!(scheme.try_advance());
                handle.begin_op();
                handle.end_op();
                assert_eq!(drops.load(Ordering::SeqCst), 0);
            }
            let (scans, skips, wholesale) = dispatch(&scheme);
            assert_eq!(
                (scans, skips, wholesale),
                (before.0, before.1 + SAFE_EPOCH_GAP - 1, before.2 + 1)
            );
            // The drained bucket reaches the allocator two nodes a retire.
            handle.begin_op();
            for retires in 1..=5 {
                // SAFETY: as above.
                unsafe { retire_box(&mut handle, tracked(&drops)) };
                assert_eq!(drops.load(Ordering::SeqCst), 2 * retires);
            }
            handle.end_op();
            assert_eq!(handle.local_in_limbo(), 5);
        });
    }

    #[test]
    fn epoch_advances_even_with_an_idle_registered_thread() {
        under_both_protocols(|strategy| {
            let scheme =
                Ebr::with_fence_strategy(SmrConfig::default().with_max_threads(2), strategy);
            let mut a = scheme.register();
            let _b = scheme.register(); // registered but idle: must not block
            let start = scheme.current_epoch();
            for _ in 0..4 {
                a.begin_op();
                a.end_op();
                scheme.try_advance();
            }
            assert!(scheme.current_epoch() > start);
        });
    }

    #[test]
    fn a_thread_pinned_at_an_old_epoch_blocks_advancement() {
        under_both_protocols(|strategy| {
            let scheme =
                Ebr::with_fence_strategy(SmrConfig::default().with_max_threads(2), strategy);
            let mut stuck = scheme.register();
            let mut active = scheme.register();
            stuck.begin_op(); // pins at the current epoch and never unpins
            let pinned_epoch = scheme.current_epoch();
            // The active thread can advance at most once (past the epoch the stuck
            // thread has already observed), then stalls.
            for _ in 0..10 {
                active.begin_op();
                active.end_op();
                scheme.try_advance();
            }
            assert!(scheme.current_epoch() <= pinned_epoch + 1);
            stuck.end_op();
            for _ in 0..4 {
                active.begin_op();
                active.end_op();
                scheme.try_advance();
            }
            assert!(scheme.current_epoch() > pinned_epoch + 1);
        });
    }

    #[test]
    fn single_thread_reclaims_everything_on_flush() {
        under_both_protocols(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme =
                Ebr::with_fence_strategy(SmrConfig::default().with_scan_threshold(4), strategy);
            let mut handle = scheme.register();
            for _ in 0..100 {
                handle.begin_op();
                // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
                unsafe { retire_box(&mut handle, tracked(&drops)) };
                handle.end_op();
            }
            handle.flush();
            assert_eq!(drops.load(Ordering::SeqCst), 100);
            let snap = scheme.stats();
            assert_eq!(snap.retired, 100);
            assert_eq!(snap.freed, 100);
        });
    }

    #[test]
    fn an_idle_registered_thread_does_not_block_reclamation() {
        under_both_protocols(|strategy| {
            // The behavioural difference from QSBR: a registered thread that never
            // operates (and therefore never quiesces in QSBR terms) does not stop EBR
            // from reclaiming.
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme = Ebr::with_fence_strategy(
                SmrConfig::default()
                    .with_max_threads(2)
                    .with_scan_threshold(1),
                strategy,
            );
            let _idle = scheme.register();
            let mut worker = scheme.register();
            for _ in 0..100 {
                worker.begin_op();
                // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
                unsafe { retire_box(&mut worker, tracked(&drops)) };
                worker.end_op();
            }
            worker.flush();
            assert_eq!(
                drops.load(Ordering::SeqCst),
                100,
                "an idle thread must not block EBR"
            );
        });
    }

    #[test]
    fn a_thread_stalled_mid_operation_blocks_reclamation() {
        under_both_protocols(|strategy| {
            // ... but a thread delayed *inside* an operation does block it — EBR is not
            // robust in the paper's sense, which is why QSense still needs Cadence.
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme = Ebr::with_fence_strategy(
                SmrConfig::default()
                    .with_max_threads(2)
                    .with_scan_threshold(1),
                strategy,
            );
            let mut stalled = scheme.register();
            stalled.begin_op(); // never ends its operation
            let mut worker = scheme.register();
            for _ in 0..100 {
                worker.begin_op();
                // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
                unsafe { retire_box(&mut worker, tracked(&drops)) };
                worker.end_op();
            }
            worker.flush();
            // The epoch can advance at most once past the stalled pin, so nothing the
            // worker retired can have aged by the required three (`SAFE_EPOCH_GAP`).
            assert_eq!(
                drops.load(Ordering::SeqCst),
                0,
                "a mid-operation stall must block reclamation"
            );
            assert_eq!(worker.local_in_limbo(), 100);
            stalled.end_op();
            worker.flush();
            assert_eq!(drops.load(Ordering::SeqCst), 100);
        });
    }

    #[test]
    fn nodes_are_never_freed_before_three_epoch_advances_past_their_pin_tag() {
        under_both_protocols(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme = Ebr::with_fence_strategy(
                SmrConfig::default().with_scan_threshold(1_000_000),
                strategy,
            );
            let mut handle = scheme.register();
            handle.begin_op();
            let tag = scheme.current_epoch();
            for _ in 0..10 {
                // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
                unsafe { retire_box(&mut handle, tracked(&drops)) };
            }
            // Still pinned, no advance attempted: nothing may have been freed.
            assert_eq!(drops.load(Ordering::SeqCst), 0);
            assert_eq!(handle.local_in_limbo(), 10);
            handle.end_op();
            // Nodes are tagged with the *pin-time* epoch, which can lag the global
            // at unlink time by one — so even two advances are not enough: a reader
            // pinned at `tag + 1` since before the unlink never blocks them (the
            // use-after-free a SAFE_EPOCH_GAP of 2 would reintroduce).
            for expected_gap in 1..SAFE_EPOCH_GAP {
                assert!(scheme.try_advance());
                handle.begin_op();
                handle.end_op();
                assert_eq!(
                    drops.load(Ordering::SeqCst),
                    0,
                    "freed after only {expected_gap} advance(s) past the pin tag"
                );
            }
            // The third advance completes the grace period: the next pin
            // drains the bucket, and a flush hands what it proved to the
            // allocator.
            assert!(scheme.try_advance());
            assert_eq!(scheme.current_epoch(), tag + SAFE_EPOCH_GAP);
            handle.begin_op();
            handle.end_op();
            assert_eq!(scheme.stats().scan_wholesale, 1);
            assert_eq!(handle.local_in_limbo(), 10, "proven, not yet returned");
            handle.flush();
            assert_eq!(drops.load(Ordering::SeqCst), 10);
            assert_eq!(handle.local_in_limbo(), 0);
        });
    }

    /// The `SmrHandle::retire` contract allows retiring outside an operation;
    /// an unpinned handle must not tag such nodes with its stale cached pin
    /// epoch (which would free them while a current reader is still pinned).
    #[test]
    fn out_of_op_retires_use_a_fresh_epoch_tag() {
        under_both_protocols(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme = Ebr::with_fence_strategy(
                SmrConfig::default()
                    .with_max_threads(2)
                    .with_scan_threshold(1_000_000),
                strategy,
            );
            let mut idle = scheme.register();
            // Cache a pin epoch, then go idle while the epoch moves far past it.
            idle.begin_op();
            idle.end_op();
            let stale_tag = scheme.current_epoch();
            let mut reader = scheme.register();
            for _ in 0..SAFE_EPOCH_GAP + 1 {
                reader.begin_op();
                reader.end_op();
                assert!(scheme.try_advance());
            }
            assert!(scheme.current_epoch() > stale_tag + SAFE_EPOCH_GAP);
            // The reader pins at the current epoch and keeps holding references.
            reader.begin_op();
            // Out-of-op retire on the idle handle (legal per the trait contract).
            // Tagging with the stale cached epoch would make the node immediately
            // "old enough" and free it under the still-pinned reader.
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut idle, tracked(&drops)) };
            idle.begin_op();
            idle.end_op();
            idle.flush();
            assert_eq!(
                drops.load(Ordering::SeqCst),
                0,
                "out-of-op retire must not be freed while a current reader is pinned"
            );
            assert_eq!(idle.local_in_limbo(), 1);
            reader.end_op();
            idle.flush();
            assert_eq!(drops.load(Ordering::SeqCst), 1);
        });
    }

    /// A thread held up between loading the global epoch and publishing its
    /// pin pins late, at an epoch the global has long left. Nodes it retires in
    /// that operation must not carry the stale epoch as their tag: they would
    /// look a full grace period old the moment they are retired.
    #[test]
    fn a_pin_published_late_does_not_tag_retires_with_the_stale_epoch() {
        under_both_protocols(|strategy| {
            let drops = Arc::new(AtomicUsize::new(0));
            let scheme = Ebr::with_fence_strategy(
                SmrConfig::default()
                    .with_max_threads(2)
                    .with_scan_threshold(1_000_000),
                strategy,
            );
            let mut late = scheme.register();
            let mut reader = scheme.register();
            // `late` loads the epoch and stalls; nothing is pinned, so the epoch
            // runs ahead of what it saw.
            let observed = scheme.current_epoch();
            for _ in 0..SAFE_EPOCH_GAP + 1 {
                assert!(scheme.try_advance());
            }
            // A current reader pins and holds the node `late` then unlinks.
            reader.begin_op();
            late.pin_at(observed);
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut late, tracked(&drops)) };
            late.end_op();
            // `late` moves on; each of these collects what looks matured.
            late.begin_op();
            late.end_op();
            late.flush();
            assert_eq!(
                drops.load(Ordering::SeqCst),
                0,
                "freed under a reader pinned since before the unlink"
            );
            assert_eq!(late.local_in_limbo(), 1);
            reader.end_op();
            late.flush();
            assert_eq!(drops.load(Ordering::SeqCst), 1);
        });
    }

    #[test]
    fn concurrent_workers_reclaim_everything_by_scheme_drop() {
        under_both_protocols(|strategy| {
            use std::thread;
            let drops = Arc::new(AtomicUsize::new(0));
            let total = Arc::new(AtomicUsize::new(0));
            let scheme = Ebr::with_fence_strategy(
                SmrConfig::default()
                    .with_max_threads(4)
                    .with_scan_threshold(16),
                strategy,
            );
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    let scheme = Arc::clone(&scheme);
                    let drops = Arc::clone(&drops);
                    let total = Arc::clone(&total);
                    thread::spawn(move || {
                        let mut handle = scheme.register();
                        for _ in 0..500 {
                            handle.begin_op();
                            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
                            unsafe { retire_box(&mut handle, tracked(&drops)) };
                            total.fetch_add(1, Ordering::SeqCst);
                            handle.end_op();
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            drop(scheme);
            assert_eq!(drops.load(Ordering::SeqCst), total.load(Ordering::SeqCst));
        });
    }

    #[test]
    fn scheme_reports_name_and_config() {
        under_both_protocols(|strategy| {
            let scheme = Ebr::with_fence_strategy(SmrConfig::default(), strategy);
            assert_eq!(scheme.name(), "ebr");
            assert!(scheme.config().max_threads >= 1);
        });
    }
}
