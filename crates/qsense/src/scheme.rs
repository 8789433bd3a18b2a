//! The QSense scheme object and per-thread handle (paper Algorithm 5): the
//! switch between `qsbr`'s epoch part and `hazard`'s hazard-pointer part.

use crate::path::{FallbackFlag, Path, PresenceFlag};
use hazard::{hp_scan, HpSlots, OwnedSlots};
use qsbr::{grace_drain, EpochDomain, EpochLimbo, EpochRecord};
use reclaim_core::{
    BarrierLedger, CachePadded, CapacityExhausted, FenceStrategy, HandleCore, HandleTelemetry,
    NodeCache, PtrScratch, Registry, RetiredPtr, SchemeCore, SegPool, SlotId, Smr, SmrConfig,
    SmrHandle, StatStripe,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-thread shared record: everything other threads may inspect.
///
/// QSense keeps *both* schemes' per-thread state up to date at all times (paper
/// §5.2): hazard pointers and retire stamps are maintained even on the fast path
/// so that a switch to the fallback path finds every hazardous reference protected,
/// and the epoch record is maintained even on the fallback path so that switching
/// back to QSBR is immediate.
pub(crate) struct QsenseRecord {
    hps: HpSlots,
    epoch: EpochRecord,
    presence: PresenceFlag,
    /// Timestamp (scheme clock) of the owner's last sign of activity; drives the
    /// eviction extension (paper §5.2, future work).
    last_active: AtomicU64,
    /// Eviction flag, tagged with the registry **generation** of the tenancy it
    /// applies to: 0 means no eviction; a nonzero value is the (odd) generation
    /// the evictor observed before its staleness check. The flag is *effective*
    /// only while it equals the slot's current generation — a flag planted by an
    /// evictor that raced a handle drop carries a dead generation and is ignored
    /// by every reader, which closes the old residual window where a stranded
    /// flag could be mistaken for an eviction of the slot's next tenant (the
    /// matching counter increment can still linger briefly; eviction sweeps
    /// retract dead-generation flags on vacant slots). While effective, the owner no
    /// longer counts towards the all-processes-active check or towards grace
    /// periods, and every fast-path free falls back to the Cadence check (barrier
    /// coverage + hazard pointers) for as long as any thread is in this state.
    evicted: AtomicU64,
}

impl QsenseRecord {
    fn new(k: usize) -> Self {
        Self {
            hps: HpSlots::new(k),
            epoch: EpochRecord::new(),
            presence: PresenceFlag::new(),
            last_active: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Marks the owner as active right now: sets the presence flag, refreshes the
    /// activity timestamp and clears any standing eviction (only the owner ever
    /// clears its own eviction, and only from a point where it holds no
    /// references). Returns `true` when a standing eviction was lifted — the
    /// caller then balances the scheme's global eviction counter.
    ///
    /// The common case pays one relaxed load and no shared store for the eviction
    /// check; only when the flag is actually set does the owner issue the swap
    /// (which also arbitrates the benign race with a concurrent evictor so the
    /// counter moves exactly once per lifted eviction).
    fn mark_active(&self, now: u64) -> bool {
        self.presence.set_active();
        self.last_active.store(now, Ordering::Release);
        self.evicted.load(Ordering::Relaxed) != 0 && self.clear_eviction()
    }

    /// Clears the eviction flag regardless of which generation it tags; `true`
    /// if it was set (the caller owns the matching decrement of the scheme's
    /// eviction counter). Clearing a dead-generation flag is exactly how a
    /// re-registered slot's owner balances the stranded increment of an evictor
    /// that lost the race with its predecessor's drop.
    fn clear_eviction(&self) -> bool {
        self.evicted.swap(0, Ordering::AcqRel) != 0
    }

    /// Whether the record carries an eviction *effective for* the tenancy
    /// identified by `gen` (the slot's current registry generation). Acquire
    /// pairs with the evictor's release: observing the flag implies observing
    /// the counter increment that preceded it (see
    /// [`QSense::evict_unresponsive`]).
    fn is_evicted(&self, gen: u64) -> bool {
        self.evicted.load(Ordering::Acquire) == gen
    }
}

/// The QSense hybrid reclamation scheme (the paper's primary contribution).
///
/// QSense owns the strongest limbo-budget lever of any scheme here: when limbo
/// bytes cross the budget on the fast path, the hybrid's own fallback switch
/// is tripped early — QSBR-style grace periods are exactly what a stalled
/// thread stalls, and the Cadence scan the fallback path runs needs no
/// cooperation.
pub struct QSense {
    core: Arc<SchemeCore<PtrScratch>>,
    registry: Registry<QsenseRecord>,
    /// The fast path's scheme side (`qsbr`'s), run over `registry`.
    epochs: EpochDomain,
    /// Number of currently evicted registered threads. Kept so the fast path's
    /// "may I free this bucket outright?" decision is **one load** instead of the
    /// O(N) registry sweep it used to be; the count is maintained conservatively
    /// (incremented before an eviction becomes visible, decremented after it is
    /// cleared), so a racing reader can only over-count — which merely routes a
    /// free through the always-safe Cadence check.
    evicted_threads: CachePadded<AtomicU64>,
    fallback: FallbackFlag,
    /// Who issues the barrier behind the hazard pointers — a rooster, or the
    /// readers — and when one has: what every Cadence scan frees by.
    ledger: BarrierLedger,
}

impl QSense {
    /// Creates a QSense scheme whose fallback path runs the protocol this
    /// process's kernel supports ([`FenceStrategy::detect_rooster`]): Cadence
    /// behind the process rooster, or — where the kernel has no process-wide
    /// barrier for a rooster to issue — reader-fenced hazard pointers.
    pub fn new(config: SmrConfig) -> Arc<Self> {
        Self::with_fence_strategy(config, FenceStrategy::detect_rooster())
    }

    /// [`new`](Self::new) with the protocol named instead of detected: for
    /// tests, which run both on every kernel. (Naming scanner-barrier, which
    /// `new` never picks, is safe and useless: one scan pays, none after.)
    pub fn with_fence_strategy(config: SmrConfig, strategy: FenceStrategy) -> Arc<Self> {
        let registry = Registry::new(config.max_threads, |_| {
            QsenseRecord::new(config.hp_per_thread)
        });
        let ledger = BarrierLedger::new(strategy, config.rooster_interval);
        Arc::new(Self {
            core: SchemeCore::new("qsense", config),
            registry,
            epochs: EpochDomain::new(),
            evicted_threads: CachePadded::new(AtomicU64::new(0)),
            fallback: FallbackFlag::new(),
            ledger,
        })
    }

    /// Creates a QSense scheme with default configuration.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(SmrConfig::default())
    }

    /// The configuration this scheme was created with.
    pub fn config(&self) -> &SmrConfig {
        self.core.config()
    }

    /// Which path the scheme is currently on.
    pub fn current_path(&self) -> Path {
        self.fallback.load()
    }

    /// The current global epoch (fast-path diagnostics).
    pub fn current_epoch(&self) -> u64 {
        self.epochs.current()
    }

    /// The scheme's barrier ledger (diagnostics; tests tick it).
    pub fn ledger(&self) -> &BarrierLedger {
        &self.ledger
    }

    /// True if every registered, non-evicted thread has set its presence flag since
    /// the last reset (paper: `all_processes_active()`). Runs only while deciding
    /// to leave the fallback path, so the O(N) sweep is off the fast path; its
    /// shard tally goes to `tally`, the asking handle's stripe.
    fn all_processes_active(&self, tally: &StatStripe) -> bool {
        self.registry.iter_claimed(tally).all(|(i, record)| {
            record.is_evicted(self.registry.generation(i)) || record.presence.is_active()
        })
    }

    fn reset_presence(&self) {
        for (_, record) in self.registry.iter_all() {
            record.presence.reset();
        }
    }

    /// Number of currently evicted registered threads (extension diagnostics).
    pub fn evicted_count(&self) -> usize {
        self.evicted_threads.load(Ordering::Acquire) as usize
    }

    /// True if any registered thread is currently evicted.
    ///
    /// This runs on the fast path (every epoch-adoption bucket free), so it is a
    /// single shared load of the cache-padded eviction counter — the earlier
    /// full-registry sweep made every fast-path free O(N). Acquire (a plain load
    /// on x86/TSO) pairs with the evictor's release so the counter can lag only
    /// in the conservative direction: the increment is ordered *before* the
    /// per-record flag becomes visible, and the decrement *after* it is cleared,
    /// so any state in which a record still reads evicted is a state in which the
    /// counter is already nonzero.
    #[inline]
    fn any_evicted(&self) -> bool {
        self.evicted_threads.load(Ordering::Acquire) != 0
    }

    /// Marks activity on `record`, balancing the eviction counter if a standing
    /// eviction was lifted.
    fn note_activity(&self, record: &QsenseRecord) {
        if record.mark_active(self.config().clock.now()) {
            self.evicted_threads.fetch_sub(1, Ordering::Release);
        }
    }

    /// Eviction sweep (extension, paper §5.2 future work): marks as evicted every
    /// registered thread whose last sign of activity is older than the configured
    /// eviction timeout. Called while the system is stuck on the fallback path.
    ///
    /// Evicting a thread never endangers safety — an evicted thread's references are
    /// covered by its hazard pointers plus deferred reclamation, which every free
    /// consults for as long as any thread is evicted — it only affects which threads
    /// the progress decisions wait for. Returns the number of threads newly evicted.
    fn evict_unresponsive(&self) -> usize {
        let Some(timeout) = self.config().eviction_timeout_nanos() else {
            return 0;
        };
        let now = self.config().clock.now();
        let mut evicted = 0;
        for (i, record) in self.registry.iter_all() {
            // Snapshot the slot's generation *before* the staleness check: the
            // eviction is planted tagged with this value and re-validated after
            // the CAS, so a handle drop (and possible re-registration) slipping
            // into the gap is detected instead of stranding a flag.
            let gen = self.registry.generation(i);
            // Dead-generation flags — strands of an evictor whose plant landed
            // between a dying owner's final `mark_active` and its release, or
            // of an evictor that died between its plant and its own post-CAS
            // retraction — are retracted here, flag and counter **in the same
            // pass**, so a strand heals in exactly one sweep. This covers both
            // a vacant slot (even `gen`) and a slot that was already re-claimed
            // (odd `gen`, where previously only the successor's next
            // `mark_active` would rebalance). Only values *below* the observed
            // generation are provably dead — a value equal to an odd `gen` is a
            // live eviction of the current tenant and must not be disturbed —
            // and the exact-value CAS loses to any concurrent owner clear
            // (which then owns the matching decrement).
            let stale = record.evicted.load(Ordering::Acquire);
            if stale != 0
                && stale < gen
                && record
                    .evicted
                    .compare_exchange(stale, 0, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                self.evicted_threads.fetch_sub(1, Ordering::Relaxed);
            }
            if gen.is_multiple_of(2) {
                // Vacant slot: nothing to evict.
                continue;
            }
            if !record.is_evicted(gen)
                && now.saturating_sub(record.last_active.load(Ordering::Acquire)) > timeout
            {
                // Increment the counter *before* publishing the flag: a fast-path
                // thread that observes the flagged record (or an epoch advance
                // justified by it) is then guaranteed to observe a nonzero counter.
                // If another evictor wins the flag race, take the increment back —
                // the transient over-count only routes frees through the
                // always-safe Cadence check.
                self.evicted_threads.fetch_add(1, Ordering::Relaxed);
                if record
                    .evicted
                    .compare_exchange(0, gen, Ordering::Release, Ordering::Relaxed)
                    .is_ok()
                {
                    if self.registry.generation(i) != gen {
                        // The slot changed hands between the staleness check and
                        // the flag CAS: the flag we just planted tags a dead
                        // generation, so no reader will honour it. Retract it —
                        // but only our exact value; a successor tenancy's
                        // legitimate eviction would carry a different generation
                        // and must not be disturbed. If the retraction CAS fails,
                        // the new owner already cleared the flag (and decremented
                        // the counter) through `mark_active`.
                        if record
                            .evicted
                            .compare_exchange(gen, 0, Ordering::AcqRel, Ordering::Relaxed)
                            .is_ok()
                        {
                            self.evicted_threads.fetch_sub(1, Ordering::Relaxed);
                        }
                    } else {
                        evicted += 1;
                    }
                } else {
                    self.evicted_threads.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
        evicted
    }
}

impl Smr for QSense {
    type Handle = QSenseHandle;
    type Scratch = PtrScratch;

    fn try_register(self: &Arc<Self>) -> Result<QSenseHandle, CapacityExhausted> {
        let (slot, core) = self.core.register(&self.registry, |config| {
            (SegPool::new(), HpSlots::snapshot_scratch(config))
        })?;
        let record = self.registry.get_mine(slot);
        let limbo = EpochLimbo::register(&self.epochs, &record.epoch);
        self.note_activity(record);
        Ok(QSenseHandle {
            // SAFETY: the handle's `Arc<QSense>` keeps the registry alive, and
            // the strategy is the ledger's.
            hps: unsafe { record.hps.owner(self.ledger.strategy()) },
            scheme: Arc::clone(self),
            slot,
            core,
            limbo,
            prev_seen_path: Path::Fast,
        })
    }

    fn core(&self) -> &SchemeCore<PtrScratch> {
        &self.core
    }
}

/// Per-thread handle for [`QSense`]: both parts' handle sides, and a path.
///
/// The limbo holds only nodes this scheme's handles retired, each protected
/// through `OwnedSlots` of the ledger's strategy and stamped from the ledger
/// at its retire, **on either path** (§5.2): [`hp_scan`]'s contract, at all
/// three call sites. The strategy is never scanner-barrier, so the newest
/// stamp is not consulted.
pub struct QSenseHandle {
    scheme: Arc<QSense>,
    slot: SlotId,
    /// This handle's hazard pointers: the writer's view of its record's `hps`.
    hps: OwnedSlots,
    /// Its retire counter is `free_node_later_call_count` in Algorithm 5.
    core: HandleCore<PtrScratch>,
    /// The fast path's limbo lists, local epoch and `call_count`; scanned as a
    /// whole by the fallback path ("QSBR's limbo_list becomes the
    /// removed_nodes_list scanned by Cadence", paper §5.2).
    limbo: EpochLimbo,
    /// `prev_seen_fallback_flag` in Algorithm 5.
    prev_seen_path: Path,
}

impl QSenseHandle {
    fn record(&self) -> &QsenseRecord {
        self.scheme.registry.get_mine(self.slot)
    }

    /// The path this handle last observed (for tests and diagnostics).
    pub fn last_seen_path(&self) -> Path {
        self.prev_seen_path
    }

    /// The fast path: `qsbr`'s quiescent state, with the two things the
    /// eviction extension adds to it. Grace periods do not cover evicted
    /// threads: they count as confirmed, and while any thread is evicted a
    /// matured bucket is freed through the Cadence condition instead (covered
    /// by a completed barrier + not hazard-pointer protected), which covers
    /// evicted and non-evicted threads alike — so excluding them is safe. An
    /// eviction lifted mid-pass is equally safe: lifting happens only at a
    /// reference-free operation boundary, which is precisely a quiescent point.
    fn fast_path(&mut self) {
        let scheme = &*self.scheme;
        let (registry, ledger) = (&scheme.registry, &scheme.ledger);
        let mine = &registry.get_mine(self.slot).epoch;
        let epoch_of = |i, record: &QsenseRecord| {
            (!record.is_evicted(registry.generation(i))).then(|| record.epoch.load())
        };
        let (limbo, stats) = (&mut self.limbo, self.core.stats());
        let matured = limbo.quiescent_state(stats, &scheme.epochs, mine, registry, epoch_of);
        let Some(bucket) = matured else { return };
        if scheme.any_evicted() {
            let (core, bucket) = (&mut self.core, std::slice::from_mut(bucket));
            // SAFETY: a bucket of the limbo, which is as the type says.
            unsafe { hp_scan(core, registry, |r| &r.hps, bucket, ledger, 0) };
        } else {
            // SAFETY: the bucket just handed back, and (Property 5 of the
            // paper) its grace period counted every registered thread, since
            // none is evicted.
            unsafe { grace_drain(&mut self.core, bucket) };
        }
    }

    /// The body of `manage_qsense_state` once the batching threshold fires
    /// (Algorithm 5, lines 18–34).
    fn manage_state(&mut self) {
        // Signal that this thread is active (and lift any eviction of this thread —
        // it holds no references here, so counting it again is safe).
        self.scheme.note_activity(self.record());
        match self.scheme.fallback.load() {
            Path::Fast => {
                // Common case: run the fast path.
                self.fast_path();
                self.prev_seen_path = Path::Fast;
            }
            Path::Fallback => {
                // Extension: while stuck on the fallback path, evict threads that
                // have been silent for longer than the configured timeout so that a
                // permanently failed thread cannot pin the system in fallback mode
                // forever (disabled unless `eviction_timeout` is set).
                self.scheme.evict_unresponsive();
                // Try to switch back to the fast path if everyone (still counted) is
                // active again.
                if self.scheme.all_processes_active(self.core.stats())
                    && self.scheme.fallback.trigger_fast_path()
                {
                    self.core.stats().add_fast_path_switch();
                    // Start a fresh observation window for the next fallback episode.
                    self.scheme.reset_presence();
                    self.prev_seen_path = Path::Fast;
                    self.fast_path();
                } else {
                    self.prev_seen_path = Path::Fallback;
                }
            }
        }
    }
}

impl SmrHandle for QSenseHandle {
    fn begin_op(&mut self) {
        // `manage_qsense_state`: batch the real work, once every Q calls
        // (Algorithm 5, lines 13–17).
        if self.limbo.due(self.core.config().quiescence_threshold) {
            self.manage_state();
        }
    }

    fn end_op(&mut self) {}

    #[inline]
    fn protect(&mut self, index: usize, ptr: *mut u8) {
        // Hazard pointers are maintained on *both* paths (paper §4.1: protections
        // from the fast path must already be in place when the system switches to
        // the fallback path), and behind a rooster without fences (§5.1: rooster
        // wake-ups + deferred reclamation make them visible) — exactly as in Cadence.
        self.hps.protect(index, ptr);
    }

    fn clear_protections(&mut self) {
        self.hps.clear_all();
    }

    unsafe fn retire(&mut self, node: RetiredPtr) {
        // `free_node_later` (Algorithm 5, lines 36–61). The stamp — the ticket
        // of the last barrier started before now, after the caller's unlink —
        // is recorded regardless of the current path (§5.2).
        let scheme = &*self.scheme;
        let (registry, ledger) = (&scheme.registry, &scheme.ledger);
        // SAFETY: forwarded from the caller's contract.
        unsafe { self.core.retire(self.limbo.current(), node, ledger.stamp()) };

        // Running in fallback mode: all three limbo lists are scanned, by
        // Cadence's rule (Algorithm 5, lines 45–47).
        let scan_all = |core: &mut HandleCore<PtrScratch>, limbo: &mut EpochLimbo| {
            // SAFETY: the limbo is as the type says.
            unsafe { hp_scan(core, registry, |r| &r.hps, limbo.bags(), ledger, 0) }
        };
        let seen = scheme.fallback.load();
        if seen == Path::Fallback && self.core.scan_due() {
            scan_all(&mut self.core, &mut self.limbo);
            self.prev_seen_path = Path::Fallback;
        } else if self.prev_seen_path == Path::Fallback && seen == Path::Fast {
            // Switch back to the fast path was triggered by another thread.
            self.fast_path();
            self.prev_seen_path = Path::Fast;
        } else if self.prev_seen_path == Path::Fast
            && self.core.in_limbo() >= self.core.config().fallback_threshold
        {
            // This thread's limbo list has grown past C: quiescence has not been
            // possible for a while, so trigger the switch to the fallback path.
            if scheme.fallback.trigger_fallback() {
                self.core.stats().add_fallback_switch();
                scheme.reset_presence();
            }
            self.prev_seen_path = Path::Fallback;
            scan_all(&mut self.core, &mut self.limbo);
        } else {
            // Over the byte budget before the node-count fallback threshold C
            // fired — typically large payloads behind a stalled grace period.
            // QSense's escalation lever *is* its hybrid switch: trip the
            // fallback path early (the Cadence condition needs no cooperation
            // from a stalled thread), then scan all three lists right now. If
            // barriers not yet completed (or live protections) keep the bytes
            // pinned, the core sheds a little retire-side speed so limbo stops
            // compounding while the rooster catches up.
            let (limbo, prev) = (&mut self.limbo, &mut self.prev_seen_path);
            self.core.enforce_budget(|core| {
                if seen == Path::Fast && scheme.fallback.trigger_fallback() {
                    core.stats().add_fallback_switch();
                    scheme.core.governor().count_fallback_trip();
                    scheme.reset_presence();
                }
                *prev = Path::Fallback;
                scan_all(core, limbo)
            });
        }
    }

    fn flush(&mut self) {
        self.hps.publish_fence_count(self.core.stats());
        // Adopted leftovers of exited threads were unlinked before the
        // adoption, so the grace-period argument covers them from here on, and
        // the Cadence check by the stamps they carry.
        self.core.adopt_parked(self.limbo.current());
        // Give both paths a chance: cycle quiescent states (frees whole buckets if
        // the epoch can advance) and run one Cadence scan (frees covered, unprotected
        // nodes even if it cannot).
        for _ in 0..EpochLimbo::FLUSH_CYCLE {
            self.fast_path();
        }
        let (registry, ledger) = (&self.scheme.registry, &self.scheme.ledger);
        let (core, bags) = (&mut self.core, self.limbo.bags());
        // SAFETY: the limbo is as the type says.
        unsafe { hp_scan(core, registry, |r| &r.hps, bags, ledger, 0) };
        core.drain_ready();
    }

    fn ledger(&self) -> (usize, usize) {
        (self.core.in_limbo(), self.core.limbo_bytes())
    }

    fn telemetry_cursor(&mut self) -> HandleTelemetry<'_> {
        self.core.tele()
    }

    fn node_cache(&mut self) -> &mut NodeCache {
        &mut self.core.cache
    }
}

impl Drop for QSenseHandle {
    fn drop(&mut self) {
        self.hps.clear_all();
        self.flush();
        self.core.park(&mut self.limbo.take_all());
        // Refresh activity and lift any standing eviction *while still the slot
        // owner* — the record must never be touched after `release`, because a
        // successor thread may already own it (clearing a successor's eviction
        // from here would let the fast path free nodes the successor still
        // protects). The refreshed `last_active` also stops any evictor that has
        // not yet passed its staleness check from flagging this slot during the
        // remainder of the drop.
        self.scheme.note_activity(self.record());
        // Leaving the system: this thread must stop blocking both the epoch advance
        // check and the all-processes-active check, which releasing the slot does.
        //
        // An evictor preempted between its staleness check and its flag CAS across
        // this entire drop can still plant a flag around this release — but the
        // flag carries the generation the evictor observed, which the release
        // retires, so no reader ever honours it for a successor tenancy
        // (`is_evicted` compares against the current generation): the *unsafe*
        // half of the old residual window is closed exactly. The bookkeeping
        // half is merely transient rather than exact: a plant landing after the
        // `note_activity` above but before the release's generation bump passes
        // the evictor's own post-CAS re-check, stranding one counter increment
        // (conservative — fast-path frees route through the always-safe Cadence
        // check) until the next eviction sweep's dead-flag retraction (which
        // rebalances flag and counter in one pass, whether the slot is still
        // vacant or already re-claimed) or the slot's next registration.
        self.scheme.registry.release(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_maintains_hps_epoch_and_presence() {
        let record = QsenseRecord::new(2);
        // SAFETY: `record` outlives the view; nothing scans.
        let mut hps = unsafe { record.hps.owner(FenceStrategy::Rooster) };
        hps.protect(0, 0x10 as *mut u8);
        hps.protect(1, 0x20 as *mut u8);
        let mut out = Vec::new();
        record.hps.collect_into(&mut out);
        assert_eq!(out.len(), 2);
        hps.clear_all();
        out.clear();
        record.hps.collect_into(&mut out);
        assert!(out.is_empty());
        record.epoch.store(3);
        assert_eq!(record.epoch.load(), 3);
        record.presence.set_active();
        assert!(record.presence.is_active());
    }

    #[test]
    fn mark_active_lifts_an_eviction_exactly_once() {
        let record = QsenseRecord::new(1);
        let gen = 7; // any odd (claimed) generation
        assert!(!record.mark_active(10), "no standing eviction to lift");
        record.evicted.store(gen, Ordering::Release);
        assert!(record.is_evicted(gen));
        assert!(record.mark_active(20), "standing eviction must be lifted");
        assert!(!record.is_evicted(gen));
        assert!(!record.mark_active(30), "second call has nothing to lift");
        assert_eq!(record.last_active.load(Ordering::Acquire), 30);
    }

    #[test]
    fn eviction_flags_of_dead_generations_are_ignored_but_still_liftable() {
        let record = QsenseRecord::new(1);
        record.evicted.store(5, Ordering::Release);
        assert!(
            !record.is_evicted(7),
            "a flag tagged with a previous tenancy's generation must not be honoured"
        );
        assert!(record.is_evicted(5));
        // The current owner can still lift it (balancing the stray counter bump).
        assert!(record.mark_active(1));
        assert!(!record.is_evicted(5));
    }

    #[test]
    fn scheme_starts_on_the_fast_path() {
        let scheme = QSense::new(SmrConfig::default());
        assert_eq!(scheme.current_path(), Path::Fast);
        assert_eq!(scheme.name(), "qsense");
        assert_eq!(scheme.current_epoch(), 0);
        assert_eq!(scheme.evicted_count(), 0);
        assert!(!scheme.any_evicted());
    }

    #[test]
    fn presence_reset_clears_every_slot() {
        let scheme = QSense::new(SmrConfig::default().with_max_threads(3));
        let handles: Vec<_> = (0..3).map(|_| scheme.register()).collect();
        assert!(
            scheme.all_processes_active(scheme.core.orphan_stats()),
            "registration marks threads active"
        );
        scheme.reset_presence();
        assert!(!scheme.all_processes_active(scheme.core.orphan_stats()));
        drop(handles);
    }

    #[test]
    fn eviction_counter_tracks_evict_and_lift() {
        use reclaim_core::{Clock, ManualClock};
        use std::time::Duration;
        let manual = ManualClock::new();
        let scheme = QSense::new(
            SmrConfig::default()
                .with_max_threads(2)
                .with_eviction_timeout(Some(Duration::from_millis(1)))
                .with_clock(Clock::manual(manual.clone())),
        );
        let idle = scheme.register();
        let active = scheme.register();
        // Make the idle thread stale, refresh the active one.
        manual.advance(Duration::from_millis(5));
        scheme.note_activity(active.record());
        assert_eq!(scheme.evict_unresponsive(), 1);
        assert!(scheme.any_evicted());
        assert_eq!(scheme.evicted_count(), 1);
        // A second sweep finds nothing new.
        assert_eq!(scheme.evict_unresponsive(), 0);
        assert_eq!(scheme.evicted_count(), 1);
        // The idle thread coming back lifts its own eviction.
        scheme.note_activity(idle.record());
        assert!(!scheme.any_evicted());
        assert_eq!(scheme.evicted_count(), 0);
        drop(idle);
        drop(active);
    }

    /// The residual window the generation tags close: an evictor that snapshotted
    /// a slot's generation, then stalled across the owner's drop and a successor's
    /// registration, plants a flag tagged with the *dead* generation. The flag
    /// must not be honoured for the successor, and the counter must return to
    /// balance through the successor's normal activity path.
    #[test]
    fn stale_evictor_flag_on_a_rereigstered_slot_is_rejected_and_rebalanced() {
        let scheme = QSense::new(SmrConfig::default().with_max_threads(1));
        let stale_gen = {
            let first = scheme.register();
            scheme.registry.generation(first.slot.index())
        }; // first owner deregisters here
        let successor = scheme.register();
        let slot = successor.slot.index();
        let gen_now = scheme.registry.generation(slot);
        assert_eq!(gen_now, stale_gen + 2, "same slot, next tenancy");

        // Replay the stalled evictor's writes: increment, then the flag CAS with
        // the generation it observed before the turnover. The CAS itself succeeds
        // (the word was 0) — rejection happens at the generation comparison every
        // reader performs.
        scheme.evicted_threads.fetch_add(1, Ordering::Relaxed);
        let record = scheme.registry.get(slot);
        assert!(record
            .evicted
            .compare_exchange(0, stale_gen, Ordering::Release, Ordering::Relaxed)
            .is_ok());

        // No reader honours the dead-generation flag: the successor still counts
        // towards presence and grace periods.
        assert!(!record.is_evicted(gen_now));
        scheme.reset_presence();
        assert!(
            !scheme.all_processes_active(scheme.core.orphan_stats()),
            "successor must not be excluded by a stale flag"
        );

        // The counter transiently over-counts (conservative: frees route through
        // the Cadence check) until the successor's next activity lifts the stray
        // flag and rebalances it exactly.
        assert_eq!(scheme.evicted_count(), 1);
        scheme.note_activity(record);
        assert_eq!(scheme.evicted_count(), 0, "counter must rebalance");
        assert_eq!(record.evicted.load(Ordering::Acquire), 0);

        // A legitimate eviction of the successor still works afterwards.
        drop(successor);
        assert_eq!(scheme.evicted_count(), 0);
    }

    /// The bookkeeping half of the drop race: an evictor whose plant lands
    /// between the dying owner's final `mark_active` and the release passes its
    /// own post-CAS generation re-check, stranding a counter increment on the
    /// now-vacant slot. The next eviction sweep must retract it.
    #[test]
    fn eviction_sweep_retracts_counter_strands_on_vacant_slots() {
        use reclaim_core::{Clock, ManualClock};
        use std::time::Duration;
        let manual = ManualClock::new();
        let scheme = QSense::new(
            SmrConfig::default()
                .with_max_threads(1)
                .with_eviction_timeout(Some(Duration::from_millis(1)))
                .with_clock(Clock::manual(manual.clone())),
        );
        let stale_gen = {
            let handle = scheme.register();
            scheme.registry.generation(handle.slot.index())
        }; // owner deregisters; the slot is now vacant
           // Replay the raced evictor's plant against the vacant slot.
        scheme.evicted_threads.fetch_add(1, Ordering::Relaxed);
        let record = scheme.registry.get(0);
        record.evicted.store(stale_gen, Ordering::Release);
        assert_eq!(scheme.evicted_count(), 1, "stranded over-count");
        // The sweep evicts nobody (no claimed slots) but retracts the strand.
        assert_eq!(scheme.evict_unresponsive(), 0);
        assert_eq!(
            scheme.evicted_count(),
            0,
            "sweep must rebalance the counter"
        );
        assert_eq!(record.evicted.load(Ordering::Acquire), 0);
        // Idempotent: a second sweep changes nothing.
        assert_eq!(scheme.evict_unresponsive(), 0);
        assert_eq!(scheme.evicted_count(), 0);
    }

    /// The drop-race strand must heal in **exactly one sweep** even when the
    /// slot has already been re-claimed by a successor: the planting evictor
    /// died before its own retraction, the flag carries the dead generation,
    /// and the successor has not passed an operation boundary since — the
    /// sweep's dead-flag pass (not the successor's activity) rebalances.
    #[test]
    fn eviction_sweep_retracts_counter_strands_on_reclaimed_slots_in_one_sweep() {
        use reclaim_core::{Clock, ManualClock};
        use std::time::Duration;
        let manual = ManualClock::new();
        let scheme = QSense::new(
            SmrConfig::default()
                .with_max_threads(1)
                .with_eviction_timeout(Some(Duration::from_millis(1)))
                .with_clock(Clock::manual(manual.clone())),
        );
        let stale_gen = {
            let handle = scheme.register();
            scheme.registry.generation(handle.slot.index())
        }; // first owner deregisters
        let successor = scheme.register();
        let slot = successor.slot.index();
        let gen_now = scheme.registry.generation(slot);
        assert_eq!(gen_now, stale_gen + 2, "same slot, next tenancy");
        // Replay the dead evictor's writes against the re-claimed slot.
        scheme.evicted_threads.fetch_add(1, Ordering::Relaxed);
        let record = scheme.registry.get(slot);
        record.evicted.store(stale_gen, Ordering::Release);
        assert_eq!(scheme.evicted_count(), 1, "stranded over-count");
        assert!(!record.is_evicted(gen_now), "dead flag is never honoured");
        // One sweep heals both halves — without evicting the (fresh) successor.
        assert_eq!(scheme.evict_unresponsive(), 0);
        assert_eq!(scheme.evicted_count(), 0, "counter rebalanced in one sweep");
        assert_eq!(record.evicted.load(Ordering::Acquire), 0, "flag retracted");
        // The successor's tenancy is untouched: it can still be legitimately
        // evicted afterwards.
        manual.advance(Duration::from_millis(5));
        assert_eq!(scheme.evict_unresponsive(), 1);
        assert!(record.is_evicted(gen_now));
        assert_eq!(scheme.evicted_count(), 1);
        drop(successor);
        assert_eq!(scheme.evicted_count(), 0);
    }

    #[test]
    fn dropping_an_evicted_handle_balances_the_counter() {
        use reclaim_core::{Clock, ManualClock};
        use std::time::Duration;
        let manual = ManualClock::new();
        let scheme = QSense::new(
            SmrConfig::default()
                .with_max_threads(2)
                .with_eviction_timeout(Some(Duration::from_millis(1)))
                .with_clock(Clock::manual(manual.clone())),
        );
        let idle = scheme.register();
        let active = scheme.register();
        manual.advance(Duration::from_millis(5));
        scheme.note_activity(active.record());
        assert_eq!(scheme.evict_unresponsive(), 1);
        assert_eq!(scheme.evicted_count(), 1);
        drop(idle);
        assert_eq!(scheme.evicted_count(), 0, "drop must lift the eviction");
        drop(active);
    }
}
