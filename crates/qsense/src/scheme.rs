//! The QSense scheme object and per-thread handle (paper Algorithm 5): the
//! switch between `qsbr`'s epoch part and `hazard`'s hazard-pointer part.

use crate::path::{FallbackFlag, Path};
use hazard::{hp_scan, HpSlots, OwnedSlots};
use qsbr::{grace_drain, EpochLimbo, EpochRecord, GlobalEpoch, EPOCH_BUCKETS, OFFLINE};
use reclaim_core::{
    BarrierLedger, CachePadded, CapacityExhausted, CoreToken, Counter, FenceStrategy, HandleCore,
    Registry, RetiredPtr, SchemeCore, SlotId, Smr, SmrConfig, SmrHandle, StatStripe,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-thread shared record: everything other threads may inspect.
///
/// QSense keeps *both* schemes' per-thread state up to date at all times (paper
/// §5.2): hazard pointers and retire stamps are maintained even on the fast path
/// so that a switch to the fallback path finds every hazardous reference protected,
/// and the epoch record is maintained even on the fallback path so that switching
/// back to QSBR is immediate. The epoch word also holds the eviction extension's
/// state (`qsbr::EVICTED`, whose argument `EpochRecord`'s docs give).
pub(crate) struct QsenseRecord {
    hps: HpSlots,
    epoch: EpochRecord,
    /// The fallback episode the owner last saw at an operation boundary. It
    /// only decides when to leave the fallback path, never a free.
    seen_episode: AtomicU64,
    /// Timestamp (scheme clock) of the owner's last sign of activity; drives the
    /// eviction extension (paper §5.2, future work).
    last_active: AtomicU64,
}

impl QsenseRecord {
    fn new(k: usize) -> Self {
        Self {
            hps: HpSlots::new(k),
            epoch: EpochRecord::default(),
            seen_episode: AtomicU64::new(0),
            last_active: AtomicU64::new(0),
        }
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
    core: Arc<SchemeCore>,
    registry: Registry<QsenseRecord>,
    /// The fast path's scheme side (`qsbr`'s), confirmed over `registry`.
    global: GlobalEpoch,
    /// At least the number of epoch words that read `EVICTED` (`EpochRecord`'s
    /// docs). Kept so the fast path's "may I free this bucket outright?"
    /// decision is **one load**; a racing reader can only over-count, which
    /// merely routes a free through the always-safe Cadence check.
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
    /// tests, which run both on every kernel.
    ///
    /// # Panics
    ///
    /// On [`FenceStrategy::ScannerBarrier`], which `new` never picks. QSense's
    /// scans hand `hp_scan` no newest stamp, so once one barrier completes
    /// the ledger covers every later scan, none issues another, and a node
    /// retired after that barrier is never freed.
    pub fn with_fence_strategy(config: SmrConfig, strategy: FenceStrategy) -> Arc<Self> {
        assert!(
            strategy != FenceStrategy::ScannerBarrier,
            "QSense runs behind a rooster or reader-fenced, never scanner-barrier"
        );
        let registry = Registry::new(config.max_threads, |_| {
            QsenseRecord::new(config.hp_per_thread)
        });
        let ledger = BarrierLedger::new(strategy, config.rooster_interval);
        Arc::new(Self {
            core: SchemeCore::new("qsense", config),
            registry,
            global: GlobalEpoch::new(),
            evicted_threads: CachePadded::new(AtomicU64::new(0)),
            fallback: FallbackFlag::new(),
            ledger,
        })
    }

    /// Which path the scheme is currently on.
    pub fn current_path(&self) -> Path {
        self.fallback.load()
    }

    /// The current global epoch.
    #[cfg(test)]
    pub(crate) fn current_epoch(&self) -> u64 {
        self.global.load()
    }

    /// The scheme's barrier ledger (diagnostics; tests tick it).
    pub fn ledger(&self) -> &BarrierLedger {
        &self.ledger
    }

    /// True if every registered thread still counted (its epoch word holds an
    /// epoch) has seen the current fallback episode (paper:
    /// `all_processes_active()`). Runs only while deciding to leave the
    /// fallback path, so the O(N) sweep is off the fast path; its shard tally
    /// goes to `tally`, the asking handle's stripe.
    fn all_processes_active(&self, tally: &StatStripe) -> bool {
        let episode = self.fallback.episode();
        let seen = |r: &QsenseRecord| r.seen_episode.load(Ordering::Acquire) == episode;
        let mut claimed = self.registry.iter_claimed(tally);
        claimed.all(|(_, r)| r.epoch.epoch().is_none() || seen(r))
    }

    /// Number of currently evicted registered threads (extension diagnostics).
    pub fn evicted_count(&self) -> usize {
        self.evicted_threads.load(Ordering::Acquire) as usize
    }

    /// True if any registered thread is currently evicted.
    ///
    /// This runs on the fast path (every epoch-adoption bucket free), so it is a
    /// single shared load of the cache-padded eviction counter. Acquire (a plain
    /// load on x86/TSO) pairs with the evictor's release, so the counter can lag
    /// only in the conservative direction (`EpochRecord`'s docs).
    #[inline]
    fn any_evicted(&self) -> bool {
        self.evicted_threads.load(Ordering::Acquire) != 0
    }

    /// Takes one back from the eviction counter if `owed`: an owner's write
    /// replaced `EVICTED`, or an evictor's CAS failed.
    fn balance(&self, owed: bool) {
        if owed {
            self.evicted_threads.fetch_sub(1, Ordering::Release);
        }
    }

    /// Eviction sweep (extension, paper §5.2 future work): evicts every
    /// registered thread whose last sign of activity is older than the configured
    /// eviction timeout. Called while the system is stuck on the fallback path;
    /// its shard tally goes to `tally`, the calling handle's stripe.
    ///
    /// Evicting a thread never endangers safety — an evicted thread's references are
    /// covered by its hazard pointers plus deferred reclamation, which every free
    /// consults for as long as any thread is evicted — it only affects which threads
    /// the progress decisions wait for. Returns the number of threads newly evicted.
    fn evict_unresponsive(&self, tally: &StatStripe) -> usize {
        let Some(timeout) = self.config().eviction_timeout_nanos() else {
            return 0;
        };
        let now = self.config().clock.now();
        let silent = |r: &QsenseRecord| now.saturating_sub(r.last_active.load(Ordering::Acquire));
        let claimed = self.registry.iter_claimed(tally);
        let evicted = claimed
            .filter(|(_, r)| {
                let seen = r.epoch.epoch();
                seen.is_some_and(|seen| silent(r) > timeout && self.evict(r, seen))
            })
            .count();
        tally.add(Counter::Evictions, evicted as u64);
        evicted
    }

    /// One eviction: `record`'s epoch word from the epoch `seen` to `EVICTED`,
    /// counted before the CAS and taken back if it fails.
    fn evict(&self, record: &QsenseRecord, seen: u64) -> bool {
        self.evicted_threads.fetch_add(1, Ordering::Relaxed);
        let evicted = record.epoch.evict(seen);
        self.balance(!evicted);
        evicted
    }
}

impl Smr for QSense {
    type Handle = QSenseHandle;

    fn try_register(self: &Arc<Self>) -> Result<QSenseHandle, CapacityExhausted> {
        // The fallback scan's snapshot, at its worst case: `N·K` addresses.
        let config = self.core.config();
        let words = config.max_threads * config.hp_per_thread;
        let (slot, core) = self.core.register(&self.registry, words)?;
        let record = self.registry.get_mine(slot);
        let (limbo, lifted) = EpochLimbo::register(&self.global, &record.epoch);
        let mut handle = QSenseHandle {
            // SAFETY: the handle's `Arc<QSense>` keeps the registry alive, and
            // the strategy is the ledger's.
            hps: unsafe { record.hps.owner(self.ledger.strategy()) },
            scheme: Arc::clone(self),
            slot,
            core,
            limbo,
            ungraced: 0,
            prev_seen_path: Path::Fast,
        };
        handle.rejoin(lifted);
        handle.note_activity();
        Ok(handle)
    }

    fn core(&self) -> &SchemeCore {
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
    core: HandleCore,
    /// The fast path's limbo lists, local epoch and `call_count`; scanned as a
    /// whole by the fallback path ("QSBR's limbo_list becomes the
    /// removed_nodes_list scanned by Cadence", paper §5.2).
    limbo: EpochLimbo,
    /// Epoch adoptions left whose bucket may hold a node retired while this
    /// thread was out of the count, so whose grace period proves nothing
    /// ([`fast_path`](Self::fast_path)).
    ungraced: usize,
    /// `prev_seen_fallback_flag` in Algorithm 5.
    prev_seen_path: Path,
}

impl QSenseHandle {
    fn record(&self) -> &QsenseRecord {
        self.scheme.registry.get_mine(self.slot)
    }

    /// Marks this thread active in the current episode and lifts an eviction
    /// of it. Only the owner lifts, at an operation boundary, where it holds
    /// no references.
    fn note_activity(&mut self) {
        let (scheme, record) = (&*self.scheme, self.record());
        let (episode, now) = (scheme.fallback.episode(), scheme.config().clock.now());
        record.seen_episode.store(episode, Ordering::Release);
        record.last_active.store(now, Ordering::Release);
        self.rejoin(self.limbo.lift(&record.epoch));
    }

    /// Books an owner's write that replaced `EVICTED` (if `lifted`): one off
    /// the eviction counter, and the next [`EPOCH_BUCKETS`] adoptions, one per
    /// bucket, freed by the Cadence check instead of their grace period.
    fn rejoin(&mut self, lifted: bool) {
        if lifted {
            self.scheme.balance(true);
            self.ungraced = EPOCH_BUCKETS;
        }
    }

    /// The fast path: `qsbr`'s quiescent state, with the two things the
    /// eviction extension adds to it. Grace periods do not cover evicted
    /// threads: they count as confirmed, and while any thread is evicted a
    /// matured bucket is freed through the Cadence condition instead (covered
    /// by a completed barrier + not hazard-pointer protected), which covers
    /// evicted and non-evicted threads alike — so excluding them is safe. An
    /// eviction lifted mid-pass is equally safe: lifting happens only at a
    /// reference-free operation boundary, which is precisely a quiescent point.
    ///
    /// A thread's *own* eviction needs more: out of the count, it kept
    /// retiring as the epoch ran past its local one, so no grace period
    /// proves those nodes. Its lift, or the adoption that replaced `EVICTED`,
    /// comes before the next hand-back (`rejoin`), and the [`EPOCH_BUCKETS`]
    /// hand-backs from there (one per bucket; an adoption that jumps epochs
    /// follows an eviction) go through the Cadence check. What they leave was
    /// retired before the first, so it has had a grace period when its bucket
    /// comes round again.
    fn fast_path(&mut self) {
        let scheme = &*self.scheme;
        let mine = &scheme.registry.get_mine(self.slot).epoch;
        let (limbo, stats) = (&mut self.limbo, self.core.stats());
        let adopted =
            limbo.quiescent_state(stats, &scheme.global, mine, &scheme.registry, |r| &r.epoch);
        let Some((_, lifted)) = adopted else {
            return;
        };
        self.rejoin(lifted);
        let graced = self.ungraced == 0;
        self.ungraced = self.ungraced.saturating_sub(1);
        // The bucket of the local epoch is the one just handed back.
        let (scheme, bucket) = (&*self.scheme, self.limbo.current());
        let (registry, ledger) = (&scheme.registry, &scheme.ledger);
        if !graced || scheme.any_evicted() {
            let (core, bucket) = (&mut self.core, std::slice::from_mut(bucket));
            // SAFETY: a bucket of the limbo, which is as the type says.
            unsafe { hp_scan(core, registry, |r| &r.hps, bucket, ledger, 0) };
        } else {
            // SAFETY: the bucket just handed back, and (Property 5 of the
            // paper) its grace period counted every registered thread, since
            // none is evicted and this one has been counted since its nodes
            // were retired.
            unsafe { grace_drain(&mut self.core, bucket) };
        }
    }

    /// The body of `manage_qsense_state` once the batching threshold fires
    /// (Algorithm 5, lines 18–34).
    fn manage_state(&mut self) {
        // Signal that this thread is active (and lift any eviction of this thread —
        // it holds no references here, so counting it again is safe).
        self.note_activity();
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
                self.scheme.evict_unresponsive(self.core.stats());
                // Try to switch back to the fast path if everyone (still counted) is
                // active again.
                if self.scheme.all_processes_active(self.core.stats())
                    && self.scheme.fallback.trigger_fast_path()
                {
                    self.core.stats().add(Counter::FastPathSwitches, 1);
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
        let scan_all = |core: &mut HandleCore, limbo: &mut EpochLimbo| {
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
                self.core.stats().add(Counter::FallbackSwitches, 1);
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
                    let stats = core.stats();
                    stats.add(Counter::FallbackSwitches, 1);
                    stats.add(Counter::FallbackTrips, 1);
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

    fn core(&self, _: CoreToken) -> &HandleCore {
        &self.core
    }

    fn core_mut(&mut self, _: CoreToken) -> &mut HandleCore {
        &mut self.core
    }
}

impl Drop for QSenseHandle {
    fn drop(&mut self) {
        self.hps.clear_all();
        self.flush();
        self.core.park(&mut self.limbo.take_all());
        // Leaving the system: OFFLINE stops this slot blocking the epoch advance
        // and the all-processes-active check, and no evictor lands on it.
        self.scheme.balance(self.record().epoch.adopt(OFFLINE));
        self.scheme.registry.release(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsbr::EVICTED;

    #[test]
    fn record_maintains_hps_and_epoch() {
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
        assert_eq!(record.epoch.load(), OFFLINE, "records start offline");
        record.epoch.adopt(3);
        assert_eq!(record.epoch.epoch(), Some(3));
    }

    #[test]
    fn mark_active_lifts_an_eviction_exactly_once() {
        let scheme = QSense::new(SmrConfig::default().with_max_threads(1));
        let mut handle = scheme.register();
        let record = scheme.registry.get(0);
        handle.note_activity();
        assert_eq!(scheme.evicted_count(), 0, "no standing eviction to lift");
        assert!(scheme.evict(record, 0));
        assert_eq!((record.epoch.load(), scheme.evicted_count()), (EVICTED, 1));
        handle.note_activity();
        assert_eq!(
            record.epoch.epoch(),
            Some(0),
            "the lift restores the local epoch"
        );
        assert_eq!(scheme.evicted_count(), 0);
        handle.note_activity();
        assert_eq!(scheme.evicted_count(), 0, "second call has nothing to lift");
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
    fn a_new_episode_resets_every_slot() {
        let scheme = QSense::new(SmrConfig::default().with_max_threads(3));
        let mut handles: Vec<_> = (0..3).map(|_| scheme.register()).collect();
        let all_active = || scheme.all_processes_active(scheme.core.orphan_stats());
        assert!(all_active(), "registration marks threads active");
        assert!(scheme.fallback.trigger_fallback());
        assert!(!all_active(), "no thread has seen the new episode");
        for handle in &mut handles[1..] {
            handle.note_activity();
        }
        assert!(!all_active(), "one thread has still not seen it");
        handles[0].note_activity();
        assert!(all_active());
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
        let mut idle = scheme.register();
        let mut active = scheme.register();
        // Make the idle thread stale, refresh the active one.
        manual.advance(Duration::from_millis(5));
        active.note_activity();
        assert_eq!(scheme.evict_unresponsive(scheme.core.orphan_stats()), 1);
        assert!(scheme.any_evicted());
        assert_eq!(scheme.evicted_count(), 1);
        // A second sweep finds nothing new.
        assert_eq!(scheme.evict_unresponsive(scheme.core.orphan_stats()), 0);
        assert_eq!(scheme.evicted_count(), 1);
        // The idle thread coming back lifts its own eviction.
        idle.note_activity();
        assert!(!scheme.any_evicted());
        assert_eq!(scheme.evicted_count(), 0);
        drop(idle);
        drop(active);
    }

    /// An evictor that read an owner's epoch, then stalled across the owner's
    /// drop, finds an OFFLINE word: its CAS fails and takes its increment back,
    /// with no sweep to retract anything.
    #[test]
    fn a_replayed_eviction_of_a_dropped_owner_fails() {
        let scheme = QSense::new(SmrConfig::default().with_max_threads(1));
        let seen = {
            let handle = scheme.register();
            handle
                .record()
                .epoch
                .epoch()
                .expect("an owner holds an epoch")
        }; // the owner drops here
        let record = scheme.registry.get(0);
        assert_eq!(record.epoch.load(), OFFLINE);
        assert!(!scheme.evict(record, seen));
        assert_eq!(scheme.evicted_count(), 0);
        assert_eq!(record.epoch.load(), OFFLINE);
    }

    /// The same stalled evictor against a successor registered in the slot at
    /// the epoch it saw (ABA): the CAS lands and evicts a live thread, which is
    /// safe, and the successor's next operation boundary lifts it.
    #[test]
    fn a_replayed_eviction_of_a_successor_at_the_same_epoch_is_lifted_by_it() {
        let scheme = QSense::new(SmrConfig::default().with_max_threads(2));
        // Registered at epoch 0 and never quiescent: the epoch stops at 1.
        let _blocker = scheme.register();
        let mut first = scheme.register();
        first.flush();
        let (slot, seen) = (first.slot, first.record().epoch.epoch());
        assert_eq!(seen, Some(1));
        drop(first);
        let mut successor = scheme.register();
        assert_eq!(successor.slot, slot, "same slot");
        assert_eq!(successor.record().epoch.epoch(), seen, "same epoch");
        assert!(scheme.evict(successor.record(), 1), "the CAS is honoured");
        assert_eq!(scheme.evicted_count(), 1);
        successor.manage_state();
        assert_eq!(scheme.evicted_count(), 0, "the successor lifted it");
        assert_eq!(successor.record().epoch.epoch(), seen);
    }

    /// An evictor whose staleness check came before the owner's refresh can
    /// CAS between the owner's lift and its epoch adoption; the adoption's swap
    /// replaces `EVICTED` and balances the counter.
    #[test]
    fn an_eviction_between_the_lift_and_the_adoption_is_balanced_by_the_adoption() {
        let scheme = QSense::new(SmrConfig::default().with_max_threads(1));
        let mut handle = scheme.register();
        handle.fast_path(); // alone: confirms epoch 0 and advances it
        assert_eq!(scheme.current_epoch(), 1);
        handle.note_activity(); // the lift: nothing to lift
        assert!(scheme.evict(handle.record(), 0));
        assert_eq!(scheme.evicted_count(), 1);
        handle.fast_path(); // the adoption
        assert_eq!(handle.record().epoch.epoch(), Some(1));
        assert_eq!(scheme.evicted_count(), 0, "the adoption balanced it");
    }

    /// A thread evicted while the epoch runs ahead keeps retiring, and no
    /// grace period proves those nodes: a node another thread protects
    /// survives the adoption that hands its bucket back — whether the lift or
    /// the adoption ends the eviction, and whether that adoption or a later
    /// one hands the bucket back.
    #[test]
    fn a_node_retired_while_evicted_waits_for_the_hazard_pointers() {
        use reclaim_core::retire_box;
        use std::sync::atomic::AtomicUsize;
        use std::time::Duration;
        struct Tracked(Arc<AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        for (ahead, lift_first) in [(3, false), (3, true), (2, false), (2, true)] {
            let config = SmrConfig::default()
                .with_max_threads(2)
                .with_rooster_interval(Duration::MAX);
            let scheme = QSense::with_fence_strategy(config, FenceStrategy::Rooster);
            let (mut evicted, mut reader) = (scheme.register(), scheme.register());
            assert!(scheme.evict(evicted.record(), 0));
            while scheme.current_epoch() < ahead {
                reader.fast_path();
            }
            let drops = Arc::new(AtomicUsize::new(0));
            let node = Box::into_raw(Box::new(Tracked(Arc::clone(&drops))));
            reader.hps.protect(0, node.cast());
            // SAFETY: fresh from `Box::into_raw`, never linked, retired once.
            unsafe { retire_box(&mut evicted, node) }; // into bucket 0
                                                       // SAFETY: one thread: no store buffer holds a publication.
            assert!(unsafe { scheme.ledger().issue(|| true) }, "covered");
            if lift_first {
                evicted.note_activity();
            }
            while evicted.record().epoch.epoch() != Some(3) {
                evicted.fast_path(); // epoch 3 hands bucket 0 back
                reader.fast_path();
            }
            evicted.core.drain_ready();
            let case = format!("{ahead} epochs ahead, lift first: {lift_first}");
            assert_eq!(drops.load(Ordering::SeqCst), 0, "{case}");
            assert_eq!(scheme.evicted_count(), 0, "{case}");
            reader.hps.clear_all();
            evicted.flush();
            assert_eq!(drops.load(Ordering::SeqCst), 1, "{case}");
        }
    }

    /// Handles on three threads register, work and drop in a loop while a
    /// fourth thread evicts every claimed slot it can (1 ns timeout on the
    /// real clock): every eviction is taken back by the owner's lift, adoption
    /// or drop, or by the evictor itself.
    #[test]
    fn racing_evictions_leave_the_counter_at_zero_and_every_word_offline() {
        use reclaim_core::retire_box;
        use std::sync::atomic::{AtomicBool, AtomicUsize};
        use std::time::Duration;
        let scheme = QSense::new(
            SmrConfig::default()
                .with_max_threads(3)
                .with_quiescence_threshold(1)
                .with_scan_threshold(4)
                .with_eviction_timeout(Some(Duration::from_nanos(1))),
        );
        let (done, evictions) = (AtomicBool::new(false), AtomicUsize::new(0));
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        let mut round = 0;
                        while round < 200 || evictions.load(Ordering::Relaxed) == 0 {
                            let mut handle = scheme.register();
                            for _ in 0..8 {
                                handle.begin_op();
                                // SAFETY: freshly boxed, never shared, retired once.
                                unsafe { retire_box(&mut handle, Box::into_raw(Box::new(0u64))) };
                                handle.end_op();
                            }
                            round += 1;
                        }
                    })
                })
                .collect();
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    let evicted = scheme.evict_unresponsive(scheme.core.orphan_stats());
                    evictions.fetch_add(evicted, Ordering::Relaxed);
                }
            });
            for worker in workers {
                worker.join().unwrap();
            }
            done.store(true, Ordering::Release);
        });
        assert!(evictions.load(Ordering::Relaxed) > 0);
        assert_eq!(scheme.evicted_count(), 0);
        for i in 0..scheme.registry.capacity() {
            assert_eq!(scheme.registry.get(i).epoch.load(), OFFLINE, "slot {i}");
        }
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
        let mut active = scheme.register();
        manual.advance(Duration::from_millis(5));
        active.note_activity();
        assert_eq!(scheme.evict_unresponsive(scheme.core.orphan_stats()), 1);
        assert_eq!(scheme.evicted_count(), 1);
        drop(idle);
        assert_eq!(scheme.evicted_count(), 0, "drop must lift the eviction");
        drop(active);
    }
}
