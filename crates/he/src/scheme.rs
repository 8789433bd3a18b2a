//! The Hazard-Eras scheme object and per-thread handle.

use crate::clock::EraPacer;
use crate::era::{EraRecord, INACTIVE_LOWER};
use reclaim_core::{
    CapacityExhausted, CoreToken, Counter, Era, HandleCore, Registry, RetiredPtr, SchemeCore,
    SegBag, SlotId, Smr, SmrConfig, SmrHandle, NO_BIRTH_ERA,
};
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

/// Number of per-retire-era limbo chains a handle keeps. Nodes retired at era
/// `R` land in chain `R % ERA_BUCKETS`, whose tag is the **maximum** retire era
/// it holds — colliding tags widen the chain's conservative interval instead of
/// forcing a (possibly unsafe) drain, so correctness never depends on the
/// bucket count; more buckets only make the wholesale-free fast path finer
/// grained.
const ERA_BUCKETS: usize = 8;

/// One limbo chain: every node in `bag` was retired at an era `<= tag`, so the
/// chain's conservative lifetime interval is `[birth_of_each_node, tag]`.
///
/// `min_birth`/`max_birth` bracket the birth eras in the bag so a scan can
/// dispatch the whole chain in O(1): free it wholesale when even the oldest
/// birth clears every reachable reservation, or *skip the walk entirely* when
/// even the youngest birth is covered. The skip is what keeps a blocked bag —
/// e.g. unstamped (birth-0) nodes pinned by a stalled reader — from turning
/// every scan into an O(bag) walk. Both bounds are **recomputed from the
/// survivors** during the walk a partial reclaim already performs
/// ([`SegBag::transfer_walk`]), so a chain whose survivors are all old
/// takes the skip fast path on the very next scan instead of re-walking the
/// bag until it fully drains.
struct EraChain {
    tag: Era,
    min_birth: Era,
    max_birth: Era,
    bag: SegBag,
}

impl EraChain {
    /// Widens the chain to cover nodes retired at (or before) `retire_era`
    /// with births in `[min_birth, max_birth]`. A tag collision (eras
    /// `ERA_BUCKETS` apart) widens the conservative interval instead of
    /// draining: always safe, and the stale cohabitants free as soon as no
    /// reservation reaches the merged tag.
    fn cover(&mut self, retire_era: Era, min_birth: Era, max_birth: Era) {
        if self.bag.is_empty() {
            (self.tag, self.min_birth, self.max_birth) = (retire_era, min_birth, max_birth);
        } else {
            self.tag = self.tag.max(retire_era);
            self.min_birth = self.min_birth.min(min_birth);
            self.max_birth = self.max_birth.max(max_birth);
        }
    }
}

/// Hazard-Eras / interval-based reclamation (2GE-style IBR) — the eighth scheme
/// of the comparison matrix.
///
/// The design point between the epoch schemes and hazard pointers:
///
/// * like hazard pointers it is **robust** — a reader stalled mid-operation
///   pins only the nodes whose birth era does not exceed its announced
///   interval, i.e. roughly the nodes that already existed when it stalled;
///   nodes allocated afterwards keep getting freed (QSBR/EBR, by contrast, stop
///   reclaiming *everything*);
/// * like the epoch schemes it **amortizes protection** — one fenced era
///   announcement per era, not per node traversed nor per operation: the
///   reservation stays published between operations, and `begin_op` and
///   `protect` refresh it only when the global era actually advanced, which
///   happens once per era-advance interval of allocations — 64 without a
///   limbo budget, adapting inside [16, 64] to the limbo residue under one
///   (see [`EraPacer`]).
///
/// ## Protocol
///
/// * **allocation** ([`SmrHandle::alloc_node`]): stamp the node with the
///   current era (its *birth era*); every [`EraPacer::current_interval`]
///   allocations, advance the global era clock.
/// * **begin_op**: at the era the handle last published, nothing: its
///   reservation `[lower, e]` has been visible since the fence that published
///   `e`. At a newer era, or with no reservation published, announce the
///   point reservation `[e, e]` (two stores and one fence).
/// * **end_op** / **clear_protections**: nothing. The reservation outlives
///   the operation; `flush`, handle drop and [`SmrHandle::go_idle`] (a lease
///   checked back into its pool) withdraw it. A handle between operations
///   pins at most the nodes alive during its last operation's interval — what
///   a reader stalled at the end of that operation pins.
/// * **protect**: if the global era moved since the announcement, extend the
///   reservation's upper bound and fence; the caller then re-validates the
///   reference as usual. The fence-then-revalidate pairing is exactly classic
///   HP's, applied to the era announcement instead of a node address: if the
///   validation succeeds, the node was still reachable *after* the announcement
///   became visible, so its unlinker's later era reads and reservation scan
///   both observe an interval that covers the reference.
/// * **retire**: stamp the node with a **fresh** load of the era clock (the
///   *retire era*) and push it into the matching era bucket. The load must be
///   fresh, not the cached announcement: any reader still holding the node
///   announced some era `e` before this retire, and monotonicity gives
///   `birth <= e <= retire-era-read-now` — the cached announcement could
///   predate `e` and under-stamp the interval.
/// * **scan** (every `scan_threshold` retires): snapshot all `N` reservations
///   — O(N) era reads, not the O(N·K) pointer snapshot of the HP family — and
///   free every chain whose tag no active reservation reaches (`reclaim_all`,
///   wholesale); for blocked chains, free the nodes born *after* every
///   reservation that reaches the chain (`birth > max{upper : lower <= tag}`),
///   O(1) per node after the O(N) precomputation.
///
/// The retire path flows through the same [`SegBag`] segment chains as every
/// other scheme, so steady-state retire/scan/reclaim
/// is allocation-free, parked leftovers of dying handles are adopted by
/// survivors, and the pool and scratch are recycled to the next registrant
/// through the shared [`SchemeCore`]. A scan's snapshot is the handle's
/// scratch: each active reservation as two words, `lower` then `upper`, `2·N`
/// words at most, the capacity the scheme registers with — so scans never
/// allocate.
pub struct He {
    core: Arc<SchemeCore>,
    /// The global era clock plus what paces its advances: under a limbo
    /// budget, an interval adapting to the scheme-wide limbo-byte estimate
    /// ([`SchemeCore::limbo_estimate`]; see [`EraPacer`]) — HE's pressure
    /// lever on the budget ladder.
    pacer: EraPacer,
    registry: Registry<EraRecord>,
}

impl He {
    /// Creates a Hazard-Eras scheme with the given configuration.
    pub fn new(config: SmrConfig) -> Arc<Self> {
        Arc::new(Self {
            pacer: EraPacer::new(config.limbo_budget),
            registry: Registry::new(config.max_threads, |_| EraRecord::new()),
            core: SchemeCore::new("he", config),
        })
    }

    /// The current global era.
    #[cfg(test)]
    pub(crate) fn current_era(&self) -> Era {
        self.pacer.current()
    }

    /// The era pacer (tests and diagnostics): exposes the current
    /// allocations-per-tick interval.
    pub fn pacer(&self) -> &EraPacer {
        &self.pacer
    }
}

impl Smr for He {
    type Handle = HeHandle;

    fn try_register(self: &Arc<Self>) -> Result<HeHandle, CapacityExhausted> {
        // The snapshot's worst case: an era pair for every registered thread.
        let words = 2 * self.core.config().max_threads;
        let (slot, core) = self.core.register(&self.registry, words)?;
        // A fresh tenant must not inherit the previous tenant's reservation.
        self.registry.get_mine(slot).deactivate();
        Ok(HeHandle {
            scheme: Arc::clone(self),
            slot,
            core,
            limbo: EraLimbo {
                chains: std::array::from_fn(|_| EraChain {
                    tag: 0,
                    min_birth: 0,
                    max_birth: 0,
                    bag: SegBag::new(),
                }),
                allocs_since_tick: 0,
            },
            active: false,
            announced_upper: 0,
            fences: 0,
        })
    }

    fn core(&self) -> &SchemeCore {
        &self.core
    }
}

/// A handle's limbo: the era chains plus its share of the era cadence.
struct EraLimbo {
    chains: [EraChain; ERA_BUCKETS],
    /// Allocations since the last era tick this handle caused. Reset by every
    /// scan (whose own era advance *is* a tick) so a partial count never
    /// carries a phantom tick across a scan, a flush or a handle generation.
    allocs_since_tick: usize,
}

impl EraLimbo {
    /// One reclamation pass: snapshot the reservations, then walk the era
    /// buckets freeing whatever no reservation can still reach (see the scheme
    /// docs for the overlap argument).
    fn scan(&mut self, core: &mut HandleCore, scheme: &He) {
        core.stats().add(Counter::Scans, 1);
        // Advance the era so the generation the current reservations announce
        // can age out even in allocation-free (pure-remove) workloads; without
        // this, a retire-only phase would never see `lower > tag` become true.
        scheme.pacer.advance();
        // That advance IS this handle's tick: drop any partial allocation
        // count so the next allocation tick needs a full interval again.
        // Without the reset, every scan (threshold-triggered, flush or drop)
        // is followed by a phantom near-complete allocation tick and the era
        // cadence drifts away from the pacer's interval.
        self.allocs_since_tick = 0;
        let chains = &mut self.chains;
        core.scan(|reclaim, reservations| {
            reservations.clear();
            // Claimed slots only, so wholly-vacant shards cost one bitmap probe:
            // a vacant slot's record is always inactive (drop deactivates before
            // the release-ordered bitmap clear publishes the slot), and a
            // reservation covering any node in this handle's limbo was announced
            // before that node's unlink — hence its slot's claim bit, set even
            // earlier, is visible to this walk (the registry's scan-skip
            // argument).
            for (_, record) in scheme.registry.iter_claimed(reclaim.stats()) {
                let (lower, upper) = record.load();
                if lower != INACTIVE_LOWER {
                    reservations.extend([lower, upper]);
                }
            }
            for chain in chains.iter_mut().filter(|chain| !chain.bag.is_empty()) {
                // Precompute, per chain, the highest announced upper bound among
                // reservations that reach it (lower <= tag). A node in this chain
                // is unreachable iff its birth era exceeds that bound: its interval
                // [birth, tag] then overlaps no reservation.
                let mut reached = false;
                let mut max_upper: Era = 0;
                for pair in reservations.chunks_exact(2) {
                    let (lower, upper) = (pair[0], pair[1]);
                    if lower <= chain.tag {
                        reached = true;
                        max_upper = max_upper.max(upper);
                    }
                }
                // SAFETY (free-time condition of Hazard Eras / IBR): every node in
                // the chain was unlinked before being retired, and its conservative
                // lifetime interval is [birth_era, tag]. A thread can only hold a
                // reference if its reservation — announced before the node's
                // unlink, per the fence-then-revalidate protocol — overlaps that
                // interval. The snapshot above was taken after every such retire,
                // so any covering reservation is visible in it; freeing nodes whose
                // interval overlaps no snapshot entry is therefore safe.
                if !reached || chain.min_birth > max_upper {
                    // Either no active reservation starts at or below this chain's
                    // newest retire era, or even the chain's *oldest* birth clears
                    // every reachable upper bound: the whole chain is unreachable.
                    // SAFETY: the era scan above proved no reservation can cover any node in this chain; every node is unreachable.
                    unsafe { reclaim.free_all(&mut chain.bag) };
                } else if chain.max_birth <= max_upper {
                    // Even the chain's *youngest* birth is covered by a reachable
                    // reservation: nothing can free this pass. Skipping the walk
                    // keeps a blocked bag O(1) per scan instead of O(bag) — the
                    // Cadence early-stop analogue for era intervals.
                    reclaim.stats().add(Counter::ScanSkips, 1);
                } else {
                    // Partial reclaim: recompute both birth bounds from the
                    // survivors the walk already touches, so a chain whose
                    // survivors are all old takes a fast path next scan instead
                    // of re-walking until it fully drains (stale bounds also
                    // blocked the wholesale dispatch when the true survivor
                    // minimum had risen past every reachable upper bound).
                    let mut new_min = Era::MAX;
                    let mut new_max = 0;
                    // SAFETY: the bag owns the nodes; one is freed only when its birth era lies above every reachable reservation upper bound.
                    unsafe {
                        reclaim.free_walk(
                            &mut chain.bag,
                            |_| true,
                            |node| node.birth_era() > max_upper,
                            |survivor| {
                                let birth = survivor.birth_era();
                                new_min = new_min.min(birth);
                                new_max = new_max.max(birth);
                            },
                        )
                    };
                    if !chain.bag.is_empty() {
                        chain.min_birth = new_min;
                        chain.max_birth = new_max;
                    }
                }
            }
        });
        // The scheme-wide estimate less what this pass and the ones before it
        // proved free (still on the books until the allocator has it) is the
        // *residue* — the garbage reservations are actually pinning — and,
        // under a budget, the pacer adapts the tick interval to it (without
        // one it never asks). A speed-up is an escalation and is counted as
        // such.
        let proven = core.ready_bytes() as u64;
        let shared = &scheme.core;
        let residue = || shared.limbo_estimate().saturating_sub(proven);
        if scheme.pacer.adapt(residue) {
            core.stats().add(Counter::PacerBoosts, 1);
        }
    }
}

/// Per-thread handle for [`He`].
pub struct HeHandle {
    scheme: Arc<He>,
    slot: SlotId,
    core: HandleCore,
    limbo: EraLimbo,
    /// Whether the reservation is published (handle-local mirror of the
    /// shared record, kept from one operation to the next).
    active: bool,
    /// The era last published as the reservation's upper bound; `begin_op`
    /// and `protect` re-announce only when the global era moved past it.
    announced_upper: Era,
    /// `announce` fences not yet added to `traversal_fences`; published at
    /// flush and drop.
    fences: u64,
}

impl HeHandle {
    fn record(&self) -> &EraRecord {
        self.scheme.registry.get_mine(self.slot)
    }

    /// Publishes (or extends) the reservation to cover `era` and fences, so the
    /// caller's subsequent validation load happens after the announcement is
    /// visible — the HP publication argument, per era change instead of per
    /// node.
    fn announce(&mut self, era: Era) {
        if self.active {
            self.record().extend_upper(era);
        } else {
            self.record().activate(era);
            self.active = true;
        }
        fence(Ordering::SeqCst);
        self.fences += 1;
        self.announced_upper = era;
    }

    /// Withdraws the reservation and publishes the fence count.
    fn withdraw(&mut self) {
        self.record().deactivate();
        self.active = false;
        if self.fences > 0 {
            let fences = std::mem::take(&mut self.fences);
            self.core.stats().add(Counter::TraversalFences, fences);
        }
    }
}

impl SmrHandle for HeHandle {
    fn begin_op(&mut self) {
        // At an unchanged era `[lower, e]` has been visible since the fence
        // that published `e`: the operation runs under it, with no fence.
        // Only a newer era pays one, for a fresh point reservation.
        let era = self.scheme.pacer.current();
        if !self.active || era != self.announced_upper {
            self.active = false;
            self.announce(era);
        }
    }

    fn end_op(&mut self) {
        // The reservation outlives the operation; `flush`, drop and
        // `go_idle` withdraw it.
    }

    fn go_idle(&mut self) {
        self.withdraw();
    }

    #[inline]
    fn protect(&mut self, _index: usize, _ptr: *mut u8) {
        // Era protection is per interval, not per pointer: the slot index and
        // address are irrelevant. All that matters is that the reservation
        // covers the era at which the caller acquired the reference — so
        // re-announce only when the global era moved since the last
        // publication (amortized: eras advance once per pacer interval of
        // allocations, not per node).
        let era = self.scheme.pacer.current();
        if era != self.announced_upper || !self.active {
            self.announce(era);
        }
    }

    fn clear_protections(&mut self) {
        // The reservation is the only protection, and it outlives the
        // operation (see `end_op`).
    }

    fn alloc_node(&mut self) -> Era {
        self.limbo.allocs_since_tick += 1;
        // The interval is the pacer's current allocations-per-tick: tracking
        // the scheme-wide limbo residue under a budget, a constant without
        // one — one relaxed load of a read-mostly padded line.
        if self.limbo.allocs_since_tick >= self.scheme.pacer.current_interval() {
            self.limbo.allocs_since_tick = 0;
            self.scheme.pacer.advance();
        }
        // The stamp may lag the era at link time (the node is published later),
        // which is the safe direction: a smaller birth era widens the node's
        // lifetime interval.
        self.scheme.pacer.current()
    }

    unsafe fn retire(&mut self, node: RetiredPtr) {
        let (scheme, limbo) = (&*self.scheme, &mut self.limbo);
        // The retire era must be a *fresh* read (see the scheme docs): any
        // reader still holding this node announced its reservation before now,
        // so monotonicity puts that announcement inside [birth, retire]. An
        // unstamped birth (NO_BIRTH_ERA = 0) makes the interval start before
        // every announced era — maximally conservative, always safe.
        let retire_era = scheme.pacer.current();
        let chain = &mut limbo.chains[(retire_era % ERA_BUCKETS as u64) as usize];
        chain.cover(retire_era, node.birth_era(), node.birth_era());
        // SAFETY: forwarded from the caller's contract. The stamp carries the
        // logical retire era — HE never consults wall-clock age.
        unsafe { self.core.retire(&mut chain.bag, node, retire_era) };
        // Era scans are reservation-gated and safe mid-operation, so a budget
        // breach forces one; the scan's own era advance plus the pacer's
        // reaction to the estimate keep the era ticking (HE's pressure lever).
        self.core.after_retire(|core| limbo.scan(core, scheme));
    }

    fn flush(&mut self) {
        // Flush runs between operations: withdraw our own reservation so it
        // cannot block the scan below (mirror of EBR's defensive unpin).
        self.withdraw();
        // Adopt limbo leftovers of exited threads into the current era's
        // bucket, tagged with the current era — conservative for every adopted
        // node, whose true retire era can only be older. The era for the tag
        // is read *after* taking the parked leftovers: the adoption's mutex
        // acquire happens-after every parker's release, and coherence on the
        // monotone era counter then guarantees this load is at least every
        // retire era in the adopted chain. (Reading the era first would race:
        // a handle retiring at a newer era and parking between our load and
        // the adopt would leave the tag below its nodes' retire eras, and the
        // scan's `lower <= tag` reach test could miss a reservation that
        // still covers them — a wholesale free under a live reader.)
        let mut adopted = SegBag::new();
        self.core.adopt_parked(&mut adopted);
        if !adopted.is_empty() {
            let era = self.scheme.pacer.current();
            // Adopted nodes carry real per-node birth stamps: compute the true
            // birth bounds while splicing (an O(adopted) walk on a churn-only
            // path) instead of clamping `min_birth` to NO_BIRTH_ERA /
            // `max_birth` to the current era. The clamp cost the chain both
            // O(1) dispatches for as long as any reservation was active: the
            // wholesale test compared the stalled reader against "born before
            // every era" and the skip test against "born just now", so one
            // handle-churn event degraded the whole adopted chain to O(bag)
            // walks. Genuinely unstamped nodes still carry NO_BIRTH_ERA per
            // node, which the minimum picks up naturally.
            let mut adopted_min = Era::MAX;
            let mut adopted_max = NO_BIRTH_ERA;
            for node in adopted.iter() {
                let birth = node.birth_era();
                adopted_min = adopted_min.min(birth);
                adopted_max = adopted_max.max(birth);
            }
            let chain = &mut self.limbo.chains[(era % ERA_BUCKETS as u64) as usize];
            chain.cover(era, adopted_min, adopted_max);
            chain.bag.splice(&mut adopted);
        }
        self.limbo.scan(&mut self.core, &self.scheme);
        self.core.drain_ready();
    }

    fn core(&self, _: CoreToken) -> &HandleCore {
        &self.core
    }

    fn core_mut(&mut self, _: CoreToken) -> &mut HandleCore {
        &mut self.core
    }
}

impl Drop for HeHandle {
    fn drop(&mut self) {
        self.flush();
        // Whatever is still pinned by other readers is parked on the scheme
        // with O(1) splices.
        let mut leftovers = SegBag::new();
        for chain in &mut self.limbo.chains {
            leftovers.splice(&mut chain.bag);
        }
        self.core.park(&mut leftovers);
        self.scheme.registry.release(self.slot);
    }
}

#[cfg(test)]
// Sanctioned raw-protocol site: these tests exercise the scheme's own
// `protect`/retire interface below the guard layer.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use reclaim_core::{retire_box, retire_box_with_birth, LeasePolicy, LeasePool};
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

    /// How `handle`'s own scans have dispatched era chains so far, as
    /// `(wholesale frees, skipped walks, node-by-node walks)`: the first two
    /// are the O(1) fast paths, the third the O(bag) partial reclaim. Read from
    /// the handle's counter stripe, which outlives a tenancy — compare deltas.
    fn dispatch(handle: &HeHandle) -> (u64, u64, u64) {
        let snap = handle.core.stats().snapshot();
        (snap.scan_wholesale, snap.scan_skips, snap.scan_walks)
    }

    fn small_config() -> SmrConfig {
        SmrConfig::default()
            .with_max_threads(4)
            .with_scan_threshold(8)
    }

    #[test]
    fn single_thread_reclaims_everything_on_flush() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = He::new(small_config());
        let mut handle = scheme.register();
        for _ in 0..100 {
            handle.begin_op();
            let birth = handle.alloc_node();
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box_with_birth(&mut handle, tracked(&drops), birth) };
            handle.end_op();
        }
        handle.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 100);
        let snap = Smr::stats(&*scheme);
        assert_eq!(snap.retired, 100);
        assert_eq!(snap.freed, 100);
    }

    #[test]
    fn an_active_reservation_blocks_only_nodes_born_inside_it() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = He::new(small_config().with_scan_threshold(1_000_000));
        let mut reader = scheme.register();
        let mut writer = scheme.register();

        // The reader announces at the current era and stalls mid-operation.
        reader.begin_op();
        let stall_era = scheme.current_era();

        // Nodes born before/at the stall era are pinned by the reservation.
        let old = tracked(&drops);
        let old_birth = scheme.current_era();
        assert!(old_birth >= stall_era);
        // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
        unsafe { retire_box_with_birth(&mut writer, old, old_birth) };
        writer.flush();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "a node born inside the reservation must survive"
        );

        // Advance the era well past the stall; nodes born afterwards are not
        // covered by the stalled reader's [e, e] reservation and must free.
        for _ in 0..4 {
            scheme.pacer.advance();
        }
        let young_birth = writer.alloc_node();
        assert!(young_birth > stall_era);
        // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
        unsafe { retire_box_with_birth(&mut writer, tracked(&drops), young_birth) };
        writer.flush();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "a node born after the stalled reservation must be freed"
        );
        assert_eq!(writer.local_in_limbo(), 1, "the old node is still pinned");

        // Withdrawing the reservation frees the rest: it outlives `end_op`,
        // and the reader's flush withdraws it.
        reader.end_op();
        reader.flush();
        writer.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 2);
        assert_eq!(writer.local_in_limbo(), 0);
    }

    #[test]
    fn unstamped_retires_are_maximally_conservative() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = He::new(small_config().with_scan_threshold(1_000_000));
        let mut reader = scheme.register();
        let mut writer = scheme.register();
        reader.begin_op();
        // Plain `retire` (birth = NO_BIRTH_ERA): treated as born before every
        // era, so any active reservation pins it.
        // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
        unsafe { retire_box(&mut writer, tracked(&drops)) };
        writer.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        reader.end_op();
        reader.flush();
        writer.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn protect_extends_the_reservation_when_the_era_advances() {
        let scheme = He::new(small_config());
        let mut reader = scheme.register();
        reader.begin_op();
        let (lower, upper) = reader.record().load();
        assert_eq!(lower, upper, "begin_op announces a point interval");
        // The era advances mid-operation (another thread allocating).
        scheme.pacer.advance();
        scheme.pacer.advance();
        reader.protect(0, std::ptr::null_mut());
        let (lower2, upper2) = reader.record().load();
        assert_eq!(lower2, lower, "lower is pinned for the whole operation");
        assert_eq!(upper2, scheme.current_era(), "upper follows the era");
        reader.end_op();
        reader.flush();
        assert!(reader.record().is_inactive());
    }

    #[test]
    fn a_reservation_outlives_end_op_and_is_withdrawn_by_flush_go_idle_and_drop() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = He::new(small_config().with_scan_threshold(1_000_000));
        let mut writer = scheme.register();
        for withdraw in ["flush", "go_idle", "drop"] {
            let mut reader = scheme.register();
            reader.begin_op();
            reader.clear_protections();
            reader.end_op();
            let era = scheme.current_era();
            assert_eq!(reader.record().load(), (era, era), "still published");
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box_with_birth(&mut writer, tracked(&drops), era) };
            writer.flush();
            let freed = drops.load(Ordering::SeqCst);
            assert_eq!(writer.local_in_limbo(), 1, "an idle reader pins its era");
            match withdraw {
                "flush" => reader.flush(),
                "go_idle" => reader.go_idle(),
                _ => drop(reader),
            }
            writer.flush();
            assert_eq!(drops.load(Ordering::SeqCst), freed + 1);
            assert_eq!(writer.local_in_limbo(), 0);
        }
    }

    #[test]
    fn begin_op_keeps_the_last_interval_at_an_unchanged_era_and_renews_it_at_a_newer_one() {
        let scheme = He::new(small_config());
        let mut reader = scheme.register();
        reader.begin_op();
        let start = scheme.current_era();
        scheme.pacer.advance();
        reader.protect(0, std::ptr::null_mut());
        reader.end_op();
        let era = scheme.current_era();
        assert_eq!(reader.record().load(), (start, era), "the op's interval");
        reader.begin_op();
        assert_eq!(reader.record().load(), (start, era), "kept as it is");
        assert_eq!(reader.fences, 2, "no fence at an unchanged era");
        reader.end_op();
        scheme.pacer.advance();
        reader.begin_op();
        let newer = scheme.current_era();
        assert_eq!(reader.record().load(), (newer, newer), "a fresh point");
        assert_eq!(reader.fences, 3, "a newer era pays one fence");
    }

    #[test]
    fn a_checked_in_lease_pins_nothing_retired_after_checkin() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = He::new(small_config().with_scan_threshold(1_000_000));
        let pool = LeasePool::for_scheme(&scheme, 1, LeasePolicy::Fail).unwrap();
        let mut writer = scheme.register();
        {
            let mut lease = pool.checkout().unwrap();
            lease.begin_op();
            lease.end_op();
            let era = scheme.current_era();
            assert_eq!(lease.record().load(), (era, era), "kept past end_op");
        }
        let era = scheme.current_era();
        // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
        unsafe { retire_box_with_birth(&mut writer, tracked(&drops), era) };
        writer.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 1, "checkin withdrew it");
        assert_eq!(writer.local_in_limbo(), 0);
    }

    #[test]
    fn announce_fences_once_per_era_not_once_per_operation() {
        let scheme = He::new(small_config().with_scan_threshold(1_000_000));
        let mut handle = scheme.register();
        let op = |handle: &mut HeHandle| {
            handle.begin_op();
            handle.protect(0, std::ptr::null_mut());
            handle.clear_protections();
            handle.end_op();
        };
        for _ in 0..1_000 {
            op(&mut handle);
        }
        assert_eq!(handle.fences, 1, "1 000 operations at one era");
        scheme.pacer.advance();
        op(&mut handle);
        op(&mut handle);
        assert_eq!(handle.fences, 2, "one era advance adds exactly one");
        assert_eq!(scheme.stats().traversal_fences, 0, "not yet published");
        handle.flush();
        assert_eq!(scheme.stats().traversal_fences, 2, "published at flush");
        // The flush withdrew the reservation: the next op announces afresh.
        op(&mut handle);
        drop(handle);
        assert_eq!(scheme.stats().traversal_fences, 3, "published at drop");
    }

    #[test]
    fn alloc_node_ticks_the_global_era_every_interval() {
        let scheme = He::new(small_config());
        let mut handle = scheme.register();
        let interval = scheme.pacer().current_interval();
        assert_eq!(interval, 64, "no budget: one tick per 64 allocations");
        let start = scheme.current_era();
        let mut births = Vec::new();
        for _ in 0..2 * interval {
            births.push(handle.alloc_node());
        }
        assert_eq!(
            scheme.current_era(),
            start + 2,
            "two intervals of allocations advance the era twice"
        );
        assert!(
            births.windows(2).all(|w| w[0] <= w[1]),
            "births are monotone"
        );
    }

    #[test]
    fn concurrent_workers_reclaim_everything_by_scheme_drop() {
        use std::thread;
        let drops = Arc::new(AtomicUsize::new(0));
        let total = Arc::new(AtomicUsize::new(0));
        let scheme = He::new(
            SmrConfig::default()
                .with_max_threads(4)
                .with_scan_threshold(16),
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
                        let birth = handle.alloc_node();
                        // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
                        unsafe { retire_box_with_birth(&mut handle, tracked(&drops), birth) };
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
    }

    #[test]
    fn dying_handles_park_leftovers_for_the_next_flush() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = He::new(small_config().with_scan_threshold(1_000_000));
        let mut reader = scheme.register();
        reader.begin_op();
        {
            let mut dying = scheme.register();
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut dying, tracked(&drops)) };
            // The reader's reservation pins the (unstamped) node through the
            // dying handle's final flush.
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0, "parked, not freed");
        let mut survivor = scheme.register();
        reader.end_op();
        survivor.flush();
        assert_eq!(
            survivor.local_in_limbo(),
            1,
            "adopted, and still pinned by the reservation that outlives end_op"
        );
        reader.flush();
        survivor.flush();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "the survivor adopts and frees the parked node"
        );
    }

    #[test]
    fn partial_reclaim_recomputes_birth_bounds_for_the_fast_path() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = He::new(small_config().with_scan_threshold(1_000_000));
        let mut reader = scheme.register();
        let mut writer = scheme.register();

        // The reader stalls at era `e`; nodes born at `e` are pinned by it.
        reader.begin_op();
        let stall = scheme.current_era();
        let old: Vec<(*mut Tracked, Era)> = (0..3)
            .map(|_| {
                let birth = writer.alloc_node();
                assert_eq!(birth, stall);
                (tracked(&drops), birth)
            })
            .collect();
        // Advance well past the stall; later allocations are *young*.
        for _ in 0..3 {
            scheme.pacer.advance();
        }
        let young: Vec<(*mut Tracked, Era)> = (0..3)
            .map(|_| {
                let birth = writer.alloc_node();
                assert!(birth > stall);
                (tracked(&drops), birth)
            })
            .collect();
        // Retire everything at one era so the whole mix shares one chain.
        for (ptr, birth) in old.iter().chain(young.iter()) {
            // SAFETY: the pointer was produced by `tracked`/Box::into_raw above, is no longer reachable, and is retired exactly once.
            unsafe { retire_box_with_birth(&mut writer, *ptr, *birth) };
        }

        // First scan: a partial walk frees the young nodes (born after the
        // stalled reservation) and must recompute the chain bounds from the
        // old survivors.
        let (wholesale_start, _, walks_start) = dispatch(&writer);
        writer.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 3, "young nodes freed");
        assert_eq!(writer.local_in_limbo(), 3, "old nodes pinned");
        let (_, skips_before, walks_before) = dispatch(&writer);
        assert_eq!(
            walks_before,
            walks_start + 1,
            "the mixed chain was walked once"
        );

        // Second scan: the survivors are all old (birth <= the stalled
        // reader's upper bound), so with recomputed bounds the chain takes
        // the O(1) skip fast path instead of another O(bag) walk.
        writer.flush();
        let (_, skips_after, walks_after) = dispatch(&writer);
        assert_eq!(
            walks_after, walks_before,
            "a chain of all-old survivors must not be re-walked"
        );
        assert_eq!(skips_after, skips_before + 1, "skip fast path taken");
        assert_eq!(drops.load(Ordering::SeqCst), 3);

        // Withdrawing the reservation frees the rest wholesale.
        reader.end_op();
        reader.flush();
        writer.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 6);
        let (wholesale, _, walks_final) = dispatch(&writer);
        assert!(
            wholesale > wholesale_start,
            "the drained chain went wholesale"
        );
        assert_eq!(walks_final, walks_before);
    }

    #[test]
    fn adopted_chains_keep_real_birth_bounds_under_a_stalled_reader() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = He::new(
            small_config()
                .with_max_threads(8)
                .with_scan_threshold(1_000_000),
        );
        // Reader 1 stalls at era `e` for the whole test.
        let mut stalled = scheme.register();
        stalled.begin_op();
        let stall = scheme.current_era();

        // The era moves on; reader 2 covers the young era while a writer
        // handle churns (retire young nodes, then die with them pinned).
        for _ in 0..4 {
            scheme.pacer.advance();
        }
        let mut cover = scheme.register();
        cover.begin_op();
        {
            let mut dying = scheme.register();
            for _ in 0..3 {
                let birth = dying.alloc_node();
                assert!(birth > stall, "churned nodes are born after the stall");
                // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
                unsafe { retire_box_with_birth(&mut dying, tracked(&drops), birth) };
            }
            // Drop: the final flush cannot free the nodes (reader 2 covers
            // their births), so they are parked with their real stamps.
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0, "parked, not freed");
        cover.end_op();

        // The cover's flush withdraws its reservation (which outlives
        // `end_op`), then adopts the parked leftovers as the survivor. Only
        // the *stalled* reader is active, and every adopted birth is younger
        // than its upper bound — with true bounds computed while splicing,
        // the whole chain frees wholesale in O(1). (The old clamp to
        // NO_BIRTH_ERA made the chain look born-before-every-era: one churn
        // event under a stalled reader degraded it to an O(bag) walk on
        // every scan.)
        let survivor = &mut cover;
        let (wholesale_before, _, walks_before) = dispatch(survivor);
        survivor.flush();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            3,
            "young adopted nodes must free despite the stalled reader"
        );
        let (wholesale, _, walks) = dispatch(survivor);
        assert_eq!(
            wholesale,
            wholesale_before + 1,
            "adoption frees wholesale, not via a walk"
        );
        assert_eq!(walks, walks_before);
        stalled.end_op();
    }

    #[test]
    fn flush_resets_the_partial_allocation_tick_exactly() {
        let scheme = He::new(small_config().with_scan_threshold(1_000_000));
        let partial = scheme.pacer().current_interval() - 1;
        let mut handle = scheme.register();
        let start = scheme.current_era();
        for _ in 0..partial {
            handle.alloc_node(); // partial interval: no tick
        }
        assert_eq!(scheme.current_era(), start);
        handle.flush(); // the flush's scan ticks exactly once
        let after_flush = scheme.current_era();
        assert_eq!(after_flush, start + 1);
        // The partial count must not survive the flush: the next tick needs a
        // full interval again (without the reset, the next allocation would
        // complete the interval and fire a phantom tick inherited from before
        // the flush).
        for _ in 0..partial {
            handle.alloc_node();
        }
        assert_eq!(
            scheme.current_era(),
            after_flush,
            "no phantom partial tick may survive a flush"
        );
        handle.alloc_node();
        assert_eq!(scheme.current_era(), after_flush + 1, "full interval ticks");

        // Register/drop/register churn: the era arithmetic stays exact —
        // one scan tick per flush (the drop path flushes), and each handle
        // generation starts a fresh interval.
        let e0 = scheme.current_era();
        drop(handle);
        assert_eq!(scheme.current_era(), e0 + 1, "drop = one flush tick");
        let mut next = scheme.register();
        for _ in 0..partial {
            next.alloc_node();
        }
        assert_eq!(
            scheme.current_era(),
            e0 + 1,
            "a recycled generation starts with a clean tick counter"
        );
        next.alloc_node();
        assert_eq!(scheme.current_era(), e0 + 2);
        drop(next);

        // Threshold-driven scans reset the partial count too: the reset lives
        // in scan() next to the era advance, so every scan trigger (retire
        // threshold, flush, drop) behaves alike.
        let scheme = He::new(small_config().with_scan_threshold(2));
        let mut handle = scheme.register();
        let e0 = scheme.current_era();
        for _ in 0..partial {
            handle.alloc_node(); // partial interval
        }
        assert_eq!(scheme.current_era(), e0);
        for _ in 0..2 {
            // Two retires hit the scan threshold: the scan ticks the era once.
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut handle, tracked(&Arc::new(AtomicUsize::new(0)))) };
        }
        assert_eq!(scheme.current_era(), e0 + 1, "one scan tick");
        for _ in 0..partial {
            handle.alloc_node();
        }
        assert_eq!(
            scheme.current_era(),
            e0 + 1,
            "no phantom partial tick after a threshold scan"
        );
        handle.alloc_node();
        assert_eq!(scheme.current_era(), e0 + 2);
    }

    /// The scheme-wide limbo-byte estimate — what the pacer adapts to.
    fn estimate(scheme: &He) -> u64 {
        scheme.stats().limbo_bytes()
    }

    const TRACKED: u64 = std::mem::size_of::<Tracked>() as u64;

    /// A limbo budget whose pacer mark (a quarter of it) is `mark` bytes.
    fn budget_with_mark(mark: usize) -> Option<usize> {
        Some(4 * mark)
    }

    #[test]
    fn without_a_budget_a_stalled_reader_leaves_the_interval_at_64() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = He::new(small_config().with_scan_threshold(16));
        let mut reader = scheme.register();
        let mut writer = scheme.register();
        reader.begin_op();
        // Unstamped retires the stalled reader pins: 64 scans' worth of
        // limbo, far past any mark a budget could set.
        for _ in 0..1_024 {
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut writer, tracked(&drops)) };
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        assert_eq!(estimate(&scheme), 1_024 * TRACKED);
        assert_eq!(scheme.pacer().current_interval(), 64, "no budget, no pace");
        assert_eq!(scheme.stats().pacer_boosts, 0);
        reader.flush();
        writer.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 1_024);
    }

    #[test]
    fn parked_leftovers_keep_pressing_on_the_adaptive_estimate() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = He::new(
            small_config()
                .with_scan_threshold(1_000_000)
                .with_limbo_budget(budget_with_mark(8 * TRACKED as usize)),
        );
        let mut reader = scheme.register();
        reader.begin_op();
        {
            let mut dying = scheme.register();
            for _ in 0..32 {
                // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
                unsafe { retire_box(&mut dying, tracked(&drops)) };
            }
            // Drop: the reader pins the unstamped nodes, so they are parked.
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        assert_eq!(
            estimate(&scheme),
            32 * TRACKED,
            "parked limbo must stay visible with no live reporter"
        );
        // Adoption hands the contribution over without a dip or a double
        // count, and the adopter's scan finds the pressure still on.
        let mut survivor = scheme.register();
        survivor.flush();
        assert_eq!(survivor.local_in_limbo(), 32);
        assert_eq!(
            estimate(&scheme),
            32 * TRACKED,
            "the adopter's ledger replaces the parked counter exactly"
        );
        assert_eq!(
            scheme.pacer().current_interval(),
            16,
            "still at the fast end"
        );
        reader.end_op();
        reader.flush();
        survivor.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 32);
        assert_eq!(estimate(&scheme), 0);
        assert_eq!(
            scheme.pacer().current_interval(),
            32,
            "dry: creeping back up"
        );
    }

    #[test]
    fn a_budget_ticks_faster_under_limbo_pressure_and_counts_each_boost() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = He::new(
            small_config()
                .with_scan_threshold(16)
                .with_limbo_budget(budget_with_mark(8 * TRACKED as usize)),
        );
        let mut reader = scheme.register();
        let mut writer = scheme.register();
        // Idle decay: dry scans creep the interval up to the idle cadence.
        for _ in 0..8 {
            writer.flush();
        }
        assert_eq!(scheme.pacer().current_interval(), 64, "idle cadence");
        // A stalled reader pins unstamped retires; once the residue passes
        // the mark, each threshold scan halves the interval toward the fast
        // end.
        reader.begin_op();
        for _ in 0..64 {
            // SAFETY: the pointer comes fresh from `tracked` (Box::into_raw) and is retired exactly once.
            unsafe { retire_box(&mut writer, tracked(&drops)) };
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        assert_eq!(estimate(&scheme), 64 * TRACKED, "pressure reported");
        assert_eq!(scheme.pacer().current_interval(), 16, "64 → 32 → 16");
        assert_eq!(
            scheme.stats().pacer_boosts,
            2,
            "each speed-up is an escalation"
        );
        // Draining the limbo decays the cadence back to the idle one.
        reader.end_op();
        reader.flush();
        for _ in 0..8 {
            writer.flush();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 64);
        assert_eq!(estimate(&scheme), 0);
        assert_eq!(scheme.pacer().current_interval(), 64);
    }

    #[test]
    fn a_budget_paces_by_bytes_not_node_counts() {
        struct Fat(#[allow(dead_code)] [u8; 512]);
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = He::new(
            small_config()
                .with_scan_threshold(16)
                .with_limbo_budget(budget_with_mark(1_024)),
        );
        let mut reader = scheme.register();
        let mut writer = scheme.register();
        for _ in 0..8 {
            writer.flush();
        }
        assert_eq!(scheme.pacer().current_interval(), 64, "idle cadence");
        reader.begin_op();
        // Many pinned nodes that weigh nothing: four threshold scans, all dry.
        for _ in 0..64 {
            let drop_fn = reclaim_core::drop_fn_for::<Tracked>();
            // SAFETY: fresh from Box::into_raw, retired exactly once; a size of
            // 0 (unknown) never over-states the allocation.
            unsafe {
                writer.retire(RetiredPtr::new(
                    tracked(&drops).cast(),
                    drop_fn,
                    NO_BIRTH_ERA,
                    0,
                ))
            };
        }
        assert_eq!(writer.local_in_limbo(), 64);
        assert_eq!(estimate(&scheme), 0);
        assert_eq!(
            scheme.pacer().current_interval(),
            64,
            "a node count alone is no pressure"
        );
        // Three fat ones cross the byte mark: the next scan speeds up.
        for _ in 0..3 {
            let fat = Box::into_raw(Box::new(Fat([0; 512])));
            // SAFETY: fresh from Box::into_raw, retired exactly once.
            unsafe { retire_box(&mut writer, fat) };
        }
        writer.flush();
        assert_eq!(estimate(&scheme), 3 * 512);
        assert_eq!(scheme.pacer().current_interval(), 32);
        reader.end_op();
        reader.flush();
        writer.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 64);
        assert_eq!(estimate(&scheme), 0);
    }

    #[test]
    fn scheme_reports_name_and_config() {
        let scheme = He::new(SmrConfig::default());
        assert_eq!(scheme.name(), "he");
        assert!(scheme.config().max_threads >= 1);
        assert!(scheme.current_era() >= 1);
    }
}
