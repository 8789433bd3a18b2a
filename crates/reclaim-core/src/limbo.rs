//! The retire pipeline every scheme shares: [`SchemeCore`] (one per scheme
//! instance) and [`HandleCore`] (one per registered handle). A scheme is its
//! protection protocol plus a "may I free this?" rule; everything *around*
//! that lives here, once — the crate docs ("What a scheme implements vs what
//! the core owns") draw the line call by call.
//!
//! "May I free this?" and "free it" are two stages, split here once for every
//! scheme. A [`HandleCore::scan`] pass only *proves*: the [`Reclaim`] it lends
//! moves what the scheme's rule passed onto the handle's **ready chain** (an
//! O(1) splice for wholesale drains, a push through the handle's own pool for
//! per-node walks) and calls no destructor. [`HandleCore::retire`] *frees*: at
//! most [`READY_FREES_PER_RETIRE`] ready nodes go to the allocator before the
//! new one is stamped. A scan or an epoch drain proves 500–1 000 nodes at
//! once; handed over in one burst they overflow the allocator's per-thread
//! cache (glibc's holds 7 a size class), push those frees and the allocations
//! that follow through the arena bins, and return memory that went cold while
//! it waited — the batch-free effect of Brown's DEBRA paper, cured as Singh's
//! thesis does, by *amortised freeing* (on the benchmark's queue it was worth
//! +14–17 % to EBR). `flush` ([`HandleCore::drain_ready`]), handle drop
//! ([`HandleCore::park`]) and a budget-forced scan drain the chain whole.
//!
//! A handle's limbo totals are kept here too — the **ledger**: the core is
//! handed every node that enters a handle's limbo ([`HandleCore::retire`],
//! [`HandleCore::adopt_parked`]) and every node that leaves it (to the
//! allocator off the ready chain, or [`HandleCore::park`]), so it
//! counts them once and no scheme sums its bags or passes a total in. Ready
//! nodes stay in it, and in `retired − freed`, until the allocator has them. The
//! ledger is the handle's own view (`SmrHandle::ledger`, the count threshold,
//! the grain gate); the scheme-wide figure is not built from ledgers but read
//! off the same counter stripes every retire and free already writes
//! ([`SchemeCore::limbo_estimate`]: `retired_bytes − freed_bytes`), so parking,
//! adopting and dropping a handle move it by nothing and there is no second
//! tally to keep in step. What stays private to this crate: the freed-side
//! counters are credited only where a node reaches the allocator — off the
//! ready chain, or off the parked chain at scheme drop; a scheme cannot
//! write a free it did not perform — and the parked chain and the workspace
//! cache, whose hand-offs must match the ledger. Everything is generic over
//! closures and monomorphised per scheme — no `dyn` on the retire path.

use crate::budget::{BudgetGovernor, BudgetVerdict};
use crate::clock::Era;
use crate::config::SmrConfig;
use crate::pad::CachePadded;
use crate::registry::{Registry, SlotId};
use crate::retired::{DropFn, RetiredPtr};
use crate::segbag::{ParkedChain, SegBag, SegPool, WorkspaceCache};
use crate::smr::CapacityExhausted;
use crate::stats::{ShardedStats, StatStripe, StatsSnapshot};
use crate::telemetry::{CursorState, HandleTelemetry, ScanObserver, Telemetry};
use std::sync::Arc;

/// Ready nodes one [`HandleCore::retire`] hands the allocator at most. A
/// constant, not a knob: above 1, so a backlog drains twice as fast as retires
/// can grow it; as small as that allows, so every burst fits the allocator's
/// per-thread cache.
pub const READY_FREES_PER_RETIRE: usize = 2;

/// The scheme-wide half of the retire pipeline (module docs). `W` is the
/// scheme's per-handle scan scratch (a hazard-pointer or era-reservation
/// snapshot buffer, `()` for schemes that snapshot nothing); it is recycled
/// between handle generations together with the segment pool.
pub struct SchemeCore<W = ()> {
    name: &'static str,
    config: SmrConfig,
    /// Retires between a handle's count-threshold scans: `scan_threshold`
    /// times the scheme's scan batch.
    scan_every: usize,
    /// One counter stripe per handle: keyed by registry slot index, or dealt
    /// round-robin for registry-less schemes.
    stats: ShardedStats,
    /// Counter stripe for events with no owning handle (parked-chain frees at
    /// scheme drop, EBR's successful epoch advances).
    orphan_stats: CachePadded<StatStripe>,
    /// Limbo leftovers of exited handles, awaiting a survivor's flush.
    parked: ParkedChain,
    governor: BudgetGovernor,
    telemetry: Telemetry,
    /// Pools + scratch buffers of exited handles, for the next registrant.
    workspaces: WorkspaceCache<W>,
}

impl<W: Default> SchemeCore<W> {
    /// Creates the core for a scheme reporting itself as `name`, whose handles
    /// scan every `scan_threshold` retires.
    pub fn new(name: &'static str, config: SmrConfig) -> Arc<Self> {
        Self::with_scan_batch(name, config, 1)
    }

    /// [`new`](Self::new) for a scheme whose scans carry a fixed cost worth
    /// amortising (HP's scanner-side barrier): its handles run a
    /// count-threshold scan every `scan_threshold × scan_batch` retires. The
    /// ladder's budget rungs are untouched — a limbo-budget crossing forces a
    /// scan at once, wherever in the batch it lands.
    pub fn with_scan_batch(name: &'static str, config: SmrConfig, scan_batch: usize) -> Arc<Self> {
        Arc::new(Self {
            name,
            scan_every: config.scan_threshold.saturating_mul(scan_batch),
            stats: ShardedStats::new(config.max_threads),
            orphan_stats: CachePadded::new(StatStripe::new()),
            parked: ParkedChain::new(),
            governor: BudgetGovernor::new(config.limbo_budget, config.clock.clone()),
            telemetry: Telemetry::from_config(&config),
            workspaces: WorkspaceCache::with_capacity(config.max_threads),
            config,
        })
    }

    /// The scheme's short name (`Smr::name`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The configuration the scheme was created with.
    pub fn config(&self) -> &SmrConfig {
        &self.config
    }

    /// Retires between a handle's count-threshold scans (`scan_threshold` ×
    /// the scan batch) — what a scheme pre-sizes its handles' pools for.
    pub fn scan_every(&self) -> usize {
        self.scan_every
    }

    /// `Smr::stats`: every stripe summed, plus the governor's peak.
    pub fn stats(&self) -> StatsSnapshot {
        let mut snap = self.stats.snapshot();
        self.orphan_stats.merge_into(&mut snap);
        snap.peak_limbo_bytes = self.governor.peak_bytes();
        snap
    }

    /// The scheme-wide limbo bytes: retired and not yet freed, whoever holds
    /// them — a live handle, the parked chain, or a handle mid-drop
    /// ([`ShardedStats::limbo_bytes`]). What the governor is handed, what the
    /// verdict reports, what HE's era pacer adapts to.
    pub fn limbo_estimate(&self) -> u64 {
        self.stats.limbo_bytes(&self.orphan_stats)
    }

    /// `Smr::budget_verdict`: the governor's record around the estimate of now.
    pub fn budget_verdict(&self) -> BudgetVerdict {
        self.governor.verdict(self.limbo_estimate())
    }

    /// The budget governor: its configuration, and the two counters that
    /// belong to scheme-specific pressure levers.
    pub fn governor(&self) -> &BudgetGovernor {
        &self.governor
    }

    /// `Smr::telemetry`.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The counter stripe for scheme-level events no handle owns.
    pub fn orphan_stats(&self) -> &StatStripe {
        &self.orphan_stats
    }

    /// Registers a handle of a registry-backed scheme: claims a slot (a full
    /// registry becomes the scheme's [`CapacityExhausted`]) and keys the core
    /// by it. `fresh` builds the workspace when no previous tenant's is parked.
    pub fn register<R>(
        self: &Arc<Self>,
        registry: &Registry<R>,
        fresh: impl FnOnce(&SmrConfig) -> (SegPool, W),
    ) -> Result<(SlotId, HandleCore<W>), CapacityExhausted> {
        let slot = registry.try_acquire().map_err(|e| CapacityExhausted {
            scheme: self.name,
            capacity: e.capacity,
        })?;
        Ok((slot, self.attach(Some(slot), fresh)))
    }

    /// Attaches a handle core: keyed by `slot`, or — for the registry-less
    /// schemes (Leaky, RefCount), whose registration never exhausts — by a
    /// counter stripe dealt round-robin and shared past `max_threads`.
    pub fn attach(
        self: &Arc<Self>,
        slot: Option<SlotId>,
        fresh: impl FnOnce(&SmrConfig) -> (SegPool, W),
    ) -> HandleCore<W> {
        let stripe = slot.map_or_else(|| self.stats.assign_stripe(), SlotId::index);
        let workspace = self.workspaces.adopt();
        let (pool, scratch) = workspace.unwrap_or_else(|| fresh(&self.config));
        HandleCore {
            stripe,
            pool,
            scratch,
            ready: SegBag::new(),
            limbo_nodes: 0,
            limbo_bytes: 0,
            checked_at: 0,
            tele: CursorState::default(),
            since_scan: 0,
            scan_every: self.scan_every,
            shared: Arc::clone(self),
        }
    }
}

impl<W> Drop for SchemeCore<W> {
    fn drop(&mut self) {
        // SAFETY: all handles are gone (each holds an `Arc` to this core), so
        // no protection of any kind can be published and no thread can reach a
        // parked node.
        let (freed, freed_bytes) = unsafe { self.parked.drain_all() };
        self.orphan_stats.add_freed(freed as u64);
        self.orphan_stats.add_freed_bytes(freed_bytes as u64);
    }
}

/// The per-handle half of the retire pipeline (module docs). Dropping it
/// recycles the pool and scratch to the scheme's next registrant.
pub struct HandleCore<W: Default = ()> {
    shared: Arc<SchemeCore<W>>,
    /// Index of this handle's stripe: its counter stripe, and — modulo their
    /// number — its histogram stripe.
    stripe: usize,
    /// Recycled segments backing every bag of this handle.
    pool: SegPool,
    /// The scheme's reusable scan scratch, lent to every [`scan`](Self::scan)
    /// pass; the next registrant adopts whatever it holds at handle drop.
    pub scratch: W,
    /// Nodes a scan proved unreachable, awaiting the allocator (module docs).
    ready: SegBag,
    /// The ledger: nodes and stamped bytes this handle holds in limbo, across
    /// all of its bags and the ready chain.
    limbo_nodes: usize,
    limbo_bytes: usize,
    /// `limbo_bytes` when this handle last took the estimate to the governor:
    /// the grain gate's mark.
    checked_at: usize,
    /// What the telemetry cursor keeps between records ([`tele`](Self::tele)).
    tele: CursorState,
    /// Retires since the count-threshold rung last fired (or a flush reset it).
    since_scan: usize,
    /// The count threshold, fixed at attach ([`SchemeCore::with_scan_batch`]).
    scan_every: usize,
}

impl<W: Default> HandleCore<W> {
    /// The scheme's configuration.
    pub fn config(&self) -> &SmrConfig {
        &self.shared.config
    }

    /// This handle's counter stripe, for the protocol's own counters
    /// (quiescent states, traversal fences, path switches, scan dispatch).
    pub fn stats(&self) -> &StatStripe {
        self.shared.stats.stripe(self.stripe)
    }

    /// The telemetry cursor behind `SmrHandle::telemetry_cursor`: recording
    /// into the scheme's histograms, on this handle's stripe.
    #[inline]
    pub fn tele(&mut self) -> HandleTelemetry<'_> {
        HandleTelemetry::new(&self.shared.telemetry, self.stripe, &mut self.tele)
    }

    /// Nodes this handle has retired (or adopted) and not yet freed or parked
    /// — the first half of `SmrHandle::ledger`.
    pub fn in_limbo(&self) -> usize {
        self.limbo_nodes
    }

    /// Stamped bytes of those nodes — the second half.
    pub fn limbo_bytes(&self) -> usize {
        self.limbo_bytes
    }

    /// Stamped bytes of the ledger that are proven free and only await the
    /// allocator: what a scheme subtracts when it wants the bytes its
    /// protections still *pin* (HE's era pacer).
    pub fn ready_bytes(&self) -> usize {
        self.ready.bytes()
    }

    /// The free stage and the stamp: hands at most [`READY_FREES_PER_RETIRE`]
    /// ready nodes to the allocator, then counts the retire and its bytes,
    /// wraps the node in a [`RetiredPtr`] carrying the scheme's `stamp` and
    /// the telemetry tick, and pushes it into `bag` — the limbo bag the
    /// scheme's protocol picked.
    ///
    /// # Safety
    ///
    /// The `SmrHandle::retire` contract for `ptr`, `drop_fn`, `birth_era` and
    /// `size_bytes`.
    #[inline]
    pub unsafe fn retire(
        &mut self,
        bag: &mut SegBag,
        ptr: *mut u8,
        drop_fn: DropFn,
        stamp: u64,
        birth_era: Era,
        size_bytes: usize,
    ) {
        // One tick serves both ends: it stamps the new node and dates the
        // frees (a cached tick can trail a sibling's stamp on an adopted node;
        // `Telemetry::note_free` reads that as no delay).
        let tick = self.tele().retire_tick();
        if !self.ready.is_empty() {
            self.free_ready(READY_FREES_PER_RETIRE, tick);
        }
        let stats = self.stats();
        stats.add_retired(1);
        stats.add_retired_bytes(size_bytes as u64);
        if size_bytes == 0 {
            stats.add_size_unknown_retire();
        }
        // SAFETY: forwarded from the caller's contract.
        let mut node = unsafe { RetiredPtr::new(ptr, drop_fn, stamp, birth_era, size_bytes) };
        node.set_retire_tick(tick);
        bag.push(&mut self.pool, node);
        self.limbo_nodes += 1;
        self.limbo_bytes += size_bytes;
        self.since_scan += 1;
    }

    /// Hands up to `limit` ready nodes to the allocator — the only place a
    /// handle's nodes are freed — and books each there: the freed counters,
    /// the ledger, and the retire→free delay against `now_tick`.
    fn free_ready(&mut self, limit: usize, now_tick: u32) {
        let shared = &*self.shared;
        let (mut nodes, mut bytes) = (0, 0);
        while nodes < limit {
            let Some(node) = self.ready.pop(&mut self.pool) else {
                break;
            };
            shared.telemetry.note_free(self.stripe, now_tick, &node);
            nodes += 1;
            bytes += node.size_bytes();
            // SAFETY: only `Reclaim::free_walk` / `free_all` put nodes on the
            // ready chain, and their callers vouched that no thread can reach
            // them any more; an unreachable node stays unreachable.
            unsafe { node.reclaim() };
        }
        let stats = shared.stats.stripe(self.stripe);
        stats.add_freed(nodes as u64);
        stats.add_freed_bytes(bytes as u64);
        self.limbo_nodes -= nodes;
        self.limbo_bytes -= bytes;
    }

    /// Drains the ready chain whole and takes the estimate to the governor;
    /// true when the scheme is still over budget. Every scheme's `flush` ends
    /// with it, so a flush returns what its scans proved; [`park`](Self::park)
    /// and a budget-forced scan call it themselves.
    pub fn drain_ready(&mut self) -> bool {
        if !self.ready.is_empty() {
            let tele = &self.shared.telemetry;
            let now_tick = if tele.is_enabled() {
                tele.coarse_now()
            } else {
                0
            };
            self.free_ready(usize::MAX, now_tick);
        }
        self.report()
    }

    /// Tracking-only budget hook for schemes with no lever that is safe on the
    /// retire path (QSBR cannot quiesce mid-operation, Leaky never frees):
    /// keeps the estimate, its peak and the stopwatch honest, never escalates.
    pub fn track(&mut self) {
        self.observe();
    }

    /// Takes the estimate to the governor once the ledger's bytes have drifted
    /// a full grain from the last look — until then, a subtraction and a
    /// compare on handle-local words; true when that found the scheme over
    /// budget.
    #[inline]
    fn observe(&mut self) -> bool {
        if self.limbo_bytes.abs_diff(self.checked_at) < self.shared.governor.grain() {
            return false;
        }
        self.report()
    }

    /// Takes the estimate to the governor unconditionally (scan, flush and
    /// park boundaries, and `observe` past the grain): O(#stripes) loads and no
    /// write but a new peak's. True when the scheme is over budget.
    fn report(&mut self) -> bool {
        self.checked_at = self.limbo_bytes;
        let shared = &*self.shared;
        shared.governor.refresh(shared.limbo_estimate())
    }

    /// The ladder's count-threshold rung: true (and the counter restarts) once
    /// `scan_threshold` retires — times the scheme's scan batch — have
    /// accumulated.
    pub fn scan_due(&mut self) -> bool {
        let due = self.since_scan >= self.scan_every;
        if due {
            self.since_scan = 0;
        }
        due
    }

    /// The ladder's budget rungs, grain-gated (two subtractions and a compare
    /// until this handle's limbo drifts a full grain). On a crossing,
    /// `forced_scan` runs the scheme's pressure lever (if any) and a
    /// reclamation pass — gated passes are safe anywhere on the retire path
    /// (rung 1) — and what it proved goes to the allocator at once, not two a
    /// retire. If still over budget, the retiring thread yields once, so
    /// stalled readers get CPU time instead of this thread piling garbage ever
    /// faster (rung 3). Both are counted.
    #[inline]
    pub fn enforce_budget(&mut self, forced_scan: impl FnOnce(&mut Self)) {
        if self.observe() {
            self.shared.governor.count_forced_scan();
            self.since_scan = 0;
            forced_scan(self);
            if self.drain_ready() {
                self.shared.governor.count_backpressure();
                std::thread::yield_now();
            }
        }
    }

    /// The whole ladder for schemes whose threshold scan and forced scan are
    /// the same pass: call after every [`retire`](Self::retire).
    #[inline]
    pub fn after_retire(&mut self, scan: impl FnOnce(&mut Self)) {
        if self.scan_due() {
            scan(self);
        } else {
            self.enforce_budget(scan);
        }
    }

    /// The observed proof: `pass` moves what the scheme's rule releases from
    /// its bags onto the ready chain, through the [`Reclaim`] it is lent (with
    /// the handle's scratch). Nothing is freed and no count moves — the ledger
    /// and the estimate hold a ready node until the allocator has it. The core
    /// times the pass (telemetry on) and takes the estimate, at its highest
    /// just now, to the governor.
    pub fn scan(&mut self, pass: impl FnOnce(&mut Reclaim<'_>, &mut W)) {
        let shared = &*self.shared;
        let mut reclaim = Reclaim {
            pool: &mut self.pool,
            ready: &mut self.ready,
            stats: shared.stats.stripe(self.stripe),
            tele: &shared.telemetry,
            stripe: self.stripe,
            observer: None,
        };
        pass(&mut reclaim, &mut self.scratch);
        if let Some(observer) = reclaim.observer.take() {
            observer.finish();
        }
        self.report();
    }

    /// Flush-side adoption: splices the parked chain — leftovers of exited
    /// handles — into `into` (O(1), no allocation), enters it in the ledger
    /// and restarts the retire counter. The scheme-wide estimate does not
    /// move: the adopted nodes were retired and are still not freed.
    pub fn adopt_parked(&mut self, into: &mut SegBag) {
        let (nodes_before, bytes_before) = (into.len(), into.bytes());
        self.shared.parked.adopt_into(into);
        self.limbo_nodes += into.len() - nodes_before;
        self.limbo_bytes += into.bytes() - bytes_before;
        self.since_scan = 0;
    }

    /// Drop-side parking: the ready chain goes to the allocator, and
    /// `leftovers` — everything else the handle still holds, spliced into one
    /// bag — moves to the parked chain (O(1)), adopted by the next handle to
    /// flush or released at scheme drop. The leftovers stay in the estimate —
    /// retired, not freed — so a departed handle's limbo never goes invisible;
    /// the governor gets one last look, for a handle that never drifted a
    /// grain. Call before releasing the registry slot.
    pub fn park(&mut self, leftovers: &mut SegBag) {
        self.drain_ready();
        debug_assert_eq!(
            (leftovers.len(), leftovers.bytes()),
            (self.limbo_nodes, self.limbo_bytes),
            "the ledger must match what the handle still holds"
        );
        (self.limbo_nodes, self.limbo_bytes) = (0, 0);
        self.shared.parked.park(leftovers);
    }
}

impl<W: Default> Drop for HandleCore<W> {
    fn drop(&mut self) {
        let pool = std::mem::take(&mut self.pool);
        let scratch = std::mem::take(&mut self.scratch);
        self.shared.workspaces.park(pool, scratch);
    }
}

/// The proving side of one [`HandleCore::scan`] pass: moves the nodes the
/// scheme's predicate releases onto the handle's ready chain, which the retire
/// path then frees (module docs). The observer (scan timer) is created at the
/// first non-empty bag, so passes with nothing to examine pay no clock read.
pub struct Reclaim<'a> {
    pool: &'a mut SegPool,
    ready: &'a mut SegBag,
    stats: &'a StatStripe,
    tele: &'a Telemetry,
    /// The scanning handle's stripe index, for the histograms.
    stripe: usize,
    observer: Option<ScanObserver<'a>>,
}

impl Reclaim<'_> {
    /// The scanning handle's counter stripe (scan-dispatch counters, and the
    /// shard tally of a registry walk the pass makes).
    #[inline]
    pub fn stats(&self) -> &StatStripe {
        self.stats
    }

    /// Starts the scan timer at the first bag that holds anything.
    fn observe(&mut self) {
        if self.observer.is_none() {
            self.observer = self.tele.scan_observer(self.stripe);
        }
    }

    /// Walks `bag` ([`SegBag::transfer_walk`]): stops for good at the first
    /// node failing `keep_scanning`, releases every node before that passing
    /// `can_free` to the ready chain, visits each survivor once.
    ///
    /// # Safety
    ///
    /// `can_free` must only pass nodes no other thread can still access: the
    /// core frees them without asking again.
    pub unsafe fn free_walk(
        &mut self,
        bag: &mut SegBag,
        keep_scanning: impl FnMut(&RetiredPtr) -> bool,
        can_free: impl FnMut(&RetiredPtr) -> bool,
        visit_survivor: impl FnMut(&RetiredPtr),
    ) {
        if !bag.is_empty() {
            self.observe();
            bag.transfer_walk(
                self.pool,
                self.ready,
                keep_scanning,
                can_free,
                visit_survivor,
            );
        }
    }

    /// Releases the whole of `bag`, no per-node test and no per-node work: one
    /// splice (grace-period drains, unreachable era chains).
    ///
    /// # Safety
    ///
    /// No thread may be able to access any node in `bag`: the core frees them
    /// without asking again.
    #[inline]
    pub unsafe fn free_all(&mut self, bag: &mut SegBag) {
        if !bag.is_empty() {
            self.observe();
            self.ready.splice(bag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, ManualClock, NO_BIRTH_ERA};
    use crate::smr::drop_fn_for;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// A 300-byte node that counts its own destruction.
    struct Node(Arc<AtomicUsize>, #[allow(dead_code)] [u8; 300 - 8]);
    const NODE: usize = std::mem::size_of::<Node>();

    impl Drop for Node {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The trivial in-test protocol: one bag, and a free rule of "everything,
    /// unless the test has pinned it".
    struct Handle {
        core: HandleCore<Vec<u8>>,
        bag: SegBag,
        pinned: bool,
        scans: usize,
    }

    impl Handle {
        fn register(scheme: &Arc<SchemeCore<Vec<u8>>>, fresh_calls: &mut usize) -> Self {
            let core = scheme.attach(None, |config| {
                *fresh_calls += 1;
                let pool = SegPool::for_scan_threshold(config.scan_threshold);
                (pool, Vec::with_capacity(64))
            });
            Self {
                core,
                bag: SegBag::new(),
                pinned: false,
                scans: 0,
            }
        }

        fn scan(core: &mut HandleCore<Vec<u8>>, bag: &mut SegBag, pinned: bool) {
            core.scan(|reclaim, _| {
                if !pinned {
                    // SAFETY: the test owns every node and holds no reference to any.
                    unsafe { reclaim.free_all(bag) };
                }
            })
        }

        fn retire(&mut self, drops: &Arc<AtomicUsize>) {
            let node = Box::into_raw(Box::new(Node(Arc::clone(drops), [0; 300 - 8])));
            let (bag, pinned, scans) = (&mut self.bag, self.pinned, &mut self.scans);
            // SAFETY: freshly boxed, never linked anywhere, retired exactly once.
            unsafe {
                self.core.retire(
                    bag,
                    node.cast(),
                    drop_fn_for::<Node>(),
                    0,
                    NO_BIRTH_ERA,
                    NODE,
                )
            };
            self.core.after_retire(|core| {
                *scans += 1;
                Self::scan(core, bag, pinned)
            });
        }

        fn flush(&mut self) {
            self.core.adopt_parked(&mut self.bag);
            Self::scan(&mut self.core, &mut self.bag, self.pinned);
            self.core.drain_ready();
        }
    }

    impl Drop for Handle {
        fn drop(&mut self) {
            self.core.park(&mut self.bag);
        }
    }

    fn scheme(clock: &ManualClock, budget: Option<usize>) -> Arc<SchemeCore<Vec<u8>>> {
        let config = SmrConfig::default()
            .with_max_threads(2)
            .with_scan_threshold(1_000_000)
            .with_limbo_budget(budget)
            .with_clock(Clock::manual(clock.clone()));
        SchemeCore::new("test", config)
    }

    #[test]
    fn a_budget_crossing_forces_one_scan_and_still_over_one_yield() {
        let clock = ManualClock::new();
        let drops = Arc::new(AtomicUsize::new(0));
        // Grain = 256 B (the floor), so every 300-byte retire looks.
        let scheme = scheme(&clock, Some(1_000));
        let mut handle = Handle::register(&scheme, &mut 0);
        handle.pinned = true;
        for _ in 0..3 {
            handle.retire(&drops);
        }
        let verdict = scheme.budget_verdict();
        assert_eq!(handle.scans, 0, "under budget: no rung fires");
        assert_eq!(verdict.escalations(), 0);
        assert!(verdict.within_budget());

        // The fourth retire crosses the budget. The forced scan frees nothing
        // (pinned), so the ladder climbs to its last rung — once.
        handle.retire(&drops);
        clock.advance(Duration::from_millis(7));
        let verdict = scheme.budget_verdict();
        assert_eq!(handle.scans, 1, "exactly one forced scan");
        assert_eq!(verdict.forced_scans, 1);
        assert_eq!(verdict.backpressure_events, 1, "exactly one bounded yield");
        assert_eq!(verdict.current_bytes, 4 * NODE as u64);
        assert!(!verdict.within_budget());
        assert!(verdict.time_over_budget >= Duration::from_millis(7));

        // Unpinned, the next crossing's forced scan gets back under budget:
        // one more scan, no further yield.
        handle.pinned = false;
        handle.retire(&drops);
        let verdict = scheme.budget_verdict();
        assert_eq!(handle.scans, 2);
        assert_eq!(verdict.forced_scans, 2);
        assert_eq!(verdict.backpressure_events, 1);
        assert_eq!(verdict.current_bytes, 0);
        assert_eq!((handle.core.in_limbo(), handle.core.limbo_bytes()), (0, 0));
        assert_eq!(drops.load(Ordering::SeqCst), 5);
        assert!(
            handle.core.ready.is_empty(),
            "a forced scan's proof is freed whole"
        );
        let stats = scheme.stats();
        assert_eq!((stats.retired, stats.freed), (5, 5));
        assert_eq!(stats.freed_bytes, 5 * NODE as u64);
        assert_eq!(stats.size_unknown_retires, 0);
    }

    #[test]
    fn after_a_proof_of_n_nodes_k_retires_free_exactly_min_n_2k() {
        let clock = ManualClock::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = scheme(&clock, None);
        let mut handle = Handle::register(&scheme, &mut 0);
        const N: usize = 7;
        for _ in 0..N {
            handle.retire(&drops);
        }
        Handle::scan(&mut handle.core, &mut handle.bag, false);
        assert_eq!((handle.bag.len(), handle.core.ready.len()), (0, N));
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "a scan proves, it frees nothing"
        );
        // New retires stay in the bag, so every drop below is a ready node's.
        handle.pinned = true;
        for k in 1..=N {
            handle.retire(&drops);
            let freed = N.min(READY_FREES_PER_RETIRE * k);
            assert_eq!(drops.load(Ordering::SeqCst), freed, "after {k} retires");
            assert_eq!(scheme.stats().freed, freed as u64);
            assert_eq!(handle.core.in_limbo(), N + k - freed);
            assert_eq!(scheme.limbo_estimate(), ((N + k - freed) * NODE) as u64);
        }
        assert_eq!(handle.scans, 0);
    }

    #[test]
    fn a_handle_that_only_reads_keeps_its_ready_nodes_on_the_books() {
        let clock = ManualClock::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = scheme(&clock, None);
        let mut handle = Handle::register(&scheme, &mut 0);
        for _ in 0..3 {
            handle.retire(&drops);
        }
        Handle::scan(&mut handle.core, &mut handle.bag, false);
        // No retire follows: nothing reaches the allocator, and nothing leaves
        // the handle's ledger, the counters or the scheme-wide estimate.
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        assert_eq!(
            (handle.core.in_limbo(), handle.core.limbo_bytes()),
            (3, 3 * NODE)
        );
        assert_eq!(handle.core.ready_bytes(), 3 * NODE);
        let (stats, verdict) = (scheme.stats(), scheme.budget_verdict());
        assert_eq!((stats.freed, stats.freed_bytes), (0, 0));
        assert_eq!(verdict.current_bytes, 3 * NODE as u64);
        assert_eq!(verdict.peak_bytes, 3 * NODE as u64, "the scan looked");
        drop(handle);
        assert_eq!(drops.load(Ordering::SeqCst), 3);
        assert_eq!(scheme.limbo_estimate(), 0);
    }

    #[test]
    fn flush_and_park_leave_the_ready_chain_empty() {
        let clock = ManualClock::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = scheme(&clock, None);
        let mut handle = Handle::register(&scheme, &mut 0);
        let prove_five = |handle: &mut Handle| {
            for _ in 0..5 {
                handle.retire(&drops);
            }
            Handle::scan(&mut handle.core, &mut handle.bag, false);
            assert_eq!(handle.core.ready.len(), 5);
        };
        prove_five(&mut handle);
        handle.flush();
        assert!(handle.core.ready.is_empty());
        assert_eq!(drops.load(Ordering::SeqCst), 5);
        // The handle drops — `park` — holding three proven nodes and one still
        // pinned, which alone is parked.
        prove_five(&mut handle);
        handle.pinned = true;
        handle.retire(&drops);
        assert_eq!(handle.core.ready.len(), 5 - READY_FREES_PER_RETIRE);
        drop(handle);
        assert_eq!(drops.load(Ordering::SeqCst), 10);
        let stats = scheme.stats();
        assert_eq!((stats.retired, stats.freed), (11, 10));
        assert_eq!(scheme.limbo_estimate(), NODE as u64);
    }

    #[test]
    fn the_count_threshold_fires_before_the_budget_is_consulted() {
        let clock = ManualClock::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let config = SmrConfig::default()
            .with_scan_threshold(4)
            .with_clock(Clock::manual(clock.clone()));
        let scheme = SchemeCore::<Vec<u8>>::new("test", config);
        let mut handle = Handle::register(&scheme, &mut 0);
        for _ in 0..9 {
            handle.retire(&drops);
        }
        assert_eq!(handle.scans, 2, "one scan per `scan_threshold` retires");
        // Each scan released four; the retires since returned two apiece
        // (retires 5 and 6 the first four, retire 9 two of the second).
        assert_eq!(drops.load(Ordering::SeqCst), 6);
        assert_eq!(scheme.budget_verdict().escalations(), 0);
        handle.flush();
        assert_eq!((handle.scans, drops.load(Ordering::SeqCst)), (2, 9));
    }

    #[test]
    fn a_scan_batch_stretches_the_count_threshold_and_leaves_the_budget_rungs_alone() {
        let clock = ManualClock::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let batched = |budget| {
            let config = SmrConfig::default()
                .with_scan_threshold(4)
                .with_limbo_budget(budget)
                .with_clock(Clock::manual(clock.clone()));
            SchemeCore::<Vec<u8>>::with_scan_batch("test", config, 8)
        };
        let scheme = batched(None);
        let mut handle = Handle::register(&scheme, &mut 0);
        for _ in 0..31 {
            handle.retire(&drops);
        }
        assert_eq!(handle.scans, 0, "the count threshold is 4 x 8 retires");
        handle.retire(&drops);
        assert_eq!((handle.scans, handle.core.ready.len()), (1, 32));
        drop(handle);
        assert_eq!(drops.load(Ordering::SeqCst), 32);

        // Under a 20-node budget the 21st retire crosses it: the forced scan
        // runs at once, 11 retires short of the batch.
        let scheme = batched(Some(20 * NODE));
        let mut handle = Handle::register(&scheme, &mut 0);
        for _ in 0..20 {
            handle.retire(&drops);
        }
        assert_eq!(handle.scans, 0);
        handle.retire(&drops);
        assert_eq!(handle.scans, 1, "a crossing does not wait for the batch");
        assert_eq!(scheme.budget_verdict().forced_scans, 1);
        assert_eq!(drops.load(Ordering::SeqCst), 32 + 21);
    }

    #[test]
    fn the_estimate_needs_no_report_and_the_grain_gates_only_the_peak() {
        let clock = ManualClock::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = scheme(&clock, Some(1 << 20));
        assert!(2 * NODE < scheme.governor().grain());
        let (mut a, mut b) = (
            Handle::register(&scheme, &mut 0),
            Handle::register(&scheme, &mut 0),
        );
        // Each retires less than a grain and neither scans: no handle has
        // taken anything to the governor, and a third party already reads
        // every byte.
        for handle in [&mut a, &mut b] {
            handle.retire(&drops);
            handle.retire(&drops);
        }
        assert_eq!((a.scans, b.scans), (0, 0));
        let verdict = scheme.budget_verdict();
        assert_eq!(verdict.current_bytes, 4 * NODE as u64);
        assert_eq!(verdict.current_bytes, scheme.stats().limbo_bytes());
        assert_eq!(verdict.peak_bytes, 0, "nobody has looked yet");
        // A scan is a look, whatever it frees; a free is the only thing that
        // lowers the estimate.
        a.pinned = true;
        a.flush();
        assert_eq!(scheme.budget_verdict().peak_bytes, 4 * NODE as u64);
        assert_eq!(scheme.limbo_estimate(), 4 * NODE as u64);
        b.flush();
        assert_eq!(scheme.limbo_estimate(), 2 * NODE as u64);
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn park_then_adopt_conserves_the_estimate_and_scheme_drop_frees_the_rest() {
        let clock = ManualClock::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = scheme(&clock, None);
        let mut survivor = Handle::register(&scheme, &mut 0);
        survivor.pinned = true;
        {
            let mut dying = Handle::register(&scheme, &mut 0);
            dying.pinned = true;
            for _ in 0..3 {
                dying.retire(&drops);
            }
            dying.flush();
            assert_eq!(scheme.limbo_estimate(), 3 * NODE as u64);
            assert_eq!(
                (dying.core.in_limbo(), dying.core.limbo_bytes()),
                (3, 3 * NODE)
            );
        } // drop: the leftovers are parked (and checked against the ledger)
        assert_eq!(
            scheme.limbo_estimate(),
            3 * NODE as u64,
            "parked limbo keeps pressing on the estimate"
        );
        // Adoption alone — before any scan — moves it by nothing.
        assert_eq!(survivor.core.in_limbo(), 0);
        survivor.core.adopt_parked(&mut survivor.bag);
        assert_eq!(survivor.bag.len(), 3);
        assert_eq!(
            (survivor.core.in_limbo(), survivor.core.limbo_bytes()),
            (3, 3 * NODE),
            "adopted nodes enter the adopter's ledger"
        );
        assert_eq!(scheme.limbo_estimate(), 3 * NODE as u64);
        survivor.flush();
        assert_eq!(scheme.limbo_estimate(), 3 * NODE as u64);
        assert_eq!(
            scheme.governor().peak_bytes(),
            3 * NODE as u64,
            "no double count"
        );
        survivor.retire(&drops);
        drop(survivor); // parks all four again
        assert_eq!(scheme.limbo_estimate(), 4 * NODE as u64);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        let stats = scheme.stats();
        assert_eq!((stats.retired, stats.freed), (4, 0));
        drop(scheme);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            4,
            "scheme drop drains the parked chain"
        );
    }

    #[test]
    fn a_dying_handles_workspace_is_adopted_by_the_next_registrant() {
        let clock = ManualClock::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = scheme(&clock, None);
        let mut fresh_calls = 0;
        let (segments, capacity) = {
            let mut first = Handle::register(&scheme, &mut fresh_calls);
            for _ in 0..100 {
                first.retire(&drops);
            }
            first.flush();
            first.core.scratch.reserve(1_000);
            (
                first.core.pool.free_segments(),
                first.core.scratch.capacity(),
            )
        };
        assert_eq!(fresh_calls, 1);
        assert!(segments >= 100 / crate::segbag::SEG_CAP);
        let second = Handle::register(&scheme, &mut fresh_calls);
        assert_eq!(
            fresh_calls, 1,
            "the parked workspace was adopted, not rebuilt"
        );
        assert_eq!(second.core.pool.free_segments(), segments);
        assert_eq!(second.core.scratch.capacity(), capacity);
        // With the cache empty, further registrants build anew; and workspaces
        // past `max_threads` (2) are dropped at exit, not hoarded.
        let third = Handle::register(&scheme, &mut fresh_calls);
        let fourth = Handle::register(&scheme, &mut fresh_calls);
        assert_eq!(fresh_calls, 3);
        drop((second, third, fourth));
        let _next_wave: Vec<Handle> = (0..3)
            .map(|_| Handle::register(&scheme, &mut fresh_calls))
            .collect();
        assert_eq!(fresh_calls, 4, "two adopted, the third rebuilt");
    }
}
