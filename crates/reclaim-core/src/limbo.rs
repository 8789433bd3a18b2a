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
//! most `READY_FREES_PER_RETIRE` ready nodes are freed before the new one is
//! stamped. A scan or an epoch drain proves 500–1 000 nodes at once; handed
//! over in one burst they overflow the allocator's per-thread cache (glibc's
//! holds 7 a size class), push those frees and the allocations that follow
//! through the arena bins, and return memory that went cold while it waited —
//! the batch-free effect of Brown's DEBRA paper, cured as Singh's thesis does,
//! by *amortised freeing* (on the benchmark's queue it was worth +14–17 % to
//! EBR). Each destructor is offered the handle's [`NodeCache`], and a block's
//! ([`crate::node_cache`]) *recycles* the block there, for the handle's next
//! allocation of its class: a handle that frees as fast as it allocates keeps
//! the allocator off its steady state. Past the cache's cap the block goes to
//! the scheme's arena, which this core owns and frees last, after the parked
//! leftovers have given their blocks back.
//! `flush` ([`HandleCore::drain_ready`]), handle drop ([`HandleCore::park`])
//! and a budget-forced scan drain the chain whole.
//!
//! A handle's limbo totals are kept here too — the **ledger**: the core is
//! handed every node that enters a handle's limbo ([`HandleCore::retire`],
//! [`HandleCore::adopt_parked`]) and every node that leaves it (to the
//! allocator off the ready chain, or [`HandleCore::park`]), so it
//! counts them once and no scheme sums its bags or passes a total in. Ready
//! nodes stay in it, and in `retired − freed`, until the allocator has them. The
//! ledger is the handle's own view (`SmrHandle::local_in_limbo`, the count
//! threshold, the grain gate); the scheme-wide figure is not built from ledgers but read
//! off the same counter stripes every retire and free already writes
//! ([`SchemeCore::limbo_estimate`]: `retired_bytes − freed_bytes`), so parking,
//! adopting and dropping a handle move it by nothing and there is no second
//! tally to keep in step. What stays private to this crate: the freed-side
//! counters are credited only where a node reaches the allocator — off the
//! ready chain, or off the parked leftovers at scheme drop; a scheme cannot
//! write a free it did not perform — and the `Parked` store, whose
//! hand-offs must match the ledger. Everything is generic over closures and
//! monomorphised per scheme — no `dyn` on the retire path.
//!
//! **What a departing handle leaves** has one owner, the scheme's `Parked`
//! store, behind one lock — its limbo leftovers, its tally of kept plain
//! blocks, its pool and scratch — which scheme drop drains in one place; its
//! node cache's blocks go back to the arena. **What a new handle is built
//! from** is decided here once too ([`SchemeCore::attach`]): the last parked
//! workspace, else a pool pre-warmed for the scan threshold and a scan
//! scratch of 64-bit words, as many as the scheme's largest snapshot — the
//! scheme names only that count.

use crate::budget::BudgetGovernor;
use crate::config::SmrConfig;
use crate::node_cache::{NodeCache, SchemeArena};
use crate::registry::{Registry, SlotId};
use crate::retired::RetiredPtr;
use crate::segbag::{SegBag, SegPool};
use crate::smr::CapacityExhausted;
use crate::stats::{Counter, ShardedStats, StatStripe, StatsSnapshot};
use crate::telemetry::{CursorState, Telemetry, OP_SAMPLE_SHIFT, TICK_REFRESH};
use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Ready nodes one [`HandleCore::retire`] hands the allocator at most. A
/// constant, not a knob: above 1, so a backlog drains twice as fast as retires
/// can grow it; as small as that allows, so every burst fits the allocator's
/// per-thread cache.
///
/// With the node cache in place, freeing at the scan instead — no ready
/// chain, a proof's blocks straight into the cache — was measured against it
/// on `queue_churn` (2-vCPU host, alternating 30 s benchmark pairs, every
/// check on, 0 operations failed). QSBR gained 12.0 % (4 of 4 pairs) and
/// 4.9 % (5 of 6), HE 6.8 % and 8.6 %, QSense 6.8 % and 3.9 %; Cadence lost
/// 10.9 % (0 of 4) with the blocks past the cap going straight to the
/// allocator, and 7.6 % (0 of 6) with the cache giving its excess back two
/// blocks a retire. A rooster tick proves about 7 000 nodes a handle there
/// (`hazard::hp_scan`), more than
/// `NODE_CACHE_BYTES` holds, so the burst reaches
/// the allocator after all. Two stays; 1 or 4 frees a retire were not
/// measured.
pub(crate) const READY_FREES_PER_RETIRE: usize = 2;

/// The scheme-wide half of the retire pipeline (module docs), which builds
/// every handle's workspace by one rule ([`attach`](Self::attach)).
pub struct SchemeCore {
    name: &'static str,
    config: SmrConfig,
    /// One counter stripe per handle — keyed by registry slot index, or dealt
    /// round-robin for registry-less schemes — and the orphan stripe last.
    stats: ShardedStats,
    /// What exited handles left behind.
    parked: Mutex<Parked>,
    governor: BudgetGovernor,
    telemetry: Telemetry,
    /// Where the blocks of the scheme's nodes are carved
    /// ([`crate::node_cache`]). Last, so it drops after the parked
    /// leftovers have given their blocks back.
    arena: SchemeArena,
}

/// Everything exited handles left behind (module docs), behind one lock.
pub(crate) struct Parked {
    /// Limbo leftovers, awaiting a survivor's flush.
    leftovers: SegBag,
    /// Segment pools and scan scratch for the next registrants, LIFO. Sized
    /// up front at `max_threads`, as many as can be in use, so parking one
    /// never touches the allocator.
    workspaces: Vec<(SegPool, Vec<u64>)>,
    /// Nodes and bytes of the plain blocks kept with no record
    /// ([`HandleCore::retire_unfreed`]), freed with their chunks.
    kept: (usize, usize),
}

impl Parked {
    fn new(max_threads: usize) -> Self {
        Self {
            leftovers: SegBag::new(),
            workspaces: Vec::with_capacity(max_threads),
            kept: (0, 0),
        }
    }

    /// Frees every leftover; returns the nodes and bytes freed.
    ///
    /// # Safety
    ///
    /// No thread can reach any of them: the scheme is dropping.
    unsafe fn free_leftovers(&mut self) -> (usize, usize) {
        let bytes = self.leftovers.bytes();
        // SAFETY: the caller's contract.
        let nodes = unsafe { self.leftovers.reclaim_all(&mut SegPool::new()) };
        (nodes, bytes)
    }
}

impl SchemeCore {
    /// Creates the core for a scheme reporting itself as `name`, whose handles
    /// scan every `scan_threshold` retires.
    pub fn new(name: &'static str, config: SmrConfig) -> Arc<Self> {
        Arc::new(Self {
            name,
            stats: ShardedStats::new(config.max_threads),
            parked: Mutex::new(Parked::new(config.max_threads)),
            governor: BudgetGovernor::new(config.limbo_budget, config.clock.clone()),
            telemetry: Telemetry::from_config(&config),
            arena: SchemeArena::new(),
            config,
        })
    }

    /// The scheme's short name (`Smr::name`).
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    /// The configuration the scheme was created with.
    pub fn config(&self) -> &SmrConfig {
        &self.config
    }

    /// `Smr::stats`: every stripe summed, plus the governor's peak, budget and
    /// stopwatch and the arena's footprints.
    pub(crate) fn stats(&self) -> StatsSnapshot {
        let mut snap = self.stats.snapshot();
        let governor = &self.governor;
        snap.peak_limbo_bytes = governor.peak_bytes();
        snap.budget_bytes = governor.budget_bytes();
        snap.time_over_budget = governor.time_over_budget();
        // A cache's bytes move between stripes: a racing sum can dip below 0.
        snap.cached_bytes = u64::try_from(snap.cached_bytes as i64).unwrap_or(0);
        let (chunks, listed) = self.arena.get().footprint();
        (snap.arena_bytes, snap.arena_free_bytes) = (chunks as u64, listed as u64);
        snap
    }

    /// The scheme-wide limbo bytes: retired and not yet freed, whoever holds
    /// them — a live handle, the parked leftovers, or a handle mid-drop:
    /// `retired_bytes − freed_bytes` over every stripe, the orphan's
    /// included, freed first, clamped at 0. What the governor is handed, what
    /// [`StatsSnapshot::limbo_bytes`] reports, what HE's era pacer adapts to.
    pub fn limbo_estimate(&self) -> u64 {
        self.stats.limbo_bytes()
    }

    /// The budget governor: its budget, grain, peak and stopwatch.
    pub fn governor(&self) -> &BudgetGovernor {
        &self.governor
    }

    /// `Smr::telemetry`.
    pub(crate) fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The counter stripe for scheme-level events no handle owns (frees of
    /// parked leftovers at scheme drop, EBR's epoch advances): the last row
    /// of the scheme's table, which no handle is dealt and every sum covers.
    pub fn orphan_stats(&self) -> &StatStripe {
        self.stats.orphan()
    }

    /// A fresh block off this scheme's arena for a node no handle allocates:
    /// a structure's sentinels, which its `Drop` frees while it holds the scheme.
    pub fn alloc_block(&self, layout: Layout) -> NonNull<u8> {
        self.arena.alloc(layout)
    }

    fn parked(&self) -> MutexGuard<'_, Parked> {
        self.parked.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a handle of a registry-backed scheme: claims a slot (a full
    /// registry becomes the scheme's [`CapacityExhausted`]) and keys the core
    /// by it; `words` sizes a fresh scratch, as [`attach`](Self::attach) says.
    pub fn register<R>(
        self: &Arc<Self>,
        registry: &Registry<R>,
        words: usize,
    ) -> Result<(SlotId, HandleCore), CapacityExhausted> {
        let slot = registry.acquire().ok_or(CapacityExhausted {
            scheme: self.name,
            capacity: registry.capacity(),
        })?;
        Ok((slot, self.attach(Some(slot), words)))
    }

    /// Attaches a handle core: keyed by `slot`, or — for the registry-less
    /// schemes (Leaky, RefCount), whose registration never exhausts — by a
    /// counter stripe dealt round-robin and shared past `max_threads`. It
    /// adopts the last parked workspace; with none parked it builds one by
    /// the one rule for every scheme: a pool pre-warmed for the scan
    /// threshold (`SegPool::for_scan_threshold`) and a scratch of `words`
    /// capacity, the scheme's largest snapshot, so neither the first bag
    /// fill nor any scan allocates.
    pub fn attach(self: &Arc<Self>, slot: Option<SlotId>, words: usize) -> HandleCore {
        let stripe = slot.map_or_else(|| self.stats.assign_stripe(), SlotId::index);
        let workspace = self.parked().workspaces.pop();
        let (pool, scratch) = workspace.unwrap_or_else(|| {
            let pool = SegPool::for_scan_threshold(self.config.scan_threshold);
            (pool, Vec::with_capacity(words))
        });
        HandleCore {
            stripe,
            pool,
            scratch,
            cache: NodeCache::new(&self.arena),
            ready: SegBag::new(),
            limbo_nodes: 0,
            limbo_bytes: 0,
            kept: (0, 0),
            checked_at: 0,
            cursor: CursorState::default(),
            since_scan: 0,
            scan_threshold: self.config.scan_threshold,
            shared: Arc::clone(self),
        }
    }
}

impl Drop for SchemeCore {
    fn drop(&mut self) {
        let parked = self
            .parked
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        // SAFETY: all handles are gone (each holds an `Arc` to this core), so
        // no protection of any kind can be published and no thread can reach a
        // parked node.
        let (freed, freed_bytes) = unsafe { parked.free_leftovers() };
        let (kept, kept_bytes) = parked.kept;
        // SAFETY: as above, and a kept block has no record anyone could free
        // it through: its chunk goes with the arena, dropped last.
        unsafe { self.arena.credit(kept_bytes) };
        let orphan = self.stats.orphan();
        orphan.add(Counter::Freed, (freed + kept) as u64);
        orphan.add(Counter::FreedBytes, (freed_bytes + kept_bytes) as u64);
    }
}

/// The per-handle half of the retire pipeline (module docs). Dropping it
/// gives the node cache's blocks back to the arena and leaves the pool and
/// scratch to the scheme's next registrant.
pub struct HandleCore {
    shared: Arc<SchemeCore>,
    /// Index of this handle's stripe: its counter stripe, and — modulo their
    /// number — its histogram stripe.
    stripe: usize,
    /// Recycled segments backing every bag of this handle.
    pool: SegPool,
    /// The scheme's reusable scan scratch, lent to every [`scan`](Self::scan)
    /// pass: 64-bit words — snapshot addresses (HP, Cadence, QSense), era
    /// pairs (HE) or announced addresses (RC) — none ever dereferenced. The
    /// next registrant adopts whatever it holds at handle drop.
    pub scratch: Vec<u64>,
    /// Blocks the free stage freed, for this handle's next allocations
    /// ([`crate::guard::Guard::alloc_block`]).
    pub cache: NodeCache,
    /// Nodes a scan proved unreachable, awaiting the allocator (module docs).
    ready: SegBag,
    /// The ledger: nodes and stamped bytes this handle holds in limbo, across
    /// all of its bags and the ready chain.
    limbo_nodes: usize,
    limbo_bytes: usize,
    /// Nodes and bytes of the ledger kept with no record
    /// ([`retire_unfreed`](Self::retire_unfreed)).
    kept: (usize, usize),
    /// `limbo_bytes` when this handle last took the estimate to the governor:
    /// the grain gate's mark.
    checked_at: usize,
    /// What the op bracket and the retire stamp keep between telemetry
    /// records.
    cursor: CursorState,
    /// Retires since the count-threshold rung last fired (or a flush reset it).
    since_scan: usize,
    /// `config.scan_threshold`, copied at attach so the rung reads the handle.
    /// Reading the config instead measured 2–6 % slower for every scheme on
    /// `skiplist_mixed`, `none` included (6 rotating benchmark runs).
    scan_threshold: usize,
}

impl HandleCore {
    /// The scheme's configuration.
    pub fn config(&self) -> &SmrConfig {
        &self.shared.config
    }

    /// This handle's row of the scheme's counter table, for the protocol's
    /// own counters (quiescent states, traversal fences, path switches, scan
    /// dispatch): `stats().add(Counter::X, n)` is one `fetch_add` on a line
    /// no other handle writes.
    pub fn stats(&self) -> &StatStripe {
        self.shared.stats.stripe(self.stripe)
    }

    /// The op bracket's entry ([`crate::guard::Guard::new`]): one flag load
    /// when telemetry is off; when on, counts the op and reads
    /// `Instant::now()` for the 1-in-2^[`OP_SAMPLE_SHIFT`] sampled ops only,
    /// refreshing the retire-tick cache for free.
    #[inline]
    pub(crate) fn op_begin(&mut self) -> Option<Instant> {
        let telemetry = &self.shared.telemetry;
        if !telemetry.is_enabled() {
            return None;
        }
        let sampled = self.cursor.ops & ((1 << OP_SAMPLE_SHIFT) - 1) == 0;
        self.cursor.ops = self.cursor.ops.wrapping_add(1);
        if !sampled {
            return None;
        }
        let now = Instant::now();
        self.cursor.tick_cache = telemetry.tick_from(now);
        Some(now)
    }

    /// The op bracket's exit for a sampled op: records its latency.
    #[inline]
    pub(crate) fn op_end(&self, started: Instant) {
        self.shared.telemetry.record_op(self.stripe, started);
    }

    /// The retire-time telemetry tick: 0 (one flag load) when telemetry is
    /// off, otherwise the cached coarse tick, re-read every
    /// [`TICK_REFRESH`] retires (and whenever a sampled op refreshes it), so
    /// a retire between refreshes pays the flag load, a counter bump and one
    /// `u32` copy.
    #[inline]
    pub(crate) fn retire_tick(&mut self) -> u32 {
        let telemetry = &self.shared.telemetry;
        if !telemetry.is_enabled() {
            return 0;
        }
        let cursor = &mut self.cursor;
        if cursor.retires & (TICK_REFRESH - 1) == 0 || cursor.tick_cache == 0 {
            cursor.tick_cache = telemetry.coarse_now();
        }
        cursor.retires = cursor.retires.wrapping_add(1);
        cursor.tick_cache
    }

    /// Nodes this handle has retired (or adopted) and not yet freed or parked
    /// — the first half of the ledger (`SmrHandle::local_in_limbo`).
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

    /// The free stage and the stamp: frees at most `READY_FREES_PER_RETIRE`
    /// ready nodes, then counts the retire and its bytes, writes the scheme's
    /// `stamp` and the telemetry tick into `node`, and pushes it into `bag` —
    /// the limbo bag the scheme's protocol picked.
    ///
    /// # Safety
    ///
    /// The `SmrHandle::retire` contract for `node`, on this core's scheme.
    #[inline]
    pub unsafe fn retire(&mut self, bag: &mut SegBag, mut node: RetiredPtr, stamp: u64) {
        // One tick serves both ends: it stamps the new node and dates the
        // frees (a cached tick can trail a sibling's stamp on an adopted node;
        // `Telemetry::note_free` reads that as no delay).
        let tick = self.retire_tick();
        if !self.ready.is_empty() {
            self.free_ready(READY_FREES_PER_RETIRE, tick);
        }
        node.set_stamps(stamp, tick);
        self.book_retire(node.size_bytes());
        bag.push(&mut self.pool, node);
        self.since_scan += 1;
    }

    /// Counts a retire of `size_bytes` and enters it in the ledger.
    #[inline]
    fn book_retire(&mut self, size_bytes: usize) {
        let stats = self.stats();
        stats.add(Counter::Retired, 1);
        stats.add(Counter::RetiredBytes, size_bytes as u64);
        if size_bytes == 0 {
            stats.add(Counter::SizeUnknownRetires, 1);
        }
        self.limbo_nodes += 1;
        self.limbo_bytes += size_bytes;
    }

    /// The retire of a scheme that frees nothing while it runs (Leaky): a
    /// plain block of this scheme's arena is booked — the retired counters
    /// and the ledger — and kept with no record, untouched until scheme drop
    /// frees its chunk; any other node is [`retire`](Self::retire)d into
    /// `bag` with a zero stamp.
    ///
    /// # Safety
    ///
    /// As [`retire`](Self::retire)'s, and the scheme frees none of its nodes
    /// before it drops.
    #[inline]
    pub(crate) unsafe fn retire_unfreed(&mut self, bag: &mut SegBag, node: RetiredPtr) {
        if !node.is_plain_block() {
            // SAFETY: the caller's contract.
            return unsafe { self.retire(bag, node, 0) };
        }
        // Kept, the block is credited to this arena at scheme drop: one of
        // another arena's would make it free its chunks with a block out.
        // SAFETY: a plain block is of a cached class, which an arena carved.
        let owned = unsafe { self.cache.owns(node.addr()) };
        assert!(owned, "a node of another scheme's structure");
        self.book_retire(node.size_bytes());
        self.kept.0 += 1;
        self.kept.1 += node.size_bytes();
    }

    /// Frees up to `limit` ready nodes — the only place a handle's nodes are
    /// freed, each destructor offered the handle's node cache — and books each there: the freed counters,
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
            unsafe { node.reclaim(Some(&mut self.cache)) };
        }
        let stats = shared.stats.stripe(self.stripe);
        stats.add(Counter::Freed, nodes as u64);
        stats.add(Counter::FreedBytes, bytes as u64);
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
        self.book_cache();
        self.checked_at = self.limbo_bytes;
        let shared = &*self.shared;
        shared.governor.refresh(shared.limbo_estimate())
    }

    /// Books the node cache's move since its last booking on this handle's
    /// stripe ([`StatsSnapshot::cached_bytes`]); returns the bytes it holds.
    fn book_cache(&mut self) -> usize {
        let (bytes, delta) = self.cache.book();
        if delta != 0 {
            self.stats().add(Counter::CachedBytes, delta as u64);
        }
        bytes
    }

    /// The ladder's count-threshold rung: true (and the counter restarts) once
    /// `scan_threshold` retires have accumulated.
    pub fn scan_due(&mut self) -> bool {
        let due = self.since_scan >= self.scan_threshold;
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
    /// faster (rung 3). Both are counted on this handle's stripe.
    #[inline]
    pub fn enforce_budget(&mut self, forced_scan: impl FnOnce(&mut Self)) {
        if self.observe() {
            self.stats().add(Counter::ForcedScans, 1);
            self.since_scan = 0;
            forced_scan(self);
            if self.drain_ready() {
                self.stats().add(Counter::BackpressureEvents, 1);
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
    pub fn scan(&mut self, pass: impl FnOnce(&mut Reclaim<'_>, &mut Vec<u64>)) {
        let shared = &*self.shared;
        let mut reclaim = Reclaim {
            pool: &mut self.pool,
            ready: &mut self.ready,
            stats: shared.stats.stripe(self.stripe),
            tele: &shared.telemetry,
            started: None,
        };
        pass(&mut reclaim, &mut self.scratch);
        if let Some(started) = reclaim.started {
            shared.telemetry.record_scan(self.stripe, started);
        }
        self.report();
    }

    /// Flush-side adoption: splices the parked leftovers of exited handles
    /// into `into` (O(1), no allocation), enters them in the ledger and
    /// restarts the retire counter. The scheme-wide estimate does not move:
    /// the adopted nodes were retired and are still not freed.
    pub fn adopt_parked(&mut self, into: &mut SegBag) {
        let (nodes_before, bytes_before) = (into.len(), into.bytes());
        into.splice(&mut self.shared.parked().leftovers);
        self.limbo_nodes += into.len() - nodes_before;
        self.limbo_bytes += into.bytes() - bytes_before;
        self.since_scan = 0;
    }

    /// Drop-side parking: the ready chain goes to the allocator, and
    /// `leftovers` — everything else the handle still holds, spliced into one
    /// bag — moves to the scheme's `Parked` store (O(1)), adopted by the
    /// next handle to flush or released at scheme drop, with the tally of
    /// kept plain blocks, which go with the arena. The leftovers stay in
    /// the estimate — retired, not freed — so a departed handle's limbo never
    /// goes invisible; the governor gets one last look, for a handle that
    /// never drifted a grain. Call before releasing the registry slot.
    pub fn park(&mut self, leftovers: &mut SegBag) {
        self.drain_ready();
        let (kept, kept_bytes) = std::mem::take(&mut self.kept);
        debug_assert_eq!(
            (leftovers.len() + kept, leftovers.bytes() + kept_bytes),
            (self.limbo_nodes, self.limbo_bytes),
            "the ledger must match what the handle still holds"
        );
        (self.limbo_nodes, self.limbo_bytes) = (0, 0);
        if leftovers.is_empty() && kept == 0 {
            return;
        }
        let mut parked = self.shared.parked();
        parked.leftovers.splice(leftovers);
        parked.kept.0 += kept;
        parked.kept.1 += kept_bytes;
    }
}

impl Drop for HandleCore {
    fn drop(&mut self) {
        // The cache's blocks go back to the arena, and off the books, before
        // `shared` drops: it may hold the last reference to the arena.
        let booked = self.cache.release() as i64;
        self.stats().add(Counter::CachedBytes, -booked as u64);
        let workspace = (
            std::mem::take(&mut self.pool),
            std::mem::take(&mut self.scratch),
        );
        let mut parked = self.shared.parked();
        if parked.workspaces.len() < parked.workspaces.capacity() {
            parked.workspaces.push(workspace);
        } // else dropped, after the lock
    }
}

/// The proving side of one [`HandleCore::scan`] pass: moves the nodes the
/// scheme's predicate releases onto the handle's ready chain, which the retire
/// path then frees (module docs). With telemetry on, the scan's clock starts
/// at the first non-empty bag, so passes with nothing to examine pay no clock
/// read.
pub struct Reclaim<'a> {
    pool: &'a mut SegPool,
    ready: &'a mut SegBag,
    stats: &'a StatStripe,
    tele: &'a Telemetry,
    /// When the scan met its first non-empty bag, if telemetry times it.
    started: Option<Instant>,
}

impl Reclaim<'_> {
    /// The scanning handle's counter stripe: the shard tally of a registry
    /// walk the pass makes, and a skip that frees nothing (HE's blocked
    /// chains); [`free_walk`](Self::free_walk) and
    /// [`free_all`](Self::free_all) count their own dispatch.
    #[inline]
    pub fn stats(&self) -> &StatStripe {
        self.stats
    }

    /// Starts the scan timer at the first bag that holds anything.
    fn observe(&mut self) {
        if self.started.is_none() && self.tele.is_enabled() {
            self.started = Some(Instant::now());
        }
    }

    /// Walks `bag` (`SegBag::transfer_walk`): stops for good at the first
    /// node failing `keep_scanning`, releases every node before that passing
    /// `can_free` to the ready chain, visits each survivor once. Counted as a
    /// walk, an empty bag's included.
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
        self.stats.add(Counter::ScanWalks, 1);
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
    /// splice (grace-period drains, unreachable era chains). Counted as a
    /// wholesale drain, or as a skip when the bag is empty.
    ///
    /// # Safety
    ///
    /// No thread may be able to access any node in `bag`: the core frees them
    /// without asking again.
    #[inline]
    pub unsafe fn free_all(&mut self, bag: &mut SegBag) {
        if bag.is_empty() {
            self.stats.add(Counter::ScanSkips, 1);
        } else {
            self.stats.add(Counter::ScanWholesale, 1);
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
        core: HandleCore,
        bag: SegBag,
        pinned: bool,
        scans: usize,
    }

    /// The scratch words a fresh workspace is built with.
    const WORDS: usize = 4;

    impl Handle {
        fn register(scheme: &Arc<SchemeCore>) -> Self {
            Self {
                core: scheme.attach(None, WORDS),
                bag: SegBag::new(),
                pinned: false,
                scans: 0,
            }
        }

        fn scan(core: &mut HandleCore, bag: &mut SegBag, pinned: bool) {
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
                let node = RetiredPtr::new(node.cast(), drop_fn_for::<Node>(), NO_BIRTH_ERA, NODE);
                self.core.retire(bag, node, 0);
            }
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

    fn scheme(clock: &ManualClock, budget: Option<usize>) -> Arc<SchemeCore> {
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
        let mut handle = Handle::register(&scheme);
        handle.pinned = true;
        for _ in 0..3 {
            handle.retire(&drops);
        }
        let stats = scheme.stats();
        assert_eq!(handle.scans, 0, "under budget: no rung fires");
        assert_eq!(stats.escalations(), 0);
        assert!(stats.within_budget());

        // The fourth retire crosses the budget. The forced scan frees nothing
        // (pinned), so the ladder climbs to its last rung — once.
        handle.retire(&drops);
        clock.advance(Duration::from_millis(7));
        let stats = scheme.stats();
        assert_eq!(handle.scans, 1, "exactly one forced scan");
        assert_eq!(stats.forced_scans, 1);
        assert_eq!(stats.backpressure_events, 1, "exactly one bounded yield");
        assert_eq!(stats.limbo_bytes(), 4 * NODE as u64);
        assert!(!stats.within_budget());
        assert!(stats.time_over_budget >= Duration::from_millis(7));

        // Unpinned, the next crossing's forced scan gets back under budget:
        // one more scan, no further yield.
        handle.pinned = false;
        handle.retire(&drops);
        let stats = scheme.stats();
        assert_eq!(handle.scans, 2);
        assert_eq!(stats.forced_scans, 2);
        assert_eq!(stats.backpressure_events, 1);
        assert_eq!(stats.limbo_bytes(), 0);
        assert_eq!((handle.core.in_limbo(), handle.core.limbo_bytes()), (0, 0));
        assert_eq!(drops.load(Ordering::SeqCst), 5);
        assert!(
            handle.core.ready.is_empty(),
            "a forced scan's proof is freed whole"
        );
        assert_eq!((stats.retired, stats.freed), (5, 5));
        assert_eq!(stats.freed_bytes, 5 * NODE as u64);
        assert_eq!(stats.size_unknown_retires, 0);
    }

    #[test]
    fn the_rungs_a_dropped_handle_pulled_stay_in_the_schemes_snapshot() {
        let clock = ManualClock::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = scheme(&clock, Some(1_000));
        let bystander = Handle::register(&scheme);
        let mut retirer = Handle::register(&scheme);
        retirer.pinned = true;
        for _ in 0..4 {
            retirer.retire(&drops);
        }
        clock.advance(Duration::from_millis(7));
        let rungs = |s: StatsSnapshot| (s.forced_scans, s.backpressure_events);
        assert_eq!(rungs(retirer.core.stats().snapshot()), (1, 1));
        assert_eq!(rungs(bystander.core.stats().snapshot()), (0, 0));
        drop(retirer);
        let stats = scheme.stats();
        assert_eq!(rungs(stats), (1, 1), "counted where the handle pulled them");
        assert_eq!(stats.budget_bytes, 1_000);
        assert!(stats.time_over_budget >= Duration::from_millis(7));
        assert!(!stats.within_budget());
    }

    #[test]
    fn after_a_proof_of_n_nodes_k_retires_free_exactly_min_n_2k() {
        let clock = ManualClock::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = scheme(&clock, None);
        let mut handle = Handle::register(&scheme);
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
        let mut handle = Handle::register(&scheme);
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
        let stats = scheme.stats();
        assert_eq!((stats.freed, stats.freed_bytes), (0, 0));
        assert_eq!(stats.limbo_bytes(), 3 * NODE as u64);
        assert_eq!(stats.peak_limbo_bytes, 3 * NODE as u64, "the scan looked");
        drop(handle);
        assert_eq!(drops.load(Ordering::SeqCst), 3);
        assert_eq!(scheme.limbo_estimate(), 0);
    }

    #[test]
    fn flush_and_park_leave_the_ready_chain_empty() {
        let clock = ManualClock::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = scheme(&clock, None);
        let mut handle = Handle::register(&scheme);
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
        let scheme = SchemeCore::new("test", config);
        let mut handle = Handle::register(&scheme);
        for _ in 0..9 {
            handle.retire(&drops);
        }
        assert_eq!(handle.scans, 2, "one scan per `scan_threshold` retires");
        // Each scan released four; the retires since returned two apiece
        // (retires 5 and 6 the first four, retire 9 two of the second).
        assert_eq!(drops.load(Ordering::SeqCst), 6);
        assert_eq!(scheme.stats().escalations(), 0);
        handle.flush();
        assert_eq!((handle.scans, drops.load(Ordering::SeqCst)), (2, 9));
    }

    #[test]
    fn a_budget_crossing_forces_a_scan_before_the_count_threshold() {
        let clock = ManualClock::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let config = SmrConfig::default()
            .with_scan_threshold(32)
            .with_limbo_budget(Some(20 * NODE))
            .with_clock(Clock::manual(clock.clone()));
        let scheme = SchemeCore::new("test", config);
        let mut handle = Handle::register(&scheme);
        // Under a 20-node budget the 21st retire crosses it: the forced scan
        // runs at once, 11 retires short of the count threshold.
        for _ in 0..20 {
            handle.retire(&drops);
        }
        assert_eq!(handle.scans, 0);
        handle.retire(&drops);
        assert_eq!(handle.scans, 1, "a crossing does not wait for the count");
        assert_eq!(scheme.stats().forced_scans, 1);
        assert_eq!(drops.load(Ordering::SeqCst), 21);
    }

    #[test]
    fn the_estimate_needs_no_report_and_the_grain_gates_only_the_peak() {
        let clock = ManualClock::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = scheme(&clock, Some(1 << 20));
        assert!(2 * NODE < scheme.governor().grain());
        let (mut a, mut b) = (Handle::register(&scheme), Handle::register(&scheme));
        // Each retires less than a grain and neither scans: no handle has
        // taken anything to the governor, and a third party already reads
        // every byte.
        for handle in [&mut a, &mut b] {
            handle.retire(&drops);
            handle.retire(&drops);
        }
        assert_eq!((a.scans, b.scans), (0, 0));
        let stats = scheme.stats();
        assert_eq!(scheme.limbo_estimate(), 4 * NODE as u64);
        assert_eq!(stats.limbo_bytes(), 4 * NODE as u64);
        assert_eq!(stats.peak_limbo_bytes, 0, "nobody has looked yet");
        // A scan is a look, whatever it frees; a free is the only thing that
        // lowers the estimate.
        a.pinned = true;
        a.flush();
        assert_eq!(scheme.stats().peak_limbo_bytes, 4 * NODE as u64);
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
        let mut survivor = Handle::register(&scheme);
        survivor.pinned = true;
        {
            let mut dying = Handle::register(&scheme);
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
            "scheme drop drains the parked leftovers"
        );
    }

    #[test]
    fn a_dying_handles_workspace_is_adopted_by_the_next_registrant() {
        let clock = ManualClock::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = scheme(&clock, None);
        let built = SegPool::for_scan_threshold(scheme.config().scan_threshold).free_segments();
        let workspace = |handle: &Handle| {
            let core = &handle.core;
            (core.pool.free_segments(), core.scratch.capacity())
        };
        // A handle grows its pool past the pre-warmed one, and its scratch
        // past `WORDS`, so an adopted workspace tells itself apart from a
        // built one.
        let grown = {
            let mut first = Handle::register(&scheme);
            assert_eq!(workspace(&first), (built, WORDS), "built by the one rule");
            for _ in 0..(built + 10) * crate::segbag::SEG_CAP {
                first.retire(&drops);
            }
            first.flush();
            first.core.scratch.reserve(1_000);
            workspace(&first)
        };
        assert!(grown.0 > built && grown.1 >= 1_000);
        let second = Handle::register(&scheme);
        assert_eq!(
            workspace(&second),
            grown,
            "the parked workspace was adopted, not rebuilt"
        );
        // With the store empty, further registrants build anew; and
        // workspaces past `max_threads` (2) are dropped at exit, not hoarded.
        let (mut third, fourth) = (Handle::register(&scheme), Handle::register(&scheme));
        assert_eq!(workspace(&third), (built, WORDS));
        assert_eq!(workspace(&fourth), (built, WORDS));
        third.core.scratch.reserve(500);
        let marked = workspace(&third);
        drop((second, third, fourth));
        let next_wave: Vec<Handle> = (0..3).map(|_| Handle::register(&scheme)).collect();
        assert_eq!(
            next_wave.iter().map(workspace).collect::<Vec<_>>(),
            [marked, grown, (built, WORDS)],
            "two adopted, the third rebuilt"
        );
    }

    #[test]
    fn the_parked_store_reports_and_drains_bytes() {
        let drops = Arc::new(AtomicUsize::new(0));
        let mut pool = SegPool::new();
        let mut leftovers = SegBag::new();
        for _ in 0..4 {
            let node = Box::into_raw(Box::new(Node(Arc::clone(&drops), [0; 300 - 8])));
            // SAFETY: freshly boxed, never linked anywhere, retired once.
            let node =
                unsafe { RetiredPtr::new(node.cast(), drop_fn_for::<Node>(), NO_BIRTH_ERA, NODE) };
            leftovers.push(&mut pool, node);
        }
        let mut parked = Parked::new(2);
        parked.leftovers.splice(&mut leftovers);
        assert_eq!(parked.leftovers.bytes(), 4 * NODE);
        // SAFETY: the test owns the parked nodes; no scan is concurrent.
        let (nodes, bytes) = unsafe { parked.free_leftovers() };
        assert_eq!((nodes, bytes), (4, 4 * NODE));
        assert_eq!(parked.leftovers.bytes(), 0);
        assert_eq!(drops.load(Ordering::SeqCst), 4);
    }

    /// A scheme whose telemetry is `on` or off, scanning only when told.
    fn telemetry_scheme(on: bool) -> Arc<SchemeCore> {
        let config = SmrConfig::default()
            .with_scan_threshold(1_000_000)
            .with_telemetry(on);
        SchemeCore::new("test", config)
    }

    #[test]
    fn sampling_mask_selects_one_in_n() {
        let mut core = telemetry_scheme(true).attach(None, WORDS);
        let mut sampled = 0;
        for _ in 0..1024 {
            if let Some(start) = core.op_begin() {
                core.op_end(start);
                sampled += 1;
            }
        }
        assert_eq!(
            sampled,
            1024 >> OP_SAMPLE_SHIFT,
            "1 op in 2^OP_SAMPLE_SHIFT"
        );
        assert_eq!(core.shared.telemetry.summary().op_latency_ns.count(), 8);
    }

    #[test]
    fn disabled_paths_record_nothing() {
        let scheme = telemetry_scheme(false);
        let drops = Arc::new(AtomicUsize::new(0));
        let mut handle = Handle::register(&scheme);
        for _ in 0..32 {
            assert!(handle.core.op_begin().is_none());
        }
        assert_eq!(handle.core.retire_tick(), 0);
        // A scan over a non-empty bag starts no clock, and its free no delay.
        handle.retire(&drops);
        handle.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert!(scheme.telemetry().summary().is_empty());
    }

    #[test]
    fn coarse_now_is_never_zero_and_delay_measures_tick_gap() {
        let scheme = telemetry_scheme(true);
        let tele = scheme.telemetry();
        assert_ne!(tele.coarse_now(), 0);
        // An unstamped node (tick 0) is skipped.
        let boxed = || Box::into_raw(Box::new(7u64)).cast();
        // SAFETY: the pointer was just produced by Box::into_raw and matches the drop function's type.
        let unstamped = unsafe { RetiredPtr::new(boxed(), drop_fn_for::<u64>(), 0, 0) };
        tele.note_free(0, tele.coarse_now(), &unstamped);
        // SAFETY: as above.
        let mut stamped = unsafe { RetiredPtr::new(boxed(), drop_fn_for::<u64>(), 0, 0) };
        stamped.set_stamps(0, 1_000);
        tele.note_free(0, 0, &stamped);
        assert!(
            tele.summary().reclaim_delay_us.is_empty(),
            "no `now`, no delay"
        );
        tele.note_free(0, 1_500, &stamped);
        assert_eq!(tele.summary().reclaim_delay_us.percentile(1.0), 511);
        // A `now` behind the stamp (a stale cached tick, an adopted node) is
        // no delay; a stamp from before the counter wrapped is a short one.
        tele.note_free(0, 990, &stamped);
        stamped.set_stamps(0, u32::MAX - 5);
        tele.note_free(0, 4, &stamped);
        // One scan over a non-empty bag is timed; its node stays on the ready
        // chain, unfreed, until the handle drops.
        let drops = Arc::new(AtomicUsize::new(0));
        let mut handle = Handle::register(&scheme);
        handle.retire(&drops);
        Handle::scan(&mut handle.core, &mut handle.bag, false);
        let summary = tele.summary();
        assert_eq!(summary.reclaim_delay_us.bucket_counts()[0], 1, "0 us");
        assert_eq!(summary.reclaim_delay_us.bucket_counts()[3], 1, "10 us");
        assert_eq!(summary.reclaim_delay_us.count(), 3);
        assert_eq!(summary.scan_ns.count(), 1);
        // SAFETY: both nodes were retired exactly once above and nothing protects them.
        unsafe {
            unstamped.reclaim(None);
            stamped.reclaim(None);
        }
    }

    #[test]
    fn retire_tick_cache_is_monotone_and_never_zero_while_enabled() {
        let mut core = telemetry_scheme(true).attach(None, WORDS);
        let mut last = 0u32;
        // One past the refresh boundary, so the final stamp below can only
        // come from the cache (not a boundary re-read).
        for _ in 0..(TICK_REFRESH * 4 + 1) {
            let tick = core.retire_tick();
            assert_ne!(tick, 0, "enabled stamps are never the disabled marker");
            assert!(tick >= last, "cached ticks never run backwards");
            last = tick;
        }
        // A sampled op refreshes the cache without waiting for the next
        // refresh boundary.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let started = core.op_begin().expect("a handle's first op is sampled");
        core.op_end(started);
        assert!(core.retire_tick() > last, "op sample advanced the cache");
    }

    /// Retires a 32-byte block the way the guard layer does: allocated from
    /// the handle's node cache, freed by the block destructor.
    #[cfg(feature = "check-oracle")]
    fn retire_block(handle: &mut Handle) -> *mut u8 {
        struct Block32(#[allow(dead_code)] [u64; 4]);
        // SAFETY: allocated with its own layout, `BLOCK`.
        unsafe impl crate::node_cache::Block for Block32 {}
        let block = handle.core.cache.alloc(BLOCK).as_ptr();
        // SAFETY: a fresh block of `Block32`'s layout, written, never linked
        // and retired once.
        unsafe {
            block.cast::<Block32>().write(Block32([0; 4]));
            let drop_fn = crate::node_cache::drop_block::<Block32>;
            let node = RetiredPtr::new(block, drop_fn, NO_BIRTH_ERA, BLOCK.size());
            handle.core.retire(&mut handle.bag, node, 0);
        }
        block
    }

    #[cfg(feature = "check-oracle")]
    const BLOCK: std::alloc::Layout = std::alloc::Layout::new::<[u64; 4]>();

    #[cfg(feature = "check-oracle")]
    #[test]
    fn a_freed_block_comes_back_registered_and_a_quarantined_one_never_does() {
        use crate::node_cache::free_block;
        use crate::oracle::{self, NodeState, QuarantineGuard};
        let scheme = scheme(&ManualClock::new(), None);
        let mut handle = Handle::register(&scheme);
        // A real free: the oracle forgets the node, the free stage caches its
        // block, and the next allocation of the class takes it back —
        // registered afresh, which the oracle accepts as allocator reuse.
        let freed = retire_block(&mut handle);
        handle.flush();
        assert_eq!(oracle::state_of(freed), None);
        let reused = handle.core.cache.alloc(BLOCK).as_ptr();
        assert_eq!(reused, freed, "the cached block is handed back out");
        assert_eq!(oracle::state_of(reused), Some(NodeState::Live));
        // SAFETY: our block, never linked, holding nothing.
        unsafe { free_block(reused, BLOCK) };

        // Under quarantine the freed node is poisoned and leaked, never
        // cached: the next allocation of its class gets another block, and a
        // stale pointer to the freed node fails the check.
        let _quarantine = QuarantineGuard::enable();
        let stale = retire_block(&mut handle);
        handle.flush();
        let next = handle.core.cache.alloc(BLOCK).as_ptr();
        assert_ne!(next, stale, "a quarantined block is never handed back out");
        let verdict = std::panic::catch_unwind(|| oracle::check_protected(stale, "stale read"))
            .expect_err("a stale pointer to a freed node fails the check");
        let message = verdict
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("use after free"), "{message}");
        assert!(message.contains("canary: intact"), "{message}");
        // SAFETY: as above.
        unsafe { free_block(next, BLOCK) };
    }
}
