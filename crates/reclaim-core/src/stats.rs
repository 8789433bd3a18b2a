//! Scheme statistics, sharded for hot-path scalability.
//!
//! Every scheme exposes the same counters so that the benchmark harness can report
//! memory behaviour uniformly: how many nodes have been retired, how many actually
//! freed, how many hazard-pointer scans and quiescent states were executed, how many
//! memory fences were issued on the traversal path (the quantity the paper's whole
//! design revolves around), and — for QSense — how often the system switched paths.
//!
//! ## Why stripes
//!
//! The counters are bumped on the *measured hot path*: every `retire` and every
//! quiescent state touches them. An earlier revision kept seven unpadded `AtomicU64`s
//! in one shared struct — one cache line that every worker thread `fetch_add`ed on
//! every operation, i.e. a built-in contention floor of exactly the kind the paper's
//! design (and DEBRA's / Hyaline's "keep bookkeeping per-thread") warns about. The
//! counters now live in [`StatStripe`]s — one cache-padded stripe per writer — and
//! are only summed when somebody asks for a [`StatsSnapshot`]. Writers touch their
//! own line; readers pay O(#stripes) per snapshot, which is off the measured path.
//!
//! Every scheme's [`SchemeCore`](crate::limbo::SchemeCore) holds one
//! [`ShardedStats`]: registry-backed schemes (QSBR, EBR, HP, Cadence, QSense, HE)
//! key a handle's stripe by its registry slot index, registry-less schemes (Leaky,
//! RefCount) deal stripes out round-robin at registration.
//!
//! The stripes are the scheme's only books. The limbo-byte estimate budgets are
//! enforced against is `retired_bytes − freed_bytes` summed over them
//! ([`ShardedStats::limbo_bytes`]), not a second tally kept in step with them;
//! a scan's registry shard dispatch ([`StatsSnapshot::shard_skips`] /
//! [`shard_walks`](StatsSnapshot::shard_walks)) lands on the scanning handle's
//! stripe like any other counter. The one figure a snapshot carries that no
//! stripe holds is [`StatsSnapshot::peak_limbo_bytes`]: a high-water mark is
//! not a sum, so the scheme's governor keeps it and the scheme injects it.

use crate::pad::CachePadded;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Relaxed ordering is sufficient for most counters: they are monotonic
/// diagnostics, never used for synchronization decisions. The exception is the
/// `freed`/`retired` pair — see [`StatStripe::add_freed`].
const R: Ordering = Ordering::Relaxed;

/// One cache-padded stripe of monotonic reclamation counters, written by a single
/// logical owner (a registry slot or a round-robin shard) and summed lazily.
///
/// All methods take `&self`; writes are single-writer in practice but remain safe
/// under arbitrary sharing.
#[derive(Debug, Default)]
pub struct StatStripe {
    retired: AtomicU64,
    freed: AtomicU64,
    size_unknown_retires: AtomicU64,
    retired_bytes: AtomicU64,
    freed_bytes: AtomicU64,
    scans: AtomicU64,
    scan_wholesale: AtomicU64,
    scan_skips: AtomicU64,
    scan_walks: AtomicU64,
    shard_skips: AtomicU64,
    shard_walks: AtomicU64,
    quiescent_states: AtomicU64,
    traversal_fences: AtomicU64,
    heavy_barriers: AtomicU64,
    heavy_barrier_failures: AtomicU64,
    fallback_switches: AtomicU64,
    fast_path_switches: AtomicU64,
    evictions: AtomicU64,
    /// Net bytes booked into node caches (wrapping: a cache moves stripes).
    cached_bytes: AtomicU64,
}

/// A plain snapshot of a scheme's counters at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Nodes handed to `retire` (the paper's `free_node_later`).
    pub retired: u64,
    /// Nodes whose destructor has actually run.
    pub freed: u64,
    /// Retires that reached the scheme without a byte size (`size_bytes == 0`,
    /// the sealed legacy path). The guard layer always stamps sizes, so every
    /// structure built on it pins this at zero; a non-zero value means some
    /// call site bypassed the sized birth-era-stamped path.
    pub size_unknown_retires: u64,
    /// Stamped allocation bytes handed to `retire` (size-unknown nodes add
    /// zero; see `RetiredPtr::size_bytes`).
    pub retired_bytes: u64,
    /// Stamped allocation bytes actually released.
    pub freed_bytes: u64,
    /// High-water mark of the scheme-wide limbo *byte* estimate, as the
    /// scheme's budget governor saw it each time a handle looked (0 when the
    /// scheme carries no governor). Not a stripe counter: the scheme injects
    /// it at snapshot time.
    pub peak_limbo_bytes: u64,
    /// Hazard-pointer scans executed (HP / Cadence / QSense fallback).
    pub scans: u64,
    /// Scan-dispatch decisions that freed a whole batch (a bag, chain or era
    /// bucket) without testing its nodes individually — the cheapest cost
    /// class (QSBR grace-period drains, EBR safe buckets, QSense fast-path
    /// drains, HE wholesale chains).
    pub scan_wholesale: u64,
    /// Scan-dispatch decisions that skipped a whole batch unexamined (bucket
    /// still covered by a reservation, epoch not yet safe, nothing old
    /// enough) — zero per-node work, zero frees.
    pub scan_skips: u64,
    /// Scan-dispatch decisions that walked a batch node by node, testing each
    /// against protections or ages — the expensive cost class (HP/Cadence
    /// scans, QSense fallback, HE boundary chains, RefCount sweeps).
    pub scan_walks: u64,
    /// Registry shards stepped over as wholly vacant by scans and cursor walks
    /// (one bitmap load, zero slot lines touched) — the counter that proves
    /// scan cost tracks *active shards*, not registered capacity. Counted on
    /// the stripe of the handle that ran the walk
    /// ([`StatStripe::add_shard_dispatch`]).
    pub shard_skips: u64,
    /// Registry shards actually walked (at least one claimed slot at the
    /// bitmap load). Counted like [`shard_skips`](Self::shard_skips).
    pub shard_walks: u64,
    /// Quiescent states declared (QSBR / QSense fast path).
    pub quiescent_states: u64,
    /// Hardware memory fences issued by readers on the traversal path: one per
    /// `protect` of the hazard-pointer family under the reader-fenced protocol
    /// (a handle publishes its count when it flushes or drops), zero under
    /// scanner-barrier and behind a rooster (see [`crate::fence`]) — Cadence's
    /// and QSense's whole point is to keep this at zero.
    pub traversal_fences: u64,
    /// Expedited `membarrier` calls *issued* by scans
    /// ([`fence::scanner_barrier`](crate::fence::scanner_barrier)) under the
    /// scanner-barrier protocol: one per HP scan pass over a non-empty bag
    /// whose newest node no sibling's barrier already covered (a pass that
    /// shares one through the [`BarrierLedger`](crate::fence::BarrierLedger)
    /// issues — and counts — none), one per EBR epoch-advance attempt that no
    /// visible pin already blocks. Zero under the reader-fenced protocol, for
    /// the rooster's barriers, and for every other scheme.
    pub heavy_barriers: u64,
    /// Of those, the calls the kernel refused; such a pass frees nothing it
    /// did not already have covered, and advances no epoch.
    pub heavy_barrier_failures: u64,
    /// Fast-path → fallback-path switches (QSense).
    pub fallback_switches: u64,
    /// Fallback-path → fast-path switches (QSense).
    pub fast_path_switches: u64,
    /// Threads the eviction extension took out of grace periods (QSense).
    pub evictions: u64,
    /// Bytes of freed blocks in live handles' node caches
    /// ([`crate::node_cache`]) as of each one's last look: in no limbo or budget.
    pub cached_bytes: u64,
    /// Bytes of the chunks the scheme's arena has carved its nodes' blocks
    /// from ([`crate::node_cache`]): the footprint of every structure over
    /// the scheme, its caches and its limbo, nodes past 256 B aside. Not a
    /// stripe counter: the scheme reads it off its arena at snapshot time.
    pub arena_bytes: u64,
    /// Of those, bytes of free blocks on the arena's shared lists — what a
    /// cache miss takes before it carves.
    pub arena_free_bytes: u64,
}

impl StatsSnapshot {
    /// Nodes retired but not yet freed (the union of limbo / removed-node lists).
    pub fn in_limbo(&self) -> u64 {
        self.retired.saturating_sub(self.freed)
    }

    /// Stamped bytes retired but not yet freed — the byte-denominated limbo
    /// total the budget subsystem enforces against.
    pub fn limbo_bytes(&self) -> u64 {
        self.retired_bytes.saturating_sub(self.freed_bytes)
    }
}

impl StatStripe {
    /// Creates a zeroed stripe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` nodes retired.
    #[inline]
    pub fn add_retired(&self, n: u64) {
        self.retired.fetch_add(n, R);
    }

    /// Records `n` nodes freed.
    ///
    /// The release ordering pairs with the acquire load in [`merge_into`](Self::merge_into)
    /// (which reads `freed` *before* `retired`): any free observed by a snapshot
    /// carries a happens-before edge to its own retire — a node is always retired
    /// by its owner before that same owner frees it — so a snapshot can never
    /// report `freed > retired`.
    #[inline]
    pub fn add_freed(&self, n: u64) {
        self.freed.fetch_add(n, Ordering::Release);
    }

    /// Records `n` stamped bytes retired.
    #[inline]
    pub fn add_retired_bytes(&self, n: u64) {
        self.retired_bytes.fetch_add(n, R);
    }

    /// Records one retire that arrived without a byte size (the sealed
    /// size-unknown path; see [`StatsSnapshot::size_unknown_retires`]).
    #[inline]
    pub(crate) fn add_size_unknown_retire(&self) {
        self.size_unknown_retires.fetch_add(1, R);
    }

    /// Records `n` stamped bytes freed. Release for the same reason as
    /// [`add_freed`](Self::add_freed): paired with the acquire freed-first
    /// read in [`merge_into`](Self::merge_into), a snapshot can never report
    /// `freed_bytes > retired_bytes`.
    #[inline]
    pub fn add_freed_bytes(&self, n: u64) {
        self.freed_bytes.fetch_add(n, Ordering::Release);
    }

    /// Records one hazard-pointer scan.
    #[inline]
    pub fn add_scan(&self) {
        self.scans.fetch_add(1, R);
    }

    /// Records one wholesale scan-dispatch decision (a whole batch freed with
    /// no per-node tests; see [`StatsSnapshot::scan_wholesale`]).
    #[inline]
    pub fn add_scan_wholesale(&self) {
        self.scan_wholesale.fetch_add(1, R);
    }

    /// Records one skipped batch (examined and passed over whole; see
    /// [`StatsSnapshot::scan_skips`]).
    #[inline]
    pub fn add_scan_skip(&self) {
        self.scan_skips.fetch_add(1, R);
    }

    /// Records one per-node walk over a batch (see
    /// [`StatsSnapshot::scan_walks`]).
    #[inline]
    pub fn add_scan_walk(&self) {
        self.scan_walks.fetch_add(1, R);
    }

    /// Records one registry walk's shard dispatch: `skips` shards stepped over
    /// as wholly vacant, `walks` walked (see [`StatsSnapshot::shard_skips`]).
    /// The walk counts locally and calls this once, so a scan pays at most two
    /// adds to its own line however many shards the registry has.
    #[inline]
    pub fn add_shard_dispatch(&self, skips: u64, walks: u64) {
        if skips != 0 {
            self.shard_skips.fetch_add(skips, R);
        }
        if walks != 0 {
            self.shard_walks.fetch_add(walks, R);
        }
    }

    /// Records one quiescent state.
    #[inline]
    pub fn add_quiescent_state(&self) {
        self.quiescent_states.fetch_add(1, R);
    }

    /// Records `n` traversal-path memory fences.
    #[inline]
    pub fn add_traversal_fences(&self, n: u64) {
        self.traversal_fences.fetch_add(n, R);
    }

    /// Records one scan-side expedited barrier.
    #[inline]
    pub fn add_heavy_barrier(&self) {
        self.heavy_barriers.fetch_add(1, R);
    }

    /// Records that the kernel refused a scan-side barrier.
    pub fn add_heavy_barrier_failure(&self) {
        self.heavy_barrier_failures.fetch_add(1, R);
    }

    /// Records a switch to the fallback path.
    pub fn add_fallback_switch(&self) {
        self.fallback_switches.fetch_add(1, R);
    }

    /// Records a switch back to the fast path.
    pub fn add_fast_path_switch(&self) {
        self.fast_path_switches.fetch_add(1, R);
    }

    /// Records `n` evictions of silent threads.
    pub fn add_evictions(&self, n: usize) {
        self.evictions.fetch_add(n as u64, R);
    }

    /// Records `delta` bytes into (or, negative, out of) node caches.
    pub(crate) fn add_cached_bytes(&self, delta: i64) {
        self.cached_bytes.fetch_add(delta as u64, R);
    }

    /// Accumulates this stripe into `snap`.
    ///
    /// `freed` is read first (acquire): every free it observes happened-after the
    /// matching retire on the same stripe, so the subsequent `retired` read is
    /// guaranteed to include that retire. This keeps the aggregate
    /// `retired >= freed` invariant visible to concurrent snapshots.
    pub fn merge_into(&self, snap: &mut StatsSnapshot) {
        snap.freed += self.freed.load(Ordering::Acquire);
        snap.retired += self.retired.load(R);
        snap.size_unknown_retires += self.size_unknown_retires.load(R);
        snap.freed_bytes += self.freed_bytes.load(Ordering::Acquire);
        snap.retired_bytes += self.retired_bytes.load(R);
        snap.scans += self.scans.load(R);
        snap.scan_wholesale += self.scan_wholesale.load(R);
        snap.scan_skips += self.scan_skips.load(R);
        snap.scan_walks += self.scan_walks.load(R);
        snap.shard_skips += self.shard_skips.load(R);
        snap.shard_walks += self.shard_walks.load(R);
        snap.quiescent_states += self.quiescent_states.load(R);
        snap.traversal_fences += self.traversal_fences.load(R);
        snap.heavy_barriers += self.heavy_barriers.load(R);
        snap.heavy_barrier_failures += self.heavy_barrier_failures.load(R);
        snap.fallback_switches += self.fallback_switches.load(R);
        snap.fast_path_switches += self.fast_path_switches.load(R);
        snap.evictions += self.evictions.load(R);
        snap.cached_bytes = snap.cached_bytes.wrapping_add(self.cached_bytes.load(R));
    }

    /// Snapshot of this stripe alone (tests and diagnostics).
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut snap = StatsSnapshot::default();
        self.merge_into(&mut snap);
        snap
    }
}

/// A scheme's sharded counters: a fixed array of cache-padded stripes, one per
/// handle — indexed by registry slot, or dealt out round-robin by
/// [`assign_stripe`](Self::assign_stripe) for schemes with no slot registry.
#[derive(Debug)]
pub struct ShardedStats {
    stripes: Box<[CachePadded<StatStripe>]>,
    next: AtomicUsize,
}

impl ShardedStats {
    /// Creates `shards` zeroed stripes (at least one).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            stripes: (0..shards)
                .map(|_| CachePadded::new(StatStripe::new()))
                .collect(),
            next: AtomicUsize::new(0),
        }
    }

    /// Number of stripes.
    pub fn shards(&self) -> usize {
        self.stripes.len()
    }

    /// The stripe for shard `index`, which must be in range — handles pass the
    /// index [`assign_stripe`](Self::assign_stripe) gave them. Direct indexing
    /// (no modulo): this runs on every `retire` of the registry-less schemes,
    /// including the Leaky throughput *baseline*, where even an integer division
    /// would inflate the floor every overhead number is measured against.
    #[inline]
    pub fn stripe(&self, index: usize) -> &StatStripe {
        &self.stripes[index]
    }

    /// Deals out the next stripe index round-robin. Handles grab one at
    /// registration; two handles never share a line as long as no more handles
    /// are **ever registered** than there are stripes (the counter does not
    /// reclaim stripes of dropped handles, so under handle churn assignments
    /// wrap and sharing — harmless but contended — can recur).
    pub fn assign_stripe(&self) -> usize {
        self.next.fetch_add(1, Ordering::Relaxed) % self.stripes.len()
    }

    /// The scheme-wide limbo-byte estimate: `retired_bytes − freed_bytes` over
    /// every stripe and `orphan` (the scheme's handle-less stripe), clamped at
    /// 0. O(#stripes) loads, no write.
    ///
    /// Every `freed_bytes` is read (acquire) before any `retired_bytes`: a node
    /// is retired on one stripe and, after a park and an adoption, may be freed
    /// on another, so the freed-first order of [`StatStripe::merge_into`] has
    /// to hold across stripes here. A free this sum observes happened after its
    /// retire — on the same thread, or through the parked store's lock — so
    /// the retired reads that follow include it: a concurrent sum can run
    /// ahead of the truth by retires it raced with, never below it by a free
    /// whose retire it missed.
    pub fn limbo_bytes(&self, orphan: &StatStripe) -> u64 {
        let stripes = || self.stripes.iter().map(|s| &**s).chain([orphan]);
        let freed: u64 = stripes()
            .map(|s| s.freed_bytes.load(Ordering::Acquire))
            .sum();
        let retired: u64 = stripes().map(|s| s.retired_bytes.load(R)).sum();
        retired.saturating_sub(freed)
    }

    /// Sums every stripe into one consistent-enough snapshot (each counter is read
    /// atomically; the set is not a single atomic cut, which is fine for
    /// reporting — except `retired >= freed`, which *is* guaranteed; see
    /// [`StatStripe::add_freed`]).
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut snap = StatsSnapshot::default();
        for stripe in self.stripes.iter() {
            stripe.merge_into(&mut snap);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn stripe_counters_accumulate() {
        let stats = StatStripe::new();
        stats.add_retired(10);
        stats.add_freed(4);
        stats.add_size_unknown_retire();
        stats.add_retired_bytes(640);
        stats.add_freed_bytes(256);
        stats.add_scan();
        stats.add_scan();
        stats.add_scan_wholesale();
        stats.add_scan_skip();
        stats.add_scan_skip();
        stats.add_scan_walk();
        stats.add_scan_walk();
        stats.add_scan_walk();
        stats.add_shard_dispatch(3, 0);
        stats.add_shard_dispatch(2, 4);
        stats.add_quiescent_state();
        stats.add_traversal_fences(7);
        stats.add_heavy_barrier();
        stats.add_heavy_barrier();
        stats.add_heavy_barrier_failure();
        stats.add_fallback_switch();
        stats.add_fast_path_switch();
        stats.add_evictions(1);
        let snap = stats.snapshot();
        assert_eq!(snap.retired, 10);
        assert_eq!(snap.freed, 4);
        assert_eq!(snap.size_unknown_retires, 1);
        assert_eq!(snap.in_limbo(), 6);
        assert_eq!(snap.retired_bytes, 640);
        assert_eq!(snap.freed_bytes, 256);
        assert_eq!(snap.limbo_bytes(), 384);
        assert_eq!(snap.scans, 2);
        assert_eq!(snap.scan_wholesale, 1);
        assert_eq!(snap.scan_skips, 2);
        assert_eq!(snap.scan_walks, 3);
        assert_eq!((snap.shard_skips, snap.shard_walks), (5, 4));
        assert_eq!(snap.quiescent_states, 1);
        assert_eq!(snap.traversal_fences, 7);
        assert_eq!((snap.heavy_barriers, snap.heavy_barrier_failures), (2, 1));
        assert_eq!(snap.fallback_switches, 1);
        assert_eq!(snap.fast_path_switches, 1);
        assert_eq!(snap.evictions, 1);
    }

    #[test]
    fn in_limbo_saturates() {
        let snap = StatsSnapshot {
            retired: 3,
            freed: 5,
            retired_bytes: 100,
            freed_bytes: 300,
            ..Default::default()
        };
        assert_eq!(snap.in_limbo(), 0);
        assert_eq!(snap.limbo_bytes(), 0);
    }

    #[test]
    fn sharded_snapshot_merges_all_stripes() {
        let stats = ShardedStats::new(4);
        for i in 0..4 {
            stats.stripe(i).add_retired(i as u64 + 1);
        }
        stats.stripe(0).add_freed(1);
        let snap = stats.snapshot();
        assert_eq!(snap.retired, 1 + 2 + 3 + 4);
        assert_eq!(snap.freed, 1);
    }

    #[test]
    fn limbo_bytes_sums_across_stripes_and_the_orphan_and_clamps_at_zero() {
        let stats = ShardedStats::new(2);
        let orphan = StatStripe::new();
        // Retired on stripe 0, freed — after a park and an adoption — on
        // stripe 1 and by the orphan: no single stripe balances, the sum does.
        stats.stripe(0).add_retired_bytes(900);
        stats.stripe(1).add_freed_bytes(300);
        orphan.add_freed_bytes(200);
        assert_eq!(stats.limbo_bytes(&orphan), 400);
        orphan.add_freed_bytes(1_000);
        assert_eq!(stats.limbo_bytes(&orphan), 0);
    }

    #[test]
    fn stripe_assignment_round_robins() {
        let stats = ShardedStats::new(3);
        let dealt: Vec<_> = (0..6).map(|_| stats.assign_stripe()).collect();
        assert_eq!(dealt, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let stats = ShardedStats::new(0);
        assert_eq!(stats.shards(), 1);
        stats.stripe(stats.assign_stripe()).add_retired(1);
        assert_eq!(stats.snapshot().retired, 1);
    }

    /// Satellite requirement: concurrent updates across stripes must never lose
    /// counts — the whole point of striping is to decontend, not to approximate.
    #[test]
    fn concurrent_striped_updates_are_not_lost() {
        const THREADS: usize = 8;
        const OPS: u64 = 10_000;
        let stats = Arc::new(ShardedStats::new(THREADS));
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let stats = Arc::clone(&stats);
                thread::spawn(move || {
                    let shard = stats.assign_stripe();
                    for _ in 0..OPS {
                        stats.stripe(shard).add_retired(1);
                        stats.stripe(shard).add_freed(1);
                        stats.stripe(shard).add_quiescent_state();
                    }
                })
            })
            .collect();
        for t in workers {
            t.join().unwrap();
        }
        let snap = stats.snapshot();
        assert_eq!(snap.retired, THREADS as u64 * OPS);
        assert_eq!(snap.freed, THREADS as u64 * OPS);
        assert_eq!(snap.quiescent_states, THREADS as u64 * OPS);
        assert_eq!(snap.in_limbo(), 0);
    }

    /// Satellite requirement: a snapshot taken at any instant, concurrent with
    /// writers that always retire before freeing, must report `retired >= freed`.
    #[test]
    fn snapshot_never_reports_more_freed_than_retired() {
        use std::sync::atomic::AtomicBool;
        let stats = Arc::new(ShardedStats::new(4));
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|shard| {
                let stats = Arc::clone(&stats);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        stats.stripe(shard).add_retired(1);
                        stats.stripe(shard).add_retired_bytes(64);
                        stats.stripe(shard).add_freed(1);
                        stats.stripe(shard).add_freed_bytes(64);
                    }
                })
            })
            .collect();
        for _ in 0..20_000 {
            let snap = stats.snapshot();
            assert!(
                snap.retired >= snap.freed,
                "snapshot tore: retired {} < freed {}",
                snap.retired,
                snap.freed
            );
            assert!(
                snap.retired_bytes >= snap.freed_bytes,
                "snapshot tore: retired_bytes {} < freed_bytes {}",
                snap.retired_bytes,
                snap.freed_bytes
            );
        }
        stop.store(true, Ordering::Relaxed);
        for t in writers {
            t.join().unwrap();
        }
    }
}
