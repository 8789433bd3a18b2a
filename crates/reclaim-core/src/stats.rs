//! Scheme statistics, sharded for hot-path scalability.
//!
//! Every scheme exposes the same counters so that the benchmark harness can report
//! memory behaviour uniformly: how many nodes have been retired, how many actually
//! freed, how many hazard-pointer scans and quiescent states were executed, how many
//! memory fences were issued on the traversal path (the quantity the paper's whole
//! design revolves around), for QSense how often the system switched paths, and
//! how often the budget ladder ([`crate::budget`]) pulled each of its rungs.
//!
//! ## One list
//!
//! Each counter is one line of the `counters!` list below, and nothing else
//! names it: the list generates the [`Counter`] enum, the stripe's width
//! (`Counter::COUNT`), and the [`StatsSnapshot`] field it sums into. A writer
//! calls [`StatStripe::add`] with a `Counter`; a snapshot reads every counter
//! in list order.
//!
//! ## Why stripes
//!
//! The counters are bumped on the *measured hot path*: every `retire` and every
//! quiescent state touches them. An earlier revision kept seven unpadded `AtomicU64`s
//! in one shared struct — one cache line that every worker thread `fetch_add`ed on
//! every operation, i.e. a built-in contention floor of exactly the kind the paper's
//! design (and DEBRA's / Hyaline's "keep bookkeeping per-thread") warns about. The
//! counters now live in [`StatStripe`]s — `[AtomicU64; Counter::COUNT]`, one
//! cache-padded stripe per writer (23 counters, 184 B of a 256 B padded pair) —
//! and are only summed when somebody asks for a [`StatsSnapshot`]. Writers touch
//! their own line; readers pay O(#stripes) per snapshot, which is off the
//! measured path.
//!
//! Every scheme's [`SchemeCore`](crate::limbo::SchemeCore) holds one table of
//! stripes, a row per handle: registry-backed schemes (QSBR, EBR, HP, Cadence,
//! QSense, HE) key a handle's row by its registry slot index, registry-less
//! schemes (Leaky, RefCount) deal rows out round-robin at registration. The
//! table's last row is the scheme's *orphan* stripe, for events no handle owns
//! (frees of parked leftovers at scheme drop, EBR's epoch advances); no handle
//! is ever dealt it, and every sum covers it like any other row.
//!
//! The stripes are the scheme's only books. The limbo-byte estimate budgets are
//! enforced against is `retired_bytes − freed_bytes` summed over them
//! ([`SchemeCore::limbo_estimate`](crate::limbo::SchemeCore::limbo_estimate)),
//! not a second tally kept in step with them; a scan's registry shard dispatch
//! ([`StatsSnapshot::shard_skips`] / [`shard_walks`](StatsSnapshot::shard_walks))
//! lands on the scanning handle's stripe like any other counter, and so does
//! each budget-ladder rung, on the stripe of the handle that pulled it. A
//! snapshot carries five figures no stripe holds — the governor's three
//! ([`StatsSnapshot::peak_limbo_bytes`]: a high-water mark is not a sum;
//! [`budget_bytes`](StatsSnapshot::budget_bytes) and
//! [`time_over_budget`](StatsSnapshot::time_over_budget)) and the arena's two
//! footprints — and the scheme fills them in.

use crate::pad::CachePadded;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Generates [`Counter`], its width and [`StatsSnapshot`] from one list of
/// `Variant => field` lines, each under the doc of its snapshot field.
macro_rules! counters {
    ($($(#[doc = $doc:literal])+ $variant:ident => $field:ident,)+) => {
        /// One stripe counter: a slot of every [`StatStripe`] and a field of
        /// [`StatsSnapshot`], in the order of the module's list.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Counter {
            $(
                #[doc = concat!("Sums into [`StatsSnapshot::", stringify!($field), "`].")]
                $variant,
            )+
        }

        impl Counter {
            /// Every counter, in list order.
            const ALL: &'static [Counter] = &[$(Counter::$variant),+];
            /// The number of counters: a stripe's width.
            pub(crate) const COUNT: usize = Self::ALL.len();
        }

        /// A plain snapshot of a scheme's counters at one instant.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[doc = $doc])+ pub $field: u64,)+
            /// High-water mark of the scheme-wide limbo *byte* estimate, as the
            /// scheme's budget governor saw it each time a handle looked (0 when the
            /// scheme carries no governor). Not a stripe counter: the scheme injects
            /// it at snapshot time.
            pub peak_limbo_bytes: u64,
            /// The configured limbo budget in bytes; 0 means tracking-only (no
            /// enforcement). Not a stripe counter, like the peak.
            pub budget_bytes: u64,
            /// Total wall-clock time the limbo-byte estimate spent above the
            /// budget, the excursion in flight at snapshot time included. Not a
            /// stripe counter, like the peak.
            pub time_over_budget: Duration,
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
            /// The snapshot whose counter fields are `read(counter)`, called in
            /// list order; the figures no stripe holds are left at 0.
            fn read(mut read: impl FnMut(Counter) -> u64) -> Self {
                Self {
                    $($field: read(Counter::$variant),)+
                    ..Self::default()
                }
            }
        }
    };
}

counters! {
    /// Nodes whose destructor has actually run.
    Freed => freed,
    /// Stamped allocation bytes actually released.
    FreedBytes => freed_bytes,
    /// Nodes handed to `retire` (the paper's `free_node_later`).
    Retired => retired,
    /// Stamped allocation bytes handed to `retire` (size-unknown nodes add
    /// zero; see `RetiredPtr::size_bytes`).
    RetiredBytes => retired_bytes,
    /// Retires that reached the scheme without a byte size (`size_bytes == 0`,
    /// the sealed legacy path). The guard layer always stamps sizes, so every
    /// structure built on it pins this at zero; a non-zero value means some
    /// call site bypassed the sized birth-era-stamped path.
    SizeUnknownRetires => size_unknown_retires,
    /// Hazard-pointer scans executed (HP / Cadence / QSense fallback).
    Scans => scans,
    /// Scan-dispatch decisions that freed a whole batch (a bag, chain or era
    /// bucket) without testing its nodes individually — the cheapest cost
    /// class (QSBR grace-period drains, EBR safe buckets, QSense fast-path
    /// drains, HE wholesale chains).
    ScanWholesale => scan_wholesale,
    /// Scan-dispatch decisions that skipped a whole batch unexamined (bucket
    /// still covered by a reservation, epoch not yet safe, nothing old
    /// enough) — zero per-node work, zero frees.
    ScanSkips => scan_skips,
    /// Scan-dispatch decisions that walked a batch node by node, testing each
    /// against protections or ages — the expensive cost class (HP/Cadence
    /// scans, QSense fallback, HE boundary chains, RefCount sweeps).
    ScanWalks => scan_walks,
    /// Registry shards stepped over as wholly vacant by scans and cursor walks
    /// (one bitmap load, zero slot lines touched) — the counter that proves
    /// scan cost tracks *active shards*, not registered capacity. Counted on
    /// the stripe of the handle that ran the walk, once per walk
    /// ([`Registry::iter_claimed`](crate::registry::Registry::iter_claimed)).
    ShardSkips => shard_skips,
    /// Registry shards actually walked (at least one claimed slot at the
    /// bitmap load). Counted like [`shard_skips`](Self::shard_skips).
    ShardWalks => shard_walks,
    /// Quiescent states declared (QSBR / QSense fast path).
    QuiescentStates => quiescent_states,
    /// Hardware memory fences issued by readers on the traversal path: one per
    /// `protect` of the hazard-pointer family under the reader-fenced protocol,
    /// zero under scanner-barrier and behind a rooster (see [`crate::fence`]) —
    /// Cadence's and QSense's whole point is to keep this at zero; for HE, one
    /// per era announcement, which `begin_op` and `protect` pay only when the
    /// era moved. A handle publishes its count when it flushes or drops.
    TraversalFences => traversal_fences,
    /// Expedited `membarrier` calls *issued* by scans
    /// ([`fence::scanner_barrier`](crate::fence::scanner_barrier)) under the
    /// scanner-barrier protocol: one per HP scan pass over a non-empty bag
    /// whose newest node no sibling's barrier already covered (a pass that
    /// shares one through the [`BarrierLedger`](crate::fence::BarrierLedger)
    /// issues — and counts — none), one per EBR epoch-advance attempt that no
    /// visible pin already blocks. Zero under the reader-fenced protocol, for
    /// the rooster's barriers, and for every other scheme.
    HeavyBarriers => heavy_barriers,
    /// Of those, the calls the kernel refused; such a pass frees nothing it
    /// did not already have covered, and advances no epoch.
    HeavyBarrierFailures => heavy_barrier_failures,
    /// Fast-path → fallback-path switches (QSense).
    FallbackSwitches => fallback_switches,
    /// Fallback-path → fast-path switches (QSense).
    FastPathSwitches => fast_path_switches,
    /// Threads the eviction extension took out of grace periods (QSense).
    Evictions => evictions,
    /// Bytes of freed blocks in live handles' node caches
    /// ([`crate::node_cache`]) as of each one's last look: in no limbo or
    /// budget. A stripe adds a negative delta as its two's complement, and
    /// every sum wraps: a cache moves stripes, so only the total is a count.
    CachedBytes => cached_bytes,
    /// Budget ladder rung 1: scans forced on the retire path by a budget
    /// breach ([`crate::budget`]).
    ForcedScans => forced_scans,
    /// Rung 2a: era-pacer speed-ups under an enforced budget (HE only).
    PacerBoosts => pacer_boosts,
    /// Rung 2b: early fallback-path trips (QSense only).
    FallbackTrips => fallback_trips,
    /// Rung 3: bounded retire-side backpressure yields taken after a forced
    /// scan failed to get back under budget.
    BackpressureEvents => backpressure_events,
}

impl Counter {
    /// `Freed` and `FreedBytes` are added with `Release` and read with
    /// `Acquire`, first in the list and so before `Retired` and
    /// `RetiredBytes` by every sum: a node is retired before it is freed — on
    /// the same thread, or through the parked store's lock when another
    /// handle adopts it — so every free a sum observes carries a
    /// happens-before edge to its retire, and the retired reads that follow
    /// include it. A snapshot can run ahead of the truth by retires it raced
    /// with, never report `freed > retired` (or `freed_bytes > retired_bytes`).
    /// Every other counter is a relaxed diagnostic.
    const fn publishes(self) -> bool {
        matches!(self, Counter::Freed | Counter::FreedBytes)
    }
}

/// One cache-padded stripe of reclamation counters, one slot per [`Counter`],
/// written by a single logical owner (a handle, or the scheme's orphan row)
/// and summed lazily. Writes are single-writer in practice but remain safe
/// under arbitrary sharing.
#[derive(Debug)]
pub struct StatStripe([AtomicU64; Counter::COUNT]);

impl Default for StatStripe {
    fn default() -> Self {
        Self::new()
    }
}

impl StatStripe {
    /// Creates a zeroed stripe.
    pub const fn new() -> Self {
        Self([const { AtomicU64::new(0) }; Counter::COUNT])
    }

    /// Adds `n` to counter `c`: one `fetch_add` on this stripe's own line.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        let order = if c.publishes() {
            Ordering::Release
        } else {
            Ordering::Relaxed
        };
        self.0[c as usize].fetch_add(n, order);
    }

    fn load(&self, c: Counter) -> u64 {
        let order = if c.publishes() {
            Ordering::Acquire
        } else {
            Ordering::Relaxed
        };
        self.0[c as usize].load(order)
    }

    /// Snapshot of this stripe alone (tests and diagnostics).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::read(|c| self.load(c))
    }
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

    /// True when the scheme never exceeded its budget (vacuously true without
    /// one). This is the bit CI asserts for the robust schemes.
    pub fn within_budget(&self) -> bool {
        self.budget_bytes == 0 || self.peak_limbo_bytes <= self.budget_bytes
    }

    /// Budget-ladder rungs pulled, of any kind — "did graceful degradation
    /// actually engage, or was the run never under pressure".
    pub fn escalations(&self) -> u64 {
        self.forced_scans + self.pacer_boosts + self.fallback_trips + self.backpressure_events
    }
}

/// A scheme's counter table: one cache-padded stripe per handle — indexed by
/// registry slot, or dealt out round-robin by
/// [`assign_stripe`](Self::assign_stripe) for schemes with no slot registry —
/// and the orphan stripe last.
pub(crate) struct ShardedStats {
    rows: Box<[CachePadded<StatStripe>]>,
    next: AtomicUsize,
}

impl ShardedStats {
    /// Creates a row for each of `max_threads` handles (at least one), and
    /// the orphan's.
    pub(crate) fn new(max_threads: usize) -> Self {
        Self {
            rows: (0..max_threads.max(1) + 1)
                .map(|_| CachePadded::new(StatStripe::new()))
                .collect(),
            next: AtomicUsize::new(0),
        }
    }

    /// The stripe for row `index`, which must be in range — handles pass the
    /// index [`assign_stripe`](Self::assign_stripe) or their registry slot
    /// gave them. Direct indexing (no modulo): this runs on every `retire` of
    /// the registry-less schemes, including the Leaky throughput *baseline*,
    /// where even an integer division would inflate the floor every overhead
    /// number is measured against.
    #[inline]
    pub(crate) fn stripe(&self, index: usize) -> &StatStripe {
        &self.rows[index]
    }

    /// The last row: the stripe for scheme-level events no handle owns.
    pub(crate) fn orphan(&self) -> &StatStripe {
        &self.rows[self.rows.len() - 1]
    }

    /// Deals out the next handle row round-robin, never the orphan's. Handles
    /// grab one at registration; two handles never share a line as long as no
    /// more handles are **ever registered** than there are handle rows (the
    /// counter does not reclaim rows of dropped handles, so under handle churn
    /// assignments wrap and sharing — harmless but contended — can recur).
    pub(crate) fn assign_stripe(&self) -> usize {
        self.next.fetch_add(1, Ordering::Relaxed) % (self.rows.len() - 1)
    }

    /// Counter `c` summed over every row (wrapping; see [`Counter::CachedBytes`]).
    fn sum(&self, c: Counter) -> u64 {
        self.rows
            .iter()
            .fold(0, |sum, row| sum.wrapping_add(row.load(c)))
    }

    /// The scheme-wide limbo-byte estimate: `retired_bytes − freed_bytes` over
    /// every row, clamped at 0. O(#rows) loads, no write. Every row's
    /// `freed_bytes` is read before any `retired_bytes`: a node retired on one
    /// row may be freed on another after a park and an adoption, so the
    /// freed-first order ([`Counter::FreedBytes`]) has to hold across rows.
    pub(crate) fn limbo_bytes(&self) -> u64 {
        let freed = self.sum(Counter::FreedBytes);
        self.sum(Counter::RetiredBytes).saturating_sub(freed)
    }

    /// Sums every row, counter by counter in list order, into one
    /// consistent-enough snapshot (each counter is read atomically; the set is
    /// not a single atomic cut, which is fine for reporting — except
    /// `retired >= freed`, which *is* guaranteed across rows, as for
    /// [`limbo_bytes`](Self::limbo_bytes)).
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::read(|c| self.sum(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// A distinct value into every counter, in list order: each lands in its
    /// own snapshot field and nowhere else, so a new counter is covered by
    /// its one line in the list.
    #[test]
    fn every_counter_lands_in_its_own_field() {
        let stripe = StatStripe::new();
        for &c in Counter::ALL {
            stripe.add(c, c as u64 + 1);
        }
        let snap = stripe.snapshot();
        assert_eq!(snap, StatsSnapshot::read(|c| c as u64 + 1));
        assert_eq!((snap.freed, snap.retired, snap.peak_limbo_bytes), (1, 3, 0));
    }

    #[test]
    fn stripe_counters_accumulate() {
        let stripe = StatStripe::new();
        stripe.add(Counter::Retired, 10);
        stripe.add(Counter::Freed, 4);
        stripe.add(Counter::RetiredBytes, 640);
        stripe.add(Counter::FreedBytes, 256);
        for (skips, walks) in [(3, 0), (2, 4)] {
            stripe.add(Counter::ShardSkips, skips);
            stripe.add(Counter::ShardWalks, walks);
        }
        stripe.add(Counter::CachedBytes, 64);
        stripe.add(Counter::CachedBytes, -16i64 as u64);
        let snap = stripe.snapshot();
        assert_eq!(snap.in_limbo(), 6);
        assert_eq!(snap.limbo_bytes(), 384);
        assert_eq!((snap.shard_skips, snap.shard_walks), (5, 4));
        assert_eq!(snap.cached_bytes, 48);
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
    fn within_budget_is_vacuous_without_one_and_compares_the_peak() {
        let mut snap = StatsSnapshot {
            peak_limbo_bytes: u64::MAX / 2,
            ..Default::default()
        };
        assert!(snap.within_budget());
        snap.budget_bytes = 1_000;
        assert!(!snap.within_budget());
        snap.peak_limbo_bytes = 1_000;
        assert!(snap.within_budget());
    }

    #[test]
    fn sharded_snapshot_merges_all_stripes_and_the_orphan() {
        let stats = ShardedStats::new(4);
        for i in 0..4 {
            stats.stripe(i).add(Counter::Retired, i as u64 + 1);
        }
        stats.stripe(0).add(Counter::Freed, 1);
        stats.orphan().add(Counter::Freed, 2);
        let snap = stats.snapshot();
        assert_eq!(snap.retired, 1 + 2 + 3 + 4);
        assert_eq!(snap.freed, 1 + 2);
    }

    #[test]
    fn limbo_bytes_sums_across_stripes_and_the_orphan_and_clamps_at_zero() {
        let stats = ShardedStats::new(2);
        // Retired on stripe 0, freed — after a park and an adoption — on
        // stripe 1 and by the orphan: no single stripe balances, the sum does.
        stats.stripe(0).add(Counter::RetiredBytes, 900);
        stats.stripe(1).add(Counter::FreedBytes, 300);
        stats.orphan().add(Counter::FreedBytes, 200);
        assert_eq!(stats.limbo_bytes(), 400);
        stats.orphan().add(Counter::FreedBytes, 1_000);
        assert_eq!(stats.limbo_bytes(), 0);
    }

    #[test]
    fn stripe_assignment_round_robins_and_never_deals_the_orphan() {
        let stats = ShardedStats::new(3);
        let dealt: Vec<_> = (0..6).map(|_| stats.assign_stripe()).collect();
        assert_eq!(dealt, [0, 1, 2, 0, 1, 2]);
        assert!(std::ptr::eq(stats.orphan(), stats.stripe(3)));
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let stats = ShardedStats::new(0);
        assert_eq!([stats.assign_stripe(), stats.assign_stripe()], [0, 0]);
        stats.stripe(0).add(Counter::Retired, 1);
        stats.orphan().add(Counter::Retired, 1);
        assert!(!std::ptr::eq(stats.orphan(), stats.stripe(0)));
        assert_eq!(stats.snapshot().retired, 2);
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
                    let stripe = stats.stripe(stats.assign_stripe());
                    for _ in 0..OPS {
                        stripe.add(Counter::Retired, 1);
                        stripe.add(Counter::Freed, 1);
                        stripe.add(Counter::QuiescentStates, 1);
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
                    let stripe = stats.stripe(shard);
                    while !stop.load(Ordering::Relaxed) {
                        stripe.add(Counter::Retired, 1);
                        stripe.add(Counter::RetiredBytes, 64);
                        stripe.add(Counter::Freed, 1);
                        stripe.add(Counter::FreedBytes, 64);
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
