//! Lock-free latency histograms and the per-handle telemetry event layer.
//!
//! The paper's claims are *distributional*: the read path must be fast in the
//! common case **and** the retire→free delay must stay bounded under stalls.
//! Counters and peaks (see [`crate::stats`]) cannot show either tail. This
//! module adds the missing substrate:
//!
//! * [`LogHistogram`] — a fixed-size, allocation-free, cache-padded-striped
//!   histogram with 64 log2 buckets. Recording is one relaxed `fetch_add` to a
//!   stripe the recording handle owns in the common case; snapshots merge all
//!   stripes into a plain [`HistSnapshot`] that answers p50/p90/p99/p999
//!   queries.
//! * [`Telemetry`] — one per scheme instance, holding three histograms:
//!   guard-bracket **op latency** (nanoseconds, 1-in-N sampled), **scan
//!   duration** (nanoseconds, every scan), and **reclamation delay**
//!   (microseconds): a coarse monotonic tick stamped into
//!   [`RetiredPtr`](crate::retired::RetiredPtr) at retire and measured when the
//!   node reaches the allocator ([`Telemetry::note_free`]) — the paper's
//!   "bounded garbage" claim as an observable retire→free distribution.
//! * [`HandleTelemetry`] — the per-handle recording cursor (a view of the
//!   handle's op-sampling counter and tick cache, its scheme's [`Telemetry`]
//!   and its stripe, lent by [`HandleCore::tele`](crate::limbo::HandleCore::tele)),
//!   and [`ScanObserver`] — the per-scan timer.
//!
//! ## Time sources
//!
//! Two different clocks, chosen per site by cost:
//!
//! * **Op latency and scan duration** use [`Instant`] — the precise monotonic
//!   clock. A `clock_gettime` pair per *sampled* op is affordable precisely
//!   because sampling is 1-in-128 ([`OP_SAMPLE_SHIFT`]; op 0 of every handle
//!   is sampled); scans are already rare (every `R` retires).
//! * **Reclamation delay** must be stamped on *every* retire, so it uses a
//!   coarse tick instead: microseconds since the scheme's construction,
//!   truncated to `u32` ([`Telemetry::coarse_now`]). The stamp fits the
//!   existing padding hole in `RetiredPtr` (the wrapper stays 40 bytes, so
//!   segment geometry is untouched) and wraps after ~71.6 minutes; the
//!   free-side `wrapping_sub` stays correct across a single wrap, which no
//!   realistic retire→free delay outlives. Even a coarse clock read is too
//!   expensive to pay per retire on the cheapest schemes (a `clock_gettime`
//!   costs a third of a QSBR retire), so each handle *caches* the tick and
//!   refreshes it every [`TICK_REFRESH`] retires — and for free on every
//!   sampled op, reusing the `Instant` the latency sample already took. A
//!   stale cache only ever *over*-reports a delay, by at most the wall time
//!   the handle took to issue the last `TICK_REFRESH` retires (sub-µs in the
//!   high-churn regimes where delay matters, and well inside the 2× bucket
//!   bound everywhere else).
//!
//! ## Error bounds
//!
//! Buckets are powers of two: a recorded value `v` lands in bucket
//! `floor(log2(v))`, so any percentile query is exact to within one bucket —
//! the reported bound is at most 2× the true value (quantile values are
//! reported as the bucket's inclusive upper bound, never an underestimate).
//!
//! ## Disabled-path guarantee
//!
//! Telemetry is off by default. Every record site — op begin, retire stamp,
//! scan begin — first performs exactly **one relaxed load** of the `enabled`
//! flag (a read-mostly cache line shared with the histogram origin) and
//! branches away. No `Instant` is read, no stripe is touched, no stamp is
//! written. `qsense-bench --figure telemetry-off,telemetry-on` measures both
//! paths on the retire-bound queue.
//!
//! ## Snapshot consistency
//!
//! Each bucket is a single atomic counter and every record is one `fetch_add`,
//! so no concurrent increment can be lost. Snapshots read buckets with
//! `Acquire`: bucket-wise, any snapshot dominates every snapshot that
//! happened-before it (totals are monotone), and a snapshot taken after the
//! recording threads are joined is exact. There is no cross-bucket tearing a
//! reader could misread as *negative* counts — the analog of the
//! `retired >= freed` stats guarantee is that a merged snapshot's bucket sums
//! never exceed the records actually issued, and never miss one issued before
//! the snapshot's happens-before edge.

use crate::config::SmrConfig;
use crate::pad::CachePadded;
use crate::retired::RetiredPtr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Number of log2 buckets per histogram: one per `u64` bit position.
pub const HIST_BUCKETS: usize = 64;

/// Counter stripes per histogram. A handle records on its counter stripe's
/// index modulo this; eight padded stripes keep concurrent recorders off each
/// other's cache lines at every thread count the benchmarks run.
pub const HIST_STRIPES: usize = 8;

/// One stripe: 64 buckets, 512 bytes, single cache-padded unit.
struct Stripe {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Stripe {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A fixed-size, allocation-free, cache-padded-striped log2 histogram.
///
/// Values are `u64`; value `v` is counted in bucket `floor(log2(max(v, 1)))`.
/// Recording is wait-free (one relaxed `fetch_add`); snapshotting sums the
/// stripes into a [`HistSnapshot`]. The whole structure is inline — no heap
/// allocation at construction, record, or snapshot time.
pub struct LogHistogram {
    stripes: [CachePadded<Stripe>; HIST_STRIPES],
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            stripes: std::array::from_fn(|_| CachePadded::new(Stripe::new())),
        }
    }

    /// Bucket index for a value: `floor(log2(max(value, 1)))`.
    #[inline]
    fn bucket_for(value: u64) -> usize {
        (63 - (value | 1).leading_zeros()) as usize
    }

    /// Records one occurrence of `value` on `stripe` (taken modulo the stripe
    /// count). One relaxed `fetch_add` to a cache-padded line; wait-free.
    #[inline]
    pub fn record(&self, stripe: usize, value: u64) {
        self.stripes[stripe % HIST_STRIPES].buckets[Self::bucket_for(value)]
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Sums all stripes into a plain snapshot. Bucket-wise monotone across
    /// snapshots; exact once recorders have quiesced (see module docs).
    pub fn snapshot(&self) -> HistSnapshot {
        let mut out = HistSnapshot::default();
        for stripe in &self.stripes {
            for (bucket, counter) in stripe.buckets.iter().enumerate() {
                out.buckets[bucket] += counter.load(Ordering::Acquire);
            }
        }
        out
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A plain, mergeable snapshot of a [`LogHistogram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    buckets: [u64; HIST_BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Per-bucket counts (bucket `i` covers values in `[2^i, 2^(i+1))`,
    /// with bucket 0 also absorbing value 0).
    pub fn bucket_counts(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Adds `other`'s counts into `self`.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// Inclusive upper bound of bucket `i`: the largest value it can hold.
    fn bucket_bound(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// The value at percentile `p` (`0.0 < p <= 1.0`), reported as the upper
    /// bound of the bucket containing that rank — exact to within one log2
    /// bucket (at most 2× the true value, never an underestimate). Returns 0
    /// for an empty snapshot.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Self::bucket_bound(i);
            }
        }
        Self::bucket_bound(HIST_BUCKETS - 1)
    }

    /// Convenience: the (p50, p90, p99, p999) quadruple every report prints.
    pub fn quantiles(&self) -> (u64, u64, u64, u64) {
        (
            self.percentile(0.50),
            self.percentile(0.90),
            self.percentile(0.99),
            self.percentile(0.999),
        )
    }
}

/// A plain snapshot of all three per-scheme histograms, mergeable across
/// schemes or runs. Produced by [`Telemetry::summary`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySummary {
    /// Guard-bracket op latency, nanoseconds (1-in-N sampled).
    pub op_latency_ns: HistSnapshot,
    /// Scan (reclamation pass) duration, nanoseconds.
    pub scan_ns: HistSnapshot,
    /// Retire→free delay, microseconds (coarse-tick resolution).
    pub reclaim_delay_us: HistSnapshot,
}

impl TelemetrySummary {
    /// Adds `other`'s counts into `self`, histogram by histogram.
    pub fn merge(&mut self, other: &TelemetrySummary) {
        self.op_latency_ns.merge(&other.op_latency_ns);
        self.scan_ns.merge(&other.scan_ns);
        self.reclaim_delay_us.merge(&other.reclaim_delay_us);
    }

    /// True when no histogram holds any record.
    pub fn is_empty(&self) -> bool {
        self.op_latency_ns.is_empty() && self.scan_ns.is_empty() && self.reclaim_delay_us.is_empty()
    }
}

/// A scheme's telemetry samples the latency of 1 op in `2^OP_SAMPLE_SHIFT`
/// (1-in-128) on each handle, starting with the handle's first op. Only the
/// sampled ops read the precise clock.
pub const OP_SAMPLE_SHIFT: u32 = 7;

/// Per-scheme telemetry state: the enabled flag, the coarse-tick origin, and
/// the three histograms. One instance lives in every scheme's
/// [`SchemeCore`](crate::limbo::SchemeCore); handles record through
/// [`HandleTelemetry`] cursors.
pub struct Telemetry {
    /// Read-mostly: every record site loads this (relaxed) exactly once and
    /// branches away when telemetry is off.
    enabled: AtomicBool,
    /// `ops & sample_mask == 0` selects the sampled ops: `(1 << shift) - 1`.
    sample_mask: u32,
    /// Origin of the coarse tick; also the precise-clock anchor.
    origin: Instant,
    op_latency: LogHistogram,
    scan_duration: LogHistogram,
    reclaim_delay: LogHistogram,
}

impl Telemetry {
    /// Builds telemetry state from a scheme configuration
    /// ([`SmrConfig::telemetry`]), sampling at [`OP_SAMPLE_SHIFT`].
    pub fn from_config(config: &SmrConfig) -> Self {
        Self::new(config.telemetry, OP_SAMPLE_SHIFT)
    }

    /// Builds telemetry state directly: `enabled` plus the op-latency sample
    /// shift (sample 1 op in `2^shift`; shift is clamped to 31).
    pub fn new(enabled: bool, sample_shift: u32) -> Self {
        Self {
            enabled: AtomicBool::new(enabled),
            sample_mask: (1u32 << sample_shift.min(31)) - 1,
            origin: Instant::now(),
            op_latency: LogHistogram::new(),
            scan_duration: LogHistogram::new(),
            reclaim_delay: LogHistogram::new(),
        }
    }

    /// Whether record sites are live. One relaxed load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off at runtime. Record sites notice on their
    /// next relaxed load; stamps written while enabled remain valid.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The coarse monotonic tick: microseconds since scheme construction,
    /// truncated to `u32` (wraps after ~71.6 minutes; the free-side
    /// `wrapping_sub` is correct across one wrap). Never returns 0, so a zero
    /// stamp in a retired node always means "stamped while disabled".
    #[inline]
    pub fn coarse_now(&self) -> u32 {
        self.tick_from(Instant::now())
    }

    /// The coarse tick a known instant corresponds to — lets a caller that
    /// already read the clock derive the tick without a second read.
    #[inline]
    fn tick_from(&self, now: Instant) -> u32 {
        let t = now.saturating_duration_since(self.origin).as_micros() as u32;
        if t == 0 {
            1
        } else {
            t
        }
    }

    /// Begins observing one scan: one relaxed load when disabled, otherwise a
    /// probe carrying the scan's start instant, for [`ScanObserver::finish`]
    /// to record when the pass is done.
    #[inline]
    pub fn scan_observer(&self, stripe: usize) -> Option<ScanObserver<'_>> {
        if !self.is_enabled() {
            return None;
        }
        Some(ScanObserver {
            shared: self,
            stripe,
            start: Instant::now(),
        })
    }

    /// Records the retire→free delay of one node on its way to the allocator,
    /// against the coarse tick `now_tick`. A node stamped while telemetry was
    /// disabled (tick 0) is skipped, as is every node when `now_tick` is 0. A
    /// handle's cached tick can trail the stamp a sibling put on a node it
    /// adopted: a `now_tick` behind the stamp reads as no delay, not as one
    /// wrap of the counter.
    #[inline]
    pub fn note_free(&self, stripe: usize, now_tick: u32, node: &RetiredPtr) {
        let tick = node.retire_tick();
        if tick == 0 || now_tick == 0 {
            return;
        }
        let delay_us = now_tick.wrapping_sub(tick);
        let delay_us = if delay_us > u32::MAX / 2 { 0 } else { delay_us };
        self.reclaim_delay.record(stripe, u64::from(delay_us));
    }

    /// Records one sampled guard-bracket op latency (nanoseconds).
    #[inline]
    fn record_op_latency(&self, stripe: usize, nanos: u64) {
        self.op_latency.record(stripe, nanos);
    }

    /// Snapshots all three histograms into a plain, mergeable summary.
    pub fn summary(&self) -> TelemetrySummary {
        TelemetrySummary {
            op_latency_ns: self.op_latency.snapshot(),
            scan_ns: self.scan_duration.snapshot(),
            reclaim_delay_us: self.reclaim_delay.snapshot(),
        }
    }
}

/// A handle refreshes its cached retire tick every this many retires (must be
/// a power of two). Between refreshes the cached tick can only make delays
/// look *longer*, by at most the wall time those retires spanned.
pub const TICK_REFRESH: u32 = 16;

/// What a handle keeps between telemetry records: the 1-in-N op-sampling
/// counter and the amortised retire-tick cache.
#[derive(Default)]
pub(crate) struct CursorState {
    ops: u32,
    retires: u32,
    tick_cache: u32,
}

/// The per-handle recording cursor: the handle's sampling counter and tick
/// cache together with the scheme's [`Telemetry`] and the handle's stripe, all
/// borrowed through the handle's core for the length of one call. All methods
/// are one relaxed load when telemetry is disabled.
pub struct HandleTelemetry<'a> {
    shared: &'a Telemetry,
    stripe: usize,
    state: &'a mut CursorState,
}

impl<'a> HandleTelemetry<'a> {
    pub(crate) fn new(shared: &'a Telemetry, stripe: usize, state: &'a mut CursorState) -> Self {
        Self {
            shared,
            stripe,
            state,
        }
    }

    /// Op-bracket entry: one relaxed load when disabled; when enabled, counts
    /// the op and reads `Instant::now()` for the 1-in-N sampled ops only.
    #[inline]
    pub fn op_begin(&mut self) -> Option<Instant> {
        if !self.shared.is_enabled() {
            return None;
        }
        let sampled = self.state.ops & self.shared.sample_mask == 0;
        self.state.ops = self.state.ops.wrapping_add(1);
        if sampled {
            let now = Instant::now();
            // Free tick refresh: the sample already paid for the clock read.
            self.state.tick_cache = self.shared.tick_from(now);
            Some(now)
        } else {
            None
        }
    }

    /// Op-bracket exit for a sampled op: records the elapsed nanoseconds.
    #[inline]
    pub fn op_end(&mut self, started: Instant) {
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.shared.record_op_latency(self.stripe, nanos);
    }

    /// The retire-time telemetry tick for a [`RetiredPtr`]: 0 (one
    /// relaxed load) when disabled, otherwise the cached coarse tick. The
    /// cache re-reads the clock every [`TICK_REFRESH`] retires (and whenever
    /// a sampled op refreshes it for free), so the per-retire cost between
    /// refreshes is the flag load, a counter bump, and one `u32` copy.
    #[inline]
    pub fn retire_tick(&mut self) -> u32 {
        if !self.shared.is_enabled() {
            return 0;
        }
        if self.state.retires & (TICK_REFRESH - 1) == 0 || self.state.tick_cache == 0 {
            self.state.tick_cache = self.shared.coarse_now();
        }
        self.state.retires = self.state.retires.wrapping_add(1);
        self.state.tick_cache
    }
}

/// A per-scan probe: carries the scan's start instant.
pub struct ScanObserver<'a> {
    shared: &'a Telemetry,
    stripe: usize,
    start: Instant,
}

impl ScanObserver<'_> {
    /// Ends the scan, recording its duration (nanoseconds).
    pub fn finish(self) {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.shared.scan_duration.record(self.stripe, nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;
    use std::thread;

    #[test]
    fn bucket_for_is_floor_log2() {
        assert_eq!(LogHistogram::bucket_for(0), 0);
        assert_eq!(LogHistogram::bucket_for(1), 0);
        assert_eq!(LogHistogram::bucket_for(2), 1);
        assert_eq!(LogHistogram::bucket_for(3), 1);
        assert_eq!(LogHistogram::bucket_for(4), 2);
        assert_eq!(LogHistogram::bucket_for(1023), 9);
        assert_eq!(LogHistogram::bucket_for(1024), 10);
        assert_eq!(LogHistogram::bucket_for(u64::MAX), 63);
    }

    #[test]
    fn percentiles_walk_buckets_with_upper_bounds() {
        let hist = LogHistogram::new();
        // 90 small values (bucket 3: 8..=15), 10 large (bucket 10: 1024..=2047).
        for i in 0..90 {
            hist.record(i, 10);
        }
        for i in 0..10 {
            hist.record(i, 1500);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 100);
        assert_eq!(snap.percentile(0.50), 15);
        assert_eq!(snap.percentile(0.90), 15);
        assert_eq!(snap.percentile(0.99), 2047);
        assert_eq!(snap.percentile(0.999), 2047);
        let (p50, p90, p99, p999) = snap.quantiles();
        assert_eq!((p50, p90, p99, p999), (15, 15, 2047, 2047));
    }

    #[test]
    fn empty_snapshot_reports_zero() {
        let snap = HistSnapshot::default();
        assert!(snap.is_empty());
        assert_eq!(snap.percentile(0.99), 0);
    }

    #[test]
    fn merge_adds_bucket_wise() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        a.record(0, 10);
        b.record(5, 10);
        b.record(5, 1 << 40);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.bucket_counts()[3], 2);
        assert_eq!(merged.bucket_counts()[40], 1);
    }

    #[test]
    fn concurrent_churn_loses_no_counts_and_snapshots_are_monotone() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 50_000;
        let hist = LogHistogram::new();
        let issued = TestCounter::new(0);
        thread::scope(|scope| {
            for t in 0..THREADS {
                let hist = &hist;
                let issued = &issued;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        hist.record(t, i);
                        issued.fetch_add(1, Ordering::Release);
                    }
                });
            }
            // Concurrent snapshots: totals must be monotone and never exceed
            // the records issued before the snapshot began... the reverse — a
            // snapshot can only *miss* in-flight records, never invent them.
            let mut last_total = 0u64;
            for _ in 0..100 {
                let snap = hist.snapshot();
                let total = snap.count();
                assert!(total >= last_total, "snapshot totals must be monotone");
                last_total = total;
                // `issued` is bumped *after* each record, so reading it after
                // the snapshot gives an upper bound up to one in-flight record
                // per thread.
                let upper = issued.load(Ordering::Acquire);
                assert!(
                    total <= upper + THREADS as u64,
                    "snapshot invented counts: {total} > {upper} + in-flight"
                );
            }
        });
        let final_snap = hist.snapshot();
        assert_eq!(
            final_snap.count(),
            (THREADS as u64) * PER_THREAD,
            "post-join snapshot must be exact — no lost counts"
        );
    }

    #[test]
    fn sampling_mask_selects_one_in_n() {
        let tele = Telemetry::new(true, 3); // 1-in-8
        let mut state = CursorState::default();
        let mut cursor = HandleTelemetry::new(&tele, 0, &mut state);
        let mut sampled = 0;
        for _ in 0..64 {
            if let Some(start) = cursor.op_begin() {
                cursor.op_end(start);
                sampled += 1;
            }
        }
        assert_eq!(sampled, 8);
        assert_eq!(tele.summary().op_latency_ns.count(), 8);
    }

    #[test]
    fn disabled_paths_record_nothing() {
        let tele = Telemetry::new(false, 0);
        let mut state = CursorState::default();
        let mut cursor = HandleTelemetry::new(&tele, 0, &mut state);
        for _ in 0..32 {
            assert!(cursor.op_begin().is_none());
        }
        assert_eq!(cursor.retire_tick(), 0);
        assert!(tele.scan_observer(0).is_none());
        assert!(tele.summary().is_empty());
    }

    #[test]
    fn coarse_now_is_never_zero_and_delay_measures_tick_gap() {
        let tele = Telemetry::new(true, 0);
        assert_ne!(tele.coarse_now(), 0);
        let obs = tele.scan_observer(0).expect("enabled");
        // An unstamped node (tick 0) is skipped.
        let unstamped =
            // SAFETY: the pointer was just produced by Box::into_raw and matches the drop function's type.
            unsafe { RetiredPtr::new(Box::into_raw(Box::new(7u64)).cast(), drop_u64, 0, 0, 0) };
        tele.note_free(0, tele.coarse_now(), &unstamped);
        let mut stamped =
            // SAFETY: the pointer was just produced by Box::into_raw and matches the drop function's type.
            unsafe { RetiredPtr::new(Box::into_raw(Box::new(7u64)).cast(), drop_u64, 0, 0, 0) };
        stamped.set_retire_tick(1_000);
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
        stamped.set_retire_tick(u32::MAX - 5);
        tele.note_free(0, 4, &stamped);
        obs.finish();
        let summary = tele.summary();
        assert_eq!(summary.reclaim_delay_us.bucket_counts()[0], 1, "0 us");
        assert_eq!(summary.reclaim_delay_us.bucket_counts()[3], 1, "10 us");
        assert_eq!(summary.reclaim_delay_us.count(), 3);
        assert_eq!(summary.scan_ns.count(), 1);
        // SAFETY: both nodes were retired exactly once above and nothing protects them.
        unsafe {
            unstamped.reclaim();
            stamped.reclaim();
        }
    }

    unsafe fn drop_u64(ptr: *mut u8) {
        // SAFETY: test pointers originate from Box::into_raw::<u64>.
        #[allow(clippy::disallowed_methods)]
        // sanctioned: drop_fn thunk: the retire contract pairs this with Box::into_raw
        unsafe {
            drop(Box::from_raw(ptr.cast::<u64>()))
        };
    }

    #[test]
    fn retire_tick_cache_is_monotone_and_never_zero_while_enabled() {
        let tele = Telemetry::new(true, 0);
        let mut state = CursorState::default();
        let mut cursor = HandleTelemetry::new(&tele, 0, &mut state);
        let mut last = 0u32;
        // One past the refresh boundary, so the final stamp below can only
        // come from the cache (not a boundary re-read).
        for _ in 0..(TICK_REFRESH * 4 + 1) {
            let tick = cursor.retire_tick();
            assert_ne!(tick, 0, "enabled stamps are never the disabled marker");
            assert!(tick >= last, "cached ticks never run backwards");
            last = tick;
        }
        // A sampled op refreshes the cache without waiting for the next
        // refresh boundary.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let started = cursor.op_begin().expect("shift 0 samples every op");
        cursor.op_end(started);
        assert!(cursor.retire_tick() > last, "op sample advanced the cache");
    }

    #[test]
    fn set_enabled_toggles_record_sites() {
        let tele = Telemetry::new(false, 0);
        let mut state = CursorState::default();
        let mut cursor = HandleTelemetry::new(&tele, 0, &mut state);
        assert!(cursor.op_begin().is_none());
        tele.set_enabled(true);
        assert!(cursor.op_begin().is_some());
        tele.set_enabled(false);
        assert!(cursor.op_begin().is_none());
    }
}
