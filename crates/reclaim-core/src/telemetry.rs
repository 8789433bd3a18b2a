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
//!   [`RetiredPtr`] at retire and measured when the
//!   node reaches the allocator (`Telemetry::note_free`) — the paper's
//!   "bounded garbage" claim as an observable retire→free distribution.
//!
//! A handle records through its [`HandleCore`](crate::limbo::HandleCore),
//! which keeps the op-sampling counter and the retire-tick cache and knows
//! its stripe: the guard's op bracket, the retire stamp and the scan timer
//! are the core's, in one place for every scheme.
//!
//! ## Time sources
//!
//! Two different clocks, chosen per site by cost:
//!
//! * **Op latency and scan duration** use [`Instant`] — the precise monotonic
//!   clock. A `clock_gettime` pair per *sampled* op is affordable precisely
//!   because sampling is 1-in-128 (`OP_SAMPLE_SHIFT`; op 0 of every handle
//!   is sampled); scans are already rare (every `R` retires).
//! * **Reclamation delay** must be stamped on *every* retire, so it uses a
//!   coarse tick instead: microseconds since the scheme's construction,
//!   truncated to `u32` (`Telemetry::coarse_now`). The stamp fits the
//!   existing padding hole in `RetiredPtr` (the wrapper stays 40 bytes, so
//!   segment geometry is untouched) and wraps after ~71.6 minutes; the
//!   free-side `wrapping_sub` stays correct across a single wrap, which no
//!   realistic retire→free delay outlives. Even a coarse clock read is too
//!   expensive to pay per retire on the cheapest schemes (a `clock_gettime`
//!   costs a third of a QSBR retire), so each handle *caches* the tick and
//!   refreshes it every `TICK_REFRESH` retires — and for free on every
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
//! scan begin — first performs exactly **one load** of the `enabled` flag (a
//! read-only field, set at construction, on the line of the histogram origin)
//! and branches away. No `Instant` is read, no stripe is touched, no stamp is
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of log2 buckets per histogram: one per `u64` bit position.
pub(crate) const HIST_BUCKETS: usize = 64;

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
    #[cfg(test)]
    pub(crate) fn bucket_counts(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
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
    /// True when no histogram holds any record.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.op_latency_ns.is_empty() && self.scan_ns.is_empty() && self.reclaim_delay_us.is_empty()
    }
}

/// A scheme's telemetry samples the latency of 1 op in `2^OP_SAMPLE_SHIFT`
/// (1-in-128) on each handle, starting with the handle's first op. Only the
/// sampled ops read the precise clock.
pub(crate) const OP_SAMPLE_SHIFT: u32 = 7;

/// Per-scheme telemetry state: the enabled flag, the coarse-tick origin, and
/// the three histograms. One instance lives in every scheme's
/// [`SchemeCore`](crate::limbo::SchemeCore); handles record through their
/// [`HandleCore`](crate::limbo::HandleCore).
pub struct Telemetry {
    /// Fixed at construction: every record site reads it exactly once and
    /// branches away when telemetry is off.
    enabled: bool,
    /// Origin of the coarse tick; also the precise-clock anchor.
    origin: Instant,
    op_latency: LogHistogram,
    scan_duration: LogHistogram,
    reclaim_delay: LogHistogram,
}

impl Telemetry {
    /// Builds telemetry state from a scheme configuration
    /// ([`SmrConfig::telemetry`]).
    pub(crate) fn from_config(config: &SmrConfig) -> Self {
        Self::new(config.telemetry)
    }

    /// Builds telemetry state directly, recording when `enabled`.
    pub(crate) fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            op_latency: LogHistogram::new(),
            scan_duration: LogHistogram::new(),
            reclaim_delay: LogHistogram::new(),
        }
    }

    /// Whether record sites are live. One load.
    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The coarse monotonic tick: microseconds since scheme construction,
    /// truncated to `u32` (wraps after ~71.6 minutes; the free-side
    /// `wrapping_sub` is correct across one wrap). Never returns 0, so a zero
    /// stamp in a retired node always means "stamped while disabled".
    #[inline]
    pub(crate) fn coarse_now(&self) -> u32 {
        self.tick_from(Instant::now())
    }

    /// The coarse tick a known instant corresponds to — lets a caller that
    /// already read the clock derive the tick without a second read.
    #[inline]
    pub(crate) fn tick_from(&self, now: Instant) -> u32 {
        let t = now.saturating_duration_since(self.origin).as_micros() as u32;
        if t == 0 {
            1
        } else {
            t
        }
    }

    /// Records the retire→free delay of one node on its way to the allocator,
    /// against the coarse tick `now_tick`. A node stamped while telemetry was
    /// disabled (tick 0) is skipped, as is every node when `now_tick` is 0. A
    /// handle's cached tick can trail the stamp a sibling put on a node it
    /// adopted: a `now_tick` behind the stamp reads as no delay, not as one
    /// wrap of the counter.
    #[inline]
    pub(crate) fn note_free(&self, stripe: usize, now_tick: u32, node: &RetiredPtr) {
        let tick = node.retire_tick();
        if tick == 0 || now_tick == 0 {
            return;
        }
        let delay_us = now_tick.wrapping_sub(tick);
        let delay_us = if delay_us > u32::MAX / 2 { 0 } else { delay_us };
        self.reclaim_delay.record(stripe, u64::from(delay_us));
    }

    /// Records one sampled guard bracket that began at `started`.
    #[inline]
    pub(crate) fn record_op(&self, stripe: usize, started: Instant) {
        self.op_latency.record(stripe, nanos_since(started));
    }

    /// Records one scan that began at `started`.
    pub(crate) fn record_scan(&self, stripe: usize, started: Instant) {
        self.scan_duration.record(stripe, nanos_since(started));
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
pub(crate) const TICK_REFRESH: u32 = 16;

/// What a handle keeps between telemetry records: the 1-in-N op-sampling
/// counter and the amortised retire-tick cache.
#[derive(Default)]
pub(crate) struct CursorState {
    pub(crate) ops: u32,
    pub(crate) retires: u32,
    pub(crate) tick_cache: u32,
}

/// Nanoseconds since `started`, saturated.
fn nanos_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
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
}
