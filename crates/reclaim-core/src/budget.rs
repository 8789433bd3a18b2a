//! Scheme-wide limbo **byte** budgets with graceful degradation.
//!
//! The paper's robustness claim is about *memory*, not node counts: a scheme
//! is robust when the garbage a stalled, silent or dead thread pins stays
//! bounded in bytes. Every scheme embeds one [`BudgetGovernor`] — the only
//! scheme-wide limbo estimate there is — that
//!
//! 1. **tracks** the scheme-wide limbo bytes: striped cache-padded counters,
//!    fed delta-reports of each handle's ledger
//!    ([`HandleCore`](crate::limbo::HandleCore)) at a bounded *grain*, plus a
//!    parked counter so a dying handle's leftovers never go invisible — and
//!    records the high-water mark ([`peak`](BudgetGovernor::peak_bytes));
//! 2. **enforces** an optional budget
//!    ([`limbo_budget`](crate::config::SmrConfig::limbo_budget)): when the estimate crosses it,
//!    the retire path escalates in a fixed ladder — force an immediate scan,
//!    scheme-specific boosts (the HE era pacer, which adapts to this
//!    estimate, ticks faster; QSense trips its fallback path early), and as a
//!    last resort one bounded retire-side backpressure yield — with every
//!    rung counted;
//! 3. **answers** for itself: [`BudgetGovernor::verdict`] returns a
//!    [`BudgetVerdict`] (peak bytes, time spent over budget, escalations
//!    taken) that benches, the CLI fault matrix and CI assert against.
//!
//! ## What enforcement can and cannot promise
//!
//! The ladder only pulls levers that are *safe on the retire path*: scans
//! gated by hazard pointers, ages or era reservations may run at any point, so
//! HP, Cadence, QSense, HE, EBR and RefCount can all free garbage the moment
//! the budget trips. QSBR cannot — declaring a quiescent state mid-operation
//! would be unsound, and no scan exists — so under a stalled reader QSBR
//! *exceeds* its budget and the verdict records exactly that. This asymmetry
//! is the point: the budget turns the paper's robust/non-robust distinction
//! into a pass/fail verdict instead of a plot a human eyeballs.
//!
//! ## Accuracy
//!
//! Reports are grain-batched (at most [`grain`](BudgetGovernor::grain) bytes
//! of drift per handle between reports), so the estimate — and therefore the
//! recorded peak — trails the true total by at most `handles × grain`. The
//! grain is sized at `budget / 64` (clamped to [256 B, 64 KiB]) so the slack
//! is a small fraction of any budget it could hide under. Size-unknown nodes
//! (raw `retire`) weigh zero bytes: the estimate under-counts rather than
//! over-counts, matching the stamping contract of
//! [`RetiredPtr`](crate::retired::RetiredPtr).

use crate::clock::{Clock, Nanos};
use crate::pad::CachePadded;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Stripes of the governor's byte estimate; handles map in by registry
/// *shard* ([`SlotId::shard`](crate::registry::SlotId::shard)): handles
/// sharing a registry shard already share registration-time lines, so
/// shard-keyed striping aligns accounting locality with scan locality.
/// Registry-less schemes key by their assigned stats stripe instead.
const BUDGET_STRIPES: usize = 8;

/// Queryable outcome of running a scheme under a limbo budget: the evidence a
/// robustness verdict is made of.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BudgetVerdict {
    /// The configured budget in bytes; 0 means tracking-only (no enforcement).
    pub budget_bytes: u64,
    /// The limbo-byte estimate at the moment the verdict was taken.
    pub current_bytes: u64,
    /// High-water mark of the limbo-byte estimate over the scheme's lifetime.
    pub peak_bytes: u64,
    /// Total wall-clock time the estimate spent above the budget.
    pub time_over_budget: Duration,
    /// Escalation rung 1: scans forced on the retire path by a budget breach.
    pub forced_scans: u64,
    /// Escalation rung 2a: era-pacer speed-ups under an enforced budget (HE
    /// only).
    pub pacer_boosts: u64,
    /// Escalation rung 2b: early fallback-path trips (QSense only).
    pub fallback_trips: u64,
    /// Escalation rung 3: bounded retire-side backpressure yields taken after
    /// a forced scan failed to get back under budget.
    pub backpressure_events: u64,
}

impl BudgetVerdict {
    /// True when the scheme never exceeded its budget (vacuously true without
    /// one). This is the bit CI asserts for the robust schemes.
    pub fn within_budget(&self) -> bool {
        self.budget_bytes == 0 || self.peak_bytes <= self.budget_bytes
    }

    /// Total escalations of any kind — "did graceful degradation actually
    /// engage, or was the run never under pressure".
    pub fn escalations(&self) -> u64 {
        self.forced_scans + self.pacer_boosts + self.fallback_trips + self.backpressure_events
    }
}

/// Scheme-wide limbo-byte accounting plus budget-enforcement state. One per
/// scheme instance; handles report through it at a bounded grain. See the
/// module docs for the design.
#[derive(Debug)]
pub struct BudgetGovernor {
    /// Budget in bytes; 0 = track (peak, estimate) but never escalate.
    budget: u64,
    /// Minimum per-handle byte drift between reports (see module docs).
    grain: usize,
    clock: Clock,
    /// Striped limbo-byte estimate. Signed: two handles sharing a stripe can
    /// interleave their delta reports below zero.
    stripes: [CachePadded<AtomicI64>; BUDGET_STRIPES],
    /// Bytes parked by dying handles, awaiting adoption — kept out of the
    /// stripes so the hand-off conserves the estimate exactly.
    parked: CachePadded<AtomicI64>,
    /// High-water mark of the estimate, updated on every report.
    peak: AtomicU64,
    /// `now + 1` at the moment the estimate crossed the budget (0 = currently
    /// under). The +1 disambiguates "crossed at t=0" from "not over".
    over_since: AtomicU64,
    /// Accumulated nanoseconds spent over budget across completed excursions.
    over_nanos: AtomicU64,
    forced_scans: AtomicU64,
    pacer_boosts: AtomicU64,
    fallback_trips: AtomicU64,
    backpressure_events: AtomicU64,
}

impl BudgetGovernor {
    /// Creates a governor. `budget` of `None` disables enforcement but keeps
    /// byte tracking (estimate + peak) alive at the idle grain.
    pub(crate) fn new(budget: Option<usize>, clock: Clock) -> Self {
        let budget = budget.unwrap_or(0) as u64;
        let grain = if budget > 0 {
            ((budget / 64) as usize).clamp(256, 64 * 1024)
        } else {
            64 * 1024
        };
        Self {
            budget,
            grain,
            clock,
            stripes: std::array::from_fn(|_| CachePadded::new(AtomicI64::new(0))),
            parked: CachePadded::new(AtomicI64::new(0)),
            peak: AtomicU64::new(0),
            over_since: AtomicU64::new(0),
            over_nanos: AtomicU64::new(0),
            forced_scans: AtomicU64::new(0),
            pacer_boosts: AtomicU64::new(0),
            fallback_trips: AtomicU64::new(0),
            backpressure_events: AtomicU64::new(0),
        }
    }

    /// The configured budget in bytes (0 = tracking only).
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// True when a budget is set and breaches escalate.
    pub fn enforcing(&self) -> bool {
        self.budget > 0
    }

    /// The per-handle reporting grain in bytes.
    pub fn grain(&self) -> usize {
        self.grain
    }

    /// Maps a registry shard (or a registry-less scheme's assigned stripe) to
    /// the governor stripe its handle reports into. Registry-backed schemes
    /// pass [`SlotId::shard`](crate::registry::SlotId::shard) so co-sharded
    /// handles share one accounting line.
    pub(crate) fn stripe_for(shard_index: usize) -> usize {
        shard_index % BUDGET_STRIPES
    }

    /// The scheme-wide limbo-byte estimate (stripes + parked, clamped at 0).
    /// O(#stripes) relaxed loads — report, scan-time era pacing
    /// (`he::EraPacer::adapt`) and diagnostics.
    pub fn estimate(&self) -> u64 {
        let total: i64 = self
            .stripes
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .sum::<i64>()
            + self.parked.load(Ordering::Relaxed);
        total.max(0) as u64
    }

    /// High-water mark of the estimate so far.
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Grain-gated retire-path hook: if the handle's byte total has drifted
    /// less than one grain since its last report, this is two subtractions and
    /// a compare; otherwise it reports and returns whether the scheme is over
    /// budget. The bool is the ladder's trigger: `true` means "escalate now".
    #[inline]
    pub(crate) fn observe(&self, stripe: usize, bytes_now: usize, reported: &mut usize) -> bool {
        if bytes_now.abs_diff(*reported) < self.grain {
            return false;
        }
        self.report(stripe, bytes_now, reported)
    }

    /// Unconditional delta-report of a handle's current byte total into its
    /// stripe (scan/flush boundaries, and `observe` past the grain). Updates
    /// the peak and the over-budget clock; returns `true` iff a budget is set
    /// and the refreshed estimate exceeds it.
    pub(crate) fn report(&self, stripe: usize, bytes_now: usize, reported: &mut usize) -> bool {
        let delta = bytes_now as i64 - *reported as i64;
        if delta != 0 {
            self.stripes[stripe % BUDGET_STRIPES].fetch_add(delta, Ordering::Relaxed);
            *reported = bytes_now;
        }
        self.refresh()
    }

    /// Recomputes the estimate, folds it into the peak and the over-budget
    /// stopwatch, and returns whether the scheme is currently over budget.
    pub(crate) fn refresh(&self) -> bool {
        let estimate = self.estimate();
        self.peak.fetch_max(estimate, Ordering::Relaxed);
        if self.budget == 0 {
            return false;
        }
        let over = estimate > self.budget;
        let mark = self.over_since.load(Ordering::Relaxed);
        if over && mark == 0 {
            // Racing markers both try to stamp; one wins, which is enough —
            // the stopwatch is diagnostics, not a safety property.
            let now = self.clock.now();
            let _ = self.over_since.compare_exchange(
                0,
                now.saturating_add(1),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        } else if !over
            && mark != 0
            && self
                .over_since
                .compare_exchange(mark, 0, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            let now = self.clock.now();
            self.over_nanos
                .fetch_add(now.saturating_sub(mark - 1), Ordering::Relaxed);
        }
        over
    }

    /// Accounts bytes entering (`delta > 0`, handle drop parks leftovers) or
    /// leaving (`delta < 0`, a flush adopts the chain) the scheme's parking
    /// lot. Unconditional: byte conservation is wanted even without
    /// enforcement, so leaked handles can never strand limbo invisibly.
    pub(crate) fn note_parked(&self, delta: i64) {
        if delta != 0 {
            self.parked.fetch_add(delta, Ordering::Relaxed);
            self.refresh();
        }
    }

    /// Retracts a dying handle's entire reported contribution before its
    /// leftovers are parked (the parked counter takes over via
    /// [`note_parked`](Self::note_parked)).
    pub(crate) fn note_handle_exit(&self, stripe: usize, reported: &mut usize) {
        if *reported != 0 {
            self.stripes[stripe % BUDGET_STRIPES].fetch_sub(*reported as i64, Ordering::Relaxed);
            *reported = 0;
        }
    }

    /// Counts a forced retire-path scan (ladder rung 1).
    pub(crate) fn count_forced_scan(&self) {
        self.forced_scans.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an era-pacer speed-up under an enforced budget (ladder rung 2a,
    /// HE).
    pub fn count_pacer_boost(&self) {
        self.pacer_boosts.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an early fallback-path trip (ladder rung 2b, QSense).
    pub fn count_fallback_trip(&self) {
        self.fallback_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one bounded retire-side backpressure yield (ladder rung 3).
    pub(crate) fn count_backpressure(&self) {
        self.backpressure_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the run so far. If the scheme is over budget right now the
    /// in-flight excursion is included in `time_over_budget`.
    pub fn verdict(&self) -> BudgetVerdict {
        let mut over = Duration::from_nanos(self.over_nanos.load(Ordering::Relaxed));
        let mark = self.over_since.load(Ordering::Relaxed);
        if mark != 0 {
            let now: Nanos = self.clock.now();
            over += Duration::from_nanos(now.saturating_sub(mark - 1));
        }
        BudgetVerdict {
            budget_bytes: self.budget,
            current_bytes: self.estimate(),
            peak_bytes: self.peak_bytes(),
            time_over_budget: over,
            forced_scans: self.forced_scans.load(Ordering::Relaxed),
            pacer_boosts: self.pacer_boosts.load(Ordering::Relaxed),
            fallback_trips: self.fallback_trips.load(Ordering::Relaxed),
            backpressure_events: self.backpressure_events.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn governor(budget: Option<usize>) -> (BudgetGovernor, ManualClock) {
        let manual = ManualClock::new();
        (
            BudgetGovernor::new(budget, Clock::manual(manual.clone())),
            manual,
        )
    }

    #[test]
    fn tracking_only_governor_records_peak_but_never_escalates() {
        let (gov, _clock) = governor(None);
        assert!(!gov.enforcing());
        let mut reported = 0usize;
        assert!(!gov.report(0, 1 << 20, &mut reported));
        assert_eq!(gov.estimate(), 1 << 20);
        assert_eq!(gov.peak_bytes(), 1 << 20);
        assert!(!gov.report(0, 0, &mut reported));
        assert_eq!(gov.estimate(), 0);
        assert_eq!(gov.peak_bytes(), 1 << 20, "peak is a high-water mark");
        let verdict = gov.verdict();
        assert!(verdict.within_budget());
        assert_eq!(verdict.escalations(), 0);
        assert_eq!(verdict.time_over_budget, Duration::ZERO);
    }

    #[test]
    fn grain_gates_observe_but_not_report() {
        let (gov, _clock) = governor(Some(1 << 20));
        let grain = gov.grain();
        assert_eq!(grain, (1 << 20) / 64);
        let mut reported = 0usize;
        // Below the grain: observe is a no-op and the estimate stays stale.
        assert!(!gov.observe(0, grain - 1, &mut reported));
        assert_eq!(gov.estimate(), 0);
        // At the grain: the report lands.
        assert!(!gov.observe(0, grain, &mut reported));
        assert_eq!(gov.estimate(), grain as u64);
        // Report is unconditional.
        let mut other = 0usize;
        gov.report(1, 1, &mut other);
        assert_eq!(gov.estimate(), grain as u64 + 1);
    }

    #[test]
    fn grain_clamps_to_sane_bounds() {
        let (tiny, _) = governor(Some(64));
        assert_eq!(tiny.grain(), 256, "floor keeps the hot path cheap");
        let (huge, _) = governor(Some(1 << 30));
        assert_eq!(huge.grain(), 64 * 1024, "ceiling keeps the estimate fresh");
    }

    #[test]
    fn crossing_the_budget_escalates_and_times_the_excursion() {
        let (gov, clock) = governor(Some(1_000));
        let mut reported = 0usize;
        assert!(!gov.report(0, 900, &mut reported));
        clock.advance(Duration::from_millis(1));
        assert!(gov.report(0, 1_500, &mut reported), "estimate over budget");
        clock.advance(Duration::from_millis(5));
        // Still over: the in-flight excursion shows up in the verdict.
        assert!(gov.verdict().time_over_budget >= Duration::from_millis(5));
        assert!(!gov.verdict().within_budget());
        // Recovery closes the stopwatch.
        assert!(!gov.report(0, 100, &mut reported));
        let settled = gov.verdict().time_over_budget;
        assert!(settled >= Duration::from_millis(5));
        clock.advance(Duration::from_millis(10));
        assert_eq!(
            gov.verdict().time_over_budget,
            settled,
            "stopwatch stops while under budget"
        );
        assert_eq!(gov.verdict().peak_bytes, 1_500);
    }

    #[test]
    fn parked_bytes_stay_visible_and_conserve_across_adoption() {
        let (gov, _clock) = governor(Some(1_000));
        let mut reported = 0usize;
        gov.report(0, 800, &mut reported);
        // Handle dies: stripe contribution moves to the parked counter.
        gov.note_handle_exit(0, &mut reported);
        assert_eq!(reported, 0);
        gov.note_parked(800);
        assert_eq!(
            gov.estimate(),
            800,
            "parked limbo keeps pressing on the estimate"
        );
        // Adoption debits parked; the adopter re-reports the same bytes.
        gov.note_parked(-800);
        let mut adopter = 0usize;
        gov.report(1, 800, &mut adopter);
        assert_eq!(gov.estimate(), 800, "conserved across the hand-off");
    }

    #[test]
    fn escalation_counters_land_in_the_verdict() {
        let (gov, _clock) = governor(Some(10));
        gov.count_forced_scan();
        gov.count_forced_scan();
        gov.count_pacer_boost();
        gov.count_fallback_trip();
        gov.count_backpressure();
        let verdict = gov.verdict();
        assert_eq!(verdict.forced_scans, 2);
        assert_eq!(verdict.pacer_boosts, 1);
        assert_eq!(verdict.fallback_trips, 1);
        assert_eq!(verdict.backpressure_events, 1);
        assert_eq!(verdict.escalations(), 5);
    }

    #[test]
    fn verdict_without_budget_is_vacuously_within() {
        let (gov, _clock) = governor(None);
        let mut reported = 0usize;
        gov.report(0, usize::MAX / 2, &mut reported);
        assert!(gov.verdict().within_budget());
        assert_eq!(gov.verdict().budget_bytes, 0);
    }
}
