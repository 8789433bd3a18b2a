//! Configuration shared by every reclamation scheme.
//!
//! The paper names seven tunables; [`SmrConfig`] carries six of them so that a single
//! configuration value can be threaded through QSBR, Cadence, hazard pointers and the
//! QSense hybrid. The field-to-symbol mapping is:
//!
//! | paper symbol | field | meaning |
//! |--------------|-------|---------|
//! | `N` | [`max_threads`](SmrConfig::max_threads) | maximum number of worker threads |
//! | `K` | [`hp_per_thread`](SmrConfig::hp_per_thread) | hazard pointers per thread, sized to the structure (`lockfree_ds`'s `*_HP_SLOTS`) |
//! | `Q` | [`quiescence_threshold`](SmrConfig::quiescence_threshold) | operations batched per quiescent state |
//! | `R` | [`scan_threshold`](SmrConfig::scan_threshold) | retires between hazard-pointer scans |
//! | `C` | [`fallback_threshold`](SmrConfig::fallback_threshold) | limbo-list size that triggers the fallback path |
//! | `T` | [`rooster_interval`](SmrConfig::rooster_interval) | rooster-thread sleep interval |
//!
//! The seventh, `ε`, has no field: the paper adds it to `T` because a node's age is
//! all a 2016 process could know about its rooster's last wake-up, and a clock can be
//! skewed or a rooster oversleep. Here a node waits for a wake-up that *returned*
//! after its unlink ([`BarrierLedger`](crate::fence::BarrierLedger)); a completed
//! barrier is an event, not an estimate, and needs no tolerance.

use crate::clock::Clock;
use std::time::Duration;

/// Tunable parameters for all schemes in the QSense family.
#[derive(Clone, Debug)]
pub struct SmrConfig {
    /// `N`: maximum number of concurrently registered worker threads.
    pub max_threads: usize,
    /// `K`: number of hazard-pointer slots per thread. Each structure names its
    /// own (`lockfree_ds::LIST_HP_SLOTS` = 2, `BST_HP_SLOTS` = 6,
    /// `SKIPLIST_HP_SLOTS` = 34; the paper gives up to 35 for its skip list).
    pub hp_per_thread: usize,
    /// `Q`: number of `begin_op` calls batched before a quiescent state is declared
    /// (QSBR / QSense fast path).
    pub quiescence_threshold: usize,
    /// `R`: number of retired nodes accumulated before a hazard-pointer scan
    /// (HP / Cadence / QSense fallback path), an era scan (HE) or an epoch
    /// advance attempt (EBR), under every [`FenceStrategy`](crate::FenceStrategy).
    pub scan_threshold: usize,
    /// `C`: per-thread limbo-list size that triggers the switch to the fallback path
    /// (QSense only). Property 4 of the paper requires
    /// `C > max(m·Q, N·K + T, (K + T + R) / 2)`, with `m` the most nodes one
    /// operation removes and `T` the removals one rooster interval allows.
    pub fallback_threshold: usize,
    /// `T`: how often the process's rooster thread issues a process-wide barrier on
    /// this scheme's behalf (Cadence / QSense fallback path; the shortest interval
    /// among a process's live schemes sets the thread's pace). `Duration::MAX`
    /// means never: the scheme's ledger then advances only when its owner issues,
    /// which deterministic tests do.
    pub rooster_interval: Duration,
    /// **Extension (paper §5.2, future work).** If set, QSense *evicts* a registered
    /// thread that has shown no activity for this long: the evicted thread stops
    /// counting towards the all-processes-active check (so the system can switch back
    /// to the fast path after a permanent thread failure) and towards grace periods
    /// (so the epoch can advance past it); its safety is covered by its hazard
    /// pointers plus deferred reclamation instead, exactly as on the fallback path.
    /// `None` (the default) disables eviction and reproduces the paper's published
    /// behaviour, where a crashed thread keeps the system in fallback mode forever.
    pub eviction_timeout: Option<Duration>,
    /// **Extension (robustness).** Scheme-wide limbo **byte** budget. When
    /// set, every scheme holds its limbo-byte estimate (bytes retired and not
    /// yet freed) against it through a [`crate::budget::BudgetGovernor`] and,
    /// on crossing the budget, escalates along a fixed ladder on the retire
    /// path: forced scan →
    /// scheme-specific boost (HE's era pacer ticks faster, QSense trips its
    /// fallback path early) → one bounded backpressure yield. The budget also
    /// paces HE's era clock: a quarter of it is the limbo residue above which
    /// the pacer halves its allocations-per-tick interval, inside [16, 64];
    /// without a budget the era ticks every 64 allocations. `None` (the
    /// default) keeps byte *tracking* alive (peaks still show up in
    /// [`crate::stats::StatsSnapshot::peak_limbo_bytes`]) but never escalates.
    /// Schemes without a safe retire-path lever (QSBR; Leaky by design) will
    /// exceed a budget under a delinquent thread — the verdict records it.
    pub limbo_budget: Option<usize>,
    /// **Extension (observability).** Enables the telemetry histograms
    /// ([`crate::telemetry`]): guard-bracket op latency sampled 1 op in 128,
    /// scan duration, and the retire→free delay distribution. Off by default —
    /// disabled, every record site costs exactly one flag load.
    pub telemetry: bool,
    /// Time source; swap in a manual clock for deterministic tests.
    pub clock: Clock,
}

impl SmrConfig {
    /// Sets `N`, the maximum number of worker threads.
    pub fn with_max_threads(mut self, n: usize) -> Self {
        assert!(n > 0, "max_threads must be positive");
        self.max_threads = n;
        self
    }

    /// Sets `K`, the number of hazard-pointer slots per thread.
    pub fn with_hp_per_thread(mut self, k: usize) -> Self {
        assert!(k > 0, "hp_per_thread must be positive");
        self.hp_per_thread = k;
        self
    }

    /// Sets `Q`, the quiescence threshold.
    pub fn with_quiescence_threshold(mut self, q: usize) -> Self {
        assert!(q > 0, "quiescence_threshold must be positive");
        self.quiescence_threshold = q;
        self
    }

    /// Sets `R`, the scan threshold.
    pub fn with_scan_threshold(mut self, r: usize) -> Self {
        assert!(r > 0, "scan_threshold must be positive");
        self.scan_threshold = r;
        self
    }

    /// Sets `C`, the fallback threshold.
    pub fn with_fallback_threshold(mut self, c: usize) -> Self {
        assert!(c > 0, "fallback_threshold must be positive");
        self.fallback_threshold = c;
        self
    }

    /// Sets `T`, the rooster sleep interval (`Duration::MAX`: no rooster).
    pub fn with_rooster_interval(mut self, t: Duration) -> Self {
        assert!(!t.is_zero(), "rooster_interval must be positive");
        self.rooster_interval = t;
        self
    }

    /// Enables the eviction extension: a thread inactive for longer than `timeout` is
    /// evicted from the presence and grace-period checks (see
    /// [`eviction_timeout`](Self::eviction_timeout)). Pass `None` to disable (the
    /// paper's published behaviour).
    pub fn with_eviction_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.eviction_timeout = timeout;
        self
    }

    /// The eviction timeout in nanoseconds, if the extension is enabled.
    pub fn eviction_timeout_nanos(&self) -> Option<u64> {
        self.eviction_timeout.map(crate::clock::duration_to_nanos)
    }

    /// Sets (or clears) the scheme-wide limbo byte budget (see
    /// [`limbo_budget`](Self::limbo_budget)). A budget of `Some(0)` is
    /// rejected: zero bytes cannot hold even one retired node, so every
    /// retire would sit in permanent escalation.
    pub fn with_limbo_budget(mut self, budget: Option<usize>) -> Self {
        if let Some(bytes) = budget {
            assert!(bytes > 0, "limbo_budget must be positive when set");
        }
        self.limbo_budget = budget;
        self
    }

    /// Enables or disables the telemetry histograms (see
    /// [`telemetry`](Self::telemetry)).
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Replaces the time source (e.g. with a manual clock for tests).
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }
}

impl Default for SmrConfig {
    fn default() -> Self {
        Self {
            max_threads: 64,
            hp_per_thread: 8,
            quiescence_threshold: 100,
            scan_threshold: 128,
            fallback_threshold: 4096,
            rooster_interval: Duration::from_millis(10),
            eviction_timeout: None,
            limbo_budget: None,
            telemetry: false,
            clock: Clock::real(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn defaults_are_sane() {
        let cfg = SmrConfig::default();
        assert!(cfg.max_threads >= 1);
        assert!(cfg.hp_per_thread >= 1);
        assert!(!cfg.rooster_interval.is_zero() && cfg.rooster_interval != Duration::MAX);
        assert!(
            cfg.eviction_timeout.is_none(),
            "eviction is an opt-in extension; the default must match the paper"
        );
        assert!(
            cfg.limbo_budget.is_none(),
            "budgets are opt-in; the default must not change retire-path behaviour"
        );
        assert!(
            !cfg.telemetry,
            "telemetry is opt-in; the default must keep record sites to one flag load"
        );
    }

    #[test]
    fn builders_set_every_field() {
        let manual = ManualClock::new();
        let cfg = SmrConfig::default()
            .with_max_threads(4)
            .with_hp_per_thread(3)
            .with_quiescence_threshold(10)
            .with_scan_threshold(20)
            .with_fallback_threshold(500)
            .with_rooster_interval(Duration::from_millis(5))
            .with_eviction_timeout(Some(Duration::from_millis(50)))
            .with_limbo_budget(Some(1 << 20))
            .with_telemetry(true)
            .with_clock(Clock::manual(manual.clone()));
        assert_eq!(cfg.max_threads, 4);
        assert_eq!(cfg.hp_per_thread, 3);
        assert_eq!(cfg.quiescence_threshold, 10);
        assert_eq!(cfg.scan_threshold, 20);
        assert_eq!(cfg.fallback_threshold, 500);
        assert_eq!(cfg.rooster_interval, Duration::from_millis(5));
        assert_eq!(cfg.eviction_timeout_nanos(), Some(50_000_000));
        assert_eq!(cfg.limbo_budget, Some(1 << 20));
        assert!(cfg.telemetry);
        manual.advance(Duration::from_nanos(7));
        assert_eq!(cfg.clock.now(), 7, "the configured clock is the manual one");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_threads_rejected() {
        let _ = SmrConfig::default().with_max_threads(0);
    }

    #[test]
    #[should_panic(expected = "rooster_interval must be positive")]
    fn zero_rooster_interval_rejected() {
        let _ = SmrConfig::default().with_rooster_interval(Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "limbo_budget must be positive")]
    fn zero_limbo_budget_rejected() {
        let _ = SmrConfig::default().with_limbo_budget(Some(0));
    }

    #[test]
    fn limbo_budget_can_be_cleared() {
        let cfg = SmrConfig::default()
            .with_limbo_budget(Some(4096))
            .with_limbo_budget(None);
        assert!(cfg.limbo_budget.is_none());
    }
}
