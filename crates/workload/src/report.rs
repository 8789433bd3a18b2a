//! Plain-text reporting helpers used by `qsense-bench`.
//!
//! Every figure/table of the paper is regenerated as a text table: one row per
//! (scheme, x-value) pair for the scalability plots, one row per time sample for the
//! delay timelines. Keeping the output textual makes a run's log directly comparable
//! with the numbers quoted in the paper; [`json`](crate::json) is the machine-readable
//! twin.

use crate::runner::RunResult;

/// Formats a throughput table row: scheme, threads, Mops/s, overhead vs the
/// leaky baseline in percent (when one ran), in-limbo count.
pub fn throughput_row(result: &RunResult, overhead_pct: Option<f64>) -> String {
    let overhead = match overhead_pct {
        Some(pct) => format!("{pct:>8.1}%"),
        None => "       -".to_string(),
    };
    format!(
        "{:<12} {:>3} threads  {:>9.3} Mops/s  overhead vs none: {}  in-limbo: {:>8}",
        result.scheme,
        result.threads,
        result.mops(),
        overhead,
        result.stats.in_limbo(),
    )
}

/// Prints the time-series samples of a delay-injection run in a gnuplot-friendly
/// format: `elapsed_seconds throughput_mops in_limbo`.
pub fn print_timeline(result: &RunResult) {
    println!(
        "# timeline scheme={} structure={} threads={}{}",
        result.scheme,
        result.structure,
        result.threads,
        match result.aborted_at {
            Some(at) => format!(
                " ABORTED_AT={:.1}s (unreclaimed-memory cap reached)",
                at.as_secs_f64()
            ),
            None => String::new(),
        }
    );
    for sample in &result.samples {
        println!(
            "{:>7.2} {:>10.4} {:>10}",
            sample.at.as_secs_f64(),
            sample.ops_per_sec / 1.0e6,
            sample.in_limbo
        );
    }
}

/// Formats the telemetry percentile lines for one run: one row per histogram
/// (guard-bracket op latency, scan duration, retire→free delay) with the
/// p50/p90/p99/p99.9 quadruple, skipping histograms that recorded nothing
/// (all three without telemetry; the delay histogram of a leaky run).
pub fn telemetry_rows(result: &RunResult) -> Vec<String> {
    let summary = &result.telemetry;
    let mut rows = Vec::new();
    for (label, unit, hist) in [
        ("op-latency", "ns", &summary.op_latency_ns),
        ("scan-duration", "ns", &summary.scan_ns),
        ("retire->free", "us", &summary.reclaim_delay_us),
    ] {
        if hist.is_empty() {
            continue;
        }
        let (p50, p90, p99, p999) = hist.quantiles();
        rows.push(format!(
            "{:<12} {:<14} p50 {p50:>10} {unit}  p90 {p90:>10} {unit}  p99 {p99:>10} {unit}  p99.9 {p999:>10} {unit}  (n={})",
            result.scheme,
            label,
            hist.count(),
        ));
    }
    rows
}

/// Formats the scan-dispatch class counters (how often a reclamation pass
/// freed a whole batch wholesale, skipped it unexamined, or walked it
/// node-by-node) — the per-scheme generalization of HE's fast/slow-path
/// diagnostics — plus the registry's shard-dispatch counters (vacant shards
/// skipped in one bitmap probe vs. shards actually walked slot-by-slot).
pub fn dispatch_row(result: &RunResult) -> String {
    format!(
        "{:<12} scan-dispatch  wholesale: {:>8}  skips: {:>8}  walks: {:>8}  shard-skips: {:>8}  shard-walks: {:>8}",
        result.scheme,
        result.stats.scan_wholesale,
        result.stats.scan_skips,
        result.stats.scan_walks,
        result.stats.shard_skips,
        result.stats.shard_walks,
    )
}

/// Formats the limbo-budget verdict line. Printed by the CLI whenever a
/// `--limbo-budget` is set.
pub fn budget_row(result: &RunResult) -> String {
    let stats = &result.stats;
    format!(
        "{:<12} budget {:>10} B  peak: {:>10} B  over-budget: {:>8.3}s  forced-scans: {}  pacer-boosts: {}  fallback-trips: {}  backpressure: {}",
        result.scheme,
        stats.budget_bytes,
        stats.peak_limbo_bytes,
        stats.time_over_budget.as_secs_f64(),
        stats.forced_scans,
        stats.pacer_boosts,
        stats.fallback_trips,
        stats.backpressure_events,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use reclaim_core::stats::StatsSnapshot;
    use std::time::Duration;

    fn result(scheme: &str, mops: f64) -> RunResult {
        RunResult {
            scheme: scheme.to_string(),
            structure: "linked-list".to_string(),
            threads: 4,
            total_ops: (mops * 1.0e6) as u64,
            elapsed: Duration::from_secs(1),
            samples: Vec::new(),
            stats: StatsSnapshot::default(),
            telemetry: Default::default(),
            aborted_at: None,
        }
    }

    #[test]
    fn mops_and_rows_format() {
        let run = result("qsense", 2.5);
        assert!((run.mops() - 2.5).abs() < 1e-9);
        let row = throughput_row(&run, Some(50.0));
        assert!(row.contains("qsense"));
        assert!(row.contains("50.0%"), "row = {row}");
        let row_no_base = throughput_row(&run, None);
        assert!(row_no_base.contains('-'));
    }

    #[test]
    fn telemetry_rows_print_percentiles_and_skip_empty_histograms() {
        let mut run = result("qsense", 1.0);
        assert!(telemetry_rows(&run).is_empty(), "no telemetry, no rows");
        run.telemetry = reclaim_core::TelemetrySummary {
            op_latency_ns: {
                let hist = reclaim_core::LogHistogram::new();
                hist.record(0, 100);
                hist.record(0, 3_000);
                hist.snapshot()
            },
            ..Default::default()
        };
        let rows = telemetry_rows(&run);
        assert_eq!(rows.len(), 1, "empty histograms are skipped: {rows:?}");
        assert!(rows[0].contains("op-latency"), "row = {}", rows[0]);
        assert!(rows[0].contains("p99.9"), "row = {}", rows[0]);
        assert!(rows[0].contains("(n=2)"), "row = {}", rows[0]);
    }

    #[test]
    fn dispatch_and_budget_rows_format() {
        let mut run = result("he", 1.0);
        run.stats.scan_wholesale = 7;
        run.stats.scan_skips = 3;
        run.stats.scan_walks = 1;
        run.stats.shard_skips = 31;
        run.stats.shard_walks = 2;
        let row = dispatch_row(&run);
        assert!(row.contains("wholesale:"), "row = {row}");
        assert!(row.contains('7') && row.contains('3'), "row = {row}");
        assert!(row.contains("shard-skips:"), "row = {row}");
        assert!(row.contains("31"), "row = {row}");
        run.stats = StatsSnapshot {
            budget_bytes: 4096,
            peak_limbo_bytes: 8192,
            time_over_budget: Duration::from_millis(250),
            forced_scans: 2,
            pacer_boosts: 1,
            backpressure_events: 1,
            ..run.stats
        };
        let row = budget_row(&run);
        assert!(row.contains("4096"), "row = {row}");
        assert!(row.contains("forced-scans: 2"), "row = {row}");
        assert!(row.contains("0.250"), "row = {row}");
    }
}
