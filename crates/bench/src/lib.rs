//! # bench — shared plumbing for the figure-reproduction benchmarks
//!
//! Each benchmark target under `benches/` regenerates one figure or in-text claim of
//! the paper's evaluation (§7.3; each target's header names its figure). This library
//! holds the pieces the targets share: environment-variable configuration, the thread
//! sweep and the series runner.
//!
//! ## Environment knobs
//!
//! | variable | default | meaning |
//! |----------|---------|---------|
//! | `QSENSE_BENCH_SECONDS` | `0.3` | measured seconds per data point |
//! | `BENCH_POINT_SECONDS` | — | alias for `QSENSE_BENCH_SECONDS` (lower precedence); used by the CI bench-smoke job |
//! | `QSENSE_BENCH_THREADS` | `1,2,4,8` | thread counts for the scalability sweeps |
//! | `QSENSE_BENCH_DELAY_SECONDS` | `8` | run length of each delay-timeline series |
//! | `QSENSE_BENCH_FULL` | unset | set to `1` to use the paper's full parameters (32 threads, 100 s timelines, 2 000 000-key BST) |
//!
//! The container this reproduction runs in has a single CPU, so the default sweep is
//! short; the shapes (scheme ordering and ratios) are what compares against the
//! paper, not absolute Mops/s.

#![warn(missing_docs)]

pub mod json;

use std::time::Duration;
use workload::{
    default_bench_config, make_set, report, run_experiment, DelaySchedule, Experiment, RunResult,
    SchemeKind, Structure, WorkloadSpec,
};

/// Seconds of measurement per data point. `QSENSE_BENCH_SECONDS` wins;
/// `BENCH_POINT_SECONDS` is the alias the CI bench-smoke job sets.
pub fn point_seconds() -> f64 {
    std::env::var("QSENSE_BENCH_SECONDS")
        .or_else(|_| std::env::var("BENCH_POINT_SECONDS"))
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.3)
}

/// Whether the full paper-scale parameters were requested.
pub fn full_scale() -> bool {
    std::env::var("QSENSE_BENCH_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Thread counts for the scalability sweeps.
pub fn thread_counts() -> Vec<usize> {
    if let Ok(raw) = std::env::var("QSENSE_BENCH_THREADS") {
        let parsed: Vec<usize> = raw
            .split(',')
            .filter_map(|part| part.trim().parse().ok())
            .filter(|&n| n > 0)
            .collect();
        if !parsed.is_empty() {
            return parsed;
        }
    }
    if full_scale() {
        vec![1, 2, 4, 8, 16, 24, 32]
    } else {
        vec![1, 2, 4, 8]
    }
}

/// Run length of each delay-timeline series.
pub fn delay_run_seconds() -> f64 {
    std::env::var("QSENSE_BENCH_DELAY_SECONDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if full_scale() { 100.0 } else { 8.0 })
}

/// The key range used for `structure` in this invocation.
pub fn key_range(structure: Structure) -> u64 {
    if full_scale() {
        structure.paper_key_range()
    } else {
        structure.default_key_range()
    }
}

/// The `fence_strategy` metadata value of the reports whose HP numbers depend
/// on it: the protocol `Hazard::new` detected on this machine, as a JSON string.
pub fn fence_strategy_json() -> String {
    format!("\"{}\"", reclaim_core::FenceStrategy::detect().name())
}

/// Runs one (structure, scheme, threads) cell of a scalability experiment.
pub fn run_point(
    structure: Structure,
    scheme: SchemeKind,
    threads: usize,
    spec: WorkloadSpec,
) -> RunResult {
    let set = make_set(structure, scheme, default_bench_config(threads + 2));
    let experiment = Experiment {
        set,
        spec,
        threads,
        duration: Duration::from_secs_f64(point_seconds()),
        delay: None,
        sample_interval: None,
        limbo_cap: None,
    };
    run_experiment(&experiment)
}

/// Runs a whole scheme series over the configured thread sweep.
pub fn run_series(structure: Structure, scheme: SchemeKind, spec: WorkloadSpec) -> Vec<RunResult> {
    thread_counts()
        .into_iter()
        .map(|threads| run_point(structure, scheme, threads, spec))
        .collect()
}

/// Runs one delay-timeline series (Figure 5, bottom row): fixed thread count, one
/// thread periodically delayed, throughput sampled over time. QSBR runs get an
/// unreclaimed-memory cap so that "runs out of memory and eventually fails" shows up
/// as an abort marker instead of taking the harness down.
pub fn run_delay_timeline(structure: Structure, scheme: SchemeKind, threads: usize) -> RunResult {
    let spec = WorkloadSpec::new(key_range(structure), workload::OpMix::updates_50());
    let run_secs = delay_run_seconds();
    // The paper delays one process for 10 s out of every 20 s of a 100 s run; the
    // schedule is scaled so the same number of fallback/recovery episodes fit the
    // configured run length.
    let scale = run_secs / 100.0;
    let set = make_set(structure, scheme, default_bench_config(threads + 2));
    let experiment = Experiment {
        set,
        spec,
        threads,
        duration: Duration::from_secs_f64(run_secs),
        delay: Some(DelaySchedule::paper_scaled(scale)),
        sample_interval: Some(Duration::from_secs_f64((run_secs / 40.0).max(0.1))),
        limbo_cap: match scheme {
            // The paper's QSBR series dies when the machine runs out of memory; the
            // cap reproduces that outcome at container scale (the timeline also
            // prints the monotonically growing in-limbo counts that precede it).
            SchemeKind::Qsbr | SchemeKind::None => {
                Some(if full_scale() { 2_000_000 } else { 300_000 })
            }
            _ => None,
        },
    };
    run_experiment(&experiment)
}

/// Emits one scalability report (`file_name` in the workspace root) from a set
/// of per-scheme series: one row per `(scheme, threads)` point with throughput,
/// overhead vs. the `"none"` series (when present) and the end-of-run in-limbo
/// count. This is the JSON twin of `report::print_series`, shared by the fig3
/// and fig5 benches so their emitters stay in lockstep with
/// `BENCH_overhead.json`'s envelope.
pub fn write_series_json(
    file_name: &str,
    bench_name: &str,
    command: &str,
    structure: Structure,
    series: &[(&str, Vec<RunResult>)],
) {
    let baseline = series
        .iter()
        .find(|(name, _)| *name == "none")
        .map(|(_, runs)| runs.as_slice());
    let mut rows = Vec::new();
    for (name, runs) in series {
        for run in runs {
            let overhead = baseline
                .and_then(|base| base.iter().find(|b| b.threads == run.threads))
                .map(RunResult::mops)
                .filter(|base_mops| *base_mops > 0.0 && *name != "none")
                .map(|base_mops| (1.0 - run.mops() / base_mops) * 100.0);
            rows.push(
                json::JsonObject::new()
                    .str_field("scheme", name)
                    .str_field("structure", &run.structure)
                    .int_field("threads", run.threads as u64)
                    .num_field("mops_per_sec", run.mops(), 4)
                    .opt_num_field("overhead_vs_none_pct", overhead, 1)
                    .int_field("in_limbo_at_end", run.stats.in_limbo()),
            );
        }
    }
    let threads_list = thread_counts()
        .iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let meta = [
        ("point_seconds", format!("{}", point_seconds())),
        ("threads", format!("[{threads_list}]")),
        ("structure", format!("\"{}\"", structure.name())),
        ("fence_strategy", fence_strategy_json()),
        ("unit", "\"million operations per second\"".to_string()),
    ];
    let path = json::workspace_file(file_name);
    match json::write_report(&path, bench_name, command, &meta, &rows) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write {}: {err}", path.display()),
    }
}

/// Runs a whole scalability comparison — a baseline-first scheme list over the
/// configured thread sweep — printing each series as it lands and emitting the
/// JSON report at the end. This is the entire body the fig3/fig5 benches share;
/// `schemes[0]` must be the leaky baseline.
pub fn run_and_emit_series(
    structure: Structure,
    schemes: &[SchemeKind],
    spec: WorkloadSpec,
    file_name: &str,
    bench_name: &str,
    command: &str,
) {
    assert_eq!(
        schemes[0],
        SchemeKind::None,
        "the first scheme is the baseline"
    );
    let baseline = run_series(structure, schemes[0], spec);
    report::print_series("none (leaky baseline)", &baseline, None);
    let mut series = vec![(schemes[0].name(), baseline)];
    for scheme in &schemes[1..] {
        let runs = run_series(structure, *scheme, spec);
        report::print_series(scheme.name(), &runs, Some(&series[0].1));
        series.push((scheme.name(), runs));
    }
    write_series_json(file_name, bench_name, command, structure, &series);
}

/// The schemes compared in Figure 3 (the paper's None, QSense, HP — plus the
/// Hazard-Eras extension, which the matrix tracks everywhere the HP family
/// appears).
pub fn fig3_schemes() -> [SchemeKind; 4] {
    [
        SchemeKind::None,
        SchemeKind::QSense,
        SchemeKind::Hp,
        SchemeKind::He,
    ]
}

/// The schemes compared in the Figure 5 scalability row (the paper's None,
/// QSBR, QSense, HP — plus Hazard Eras).
pub fn fig5_schemes() -> [SchemeKind; 5] {
    [
        SchemeKind::None,
        SchemeKind::Qsbr,
        SchemeKind::QSense,
        SchemeKind::Hp,
        SchemeKind::He,
    ]
}

/// The schemes compared in the Figure 5 delay row (the paper's QSBR, QSense,
/// HP — plus Hazard Eras, whose bounded-garbage behaviour under a stalled
/// thread is exactly what this row probes).
pub fn delay_schemes() -> [SchemeKind; 4] {
    [
        SchemeKind::Qsbr,
        SchemeKind::QSense,
        SchemeKind::Hp,
        SchemeKind::He,
    ]
}

/// Emits one delay-timeline report (`file_name` in the workspace root): one row
/// per scheme with throughput, path switches, the end-of-run in-limbo count,
/// the limbo tail's peak across the sampled series, and — for the schemes that
/// hit the unreclaimed-memory cap, as the paper's QSBR does — the abort time.
/// Shares the `bench::json` envelope with every other `BENCH_*.json`.
pub fn write_delay_json(
    file_name: &str,
    bench_name: &str,
    command: &str,
    structure: Structure,
    threads: usize,
    results: &[RunResult],
) {
    let rows: Vec<json::JsonObject> = results
        .iter()
        .map(|run| {
            let peak_limbo = run.samples.iter().map(|s| s.in_limbo).max().unwrap_or(0);
            json::JsonObject::new()
                .str_field("scheme", &run.scheme)
                .str_field("structure", &run.structure)
                .int_field("threads", run.threads as u64)
                .num_field("mops_per_sec", run.mops(), 4)
                .int_field("fallback_switches", run.stats.fallback_switches)
                .int_field("fast_path_switches", run.stats.fast_path_switches)
                .int_field("in_limbo_at_end", run.stats.in_limbo())
                .int_field("peak_in_limbo", peak_limbo)
                .opt_num_field(
                    "aborted_at_secs",
                    run.aborted_at.map(|at| at.as_secs_f64()),
                    3,
                )
        })
        .collect();
    let meta = [
        ("run_seconds", format!("{}", delay_run_seconds())),
        ("threads", format!("{threads}")),
        ("structure", format!("\"{}\"", structure.name())),
        (
            "delay",
            "\"one thread delayed half of every cycle (paper-scaled)\"".to_string(),
        ),
    ];
    let path = json::workspace_file(file_name);
    match json::write_report(&path, bench_name, command, &meta, &rows) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write {}: {err}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_have_sane_defaults() {
        assert!(point_seconds() > 0.0);
        assert!(!thread_counts().is_empty());
        assert!(delay_run_seconds() > 0.0);
        assert!(key_range(Structure::List) >= 2_000);
    }

    #[test]
    fn a_minimal_point_runs_end_to_end() {
        std::env::set_var("QSENSE_BENCH_SECONDS", "0.05");
        let spec = WorkloadSpec::new(128, workload::OpMix::updates_50());
        let result = run_point(Structure::List, SchemeKind::QSense, 2, spec);
        assert!(result.total_ops > 0);
        assert_eq!(result.scheme, "qsense");
        std::env::remove_var("QSENSE_BENCH_SECONDS");
    }
}
