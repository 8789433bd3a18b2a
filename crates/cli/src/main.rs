//! `qsense-bench`: run any cell of the QSense evaluation matrix from the command
//! line.
//!
//! The figure-reproduction benches in `crates/bench` regenerate the paper's plots
//! with fixed parameters; this binary is the free-form counterpart a user points at
//! their own workload: pick a structure, a scheme (or a set of schemes to compare),
//! an operation mix, thread count and duration, optionally inject the paper's
//! periodic delay, and read back throughput, reclamation counters and — because the
//! binary installs a counting allocator — the actual heap footprint.
//!
//! Examples:
//!
//! ```text
//! qsense-bench --structure list --scheme paper --threads 8 --duration 2
//! qsense-bench --structure hashmap --scheme all --updates 10
//! qsense-bench --scheme qsense --delay --timeline --duration 10
//! qsense-bench --scheme qsense --delay --eviction-ms 200
//! qsense-bench --scheme all --fault all --limbo-budget 256k
//! ```

mod args;

use args::{CliOptions, SchemeSelection, USAGE};
use bench::json::{write_report, JsonObject};
use reclaim_core::CountingAllocator;
use std::sync::Arc;
use std::time::Duration;
use workload::{
    default_fault_config, make_set, report, run_experiment, run_fault_for, run_server_soak_with,
    DelaySchedule, Experiment, FaultPlan, RunResult, SchemeKind, ServerSoakSpec, WorkloadSpec,
};

/// Heap tracking for the whole process: the experiments below report live/peak
/// bytes, which is how the paper's "QSBR runs out of memory" failure manifests to
/// the operating system.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn build_config(options: &CliOptions) -> reclaim_core::SmrConfig {
    let mut config = workload::default_bench_config(options.threads + 2);
    if let Some(q) = options.quiescence {
        config = config.with_quiescence_threshold(q);
    }
    if let Some(r) = options.scan {
        config = config.with_scan_threshold(r);
    }
    if let Some(c) = options.fallback {
        config = config.with_fallback_threshold(c);
    }
    if let Some(t) = options.rooster_ms {
        config = config.with_rooster_interval(Duration::from_millis(t));
    }
    if let Some(ms) = options.eviction_ms {
        config = config.with_eviction_timeout(Some(Duration::from_millis(ms)));
    }
    if let Some(policy) = options.era_policy {
        config = config.with_era_policy(policy);
    }
    if options.telemetry {
        config = config.with_telemetry(true);
    }
    config.with_limbo_budget(options.limbo_budget)
}

/// The fault matrix's reclamation configuration: the shared fault defaults,
/// with the same CLI overrides the throughput path honours.
fn build_fault_config(options: &CliOptions) -> reclaim_core::SmrConfig {
    let mut config = default_fault_config(options.limbo_budget);
    if let Some(q) = options.quiescence {
        config = config.with_quiescence_threshold(q);
    }
    if let Some(r) = options.scan {
        config = config.with_scan_threshold(r);
    }
    if let Some(c) = options.fallback {
        config = config.with_fallback_threshold(c);
    }
    if let Some(t) = options.rooster_ms {
        config = config.with_rooster_interval(Duration::from_millis(t));
    }
    if let Some(ms) = options.eviction_ms {
        config = config.with_eviction_timeout(Some(Duration::from_millis(ms)));
    }
    if let Some(policy) = options.era_policy {
        config = config.with_era_policy(policy);
    }
    config
}

/// Runs the scheme × fault matrix and prints one verdict row per cell.
fn run_fault_matrix(options: &CliOptions, faults: &[workload::FaultKind]) {
    println!(
        "{:<8} {:<15} {:>12} {:>12} {:>10} {:>12} {:>8}",
        "scheme", "fault", "peak KiB", "end nodes", "esc.", "over (ms)", "bounded"
    );
    for scheme in options.schemes.schemes() {
        for &fault in faults {
            let plan = FaultPlan::new(fault);
            let result = run_fault_for(scheme, build_fault_config(options), &plan);
            let verdict = result.verdict;
            println!(
                "{:<8} {:<15} {:>12.1} {:>12} {:>10} {:>12.2} {:>8}",
                result.scheme,
                fault.name(),
                result.peak_limbo_bytes as f64 / 1024.0,
                result.end_limbo,
                verdict.escalations(),
                verdict.time_over_budget.as_secs_f64() * 1e3,
                if options.limbo_budget.is_none() {
                    "n/a"
                } else if verdict.within_budget() {
                    "yes"
                } else {
                    "no"
                },
            );
        }
    }
}

/// One JSON row of the `--telemetry=<path>` report: the percentile quadruples
/// of all three histograms plus the scan-dispatch class counters, flat so the
/// shared `BENCH_*.json` scanner can parse it (keyed by `"scheme"`).
fn telemetry_json_row(result: &RunResult) -> JsonObject {
    let summary = result.telemetry;
    let (op50, op90, op99, op999) = summary.op_latency_ns.quantiles();
    let (sc50, sc90, sc99, sc999) = summary.scan_ns.quantiles();
    let (rd50, rd90, rd99, rd999) = summary.reclaim_delay_us.quantiles();
    JsonObject::new()
        .str_field("scheme", &result.scheme)
        .str_field("structure", &result.structure)
        .int_field("threads", result.threads as u64)
        .int_field("op_latency_p50_ns", op50)
        .int_field("op_latency_p90_ns", op90)
        .int_field("op_latency_p99_ns", op99)
        .int_field("op_latency_p999_ns", op999)
        .int_field("op_latency_count", summary.op_latency_ns.count())
        .int_field("scan_p50_ns", sc50)
        .int_field("scan_p90_ns", sc90)
        .int_field("scan_p99_ns", sc99)
        .int_field("scan_p999_ns", sc999)
        .int_field("scan_count", summary.scan_ns.count())
        .int_field("reclaim_delay_p50_us", rd50)
        .int_field("reclaim_delay_p90_us", rd90)
        .int_field("reclaim_delay_p99_us", rd99)
        .int_field("reclaim_delay_p999_us", rd999)
        .int_field("reclaim_delay_count", summary.reclaim_delay_us.count())
        .int_field("scan_wholesale", result.stats.scan_wholesale)
        .int_field("scan_skips", result.stats.scan_skips)
        .int_field("scan_walks", result.stats.scan_walks)
        .int_field("shard_skips", result.stats.shard_skips)
        .int_field("shard_walks", result.stats.shard_walks)
}

/// Runs the M:N lease scenario for every selected scheme and prints one row
/// per scheme: throughput, session-latency percentiles, lease contention, and
/// the registry's shard-dispatch counters (the sharded registry's proof that
/// scan cost tracks *occupied shards*, not capacity).
fn run_server_soak_matrix(options: &CliOptions, sessions: usize) {
    println!(
        "{:<8} {:>9} {:>6} {:>7} {:>10} {:>11} {:>10} {:>10} {:>10} {:>11} {:>12} {:>12}",
        "scheme",
        "sessions",
        "slots",
        "workers",
        "Mops/s",
        "sessions/s",
        "p50 (us)",
        "p99 (us)",
        "p99.9 (us)",
        "waits",
        "peak-limbo B",
        "skips/walks"
    );
    for scheme in options.schemes.schemes() {
        let spec = ServerSoakSpec {
            sessions,
            workers: options.threads,
            slots: options.soak_slots,
            ops_per_session: options.soak_ops,
            key_range: options.effective_key_range(),
            // Keep the registry much larger than the pool: the whole point of
            // the sharded dispatch is that the capacity is cheap.
            max_threads: (options.soak_slots + 2).max(64),
            ..ServerSoakSpec::new(scheme)
        };
        let result = run_server_soak_with(&spec, build_config(options));
        println!(
            "{:<8} {:>9} {:>6} {:>7} {:>10.3} {:>11.0} {:>10.1} {:>10.1} {:>10.1} {:>11} {:>12} {:>7}/{}",
            result.scheme,
            result.sessions,
            result.slots,
            result.workers,
            result.mops(),
            result.sessions_per_sec(),
            result.session_percentile_us(0.50),
            result.session_percentile_us(0.99),
            result.session_percentile_us(0.999),
            result.lease_waits,
            result.stats.peak_limbo_bytes,
            result.stats.shard_skips,
            result.stats.shard_walks,
        );
    }
}

fn run_one(options: &CliOptions, scheme: SchemeKind) -> RunResult {
    let spec = WorkloadSpec::new(options.effective_key_range(), options.op_mix());
    let set = make_set(options.structure, scheme, build_config(options));
    let run_secs = options.duration.as_secs_f64();
    run_experiment(&Experiment {
        set: Arc::clone(&set),
        spec,
        threads: options.threads,
        duration: options.duration,
        delay: options
            .inject_delay
            .then(|| DelaySchedule::paper_scaled(run_secs / 100.0)),
        sample_interval: options
            .timeline
            .then(|| Duration::from_secs_f64((run_secs / 40.0).max(0.05))),
        limbo_cap: None,
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let options = match CliOptions::parse(raw.iter().map(String::as_str)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    if options.help {
        print!("{USAGE}");
        return;
    }

    if let Some(sessions) = options.server_soak {
        println!(
            "qsense-bench: server soak, {:?}, {} sessions over {} leased slots, {} workers, {} ops/session",
            options.schemes, sessions, options.soak_slots, options.threads, options.soak_ops,
        );
        run_server_soak_matrix(&options, sessions);
        return;
    }

    if let Some(selection) = options.fault {
        println!(
            "qsense-bench: fault matrix, {:?}, budget {}",
            options.schemes,
            options
                .limbo_budget
                .map(|b| format!("{:.0} KiB", b as f64 / 1024.0))
                .unwrap_or_else(|| "none (tracking only)".to_string()),
        );
        run_fault_matrix(&options, &selection.faults());
        return;
    }

    let mix = options.op_mix();
    println!(
        "qsense-bench: {} / {:?}, {} threads, {:.1}s, {}% reads / {}% inserts / {}% deletes, key range {}{}{}{}",
        options.structure.name(),
        options.schemes,
        options.threads,
        options.duration.as_secs_f64(),
        mix.read_pct,
        mix.insert_pct,
        mix.delete_pct,
        options.effective_key_range(),
        if options.inject_delay { ", periodic delay injected" } else { "" },
        if options.eviction_ms.is_some() { ", eviction extension on" } else { "" },
        match options.era_policy {
            Some(reclaim_core::EraAdvancePolicy::Static(_)) => ", era policy: static",
            Some(reclaim_core::EraAdvancePolicy::Adaptive { .. }) => ", era policy: adaptive",
            None => "",
        },
    );

    let schemes = options.schemes.schemes();
    let mut baseline_mops = None;
    let mut telemetry_rows_json = Vec::new();
    for scheme in schemes {
        let allocated_before = ALLOC.allocated_bytes();
        let result = run_one(&options, scheme);
        let allocated_during = ALLOC.allocated_bytes() - allocated_before;
        if options.timeline {
            report::print_timeline(&result);
        }
        println!("{}", report::throughput_row(&result, baseline_mops));
        println!(
            "{:<12} heap: {:.2} MiB allocated during the run, {:.2} MiB process peak; scans = {}, quiescent states = {}, switches = {}/{}",
            "",
            allocated_during as f64 / (1024.0 * 1024.0),
            ALLOC.peak_bytes() as f64 / (1024.0 * 1024.0),
            result.stats.scans,
            result.stats.quiescent_states,
            result.stats.fallback_switches,
            result.stats.fast_path_switches,
        );
        if options.limbo_budget.is_some() {
            println!("{}", report::budget_row(&result));
        }
        if options.telemetry {
            for row in report::telemetry_rows(&result) {
                println!("{row}");
            }
            println!("{}", report::dispatch_row(&result));
            telemetry_rows_json.push(telemetry_json_row(&result));
        }
        if matches!(
            options.schemes,
            SchemeSelection::Paper | SchemeSelection::All
        ) && scheme == SchemeKind::None
        {
            baseline_mops = Some(result.mops());
        }
    }

    if let Some(path) = &options.telemetry_json {
        let command = format!("qsense-bench {}", raw.join(" "));
        let meta = [(
            "units",
            "\"latency percentiles are log2-bucket upper bounds (<= 2x): \
             op/scan in nanoseconds, retire->free delay in microseconds\""
                .to_string(),
        )];
        let path = std::path::Path::new(path);
        match write_report(path, "cli_telemetry", &command, &meta, &telemetry_rows_json) {
            Ok(()) => println!("telemetry report written to {}", path.display()),
            Err(error) => {
                eprintln!("error: failed to write {}: {error}", path.display());
                std::process::exit(1);
            }
        }
    }
}
