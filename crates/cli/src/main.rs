//! `qsense-bench`: the measurement front end of the root workspace.
//!
//! One invocation runs one cell of the QSense evaluation matrix — pick a
//! structure, a scheme (or a list of schemes to compare), an operation mix,
//! thread count and duration, optionally inject the paper's periodic delay — and
//! reads back throughput, reclamation counters and, because the binary installs
//! a counting allocator, the actual heap footprint. A paper figure or an
//! ablation is a sweep of such cells, kept as one row of the table in
//! [`figures`]; `--figure` runs rows, `--json` records what was measured together
//! with the machine it was measured on. (Per-layer costs — a bare `protect`, a
//! retire cycle — are `benchmark/ --trace 1`'s isolation pass, not cells.)
//!
//! Examples:
//!
//! ```text
//! qsense-bench --structure list --scheme paper --threads 8 --duration 2
//! qsense-bench --structure hashmap --scheme none,he,hp --updates 10
//! qsense-bench --scheme qsbr,qsense --delay --timeline --duration 10
//! qsense-bench --scheme qsense --delay --eviction-ms 200
//! qsense-bench --scheme all --fault all --limbo-budget 256k
//! qsense-bench --figure fig3 --json BENCH_fig3_list.json
//! qsense-bench --figure all --duration 0.05
//! ```

mod args;
mod figures;

use args::{cell_args, CliOptions, USAGE};
use reclaim_core::SmrConfig;
use std::sync::Arc;
use std::time::Duration;
use workload::json::{self, JsonObject};
use workload::{
    default_bench_config, default_fault_config, make_set, report, run_experiment, run_fault_for,
    run_server_soak_with, CountingAllocator, DelaySchedule, Experiment, FaultKind, FaultPlan,
    RunResult, SchemeKind, ServerSoakSpec, WorkloadSpec,
};

/// Heap tracking for the whole process: the experiments below report live/peak
/// bytes, which is how the paper's "QSBR runs out of memory" failure manifests to
/// the operating system.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Unreclaimed nodes at which a `--delay --timeline` run of a scheme that
/// cannot reclaim past the delayed thread is stopped: the paper's QSBR series
/// dies when the machine runs out of memory, and the cap reproduces that outcome
/// as an abort marker at container scale.
const DELAY_LIMBO_CAP: u64 = 300_000;

/// A fault cell counts as bounded while its peak stays within this multiple of
/// the budget: enforcement engages only after the crossing, so an exact
/// `<= budget` would flag every enforcing scheme, while a scheme the fault
/// blocks grows with the total retired instead.
const BOUNDED_HEADROOM: u64 = 4;

/// `base` with the command line's overrides applied: the one place a flag
/// becomes a reclamation parameter, whichever experiment runs under it.
fn build_config(options: &CliOptions, base: SmrConfig) -> SmrConfig {
    let mut config = base;
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

/// Runs the scheme × fault matrix and prints one verdict row per cell.
fn run_fault_matrix(
    options: &CliOptions,
    faults: &[FaultKind],
    tag: &JsonObject,
    rows: &mut Vec<JsonObject>,
) {
    println!(
        "qsense-bench: fault matrix, {:?}, budget {}",
        options.schemes,
        options
            .limbo_budget
            .map(|b| format!(
                "{:.0} KiB (bounded = peak <= {BOUNDED_HEADROOM}x budget)",
                b as f64 / 1024.0
            ))
            .unwrap_or_else(|| "none (tracking only)".to_string()),
    );
    println!(
        "{:<8} {:<15} {:>12} {:>12} {:>12} {:>10} {:>12} {:>8}",
        "scheme", "fault", "peak KiB", "retired", "end nodes", "esc.", "over (ms)", "bounded"
    );
    for &scheme in &options.schemes {
        for &fault in faults {
            let config = build_config(options, default_fault_config(options.limbo_budget));
            let result = run_fault_for(scheme, config, &FaultPlan::new(fault));
            let verdict = result.verdict;
            let over_ms = verdict.time_over_budget.as_secs_f64() * 1e3;
            let bounded = match options.limbo_budget {
                None => "n/a",
                Some(budget) if result.peak_limbo_bytes <= BOUNDED_HEADROOM * budget as u64 => {
                    "yes"
                }
                Some(_) => "no",
            };
            println!(
                "{:<8} {:<15} {:>12.1} {:>12} {:>12} {:>10} {:>12.2} {:>8}",
                result.scheme,
                fault.name(),
                result.peak_limbo_bytes as f64 / 1024.0,
                result.total_retired,
                result.end_limbo,
                verdict.escalations(),
                over_ms,
                bounded,
            );
            rows.push(
                tag.clone()
                    .str_field("scheme", result.scheme)
                    .str_field("fault", fault.name())
                    .int_field("total_retired", result.total_retired)
                    .int_field("peak_limbo_bytes", result.peak_limbo_bytes)
                    .int_field("end_limbo_nodes", result.end_limbo)
                    .int_field("end_limbo_bytes", result.end_limbo_bytes)
                    .int_field("forced_scans", verdict.forced_scans)
                    .int_field("pacer_boosts", verdict.pacer_boosts)
                    .int_field("fallback_trips", verdict.fallback_trips)
                    .int_field("backpressure_events", verdict.backpressure_events)
                    .num_field("time_over_budget_ms", over_ms, 2)
                    .opt_num_field(
                        "peak_over_budget_ratio",
                        options
                            .limbo_budget
                            .map(|budget| result.peak_limbo_bytes as f64 / budget as f64),
                        3,
                    )
                    .str_field("bounded", bounded),
            );
        }
    }
}

/// Runs the M:N lease scenario for every selected scheme and prints one row
/// per scheme: throughput, session-latency percentiles, lease contention, and
/// the registry's shard-dispatch counters (the sharded registry's proof that
/// scan cost tracks *occupied shards*, not capacity).
fn run_server_soak_matrix(
    options: &CliOptions,
    sessions: usize,
    tag: &JsonObject,
    rows: &mut Vec<JsonObject>,
) {
    println!(
        "qsense-bench: server soak, {:?}, {} sessions over {} leased slots, {} workers, {} ops/session",
        options.schemes, sessions, options.soak_slots, options.threads, options.soak_ops,
    );
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
    for &scheme in &options.schemes {
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
        let config = build_config(options, default_bench_config(spec.max_threads));
        let result = run_server_soak_with(&spec, config);
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
        rows.push(
            tag.clone()
                .str_field("scheme", result.scheme)
                .int_field("sessions", result.sessions as u64)
                .int_field("workers", result.workers as u64)
                .bool_field("oversubscribed", result.workers > json::nproc())
                .int_field("slots", result.slots as u64)
                .int_field("ops_per_session", spec.ops_per_session as u64)
                .int_field("key_range", spec.key_range)
                .int_field("registry_capacity", spec.max_threads as u64)
                .int_field("total_ops", result.total_ops)
                .num_field("mops_per_sec", result.mops(), 4)
                .num_field("sessions_per_sec", result.sessions_per_sec(), 1)
                .num_field("session_p50_us", result.session_percentile_us(0.50), 1)
                .num_field("session_p99_us", result.session_percentile_us(0.99), 1)
                .num_field("session_p999_us", result.session_percentile_us(0.999), 1)
                .int_field("lease_waits", result.lease_waits)
                .int_field("peak_limbo_bytes", result.stats.peak_limbo_bytes)
                .int_field("retired", result.stats.retired)
                .int_field("freed", result.stats.freed)
                .int_field("shard_skips", result.stats.shard_skips)
                .int_field("shard_walks", result.stats.shard_walks),
        );
    }
}

fn run_one(options: &CliOptions, scheme: SchemeKind) -> RunResult {
    let spec = WorkloadSpec::new(options.effective_key_range(), options.op_mix());
    let config = build_config(options, default_bench_config(options.threads + 2));
    let set = make_set(options.structure, scheme, config);
    let run_secs = options.duration.as_secs_f64();
    let reclaims_past_a_delay = !matches!(scheme, SchemeKind::None | SchemeKind::Qsbr);
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
        limbo_cap: (options.inject_delay && options.timeline && !reclaims_past_a_delay)
            .then_some(DELAY_LIMBO_CAP),
    })
}

/// Throughput lost to reclamation, in percent of the leaky baseline's.
fn overhead_vs_none_pct(baseline_mops: Option<f64>, mops: f64) -> Option<f64> {
    baseline_mops
        .filter(|base| *base > 0.0)
        .map(|base| (1.0 - mops / base) * 100.0)
}

/// One JSON row of a throughput cell: what the text rows print, plus — under
/// `--telemetry` — the percentile quadruples of all three histograms
/// (log2-bucket upper bounds, so within 2x: op and scan in nanoseconds, the
/// retire-to-free delay in microseconds).
fn throughput_json_row(
    options: &CliOptions,
    result: &RunResult,
    overhead_pct: Option<f64>,
    tag: &JsonObject,
) -> JsonObject {
    let mix = options.op_mix();
    let mut row = tag
        .clone()
        .str_field("scheme", &result.scheme)
        .str_field("structure", &result.structure)
        .int_field("threads", result.threads as u64)
        .bool_field("oversubscribed", result.threads > json::nproc())
        .int_field("key_range", options.effective_key_range())
        .int_field("update_pct", u64::from(mix.update_pct()))
        .bool_field("delay", options.inject_delay)
        .num_field("duration_secs", result.elapsed.as_secs_f64(), 3)
        .num_field("mops_per_sec", result.mops(), 4)
        .opt_num_field("overhead_vs_none_pct", overhead_pct, 1)
        .int_field("in_limbo_at_end", result.stats.in_limbo())
        .int_field("peak_limbo_bytes", result.stats.peak_limbo_bytes)
        .int_field("scans", result.stats.scans)
        .int_field("freed", result.stats.freed)
        .int_field("quiescent_states", result.stats.quiescent_states)
        .int_field("fallback_switches", result.stats.fallback_switches)
        .int_field("fast_path_switches", result.stats.fast_path_switches);
    if options.timeline {
        let peak = result.samples.iter().map(|s| s.in_limbo).max().unwrap_or(0);
        row = row.int_field("peak_in_limbo", peak).opt_num_field(
            "aborted_at_secs",
            result.aborted_at.map(|at| at.as_secs_f64()),
            3,
        );
    }
    if options.telemetry {
        let summary = &result.telemetry;
        for (name, unit, hist) in [
            ("op_latency", "ns", &summary.op_latency_ns),
            ("scan", "ns", &summary.scan_ns),
            ("reclaim_delay", "us", &summary.reclaim_delay_us),
        ] {
            let (p50, p90, p99, p999) = hist.quantiles();
            row = row
                .int_field(&format!("{name}_p50_{unit}"), p50)
                .int_field(&format!("{name}_p90_{unit}"), p90)
                .int_field(&format!("{name}_p99_{unit}"), p99)
                .int_field(&format!("{name}_p999_{unit}"), p999)
                .int_field(&format!("{name}_count"), hist.count());
        }
        row = row
            .int_field("scan_wholesale", result.stats.scan_wholesale)
            .int_field("scan_skips", result.stats.scan_skips)
            .int_field("scan_walks", result.stats.scan_walks)
            .int_field("shard_skips", result.stats.shard_skips)
            .int_field("shard_walks", result.stats.shard_walks);
    }
    row
}

/// Runs the throughput experiment for every selected scheme.
fn run_throughput(options: &CliOptions, tag: &JsonObject, rows: &mut Vec<JsonObject>) {
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

    let mut baseline_mops = None;
    for &scheme in &options.schemes {
        let allocated_before = ALLOC.allocated_bytes();
        let result = run_one(options, scheme);
        let allocated_during = ALLOC.allocated_bytes() - allocated_before;
        if options.timeline {
            report::print_timeline(&result);
        }
        let overhead_pct = overhead_vs_none_pct(baseline_mops, result.mops());
        println!("{}", report::throughput_row(&result, overhead_pct));
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
        }
        rows.push(throughput_json_row(options, &result, overhead_pct, tag));
        if scheme == SchemeKind::None {
            baseline_mops = Some(result.mops());
        }
    }
}

/// Runs the one experiment `options` describes, appending its rows (each
/// starting with `tag`'s fields) to `rows`.
fn run_cell(options: &CliOptions, tag: &JsonObject, rows: &mut Vec<JsonObject>) {
    if let Some(sessions) = options.server_soak {
        run_server_soak_matrix(options, sessions, tag, rows);
    } else if let Some(faults) = &options.fault {
        run_fault_matrix(options, faults, tag, rows);
    } else {
        run_throughput(options, tag, rows);
    }
}

/// Everything one invocation measures: the single cell `options` describes,
/// or every cell of the figures it selects, each followed by `extra` (the
/// invocation's own cell arguments).
fn run(options: &CliOptions, extra: &[String]) -> Result<Vec<JsonObject>, String> {
    let mut rows = Vec::new();
    let Some(selection) = &options.figure else {
        let tag = JsonObject::new().str_field("cell", &extra.join(" "));
        run_cell(options, &tag, &mut rows);
        return Ok(rows);
    };
    for figure in figures::select(selection)? {
        println!("\n== {}: {} ==", figure.name, figure.about);
        for cell in figure.cells(extra) {
            let command = cell.join(" ");
            println!("$ qsense-bench {command}");
            let mut tag = JsonObject::new().str_field("figure", figure.name);
            if let Some((flag, _)) = figure.sweep {
                let value = cell.iter().skip_while(|arg| *arg != flag).nth(1);
                tag = tag
                    .str_field("parameter", flag)
                    .str_field("value", value.map_or("", String::as_str));
            }
            let tag = tag.str_field("cell", &command);
            run_cell(&CliOptions::parse(&cell)?, &tag, &mut rows);
        }
    }
    Ok(rows)
}

/// Bad input: one `error:` line, exit status 2.
fn usage_error(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let options = CliOptions::parse(&raw).unwrap_or_else(|message| usage_error(message));
    if options.help {
        print!("{USAGE}{}", figures::help());
        return;
    }
    let rows = run(&options, &cell_args(&raw)).unwrap_or_else(|message| usage_error(message));
    if let Some(path) = &options.json {
        let command = format!("qsense-bench {}", raw.join(" "));
        let path = std::path::Path::new(path);
        match json::write_report(path, &command, &json::capture_env(), &rows) {
            Ok(()) => println!("{} rows written to {}", rows.len(), path.display()),
            Err(error) => {
                eprintln!("error: failed to write {}: {error}", path.display());
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|arg| arg.to_string()).collect()
    }

    fn measure(args: &[&str]) -> Result<Vec<JsonObject>, String> {
        let raw = strings(args);
        run(&CliOptions::parse(&raw)?, &cell_args(&raw))
    }

    #[test]
    fn overhead_is_reported_only_against_a_leaky_run() {
        assert_eq!(overhead_vs_none_pct(None, 2.0), None);
        assert_eq!(overhead_vs_none_pct(Some(0.0), 2.0), None);
        assert_eq!(overhead_vs_none_pct(Some(4.0), 3.0), Some(25.0));
        let rows = measure(&[
            "--scheme",
            "qsbr,none,hp",
            "--threads",
            "1",
            "--duration",
            "0.05",
            "--key-range",
            "64",
        ])
        .unwrap();
        let rendered: Vec<String> = rows.iter().map(JsonObject::render).collect();
        assert!(
            rendered[0].contains("\"overhead_vs_none_pct\": null"),
            "qsbr ran before none"
        );
        assert!(
            rendered[1].contains("\"overhead_vs_none_pct\": null"),
            "none is the baseline"
        );
        assert!(
            !rendered[2].contains("\"overhead_vs_none_pct\": null"),
            "{}",
            rendered[2]
        );
        let rows = measure(&[
            "--scheme",
            "qsbr,hp",
            "--threads",
            "1",
            "--duration",
            "0.05",
            "--key-range",
            "64",
        ])
        .unwrap();
        assert!(rows
            .iter()
            .all(|row| row.render().contains("\"overhead_vs_none_pct\": null")));
    }

    /// Recursive-descent check that `text[at..]` starts with one JSON value;
    /// returns the offset just past it.
    fn json_value_end(text: &[u8], mut at: usize) -> Result<usize, String> {
        let skip_space = |mut at: usize| {
            while text.get(at).is_some_and(u8::is_ascii_whitespace) {
                at += 1;
            }
            at
        };
        at = skip_space(at);
        match text.get(at).copied() {
            Some(open @ (b'{' | b'[')) => {
                let close = if open == b'{' { b'}' } else { b']' };
                at = skip_space(at + 1);
                if text.get(at) == Some(&close) {
                    return Ok(at + 1);
                }
                loop {
                    if open == b'{' {
                        if text.get(skip_space(at)) != Some(&b'"') {
                            return Err(format!("expected a key at {at}"));
                        }
                        at = skip_space(json_value_end(text, at)?);
                        if text.get(at) != Some(&b':') {
                            return Err(format!("expected ':' at {at}"));
                        }
                        at += 1;
                    }
                    at = skip_space(json_value_end(text, at)?);
                    match text.get(at) {
                        Some(b',') => at += 1,
                        Some(c) if *c == close => return Ok(at + 1),
                        _ => return Err(format!("expected ',' or a close at {at}")),
                    }
                }
            }
            Some(b'"') => {
                at += 1;
                loop {
                    match text.get(at) {
                        Some(b'\\') => at += 2,
                        Some(b'"') => return Ok(at + 1),
                        Some(c) if *c >= 0x20 => at += 1,
                        _ => return Err(format!("bad string byte at {at}")),
                    }
                }
            }
            Some(_) => {
                let end = (at..text.len())
                    .find(|i| !matches!(text[*i], b'a'..=b'z' | b'0'..=b'9' | b'.' | b'-' | b'+' | b'E'))
                    .unwrap_or(text.len());
                let token = std::str::from_utf8(&text[at..end]).unwrap_or("");
                if matches!(token, "true" | "false" | "null") || token.parse::<f64>().is_ok() {
                    Ok(end)
                } else {
                    Err(format!("bad scalar '{token}' at {at}"))
                }
            }
            None => Err("unexpected end".to_string()),
        }
    }

    #[test]
    fn json_report_round_trips_with_the_environment_and_one_row_per_cell() {
        // A path that needs escaping, the way `--telemetry=<path>` never did.
        let path =
            std::env::temp_dir().join(format!("qsense-bench-\"{}\".json", std::process::id()));
        let raw = strings(&[
            "--scheme",
            "none,hp",
            "--threads",
            "2",
            "--duration",
            "0.05",
            "--key-range",
            "64",
            "--json",
            path.to_str().unwrap(),
        ]);
        let rows = run(&CliOptions::parse(&raw).unwrap(), &cell_args(&raw)).unwrap();
        assert_eq!(rows.len(), 2, "one row per (scheme, cell)");
        let command = format!("qsense-bench {}", raw.join(" "));
        json::write_report(&path, &command, &json::capture_env(), &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        let end = json_value_end(text.as_bytes(), 0).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(text[end..].trim(), "", "one value, nothing after it");
        assert!(
            json_value_end(b"{\"a\": \"b\"c\"}", 0).is_err(),
            "the checker checks"
        );
        assert!(text.contains("\"env\": {\"nproc\": "), "{text}");
        assert!(text.contains("\"fence_strategy\": \""), "{text}");
        assert_eq!(text.matches("\"oversubscribed\": ").count(), 2);
        assert_eq!(
            text.matches("\"cell\": \"--scheme none,hp --threads 2")
                .count(),
            2
        );
        assert_eq!(text.matches("\"scheme\": ").count(), 2);
        assert!(text.contains("\\\""), "the quoted path is escaped: {text}");
    }

    #[test]
    fn a_figure_tags_each_row_with_its_name_its_swept_value_and_its_cell() {
        let rows = measure(&[
            "--figure",
            "threshold-q",
            "--duration",
            "0.05",
            "--threads",
            "1",
            "--key-range",
            "64",
        ])
        .unwrap();
        assert_eq!(rows.len(), 5, "five values of Q, one scheme");
        let row = rows[1].render();
        assert!(
            row.starts_with(
                "{\"figure\": \"threshold-q\", \"parameter\": \"--quiescence\", \"value\": \"16\", \
                 \"cell\": \"--structure list --scheme qsense --threads 4 --duration 0.3 \
                 --quiescence 16 --duration 0.05 --threads 1 --key-range 64\", \"scheme\": \"qsense\""
            ),
            "{row}"
        );
        assert_eq!(
            measure(&["--figure", "fig9"]).unwrap_err().lines().next(),
            Some(
                "unknown figure 'fig9' (expected all or one of: fig3, fig5-scaling-list, \
                  fig5-scaling-skiplist, fig5-scaling-bst, fig5-delay-list, fig5-delay-skiplist, \
                  fig5-delay-bst, threshold-q, threshold-c, scan-threshold, rooster-interval, \
                  era-advance, telemetry-off, telemetry-on, robustness-matrix, server-soak)"
            )
        );
    }
}
