//! **Ablation A1** (design choice of §5.1): the Cadence rooster sleep interval `T`.
//!
//! Deferred reclamation may only free nodes a rooster wake-up has covered since
//! their unlink, so a larger `T` trades a longer memory tail (more nodes parked in
//! limbo, waiting for the next tick) for fewer wake-ups. (Where the kernel has no
//! process-wide barrier Cadence runs reader-fenced and `T` does nothing: the
//! report's `fence_strategy` says which protocol the numbers are of.) This sweep runs the stand-alone Cadence scheme on the linked list with
//! several values of `T` and reports throughput and the retired-but-unreclaimed node
//! count at the end of the run.
//!
//! Besides the text table, the run emits **`BENCH_ablation_rooster.json`** in
//! the workspace root (shared `bench::json` envelope): one row per sweep point,
//! keyed by the swept parameter (`"T_ms"`) and its value.

use bench::json::{self, JsonObject};
use reclaim_core::FenceStrategy;
use std::sync::Arc;
use std::time::Duration;
use workload::{
    make_set, report, run_experiment, Experiment, OpMix, RunResult, SchemeKind, Structure,
    WorkloadSpec,
};

fn row(interval_ms: u64, result: &RunResult) -> JsonObject {
    JsonObject::new()
        .str_field("scheme", &result.scheme)
        .str_field("structure", &result.structure)
        .str_field("parameter", "T_ms")
        .int_field("value", interval_ms)
        .int_field("threads", result.threads as u64)
        .num_field("mops_per_sec", result.mops(), 4)
        .int_field("scans", result.stats.scans)
        .int_field("in_limbo_at_end", result.stats.in_limbo())
}

fn main() {
    let threads = 4;
    let spec = WorkloadSpec::new(Structure::List.default_key_range(), OpMix::updates_50());
    println!(
        "Ablation A1: Cadence rooster interval sweep, linked list, {threads} threads, 50% updates"
    );
    report::section("rooster interval T -> throughput / unreclaimed tail");
    let mut rows = Vec::new();
    for interval_ms in [1_u64, 5, 20, 50, 100] {
        let config = workload::default_bench_config(threads + 2)
            .with_rooster_interval(Duration::from_millis(interval_ms));
        let set = make_set(Structure::List, SchemeKind::Cadence, config);
        let experiment = Experiment {
            set: Arc::clone(&set),
            spec,
            threads,
            duration: Duration::from_secs_f64(bench::point_seconds()),
            delay: None,
            sample_interval: None,
            limbo_cap: None,
        };
        let result = run_experiment(&experiment);
        println!(
            "T = {:>4} ms   {:>9.3} Mops/s   in-limbo at end = {:>8}   scans = {}",
            interval_ms,
            result.mops(),
            result.stats.in_limbo(),
            result.stats.scans
        );
        rows.push(row(interval_ms, &result));
    }

    let meta = [
        ("point_seconds", format!("{}", bench::point_seconds())),
        ("threads", format!("{threads}")),
        ("structure", "\"linked-list\"".to_string()),
        (
            "fence_strategy",
            format!("\"{}\"", FenceStrategy::detect_rooster().name()),
        ),
        ("unit", "\"million operations per second\"".to_string()),
    ];
    let path = json::workspace_file("BENCH_ablation_rooster.json");
    match json::write_report(
        &path,
        "ablation_rooster_interval",
        "cargo bench -p bench --bench ablation_rooster_interval",
        &meta,
        &rows,
    ) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write {}: {err}", path.display()),
    }
}
