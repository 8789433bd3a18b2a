//! **Robustness matrix** — every scheme against every injected fault, under a
//! byte-accounted limbo budget, with the budget governor's verdict per cell.
//!
//! Run with a single command from the workspace root:
//!
//! ```text
//! cargo bench -p bench --bench robustness_matrix
//! ```
//!
//! Each cell runs the deterministic seeded fault scenario from
//! `workload::faults` (stalled reader, silent thread, leaked handle, random
//! delays) and records the peak in-limbo byte count plus the escalation
//! counters ([`reclaim_core::BudgetVerdict`]): forced scans, pacer boosts,
//! fallback trips, backpressure events, and total time spent over budget.
//!
//! The budget defaults to 128 KiB — two fault episodes' worth of retirements —
//! and can be overridden with `QSENSE_BENCH_LIMBO_BUDGET` (bytes). A cell is
//! reported *bounded* when its peak stays within `HEADROOM`× the budget: the
//! governor only escalates **after** the estimate crosses the budget, so an
//! enforcing scheme legitimately peaks slightly above it; what distinguishes a
//! robust scheme from QSBR/EBR under a stalled reader is staying within small
//! constant headroom rather than growing with the total retirement count.
//!
//! Besides the stdout table, the run emits **`BENCH_robustness_matrix.json`**
//! (path override: `QSENSE_BENCH_ROBUSTNESS_OUT`) so the robustness claims are
//! tracked across revisions; the CI `robustness-smoke` job uploads it and the
//! `tests/robustness_bounds.rs` suite turns the same cells into hard verdicts.

use bench::json::{self, JsonObject};
use workload::{default_fault_config, run_fault_for, FaultKind, FaultPlan, SchemeKind};

/// A cell counts as bounded while its peak stays within this multiple of the
/// budget (enforcement engages only after the crossing, so exact `<= budget`
/// would flag every enforcing scheme).
const HEADROOM: u64 = 4;

/// Default byte budget: two fault episodes' worth of payload bytes.
fn default_budget() -> usize {
    2 * FaultPlan::new(FaultKind::StalledReader).episode_bytes()
}

fn limbo_budget() -> usize {
    std::env::var("QSENSE_BENCH_LIMBO_BUDGET")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|b| *b > 0)
        .unwrap_or_else(default_budget)
}

fn main() {
    let budget = limbo_budget();
    println!(
        "Robustness matrix: {} schemes x {} faults, limbo budget {:.0} KiB (bounded = peak <= {HEADROOM}x budget)",
        SchemeKind::extended().len(),
        FaultKind::all().len(),
        budget as f64 / 1024.0
    );
    println!(
        "{:<8} {:<15} {:>12} {:>12} {:>10} {:>12} {:>8}",
        "scheme", "fault", "peak KiB", "retired", "esc.", "over (ms)", "bounded"
    );

    let mut rows = Vec::new();
    for scheme in SchemeKind::extended() {
        for fault in FaultKind::all() {
            let plan = FaultPlan::new(fault);
            let result = run_fault_for(scheme, default_fault_config(Some(budget)), &plan);
            let verdict = result.verdict;
            let bounded = result.peak_limbo_bytes <= HEADROOM * budget as u64;
            println!(
                "{:<8} {:<15} {:>12.1} {:>12} {:>10} {:>12.2} {:>8}",
                result.scheme,
                fault.name(),
                result.peak_limbo_bytes as f64 / 1024.0,
                result.total_retired,
                verdict.escalations(),
                verdict.time_over_budget.as_secs_f64() * 1e3,
                if bounded { "yes" } else { "no" },
            );
            rows.push(
                JsonObject::new()
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
                    .num_field(
                        "time_over_budget_ms",
                        verdict.time_over_budget.as_secs_f64() * 1e3,
                        2,
                    )
                    .num_field(
                        "peak_over_budget_ratio",
                        result.peak_limbo_bytes as f64 / budget as f64,
                        3,
                    )
                    .str_field("bounded", if bounded { "yes" } else { "no" }),
            );
        }
    }

    let plan = FaultPlan::new(FaultKind::StalledReader);
    let meta = [
        ("limbo_budget_bytes", format!("{budget}")),
        ("bounded_headroom", format!("{HEADROOM}")),
        ("payload_bytes", format!("{}", workload::PAYLOAD_BYTES)),
        ("episodes", format!("{}", plan.episodes)),
        ("burst", format!("{}", plan.burst)),
        ("seed", format!("{}", plan.seed)),
        (
            "unit",
            "\"bytes / counts per (scheme, fault) cell\"".to_string(),
        ),
    ];
    let path = std::env::var("QSENSE_BENCH_ROBUSTNESS_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| json::workspace_file("BENCH_robustness_matrix.json"));
    match json::write_report(
        &path,
        "robustness_matrix",
        "cargo bench -p bench --bench robustness_matrix",
        &meta,
        &rows,
    ) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write {}: {err}", path.display()),
    }
}
