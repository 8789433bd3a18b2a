//! **Ablation A6**: the era-advance policy of the Hazard-Eras scheme.
//!
//! ROADMAP's long-standing open item: the static `era_advance_interval` trades
//! stalled-reader garbage (up to one interval's worth of allocations shares a
//! stalled reservation's era) against shared `fetch_add` traffic — and the
//! right constant depends on the workload. The adaptive policy
//! (`EraAdvancePolicy::Adaptive`, `reclaim_core::EraPacer`) replaces the
//! constant with an interval driven by the scheme-wide limbo bytes. This sweep
//! runs the `stall-churn` scenario (one reader repeatedly stalls mid-operation
//! while a writer burst-allocates and handle churn runs —
//! `workload::stall_churn`) over static intervals bracketing the default
//! against the adaptive policy, measuring the limbo the stalls pin and the
//! per-retire cost.
//!
//! Besides the text table, the run emits **`BENCH_ablation_era_advance.json`**
//! in the workspace root (shared `bench::json` envelope): one row per policy.

use bench::json::{self, JsonObject};
use bench::point_seconds;
use reclaim_core::{EraAdvancePolicy, SmrConfig};
use std::time::Instant;
use workload::{run_stall_churn, StallChurnSpec};

struct PolicyPoint {
    label: String,
    peak_limbo: u64,
    mean_limbo: f64,
    end_limbo: u64,
    total_retired: u64,
    eras_advanced: u64,
    ns_per_retire: f64,
}

fn label_for(policy: EraAdvancePolicy) -> String {
    match policy {
        EraAdvancePolicy::Static(interval) => format!("static:{interval}"),
        EraAdvancePolicy::Adaptive {
            min_interval,
            max_interval,
            limbo_low_water_bytes,
        } => format!("adaptive:{min_interval},{max_interval},{limbo_low_water_bytes}B"),
    }
}

fn run_policy(policy: EraAdvancePolicy, spec: &StallChurnSpec) -> PolicyPoint {
    let config = SmrConfig::default()
        .with_max_threads(4)
        .with_scan_threshold(128)
        .with_era_policy(policy);
    let scheme = he::He::new(config);
    let start_era = scheme.current_era();
    let start = Instant::now();
    let result = run_stall_churn(&scheme, spec);
    let elapsed = start.elapsed();
    PolicyPoint {
        label: label_for(policy),
        peak_limbo: result.peak_limbo(),
        mean_limbo: result.mean_limbo(),
        end_limbo: result.end_limbo,
        total_retired: result.total_retired,
        eras_advanced: scheme.current_era() - start_era,
        ns_per_retire: elapsed.as_nanos() as f64 / result.total_retired.max(1) as f64,
    }
}

fn main() {
    // The scenario is operation-count driven; scale the episode count with the
    // configured point budget so the CI smoke run stays short.
    let episodes = ((point_seconds() * 80.0) as usize).clamp(8, 96);
    let spec = StallChurnSpec {
        episodes,
        burst: 256,
        churn_every: 8,
    };
    println!(
        "Ablation A6: era-advance policy, stall-churn scenario, {episodes} episodes x {} retires",
        spec.burst
    );

    // Static intervals bracketing the default (64), plus the adaptive policy
    // spanning the same range.
    let policies = [
        EraAdvancePolicy::Static(8),
        EraAdvancePolicy::Static(64),
        EraAdvancePolicy::Static(512),
        // Low-water (64 of the scenario's 8-byte nodes) below the per-episode
        // pinned bytes, so the sweep shows the pacer holding the limbo near
        // the mark with a fraction of the era traffic the equivalent static
        // interval needs.
        EraAdvancePolicy::Adaptive {
            min_interval: 8,
            max_interval: 512,
            limbo_low_water_bytes: 64 * 8,
        },
    ];

    let mut rows = Vec::new();
    for policy in policies {
        let point = run_policy(policy, &spec);
        println!(
            "{:<22} peak limbo = {:>6}   mean = {:>8.1}   end = {:>4}   eras = {:>6}   retire = {:>7.1} ns",
            point.label,
            point.peak_limbo,
            point.mean_limbo,
            point.end_limbo,
            point.eras_advanced,
            point.ns_per_retire
        );
        rows.push(
            JsonObject::new()
                .str_field("scheme", "he")
                .str_field("parameter", "era_policy")
                .str_field("policy", &point.label)
                .int_field("episodes", episodes as u64)
                .int_field("burst", spec.burst as u64)
                .int_field("peak_in_limbo", point.peak_limbo)
                .num_field("mean_in_limbo", point.mean_limbo, 1)
                .int_field("in_limbo_at_end", point.end_limbo)
                .int_field("retired", point.total_retired)
                .int_field("eras_advanced", point.eras_advanced)
                .num_field("retire_ns_per_op", point.ns_per_retire, 2),
        );
    }

    println!();
    println!("# A small static interval bounds stalled-reader garbage tightly but ticks the");
    println!("# era on every few allocations even when idle; a large one is cheap but lets");
    println!("# every stall pin an interval's worth of nodes. The adaptive policy tracks the");
    println!("# limbo estimate: fast ticks only while garbage actually accumulates.");

    let meta = [
        ("point_seconds", format!("{}", point_seconds())),
        ("episodes", format!("{episodes}")),
        ("burst", format!("{}", spec.burst)),
        ("scenario", "\"stall-churn\"".to_string()),
        ("unit", "\"retired nodes in limbo\"".to_string()),
    ];
    let path = json::workspace_file("BENCH_ablation_era_advance.json");
    match json::write_report(
        &path,
        "ablation_era_advance",
        "cargo bench -p bench --bench ablation_era_advance",
        &meta,
        &rows,
    ) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write {}: {err}", path.display()),
    }
}
