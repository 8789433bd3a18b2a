//! **Ablation A3** (§3.2): the cost of the per-node memory fence.
//!
//! A microbenchmark of the protection primitive itself: publishing one hazard
//! pointer and re-validating, in a tight loop, under classic HP in both of its
//! protocols (store + `mfence`; store + compiler fence, the fence run by the
//! scanner's barrier instead), Cadence (store + compiler fence) and QSense (same
//! as Cadence, plus the epoch bookkeeping at operation boundaries). This isolates
//! the instruction-level difference that produces the figure-level gaps.
//!
//! Besides the text table, the run emits **`BENCH_ablation_fence.json`** in the
//! workspace root (same envelope as `BENCH_overhead.json`): one row per scheme
//! and variant with the mean cost of one publish+validate round, and — as
//! `fence_strategy` — which of HP's two rows is the protocol `Hazard::new` runs
//! on the machine that produced the file.

use bench::json::{self, JsonObject};
use bench::point_seconds;
use reclaim_core::{FenceStrategy, Smr, SmrConfig, SmrHandle};
use std::hint::black_box;
use std::time::Instant;

// Sanctioned raw-protocol site: this ablation measures the raw protection
// primitive itself, below the guard layer.
#[allow(clippy::disallowed_methods)]
fn protect_loop<H: SmrHandle>(handle: &mut H, rounds: u64) {
    for i in 0..rounds {
        // Publish a (fake but nonnull) protected address, as a traversal would for
        // every node it visits, then pretend to validate it.
        let ptr = (0x1000 + (i % 64) * 8) as *mut u8;
        handle.protect(0, ptr);
        black_box(ptr);
    }
}

/// Runs `protect_loop` repeatedly for roughly `point_seconds()` and returns the
/// mean cost of one publish+validate round.
fn measure<H: SmrHandle>(label: &str, handle: &mut H) -> f64 {
    const ROUNDS: u64 = 1_024;
    // Warm up code and caches.
    protect_loop(handle, ROUNDS);
    let budget = point_seconds();
    let start = Instant::now();
    let mut total_rounds = 0u64;
    while start.elapsed().as_secs_f64() < budget {
        protect_loop(handle, ROUNDS);
        total_rounds += ROUNDS;
    }
    let ns_per_round = start.elapsed().as_nanos() as f64 / total_rounds as f64;
    println!("{label:<30} {ns_per_round:8.2} ns/protect");
    ns_per_round
}

fn row(scheme: &str, variant: &str, ns: f64) -> JsonObject {
    JsonObject::new()
        .str_field("scheme", scheme)
        .str_field("variant", variant)
        .int_field("threads", 1)
        .num_field("protect_ns_per_op", ns, 2)
}

fn main() {
    println!("Ablation A3: cost of one hazard-pointer publication");
    let config = SmrConfig::default();
    let mut rows = Vec::new();

    for (strategy, variant) in [
        (FenceStrategy::ReaderFenced, "store_plus_mfence"),
        (FenceStrategy::ScannerBarrier, "store_plus_scanner_barrier"),
    ] {
        let hp = hazard::Hazard::with_fence_strategy(config.clone(), strategy);
        let ns = measure(&format!("hp_{variant}"), &mut hp.register());
        rows.push(row("hp", variant, ns));
    }

    let cadence = cadence::Cadence::new(config.clone());
    let ns = measure("cadence_store_only", &mut cadence.register());
    rows.push(row("cadence", "store_only", ns));

    let qsense = qsense::QSense::new(config.clone());
    let ns = measure("qsense_store_only", &mut qsense.register());
    rows.push(row("qsense", "store_only", ns));

    let qsbr = qsbr::Qsbr::new(config);
    let ns = measure("qsbr_noop", &mut qsbr.register());
    rows.push(row("qsbr", "noop", ns));

    let meta = [
        ("point_seconds", format!("{}", point_seconds())),
        ("fence_strategy", bench::fence_strategy_json()),
        ("unit", "\"nanoseconds per protect round\"".to_string()),
    ];
    let path = json::workspace_file("BENCH_ablation_fence.json");
    match json::write_report(
        &path,
        "ablation_fence_cost",
        "cargo bench -p bench --bench ablation_fence_cost",
        &meta,
        &rows,
    ) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write {}: {err}", path.display()),
    }
}
