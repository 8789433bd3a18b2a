//! **Ablation A4** (§7.3's explanation of the skip-list gap): protection cost as a
//! function of `K`, the number of hazard-pointer slots an operation maintains.
//!
//! The paper attributes the larger QSBR-to-QSense gap on the skip list to its
//! hazard-pointer count: "whereas the linked list only uses two hazard pointers per
//! process and the tree uses six, the skip list can use up to 35". This ablation
//! isolates exactly that variable: a synthetic operation protects `K` distinct slots
//! (as a traversal of a `K`-pointer structure would), and the per-operation cost is
//! measured for every scheme. QSBR is flat in `K` (protection is a no-op), the
//! fence-free schemes grow with a small slope (one local store per slot), classic HP
//! grows with theirs where its scans run the readers' fence and with a steep one
//! (one fence per slot) where the readers do — the JSON's `fence_strategy` says
//! which this run measured —, and reference counting grows with the steepest slope
//! (one shared read-modify-write per slot).
//!
//! Besides the text table, the run emits **`BENCH_ablation_hp_count.json`** in
//! the workspace root (shared `bench::json` envelope): one row per
//! `(scheme, K)` cell.

use bench::json::{self, JsonObject};
use std::hint::black_box;
use std::time::Instant;

use reclaim_core::{Smr, SmrConfig, SmrHandle};

/// Operations per (K, scheme) measurement.
const OPS: u64 = 200_000;

// Sanctioned raw-protocol site: this ablation measures the raw protection
// primitive itself, below the guard layer.
#[allow(clippy::disallowed_methods)]
fn measure<S: Smr>(scheme: &std::sync::Arc<S>, k: usize) -> f64 {
    let mut handle = scheme.register();
    // Warm up the handle and the branch predictors.
    for _ in 0..1_000 {
        handle.begin_op();
        handle.protect(0, 0x1000 as *mut u8);
        handle.clear_protections();
        handle.end_op();
    }
    let start = Instant::now();
    for op in 0..OPS {
        handle.begin_op();
        for slot in 0..k {
            // Distinct, non-null fake addresses, as a traversal would publish.
            let ptr = (0x1_0000 + ((op as usize + slot) % 256) * 64) as *mut u8;
            handle.protect(slot, ptr);
            black_box(ptr);
        }
        handle.clear_protections();
        handle.end_op();
    }
    let elapsed = start.elapsed();
    elapsed.as_nanos() as f64 / OPS as f64
}

fn row(scheme: &str, k: usize, ns: f64) -> JsonObject {
    JsonObject::new()
        .str_field("scheme", scheme)
        .int_field("k", k as u64)
        .int_field("threads", 1)
        .num_field("protect_ns_per_op", ns, 2)
}

fn main() {
    println!("Ablation A4: per-operation protection cost vs K (ns/op, {OPS} ops per cell)");
    println!("K values bracket the paper's structures: list = 2, BST = 6, skip list = up to 35");
    println!();
    println!(
        "{:>4}  {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "K", "qsbr", "ebr", "qsense", "cadence", "hp", "rc"
    );

    let mut rows = Vec::new();
    for k in [2usize, 6, 12, 24, 35] {
        let config = SmrConfig::default()
            .with_hp_per_thread(k)
            .with_quiescence_threshold(64);

        let qsbr = qsbr::Qsbr::new(config.clone());
        let ebr = ebr::Ebr::new(config.clone());
        let qsense = qsense::QSense::new(config.clone());
        let cadence = cadence::Cadence::new(config.clone());
        let hp = hazard::Hazard::new(config.clone());
        let rc = refcount::RefCount::new(config);

        let cells = [
            ("qsbr", measure(&qsbr, k)),
            ("ebr", measure(&ebr, k)),
            ("qsense", measure(&qsense, k)),
            ("cadence", measure(&cadence, k)),
            ("hp", measure(&hp, k)),
            ("rc", measure(&rc, k)),
        ];
        println!(
            "{:>4}  {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            k, cells[0].1, cells[1].1, cells[2].1, cells[3].1, cells[4].1, cells[5].1,
        );
        for (scheme, ns) in cells {
            rows.push(row(scheme, k, ns));
        }
    }

    println!();
    println!("# qsbr/ebr are flat in K; qsense/cadence grow by one local store per slot;");
    println!("# hp likewise under the scanner-barrier protocol, by one fence per slot under the");
    println!("# reader-fenced one (fence_strategy in the JSON); rc by one shared RMW per slot.");
    println!("# This slope difference is why the skip list (large K) shows the paper's");
    println!("# largest QSBR-to-QSense gap and its largest QSense-to-HP win.");

    let meta = [
        ("ops_per_cell", format!("{OPS}")),
        ("unit", "\"nanoseconds per operation\"".to_string()),
        ("fence_strategy", bench::fence_strategy_json()),
    ];
    let path = json::workspace_file("BENCH_ablation_hp_count.json");
    match json::write_report(
        &path,
        "ablation_hp_count",
        "cargo bench -p bench --bench ablation_hp_count",
        &meta,
        &rows,
    ) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write {}: {err}", path.display()),
    }
}
