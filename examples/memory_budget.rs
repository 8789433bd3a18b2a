//! A byte-accounted limbo budget under a stalled thread: QSBR vs QSense.
//!
//! This is the scenario of the paper's Figure 5 (bottom row) — one registered
//! thread stops participating while the others keep removing nodes — run
//! against the budget API: both schemes get the same `limbo_budget` (in
//! *bytes*, accounted end to end from `retire_box`'s `size_of` stamp to the
//! scheme's per-chain byte totals), and at the end each scheme answers for
//! itself through its [`BudgetVerdict`].
//!
//! Under QSBR the stalled thread blocks every grace period: the verdict shows
//! the peak far above the budget and a long `time_over_budget`, with no
//! escalation to count — QSBR has no lever to pull. Under QSense the budget
//! breach itself *is* a lever: the governor trips the hybrid's fallback switch
//! early (before the node-count threshold C would), forces scans, and the peak
//! stays within small constant headroom of the budget.
//!
//! Run with: `cargo run --release --example memory_budget`

use qsense_repro::ds::HarrisMichaelList;
use qsense_repro::smr::{BudgetVerdict, QSense, Qsbr, Smr, SmrConfig, SmrHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// One phase of the experiment: until `STALL_UNTIL` one registered thread is
/// silent, for the rest of the run everyone is active.
const RUN_FOR: Duration = Duration::from_millis(2_400);
const STALL_UNTIL: Duration = Duration::from_millis(1_600);
const SAMPLE_EVERY: Duration = Duration::from_millis(200);

/// The byte budget both schemes are held to (same number, different levers).
const LIMBO_BUDGET: usize = 256 * 1024;

fn run_scenario<S: Smr>(label: &str, scheme: Arc<S>) -> BudgetVerdict {
    let list = Arc::new(HarrisMichaelList::new(Arc::clone(&scheme)));
    {
        let mut handle = list.register();
        for key in 0..2_000u64 {
            list.insert(key, &mut handle);
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let mut samples = Vec::new();

    thread::scope(|scope| {
        // The "stalled" participant: registers (so the scheme counts it), then does
        // nothing until STALL_UNTIL, then participates normally.
        {
            let list = Arc::clone(&list);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut handle = list.register();
                while started.elapsed() < STALL_UNTIL && !stop.load(Ordering::Relaxed) {
                    thread::sleep(Duration::from_millis(10));
                }
                let mut key = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    key = (key + 1) % 2_000;
                    list.contains(&key, &mut handle);
                }
                handle.flush();
            });
        }

        // Two workers constantly inserting and removing (every remove retires a node).
        for t in 0..2u64 {
            let list = Arc::clone(&list);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut handle = list.register();
                let mut state = 0xFEED_F00D_u64.wrapping_add(t);
                while !stop.load(Ordering::Relaxed) {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let key = (state >> 33) % 2_000;
                    if state % 2 == 0 {
                        list.insert(key, &mut handle);
                    } else {
                        list.remove(&key, &mut handle);
                    }
                }
                handle.flush();
            });
        }

        // Sampler: nodes and bytes from the same snapshot.
        while started.elapsed() < RUN_FOR {
            thread::sleep(SAMPLE_EVERY);
            let stats = scheme.stats();
            samples.push((
                started.elapsed().as_secs_f64(),
                stats.in_limbo(),
                stats.limbo_bytes(),
            ));
        }
        stop.store(true, Ordering::Relaxed);
    });

    println!("\n{label}");
    println!("  {:>6}  {:>14}  {:>12}", "t (s)", "in limbo", "limbo KiB");
    for (at, in_limbo, limbo_bytes) in &samples {
        let marker = if *at < STALL_UNTIL.as_secs_f64() {
            "  <- one thread stalled"
        } else {
            ""
        };
        println!(
            "  {at:>6.2}  {in_limbo:>14}  {:>12.1}{marker}",
            *limbo_bytes as f64 / 1024.0
        );
    }

    let verdict = scheme.budget_verdict();
    println!(
        "  verdict: peak {:.1} KiB against a {:.0} KiB budget ({:.1}x), {:.0} ms over budget",
        verdict.peak_bytes as f64 / 1024.0,
        verdict.budget_bytes as f64 / 1024.0,
        verdict.peak_bytes as f64 / verdict.budget_bytes as f64,
        verdict.time_over_budget.as_secs_f64() * 1e3,
    );
    println!(
        "  escalations: {} forced scans, {} fallback trips, {} backpressure yields",
        verdict.forced_scans, verdict.fallback_trips, verdict.backpressure_events,
    );
    verdict
}

fn main() {
    println!(
        "memory_budget: a {:.0} KiB limbo budget while one registered thread is stalled",
        LIMBO_BUDGET as f64 / 1024.0
    );
    println!(
        "(the stalled thread wakes up at t = {:.1} s)",
        STALL_UNTIL.as_secs_f64()
    );

    let qsbr_verdict = run_scenario(
        "QSBR (fast but blocking): no lever to pull, the budget is breached for the whole stall",
        Qsbr::new(
            SmrConfig::for_list()
                .with_max_threads(4)
                .with_quiescence_threshold(32)
                .with_limbo_budget(Some(LIMBO_BUDGET)),
        ),
    );

    // QSense: the node-count fallback threshold C is set far out of reach, so the
    // *byte budget* is what trips the hybrid switch — the early-fallback escalation.
    let qsense_verdict = run_scenario(
        "QSense (hybrid): the budget breach trips the Cadence fallback early and caps the peak",
        QSense::new(
            SmrConfig::for_list()
                .with_max_threads(4)
                .with_quiescence_threshold(32)
                .with_scan_threshold(64)
                .with_fallback_threshold(1 << 20)
                .with_rooster_interval(Duration::from_millis(5))
                .with_limbo_budget(Some(LIMBO_BUDGET)),
        ),
    );

    println!(
        "\npeak limbo bytes: QSBR = {:.1} KiB, QSense = {:.1} KiB (budget {:.0} KiB)",
        qsbr_verdict.peak_bytes as f64 / 1024.0,
        qsense_verdict.peak_bytes as f64 / 1024.0,
        LIMBO_BUDGET as f64 / 1024.0,
    );
    if qsense_verdict.peak_bytes < qsbr_verdict.peak_bytes && qsense_verdict.escalations() > 0 {
        println!(
            "QSense spent its budget breach on escalation ({} rungs pulled) and stayed bounded; \
             QSBR could only watch its limbo lists grow.",
            qsense_verdict.escalations()
        );
    } else {
        println!(
            "(run was too short for the difference to show on this machine; increase RUN_FOR)"
        );
    }
}
