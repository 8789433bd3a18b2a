//! **Hot-path overhead summary** — the per-operation cost of the two primitives the
//! paper's design optimizes (§7.3's in-text aggregate claims): `retire`
//! (`free_node_later`) and the operation boundary (`manage_qsense_state`, i.e. the
//! amortized quiescent-state cost), for every scheme, at 1, 4 and 8 threads.
//!
//! Run with a single command from the workspace root:
//!
//! ```text
//! cargo bench -p bench --bench overhead_summary
//! ```
//!
//! Besides the human-readable table on stdout, the run emits a machine-readable
//! **`BENCH_overhead.json`** (path override: `QSENSE_BENCH_OUT`) so the numbers are
//! tracked across revisions. Measurement length per point follows
//! `QSENSE_BENCH_SECONDS` (default 0.3 s). Every point is measured
//! `QSENSE_BENCH_REPEATS` times (default 3); the JSON records the mean (the
//! field the CI gate compares) plus the min/max across repeats, so a noisy
//! runner is distinguishable from a real regression when reading the artifact.
//!
//! Paper context: QSBR ≈ 2.3% average overhead over the leaky baseline, QSense
//! ≈ 29%, HP ≈ 80%. The per-op costs here are the microscopic version of those
//! aggregates: `none` is the floor (allocation + bookkeeping push only), and every
//! scheme's distance from it is pure reclamation overhead.
//!
//! Caveat on the baseline: `none` never frees during a measurement, so at higher
//! thread counts its growing heap slows the *allocator* — reclaiming schemes can
//! then show negative "overhead". Treat multi-thread overhead-vs-none as a
//! conservative bound; the single-thread column is the clean comparison.

use bench::json::{self, JsonObject};
use bench::point_seconds;
use reclaim_core::{retire_box, Smr, SmrConfig, SmrHandle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Thread counts required by the benchmark contract (BENCH_overhead.json shows
/// every scheme at each of these).
const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

/// Upper bound on retires per thread per measurement, so the leaky baseline (which
/// frees nothing until scheme drop) cannot exhaust container memory.
const MAX_RETIRES_PER_THREAD: u64 = 400_000;

/// Check the clock only every this many operations.
const CHUNK: u64 = 1_024;

/// Measurements per point (`QSENSE_BENCH_REPEATS`, default 3): the JSON keeps
/// mean, min and max across them.
fn repeats() -> usize {
    std::env::var("QSENSE_BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|r| *r > 0)
        .unwrap_or(3)
}

/// Mean / min / max of one point's repeated measurements.
#[derive(Clone, Copy)]
struct Spread {
    mean: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn from_samples(samples: &[f64]) -> Self {
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self { mean, min, max }
    }
}

#[derive(Clone, Copy)]
enum Mode {
    /// begin_op + retire(Box<u64>) + end_op per iteration.
    Retire,
    /// begin_op + end_op per iteration (the boundary / quiescent-state cost).
    OpBoundary,
}

/// Runs `threads` workers hammering the given primitive for ~`point_seconds()`
/// and returns the mean cost of one iteration in nanoseconds.
fn measure<S: Smr>(scheme: &Arc<S>, threads: usize, mode: Mode) -> f64 {
    let budget = point_seconds();
    let barrier = Barrier::new(threads);
    let total_ops = AtomicU64::new(0);
    let total_nanos = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let scheme = Arc::clone(scheme);
            let barrier = &barrier;
            let total_ops = &total_ops;
            let total_nanos = &total_nanos;
            scope.spawn(move || {
                let mut handle = scheme.register();
                // Warm up: touch the code paths and let bags/scratch buffers reach
                // their steady-state capacity before the clock starts.
                for _ in 0..CHUNK {
                    handle.begin_op();
                    if matches!(mode, Mode::Retire) {
                        let ptr = Box::into_raw(Box::new(0u64));
                        // SAFETY: freshly boxed, never shared, retired once.
                        unsafe { retire_box(&mut handle, ptr) };
                    }
                    handle.end_op();
                }
                barrier.wait();
                let start = Instant::now();
                let mut ops = 0u64;
                loop {
                    for _ in 0..CHUNK {
                        handle.begin_op();
                        if matches!(mode, Mode::Retire) {
                            let ptr = Box::into_raw(Box::new(0u64));
                            // SAFETY: freshly boxed, never shared, retired once.
                            unsafe { retire_box(&mut handle, ptr) };
                        }
                        handle.end_op();
                    }
                    ops += CHUNK;
                    if start.elapsed().as_secs_f64() >= budget
                        || (matches!(mode, Mode::Retire) && ops >= MAX_RETIRES_PER_THREAD)
                    {
                        break;
                    }
                }
                let nanos = start.elapsed().as_nanos() as u64;
                handle.flush();
                total_ops.fetch_add(ops, Ordering::Relaxed);
                total_nanos.fetch_add(nanos, Ordering::Relaxed);
            });
        }
    });
    total_nanos.load(Ordering::Relaxed) as f64 / total_ops.load(Ordering::Relaxed) as f64
}

struct Entry {
    scheme: &'static str,
    threads: usize,
    retire: Spread,
    boundary: Spread,
}

/// Measures one scheme at every thread count, `repeats()` times per point. A
/// fresh scheme instance per measurement keeps the points independent (and lets
/// the leaky baseline release its memory between points).
fn run_scheme<S: Smr>(name: &'static str, make: impl Fn(usize) -> Arc<S>, out: &mut Vec<Entry>) {
    let repeats = repeats();
    for &threads in &THREAD_COUNTS {
        let sample = |mode: Mode| {
            let samples: Vec<f64> = (0..repeats)
                .map(|_| {
                    let scheme = make(threads);
                    measure(&scheme, threads, mode)
                })
                .collect();
            Spread::from_samples(&samples)
        };
        let retire = sample(Mode::Retire);
        let boundary = sample(Mode::OpBoundary);
        println!(
            "{name:<8} {threads:>2} thread(s)   retire {:8.1} ns/op [{:.1}, {:.1}]   op-boundary {:8.1} ns/op [{:.1}, {:.1}]",
            retire.mean, retire.min, retire.max, boundary.mean, boundary.min, boundary.max
        );
        out.push(Entry {
            scheme: name,
            threads,
            retire,
            boundary,
        });
    }
}

fn baseline_ns(entries: &[Entry], threads: usize) -> Option<f64> {
    entries
        .iter()
        .find(|e| e.scheme == "none" && e.threads == threads)
        .map(|e| e.retire.mean)
}

fn write_json(entries: &[Entry], path: &std::path::Path) -> std::io::Result<()> {
    let rows: Vec<JsonObject> = entries
        .iter()
        .map(|e| {
            let overhead = baseline_ns(entries, e.threads)
                .filter(|base| *base > 0.0)
                .map(|base| (e.retire.mean / base - 1.0) * 100.0);
            JsonObject::new()
                .str_field("scheme", e.scheme)
                .int_field("threads", e.threads as u64)
                .num_field("retire_ns_per_op", e.retire.mean, 2)
                .num_field("retire_ns_min", e.retire.min, 2)
                .num_field("retire_ns_max", e.retire.max, 2)
                .num_field("quiescent_state_ns_per_op", e.boundary.mean, 2)
                .num_field("quiescent_state_ns_min", e.boundary.min, 2)
                .num_field("quiescent_state_ns_max", e.boundary.max, 2)
                .opt_num_field("retire_overhead_vs_none_pct", overhead, 1)
        })
        .collect();
    let threads_list = THREAD_COUNTS
        .iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let meta = [
        ("point_seconds", format!("{}", point_seconds())),
        ("repeats", format!("{}", repeats())),
        ("threads", format!("[{threads_list}]")),
        ("unit", "\"nanoseconds per operation\"".to_string()),
    ];
    json::write_report(
        path,
        "overhead_summary",
        "cargo bench -p bench --bench overhead_summary",
        &meta,
        &rows,
    )
}

fn main() {
    println!(
        "Per-op hot-path cost (retire / op-boundary), {}s per point",
        point_seconds()
    );
    // Rooster threads are capped at 1 here: this benchmark measures worker-side
    // per-op cost, not background reclamation throughput.
    let config = |threads: usize| SmrConfig::default().with_max_threads(threads + 2);

    // Discarded process warm-up: the first measurement in a fresh process pays
    // one-off costs (page faults, allocator arena growth) that would otherwise be
    // billed entirely to whichever scheme runs first.
    {
        let scheme = reclaim_core::Leaky::new(config(1));
        let _ = measure(&scheme, 1, Mode::Retire);
    }

    let mut entries = Vec::new();
    run_scheme(
        "none",
        |t| reclaim_core::Leaky::new(config(t)),
        &mut entries,
    );
    run_scheme("qsbr", |t| qsbr::Qsbr::new(config(t)), &mut entries);
    run_scheme("ebr", |t| ebr::Ebr::new(config(t)), &mut entries);
    // HE runs the adaptive era policy so the CI gate covers the pacer's hot
    // path (the estimate read per scan + the interval load per alloc), not
    // just the static constant it replaces as the bench default.
    run_scheme(
        "he",
        |t| he::He::new(config(t).with_era_policy(reclaim_core::EraAdvancePolicy::adaptive())),
        &mut entries,
    );
    run_scheme("hp", |t| hazard::Hazard::new(config(t)), &mut entries);
    run_scheme(
        "cadence",
        |t| cadence::Cadence::new(config(t)),
        &mut entries,
    );
    run_scheme("qsense", |t| qsense::QSense::new(config(t)), &mut entries);
    run_scheme("rc", |t| refcount::RefCount::new(config(t)), &mut entries);

    for &threads in &THREAD_COUNTS {
        if let Some(base) = baseline_ns(&entries, threads) {
            print!("overhead vs none @ {threads} thread(s):");
            for e in entries.iter().filter(|e| e.threads == threads) {
                if e.scheme != "none" && base > 0.0 {
                    print!(
                        "  {} {:+.1}%",
                        e.scheme,
                        (e.retire.mean / base - 1.0) * 100.0
                    );
                }
            }
            println!();
        }
    }

    // Default to the workspace root regardless of the bench's working directory
    // (cargo runs benches with CWD = the package directory).
    let path = std::env::var("QSENSE_BENCH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| json::workspace_file("BENCH_overhead.json"));
    match write_json(&entries, &path) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write {}: {err}", path.display()),
    }
}
