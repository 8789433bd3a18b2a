//! **Telemetry-cost ablation** — the price of the observability layer, off and
//! on, for every scheme at 1, 4 and 8 threads.
//!
//! Run with a single command from the workspace root:
//!
//! ```text
//! cargo bench -p bench --bench ablation_telemetry
//! ```
//!
//! Each measured iteration is the full guard-shaped record bracket: the sampled
//! op stamp (`telemetry_op_begin`/`telemetry_op_end`, what `Guard` calls),
//! `begin_op`, one `retire` (which stamps the retire tick), and `end_op` — so
//! one loop pass pays every per-operation record site the telemetry layer adds,
//! plus its share of the scan-side sites (observer creation, per-free delay
//! records, scan-duration stamp) whenever the scan threshold fires.
//!
//! Two claims are quantified, per (scheme, threads) point:
//!
//! * **Disabled path** (`retire_ns_off`): telemetry compiled in but switched
//!   off — every record site reduces to one relaxed load of the `enabled` flag
//!   and a branch. These numbers are directly comparable to
//!   `BENCH_overhead.json`'s retire column (same loop shape), and the CI
//!   overhead gate keeps them honest: the disabled-path cost is baked into
//!   every scheme the gate measures.
//! * **Enabled path** (`retire_ns_on`, `telemetry_overhead_pct`): histograms
//!   live at the default 1-in-128 op sampling rate. The per-retire additions
//!   are the amortised tick stamp (a cached `u32`, clock re-read every 16
//!   retires) and — because every node retired here is eventually freed — one
//!   histogram `fetch_add` per free for the delay record. Together that is
//!   ~10 ns per op, which reads as 10–20% against this deliberately worst-case
//!   ~100 ns retire-only loop but is under 1% on µs-scale data-structure ops
//!   (the CLI reports identical Mops/s with and without `--telemetry`).
//!
//! Read the multi-thread points against the machine's core count: when threads
//! outnumber cores the loop measures time-slicing, not parallel cost, and the
//! off/on delta is scheduling noise — the per-point `[min, max]` band is the
//! tell. The 1-thread rows are the trustworthy per-site cost figures.
//!
//! The JSON lands in **`BENCH_ablation_telemetry.json`** (path override:
//! `QSENSE_BENCH_TELEMETRY_OUT`) through the shared `bench::json` envelope.

use bench::json::{self, JsonObject};
use bench::point_seconds;
use reclaim_core::{retire_box, Smr, SmrConfig, SmrHandle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Thread counts required by the benchmark contract.
const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

/// Upper bound on retires per thread per measurement, so a slow point cannot
/// exhaust container memory before its clock runs out.
const MAX_RETIRES_PER_THREAD: u64 = 400_000;

/// Check the clock only every this many operations.
const CHUNK: u64 = 1_024;

/// Measurements per point (`QSENSE_BENCH_REPEATS`, default 3).
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

/// Runs `threads` workers through the guard-shaped record bracket for
/// ~`point_seconds()` and returns the mean cost of one iteration in
/// nanoseconds.
fn measure<S: Smr>(scheme: &Arc<S>, threads: usize) -> f64 {
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
                let bracket = |handle: &mut S::Handle| {
                    let started = handle.telemetry_op_begin();
                    handle.begin_op();
                    let ptr = Box::into_raw(Box::new(0u64));
                    // SAFETY: freshly boxed, never shared, retired once.
                    unsafe { retire_box(handle, ptr) };
                    handle.end_op();
                    if let Some(started) = started {
                        handle.telemetry_op_end(started);
                    }
                };
                // Warm up: touch the code paths and let bags/scratch buffers
                // reach their steady-state capacity before the clock starts.
                for _ in 0..CHUNK {
                    bracket(&mut handle);
                }
                barrier.wait();
                let start = Instant::now();
                let mut ops = 0u64;
                loop {
                    for _ in 0..CHUNK {
                        bracket(&mut handle);
                    }
                    ops += CHUNK;
                    if start.elapsed().as_secs_f64() >= budget || ops >= MAX_RETIRES_PER_THREAD {
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
    off: Spread,
    on: Spread,
}

impl Entry {
    /// `(on / off − 1) · 100`, the figure the report quotes.
    fn overhead_pct(&self) -> f64 {
        if self.off.mean > 0.0 {
            (self.on.mean / self.off.mean - 1.0) * 100.0
        } else {
            0.0
        }
    }
}

/// Measures one scheme at every thread count, telemetry off then on,
/// `repeats()` times per point. A fresh scheme instance per measurement keeps
/// the points independent.
fn run_scheme<S: Smr>(
    name: &'static str,
    make: impl Fn(usize, bool) -> Arc<S>,
    out: &mut Vec<Entry>,
) {
    let repeats = repeats();
    for &threads in &THREAD_COUNTS {
        let sample = |telemetry: bool| {
            let samples: Vec<f64> = (0..repeats)
                .map(|_| {
                    let scheme = make(threads, telemetry);
                    measure(&scheme, threads)
                })
                .collect();
            Spread::from_samples(&samples)
        };
        let off = sample(false);
        let on = sample(true);
        let entry = Entry {
            scheme: name,
            threads,
            off,
            on,
        };
        println!(
            "{name:<8} {threads:>2} thread(s)   off {:8.1} ns/op [{:.1}, {:.1}]   on {:8.1} ns/op [{:.1}, {:.1}]   overhead {:+.1}%",
            off.mean,
            off.min,
            off.max,
            on.mean,
            on.min,
            on.max,
            entry.overhead_pct(),
        );
        out.push(entry);
    }
}

fn write_json(entries: &[Entry], path: &std::path::Path) -> std::io::Result<()> {
    let rows: Vec<JsonObject> = entries
        .iter()
        .map(|e| {
            JsonObject::new()
                .str_field("scheme", e.scheme)
                .int_field("threads", e.threads as u64)
                .num_field("retire_ns_off", e.off.mean, 2)
                .num_field("retire_ns_off_min", e.off.min, 2)
                .num_field("retire_ns_off_max", e.off.max, 2)
                .num_field("retire_ns_on", e.on.mean, 2)
                .num_field("retire_ns_on_min", e.on.min, 2)
                .num_field("retire_ns_on_max", e.on.max, 2)
                .num_field("telemetry_overhead_pct", e.overhead_pct(), 1)
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
        (
            "sampling",
            "\"enabled runs use the default 1-in-128 op sampling\"".to_string(),
        ),
        ("unit", "\"nanoseconds per operation\"".to_string()),
    ];
    json::write_report(
        path,
        "ablation_telemetry",
        "cargo bench -p bench --bench ablation_telemetry",
        &meta,
        &rows,
    )
}

fn main() {
    println!(
        "Telemetry cost ablation (guard bracket + retire, off vs on), {}s per point",
        point_seconds()
    );
    let config = |threads: usize, telemetry: bool| {
        SmrConfig::default()
            .with_max_threads(threads + 2)
            .with_telemetry(telemetry)
    };

    // Discarded process warm-up: the first measurement in a fresh process pays
    // one-off costs (page faults, allocator arena growth) that would otherwise
    // be billed entirely to whichever scheme runs first.
    {
        let scheme = reclaim_core::Leaky::new(config(1, false));
        let _ = measure(&scheme, 1);
    }

    let mut entries = Vec::new();
    run_scheme(
        "none",
        |t, tele| reclaim_core::Leaky::new(config(t, tele)),
        &mut entries,
    );
    run_scheme(
        "qsbr",
        |t, tele| qsbr::Qsbr::new(config(t, tele)),
        &mut entries,
    );
    run_scheme(
        "ebr",
        |t, tele| ebr::Ebr::new(config(t, tele)),
        &mut entries,
    );
    run_scheme("he", |t, tele| he::He::new(config(t, tele)), &mut entries);
    run_scheme(
        "hp",
        |t, tele| hazard::Hazard::new(config(t, tele)),
        &mut entries,
    );
    run_scheme(
        "cadence",
        |t, tele| cadence::Cadence::new(config(t, tele)),
        &mut entries,
    );
    run_scheme(
        "qsense",
        |t, tele| qsense::QSense::new(config(t, tele)),
        &mut entries,
    );
    run_scheme(
        "rc",
        |t, tele| refcount::RefCount::new(config(t, tele)),
        &mut entries,
    );

    let path = std::env::var("QSENSE_BENCH_TELEMETRY_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| json::workspace_file("BENCH_ablation_telemetry.json"));
    match write_json(&entries, &path) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write {}: {err}", path.display()),
    }
}
