//! The repository's benchmark. It drives the library from outside, through
//! `workload::make_set`, the `reclaim_core` guard API and `Smr::stats()`, and
//! reports per-scheme throughput on four workloads. See README.md.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload and prints, as the last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.
//! `--selfcheck <workload>` runs it twice and fails if the medians disagree.

mod check;
mod envinfo;
mod isolate;
mod report;
mod slice;
mod spec;
mod stats;
mod trace;

use envinfo::Env;
use report::{Metric, Tally};
use slice::{run_slice, seconds, stream_seed, SlicePlan};
use spec::{Workload, SCHEMES};
use std::process::ExitCode;
use std::time::Instant;
use trace::{quote, SpanLog};
use workload::OpGenerator;

const USAGE: &str = "usage: smr-benchmark --workload <name> [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>]\n       smr-benchmark --selfcheck <workload> [--seed <n>] \
                     [--seconds <s>]\nrun from the repository root: the trace goes to benchmark/out/";
/// Relative to the working directory, which the driver and `run.sh` make the
/// repository root.
const TRACE_DIR: &str = "benchmark/out";

struct Options {
    workload: Workload,
    selfcheck: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut workload = None;
    let mut options = Options {
        workload: spec::workloads()[0],
        selfcheck: false,
        seed: 1,
        seconds: spec::DEFAULT_SECONDS,
        trace: false,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" | "--selfcheck" => {
                options.selfcheck = flag == "--selfcheck";
                workload = Some(spec::workload_named(&value).ok_or_else(|| {
                    let names: Vec<_> = spec::workloads().iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => options.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                options.seconds = value.parse().map_err(|_| bad())?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    options.workload = workload.ok_or("no workload named")?;
    Ok(options)
}

/// One run of one workload. The span log is always kept (a few thousand
/// entries built from instants taken anyway); only a traced run has op spans
/// in it, runs the isolation pass and writes the log out.
struct Run {
    tally: Tally,
    log: SpanLog,
    env: Env,
    isolation: Option<isolate::Isolation>,
}

fn run_workload(options: &Options) -> Run {
    let workload = &options.workload;
    let threads = envinfo::nproc().min(4);
    let rounds = workload.rounds(options.seconds);
    // Round 0 only warms the process up (binary paged in, allocator arenas
    // and thread stacks made); its slices are short and are not measured.
    let warm_up = Workload {
        slice: workload.slice / 4,
        ..*workload
    };
    // One rooster thread runs beside the workers under cadence and qsense.
    let busiest = threads + usize::from(workload.stalled) + 1;
    let mut env = Env::capture();
    env.push("workload", workload.name);
    env.push("threads", threads);
    env.push("seed", options.seed);
    env.push("rounds", format!("{rounds} measured after 1 warm-up"));
    env.push("slice_ms", workload.slice.as_millis());
    env.push("oversubscribed", busiest > envinfo::nproc());

    let run_start = Instant::now();
    let mut log = SpanLog::new(run_start);
    let run_span = log.add(None, "workload", (run_start, run_start));
    let mut tally = Tally::default();
    for round in 0..=rounds {
        // In a traced run every other round is untraced, so that the run
        // measures its own tracing overhead.
        let traced = options.trace && round % 2 == 1;
        let round_start = Instant::now();
        let prefill =
            OpGenerator::prefill_keys(&workload.spec(), stream_seed(options.seed, round, 0xFF));
        let round_span = log.add(Some(run_span), "round", (round_start, round_start));
        log.attr(round_span, "round", round);
        log.attr(round_span, "warm_up", round == 0);
        let mut timed_s = 0.0;
        for scheme in SCHEMES {
            let outcome = run_slice(&SlicePlan {
                workload: if round == 0 { &warm_up } else { workload },
                scheme,
                threads,
                seed: options.seed,
                round,
                traced,
                prefill: &prefill,
            });
            timed_s += seconds(outcome.timed);
            report::log_slice(&mut log, round_span, &outcome);
            if round > 0 {
                tally.take_slice(round, &outcome);
            }
        }
        let round_end = Instant::now();
        log.spans[round_span].end_ns = log.ns(round_end);
        if round > 0 {
            tally.take_round(traced, (round_start, round_end), timed_s);
        }
    }

    let isolation = options.trace.then(|| {
        let start = Instant::now();
        let isolation = isolate::run(workload.spec(), options.seed);
        log.add(Some(run_span), "isolation_pass", (start, Instant::now()));
        isolation
    });
    log.spans[run_span].end_ns = log.ns(Instant::now());
    Run {
        tally,
        log,
        env,
        isolation,
    }
}

fn print_metrics(metrics: &[Metric]) {
    for metric in metrics {
        print!("{} {} {}", metric.def.name, metric.value, metric.def.unit);
        if !metric.rounds.is_empty() {
            let s = stats::summarize(&metric.rounds);
            print!(
                "  median={:.4} q1={:.4} q3={:.4} n={} spread={:.1}% rounds={:.3?}",
                s.median,
                s.q1,
                s.q3,
                s.n,
                s.spread() * 100.0,
                metric.rounds
            );
        }
        println!();
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.def.name),
                m.value,
                quote(m.def.unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

fn print_failures(tally: &Tally) {
    println!(
        "failed_share {} ratio  ({} of {} operations in slices that failed a check)",
        stats::ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );
    for failure in &tally.failures {
        println!("FAILED {failure}");
    }
}

fn run_once(options: &Options) -> std::io::Result<()> {
    let mut run = run_workload(options);
    run.env.print();
    let end_to_end = run.tally.end_to_end();
    print_metrics(&end_to_end);
    let mut reported = end_to_end;
    if let Some(isolation) = &run.isolation {
        let residuals = run.tally.residuals(isolation);
        let per_layer = run.tally.per_layer(isolation);
        print_metrics(&per_layer);
        let mut residual_rows = Vec::new();
        for r in &residuals {
            println!(
                "residual_ns.{} {} ns  (op_p50 {} - explained {}: begin_end + {:.2} protects/op x protect_ns + {:.4} retires/op x (retire_cycle_ns - begin_end_ns))",
                r.scheme, r.residual_ns, r.op_p50_ns, r.explained_ns, r.protects_per_op, r.retires_per_op
            );
            residual_rows.push(format!(
                "{{\"scheme\": {}, \"op_p50_ns\": {}, \"protects_per_op\": {}, \"retires_per_op\": {}, \"explained_ns\": {}, \"residual_ns\": {}}}",
                quote(r.scheme), r.op_p50_ns, r.protects_per_op, r.retires_per_op, r.explained_ns, r.residual_ns
            ));
        }
        std::fs::create_dir_all(TRACE_DIR)?;
        let path = format!("{TRACE_DIR}/trace-{}.json", options.workload.name);
        let header = [
            ("env", run.env.to_json()),
            ("end_to_end", metrics_json(&reported)),
            ("per_layer", metrics_json(&per_layer)),
            ("residuals", format!("[{}]", residual_rows.join(", "))),
        ];
        std::fs::write(&path, run.log.to_json(&header))?;
        println!("trace {path} ({} spans)", run.log.spans.len());
        reported = per_layer;
    }
    print_failures(&run.tally);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.tally.failed == 0,
        run.tally.attempted,
        run.tally.failed,
        metrics_json(&reported)
    );
    Ok(())
}

/// The repeatability test: two runs back to back must agree within each
/// end-to-end metric's bound.
fn selfcheck(options: &Options) -> bool {
    let first = run_workload(options);
    let second = run_workload(options);
    first.env.print();
    let mut agree = true;
    for run in [&first, &second] {
        print_failures(&run.tally);
        agree &= run.tally.failed == 0;
    }
    let pairs = first
        .tally
        .end_to_end()
        .into_iter()
        .zip(second.tally.end_to_end());
    for ((a, b), (_, bound)) in pairs.zip(spec::end_to_end()) {
        let differ = stats::ratio((a.value - b.value).abs(), a.value.abs());
        let ok = differ <= bound;
        agree &= ok;
        let (sa, sb) = (stats::summarize(&a.rounds), stats::summarize(&b.rounds));
        println!(
            "{} {}  first {} [{:.4} .. {:.4}] n={}  second {} [{:.4} .. {:.4}] n={}  differ {:.1}% (bound {:.0}%) {}",
            a.def.name, a.def.unit, a.value, sa.q1, sa.q3, sa.n, b.value, sb.q1, sb.q3, sb.n,
            differ * 100.0, bound * 100.0, if ok { "ok" } else { "DISAGREE" }
        );
    }
    println!(
        "selfcheck {} {}",
        options.workload.name,
        if agree { "passed" } else { "FAILED" }
    );
    agree
}

fn main() -> ExitCode {
    // A panic in one worker would leave the others waiting at a barrier.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        std::process::exit(101);
    }));

    let options = match parse(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if options.selfcheck {
        return if selfcheck(&options) {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    // A run that printed its result exits with 0, as the contract asks;
    // `"correct": false` carries a failed check.
    match run_once(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("error: cannot write the trace: {error}");
            ExitCode::from(1)
        }
    }
}
