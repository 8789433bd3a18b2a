//! The experiment runner: spawns worker threads, drives them with generated
//! operations for a fixed duration, injects delays, samples throughput over time and
//! aborts a run when an unreclaimed-memory cap is exceeded (the "QSBR runs out of
//! memory" outcome of Figure 5, reproduced without actually exhausting the
//! container's memory).

use crate::generator::{OpGenerator, Operation};
use crate::spec::WorkloadSpec;
use crate::structures::BenchSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Delay-injection schedule reproducing the paper's Figure 5 (bottom): one worker
/// thread is put to sleep for `delay` every `period`, starting after the first
/// `period − delay` of work (the paper delays a process during seconds 10–20, 30–40,
/// … of a 100-second run, i.e. `period = 20 s`, `delay = 10 s`).
#[derive(Clone, Copy, Debug)]
pub struct DelaySchedule {
    /// Index of the worker thread that experiences the delays.
    pub victim: usize,
    /// Full cycle length (active time + delayed time).
    pub period: Duration,
    /// How long the victim sleeps in each cycle.
    pub delay: Duration,
}

impl DelaySchedule {
    /// The paper's schedule scaled by `scale` (1.0 = the original 20 s / 10 s cycle).
    pub fn paper_scaled(scale: f64) -> Self {
        Self {
            victim: 0,
            period: Duration::from_secs_f64(20.0 * scale),
            delay: Duration::from_secs_f64(10.0 * scale),
        }
    }

    /// True if the victim should be sleeping at `elapsed` time into the run.
    pub fn is_delayed_at(&self, elapsed: Duration) -> bool {
        let period = self.period.as_secs_f64();
        let active = period - self.delay.as_secs_f64();
        if period <= 0.0 {
            return false;
        }
        let position = elapsed.as_secs_f64() % period;
        position >= active
    }
}

/// Everything needed to run one experiment cell.
pub struct Experiment {
    /// Structure + scheme under test.
    pub set: Arc<dyn BenchSet>,
    /// Workload description.
    pub spec: WorkloadSpec,
    /// Number of worker threads.
    pub threads: usize,
    /// Measured run duration (after pre-fill).
    pub duration: Duration,
    /// Optional delay injection.
    pub delay: Option<DelaySchedule>,
    /// Throughput sampling interval for the time series (None = no time series).
    pub sample_interval: Option<Duration>,
    /// Abort the run when the scheme's unreclaimed-node count exceeds this value
    /// (reproduces "the system runs out of memory and eventually fails" without
    /// taking the process down). `None` = never abort.
    pub limbo_cap: Option<u64>,
}

/// One sample of the throughput time series.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Time since the start of the measured run.
    pub at: Duration,
    /// Throughput over the sampling interval, in operations per second.
    pub ops_per_sec: f64,
    /// Retired-but-unreclaimed nodes at the end of the interval.
    pub in_limbo: u64,
}

/// The outcome of one experiment cell.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Scheme name (as in the paper's legend).
    pub scheme: String,
    /// Structure name.
    pub structure: String,
    /// Worker threads used.
    pub threads: usize,
    /// Total operations completed by all threads.
    pub total_ops: u64,
    /// Wall-clock duration of the measured phase.
    pub elapsed: Duration,
    /// Throughput time series (empty unless sampling was requested).
    pub samples: Vec<Sample>,
    /// Reclamation counters at the end of the run.
    pub stats: reclaim_core::stats::StatsSnapshot,
    /// The scheme's limbo-budget verdict at the end of the run.
    pub budget_verdict: reclaim_core::BudgetVerdict,
    /// Latency/delay histograms at the end of the run (empty histograms
    /// unless the configuration enabled telemetry).
    pub telemetry: reclaim_core::TelemetrySummary,
    /// Time at which the run hit the unreclaimed-memory cap, if it did.
    pub aborted_at: Option<Duration>,
}

impl RunResult {
    /// Throughput in million operations per second.
    pub fn mops(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.total_ops as f64 / self.elapsed.as_secs_f64() / 1.0e6
    }
}

/// Runs one experiment cell to completion and returns its result.
pub fn run_experiment(experiment: &Experiment) -> RunResult {
    let Experiment {
        set,
        spec,
        threads,
        duration,
        delay,
        sample_interval,
        limbo_cap,
    } = experiment;
    let threads = (*threads).max(1);

    // Pre-fill to half the key range, as in the paper.
    let prefill = OpGenerator::prefill_keys(spec, 0x00C0_FFEE);
    set.prefill(&prefill);

    let stop = Arc::new(AtomicBool::new(false));
    let aborted = Arc::new(AtomicBool::new(false));
    let total_ops = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let deadline = *duration;

    let (samples, abort_time) = thread::scope(|scope| {
        // Worker threads.
        for worker_index in 0..threads {
            let set = Arc::clone(set);
            let stop = Arc::clone(&stop);
            let total_ops = Arc::clone(&total_ops);
            let spec = *spec;
            let delay = *delay;
            scope.spawn(move || {
                let mut session = set.session();
                let mut generator = OpGenerator::new(spec, worker_index as u64 + 1);
                let mut since_check = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    // Delay injection: the victim thread sleeps through its windows,
                    // mimicking a process stalled in I/O or descheduled (paper §7.2).
                    if let Some(schedule) = delay {
                        if schedule.victim == worker_index
                            && schedule.is_delayed_at(start.elapsed())
                        {
                            thread::sleep(Duration::from_millis(1));
                            continue;
                        }
                    }
                    match generator.next_op() {
                        Operation::Contains(k) => {
                            session.contains(k);
                        }
                        Operation::Insert(k) => {
                            session.insert(k);
                        }
                        Operation::Remove(k) => {
                            session.remove(k);
                        }
                    }
                    since_check += 1;
                    // Publish progress and re-check the stop flag in batches so the
                    // hot loop stays cheap.
                    if since_check == 256 {
                        total_ops.fetch_add(u64::from(since_check), Ordering::Relaxed);
                        since_check = 0;
                    }
                }
                total_ops.fetch_add(u64::from(since_check), Ordering::Relaxed);
            });
        }

        // Coordinator: samples throughput, enforces the limbo cap and the deadline.
        let samples = {
            let set = Arc::clone(set);
            let stop = Arc::clone(&stop);
            let aborted = Arc::clone(&aborted);
            let total_ops = Arc::clone(&total_ops);
            let sample_interval = *sample_interval;
            let limbo_cap = *limbo_cap;
            scope.spawn(move || {
                let tick = sample_interval.unwrap_or(Duration::from_millis(50));
                let mut samples = Vec::new();
                let mut last_ops = 0u64;
                let mut last_at = Duration::ZERO;
                loop {
                    thread::sleep(tick.min(Duration::from_millis(200)));
                    let elapsed = start.elapsed();
                    let stats = set.smr_stats();
                    if let Some(interval) = sample_interval {
                        if elapsed - last_at >= interval {
                            let ops = total_ops.load(Ordering::Relaxed);
                            let window = (elapsed - last_at).as_secs_f64();
                            samples.push(Sample {
                                at: elapsed,
                                ops_per_sec: (ops - last_ops) as f64 / window,
                                in_limbo: stats.in_limbo(),
                            });
                            last_ops = ops;
                            last_at = elapsed;
                        }
                    }
                    if let Some(cap) = limbo_cap {
                        if stats.in_limbo() > cap {
                            aborted.store(true, Ordering::Relaxed);
                            stop.store(true, Ordering::Relaxed);
                            return (samples, Some(elapsed));
                        }
                    }
                    if elapsed >= deadline {
                        stop.store(true, Ordering::Relaxed);
                        return (samples, None);
                    }
                }
            })
        };

        samples.join().expect("coordinator thread panicked")
    });

    let elapsed = start.elapsed().min(*duration + Duration::from_secs(1));
    let stats = set.smr_stats();
    RunResult {
        scheme: set.scheme_name().to_string(),
        structure: set.structure_name().to_string(),
        threads,
        total_ops: total_ops.load(Ordering::Relaxed),
        elapsed,
        samples,
        stats,
        budget_verdict: set.budget_verdict(),
        telemetry: set.telemetry_summary(),
        aborted_at: if aborted.load(Ordering::Relaxed) {
            abort_time
        } else {
            None
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_schedule_windows_match_the_paper_pattern() {
        let schedule = DelaySchedule::paper_scaled(1.0);
        // Active during [0, 10), delayed during [10, 20), active during [20, 30), ...
        assert!(!schedule.is_delayed_at(Duration::from_secs(5)));
        assert!(schedule.is_delayed_at(Duration::from_secs(15)));
        assert!(!schedule.is_delayed_at(Duration::from_secs(25)));
        assert!(schedule.is_delayed_at(Duration::from_secs(35)));
    }

    #[test]
    fn scaled_schedule_shrinks_the_cycle() {
        let schedule = DelaySchedule::paper_scaled(0.1);
        assert_eq!(schedule.period, Duration::from_secs(2));
        assert_eq!(schedule.delay, Duration::from_secs(1));
        assert!(!schedule.is_delayed_at(Duration::from_millis(500)));
        assert!(schedule.is_delayed_at(Duration::from_millis(1_500)));
    }
}
