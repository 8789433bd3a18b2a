//! One timed slice: a fresh set of one scheme, prefilled, driven by closed-loop
//! workers for the slice length, then checked and torn down. Every phase is
//! bracketed by `Instant`s taken here, outside the library; the trace is built
//! from them afterwards.

use crate::check::{self, SliceFacts};
use crate::spec::{Workload, STALL_AFTER_OPS, STALL_SLEEP};
use reclaim_core::stats::StatsSnapshot;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::Instant;
use workload::{
    default_bench_config, make_set, BenchSet, OpGenerator, Operation, SchemeKind, SetSession,
};

/// A start and an end taken around one call into a layer.
pub type Interval = (Instant, Instant);

pub fn seconds(interval: Interval) -> f64 {
    interval.1.duration_since(interval.0).as_secs_f64()
}

/// In a traced slice each worker times one operation in this many.
pub const SAMPLE_EVERY: u64 = 16;
/// Per-worker sample buffer, allocated before the slice so the timed loop
/// never grows it; sampling stops when it is full.
const SAMPLE_CAPACITY: usize = 1 << 17;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Contains,
    Insert,
    Remove,
}

impl OpKind {
    pub const ALL: [OpKind; 3] = [OpKind::Contains, OpKind::Insert, OpKind::Remove];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Contains => "contains",
            OpKind::Insert => "insert",
            OpKind::Remove => "remove",
        }
    }
}

/// One timed operation of a traced slice.
#[derive(Clone, Copy, Debug)]
pub struct OpSample {
    pub kind: OpKind,
    /// Nanoseconds since the worker's loop began.
    pub start_ns: u64,
    pub dur_ns: u32,
}

/// Operations attempted and operations that returned `true`, by kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpCounts {
    pub attempted: [u64; 3],
    pub succeeded: [u64; 3],
}

impl OpCounts {
    fn record(&mut self, kind: OpKind, ok: bool) {
        self.attempted[kind as usize] += 1;
        self.succeeded[kind as usize] += u64::from(ok);
    }

    pub fn total(&self) -> u64 {
        self.attempted.iter().sum()
    }

    pub fn add(&mut self, other: &OpCounts) {
        for kind in 0..3 {
            self.attempted[kind] += other.attempted[kind];
            self.succeeded[kind] += other.succeeded[kind];
        }
    }
}

pub struct WorkerOutcome {
    /// The delayed session of `skiplist_stalled`; its operations are checked
    /// but not counted as throughput.
    pub stalled: bool,
    pub counts: OpCounts,
    pub open: Interval,
    pub run: Interval,
    pub flush: Interval,
    pub close: Interval,
    pub samples: Vec<OpSample>,
}

/// Scheme counters that moved between the start and the end of the timed loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct Moved {
    pub retired: u64,
    pub freed: u64,
    pub scans: u64,
    pub scan_walks: u64,
    pub scan_skips: u64,
    pub scan_wholesale: u64,
    pub quiescent_states: u64,
    pub traversal_fences: u64,
    pub fallback_switches: u64,
}

impl Moved {
    /// `closed` is read after every session closed: hazard pointers publish
    /// their fence count only when a handle flushes or drops.
    fn between(start: &StatsSnapshot, stop: &StatsSnapshot, closed: &StatsSnapshot) -> Self {
        Moved {
            retired: stop.retired - start.retired,
            freed: stop.freed - start.freed,
            scans: stop.scans - start.scans,
            scan_walks: stop.scan_walks - start.scan_walks,
            scan_skips: stop.scan_skips - start.scan_skips,
            scan_wholesale: stop.scan_wholesale - start.scan_wholesale,
            quiescent_states: stop.quiescent_states - start.quiescent_states,
            traversal_fences: closed.traversal_fences - start.traversal_fences,
            fallback_switches: stop.fallback_switches - start.fallback_switches,
        }
    }
}

pub struct SliceOutcome {
    pub scheme: SchemeKind,
    pub traced: bool,
    /// Million operations per second: each worker's operations over its own
    /// loop time, summed over workers.
    pub mops: f64,
    /// Operations of every session, the stalled one included.
    pub ops: u64,
    /// The main thread's view of the timed part; the rest of the slice is set-up.
    pub timed: Interval,
    pub make_set: Interval,
    pub prefill: Interval,
    pub verify: Interval,
    pub drop_set: Interval,
    pub moved: Moved,
    pub peak_limbo_bytes: u64,
    pub workers: Vec<WorkerOutcome>,
    pub failures: Vec<String>,
}

/// The seed of one operation stream. Streams differ by round and by worker;
/// every scheme of a round sees the same streams.
pub fn stream_seed(seed: u64, round: usize, worker: usize) -> u64 {
    seed.wrapping_mul(0x0100_0000_01B3)
        .wrapping_add(((round as u64) << 8) | worker as u64)
}

struct Rendezvous {
    barrier: Barrier,
    stop: AtomicBool,
}

fn apply(session: &mut dyn SetSession, op: Operation) -> (OpKind, bool) {
    match op {
        Operation::Contains(key) => (OpKind::Contains, session.contains(key)),
        Operation::Insert(key) => (OpKind::Insert, session.insert(key)),
        Operation::Remove(key) => (OpKind::Remove, session.remove(key)),
    }
}

fn worker<const TRACED: bool>(
    set: &dyn BenchSet,
    mut stream: OpGenerator,
    meet: &Rendezvous,
    stalled: bool,
) -> WorkerOutcome {
    let open_start = Instant::now();
    let mut session = set.session();
    let open = (open_start, Instant::now());
    let mut counts = OpCounts::default();
    let mut samples = Vec::with_capacity(if TRACED { SAMPLE_CAPACITY } else { 0 });

    meet.barrier.wait(); // every session is open
    meet.barrier.wait(); // go
    let run_start = Instant::now();
    let mut done = 0u64;
    while !meet.stop.load(Ordering::Relaxed) {
        if stalled && done >= STALL_AFTER_OPS {
            thread::sleep(STALL_SLEEP);
        }
        let op = stream.next_op();
        if TRACED && done.is_multiple_of(SAMPLE_EVERY) && samples.len() < SAMPLE_CAPACITY {
            let started = Instant::now();
            let (kind, ok) = apply(&mut *session, op);
            let dur_ns = started.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32;
            counts.record(kind, ok);
            samples.push(OpSample {
                kind,
                start_ns: started.duration_since(run_start).as_nanos() as u64,
                dur_ns,
            });
        } else {
            let (kind, ok) = apply(&mut *session, op);
            counts.record(kind, ok);
        }
        done += 1;
    }
    let run = (run_start, Instant::now());
    meet.barrier.wait(); // every loop has stopped
    meet.barrier.wait(); // the counters have been read

    let flush_start = Instant::now();
    session.flush();
    let close_start = Instant::now();
    drop(session);
    WorkerOutcome {
        stalled,
        counts,
        open,
        run,
        flush: (flush_start, close_start),
        close: (close_start, Instant::now()),
        samples,
    }
}

pub struct SlicePlan<'a> {
    pub workload: &'a Workload,
    pub scheme: SchemeKind,
    pub threads: usize,
    pub seed: u64,
    pub round: usize,
    pub traced: bool,
    pub prefill: &'a [u64],
}

pub fn run_slice(plan: &SlicePlan<'_>) -> SliceOutcome {
    let SlicePlan {
        workload,
        scheme,
        threads,
        ..
    } = *plan;
    let sessions = threads + usize::from(workload.stalled);

    let started = Instant::now();
    // Two slots beyond the workers: the stalled session, and the handle that
    // `prefill` and `len` register for themselves.
    let set = make_set(
        workload.structure,
        scheme,
        default_bench_config(threads + 2),
    );
    let make_set_done = Instant::now();
    set.prefill(plan.prefill);
    let prefill_done = Instant::now();

    let meet = Rendezvous {
        barrier: Barrier::new(sessions + 1),
        stop: AtomicBool::new(false),
    };
    let (timed, at_start, at_stop, workers) = thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|index| {
                let stream =
                    OpGenerator::new(workload.spec(), stream_seed(plan.seed, plan.round, index));
                let (set, meet) = (&*set, &meet);
                let stalled = index >= threads;
                // Only the throughput workers are sampled.
                if plan.traced && !stalled {
                    scope.spawn(move || worker::<true>(set, stream, meet, stalled))
                } else {
                    scope.spawn(move || worker::<false>(set, stream, meet, stalled))
                }
            })
            .collect();
        meet.barrier.wait();
        let at_start = set.smr_stats();
        meet.barrier.wait();
        let timed_start = Instant::now();
        thread::sleep(workload.slice);
        meet.stop.store(true, Ordering::Relaxed);
        meet.barrier.wait();
        let timed = (timed_start, Instant::now());
        let at_stop = set.smr_stats();
        meet.barrier.wait();
        let workers: Vec<WorkerOutcome> = handles
            .into_iter()
            .map(|handle| handle.join().expect("a worker panicked"))
            .collect();
        (timed, at_start, at_stop, workers)
    });

    let verify_start = Instant::now();
    let closed = set.smr_stats();
    let len = set.len() as u64;
    let drop_start = Instant::now();
    drop(set);
    let drop_done = Instant::now();

    let mut counts = OpCounts::default();
    let mut mops = 0.0;
    for worker in &workers {
        counts.add(&worker.counts);
        if !worker.stalled {
            mops += worker.counts.total() as f64 / seconds(worker.run) / 1e6;
        }
    }
    let failures = check::failures(&SliceFacts {
        scheme,
        stalled: workload.stalled,
        prefilled: plan.prefill.len() as u64,
        inserted: counts.succeeded[OpKind::Insert as usize],
        removed: counts.succeeded[OpKind::Remove as usize],
        len,
        closed,
    });
    SliceOutcome {
        scheme,
        traced: plan.traced,
        mops,
        ops: counts.total(),
        timed,
        make_set: (started, make_set_done),
        prefill: (make_set_done, prefill_done),
        verify: (verify_start, drop_start),
        drop_set: (drop_start, drop_done),
        moved: Moved::between(&at_start, &at_stop, &closed),
        peak_limbo_bytes: closed.peak_limbo_bytes,
        workers,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workloads;

    #[test]
    fn same_seed_gives_identical_streams_and_prefill() {
        for workload in workloads() {
            let spec = workload.spec();
            let draw = |seed, round, worker| {
                let mut stream = OpGenerator::new(spec, stream_seed(seed, round, worker));
                (0..256).map(|_| stream.next_op()).collect::<Vec<_>>()
            };
            assert_eq!(draw(7, 3, 1), draw(7, 3, 1));
            assert_ne!(draw(7, 3, 1), draw(8, 3, 1), "seed feeds the stream");
            assert_ne!(draw(7, 3, 1), draw(7, 4, 1), "rounds differ");
            assert_ne!(draw(7, 3, 1), draw(7, 3, 0), "workers differ");

            let prefill = |seed| OpGenerator::prefill_keys(&spec, stream_seed(seed, 3, 0xFF));
            assert_eq!(prefill(7), prefill(7));
            assert_ne!(prefill(7), prefill(8));
            assert_eq!(prefill(7).len() as u64, workload.key_range / 2);
        }
    }

    #[test]
    fn a_short_slice_of_every_scheme_is_correct() {
        let mut workload = workloads()[3];
        workload.slice = std::time::Duration::from_millis(20);
        let prefill = OpGenerator::prefill_keys(&workload.spec(), 1);
        for scheme in crate::spec::SCHEMES {
            let outcome = run_slice(&SlicePlan {
                workload: &workload,
                scheme,
                threads: 2,
                seed: 1,
                round: 0,
                traced: true,
                prefill: &prefill,
            });
            // QSense cannot cross its fallback threshold in 20 ms; every
            // other check must hold.
            let failures: Vec<_> = outcome
                .failures
                .iter()
                .filter(|f| !f.contains("never fell back"))
                .collect();
            assert!(failures.is_empty(), "{scheme:?}: {failures:?}");
            assert_eq!(outcome.workers.len(), 3);
            assert!(outcome.mops > 0.0);
            assert!(
                outcome.workers[0].samples.len() as u64 * SAMPLE_EVERY
                    >= outcome.workers[0].counts.total()
            );
            assert!(
                outcome.workers[2].samples.is_empty(),
                "the stalled session is not sampled"
            );
        }
    }
}
