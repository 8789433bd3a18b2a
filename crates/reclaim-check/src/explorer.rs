//! The bounded exhaustive schedule explorer.
//!
//! A [`Scenario`] describes a small concurrent test: a builder that constructs
//! fresh shared state and returns 2–3 thread bodies (plus an optional
//! post-schedule check). The [`Explorer`] runs the scenario once per
//! *schedule*: it installs itself as the global `interleave` scheduler, so
//! every `interleave::hit` pause point parks the calling model thread until
//! the driver grants it a turn. Execution is therefore fully serialized — at
//! most one model thread runs between two pause points — and a schedule is
//! completely described by the sequence of thread ids granted at each
//! scheduling decision.
//!
//! Schedules are enumerated by iterative depth-first search over those
//! decision sequences (the CHESS recipe): run one schedule to completion,
//! record at every decision which threads were runnable, then backtrack to the
//! deepest decision with an untried alternative and re-run with that choice
//! sequence as a *prefix* (prefix replay is deterministic because the
//! scenario's only source of nondeterminism is the schedule itself). The
//! search is pruned by a **preemption bound**: alternatives that would switch
//! away from a still-runnable thread more than `preemption_bound` times are
//! skipped. Most reclamation bugs need only one or two preemptions (open a
//! window, act inside it), so a bound of 2 explores a tiny fraction of the
//! exponential schedule space while still covering every validate-then-CAS
//! window `tests/interleaving_harness.rs` forces.
//!
//! A failing schedule is reported as a replayable [`Failure`]: the exact
//! pause-point trace plus the thread-id sequence that [`Explorer::replay`]
//! accepts to reproduce it deterministically.

use lockfree_ds::interleave;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::Duration;

/// Synthetic pause point every model thread is parked at before its body runs.
///
/// Parking all threads at spawn before the first decision makes the schedule
/// the *only* source of ordering: OS spawn latency never leaks into a trace.
pub(crate) const SPAWN_POINT: &str = "<spawn>";

type Body = Box<dyn FnOnce() + Send + 'static>;

/// One instantiation of a scenario: fresh shared state captured by the thread
/// bodies, plus an optional invariant check run after all threads finished.
#[derive(Default)]
pub struct ScenarioRun {
    threads: Vec<Body>,
    check: Option<Body>,
}

impl ScenarioRun {
    /// An empty run; add model threads with [`thread`](Self::thread).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a model thread. Ids are assigned in call order starting at 0.
    pub fn thread(mut self, body: impl FnOnce() + Send + 'static) -> Self {
        self.threads.push(Box::new(body));
        self
    }

    /// Sets the post-schedule check, run on the driver after every model
    /// thread finished. A panic in the check fails the schedule like a panic
    /// in a model thread.
    pub fn check(mut self, check: impl FnOnce() + Send + 'static) -> Self {
        self.check = Some(Box::new(check));
        self
    }
}

/// A named, repeatable concurrent test the explorer can enumerate schedules
/// of. The builder must produce equivalent state every call — determinism of
/// prefix replay depends on it (no wall-clock, no RNG, fixed skip-list
/// heights).
pub struct Scenario {
    name: String,
    build: Box<dyn Fn() -> ScenarioRun + Send + Sync>,
}

impl Scenario {
    /// Creates a scenario from a state builder.
    pub fn new(
        name: impl Into<String>,
        build: impl Fn() -> ScenarioRun + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            build: Box::new(build),
        }
    }

    /// The scenario's display name (`structure/scheme` for the suites).
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// One scheduling grant: `thread` was released from pause point `point`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// Model thread id (position in the [`ScenarioRun`] thread list).
    pub thread: usize,
    /// The pause point the thread was parked at when granted.
    pub point: &'static str,
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}@{}", self.thread, self.point)
    }
}

/// Extracts the replayable thread-id sequence from a trace (the form
/// [`Explorer::replay`] accepts).
pub fn schedule_of(trace: &[Step]) -> Vec<usize> {
    trace.iter().map(|s| s.thread).collect()
}

/// How a schedule failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// A model thread (or the post-schedule check) panicked — assertion
    /// failures and shadow-heap oracle verdicts both surface here.
    Panic,
    /// No scheduling progress within the step timeout: a model thread blocked
    /// somewhere other than a pause point.
    Hang,
    /// A replay prefix asked for a thread that was not runnable — the scenario
    /// is nondeterministic or the schedule came from a different scenario.
    Divergence,
}

/// A failing schedule, replayable via [`Explorer::replay`] with
/// [`schedule_of`]`(&failure.trace)`.
#[derive(Clone, Debug)]
pub struct Failure {
    /// What kind of failure this is.
    pub kind: FailureKind,
    /// Scenario name.
    pub scenario: String,
    /// 0-based index of the schedule in exploration order.
    pub schedule_index: usize,
    /// The panic message / hang description.
    pub message: String,
    /// The exact pause-point schedule that produced the failure.
    pub trace: Vec<Step>,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:?} in scenario `{}` (schedule #{}): {}",
            self.kind, self.scenario, self.schedule_index, self.message
        )?;
        writeln!(
            f,
            "replay schedule (thread ids): {:?}",
            schedule_of(&self.trace)
        )?;
        write!(f, "pause-point trace:")?;
        for step in &self.trace {
            write!(f, "\n  {step}")?;
        }
        Ok(())
    }
}

/// Result of an [`Explorer::explore`] run.
#[derive(Debug)]
pub struct Report {
    /// Scenario name.
    pub scenario: String,
    /// Number of schedules executed.
    pub schedules: usize,
    /// Decisions in the longest schedule (tree depth).
    pub max_decisions: usize,
    /// True if the schedule cap (20 000) was reached before the bounded space
    /// was exhausted.
    pub truncated: bool,
    /// The first failing schedule, if any (exploration stops at the first).
    pub failure: Option<Failure>,
}

impl Report {
    /// Panics with the full replayable failure if any schedule failed, and
    /// unless the bounded schedule space was fully enumerated (not cut off by
    /// the schedule cap).
    pub fn assert_exhaustive(&self) {
        if let Some(failure) = &self.failure {
            panic!("{failure}");
        }
        assert!(
            !self.truncated,
            "scenario `{}`: exploration truncated at {} schedules — raise MAX_SCHEDULES",
            self.scenario, self.schedules
        );
    }
}

/// One recorded scheduling decision, kept for DFS backtracking.
#[derive(Clone, Debug)]
struct Decision {
    /// Parked (runnable) threads at this decision, ascending.
    runnable: Vec<usize>,
    /// The thread actually granted.
    chosen: usize,
    /// The choice the default policy would make (run-to-completion: previous
    /// thread if still runnable, else lowest id). Child ordering in the DFS
    /// puts this first so schedule #0 is the straight-line run.
    default_choice: usize,
    /// Previously granted thread, if any.
    prev: Option<usize>,
    /// Preemptions consumed by the schedule before this decision.
    preemptions_before: usize,
}

/// Finds the deepest decision with an untried alternative within the
/// preemption bound and returns the choice prefix for the next schedule.
fn next_prefix(decisions: &[Decision], bound: usize) -> Option<Vec<usize>> {
    for i in (0..decisions.len()).rev() {
        let d = &decisions[i];
        if d.runnable.len() < 2 {
            continue;
        }
        // Children ordered: default choice first, then the rest ascending.
        let mut order = Vec::with_capacity(d.runnable.len());
        order.push(d.default_choice);
        order.extend(
            d.runnable
                .iter()
                .copied()
                .filter(|&t| t != d.default_choice),
        );
        let pos = order
            .iter()
            .position(|&t| t == d.chosen)
            .expect("chosen is always drawn from runnable");
        for &cand in &order[pos + 1..] {
            let preempt = usize::from(d.prev.is_some_and(|p| p != cand && d.runnable.contains(&p)));
            if d.preemptions_before + preempt <= bound {
                let mut prefix: Vec<usize> = decisions[..i].iter().map(|e| e.chosen).collect();
                prefix.push(cand);
                return Some(prefix);
            }
        }
    }
    None
}

thread_local! {
    /// Model-thread id of the current thread, if it is one. Scheme background
    /// threads (roosters) and the driver stay `None` and pass straight through
    /// the scheduler hook.
    static MODEL_ID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Shared scheduler state for one schedule.
struct SchedState {
    inner: Mutex<Inner>,
    cv: Condvar,
    n: usize,
}

struct Inner {
    /// Parked model threads → the pause point each is parked at.
    parked: BTreeMap<usize, &'static str>,
    finished: Vec<bool>,
    finished_count: usize,
    /// The single outstanding grant; the granted thread clears it as it
    /// resumes, so `None` + everyone parked/finished means quiescence.
    grant: Option<usize>,
    /// When set, pause points stop parking and every waiter is released —
    /// used to drain threads after a failure.
    free_run: bool,
    /// Panic messages collected from model threads.
    panics: Vec<(usize, String)>,
}

impl SchedState {
    fn new(n: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                parked: BTreeMap::new(),
                finished: vec![false; n],
                finished_count: 0,
                grant: None,
                free_run: false,
                panics: Vec::new(),
            }),
            cv: Condvar::new(),
            n,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Parks the calling model thread at `point` until granted a turn.
    fn yield_at(&self, id: usize, point: &'static str) {
        let mut inner = self.lock();
        if inner.free_run {
            return;
        }
        inner.parked.insert(id, point);
        self.cv.notify_all();
        loop {
            if inner.free_run {
                inner.parked.remove(&id);
                self.cv.notify_all();
                return;
            }
            if inner.grant == Some(id) {
                inner.grant = None;
                inner.parked.remove(&id);
                return;
            }
            inner = self.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn finish(&self, id: usize, panic_message: Option<String>) {
        let mut inner = self.lock();
        if !inner.finished[id] {
            inner.finished[id] = true;
            inner.finished_count += 1;
        }
        if let Some(message) = panic_message {
            inner.panics.push((id, message));
        }
        self.cv.notify_all();
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The scheduler slot is process-global (a second `set_scheduler` panics), so
/// explorations must never overlap; every public entry point holds this lock.
fn explorer_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

struct ScheduleOutcome {
    decisions: Vec<Decision>,
    trace: Vec<Step>,
    failure: Option<Failure>,
}

/// The most schedules one exploration runs; hitting the cap sets
/// [`Report::truncated`].
const MAX_SCHEDULES: usize = 20_000;

/// The no-progress timeout that turns a stuck schedule into a
/// [`FailureKind::Hang`].
const STEP_TIMEOUT: Duration = Duration::from_secs(10);

/// The schedule enumerator. `Default` gives the configuration the CI `check`
/// job runs: preemption bound 2; every explorer runs at most 20 000 schedules
/// per scenario, with a 10 s progress timeout.
#[derive(Clone, Debug)]
pub struct Explorer {
    preemption_bound: usize,
}

impl Default for Explorer {
    fn default() -> Self {
        Self {
            preemption_bound: 2,
        }
    }
}

impl Explorer {
    /// An explorer with the default bounds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the preemption bound (default 2): the maximum number of times a
    /// schedule may switch away from a still-runnable thread.
    #[cfg(test)]
    fn with_preemption_bound(mut self, bound: usize) -> Self {
        self.preemption_bound = bound;
        self
    }

    /// Enumerates all schedules of `scenario` within the preemption bound,
    /// stopping at the first failure (or at the schedule cap).
    pub fn explore(&self, scenario: &Scenario) -> Report {
        let _serial = explorer_lock();
        self.explore_locked(scenario, |_| false).0
    }

    /// Like [`explore`](Self::explore), but also stops at the first *clean*
    /// schedule whose trace satisfies `found`, returning that trace.
    ///
    /// Returns `Err` on a failing schedule, `Ok(None)` if the bounded space
    /// was exhausted (or truncated) without a match.
    pub fn explore_until(
        &self,
        scenario: &Scenario,
        found: impl Fn(&[Step]) -> bool,
    ) -> Result<Option<Vec<Step>>, Box<Failure>> {
        let _serial = explorer_lock();
        let (report, matched) = self.explore_locked(scenario, found);
        match report.failure {
            Some(failure) => Err(Box::new(failure)),
            None => Ok(matched),
        }
    }

    /// Replays one schedule: the recorded thread-id sequence is used as the
    /// full decision prefix (the default policy finishes the run if the trace
    /// ends early). Returns the (re-)observed trace, or the failure the
    /// schedule reproduces.
    pub fn replay(
        &self,
        scenario: &Scenario,
        schedule: &[usize],
    ) -> Result<Vec<Step>, Box<Failure>> {
        let _serial = explorer_lock();
        let outcome = self.run_one(scenario, schedule, 0);
        match outcome.failure {
            Some(failure) => Err(Box::new(failure)),
            None => Ok(outcome.trace),
        }
    }

    fn explore_locked(
        &self,
        scenario: &Scenario,
        found: impl Fn(&[Step]) -> bool,
    ) -> (Report, Option<Vec<Step>>) {
        let mut prefix: Vec<usize> = Vec::new();
        let mut schedules = 0;
        let mut max_decisions = 0;
        loop {
            if schedules == MAX_SCHEDULES {
                return (
                    Report {
                        scenario: scenario.name.clone(),
                        schedules,
                        max_decisions,
                        truncated: true,
                        failure: None,
                    },
                    None,
                );
            }
            let outcome = self.run_one(scenario, &prefix, schedules);
            schedules += 1;
            max_decisions = max_decisions.max(outcome.decisions.len());
            if outcome.failure.is_some() {
                return (
                    Report {
                        scenario: scenario.name.clone(),
                        schedules,
                        max_decisions,
                        truncated: false,
                        failure: outcome.failure,
                    },
                    None,
                );
            }
            if found(&outcome.trace) {
                return (
                    Report {
                        scenario: scenario.name.clone(),
                        schedules,
                        max_decisions,
                        truncated: false,
                        failure: None,
                    },
                    Some(outcome.trace),
                );
            }
            match next_prefix(&outcome.decisions, self.preemption_bound) {
                Some(next) => prefix = next,
                None => {
                    return (
                        Report {
                            scenario: scenario.name.clone(),
                            schedules,
                            max_decisions,
                            truncated: false,
                            failure: None,
                        },
                        None,
                    )
                }
            }
        }
    }

    /// Runs one schedule: spawn the model threads, serialize them through the
    /// scheduler hook, follow `prefix` then the default policy.
    fn run_one(
        &self,
        scenario: &Scenario,
        prefix: &[usize],
        schedule_index: usize,
    ) -> ScheduleOutcome {
        // Build fresh state *before* installing the scheduler so prefill
        // traffic through pause points runs unscheduled.
        let ScenarioRun { threads, check } = (scenario.build)();
        let n = threads.len();
        assert!(n >= 1, "scenario `{}` has no model threads", scenario.name);
        let state = Arc::new(SchedState::new(n));

        #[cfg(feature = "check-oracle")]
        reclaim_core::oracle::set_context(format!("{} schedule #{schedule_index}", scenario.name));
        // Quarantine on the driver too: teardown frees (structure/scheme drop
        // in the check closure) must poison-and-leak, not recycle addresses.
        #[cfg(feature = "check-oracle")]
        let _driver_quarantine = reclaim_core::oracle::QuarantineGuard::enable();

        let _scheduler = interleave::set_scheduler({
            let state = Arc::clone(&state);
            move |point| {
                if let Some(id) = MODEL_ID.with(|c| c.get()) {
                    state.yield_at(id, point);
                }
            }
        });

        let mut handles = Vec::with_capacity(n);
        for (id, body) in threads.into_iter().enumerate() {
            let state = Arc::clone(&state);
            let handle = thread::Builder::new()
                .name(format!("model-{id}"))
                .spawn(move || {
                    MODEL_ID.with(|c| c.set(Some(id)));
                    // Freed nodes are poisoned and leaked instead of returned
                    // to the allocator, so a use-after-free is a deterministic
                    // oracle verdict rather than silent address reuse.
                    #[cfg(feature = "check-oracle")]
                    let _quarantine = reclaim_core::oracle::QuarantineGuard::enable();
                    state.yield_at(id, SPAWN_POINT);
                    let message = catch_unwind(AssertUnwindSafe(body)).err().map(panic_text);
                    state.finish(id, message);
                })
                .expect("spawn model thread");
            handles.push(handle);
        }

        let mut decisions: Vec<Decision> = Vec::new();
        let mut trace: Vec<Step> = Vec::new();
        let mut preemptions = 0;
        let mut prev: Option<usize> = None;
        let mut failure: Option<Failure> = None;
        let mut hung = false;

        loop {
            let mut inner = state.lock();
            // Wait for quiescence: no outstanding grant, everyone parked or
            // finished. Each wakeup restarts the timeout, so it measures "no
            // scheduling progress", not total runtime.
            let mut timed_out = false;
            while !(inner.grant.is_none() && inner.parked.len() + inner.finished_count == state.n) {
                let (guard, result) = state
                    .cv
                    .wait_timeout(inner, STEP_TIMEOUT)
                    .unwrap_or_else(|e| e.into_inner());
                inner = guard;
                if result.timed_out() {
                    timed_out = true;
                    break;
                }
            }
            if timed_out {
                let parked: Vec<String> = inner
                    .parked
                    .iter()
                    .map(|(&t, &p)| format!("t{t}@{p}"))
                    .collect();
                inner.free_run = true;
                state.cv.notify_all();
                drop(inner);
                failure = Some(Failure {
                    kind: FailureKind::Hang,
                    scenario: scenario.name.clone(),
                    schedule_index,
                    message: format!(
                        "no scheduling progress for {:?}; parked: [{}] — a model thread is blocked outside a pause point",
                        STEP_TIMEOUT,
                        parked.join(", ")
                    ),
                    trace: trace.clone(),
                });
                hung = true;
                break;
            }
            if !inner.panics.is_empty() {
                let message = inner
                    .panics
                    .iter()
                    .map(|(t, m)| format!("model thread {t}: {m}"))
                    .collect::<Vec<_>>()
                    .join("; ");
                inner.free_run = true;
                state.cv.notify_all();
                drop(inner);
                failure = Some(Failure {
                    kind: FailureKind::Panic,
                    scenario: scenario.name.clone(),
                    schedule_index,
                    message,
                    trace: trace.clone(),
                });
                break;
            }
            if inner.finished_count == state.n {
                break;
            }

            let runnable: Vec<usize> = inner.parked.keys().copied().collect();
            let default_choice = prev.filter(|p| runnable.contains(p)).unwrap_or(runnable[0]);
            let chosen = if decisions.len() < prefix.len() {
                let want = prefix[decisions.len()];
                if !runnable.contains(&want) {
                    inner.free_run = true;
                    state.cv.notify_all();
                    drop(inner);
                    failure = Some(Failure {
                        kind: FailureKind::Divergence,
                        scenario: scenario.name.clone(),
                        schedule_index,
                        message: format!(
                            "replay diverged at decision {}: schedule wants thread {want}, runnable {runnable:?}",
                            decisions.len()
                        ),
                        trace: trace.clone(),
                    });
                    break;
                }
                want
            } else {
                default_choice
            };
            let is_preempt = prev.is_some_and(|p| p != chosen && runnable.contains(&p));
            let point = *inner.parked.get(&chosen).expect("chosen is parked");
            decisions.push(Decision {
                runnable,
                chosen,
                default_choice,
                prev,
                preemptions_before: preemptions,
            });
            if is_preempt {
                preemptions += 1;
            }
            trace.push(Step {
                thread: chosen,
                point,
            });
            inner.grant = Some(chosen);
            prev = Some(chosen);
            state.cv.notify_all();
            drop(inner);
        }

        if hung {
            // The threads may be blocked for good; detaching beats hanging
            // the whole exploration (the scenario state they pin is leaked).
            drop(handles);
        } else {
            for handle in handles {
                let _ = handle.join();
            }
        }

        if failure.is_none() {
            if let Some(check) = check {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(check)) {
                    failure = Some(Failure {
                        kind: FailureKind::Panic,
                        scenario: scenario.name.clone(),
                        schedule_index,
                        message: format!("post-schedule check: {}", panic_text(payload)),
                        trace: trace.clone(),
                    });
                }
            }
        }

        #[cfg(feature = "check-oracle")]
        reclaim_core::oracle::clear_context();

        ScheduleOutcome {
            decisions,
            trace,
            failure,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Two threads doing a non-atomic read-modify-write around a pause point:
    /// the textbook lost update, findable with a single preemption.
    fn racy_counter() -> Scenario {
        Scenario::new("racy-counter", || {
            let x = Arc::new(AtomicUsize::new(0));
            let mut run = ScenarioRun::new();
            for _ in 0..2 {
                let x = Arc::clone(&x);
                run = run.thread(move || {
                    let v = x.load(Ordering::SeqCst);
                    interleave::hit("racy::between_load_and_store");
                    x.store(v + 1, Ordering::SeqCst);
                });
            }
            run.check(move || assert_eq!(x.load(Ordering::SeqCst), 2, "lost update"))
        })
    }

    /// Same shape, but with atomic increments: correct under every schedule.
    fn safe_counter() -> Scenario {
        Scenario::new("safe-counter", || {
            let x = Arc::new(AtomicUsize::new(0));
            let mut run = ScenarioRun::new();
            for _ in 0..2 {
                let x = Arc::clone(&x);
                run = run.thread(move || {
                    interleave::hit("safe::before_increment");
                    x.fetch_add(1, Ordering::SeqCst);
                });
            }
            run.check(move || assert_eq!(x.load(Ordering::SeqCst), 2))
        })
    }

    #[test]
    fn finds_the_lost_update_and_the_trace_replays() {
        let explorer = Explorer::new().with_preemption_bound(1);
        let report = explorer.explore(&racy_counter());
        let failure = report
            .failure
            .expect("the lost update needs exactly one preemption");
        assert_eq!(failure.kind, FailureKind::Panic);
        assert!(
            failure.message.contains("lost update"),
            "got: {}",
            failure.message
        );
        assert!(
            report.schedules > 1,
            "schedule #0 is the clean straight-line run"
        );

        // The printed schedule replays to the same verdict.
        let schedule = schedule_of(&failure.trace);
        let replayed = explorer
            .replay(&racy_counter(), &schedule)
            .expect_err("the failing schedule must reproduce");
        assert_eq!(replayed.kind, FailureKind::Panic);
        assert!(replayed.message.contains("lost update"));
        assert_eq!(
            replayed.trace, failure.trace,
            "replay walks the identical trace"
        );
    }

    #[test]
    fn zero_preemptions_miss_the_lost_update() {
        let report = Explorer::new()
            .with_preemption_bound(0)
            .explore(&racy_counter());
        // With no preemptions each thread runs to completion in turn; the
        // increments serialize and the bug stays hidden — which is exactly
        // why the bound matters.
        report.assert_exhaustive();
        assert_eq!(
            report.schedules, 2,
            "one run-to-completion order per first choice"
        );
    }

    #[test]
    fn clean_scenario_explores_exhaustively() {
        let report = Explorer::new().explore(&safe_counter());
        report.assert_exhaustive();
        assert!(
            report.schedules >= 4,
            "both interleavings of two 2-yield threads"
        );
    }

    #[test]
    fn divergent_replay_is_reported_not_hung() {
        // Thread 7 never exists, so the first decision cannot follow it.
        let failure = Explorer::new()
            .replay(&safe_counter(), &[7, 0, 1])
            .expect_err("impossible schedule");
        assert_eq!(failure.kind, FailureKind::Divergence);
        assert!(
            failure.message.contains("wants thread 7"),
            "got: {}",
            failure.message
        );
    }

    #[test]
    fn next_prefix_respects_the_preemption_bound() {
        // One decision, threads {0, 1}, thread 0 (the default) chosen, with
        // the budget already spent: switching to 1 would preempt, so there is
        // no alternative within the bound.
        let decisions = vec![Decision {
            runnable: vec![0, 1],
            chosen: 0,
            default_choice: 0,
            prev: Some(0),
            preemptions_before: 2,
        }];
        assert_eq!(next_prefix(&decisions, 2), None);
        // With headroom the sibling is offered.
        assert_eq!(next_prefix(&decisions, 3), Some(vec![1]));
    }
}
