//! Where the fence of a reservation publication is paid.
//!
//! A reader that publishes a reservation — a hazard pointer, an epoch pin — and
//! then loads what the reservation is about (the link it re-validates, the
//! global epoch it tags its retires with) races with a scanner that does the
//! mirror image: it unlinks a node or loads the epoch, and then reads the
//! reservations. One side's store must be visible to the other side's load,
//! and on every machine with store buffers that takes a full fence between the
//! store and the load — on *both* sides. The scanner's is cheap (it runs once
//! per `R` retires); the reader's is the cost the paper is about, paid once per
//! node traversed by classic HP (Algorithm 1, line 3) and once per operation by
//! EBR. This module holds the three ways this workspace pays it — three answers
//! to *who issues the barrier the reader's CPU passes through*
//! ([`FenceStrategy`]):
//!
//! * **reader-fenced** — the paper's protocol: `SeqCst` fence after every
//!   publication. Runs everywhere.
//! * **scanner-barrier** — the asymmetric form of the same protocol: readers
//!   issue a compiler fence only, and the scanner runs the reader's fence *for*
//!   it, on every CPU a sibling thread occupies, with one
//!   `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)` between its own store or
//!   load and its read of the reservations ([`scanner_barrier`]). A publication
//!   is then either drained before that read, or was issued after the barrier —
//!   in which case the publisher's own load also follows the barrier: HP's
//!   validation sees the unlink and fails, EBR's tag load sees an epoch at
//!   least as new as the one being advanced from. `reclaim-check`'s
//!   store-buffer litmus enumerates both cases for both schemes (and convicts
//!   each protocol with the barrier moved *after* the read). Needs Linux
//!   ≥ 4.14 and a seccomp profile that lets `membarrier` through (Docker's
//!   default does not).
//! * **rooster** — the paper's Cadence, and QSense: compiler fence on the
//!   reader, and the process's one rooster thread issuing [`process_barrier`]
//!   every `T` on behalf of every subscribed scheme. Scans never issue.
//!
//! The hazard-pointer family frees by **one rule** under all three, kept by a
//! [`BarrierLedger`] per scheme instance: whoever issues a process-wide barrier
//! on the scheme's behalf bumps `started` before it and raises `completed` to
//! that ticket after it returns; a retire stamps its node with `started` as
//! read *after* the unlink; a node may be freed once it is absent from a
//! snapshot taken after `completed > stamp` — a whole barrier ran after the
//! unlink, so every publication that could have validated against the node is
//! visible. The paper states the same condition as a duration (`T + ε`,
//! Property 1) because a 2016 process could not observe its rooster's wake-up;
//! `membarrier`'s return can be observed, so no clock is read and no tolerance
//! is needed. `reclaim-check`'s ledger litmus enumerates the rule and convicts
//! its four near misses (stamp before the unlink, `completed ≥ stamp`, sharing
//! on `started`, `completed` raised before the return).
//!
//! Every scheme chooses its strategy **once per process, from what the kernel
//! answers** ([`FenceStrategy::detect`], [`FenceStrategy::detect_rooster`]): no
//! configuration field, flag, environment variable or cargo feature selects.
//! The reader's fence, the scanner's barrier and the scan batch that amortises
//! it are one [`FenceStrategy`] value, so they cannot disagree.
//!
//! The syscall is issued directly (no `libc` dependency) on x86-64 and aarch64
//! Linux; everywhere else it reports `ENOSYS` and the fallbacks run.

use crate::pad::CachePadded;
use crate::stats::StatStripe;
use std::sync::atomic::{compiler_fence, fence, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `MEMBARRIER_CMD_QUERY`: the mask of commands the kernel supports.
const CMD_QUERY: i64 = 0;
/// `MEMBARRIER_CMD_GLOBAL`: a barrier on every running thread of the system,
/// by waiting out an RCU grace period (8–20 ms per call on this kernel).
const CMD_GLOBAL: i64 = 1;
/// `MEMBARRIER_CMD_PRIVATE_EXPEDITED`: a barrier on every running thread of
/// this process, by inter-processor interrupt (microseconds).
const CMD_PRIVATE_EXPEDITED: i64 = 1 << 3;
/// `MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED`: the one-time registration the
/// expedited command requires (`EPERM` without it).
const CMD_REGISTER_PRIVATE_EXPEDITED: i64 = 1 << 4;

/// `membarrier(cmd, 0, 0)`: the command's result, or a negated `errno`.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn sys_membarrier(cmd: i64) -> i64 {
    const NR_MEMBARRIER: i64 = 324;
    let ret: i64;
    // SAFETY: membarrier(2) takes no pointers and cannot fault; all register clobbers are declared.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") NR_MEMBARRIER => ret,
            in("rdi") cmd,
            in("rsi") 0_i64,
            in("rdx") 0_i64,
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
    }
    ret
}

/// `membarrier(cmd, 0, 0)`: the command's result, or a negated `errno`.
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
fn sys_membarrier(cmd: i64) -> i64 {
    const NR_MEMBARRIER: i64 = 283;
    let ret: i64;
    // SAFETY: membarrier(2) takes no pointers and cannot fault; all register clobbers are declared.
    unsafe {
        core::arch::asm!(
            "svc 0",
            inlateout("x0") cmd => ret,
            in("x1") 0_i64,
            in("x2") 0_i64,
            in("x8") NR_MEMBARRIER,
            options(nostack),
        );
    }
    ret
}

/// No `membarrier` on this platform: every command answers `-ENOSYS`.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn sys_membarrier(_cmd: i64) -> i64 {
    -38
}

/// The strongest process-wide barrier available, strongest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcessBarrier {
    /// `MEMBARRIER_CMD_PRIVATE_EXPEDITED`, registered: microseconds.
    Expedited,
    /// `MEMBARRIER_CMD_GLOBAL`: an RCU grace period, milliseconds.
    Global,
    /// No kernel barrier: a `SeqCst` fence on the calling thread only.
    LocalFence,
}

impl ProcessBarrier {
    /// Name for logs and the bench environment.
    pub fn name(self) -> &'static str {
        match self {
            ProcessBarrier::Expedited => "membarrier_private_expedited",
            ProcessBarrier::Global => "membarrier_global",
            ProcessBarrier::LocalFence => "seqcst_fence_only",
        }
    }

    /// Asks `membarrier` (the syscall, or a test's stand-in) what it offers.
    /// The expedited command counts only if the query lists it, the
    /// registration succeeds **and** one trial call succeeds: a seccomp
    /// profile can refuse any of the three independently.
    fn probe(membarrier: impl Fn(i64) -> i64) -> Self {
        let mask = membarrier(CMD_QUERY);
        if mask < 0 {
            return ProcessBarrier::LocalFence;
        }
        let expedited = CMD_PRIVATE_EXPEDITED | CMD_REGISTER_PRIVATE_EXPEDITED;
        if mask & expedited == expedited
            && membarrier(CMD_REGISTER_PRIVATE_EXPEDITED) == 0
            && membarrier(CMD_PRIVATE_EXPEDITED) == 0
        {
            ProcessBarrier::Expedited
        } else if mask & CMD_GLOBAL != 0 {
            ProcessBarrier::Global
        } else {
            ProcessBarrier::LocalFence
        }
    }

    /// What this process's kernel offers. Probed — and the process registered
    /// for the expedited command — on the first call, once.
    pub fn detected() -> Self {
        static DETECTED: OnceLock<ProcessBarrier> = OnceLock::new();
        *DETECTED.get_or_init(|| Self::probe(sys_membarrier))
    }
}

thread_local! {
    /// Test hook: while set, [`expedited_barrier`] on this thread reports a
    /// refusal without calling the kernel. Public, and compiled always,
    /// because the scan it refuses lives in `hazard` (`hp_scan`), whose tests
    /// this crate's `cfg(test)` does not reach; one thread-local load per
    /// barrier, against the microseconds the barrier costs.
    #[doc(hidden)]
    pub static REFUSE_EXPEDITED: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

/// The scanner's half of the scanner-barrier protocol: a full fence on the
/// caller, then `MEMBARRIER_CMD_PRIVATE_EXPEDITED` — every sibling thread
/// passes through a full barrier between this call's entry and its return.
/// Costs the caller microseconds when a sibling is running (see
/// [`SCANNER_BARRIER_SCAN_BATCH`]).
///
/// Returns `false` if the kernel refused (or the command was never available):
/// the caller has then proved nothing about its siblings' store buffers and
/// must free nothing on the strength of this call.
#[must_use]
pub fn expedited_barrier() -> bool {
    if REFUSE_EXPEDITED.get() {
        return false;
    }
    // membarrier(2) documents the barrier its *siblings* pass through; that the
    // caller's own unlink is ordered before it, and its snapshot after, is
    // this fence (the kernel skips its own when the process has one thread).
    fence(Ordering::SeqCst);
    ProcessBarrier::detected() == ProcessBarrier::Expedited
        && sys_membarrier(CMD_PRIVATE_EXPEDITED) == 0
}

/// [`expedited_barrier`] as a scan issues it — the one author of the scanner's
/// half, for `hazard::hp_scan` and EBR's epoch advance alike: counted
/// in `heavy_barriers` on `stats`, a refusal also in `heavy_barrier_failures`.
/// On `false` the caller frees nothing and advances nothing.
#[must_use]
pub fn scanner_barrier(stats: &StatStripe) -> bool {
    stats.add_heavy_barrier();
    let ran = expedited_barrier();
    if !ran {
        stats.add_heavy_barrier_failure();
    }
    ran
}

/// One process-wide barrier with the strongest mechanism that works —
/// expedited, else global, else a `SeqCst` fence on the caller alone — and
/// which one ran. This is the rooster's wake-up. A caller that gets
/// [`ProcessBarrier::LocalFence`] back has drained no sibling's store buffer
/// and must not enter the call in a [`BarrierLedger`] as completed.
pub fn process_barrier() -> ProcessBarrier {
    if expedited_barrier() {
        return ProcessBarrier::Expedited;
    }
    if ProcessBarrier::detected() != ProcessBarrier::LocalFence && sys_membarrier(CMD_GLOBAL) == 0 {
        return ProcessBarrier::Global;
    }
    fence(Ordering::SeqCst);
    ProcessBarrier::LocalFence
}

/// The reader's half of the scanner-barrier and rooster protocols: a compiler
/// fence, so the publication is not reordered (by the compiler) after the
/// caller's validation load. The hardware ordering is the scanner's barrier
/// or the rooster's.
#[inline]
fn compiler_only() {
    compiler_fence(Ordering::SeqCst);
}

/// How far [`FenceStrategy::ScannerBarrier`] stretches the count threshold: a
/// handle scans — HP — or tries to advance the epoch — EBR — every
/// `scan_threshold × 8` retires (a limbo-budget crossing still forces a scan
/// at once).
///
/// The barrier is cheap for the machine and dear for its caller, which waits
/// out an inter-processor interrupt. On this repository's benchmark host (2
/// vCPUs of a virtualised Xeon, where interrupts between vCPUs are at their
/// most expensive), 50 000 timed calls each: **0.2 µs** with every sibling
/// parked; **14–17 µs** median (7–13 µs mean) with one sibling running; with
/// two threads calling at once a call either finds the other's barrier in
/// flight and takes 0.2 µs or queues behind it for 33–35 µs (p90), **12–16 µs**
/// mean.
///
/// `queue_churn` (one retire per two operations, `scan_threshold` 128, two
/// threads) is the benchmark workload that scans most and gains nothing from
/// the cheaper `protect`, so it sized the factor — `mops.hp`, three 30 s runs
/// per row (seeds 11–13), rows interleaved:
///
/// | protocol, scans every | `mops.hp`, the three runs | median | barriers / s |
/// |---|---|---|---|
/// | reader-fenced, `R` (parent commit) | 5.86, 5.89, 5.64 | 5.86 | — |
/// | scanner-barrier, `R` | 5.47, 5.29, 4.97 | 5.29 | ≈ 21 000 |
/// | scanner-barrier, `4 R` | 6.07, 6.19, 5.78 | 6.07 | ≈ 5 900 |
/// | scanner-barrier, `8 R` | 6.29, 6.09, 6.21 | 6.21 | ≈ 3 000 |
/// | scanner-barrier, `16 R` | 6.36, 6.37, 6.30 | 6.36 | ≈ 1 550 |
///
/// Un-amortised, the barrier is a tenth of the workload's throughput. At ×8 it
/// is about 2 % of a scanning thread's time (1 500 barriers a second at 15 µs)
/// and HP is ahead of its fenced self; ×16 can recover at most half of that
/// 2 % — what it read here is inside the spread between runs — and doubles the
/// unreclaimed batch and the pre-sized pool. Where interrupts are cheaper the
/// factor matters less, not differently.
///
/// EBR's epoch advance took the same seam a PR later, and the same table —
/// `mops.ebr`, same workload, seeds and interleaving, one barrier per advance
/// attempt that no visible pin blocks:
///
/// | protocol, an attempt every | `mops.ebr`, the three runs | median |
/// |---|---|---|
/// | two `SeqCst` pin stores, `R` (parent commit) | 4.79, 4.70, 4.81 | 4.79 |
/// | scanner-barrier, `R` | 4.11, 4.66, 4.51 | 4.51 |
/// | scanner-barrier, `4 R` | 5.07, 4.88, 5.13 | 5.07 |
/// | scanner-barrier, `8 R` | 5.22, 5.42, 5.25 | 5.25 |
/// | scanner-barrier, `16 R` | 5.66, 5.35, 5.49 | 5.49 |
///
/// The same shape — a loss un-amortised (−6 %), ahead from ×4 — so EBR shares
/// the constant. ×16 read 4.6 % above ×8 here (two seeds of three) where HP's
/// read 2 %: an EBR node waits out three advances, not one scan, so the
/// factor multiplies a limbo three deep (`limbo_peak_kib.ebr` 131, 136, 235 →
/// 243, 308, 317 KiB at ×8 over three traced runs of this workload). A second
/// constant would buy that 4.6 % with twice that memory again; not taken.
///
/// Both tables were read while a scan freed its whole batch in one burst — a
/// cost that itself grew with the factor — and are to be re-derived now that
/// the core frees a few nodes a retire (`limbo`'s free stage).
pub const SCANNER_BARRIER_SCAN_BATCH: usize = 8;

/// Who issues the process-wide barrier behind a compiler-fenced publication —
/// the reader's fence, the scanner's barrier and the scan batch, as one value
/// (module docs). Classic HP and EBR run one of the first two; Cadence and
/// QSense the third, or the first where the kernel has no process-wide barrier
/// for a rooster to issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FenceStrategy {
    /// The paper's HP (Algorithm 1): `SeqCst` fence per publication, no
    /// barrier to wait for, a scan every `scan_threshold` retires.
    ReaderFenced,
    /// Compiler fence per publication, one [`scanner_barrier`] per scan that
    /// no sibling's barrier already covered, a scan every `scan_threshold ×`
    /// [`SCANNER_BARRIER_SCAN_BATCH`] retires.
    ScannerBarrier,
    /// The paper's Cadence: compiler fence per publication, scans never issue
    /// a barrier and free only what the process rooster's last completed tick
    /// covers. Not a protocol of EBR, which has no ledger for a rooster to
    /// raise.
    Rooster,
}

impl FenceStrategy {
    /// The protocol classic HP and EBR run in this process: scanner-barrier
    /// where the kernel registered and ran the expedited command, the paper's
    /// everywhere else.
    pub fn detect() -> Self {
        Self::for_barrier(ProcessBarrier::detected())
    }

    /// [`detect`](Self::detect) for a process whose strongest barrier is
    /// `barrier`.
    pub fn for_barrier(barrier: ProcessBarrier) -> Self {
        match barrier {
            ProcessBarrier::Expedited => FenceStrategy::ScannerBarrier,
            ProcessBarrier::Global | ProcessBarrier::LocalFence => FenceStrategy::ReaderFenced,
        }
    }

    /// The protocol Cadence and QSense run in this process: rooster where the
    /// kernel offers any process-wide barrier; where it offers none a ledger
    /// could never advance, so they run reader-fenced.
    pub fn detect_rooster() -> Self {
        match ProcessBarrier::detected() {
            ProcessBarrier::Expedited | ProcessBarrier::Global => FenceStrategy::Rooster,
            ProcessBarrier::LocalFence => FenceStrategy::ReaderFenced,
        }
    }

    /// Name for logs and the `fence_strategy` field of the bench reports.
    pub fn name(self) -> &'static str {
        match self {
            FenceStrategy::ReaderFenced => "reader_fenced",
            FenceStrategy::ScannerBarrier => "scanner_barrier",
            FenceStrategy::Rooster => "rooster",
        }
    }

    /// The fence between a publication and the publisher's next load (HP's
    /// validation, EBR's tag). True when it was a hardware fence (what the
    /// hazard-pointer family counts in `traversal_fences`).
    #[inline]
    pub fn publication_fence(self) -> bool {
        match self {
            FenceStrategy::ReaderFenced => {
                fence(Ordering::SeqCst);
                true
            }
            FenceStrategy::ScannerBarrier | FenceStrategy::Rooster => {
                compiler_only();
                false
            }
        }
    }

    /// Count-threshold scans run every `scan_threshold ×` this many retires.
    pub fn scan_batch(self) -> usize {
        match self {
            FenceStrategy::ReaderFenced | FenceStrategy::Rooster => 1,
            FenceStrategy::ScannerBarrier => SCANNER_BARRIER_SCAN_BATCH,
        }
    }
}

/// The two counters of a [`BarrierLedger`], on a line of their own: every
/// retire of the scheme loads `started`, and each barrier writes both.
#[derive(Default)]
struct Tickets {
    started: AtomicU64,
    completed: AtomicU64,
}

impl Tickets {
    /// Before a barrier: its ticket. `SeqCst`, so every stamp read before
    /// this bump — and the unlink before that stamp — precedes the barrier.
    fn start(&self) -> u64 {
        self.started.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// After the barrier with `ticket` returned. `Release`: a scan that reads
    /// the raised counter takes its snapshot after that barrier.
    fn complete(&self, ticket: u64) {
        self.completed.fetch_max(ticket, Ordering::Release);
    }
}

/// One scheme instance's record of the process-wide barriers issued on its
/// behalf, and the hazard-pointer family's one free rule (module docs): a node
/// stamped [`stamp`](Self::stamp) after its unlink is *covered* — every
/// publication that validated against it is visible — once
/// [`completed`](Self::completed) exceeds the stamp.
///
/// Per scheme instance, not per process: a process-wide ledger would let one
/// scheme's scans (or, under `cargo test`, one test's) age another's nodes.
/// Under [`FenceStrategy::Rooster`] the process rooster raises it every
/// `rooster_interval`, from construction to drop.
pub struct BarrierLedger {
    strategy: FenceStrategy,
    tickets: Arc<CachePadded<Tickets>>,
    /// The process rooster holds a clone of `tickets`.
    subscribed: bool,
}

impl BarrierLedger {
    /// A ledger at ticket 0 for a scheme running `strategy`. Under
    /// [`FenceStrategy::Rooster`] it subscribes to the process rooster at
    /// `rooster_interval` — except at `Duration::MAX`, "never": the ledger
    /// then advances only when its owner calls [`issue`](Self::issue), which
    /// is how deterministic tests count ticks instead of sleeping.
    pub fn new(strategy: FenceStrategy, rooster_interval: Duration) -> Self {
        let tickets = Arc::<CachePadded<Tickets>>::default();
        let subscribed = strategy == FenceStrategy::Rooster && rooster_interval != Duration::MAX;
        if subscribed {
            subscribe(&tickets, rooster_interval);
        }
        Self {
            strategy,
            tickets,
            subscribed,
        }
    }

    /// Who issues this scheme's barriers.
    pub fn strategy(&self) -> FenceStrategy {
        self.strategy
    }

    /// The stamp of a node retired now. Call it **after** the unlink: a
    /// barrier counts for the node only if it started after the stamp was
    /// read, and so after the unlink (`SeqCst`, ordered after the structures'
    /// `SeqCst` unlink and before the issuer's `SeqCst` bump).
    #[inline]
    pub fn stamp(&self) -> u64 {
        self.tickets.started.load(Ordering::SeqCst)
    }

    /// The newest ticket whose barrier has returned. `Acquire`, paired with
    /// the issuer's `Release`: a snapshot taken after this load is taken after
    /// that barrier.
    pub fn completed(&self) -> u64 {
        self.tickets.completed.load(Ordering::Acquire)
    }

    /// Whether a barrier that started after `stamp` was read has returned.
    /// Monotonic: once true of a stamp it stays true, and it is true of every
    /// smaller stamp.
    pub fn covers(&self, stamp: u64) -> bool {
        self.completed() > stamp
    }

    /// Runs `barrier` on this ledger's books: takes a ticket before it and,
    /// if it reports success, raises `completed` to the ticket after it
    /// returns. Returns `barrier`'s answer; a refused barrier covers nothing.
    ///
    /// # Safety
    ///
    /// `barrier` may return true only if every sibling thread of the process
    /// passed through a full memory barrier between its call and its return
    /// ([`expedited_barrier`], or [`process_barrier`] not answering
    /// [`ProcessBarrier::LocalFence`]) — or if no sibling can hold a
    /// protection published through this ledger's scheme, as in a
    /// single-threaded test.
    pub unsafe fn issue(&self, barrier: impl FnOnce() -> bool) -> bool {
        let ticket = self.tickets.start();
        let ran = barrier();
        if ran {
            self.tickets.complete(ticket);
        }
        ran
    }
}

impl Drop for BarrierLedger {
    fn drop(&mut self) {
        if self.subscribed {
            unsubscribe(&self.tickets);
        }
    }
}

/// One ledger the process rooster ticks.
struct Subscriber {
    tickets: Arc<CachePadded<Tickets>>,
    interval: Duration,
    /// Its ticket for the barrier in flight (the rooster's scratch).
    ticket: u64,
}

/// The process's one rooster thread (paper §5.1: a rooster per core, each
/// forcing a context switch; here every wake-up is already process-wide, so
/// one thread serves every Cadence and QSense instance). It runs while any
/// ledger is subscribed, sleeps the shortest subscribed interval and issues
/// one [`process_barrier`] per wake-up for all of them.
struct Rooster {
    subscribers: Vec<Subscriber>,
    thread: Option<JoinHandle<()>>,
    /// Bumped when the last subscriber leaves: tells the thread of an earlier
    /// generation to exit even if a new subscriber has arrived since.
    generation: u64,
}

static ROOSTER: Mutex<Rooster> = Mutex::new(Rooster {
    subscribers: Vec::new(),
    thread: None,
    generation: 0,
});
/// Signalled on every subscription change, so the sleeper re-reads the
/// shortest interval or exits.
static ROOSTER_WAKE: Condvar = Condvar::new();

fn rooster() -> MutexGuard<'static, Rooster> {
    // No update of the state can panic half-way, so a poisoned lock (a
    // panicking test thread dropping its scheme) still guards a valid value.
    ROOSTER.lock().unwrap_or_else(|e| e.into_inner())
}

fn subscribe(tickets: &Arc<CachePadded<Tickets>>, interval: Duration) {
    let mut rooster = rooster();
    rooster.subscribers.push(Subscriber {
        tickets: Arc::clone(tickets),
        interval,
        ticket: 0,
    });
    if rooster.thread.is_none() {
        let generation = rooster.generation;
        let thread = std::thread::Builder::new()
            .name("rooster".to_string())
            .spawn(move || rooster_loop(generation))
            .expect("failed to spawn the rooster thread");
        rooster.thread = Some(thread);
    }
    ROOSTER_WAKE.notify_all();
}

fn unsubscribe(tickets: &Arc<CachePadded<Tickets>>) {
    let mut rooster = rooster();
    rooster
        .subscribers
        .retain(|subscriber| !Arc::ptr_eq(&subscriber.tickets, tickets));
    if !rooster.subscribers.is_empty() {
        return;
    }
    rooster.generation += 1;
    let thread = rooster.thread.take();
    drop(rooster);
    ROOSTER_WAKE.notify_all();
    if let Some(thread) = thread {
        // The loop cannot panic; a join error has nothing to report to.
        let _ = thread.join();
    }
}

/// The rooster thread: assumed to keep ticking while workers may be delayed
/// arbitrarily (the synchronous part of the paper's model, assumption 3); it
/// never touches a data structure. The lock is held across the barrier, so a
/// ledger that has unsubscribed is never raised again.
fn rooster_loop(generation: u64) {
    let mut rooster = rooster();
    let mut last_tick = Instant::now();
    while rooster.generation == generation {
        let intervals = rooster.subscribers.iter().map(|s| s.interval);
        let interval = intervals.min().unwrap_or(Duration::MAX);
        let sleep = interval.saturating_sub(last_tick.elapsed());
        if !sleep.is_zero() {
            // Any wake-up — timeout, subscription change, spurious — re-reads
            // the generation, the shortest interval and the time.
            let (guard, _) = ROOSTER_WAKE
                .wait_timeout(rooster, sleep)
                .unwrap_or_else(|e| e.into_inner());
            rooster = guard;
            continue;
        }
        // The wake-up: the moment the paper's context switch would occur.
        // One barrier serves every subscriber; each gets its own ticket.
        for subscriber in &mut rooster.subscribers {
            subscriber.ticket = subscriber.tickets.start();
        }
        if process_barrier() != ProcessBarrier::LocalFence {
            for subscriber in &rooster.subscribers {
                subscriber.tickets.complete(subscriber.ticket);
            }
        }
        last_tick = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPERM: i64 = -1;

    /// A kernel offering every command, refusing those in `refused`.
    fn kernel(refused: &'static [i64]) -> impl Fn(i64) -> i64 {
        move |cmd| match cmd {
            _ if refused.contains(&cmd) => EPERM,
            CMD_QUERY => CMD_GLOBAL | CMD_PRIVATE_EXPEDITED | CMD_REGISTER_PRIVATE_EXPEDITED,
            _ => 0,
        }
    }

    #[test]
    fn the_probe_takes_the_expedited_command_only_when_all_three_calls_succeed() {
        use ProcessBarrier::*;
        assert_eq!(ProcessBarrier::probe(kernel(&[])), Expedited);
        // Docker's default seccomp profile: the whole syscall is filtered.
        assert_eq!(ProcessBarrier::probe(kernel(&[CMD_QUERY])), LocalFence);
        assert_eq!(
            ProcessBarrier::probe(kernel(&[CMD_REGISTER_PRIVATE_EXPEDITED])),
            Global
        );
        assert_eq!(
            ProcessBarrier::probe(kernel(&[CMD_PRIVATE_EXPEDITED])),
            Global
        );
        // A pre-4.14 kernel: only the global command exists.
        assert_eq!(ProcessBarrier::probe(|_| CMD_GLOBAL), Global);
        assert_eq!(ProcessBarrier::probe(|_| 0), LocalFence);
        // No `membarrier` at all.
        assert_eq!(ProcessBarrier::probe(|_| -38), LocalFence);
    }

    #[test]
    fn only_a_working_expedited_barrier_selects_the_scanner_side_protocol() {
        use ProcessBarrier::*;
        assert_eq!(
            FenceStrategy::for_barrier(Expedited),
            FenceStrategy::ScannerBarrier
        );
        for fallback in [Global, LocalFence] {
            let strategy = FenceStrategy::for_barrier(fallback);
            assert_eq!(strategy, FenceStrategy::ReaderFenced);
            assert_eq!(strategy.scan_batch(), 1, "today's scan cadence");
            assert!(strategy.publication_fence(), "today's reader fence");
        }
        let barrier = FenceStrategy::ScannerBarrier;
        assert_eq!(barrier.scan_batch(), SCANNER_BARRIER_SCAN_BATCH);
        assert!(!barrier.publication_fence());
    }

    #[test]
    fn any_process_wide_barrier_selects_the_rooster_and_none_the_readers_fence() {
        let rooster = FenceStrategy::Rooster;
        assert_eq!(rooster.scan_batch(), 1);
        assert!(!rooster.publication_fence());
        // A rooster that fences only itself drains no one: the ledger could
        // never advance, so the readers fence for themselves.
        let fence_only = ProcessBarrier::detected() == ProcessBarrier::LocalFence;
        let expected = if fence_only {
            FenceStrategy::ReaderFenced
        } else {
            rooster
        };
        assert_eq!(FenceStrategy::detect_rooster(), expected);
    }

    /// A ledger no rooster ticks.
    fn manual_ledger() -> BarrierLedger {
        BarrierLedger::new(FenceStrategy::Rooster, Duration::MAX)
    }

    fn issue(ledger: &BarrierLedger, barrier: impl FnOnce() -> bool) -> bool {
        // SAFETY: single-threaded tests: no sibling publishes anything.
        unsafe { ledger.issue(barrier) }
    }

    #[test]
    fn a_stamp_is_covered_only_by_a_barrier_that_started_after_it_and_returned() {
        let ledger = manual_ledger();
        let stamp = ledger.stamp();
        assert_eq!((stamp, ledger.completed()), (0, 0));
        assert!(!ledger.covers(stamp), "no barrier yet");
        assert!(!issue(&ledger, || false), "refused");
        assert!(!ledger.covers(stamp), "a refused barrier covers nothing");
        // Started, not yet returned: neither the old stamp nor one read now
        // is covered.
        let mid_flight = || !ledger.covers(stamp) && !ledger.covers(ledger.stamp());
        assert!(issue(&ledger, mid_flight));
        assert!(ledger.covers(stamp), "ticket 2 > stamp 0");
        let during = ledger.stamp();
        assert_eq!((during, ledger.completed()), (2, 2));
        assert!(
            !ledger.covers(during),
            "completed == stamp: that barrier started before the stamp was read"
        );
        assert!(issue(&ledger, || true));
        assert!(ledger.covers(during));
    }

    #[test]
    fn a_slow_barrier_returning_last_does_not_lower_completed() {
        let ledger = manual_ledger();
        issue(&ledger, || {
            // A second barrier starts later and returns first.
            assert!(issue(&ledger, || true));
            assert_eq!(ledger.completed(), 2);
            true
        });
        assert_eq!((ledger.stamp(), ledger.completed()), (2, 2));
    }

    #[test]
    fn the_rooster_raises_a_subscribed_ledger_and_only_that() {
        let manual = manual_ledger();
        let reader_fenced =
            BarrierLedger::new(FenceStrategy::ReaderFenced, Duration::from_millis(1));
        let ticking = BarrierLedger::new(FenceStrategy::Rooster, Duration::from_millis(1));
        assert!(ticking.subscribed && !manual.subscribed && !reader_fenced.subscribed);
        if ProcessBarrier::detected() == ProcessBarrier::LocalFence {
            println!("skipped: no process-wide barrier for a rooster to complete");
            return;
        }
        // Three tickets, not three sleeps: a rooster that never ticks hangs
        // here; one that ticks at any pace passes.
        let stamp = ticking.stamp() + 2;
        while !ticking.covers(stamp) {
            std::thread::yield_now();
        }
        assert_eq!((manual.stamp(), reader_fenced.stamp()), (0, 0));
    }

    #[test]
    fn leaving_the_rooster_does_not_wait_out_its_interval() {
        let start = Instant::now();
        drop(BarrierLedger::new(
            FenceStrategy::Rooster,
            Duration::from_secs(3600),
        ));
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "unsubscribing must not wait for the sleep interval"
        );
    }

    #[test]
    fn detection_is_stable_and_the_barriers_agree_with_it() {
        let detected = ProcessBarrier::detected();
        assert_eq!(detected, ProcessBarrier::detected());
        println!(
            "membarrier: {} -> hp fence strategy: {}",
            detected.name(),
            FenceStrategy::detect().name()
        );
        assert_eq!(expedited_barrier(), detected == ProcessBarrier::Expedited);
        // The rooster's barrier runs the strongest mechanism; a kernel that
        // answered the probe does not refuse the same command later.
        assert_eq!(process_barrier(), detected);
        assert_eq!(process_barrier(), detected);
    }

    #[test]
    fn the_scanners_barrier_is_counted_and_a_refusal_reported() {
        let stats = StatStripe::new();
        let counted = || {
            let snap = stats.snapshot();
            (snap.heavy_barriers, snap.heavy_barrier_failures)
        };
        REFUSE_EXPEDITED.set(true);
        assert!(!scanner_barrier(&stats));
        REFUSE_EXPEDITED.set(false);
        assert_eq!(counted(), (1, 1));
        let works = ProcessBarrier::detected() == ProcessBarrier::Expedited;
        assert_eq!(scanner_barrier(&stats), works);
        assert_eq!(counted(), (2, 1 + u64::from(!works)));
    }

    #[test]
    fn the_test_hook_refuses_the_barrier_on_this_thread_only() {
        REFUSE_EXPEDITED.set(true);
        assert!(!expedited_barrier());
        assert_ne!(process_barrier(), ProcessBarrier::Expedited);
        let elsewhere = std::thread::spawn(expedited_barrier).join().unwrap();
        assert_eq!(
            elsewhere,
            ProcessBarrier::detected() == ProcessBarrier::Expedited
        );
        REFUSE_EXPEDITED.set(false);
    }
}
