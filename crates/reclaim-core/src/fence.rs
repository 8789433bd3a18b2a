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
//! EBR. This module holds the three ways this workspace pays it, as the reason
//! a scan may trust what it reads ([`SnapshotProof`]):
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
//! * **aged `T + ε`** — Cadence and QSense: compiler fence on the reader, a
//!   rooster thread issuing [`process_barrier`] every `T`, and a scan that only
//!   frees nodes retired at least `T + ε` ago (paper Property 1).
//!
//! Classic HP and EBR choose between the first two **once per process, from
//! what the kernel answers** ([`FenceStrategy::detect`]): no configuration
//! field, flag, environment variable or cargo feature selects. The reader's
//! fence, the scanner's barrier and the scan batch that amortises it are one
//! [`FenceStrategy`] value, so they cannot disagree.
//!
//! The syscall is issued directly (no `libc` dependency) on x86-64 and aarch64
//! Linux; everywhere else it reports `ENOSYS` and the fallbacks run.

use crate::clock::Nanos;
use crate::stats::StatStripe;
use std::sync::atomic::{compiler_fence, fence, Ordering};
use std::sync::OnceLock;

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

#[cfg(test)]
thread_local! {
    /// Test hook: while set, [`expedited_barrier`] on this thread reports a
    /// refusal without calling the kernel.
    pub(crate) static REFUSE_EXPEDITED: std::cell::Cell<bool> =
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
    #[cfg(test)]
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
/// half, for [`hp_scan`](crate::hp_scan) and EBR's epoch advance alike: counted
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
/// which one ran. This is the rooster's wake-up: callers that get
/// [`ProcessBarrier::LocalFence`] back rely on the `T + ε` age bound
/// outlasting any store buffer, as every caller in this workspace does.
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

/// The reader's half of the scanner-barrier and aged protocols: a compiler
/// fence, so the publication is not reordered (by the compiler) after the
/// caller's validation load. The hardware ordering is the scanner's barrier
/// or the rooster's.
#[inline]
pub fn compiler_only() {
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
pub const SCANNER_BARRIER_SCAN_BATCH: usize = 8;

/// Classic HP's and EBR's protocol choice: the reader's fence, the scanner's
/// barrier and the scan batch, as one value (module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FenceStrategy {
    /// The paper's protocol (Algorithm 1): `SeqCst` fence per publication,
    /// no barrier per scan, a scan every `scan_threshold` retires.
    ReaderFenced,
    /// Compiler fence per publication, one [`scanner_barrier`] per scan, a
    /// scan every `scan_threshold ×` [`SCANNER_BARRIER_SCAN_BATCH`] retires.
    ScannerBarrier,
}

impl FenceStrategy {
    /// The protocol this process runs: scanner-barrier where the kernel
    /// registered and ran the expedited command, the paper's everywhere else.
    pub fn detect() -> Self {
        Self::for_barrier(ProcessBarrier::detected())
    }

    /// The protocol for a process whose strongest barrier is `barrier`.
    pub fn for_barrier(barrier: ProcessBarrier) -> Self {
        match barrier {
            ProcessBarrier::Expedited => FenceStrategy::ScannerBarrier,
            ProcessBarrier::Global | ProcessBarrier::LocalFence => FenceStrategy::ReaderFenced,
        }
    }

    /// Name for logs and the `fence_strategy` field of the bench reports.
    pub fn name(self) -> &'static str {
        match self {
            FenceStrategy::ReaderFenced => "reader_fenced",
            FenceStrategy::ScannerBarrier => "scanner_barrier",
        }
    }

    /// The fence between a publication and the publisher's next load (HP's
    /// validation, EBR's tag). True when it was a hardware fence (what HP
    /// counts in `traversal_fences`).
    #[inline]
    pub fn publication_fence(self) -> bool {
        match self {
            FenceStrategy::ReaderFenced => {
                fence(Ordering::SeqCst);
                true
            }
            FenceStrategy::ScannerBarrier => {
                compiler_only();
                false
            }
        }
    }

    /// Why a scan under this protocol may trust its snapshot.
    pub fn proof(self) -> SnapshotProof {
        match self {
            FenceStrategy::ReaderFenced => SnapshotProof::ReaderFenced,
            FenceStrategy::ScannerBarrier => SnapshotProof::ScannerBarrier,
        }
    }

    /// Count-threshold scans run every `scan_threshold ×` this many retires.
    pub fn scan_batch(self) -> usize {
        match self {
            FenceStrategy::ReaderFenced => 1,
            FenceStrategy::ScannerBarrier => SCANNER_BARRIER_SCAN_BATCH,
        }
    }
}

/// Why a hazard-pointer snapshot is complete — why a node that was retired
/// before the scan and is absent from the snapshot has no reader (the three
/// visibility arguments of the module docs). [`hp_scan`](crate::hp_scan) takes
/// one and does what it calls for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotProof {
    /// Every publication was followed by a `SeqCst` fence before its
    /// validation load, so one that validated is visible to the snapshot.
    ReaderFenced,
    /// Publications are compiler-fenced; the scan issues
    /// [`expedited_barrier`] after the last retire and before the snapshot,
    /// and frees nothing if the kernel refuses it.
    ScannerBarrier,
    /// Publications are compiler-fenced; the scan frees only nodes retired at
    /// least this long ago — `T + ε`, within which a rooster's
    /// [`process_barrier`] has run.
    Aged(Nanos),
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
            assert_eq!(strategy.proof(), SnapshotProof::ReaderFenced);
            assert!(strategy.publication_fence(), "today's reader fence");
        }
        let barrier = FenceStrategy::ScannerBarrier;
        assert_eq!(barrier.scan_batch(), SCANNER_BARRIER_SCAN_BATCH);
        assert_eq!(barrier.proof(), SnapshotProof::ScannerBarrier);
        assert!(!barrier.publication_fence());
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
