//! Asymmetric process-wide memory barrier.
//!
//! Cadence's correctness argument (paper §5.1, "Note on assumptions") rests on the
//! property that a context switch acts as a memory barrier for the thread being
//! switched out, so a rooster process waking up on every core publishes all worker
//! threads' outstanding hazard-pointer stores within one sleep interval `T`.
//!
//! A user-space Rust reproduction cannot force context switches on other threads, so
//! this module substitutes the mechanism while preserving the guarantee the proof
//! needs — *"every hazard-pointer store issued before time `t` is globally visible by
//! `t + T`"* — in two layers:
//!
//! 1. **`membarrier(2)`** (Linux): the `MEMBARRIER_CMD_GLOBAL` command makes the
//!    kernel execute a memory barrier on every CPU running a thread of this process,
//!    which is precisely the asymmetric fence the rooster wake-up stands in for. It is
//!    issued by the rooster thread once per wake-up, so its cost (an RCU grace period,
//!    tens of microseconds to a few milliseconds) is amortized over every operation
//!    performed during `T`, exactly like the paper's context switches.
//! 2. **Fallback** (non-Linux or unsupported kernels, probed once at run time): a
//!    plain `SeqCst` fence on the rooster thread plus the language-level guarantee
//!    that atomic stores become visible to other threads in finite time. On x86-TSO
//!    store buffers drain in nanoseconds while `T` is milliseconds, so the deferred
//!    reclamation wait of `T + ε` dominates by orders of magnitude.
//!
//! The syscall is issued directly (no `libc` dependency) on x86-64 and aarch64 Linux.

use std::sync::atomic::{fence, Ordering};
use std::sync::OnceLock;

/// `MEMBARRIER_CMD_QUERY`: ask the kernel which commands are supported.
const CMD_QUERY: i64 = 0;
/// `MEMBARRIER_CMD_GLOBAL`: execute a memory barrier on all CPUs running this process.
const CMD_GLOBAL: i64 = 1;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn sys_membarrier(cmd: i64, flags: i64) -> i64 {
    // syscall number for membarrier on x86-64 Linux.
    const NR_MEMBARRIER: i64 = 324;
    let ret: i64;
    // SAFETY: membarrier(2) takes no pointers and cannot fault; all register clobbers are declared.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") NR_MEMBARRIER => ret,
            in("rdi") cmd,
            in("rsi") flags,
            in("rdx") 0_i64,
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn sys_membarrier(cmd: i64, flags: i64) -> i64 {
    // syscall number for membarrier on aarch64 Linux.
    const NR_MEMBARRIER: i64 = 283;
    let ret: i64;
    // SAFETY: membarrier(2) takes no pointers and cannot fault; all register clobbers are declared.
    unsafe {
        core::arch::asm!(
            "svc 0",
            inlateout("x0") cmd => ret,
            in("x1") flags,
            in("x2") 0_i64,
            in("x8") NR_MEMBARRIER,
            options(nostack),
        );
    }
    ret
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
unsafe fn sys_membarrier(_cmd: i64, _flags: i64) -> i64 {
    // Unsupported platform: report "not implemented" so callers fall back.
    -38 // -ENOSYS
}

/// Whether `MEMBARRIER_CMD_GLOBAL` is available on this kernel. Queried once.
pub fn is_supported() -> bool {
    static SUPPORTED: OnceLock<bool> = OnceLock::new();
    *SUPPORTED.get_or_init(|| {
        // SAFETY: CMD_QUERY has no side effects; it only reports the supported mask.
        let mask = unsafe { sys_membarrier(CMD_QUERY, 0) };
        mask >= 0 && (mask & CMD_GLOBAL) != 0
    })
}

/// Issues a process-wide heavy barrier: every other thread of this process is
/// guaranteed to have executed a full memory barrier by the time this returns.
///
/// Returns `true` if the kernel-assisted barrier was used, `false` if only the local
/// `SeqCst` fence fallback ran (callers relying on the fallback must also rely on the
/// deferred-reclamation age bound, which every caller in this workspace does).
pub fn heavy_barrier() -> bool {
    if is_supported() {
        // SAFETY: CMD_GLOBAL only orders memory; it cannot fault or corrupt state.
        let ret = unsafe { sys_membarrier(CMD_GLOBAL, 0) };
        if ret == 0 {
            return true;
        }
    }
    fence(Ordering::SeqCst);
    false
}

/// The store-side companion of [`heavy_barrier`]: a compiler-only fence. Threads that
/// publish hazard pointers need no hardware fence because the heavy barrier (or the
/// `T + ε` age bound) provides the ordering; this just prevents compiler reordering
/// of the publication with the subsequent validation load.
pub fn light_barrier() {
    std::sync::atomic::compiler_fence(Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_is_stable() {
        // Whatever the kernel answers, asking twice must agree (OnceLock caching).
        assert_eq!(is_supported(), is_supported());
    }

    #[test]
    fn heavy_barrier_never_panics_and_reports_mode() {
        let used_kernel = heavy_barrier();
        if used_kernel {
            assert!(is_supported());
        }
        // Either way a second call must also succeed.
        let _ = heavy_barrier();
    }

    #[test]
    fn light_barrier_is_callable_in_a_loop() {
        for _ in 0..1000 {
            light_barrier();
        }
    }
}
