//! Rooster threads.
//!
//! The paper (§5.1) creates one *rooster process* per core, pinned to that core,
//! whose only job is to sleep for `T`, wake up (forcing a context switch that acts as
//! a memory barrier for whatever worker was running on the core), and go back to
//! sleep. This module provides the equivalent background threads for this
//! reproduction: each wake-up issues a process-wide asymmetric barrier
//! (`reclaim_core::fence::process_barrier`: an expedited `membarrier(2)` where
//! the kernel offers one — microseconds, so a rooster keeps its period — else
//! the global command, else a plain fence), which provides the same guarantee
//! the paper derives from the context switch — all hazard-pointer stores issued
//! before the wake-up are globally visible afterwards.
//!
//! Rooster threads are the *synchronous* part of the paper's model: workers may be
//! delayed arbitrarily, but roosters are assumed to keep ticking. They never touch
//! the data structure and never fail (their loop cannot panic), matching the paper's
//! assumption 3.

use reclaim_core::fence;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

struct Shared {
    /// Set to request shutdown; protected by `lock` so sleepers can be woken early.
    stop: AtomicBool,
    /// Total number of wake-ups across all rooster threads.
    wakeups: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

/// A pool of rooster threads waking every `interval`.
pub struct Rooster {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    interval: Duration,
}

impl Rooster {
    /// Spawns `count` rooster threads with the given sleep interval. With
    /// `count == 0` no threads are spawned (useful for deterministic tests that
    /// drive a manual clock instead).
    pub fn spawn(count: usize, interval: Duration) -> Self {
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            wakeups: AtomicU64::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        });
        let threads = (0..count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rooster-{i}"))
                    .spawn(move || rooster_loop(&shared, interval))
                    .expect("failed to spawn rooster thread")
            })
            .collect();
        Self {
            shared,
            threads,
            interval,
        }
    }

    /// The configured sleep interval `T`.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Number of rooster threads running.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Total wake-ups observed so far (diagnostics / tests).
    pub fn wakeup_count(&self) -> u64 {
        self.shared.wakeups.load(Ordering::Acquire)
    }

    /// Stops and joins all rooster threads. Called automatically on drop.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Hold the lock while notifying so a rooster cannot check `stop` and then
        // start waiting after the notification (lost wake-up).
        {
            let _guard = self.shared.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.cv.notify_all();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Rooster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn rooster_loop(shared: &Shared, interval: Duration) {
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        // Sleep for T, but remain responsive to shutdown.
        let guard = shared.lock.lock().unwrap_or_else(|e| e.into_inner());
        let (_guard, _timeout) = shared
            .cv
            .wait_timeout(guard, interval)
            .unwrap_or_else(|e| e.into_inner());
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        // Wake-up: this is the moment the paper's context switch would occur. The
        // asymmetric barrier makes every worker's outstanding hazard-pointer stores
        // globally visible, which is exactly what the safety proof needs.
        fence::process_barrier();
        shared.wakeups.fetch_add(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_is_a_valid_configuration() {
        let mut rooster = Rooster::spawn(0, Duration::from_millis(1));
        assert_eq!(rooster.thread_count(), 0);
        assert_eq!(rooster.wakeup_count(), 0);
        rooster.shutdown();
    }

    /// Polls until the pool has woken `wakeups` times or `deadline` passes.
    fn wakeups_within(rooster: &Rooster, wakeups: u64, deadline: Duration) -> u64 {
        let deadline = std::time::Instant::now() + deadline;
        while rooster.wakeup_count() < wakeups && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        rooster.wakeup_count()
    }

    #[test]
    fn roosters_wake_up_and_count() {
        let rooster = Rooster::spawn(2, Duration::from_millis(2));
        // Without the expedited command a wake-up costs a global barrier
        // whose latency is the kernel's, not ours: a generous deadline.
        let wakeups = wakeups_within(&rooster, 4, Duration::from_secs(5));
        assert!(wakeups >= 4, "wakeups = {wakeups}");
        assert_eq!(rooster.thread_count(), 2);
        assert_eq!(rooster.interval(), Duration::from_millis(2));
    }

    #[test]
    fn an_expedited_rooster_keeps_its_period() {
        use fence::ProcessBarrier;
        if ProcessBarrier::detected() != ProcessBarrier::Expedited {
            println!("skipped: no expedited membarrier on this kernel");
            return;
        }
        // A 2 ms rooster behind `MEMBARRIER_CMD_GLOBAL` (8-20 ms a call) ticked
        // every 10-20 ms; behind the expedited command, 1 s is hundreds of
        // periods and ten wake-ups need a few tens of milliseconds.
        let rooster = Rooster::spawn(1, Duration::from_millis(2));
        let wakeups = wakeups_within(&rooster, 10, Duration::from_secs(1));
        assert!(wakeups >= 10, "wakeups = {wakeups}");
    }

    #[test]
    fn shutdown_is_prompt_even_with_a_long_interval() {
        let start = std::time::Instant::now();
        let mut rooster = Rooster::spawn(1, Duration::from_secs(3600));
        rooster.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown must not wait for the full sleep interval"
        );
    }

    #[test]
    fn double_shutdown_is_harmless() {
        let mut rooster = Rooster::spawn(1, Duration::from_millis(1));
        rooster.shutdown();
        rooster.shutdown();
    }
}
