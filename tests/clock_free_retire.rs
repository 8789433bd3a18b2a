//! HP, QSBR, EBR, RefCount and Leaky never consult a per-node retire stamp, so
//! their retire path reads no clock: the same single-threaded script must free
//! the same nodes at the same steps and end with the same [`StatsSnapshot`]
//! whether the scheme's clock stands still or jumps between retires. (Cadence
//! and QSense *do* age nodes; `property_sets::is_old_enough_is_monotonic` pins
//! their gate.)

use qsense_repro::smr::{
    retire_box, Clock, Ebr, FenceStrategy, Hazard, Leaky, ManualClock, Qsbr, RefCount, Smr,
    SmrConfig, SmrHandle, StatsSnapshot,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Tracked(Arc<AtomicUsize>);

impl Drop for Tracked {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Runs the script — 200 one-retire operations with a flush every 50 — and
/// returns the cumulative frees observed after every step plus the final
/// counters. `tick` is how far the clock moves after each retire.
fn run<S: Smr>(
    new: impl FnOnce(SmrConfig) -> Arc<S>,
    tick: Duration,
) -> (Vec<usize>, StatsSnapshot) {
    let clock = ManualClock::new();
    let scheme = new(SmrConfig::default()
        .with_max_threads(2)
        .with_quiescence_threshold(4)
        .with_scan_threshold(16)
        .with_clock(Clock::manual(clock.clone())));
    let drops = Arc::new(AtomicUsize::new(0));
    let mut freed_after_step = Vec::new();
    let mut handle = scheme.register();
    for step in 1..=200 {
        handle.begin_op();
        let node = Box::into_raw(Box::new(Tracked(Arc::clone(&drops))));
        // SAFETY: freshly boxed, never linked anywhere, retired exactly once.
        unsafe { retire_box(&mut handle, node) };
        handle.end_op();
        clock.advance(tick);
        if step % 50 == 0 {
            handle.flush();
        }
        freed_after_step.push(drops.load(Ordering::SeqCst));
        assert_eq!(handle.local_in_limbo(), step - freed_after_step[step - 1]);
    }
    drop(handle);
    (freed_after_step, scheme.stats())
}

fn assert_clock_free<S: Smr>(name: &str, new: impl Fn(SmrConfig) -> Arc<S>) {
    let frozen = run(&new, Duration::ZERO);
    let moving = run(&new, Duration::from_secs(3));
    assert_eq!(
        frozen.0, moving.0,
        "{name}: frees must not depend on the clock"
    );
    assert_eq!(
        frozen.1, moving.1,
        "{name}: counters must not depend on the clock"
    );
    assert_eq!(frozen.1.retired, 200);
    assert_eq!(frozen.1.size_unknown_retires, 0);
    // Not vacuous: everything but the leaky baseline frees along the way.
    let expected_freed = if name == "none" { 0 } else { 200 };
    assert_eq!(frozen.1.freed, expected_freed, "{name}");
}

#[test]
fn stampless_schemes_reclaim_identically_under_a_frozen_and_a_moving_clock() {
    // HP under the protocol this kernel selects, and under the paper's.
    assert_clock_free("hp", Hazard::new);
    assert_clock_free("hp", |config| {
        Hazard::with_fence_strategy(config, FenceStrategy::ReaderFenced)
    });
    assert_clock_free("qsbr", Qsbr::new);
    assert_clock_free("ebr", Ebr::new);
    assert_clock_free("rc", RefCount::new);
    assert_clock_free("none", Leaky::new);
}
