//! No scheme's retire path reads a clock: QSBR, EBR, RefCount and Leaky stamp
//! nothing, Hazard Eras stamps an era, and the hazard-pointer family (HP,
//! Cadence, QSense) stamps a barrier ticket. The same single-threaded script
//! must therefore free the same nodes at the same steps and end with the same
//! [`StatsSnapshot`] whether the scheme's clock stands still or jumps between
//! retires. (Cadence and QSense *do* defer reclamation — by completed rooster
//! wake-ups, which the script enters by hand at fixed steps;
//! `property_sets::barrier_ledger_coverage_is_monotonic` pins their gate.)

use qsense_repro::smr::{
    retire_box, BarrierLedger, Cadence, Clock, Ebr, FenceStrategy, Hazard, He, Leaky, ManualClock,
    QSense, Qsbr, RefCount, Smr, SmrConfig, SmrHandle, StatsSnapshot,
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

/// One completed rooster wake-up, entered by hand.
fn wake_up(ledger: &BarrierLedger) {
    // SAFETY: the script runs on one thread; no sibling's store buffer holds a
    // publication for a barrier to drain.
    assert!(unsafe { ledger.issue(|| true) });
}

/// Runs the script — 200 one-retire operations with a rooster wake-up every 10
/// (`wake_up`; a no-op for the schemes that have none) and a flush every 50 —
/// and returns the cumulative frees observed after every step plus the final
/// counters. `tick` is how far the clock moves after each retire.
fn run<S: Smr>(
    new: impl FnOnce(SmrConfig) -> Arc<S>,
    wake_up: impl Fn(&S),
    tick: Duration,
) -> (Vec<usize>, StatsSnapshot) {
    let clock = ManualClock::new();
    let scheme = new(SmrConfig::default()
        .with_max_threads(2)
        .with_quiescence_threshold(4)
        .with_scan_threshold(16)
        .with_rooster_interval(Duration::MAX)
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
        if step % 10 == 0 {
            wake_up(&scheme);
        }
        if step % 50 == 0 {
            handle.flush();
        }
        freed_after_step.push(drops.load(Ordering::SeqCst));
        assert_eq!(handle.local_in_limbo(), step - freed_after_step[step - 1]);
    }
    drop(handle);
    (freed_after_step, scheme.stats())
}

fn assert_clock_free<S: Smr>(name: &str, new: impl Fn(SmrConfig) -> Arc<S>, wake_up: impl Fn(&S)) {
    let frozen = run(&new, &wake_up, Duration::ZERO);
    let moving = run(&new, &wake_up, Duration::from_secs(3));
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
    assert_clock_free("hp", Hazard::new, |_| ());
    assert_clock_free(
        "hp",
        |config| Hazard::with_fence_strategy(config, FenceStrategy::ReaderFenced),
        |_| (),
    );
    assert_clock_free("qsbr", Qsbr::new, |_| ());
    assert_clock_free("ebr", Ebr::new, |_| ());
    assert_clock_free("he", He::new, |_| ());
    assert_clock_free("rc", RefCount::new, |_| ());
    assert_clock_free("none", Leaky::new, |_| ());
    // Cadence and QSense behind a rooster, whatever this kernel would select.
    assert_clock_free(
        "cadence",
        |config| Cadence::with_fence_strategy(config, FenceStrategy::Rooster),
        |scheme| wake_up(scheme.ledger()),
    );
    assert_clock_free(
        "qsense",
        |config| QSense::with_fence_strategy(config, FenceStrategy::Rooster),
        |scheme| wake_up(scheme.ledger()),
    );
}
