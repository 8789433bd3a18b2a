//! One rooster thread per process: it starts with the first Cadence or QSense
//! instance that subscribes, serves every later one at the shortest live
//! interval, and exits with the last. One `#[test]` in a file of its own, so
//! no other test's scheme is alive in this process. (Threads are counted
//! through procfs: Linux only.)

#![cfg(target_os = "linux")]

use qsense_repro::smr::{BarrierLedger, Cadence, FenceStrategy, Hazard, QSense, Qsbr, SmrConfig};
use std::time::Duration;

/// This process's threads as the kernel lists them: (all, named `rooster`).
fn threads() -> (usize, usize) {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs lists this process's threads");
    let names: Vec<String> = tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .collect();
    let roosters = names.iter().filter(|name| name.trim() == "rooster");
    (names.len(), roosters.count())
}

/// Spins until the process runs `roosters` threads more than `baseline`, all
/// of them named `rooster` (a new thread names itself, and an exiting one
/// leaves procfs, a moment after the call that started or joined it returns).
/// Not a deadline: one thread too many or too few hangs the test.
fn expect_roosters(baseline: usize, roosters: usize) {
    while threads() != (baseline + roosters, roosters) {
        std::thread::yield_now();
    }
}

/// Spins until `ledger` has entered `tickets` completed barriers. Not a sleep
/// and not a deadline: a rooster that does not tick this ledger hangs the test.
fn wait_for(ledger: &BarrierLedger, tickets: u64) {
    while ledger.completed() < tickets {
        std::thread::yield_now();
    }
}

#[test]
fn one_rooster_serves_every_scheme_at_the_shortest_interval_and_leaves_with_the_last() {
    let config = |interval| SmrConfig::default().with_rooster_interval(interval);
    let hour = Duration::from_secs(3600);
    let rooster = |config| Cadence::with_fence_strategy(config, FenceStrategy::Rooster);
    let (baseline, named) = threads();
    assert_eq!(named, 0, "no scheme, no rooster");

    // Schemes that wait for no rooster start none: HP, QSBR, a reader-fenced
    // Cadence (what `Cadence::new` is where the kernel has no process-wide
    // barrier), and a Cadence told "never".
    let hp = Hazard::new(config(Duration::from_millis(1)));
    let qsbr = Qsbr::new(config(Duration::from_millis(1)));
    let fenced = Cadence::with_fence_strategy(
        config(Duration::from_millis(1)),
        FenceStrategy::ReaderFenced,
    );
    let manual = rooster(config(Duration::MAX));
    expect_roosters(baseline, 0);

    // The first subscription starts it; an hourly rooster has not ticked yet.
    let hourly = rooster(config(hour));
    expect_roosters(baseline, 1);
    assert_eq!(hourly.ledger().completed(), 0);

    // A QSense at 2 ms shares the thread, and sets its pace for both: the
    // hourly Cadence is ticked too (where the kernel has a barrier to issue).
    let brisk =
        QSense::with_fence_strategy(config(Duration::from_millis(2)), FenceStrategy::Rooster);
    expect_roosters(baseline, 1); // two live schemes, one rooster thread
    let kernel_has_a_barrier = FenceStrategy::detect_rooster() == FenceStrategy::Rooster;
    if kernel_has_a_barrier {
        wait_for(brisk.ledger(), 3);
        wait_for(hourly.ledger(), 3);
    }
    expect_roosters(baseline, 1);
    assert_eq!(
        manual.ledger().completed(),
        0,
        "never subscribed, never ticked"
    );
    assert_eq!(fenced.ledger().completed(), 0);

    // The thread outlives any one subscriber, and is gone after the last.
    drop(brisk);
    expect_roosters(baseline, 1);
    drop(hourly);
    expect_roosters(baseline, 0); // joined by the last scheme's drop
    drop((hp, qsbr, fenced, manual));

    // And comes back for the next: what `new` does on this kernel.
    let (cadence, qsense) = (Cadence::new(config(hour)), QSense::new(config(hour)));
    expect_roosters(baseline, usize::from(kernel_has_a_barrier));
    drop((cadence, qsense));
    expect_roosters(baseline, 0);
}
