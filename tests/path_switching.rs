//! End-to-end QSense path switching through the public API: a real data structure,
//! real worker threads, a really stalled thread — the scenario of Figure 5 (bottom)
//! at test scale.

use qsense_repro::ds::{HarrisMichaelList, LIST_HP_SLOTS};
use qsense_repro::smr::{Path, QSense, Smr, SmrConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn config() -> SmrConfig {
    SmrConfig::default()
        .with_hp_per_thread(LIST_HP_SLOTS)
        .with_max_threads(6)
        .with_quiescence_threshold(8)
        .with_scan_threshold(32)
        .with_fallback_threshold(256)
        .with_rooster_interval(Duration::from_millis(1))
}

#[test]
fn stalled_worker_forces_fallback_and_recovery_restores_fast_path() {
    let scheme = QSense::new(config());
    let list = Arc::new(HarrisMichaelList::new(Arc::clone(&scheme)));
    let stop = Arc::new(AtomicBool::new(false));
    let release_stalled = Arc::new(AtomicBool::new(false));

    thread::scope(|scope| {
        // The stalled worker: registers (so QSense counts it), does a little work,
        // then blocks until released — a prolonged process delay.
        {
            let list = Arc::clone(&list);
            let release = Arc::clone(&release_stalled);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut handle = list.register();
                for key in 0..50u64 {
                    list.insert(key, &mut handle);
                }
                while !release.load(Ordering::Relaxed) {
                    thread::yield_now();
                }
                // Back from the delay: keep operating so every thread sees the episode.
                while !stop.load(Ordering::Relaxed) {
                    for key in 0..20u64 {
                        list.contains(&key, &mut handle);
                    }
                }
            });
        }

        // Active workers that churn inserts/removes, forcing retirements that cannot
        // be reclaimed on the fast path while the stalled worker never quiesces.
        for t in 0..2u64 {
            let list = Arc::clone(&list);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut handle = list.register();
                let mut state = 77 + t;
                while !stop.load(Ordering::Relaxed) {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let key = (state >> 33) % 400;
                    if state % 2 == 0 {
                        list.insert(key, &mut handle);
                    } else {
                        list.remove(&key, &mut handle);
                    }
                }
            });
        }

        // Phase 1: wait for QSense to notice the delay and switch to the fallback path.
        let deadline = Instant::now() + Duration::from_secs(20);
        while scheme.current_path() != Path::Fallback {
            assert!(
                Instant::now() < deadline,
                "QSense never switched to the fallback path despite a stalled worker"
            );
            thread::yield_now();
        }
        assert!(scheme.stats().fallback_switches >= 1);

        // While on the fallback path, reclamation must still make progress.
        let before = scheme.stats().freed;
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut after = before;
        while after <= before && Instant::now() < deadline {
            thread::yield_now();
            after = scheme.stats().freed;
        }
        assert!(
            after > before,
            "fallback path must keep reclaiming while a worker is stalled ({before} -> {after})"
        );

        // Phase 2: release the stalled worker; QSense must switch back to the fast path.
        release_stalled.store(true, Ordering::Relaxed);
        let deadline = Instant::now() + Duration::from_secs(20);
        while scheme.current_path() != Path::Fast {
            assert!(
                Instant::now() < deadline,
                "QSense never returned to the fast path after every worker became active"
            );
            thread::yield_now();
        }
        assert!(scheme.stats().fast_path_switches >= 1);

        stop.store(true, Ordering::Relaxed);
    });

    // Shut everything down and verify accounting is consistent.
    drop(list);
    let stats = scheme.stats();
    assert!(stats.freed <= stats.retired);
    drop(scheme);
}

#[test]
fn qsbr_alone_cannot_reclaim_under_the_same_stall() {
    // The control experiment: plain QSBR with a stalled thread reclaims (almost)
    // nothing, which is exactly why QSense exists.
    use qsense_repro::smr::Qsbr;
    let scheme = Qsbr::new(config());
    let list = Arc::new(HarrisMichaelList::new(Arc::clone(&scheme)));
    let _stalled_handle = list.register(); // registered, never quiesces again

    let mut worker = list.register();
    for key in 0..400u64 {
        list.insert(key, &mut worker);
    }
    for key in 0..400u64 {
        list.remove(&key, &mut worker);
    }
    let stats = scheme.stats();
    assert_eq!(stats.retired, 400);
    assert!(
        stats.freed <= 2,
        "QSBR must be unable to reclaim while a registered thread never quiesces (freed {})",
        stats.freed
    );
}
