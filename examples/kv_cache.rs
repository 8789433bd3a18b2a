//! A small "cache server" scenario: the kind of workload the paper's introduction
//! motivates (long-running service, explicit memory management, no GC pauses).
//!
//! A lock-free BST holds the cache index; reader threads look keys up, writer
//! threads insert fresh entries and evict old ones. Eviction is exactly the place
//! where unsafe reclamation would corrupt readers — QSense makes it safe without the
//! per-lookup fences hazard pointers would charge.
//!
//! Run with: `cargo run --release --example kv_cache`

use qsense_repro::ds::{LockFreeBst, BST_HP_SLOTS};
use qsense_repro::smr::{QSense, Smr, SmrConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn main() {
    let readers = 3;
    let writers = 1;
    let capacity = 50_000u64;
    let run_for = Duration::from_secs(2);

    let scheme = QSense::new(
        SmrConfig::default()
            .with_hp_per_thread(BST_HP_SLOTS)
            .with_max_threads(readers + writers + 1),
    );
    let index = Arc::new(LockFreeBst::new(Arc::clone(&scheme)));

    // Warm the cache with the first half of the id space.
    {
        let mut handle = index.register();
        for id in 0..capacity / 2 {
            index.insert(id, &mut handle);
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let hits = Arc::new(AtomicU64::new(0));
    let misses = Arc::new(AtomicU64::new(0));
    let evictions = Arc::new(AtomicU64::new(0));

    thread::scope(|scope| {
        for r in 0..readers {
            let index = Arc::clone(&index);
            let stop = Arc::clone(&stop);
            let hits = Arc::clone(&hits);
            let misses = Arc::clone(&misses);
            scope.spawn(move || {
                let mut handle = index.register();
                let mut state = 0xabcdef_u64 + r as u64;
                while !stop.load(Ordering::Relaxed) {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let key = (state >> 33) % capacity;
                    if index.contains(&key, &mut handle) {
                        hits.fetch_add(1, Ordering::Relaxed);
                    } else {
                        misses.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        for w in 0..writers {
            let index = Arc::clone(&index);
            let stop = Arc::clone(&stop);
            let evictions = Arc::clone(&evictions);
            scope.spawn(move || {
                let mut handle = index.register();
                let mut state = 0x13579b_u64 + w as u64;
                while !stop.load(Ordering::Relaxed) {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let fresh = (state >> 33) % capacity;
                    index.insert(fresh, &mut handle);
                    // Evict a pseudo-random old entry to keep the cache near capacity.
                    let victim = (state >> 17) % capacity;
                    if index.remove(&victim, &mut handle) {
                        evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        thread::sleep(run_for);
        stop.store(true, Ordering::Relaxed);
    });

    let stats = scheme.stats();
    let mut handle = index.register();
    println!("kv_cache: {readers} readers + {writers} writer for {run_for:?}");
    println!(
        "  lookups: {} hits / {} misses",
        hits.load(Ordering::Relaxed),
        misses.load(Ordering::Relaxed)
    );
    println!(
        "  evictions                : {}",
        evictions.load(Ordering::Relaxed)
    );
    println!("  entries in index now     : {}", index.len(&mut handle));
    println!(
        "  nodes retired / freed    : {} / {}",
        stats.retired, stats.freed
    );
    println!("  nodes still in limbo     : {}", stats.in_limbo());
    println!(
        "  reclamation path switches: {} to fallback, {} back to fast",
        stats.fallback_switches, stats.fast_path_switches
    );
    assert!(stats.freed <= stats.retired);
    assert_eq!(stats.size_unknown_retires, 0);
    println!("ok: reclamation accounting is consistent");
}
