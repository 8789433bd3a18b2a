//! A concurrent session store on the lock-free hash map.
//!
//! This is the hash-table workload Michael's SPAA 2002 paper (the source of the
//! linked list the QSense paper evaluates) was designed for: a service keeps one
//! record per active session; request threads look sessions up on every request,
//! while a maintenance thread logs users in and out. Every logout retires a node, so
//! without safe reclamation the lookup threads would race against `free`.
//!
//! The store uses QSense: lookups pay no per-node fence (unlike classic hazard
//! pointers), and a stalled request thread cannot make the store's memory grow
//! without bound (unlike QSBR).
//!
//! Run with: `cargo run --release --example session_store`

use qsense_repro::ds::LockFreeHashMap;
use qsense_repro::smr::{QSense, Smr, SmrConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// What the store keeps per session.
#[derive(Clone, Debug)]
struct Session {
    user_id: u64,
    login_at_ms: u64,
}

fn main() {
    let request_threads = 3;
    let user_space = 20_000u64;
    let run_for = Duration::from_secs(2);

    let scheme = QSense::new(
        SmrConfig::default()
            .with_hp_per_thread(qsense_repro::ds::HASHMAP_HP_SLOTS)
            .with_max_threads(request_threads + 2),
    );
    let store: Arc<LockFreeHashMap<u64, Session, QSense>> =
        Arc::new(LockFreeHashMap::new(Arc::clone(&scheme)));

    // Seed the store with half the user space already logged in.
    {
        let mut handle = store.register();
        for user_id in 0..user_space / 2 {
            store.insert(
                user_id,
                Session {
                    user_id,
                    login_at_ms: 0,
                },
                &mut handle,
            );
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let lookups = Arc::new(AtomicU64::new(0));
    let hits = Arc::new(AtomicU64::new(0));
    let logins = Arc::new(AtomicU64::new(0));
    let logouts = Arc::new(AtomicU64::new(0));
    let started = Instant::now();

    thread::scope(|scope| {
        // Request threads: look up sessions and read their fields.
        for t in 0..request_threads {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let lookups = Arc::clone(&lookups);
            let hits = Arc::clone(&hits);
            scope.spawn(move || {
                let mut handle = store.register();
                let mut state = 0xABCD_EF01_u64.wrapping_add(t as u64);
                while !stop.load(Ordering::Relaxed) {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let user_id = (state >> 33) % user_space;
                    lookups.fetch_add(1, Ordering::Relaxed);
                    if let Some(session) = store.get(&user_id, &mut handle) {
                        // Use the cloned record; the node itself may already have
                        // been retired by a concurrent logout — that is the point.
                        assert_eq!(session.user_id, user_id);
                        assert!(session.login_at_ms as u128 <= started.elapsed().as_millis());
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        // Maintenance thread: logs users in and out, which is where retirement (and
        // hence reclamation) happens.
        {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let logins = Arc::clone(&logins);
            let logouts = Arc::clone(&logouts);
            scope.spawn(move || {
                let mut handle = store.register();
                let mut state = 0x5555_AAAA_u64;
                while !stop.load(Ordering::Relaxed) {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let user_id = (state >> 33) % user_space;
                    if state.is_multiple_of(2) {
                        let session = Session {
                            user_id,
                            login_at_ms: started.elapsed().as_millis() as u64,
                        };
                        if store.insert(user_id, session, &mut handle) {
                            logins.fetch_add(1, Ordering::Relaxed);
                        }
                    } else if store.remove(&user_id, &mut handle) {
                        logouts.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        thread::sleep(run_for);
        stop.store(true, Ordering::Relaxed);
    });

    let stats = scheme.stats();
    let secs = started.elapsed().as_secs_f64();
    println!(
        "session_store: {request_threads} request threads + 1 maintenance thread, {:.1}s",
        secs
    );
    println!(
        "  lookups                  : {} ({:.2} M/s, {:.1}% hit rate)",
        lookups.load(Ordering::Relaxed),
        lookups.load(Ordering::Relaxed) as f64 / secs / 1e6,
        100.0 * hits.load(Ordering::Relaxed) as f64 / lookups.load(Ordering::Relaxed).max(1) as f64,
    );
    println!(
        "  logins / logouts         : {} / {}",
        logins.load(Ordering::Relaxed),
        logouts.load(Ordering::Relaxed)
    );
    println!("  sessions currently live  : {}", store.len());
    println!("  nodes retired            : {}", stats.retired);
    println!("  nodes freed              : {}", stats.freed);
    println!("  nodes still in limbo     : {}", stats.in_limbo());
    println!(
        "  traversal fences issued  : {} (QSense never issues any)",
        stats.traversal_fences
    );
    assert!(stats.freed <= stats.retired);
}
