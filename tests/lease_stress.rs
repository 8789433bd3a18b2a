//! Lease-pool stress: M=64 tasks over N=8 handles, with a stalled lessee.
//!
//! The M:N lease layer must keep its accounting straight under the exact
//! conditions it was built for: far more tasks than handles, continuous
//! checkout/checkin churn driving real retirements through a shared
//! structure, and one badly behaved task that sits on its lease while
//! everyone else keeps borrowing the remaining handles. After the storm:
//! every handle is back in the pool, every task got every turn it asked for,
//! and the scheme's conservation counters still hold (`retired >= freed`,
//! nothing double-freed — the stats layer's own invariant checks run
//! throughout).

use qsense_repro::ds::LockFreeSkipList;
use qsense_repro::smr::{Hazard, LeasePolicy, LeasePool, Smr, SmrConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TASKS: usize = 64;
const SLOTS: usize = 8;
const TURNS_PER_TASK: usize = 16;
const OPS_PER_TURN: u64 = 24;

#[test]
fn m64_tasks_over_n8_handles_with_a_stalled_lessee() {
    // A registry far larger than the pool: the sharded scan dispatch is what
    // keeps the unoccupied capacity free.
    let scheme = Hazard::new(
        SmrConfig::default()
            .with_max_threads(128)
            .with_hp_per_thread(qsense_repro::ds::SKIPLIST_HP_SLOTS)
            .with_scan_threshold(32),
    );
    let list = Arc::new(LockFreeSkipList::<u64, _>::new(Arc::clone(&scheme)));
    let pool = LeasePool::for_scheme(&scheme, SLOTS, LeasePolicy::Wait).expect("8 of 128 slots");
    let turns = AtomicU64::new(0);

    std::thread::scope(|scope| {
        // The stalled lessee: checks a handle out and keeps it until the other
        // 63 tasks have finished every turn — which they must do on 7 handles.
        scope.spawn(|| {
            let mut lease = pool.checkout().expect("wait policy never errors");
            for key in 0..OPS_PER_TURN {
                list.insert(key, &mut *lease);
            }
            let others = ((TASKS - 1) * TURNS_PER_TASK) as u64;
            let deadline = Instant::now() + Duration::from_secs(60);
            while turns.load(Ordering::Relaxed) < others {
                assert!(
                    Instant::now() < deadline,
                    "the other tasks stopped short of their turns behind a held lease"
                );
                std::thread::yield_now();
            }
            for key in 0..OPS_PER_TURN {
                list.remove(&key, &mut *lease);
            }
            turns.fetch_add(1, Ordering::Relaxed);
        });
        for task in 1..TASKS {
            let list = Arc::clone(&list);
            let pool = &pool;
            let turns = &turns;
            scope.spawn(move || {
                for turn in 0..TURNS_PER_TASK {
                    let mut lease = pool.checkout().expect("wait policy never errors");
                    // Insert/remove churn in a task-private key band so every
                    // remove retires a node.
                    let base = 1_000 + (task as u64) * 100 + (turn as u64 % 2) * 50;
                    for key in base..base + OPS_PER_TURN {
                        list.insert(key, &mut *lease);
                    }
                    for key in base..base + OPS_PER_TURN {
                        list.remove(&key, &mut *lease);
                    }
                    turns.fetch_add(1, Ordering::Relaxed);
                    drop(lease);
                }
            });
        }
    });

    assert_eq!(
        turns.load(Ordering::Relaxed),
        ((TASKS - 1) * TURNS_PER_TASK) as u64 + 1,
        "every task completed every turn"
    );
    assert_eq!(
        pool.idle_count(),
        SLOTS,
        "every handle returned to the pool"
    );

    let stats = Smr::stats(&*scheme);
    assert!(
        stats.retired >= stats.freed,
        "conservation: retired ({}) >= freed ({})",
        stats.retired,
        stats.freed
    );
    // Every removal retires exactly one node; the inserts in the storm above
    // are sized so the removes all succeed.
    let expected_retires = ((TASKS - 1) * TURNS_PER_TASK) as u64 * OPS_PER_TURN + OPS_PER_TURN;
    assert_eq!(stats.retired, expected_retires, "no retire went missing");
    // With 9 claimed slots in a 128-slot (16-shard) registry, scans must have
    // skipped vacant shards throughout the storm.
    assert!(
        stats.shard_skips > 0,
        "scans dispatched on shards: {stats:?}"
    );

    // Drain: an idle pooled handle still owns its private limbo bag, so check
    // every handle out and flush it. Nothing is protected anymore, so the
    // leases leaked nothing.
    let mut leases: Vec<_> = (0..SLOTS)
        .map(|_| pool.try_checkout().expect("pool is whole again"))
        .collect();
    for lease in &mut leases {
        qsense_repro::smr::SmrHandle::flush(&mut **lease);
    }
    let stats = Smr::stats(&*scheme);
    assert_eq!(
        stats.freed, stats.retired,
        "an unobstructed flush reclaims everything the storm retired"
    );
}
