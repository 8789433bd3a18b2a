//! The steady-state retirement pipeline must not allocate.
//!
//! The hot-path contract (see `reclaim-core`'s module docs): once a thread's
//! segment pool and scan scratch buffer have reached their steady-state
//! capacity, the whole retire→scan→reclaim pipeline — pushing into the
//! segment-chain bag, the hazard-pointer snapshot, the within-segment
//! compaction of `SegBag::transfer_walk`, and the parked-chain hand-off at handle
//! drop — performs **zero heap allocations**. This test pins that property
//! with the process-wide counting allocator:
//!
//! * scans over a bag holding protected (hence unreclaimable) residue must not
//!   move the allocator's `allocated_bytes` counter at all;
//! * retire/reclaim cycles that regrow a drained bag — past the level it held
//!   when measurement started — must allocate exactly the retired nodes
//!   themselves (`Box<u64>`, 8 bytes each) and nothing for the bookkeeping,
//!   because drained segments are recycled through the per-handle pool;
//! * dropping a handle with leftovers (park) and the next surviving handle's
//!   flush (adopt) are O(1) chain splices that allocate nothing;
//! * register/drop/register churn (the thread-pool pattern) allocates only the
//!   retired nodes once the first wave of handles has parked its pool and
//!   scratch buffers on the scheme's `SchemeCore` for successors to adopt;
//! * guard-layer nodes cost nothing either: the free stage puts a freed node's
//!   block in its handle's node cache and the handle's next allocation takes
//!   it, so allocate → publish → unlink → retire cycles allocate 0 bytes on
//!   every reclaiming scheme; Leaky's nodes come whole chunks at a time from
//!   its scheme's arena, and the window sees exactly those chunks; and every
//!   block goes back to its arena, and every chunk to the allocator, when the
//!   structure, its handles and the scheme drop.
//!
//! Everything runs in a single `#[test]` so no concurrent test case can disturb
//! the global allocation counters. The assertions are *exact*; because the
//! libtest harness itself very occasionally allocates ~100 bytes from another
//! thread mid-window, each measured region is retried a few times — a genuine
//! bookkeeping allocation is deterministic and fails every attempt.
//!
//! The whole file is compiled out under `check-oracle`: the shadow-heap oracle
//! deliberately allocates (shard maps, context strings) on the very paths this
//! test pins as allocation-free.
#![cfg(not(feature = "check-oracle"))]

use qsense_repro::smr::{
    Atomic, BarrierLedger, Cadence, Clock, CountingAllocator, Ebr, Era, FenceStrategy, Guard,
    Hazard, He, Leaky, ManualClock, Owned, QSense, Qsbr, RefCount, Shared, Smr, SmrConfig,
    SmrHandle,
};
use reclaim_core::node_cache::{CHUNK_BYTES, CHUNK_HEADER_BYTES, REFILL_BLOCKS};
use reclaim_core::{RetiredPtr, SEG_CAP};
use std::mem::size_of;
use std::sync::Arc;
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Number of nodes kept protected (and therefore unreclaimed) across the
/// measured scans, so every scan exercises the keep path of `transfer_walk`.
const PROTECTED: usize = 8;
/// Nodes retired in total; the unprotected majority is freed during warm-up.
const RETIRED: usize = 64;
/// Scans performed while asserting allocation-freedom.
const MEASURED_SCANS: usize = 100;

fn config(clock: &ManualClock) -> SmrConfig {
    SmrConfig::default()
        .with_max_threads(2)
        .with_hp_per_thread(PROTECTED)
        // No background rooster: nothing else may touch the allocator while
        // the steady-state window is measured, and `tick` is the wake-up.
        .with_rooster_interval(Duration::MAX)
        // High thresholds: scans happen only when the test calls flush().
        .with_quiescence_threshold(1_000_000)
        .with_scan_threshold(1_000_000)
        .with_clock(Clock::manual(clock.clone()))
}

/// One completed rooster wake-up, entered by hand: what makes the nodes a
/// Cadence or QSense instance has retired so far reclaimable.
fn tick(ledger: &BarrierLedger) {
    // SAFETY: this test drives every handle from one thread: no sibling's
    // store buffer holds a publication for a barrier to drain.
    assert!(unsafe { ledger.issue(|| true) });
}

/// Runs `measure` (a repeatable measured region returning the allocator-bytes
/// delta it observed) up to three times, asserting the delta is *exactly*
/// `expected` at least once. A real bookkeeping allocation repeats every
/// attempt; the retries only absorb the test harness's own rare ~100-byte
/// background allocations landing inside a window.
fn assert_alloc_delta(label: &str, expected: u64, mut measure: impl FnMut() -> u64) {
    let mut last = 0;
    for _ in 0..3 {
        last = measure();
        if last == expected {
            return;
        }
    }
    panic!("{label}: allocator delta {last} bytes, expected exactly {expected} (3 attempts)");
}

/// Retires `RETIRED` boxed nodes through `writer`, with the first `PROTECTED` of
/// them protected by `reader` (protection is published before the retire, as the
/// integration discipline requires, so they must survive every scan).
// Sanctioned raw-protocol site: this test pins the raw retire pipeline's
// allocation behavior below the guard layer.
#[allow(clippy::disallowed_methods)]
fn park_protected_residue<H: SmrHandle>(reader: &mut H, writer: &mut H) {
    for i in 0..RETIRED {
        let ptr = Box::into_raw(Box::new(0u64));
        if i < PROTECTED {
            reader.protect(i, ptr.cast());
        }
        // SAFETY: freshly boxed, unlinked by construction, retired once.
        unsafe { qsense_repro::smr::retire_box(writer, ptr) };
    }
}

/// Publishes every one of the `k` slots of every handle, each a distinct
/// address no node lives at: a scan's snapshot then holds all `N·K`.
// Sanctioned raw-protocol site: the snapshot is the pipeline under test.
#[allow(clippy::disallowed_methods)]
fn publish_every_slot<H: SmrHandle>(handles: &mut [H], k: usize) {
    for (h, handle) in handles.iter_mut().enumerate() {
        for slot in 0..k {
            handle.protect(slot, ((h * k + slot + 1) * 64) as *mut u8);
        }
    }
}

/// Runs `MEASURED_SCANS` flushes and asserts the allocator counter stands still.
fn assert_scans_do_not_allocate<H: SmrHandle>(scheme_name: &str, writer: &mut H) {
    assert_alloc_delta(
        &format!("{scheme_name}: {MEASURED_SCANS} steady-state scans"),
        0,
        || {
            let before_alloc = ALLOC.allocated_bytes();
            for _ in 0..MEASURED_SCANS {
                writer.flush();
            }
            ALLOC.allocated_bytes() - before_alloc
        },
    );
    assert_eq!(
        writer.local_in_limbo(),
        PROTECTED,
        "{scheme_name}: protected nodes must survive every scan"
    );
}

/// Nodes retired per growth cycle — deliberately far past both `RETIRED` (the
/// bag level every earlier phase reached) and a single segment, so each cycle
/// regrows the bag well beyond the level it held at measurement start.
const GROWTH_BATCH: usize = 500;
/// Growth cycles per measured attempt.
const GROWTH_CYCLES: usize = 4;

/// Runs retire-then-reclaim growth cycles and asserts the only allocator
/// traffic is the retired `Box<u64>` nodes themselves (8 bytes each): all
/// segment-chain growth must be fed by the handle's recycled pool.
/// `before_flush` runs between the retires and the flush of every cycle (the
/// Cadence-family schemes tick their ledger there so the fresh nodes are
/// covered); it must not allocate.
fn assert_growth_allocates_nodes_only<H: SmrHandle>(
    scheme_name: &str,
    writer: &mut H,
    residue: usize,
    mut before_flush: impl FnMut(),
) {
    // Unmeasured warm-up cycle: reach the high-water mark once, stocking the
    // pool with enough segments for every later cycle.
    for _ in 0..GROWTH_BATCH {
        let ptr = Box::into_raw(Box::new(0u64));
        // SAFETY: freshly boxed, unlinked by construction, retired once.
        unsafe { qsense_repro::smr::retire_box(writer, ptr) };
    }
    before_flush();
    writer.flush();
    assert_eq!(writer.local_in_limbo(), residue);
    let node_bytes = (GROWTH_CYCLES * GROWTH_BATCH * std::mem::size_of::<u64>()) as u64;
    assert_alloc_delta(
        &format!("{scheme_name}: bag regrowth (nodes only)"),
        node_bytes,
        || {
            let before_alloc = ALLOC.allocated_bytes();
            for _ in 0..GROWTH_CYCLES {
                for _ in 0..GROWTH_BATCH {
                    let ptr = Box::into_raw(Box::new(0u64));
                    // SAFETY: freshly boxed, unlinked by construction, retired once.
                    unsafe { qsense_repro::smr::retire_box(writer, ptr) };
                }
                before_flush();
                writer.flush();
                assert_eq!(writer.local_in_limbo(), residue);
            }
            ALLOC.allocated_bytes() - before_alloc
        },
    );
}

/// Register → retire a batch → flush → drop, repeatedly: after the first
/// (unmeasured) wave parks its pool and scratch on the scheme's `SchemeCore`,
/// a bare re-registration must allocate nothing at all, and the measured
/// cycles must allocate exactly the retired nodes and nothing for
/// registration, scanning, or the drop-time hand-off. `before_flush` runs
/// between the retires and the flush of every cycle (the Cadence-family
/// schemes tick their ledger there so the nodes are covered); it must not
/// allocate.
fn churn_allocates_nodes_only<S: Smr>(
    scheme_name: &str,
    scheme: std::sync::Arc<S>,
    mut before_flush: impl FnMut(),
) {
    // First wave: builds the pool + scratch at their steady-state capacity,
    // then parks them on the scheme's core at drop.
    {
        let mut first = scheme.register();
        for _ in 0..GROWTH_BATCH {
            let ptr = Box::into_raw(Box::new(0u64));
            // SAFETY: freshly boxed, unlinked by construction, retired once.
            unsafe { qsense_repro::smr::retire_box(&mut first, ptr) };
        }
        before_flush();
        first.flush();
        assert_eq!(first.local_in_limbo(), 0, "{scheme_name}: warm-up drains");
    }
    // The recycled workspace makes the second registration allocation-free.
    assert_alloc_delta(
        &format!("{scheme_name}: re-registration adopts the parked workspace"),
        0,
        || {
            let before_alloc = ALLOC.allocated_bytes();
            drop(scheme.register());
            ALLOC.allocated_bytes() - before_alloc
        },
    );
    let node_bytes = (GROWTH_CYCLES * GROWTH_BATCH * std::mem::size_of::<u64>()) as u64;
    assert_alloc_delta(
        &format!("{scheme_name}: register/drop/register churn (nodes only)"),
        node_bytes,
        || {
            let before_alloc = ALLOC.allocated_bytes();
            for _ in 0..GROWTH_CYCLES {
                let mut handle = scheme.register();
                for _ in 0..GROWTH_BATCH {
                    let ptr = Box::into_raw(Box::new(0u64));
                    // SAFETY: freshly boxed, unlinked by construction, retired once.
                    unsafe { qsense_repro::smr::retire_box(&mut handle, ptr) };
                }
                before_flush();
                handle.flush();
                assert_eq!(handle.local_in_limbo(), 0);
            }
            ALLOC.allocated_bytes() - before_alloc
        },
    );
}

#[test]
fn steady_state_scans_perform_zero_heap_allocations() {
    // --- classic hazard pointers -------------------------------------------
    {
        let clock = ManualClock::new();
        let scheme = Hazard::new(config(&clock));
        let mut reader = scheme.register();
        let mut writer = scheme.register();
        park_protected_residue(&mut reader, &mut writer);
        // Warm-up: one scan frees the unprotected majority and grows the scan
        // scratch buffer and bag to steady-state capacity.
        writer.flush();
        assert_eq!(writer.local_in_limbo(), PROTECTED);
        assert_scans_do_not_allocate("hp", &mut writer);
        assert_growth_allocates_nodes_only("hp", &mut writer, PROTECTED, || {});
        reader.clear_protections();
        writer.flush();
        assert_eq!(writer.local_in_limbo(), 0, "hp: release frees the residue");
    }

    // --- threshold scans on a fresh handle (hazard, both protocols) --------
    // Nothing above lets a count-threshold scan fire. Here `R = 16`, so a
    // handle scans every 16 retires under either protocol, and its pool was
    // sized for that at registration: from the first retire on — no warm-up
    // scan — three thresholds of retires allocate the nodes and nothing else.
    for strategy in [FenceStrategy::detect(), FenceStrategy::ReaderFenced] {
        let retires = 3 * 16;
        assert_alloc_delta(
            &format!(
                "hp ({}): three thresholds from registration",
                strategy.name()
            ),
            (retires * std::mem::size_of::<u64>()) as u64,
            || {
                let config = config(&ManualClock::new()).with_scan_threshold(16);
                let scheme = Hazard::with_fence_strategy(config, strategy);
                let mut handle = scheme.register();
                let before_alloc = ALLOC.allocated_bytes();
                for _ in 0..retires {
                    let ptr = Box::into_raw(Box::new(0u64));
                    // SAFETY: freshly boxed, unlinked by construction, retired once.
                    unsafe { qsense_repro::smr::retire_box(&mut handle, ptr) };
                }
                assert_eq!(scheme.stats().scans, 3, "{strategy:?}");
                // The third scan released the third 16 on the last retire;
                // the retires before it had returned the first two, two each.
                assert_eq!(handle.local_in_limbo(), retires / 3);
                handle.flush();
                assert_eq!(handle.local_in_limbo(), 0);
                ALLOC.allocated_bytes() - before_alloc
            },
        );
    }

    // --- the free stage draws on the handle's pool (hazard) -----------------
    // A scan proves and the retires that follow free, two each: between the
    // two the proven nodes sit on the core's ready chain, whose segments come
    // from the pool the bag's drained ones return to. With the nodes boxed
    // ahead of the window, three scan intervals of retire → scan → trickle —
    // from registration, no warm-up — allocate nothing at all.
    assert_alloc_delta("hp: three scan intervals of the free stage", 0, || {
        const R: usize = 64;
        let config = config(&ManualClock::new()).with_scan_threshold(R);
        let scheme = Hazard::with_fence_strategy(config, FenceStrategy::ReaderFenced);
        let mut handle = scheme.register();
        let nodes: Vec<*mut u64> = (0..3 * R).map(|_| Box::into_raw(Box::new(0u64))).collect();
        let before_alloc = ALLOC.allocated_bytes();
        for (retired, &ptr) in nodes.iter().enumerate() {
            // SAFETY: boxed above, unlinked by construction, retired once.
            unsafe { qsense_repro::smr::retire_box(&mut handle, ptr) };
            // Since the last scan: `since` retires entered the bag and twice
            // as many left the ready chain, which held a whole interval.
            let (scans, since) = ((retired + 1) / R, (retired + 1) % R);
            let ready = if scans == 0 {
                0
            } else {
                R.saturating_sub(2 * since)
            };
            assert_eq!(handle.local_in_limbo(), since + ready, "retire {retired}");
        }
        let delta = ALLOC.allocated_bytes() - before_alloc;
        assert_eq!(scheme.stats().scans, 3);
        assert_eq!(
            scheme.stats().freed,
            2 * R as u64,
            "the third interval waits"
        );
        delta
    });

    // --- full snapshots, from registration (hazard, Hazard Eras) ----------
    // Every handle protects all it can, the scanning one included, so the
    // threshold scan its retires run fills the snapshot to the word count
    // the scheme registered its scratch with — `N·K` addresses for HP, an
    // era pair for each of the `N` reservations for HE. A count one short
    // would regrow the scratch inside the window.
    assert_alloc_delta("hp: a threshold scan over all N·K slots", 0, || {
        const R: usize = 16;
        let config = config(&ManualClock::new()).with_scan_threshold(R);
        let (n, k) = (config.max_threads, config.hp_per_thread);
        let scheme = Hazard::with_fence_strategy(config, FenceStrategy::ReaderFenced);
        let mut handles: Vec<_> = (0..n).map(|_| scheme.register()).collect();
        publish_every_slot(&mut handles, k);
        let nodes: Vec<*mut u64> = (0..R).map(|_| Box::into_raw(Box::new(0u64))).collect();
        let before_alloc = ALLOC.allocated_bytes();
        for &ptr in &nodes {
            // SAFETY: boxed above, unlinked by construction, retired once.
            unsafe { qsense_repro::smr::retire_box(&mut handles[0], ptr) };
        }
        let delta = ALLOC.allocated_bytes() - before_alloc;
        assert_eq!(scheme.stats().scans, 1, "hp: the threshold scan ran");
        assert_eq!(handles[0].local_in_limbo(), R, "hp: proven, not yet freed");
        delta
    });
    assert_alloc_delta("he: a threshold scan over all N reservations", 0, || {
        const R: usize = 16;
        let config = config(&ManualClock::new()).with_scan_threshold(R);
        let scheme = He::new(config);
        let n = scheme.config().max_threads;
        let mut handles: Vec<_> = (0..n).map(|_| scheme.register()).collect();
        for handle in &mut handles {
            handle.begin_op();
        }
        let nodes: Vec<*mut u64> = (0..R).map(|_| Box::into_raw(Box::new(0u64))).collect();
        let before_alloc = ALLOC.allocated_bytes();
        for &ptr in &nodes {
            // SAFETY: boxed above, unlinked by construction, retired once.
            unsafe { qsense_repro::smr::retire_box(&mut handles[0], ptr) };
        }
        let delta = ALLOC.allocated_bytes() - before_alloc;
        assert_eq!(scheme.stats().scans, 1, "he: the threshold scan ran");
        assert_eq!(
            handles[0].local_in_limbo(),
            R,
            "he: the reservations pin every unstamped node"
        );
        // A reservation outlives `end_op`; a flush withdraws it.
        for handle in &mut handles {
            handle.end_op();
            handle.flush();
        }
        handles[0].flush();
        assert_eq!(handles[0].local_in_limbo(), 0);
        delta
    });

    // --- park / adopt hand-off (hazard) ------------------------------------
    // Dropping a handle with still-protected leftovers parks them on the scheme
    // (O(1) chain splice); the next surviving handle's flush adopts the chain
    // and scans it. Neither side may touch the allocator. The whole scenario is
    // rebuilt per retry attempt (a park/adopt cycle is one-shot).
    assert_alloc_delta("hp: park/adopt handle-drop cycle", 0, || {
        let clock = ManualClock::new();
        let scheme = Hazard::new(config(&clock).with_max_threads(3));
        let mut reader = scheme.register();
        let mut survivor = scheme.register();
        // Warm the survivor's scratch buffer (and exercise an empty adopt).
        survivor.flush();
        let mut dying = scheme.register();
        park_protected_residue(&mut reader, &mut dying);
        dying.flush();
        assert_eq!(dying.local_in_limbo(), PROTECTED);

        let before_alloc = ALLOC.allocated_bytes();
        drop(dying); // park: splice into the scheme's parked store
        survivor.flush(); // adopt: splice back and scan (residue still protected)
        let delta = ALLOC.allocated_bytes() - before_alloc;

        assert_eq!(
            survivor.local_in_limbo(),
            PROTECTED,
            "hp: the survivor must have adopted the parked residue"
        );
        reader.clear_protections();
        survivor.flush();
        assert_eq!(survivor.local_in_limbo(), 0, "hp: adopted residue is freed");
        delta
    });

    // --- Cadence (fence-free HP + deferred reclamation) --------------------
    {
        let clock = ManualClock::new();
        let scheme = Cadence::new(config(&clock));
        let mut reader = scheme.register();
        let mut writer = scheme.register();
        park_protected_residue(&mut reader, &mut writer);
        // A wake-up covers every node, so only protection keeps the residue alive.
        tick(scheme.ledger());
        writer.flush();
        assert_eq!(writer.local_in_limbo(), PROTECTED);
        assert_scans_do_not_allocate("cadence", &mut writer);
        reader.clear_protections();
        writer.flush();
        assert_eq!(writer.local_in_limbo(), 0);
    }

    // --- QSense (hybrid) ---------------------------------------------------
    {
        let clock = ManualClock::new();
        let scheme = QSense::new(config(&clock));
        let mut reader = scheme.register();
        let mut writer = scheme.register();
        park_protected_residue(&mut reader, &mut writer);
        tick(scheme.ledger());
        // Warm up: quiescent states plus one full Cadence pass. The reader never
        // quiesces, so the epoch cannot advance during the measured window — every
        // measured flush exercises the cursor poll and the Cadence keep path.
        writer.flush();
        writer.flush();
        assert_eq!(writer.local_in_limbo(), PROTECTED);
        assert_scans_do_not_allocate("qsense", &mut writer);
        // Growth cycles share one pool across the three epoch-bucket bags, so
        // regrowing past the prior level recycles instead of allocating. The
        // rooster ticks each cycle so the Cadence check can free the fresh
        // batch (the epoch is stuck: the reader never quiesces).
        assert_growth_allocates_nodes_only("qsense", &mut writer, PROTECTED, || {
            tick(scheme.ledger());
        });
        reader.clear_protections();
        writer.flush();
        assert_eq!(writer.local_in_limbo(), 0);
    }

    // --- EBR (the epoch limbo lists), both protocols ----------------------
    for strategy in [FenceStrategy::detect(), FenceStrategy::ReaderFenced] {
        let ebr = &format!("ebr ({})", strategy.name());
        let clock = ManualClock::new();
        let scheme = Ebr::with_fence_strategy(config(&clock), strategy);
        let mut blocker = scheme.register();
        let mut writer = scheme.register();
        // Growth cycles with a free-running epoch: every flush advances far
        // enough to drain the lists wholesale, so the pool feeds each regrowth.
        assert_growth_allocates_nodes_only(ebr, &mut writer, 0, || {});

        // Keep path: a thread pinned at an old epoch blocks reclamation, so
        // flushes must retain the limbo lists — handing back empty buckets only,
        // allocating nothing, no matter how many nodes are in limbo. Each retry
        // attempt drains the previous attempt's limbo first so the pool feeds
        // every regrowth.
        let node_bytes = (GROWTH_BATCH * std::mem::size_of::<u64>()) as u64;
        assert_alloc_delta(
            &format!("{ebr}: stuck-epoch retires (nodes only)"),
            node_bytes,
            || {
                blocker.end_op();
                writer.flush();
                assert_eq!(writer.local_in_limbo(), 0);
                blocker.begin_op();

                let before_alloc = ALLOC.allocated_bytes();
                for _ in 0..GROWTH_BATCH {
                    writer.begin_op();
                    let ptr = Box::into_raw(Box::new(0u64));
                    // SAFETY: freshly boxed, unlinked by construction, retired once.
                    unsafe { qsense_repro::smr::retire_box(&mut writer, ptr) };
                    writer.end_op();
                }
                for _ in 0..MEASURED_SCANS {
                    writer.flush();
                }
                let delta = ALLOC.allocated_bytes() - before_alloc;
                assert_eq!(
                    writer.local_in_limbo(),
                    GROWTH_BATCH,
                    "{ebr}: a pinned thread must keep the limbo chains intact"
                );
                delta
            },
        );
        blocker.end_op();
        writer.flush();
        assert_eq!(
            writer.local_in_limbo(),
            0,
            "{ebr}: unpinning drains the limbo"
        );
    }

    // --- Hazard Eras (era-interval chains) ----------------------------------
    {
        let clock = ManualClock::new();
        let scheme = He::new(config(&clock));
        let mut blocker = scheme.register();
        let mut writer = scheme.register();
        // Growth cycles with no active reservation: every flush advances the
        // era and frees the chains wholesale, so the pool feeds each regrowth.
        assert_growth_allocates_nodes_only("he", &mut writer, 0, || {});

        // Keep path: a reader stalled mid-operation announces an era interval;
        // unstamped (birth-0) retires are treated as born before every era, so
        // the reservation pins them all. Flushes must retain the chains while
        // snapshotting the N reservations into the pre-sized scratch —
        // allocating nothing, no matter how many nodes are in limbo.
        let node_bytes = (GROWTH_BATCH * std::mem::size_of::<u64>()) as u64;
        assert_alloc_delta(
            "he: stalled-reservation retires (nodes only)",
            node_bytes,
            || {
                blocker.end_op();
                blocker.flush(); // withdraws the reservation `end_op` leaves
                writer.flush();
                assert_eq!(writer.local_in_limbo(), 0);
                blocker.begin_op();

                let before_alloc = ALLOC.allocated_bytes();
                for _ in 0..GROWTH_BATCH {
                    writer.begin_op();
                    let ptr = Box::into_raw(Box::new(0u64));
                    // SAFETY: freshly boxed, unlinked by construction, retired once.
                    unsafe { qsense_repro::smr::retire_box(&mut writer, ptr) };
                    writer.end_op();
                }
                for _ in 0..MEASURED_SCANS {
                    writer.flush();
                }
                let delta = ALLOC.allocated_bytes() - before_alloc;
                assert_eq!(
                    writer.local_in_limbo(),
                    GROWTH_BATCH,
                    "he: a stalled reservation must keep unstamped nodes in limbo"
                );
                delta
            },
        );
        blocker.end_op();
        blocker.flush(); // withdraws the reservation `end_op` leaves
        writer.flush();
        assert_eq!(
            writer.local_in_limbo(),
            0,
            "he: withdrawing the reservation drains the limbo"
        );
    }

    // --- Hazard Eras, paced by a limbo budget --------------------------------
    // The pacer's machinery — the governor-estimate read each scan makes, the
    // interval adaptation, the per-alloc interval load — touches only state
    // built at scheme creation, so giving HE a budget (which turns the pacer
    // on) must add exactly zero steady-state allocations: growth cycles
    // still allocate the nodes alone, and keep-path scans under a stalled
    // reservation (the exact state that drives the adaptation hardest, with
    // limbo far past the pacer's mark and the budget) still allocate nothing
    // at all.
    {
        let clock = ManualClock::new();
        // The pacer's mark, a quarter of the budget: 32 of this test's
        // 8-byte nodes.
        let budget = 4 * 32 * std::mem::size_of::<u64>();
        let scheme = He::new(config(&clock).with_limbo_budget(Some(budget)));
        let mut blocker = scheme.register();
        let mut writer = scheme.register();
        assert_growth_allocates_nodes_only("he-adaptive", &mut writer, 0, || {});

        let node_bytes = (GROWTH_BATCH * std::mem::size_of::<u64>()) as u64;
        assert_alloc_delta(
            "he-adaptive: stalled-reservation retires (nodes only)",
            node_bytes,
            || {
                blocker.end_op();
                blocker.flush(); // withdraws the reservation `end_op` leaves
                writer.flush();
                assert_eq!(writer.local_in_limbo(), 0);
                blocker.begin_op();

                let before_alloc = ALLOC.allocated_bytes();
                for _ in 0..GROWTH_BATCH {
                    writer.begin_op();
                    let ptr = Box::into_raw(Box::new(0u64));
                    // SAFETY: freshly boxed, unlinked by construction, retired once.
                    unsafe { qsense_repro::smr::retire_box(&mut writer, ptr) };
                    writer.end_op();
                }
                for _ in 0..MEASURED_SCANS {
                    writer.flush();
                }
                let delta = ALLOC.allocated_bytes() - before_alloc;
                assert_eq!(
                    writer.local_in_limbo(),
                    GROWTH_BATCH,
                    "he-adaptive: a stalled reservation must keep unstamped nodes in limbo"
                );
                delta
            },
        );
        assert!(
            scheme.stats().limbo_bytes() >= node_bytes,
            "the measured scans reported the limbo pressure"
        );
        assert_eq!(
            scheme.pacer().current_interval(),
            16,
            "pressure drove the interval to the fast end without allocating"
        );
        blocker.end_op();
        blocker.flush(); // withdraws the reservation `end_op` leaves
        writer.flush();
        assert_eq!(writer.local_in_limbo(), 0);
    }

    // --- handle churn (register / drop / register) --------------------------
    // Thread-pool pattern: each cycle registers a fresh handle, retires a
    // batch, flushes and drops the handle. After the unmeasured first wave has
    // stocked the scheme's parked store, every later registration adopts the
    // parked pool (+ scratch), so churn cycles allocate only the retired nodes
    // themselves.
    churn_allocates_nodes_only("hp", Hazard::new(config(&ManualClock::new())), || {});
    churn_allocates_nodes_only("qsbr", Qsbr::new(config(&ManualClock::new())), || {});
    churn_allocates_nodes_only("ebr", Ebr::new(config(&ManualClock::new())), || {});
    churn_allocates_nodes_only("he", He::new(config(&ManualClock::new())), || {});
    churn_allocates_nodes_only("rc", RefCount::new(config(&ManualClock::new())), || {});
    {
        // The deferred-reclamation schemes free only nodes a wake-up has
        // covered: tick their ledger each cycle so every flush drains.
        let scheme = Cadence::new(config(&ManualClock::new()));
        churn_allocates_nodes_only("cadence", Arc::clone(&scheme), || {
            tick(scheme.ledger());
        });
        let scheme = QSense::new(config(&ManualClock::new()));
        churn_allocates_nodes_only("qsense", Arc::clone(&scheme), || {
            tick(scheme.ledger());
        });
    }

    // --- guard-API structures across the full matrix -------------------------
    // The six migrated structures drive the same retirement pipeline through
    // the safe guard layer (`reclaim_core::guard`), so the zero-allocation
    // contract must survive the indirection. For every structure × scheme
    // cell: steady-state flushes allocate nothing. For the fixed-node-size
    // structures additionally: a whole churn cycle (insert every key, remove
    // every key, flush) allocates nothing at all — bag/scratch growth is fed
    // by recycled segments, and every node by a block the previous cycle's
    // flush put in the handle's node cache. (The skip list draws random tower
    // heights, so a cycle can ask for a class the cache lacks and it gets the
    // flush check only; the leaky baseline frees nothing, so it is exempt from
    // the cycle check too.)
    {
        use qsense_repro::bench::{
            config_for, make_set, set_over, SchemeKind, SetSession, Structure,
        };

        const CHURN_KEYS: u64 = 48;
        fn churn_cycle(session: &mut dyn SetSession, age: &dyn Fn()) {
            for key in 0..CHURN_KEYS {
                session.insert(key);
            }
            for key in 0..CHURN_KEYS {
                session.remove(key);
            }
            age();
            session.flush();
        }

        for structure in [
            Structure::List,
            Structure::SkipList,
            Structure::Bst,
            Structure::HashMap,
            Structure::Queue,
            Structure::Stack,
        ] {
            for kind in SchemeKind::extended() {
                let base = config(&ManualClock::new()).with_max_threads(4);
                // `age` covers the Cadence-family limbo with a wake-up; a
                // no-op for the rest.
                let (set, age): (_, Box<dyn Fn()>) = match kind {
                    SchemeKind::Cadence => {
                        let scheme = Cadence::new(config_for(structure, base));
                        let set = set_over(structure, Arc::clone(&scheme));
                        (set, Box::new(move || tick(scheme.ledger())))
                    }
                    SchemeKind::QSense => {
                        let scheme = QSense::new(config_for(structure, base));
                        let set = set_over(structure, Arc::clone(&scheme));
                        (set, Box::new(move || tick(scheme.ledger())))
                    }
                    _ => (make_set(structure, kind, base), Box::new(|| ())),
                };
                let mut session = set.session();
                // Warm-up: reach steady-state pool/scratch capacity.
                churn_cycle(&mut *session, &*age);
                churn_cycle(&mut *session, &*age);
                assert_alloc_delta(
                    &format!("{structure:?}/{kind:?}: steady-state flushes"),
                    0,
                    || {
                        let before_alloc = ALLOC.allocated_bytes();
                        for _ in 0..25 {
                            session.flush();
                        }
                        ALLOC.allocated_bytes() - before_alloc
                    },
                );
                if structure != Structure::SkipList && kind != SchemeKind::None {
                    assert_alloc_delta(
                        &format!("{structure:?}/{kind:?}: churn cycle (nodes recycled)"),
                        0,
                        || {
                            let before_alloc = ALLOC.allocated_bytes();
                            churn_cycle(&mut *session, &*age);
                            ALLOC.allocated_bytes() - before_alloc
                        },
                    );
                }
            }
        }
    }

    // --- guard-layer cycles recycle their nodes -------------------------------
    // `Owned::new` → `cas_link` → `cas_unlink` → `Unlinked::retire` on one
    // handle, the scheme's scans running wherever its thresholds put them:
    // after warm-up, every node a cycle allocates is a block the free stage
    // put in the handle's node cache, so a reclaiming scheme's cycles allocate
    // nothing at all and its arena carves nothing. Leaky frees nothing: each
    // of its cycles takes its node from the scheme's arena, which carves
    // them `REFILL_BLOCKS` at a time and takes a whole chunk from the
    // allocator every `per_chunk` nodes — the window must see exactly the
    // chunks its nodes cross into and nothing else. A node with nothing to
    // drop it keeps no record of; one with drop glue it records, so its bag
    // takes a segment every `SEG_CAP` retires.
    {
        /// A multiple of `SEG_CAP`, so Leaky's bag crosses a whole number of
        /// segments.
        const CYCLES: usize = 100 * SEG_CAP;
        /// Nothing to drop: every node retires as a plain block.
        type Payload = [u64; 3];
        /// As large, with drop glue (an empty `Vec` allocates nothing).
        type Glued = Vec<u64>;
        fn measure<S: Smr, P: Default>(
            name: &str,
            scheme: Arc<S>,
            age: impl Fn(&S),
            carved_per_cycle: usize,
            expected: usize,
        ) {
            let mut handle = scheme.register();
            let link: Atomic<P> = Atomic::null();
            let mut cycles = || {
                for _ in 0..CYCLES {
                    let guard = Guard::new(&mut handle);
                    let node = Owned::new(P::default(), &guard);
                    link.cas_link(link.load(&guard), node)
                        .expect("nothing else writes the link");
                    let published = guard.load_protected(0, &link);
                    // SAFETY: the link is this test's own: the only path to
                    // the node.
                    let (unlinked, _) = unsafe { link.cas_unlink(published, Shared::null()) }
                        .expect("nothing else writes the link");
                    unlinked.retire(&guard);
                    drop(guard);
                    age(&scheme);
                }
            };
            cycles(); // warm-up: pool, scratch and cache at their steady state
                      // A miss carves `REFILL_BLOCKS` at once.
                      // A node's block: the birth-era header, then the payload.
            let per_chunk =
                (CHUNK_BYTES - CHUNK_HEADER_BYTES) / (size_of::<Era>() + size_of::<P>());
            let chunks_for = |cycles: usize| {
                (cycles * carved_per_cycle)
                    .next_multiple_of(REFILL_BLOCKS)
                    .div_ceil(per_chunk)
            };
            let mut run = CYCLES;
            assert_alloc_delta(
                &format!("{name}: {CYCLES} guard-layer cycles, chunks aside"),
                expected as u64,
                || {
                    let arena_before = scheme.stats().arena_bytes;
                    let before_alloc = ALLOC.allocated_bytes();
                    cycles();
                    let delta = ALLOC.allocated_bytes() - before_alloc;
                    let chunks = scheme.stats().arena_bytes - arena_before;
                    let crossed = chunks_for(run + CYCLES) - chunks_for(run);
                    run += CYCLES;
                    assert_eq!(
                        chunks,
                        (crossed * CHUNK_BYTES) as u64,
                        "{name}: the window carves exactly the chunks its nodes cross into"
                    );
                    delta - chunks
                },
            );
        }
        let config = || {
            config(&ManualClock::new())
                .with_scan_threshold(16)
                .with_quiescence_threshold(8)
        };
        measure::<_, Payload>("hp", Hazard::new(config()), |_| (), 0, 0);
        measure::<_, Payload>("qsbr", Qsbr::new(config()), |_| (), 0, 0);
        measure::<_, Payload>("ebr", Ebr::new(config()), |_| (), 0, 0);
        measure::<_, Payload>("he", He::new(config()), |_| (), 0, 0);
        measure::<_, Payload>("rc", RefCount::new(config()), |_| (), 0, 0);
        measure::<_, Payload>(
            "cadence",
            Cadence::new(config()),
            |s| tick(s.ledger()),
            0,
            0,
        );
        measure::<_, Payload>("qsense", QSense::new(config()), |s| tick(s.ledger()), 0, 0);
        measure::<_, Payload>("none", Leaky::new(config()), |_| (), 1, 0);
        // A segment: its `next` and `len` words, then `SEG_CAP` retired nodes.
        let segment = 2 * size_of::<usize>() + SEG_CAP * size_of::<RetiredPtr>();
        measure::<_, Glued>(
            "none, drop glue",
            Leaky::new(config()),
            |_| (),
            1,
            CYCLES / SEG_CAP * segment,
        );
    }

    // --- nothing leaks ------------------------------------------------------
    // Node caches hold freed blocks past their nodes' frees, so the books must
    // close when everything drops: the structure, its sessions — each giving
    // its node cache back to the arena; a third one on the registry-less
    // schemes, whose workspace finds the scheme's parked store full at
    // `max_threads` (2) and is dropped — and the scheme, which frees the
    // parked workspaces and the arena. The allocator's live bytes then stand
    // where they started.
    {
        use qsense_repro::bench::{make_set, SchemeKind, Structure};

        for kind in SchemeKind::extended() {
            let sessions = match kind {
                SchemeKind::None | SchemeKind::RefCount => 3,
                _ => 2,
            };
            let mut last = 0;
            for _ in 0..3 {
                let before = ALLOC.live_bytes();
                let base = config(&ManualClock::new())
                    .with_max_threads(2)
                    .with_scan_threshold(16);
                let set = make_set(Structure::Queue, kind, base);
                let mut open: Vec<_> = (0..sessions).map(|_| set.session()).collect();
                for _ in 0..4 {
                    for session in &mut open {
                        for key in 0..64 {
                            session.insert(key);
                        }
                        for key in 0..64 {
                            session.remove(key);
                        }
                        session.flush();
                    }
                }
                drop(open);
                drop(set);
                last = ALLOC.live_bytes() as i64 - before as i64;
                if last == 0 {
                    break;
                }
            }
            assert_eq!(last, 0, "{kind:?}: live bytes after everything dropped");
        }
    }

    // --- telemetry record + snapshot paths -----------------------------------
    // With the observability layer live (histograms on, 1 op in 128 sampled —
    // always a handle's first, so the warm-up records a bracket), the
    // whole record surface — the guard-bracket latency sample, the retire-tick
    // stamp, the scan timer, the per-free delay records — and the
    // `Telemetry::summary()` snapshot must stay allocation-free: the
    // histograms are fixed inline arrays and the handle core's sampling
    // counter and tick cache are plain fields. Each scheme runs warmed-up
    // guard-bracketed retire→flush cycles and must allocate exactly the
    // retired nodes; the
    // leaky baseline (whose bag never drains, so its amortized segment growth
    // breaks the exact-delta assertion) runs the op bracket and snapshot loop
    // alone.
    {
        fn telemetry_cycles_allocate_nodes_only<S: Smr>(
            scheme_name: &str,
            scheme: Arc<S>,
            clock: &ManualClock,
            age: impl Fn(&S),
        ) {
            let mut writer = scheme.register();
            let telemetry = Smr::telemetry(&*scheme);
            let cycle = |writer: &mut S::Handle| {
                for _ in 0..GROWTH_BATCH {
                    // The guard holds the handle while it lives, so the
                    // retire follows the bracketed op (the retire contract
                    // allows one between operations).
                    drop(Guard::new(&mut *writer));
                    let ptr = Box::into_raw(Box::new(0u64));
                    // SAFETY: freshly boxed, unlinked by construction, retired once.
                    unsafe { qsense_repro::smr::retire_box(writer, ptr) };
                }
                // The clock feeds the retire->free delay; `age` is the wake-up
                // Cadence's and QSense's frees wait for.
                clock.advance(Duration::from_millis(10));
                age(&scheme);
                writer.flush();
                let summary = telemetry.summary();
                assert!(
                    !summary.op_latency_ns.is_empty(),
                    "{scheme_name}: sampled brackets recorded"
                );
            };
            // Warm-up: steady-state pool capacity, first histogram touches.
            cycle(&mut writer);
            assert_eq!(writer.local_in_limbo(), 0, "{scheme_name}: warm-up drains");
            let node_bytes = (GROWTH_CYCLES * GROWTH_BATCH * std::mem::size_of::<u64>()) as u64;
            assert_alloc_delta(
                &format!("{scheme_name}: telemetry-on retire cycles (nodes only)"),
                node_bytes,
                || {
                    let before_alloc = ALLOC.allocated_bytes();
                    for _ in 0..GROWTH_CYCLES {
                        cycle(&mut writer);
                    }
                    ALLOC.allocated_bytes() - before_alloc
                },
            );
            let summary = telemetry.summary();
            assert!(
                !summary.reclaim_delay_us.is_empty(),
                "{scheme_name}: every drained node recorded its retire->free delay"
            );
        }

        let tele_config = |clock: &ManualClock| config(clock).with_telemetry(true);
        let clock = ManualClock::new();
        telemetry_cycles_allocate_nodes_only(
            "hp",
            Hazard::new(tele_config(&clock)),
            &clock,
            |_| (),
        );
        let clock = ManualClock::new();
        telemetry_cycles_allocate_nodes_only(
            "qsbr",
            Qsbr::new(tele_config(&clock)),
            &clock,
            |_| (),
        );
        let clock = ManualClock::new();
        telemetry_cycles_allocate_nodes_only("ebr", Ebr::new(tele_config(&clock)), &clock, |_| ());
        let clock = ManualClock::new();
        telemetry_cycles_allocate_nodes_only("he", He::new(tele_config(&clock)), &clock, |_| ());
        let clock = ManualClock::new();
        telemetry_cycles_allocate_nodes_only(
            "rc",
            RefCount::new(tele_config(&clock)),
            &clock,
            |_| (),
        );
        let clock = ManualClock::new();
        telemetry_cycles_allocate_nodes_only(
            "cadence",
            Cadence::new(tele_config(&clock)),
            &clock,
            |scheme| tick(scheme.ledger()),
        );
        let clock = ManualClock::new();
        telemetry_cycles_allocate_nodes_only(
            "qsense",
            QSense::new(tele_config(&clock)),
            &clock,
            |scheme| tick(scheme.ledger()),
        );

        // Leaky: the op bracket and the snapshot path alone (no retires — its
        // bag would grow without bound and bill segment growth to the window).
        {
            let clock = ManualClock::new();
            let scheme = Leaky::new(tele_config(&clock));
            let mut handle = scheme.register();
            let telemetry = Smr::telemetry(&*scheme);
            // Warm-up: first bracket and snapshot.
            drop(Guard::new(&mut handle));
            let _ = telemetry.summary();
            assert_alloc_delta("none: telemetry brackets + snapshots", 0, || {
                let before_alloc = ALLOC.allocated_bytes();
                for _ in 0..256 {
                    drop(Guard::new(&mut handle));
                    let summary = telemetry.summary();
                    assert!(!summary.op_latency_ns.is_empty());
                }
                ALLOC.allocated_bytes() - before_alloc
            });
        }
    }

    // --- lease checkout / checkin ------------------------------------------
    // The M:N lease layer sits on the session hot path (a server checks a
    // handle out per request), so borrowing must be as quiet as the pipeline
    // it lends out: the pool's idle stack is pre-sized to `slots` at
    // construction and a checkin can never push past it, so steady-state
    // checkout (mutex + Vec pop) and checkin (mutex + Vec push) are
    // allocation-free — for the blocking, non-blocking, and drop-driven
    // checkin paths alike, and regardless of interleaving depth.
    {
        use qsense_repro::smr::{LeasePolicy, LeasePool};

        let scheme = Hazard::new(config(&ManualClock::new()).with_max_threads(4));
        let pool =
            LeasePool::for_scheme(&scheme, 3, LeasePolicy::Fail).expect("3 handles fit 4 slots");
        // Warm-up: first checkout of every handle (and a failed checkout).
        {
            let _a = pool.checkout().expect("warm-up lease");
            let _b = pool.try_checkout();
            let _c = pool.try_checkout();
            assert!(pool.try_checkout().is_none(), "pool is fully lent out");
        }
        assert_eq!(pool.idle_count(), 3, "warm-up returned every handle");
        assert_alloc_delta("lease checkout/checkin cycles", 0, || {
            let before_alloc = ALLOC.allocated_bytes();
            for _ in 0..256 {
                // Deep interleaving: all three handles out at once, the
                // overflow checkout shed by the fail policy, LIFO checkin.
                let a = pool.checkout().expect("lease 1");
                let b = pool.try_checkout().expect("lease 2");
                let c = pool.try_checkout().expect("lease 3");
                assert!(pool.checkout().is_err(), "fail policy sheds the 4th");
                drop(b);
                let b2 = pool.try_checkout().expect("checkin reopened the pool");
                drop(a);
                drop(c);
                drop(b2);
            }
            assert_eq!(pool.idle_count(), 3);
            ALLOC.allocated_bytes() - before_alloc
        });
    }

    // --- stats snapshots ---------------------------------------------------
    // Off the hot path but used by monitoring loops: summing the sharded counter
    // stripes must not allocate either. (Kept in the same #[test] so no
    // concurrently running case can disturb the process-wide counter.)
    {
        let scheme: Arc<Hazard> = Hazard::new(SmrConfig::default().with_max_threads(4));
        let handle = scheme.register();
        let _ = scheme.stats(); // warm-up
        assert_alloc_delta("stats snapshot", 0, || {
            let before = ALLOC.allocated_bytes();
            for _ in 0..100 {
                let snap = scheme.stats();
                assert!(snap.retired >= snap.freed);
            }
            ALLOC.allocated_bytes() - before
        });
        drop(handle);
    }
}
