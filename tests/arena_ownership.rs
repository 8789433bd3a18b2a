//! Where what a structure or a departed handle leaves goes: into the arena of
//! the scheme it served. A structure carves its sentinels there before any
//! handle registers, and a handle that leaves gives its node cache's blocks
//! back there, off the books, so the next registrant starts with an empty
//! cache and still allocates nothing.

use qsense_repro::ds::{LockFreeBst, LockFreeSkipList, MichaelScottQueue, SKIPLIST_HP_SLOTS};
use qsense_repro::smr::{
    Atomic, Era, FenceStrategy, Guard, Hazard, Leaky, Owned, Shared, Smr, SmrConfig, SmrHandle,
};
use reclaim_core::node_cache::REFILL_BLOCKS;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

thread_local! {
    /// Bytes this thread has taken from the allocator. Per thread, so the
    /// harness and the other test add nothing to it.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, tallied per thread.
struct PerThread;

// SAFETY: `System`'s allocations, with a tally beside them.
unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + layout.size()));
        // SAFETY: the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: PerThread = PerThread;

#[test]
fn structures_carve_their_sentinels_from_their_schemes_arena() {
    let queue = MichaelScottQueue::<u64, _>::new(Leaky::with_defaults());
    let bst = LockFreeBst::<u64, _>::new(Leaky::with_defaults());
    let skiplist = LockFreeSkipList::<u64, _>::new(Leaky::new(
        SmrConfig::default().with_hp_per_thread(SKIPLIST_HP_SLOTS),
    ));
    let footprints = [
        ("queue", queue.smr().stats()),
        ("bst", bst.smr().stats()),
        ("skip list", skiplist.smr().stats()),
    ];
    for (name, stats) in footprints {
        assert!(stats.arena_bytes > 0, "{name}: no handle, yet a chunk");
        assert_eq!(stats.arena_free_bytes, 0, "{name}: every sentinel is out");
    }
    let scheme = bst.smr().clone();
    drop(bst);
    assert!(
        scheme.stats().arena_free_bytes > 0,
        "a dropped structure gives its sentinels back to its scheme's arena"
    );
}

#[test]
fn a_departed_handles_cache_goes_back_to_its_arena() {
    // A `u64` behind the birth-era header.
    const BLOCK: u64 = (size_of::<Era>() + size_of::<u64>()) as u64;
    // One refill's worth: the cache holds no spare when the handle leaves.
    const NODES: u64 = REFILL_BLOCKS as u64;
    let scheme = Hazard::with_fence_strategy(
        SmrConfig::default().with_max_threads(4),
        FenceStrategy::ReaderFenced,
    );
    let _survivor = scheme.register();
    let mut dying = scheme.register();
    {
        let guard = Guard::new(&mut dying);
        let links: Vec<Atomic<u64>> = (0..NODES)
            .map(|key| Atomic::new(Owned::new(key, &guard)))
            .collect();
        for link in &links {
            let published = guard.load_protected(0, link);
            // SAFETY: each link is this test's own: the only path to its node.
            let (unlinked, _) = unsafe { link.cas_unlink(published, Shared::null()) }
                .expect("nothing else writes the link");
            unlinked.retire(&guard);
        }
    }
    dying.flush();
    let before = scheme.stats();
    assert_eq!(before.freed, NODES);
    assert_eq!(before.cached_bytes, NODES * BLOCK, "every block is cached");

    drop(dying);
    let after = scheme.stats();
    assert_eq!(
        before.cached_bytes - after.cached_bytes,
        NODES * BLOCK,
        "the departed cache leaves the books"
    );
    assert_eq!(
        after.arena_free_bytes - before.arena_free_bytes,
        NODES * BLOCK,
        "its blocks are back on the arena's lists"
    );

    let allocated = ALLOCATED.with(Cell::get);
    let next = scheme.register();
    assert_eq!(
        ALLOCATED.with(Cell::get) - allocated,
        0,
        "the next registration adopts the parked pool and allocates nothing"
    );
    drop(next);
}
