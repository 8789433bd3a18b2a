//! The node arena's lifetime rules (`reclaim_core::node_cache`): a scheme's
//! chunks leave with the scheme, a structure dropped while its scheme lives
//! gives its blocks back to the scheme's arena, and a node kept past its
//! scheme stays valid. On Leaky, the scheme this crate carries: its handles
//! never free, so a node with nothing to drop that it retires — a sentinel
//! included, carved from the same arena — stays unrecorded until its chunk
//! goes at scheme drop.

use reclaim_core::{Atomic, Era, Guard, Leaky, Owned, Shared, Smr, SmrHandle};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::rc::Rc;
use std::sync::{Mutex, MutexGuard, PoisonError};

thread_local! {
    /// Bytes this thread holds from the allocator: allocated less freed.
    /// Per thread, so the harness and the other tests add nothing to it.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, tallied per thread.
struct PerThread;

// SAFETY: `System`'s allocations, with a tally beside them.
unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.with(|live| live.set(live.get() + layout.size() as isize));
        // SAFETY: the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|live| live.set(live.get() - layout.size() as isize));
        // SAFETY: the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: PerThread = PerThread;

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// Held by each test for its whole run. Under `check-oracle` the shadow
/// table is one per process, and a thread whose insert grows a shard pays for
/// the larger table: a test running beside the measured cycle would make it
/// hold bytes it never asked for.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A node of the smallest structure there is: a chain.
struct Link {
    key: u64,
    next: Atomic<Link>,
}

/// A `Link`'s block: the birth-era header, then the link.
const BLOCK: usize = size_of::<Era>() + size_of::<Link>();

/// More nodes than two chunks hold.
const KEYS: u64 = 6_000;

/// A chain of `KEYS` nodes allocated through `handle`.
fn prefill<H: SmrHandle>(handle: &mut H) -> Atomic<Link> {
    let guard = Guard::new(handle);
    (0..KEYS).fold(Atomic::null(), |next, key| {
        Atomic::new(Owned::new(Link { key, next }, &guard))
    })
}

/// Frees every node of `head`'s chain outside the retire pipeline, as a
/// structure's `Drop` does; returns the keys it held, newest first.
fn teardown(mut head: Atomic<Link>) -> Vec<u64> {
    let mut keys = Vec::new();
    // SAFETY: the chain is this test's alone; each link is taken once.
    while let Some(mut node) = unsafe { head.take() } {
        keys.push(node.key);
        head = std::mem::take(&mut node.next);
    }
    keys
}

/// Links a node off `handle` and retires it, `rounds` times: Leaky keeps
/// each in limbo until its scheme drops.
fn churn<H: SmrHandle>(handle: &mut H, rounds: u64) {
    let link: Atomic<Link> = Atomic::null();
    for key in 0..rounds {
        let guard = Guard::new(handle);
        let node = Owned::new(
            Link {
                key,
                next: Atomic::null(),
            },
            &guard,
        );
        link.cas_link(link.load(&guard), node)
            .expect("nothing else writes the link");
        let published = guard.load_protected(0, &link);
        // SAFETY: the link is this test's own: the only path to the node.
        let (unlinked, _) = unsafe { link.cas_unlink(published, Shared::null()) }
            .expect("nothing else writes the link");
        unlinked.retire(&guard);
    }
}

/// make_set → prefill → churn → teardown → drop, on a fresh scheme.
fn cycle() {
    let scheme = Leaky::with_defaults();
    let mut handle = scheme.register();
    let chain = prefill(&mut handle);
    churn(&mut handle, KEYS);
    assert_eq!(teardown(chain).len() as u64, KEYS);
    drop(handle);
    assert!(
        scheme.stats().arena_bytes > 0,
        "the nodes came from its arena"
    );
    drop(scheme);
}

#[test]
fn a_scheme_drop_gives_every_chunk_back_to_the_allocator() {
    let _serial = serial();
    // A first cycle grows whatever the process keeps once (the oracle's
    // tables under `check-oracle`).
    cycle();
    let before = live();
    cycle();
    assert_eq!(live() - before, 0, "bytes still held after the scheme drop");
}

#[test]
fn a_dropped_structure_gives_its_blocks_back_and_the_next_prefill_reuses_them() {
    let _serial = serial();
    let scheme = Leaky::with_defaults();
    let mut handle = scheme.register();
    let chain = prefill(&mut handle);
    let carved = scheme.stats().arena_bytes;
    assert!(
        carved as usize >= KEYS as usize * BLOCK,
        "{carved} B of chunks"
    );
    assert_eq!(teardown(chain), (0..KEYS).rev().collect::<Vec<_>>());
    let stats = scheme.stats();
    assert_eq!(
        stats.arena_free_bytes as usize,
        KEYS as usize * BLOCK,
        "every block is back on the arena's list"
    );
    let chain = prefill(&mut handle);
    let stats = scheme.stats();
    assert_eq!(
        stats.arena_bytes, carved,
        "the second prefill carves no chunk"
    );
    assert_eq!(stats.arena_free_bytes, 0, "it takes every listed block");
    teardown(chain);
}

#[test]
fn a_sentinel_retired_through_leaky_goes_back_to_its_own_arena() {
    let _serial = serial();
    // The sentinel's block is Leaky's own, carved before any handle was
    // registered: retired, it is a plain block kept with no record, and its
    // chunk must still go at scheme drop rather than look short of a block.
    let cycle = || {
        let scheme = Leaky::with_defaults();
        let mut handle = scheme.register();
        churn(&mut handle, KEYS);
        let sentinel = Link {
            key: 0,
            next: Atomic::null(),
        };
        let link = Atomic::new(Owned::sentinel(sentinel, &*scheme));
        let guard = Guard::new(&mut handle);
        let published = guard.load_protected(0, &link);
        // SAFETY: the link is this test's own: the only path to the node.
        let (unlinked, _) = unsafe { link.cas_unlink(published, Shared::null()) }
            .expect("nothing else writes the link");
        unlinked.retire(&guard);
        drop(guard);
        drop(handle);
        drop(scheme);
    };
    // A first cycle grows whatever the process keeps once.
    cycle();
    let before = live();
    cycle();
    assert_eq!(live() - before, 0, "bytes still held after the scheme drop");
}

/// Counts its drops.
struct Tracked {
    value: [u64; 4],
    drops: Rc<Cell<usize>>,
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.drops.set(self.drops.get() + 1);
    }
}

#[test]
fn an_owned_node_outlives_its_guard_handle_and_scheme() {
    let _serial = serial();
    let drops = Rc::new(Cell::new(0));
    let scheme = Leaky::with_defaults();
    let mut handle = scheme.register();
    let kept = {
        let guard = Guard::new(&mut handle);
        Owned::new(
            Tracked {
                value: [7; 4],
                drops: Rc::clone(&drops),
            },
            &guard,
        )
    };
    drop(handle);
    drop(scheme);
    // The block is still out, so the scheme's arena stayed with its chunks:
    // a new scheme's nodes land elsewhere, and the kept node reads and drops
    // as if nothing happened.
    let other = Leaky::with_defaults();
    let mut handle = other.register();
    let chain = prefill(&mut handle);
    assert_eq!(kept.value, [7; 4]);
    drop(kept);
    assert_eq!(drops.get(), 1);
    teardown(chain);
}
