//! Quickstart: safe reclamation in two acts.
//!
//! **Act 1** integrates a brand-new lock-free structure — a miniature Treiber
//! stack — against the safe guard API (`Guard` / `Atomic` / `Owned` /
//! `Unlinked`). The paper's integration rules (bracket the operation, protect
//! then re-validate, stamp the birth era, retire only what you unlinked) are
//! carried by the types, so the whole structure needs exactly two `unsafe`
//! blocks, each stating one honest obligation.
//!
//! **Act 2** hammers a ready-made structure (the Harris–Michael list, itself
//! built on the same guard layer) from several threads under QSense and prints
//! the reclamation counters: every removed node was either freed or is sitting
//! in a bounded limbo list, and no thread ever touched freed memory.
//!
//! Run with: `cargo run --release --example quickstart`

use qsense_repro::ds::{HarrisMichaelList, LIST_HP_SLOTS};
use qsense_repro::smr::{Atomic, Guard, Owned, QSense, Smr, SmrConfig};
use std::sync::Arc;
use std::thread;

/// A node of the miniature stack. No birth-era field, no mark bit, no raw
/// pointers: the guard layer owns all of that.
struct MiniNode {
    value: u64,
    next: Atomic<MiniNode>,
}

/// A miniature Treiber stack on the guard API, generic over the scheme like
/// every structure in `lockfree-ds`.
struct MiniStack<S: Smr> {
    top: Atomic<MiniNode>,
    smr: Arc<S>,
}

/// The one protection slot the stack needs (its `K` in the paper's terms).
const HP_TOP: usize = 0;

impl<S: Smr> MiniStack<S> {
    fn new(smr: Arc<S>) -> Self {
        Self {
            top: Atomic::null(),
            smr,
        }
    }

    fn register(&self) -> S::Handle {
        self.smr.register()
    }

    fn push(&self, value: u64, handle: &mut S::Handle) {
        // Rule 1: the guard brackets the operation (begin_op here, slot clear
        // + end_op when it drops — on every return path).
        let guard = Guard::new(handle);
        // Rule 3: `Owned::new` stamps the scheme's birth era into a private
        // header; this structure never sees an era.
        let mut node = Owned::new(
            MiniNode {
                value,
                next: Atomic::null(),
            },
            &guard,
        );
        loop {
            let top = self.top.load(&guard);
            node.next.store_private(top); // private: not yet linked
            match self.top.cas_link(top, node) {
                Ok(_) => return,
                // The CAS hands the node back on failure; retry with it.
                Err((_, again)) => node = again,
            }
        }
    }

    fn pop(&self, handle: &mut S::Handle) -> Option<u64> {
        let guard = Guard::new(handle);
        loop {
            // Rule 2: publish + re-read + compare, bundled. The returned
            // `Shared` cannot outlive `guard` (borrow checker enforced).
            let top = guard.load_protected(HP_TOP, &self.top);
            if top.is_null() {
                return None;
            }
            // SAFETY: validated protection on the rooted top link.
            let node = unsafe { top.as_ref() }.expect("non-null top");
            let next = node.next.load(&guard);
            // Rule 4: a successful unlink CAS mints the *only* retire
            // capability for the node.
            // SAFETY: the top link is the sole path by which new observers
            // reach this node.
            match unsafe { self.top.cas_unlink(top, next.unmarked()) } {
                Ok((unlinked, _)) => {
                    let value = unlinked.as_ref().value; // safe: not yet retired
                    unlinked.retire(&guard); // consumed: exactly once, sized, era-stamped
                    return Some(value);
                }
                Err(_) => continue,
            }
        }
    }
}

impl<S: Smr> Drop for MiniStack<S> {
    fn drop(&mut self) {
        // Teardown with exclusive access: walk the chain, reclaiming each
        // node synchronously.
        let mut link = std::mem::replace(&mut self.top, Atomic::null());
        // SAFETY: `&mut self` — no concurrent operations, no protections.
        while let Some(node) = unsafe { link.take() } {
            link = node.into_inner().next;
        }
    }
}

fn main() {
    let threads = 4;
    let ops_per_thread = 100_000u64;
    let key_range = 1_000u64;

    // ---- Act 1: a freshly integrated structure ----------------------------
    let scheme = QSense::new(
        SmrConfig::default()
            .with_max_threads(threads + 1)
            .with_hp_per_thread(1), // the mini stack needs one slot,
    );
    let stack = Arc::new(MiniStack::new(Arc::clone(&scheme)));
    thread::scope(|scope| {
        for t in 0..threads {
            let stack = Arc::clone(&stack);
            scope.spawn(move || {
                let mut handle = stack.register();
                for i in 0..10_000u64 {
                    stack.push(t as u64 * 10_000 + i, &mut handle);
                    if i % 2 == 0 {
                        stack.pop(&mut handle);
                    }
                }
            });
        }
    });
    let mini_stats = scheme.stats();
    println!("mini-stack (guard API, ~60 lines, 2 unsafe blocks):");
    println!("  nodes retired            : {}", mini_stats.retired);
    println!(
        "  size-unknown retires     : {} (the guard layer seals the 0-byte path)",
        mini_stats.size_unknown_retires
    );
    assert_eq!(mini_stats.size_unknown_retires, 0);
    drop(stack);

    // ---- Act 2: a ready-made structure under load -------------------------
    // The hazard-pointer budget is the list's (K = `LIST_HP_SLOTS`).
    let config = SmrConfig::default().with_hp_per_thread(LIST_HP_SLOTS);
    let scheme = QSense::new(config.with_max_threads(threads + 1));
    let set = Arc::new(HarrisMichaelList::new(Arc::clone(&scheme)));

    thread::scope(|scope| {
        for t in 0..threads {
            let set = Arc::clone(&set);
            scope.spawn(move || {
                let mut handle = set.register();
                let mut state = 0x1234_5678_u64.wrapping_add(t as u64);
                for _ in 0..ops_per_thread {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let key = (state >> 33) % key_range;
                    match state % 10 {
                        0..=4 => {
                            set.contains(&key, &mut handle);
                        }
                        5..=7 => {
                            set.insert(key, &mut handle);
                        }
                        _ => {
                            set.remove(&key, &mut handle);
                        }
                    }
                }
            });
        }
    });

    let mut handle = set.register();
    let live = set.len(&mut handle);
    let stats = scheme.stats();
    println!(
        "quickstart: {} threads x {} ops finished",
        threads, ops_per_thread
    );
    println!("  live keys in the set now : {live}");
    println!("  nodes retired            : {}", stats.retired);
    println!("  nodes freed              : {}", stats.freed);
    println!("  nodes still in limbo     : {}", stats.in_limbo());
    println!("  quiescent states         : {}", stats.quiescent_states);
    println!("  fallback switches        : {}", stats.fallback_switches);
    assert!(stats.freed <= stats.retired);
    assert_eq!(stats.size_unknown_retires, 0);
    println!("ok: reclamation accounting is consistent");
}
