//! Lock-free stack (Treiber) generic over the reclamation scheme.
//!
//! The stack is the canonical first example of the hazard-pointer methodology
//! (Michael \[25\] uses it to introduce the technique): `pop` reads the head, must
//! dereference it to find its successor, and that dereference is an access hazard —
//! the head may have been popped and freed by a concurrent thread in the meantime.
//! One protection slot per thread suffices (`K = 1`): only the current head is ever
//! dereferenced.
//!
//! Built entirely on the safe guard layer (`reclaim_core::guard`): the head is an
//! [`Atomic`] link, `pop`'s protect-then-revalidate is [`Guard::load_protected`],
//! and the node is retired through the [`reclaim_core::Unlinked`] capability
//! minted by the successful head CAS — the module contains no raw `protect` or
//! retire calls.
//!
//! The structure is not part of the paper's evaluation; it is included to
//! demonstrate the claim of §1.3/§4.2 that QSense applies wherever hazard pointers
//! apply, beyond ordered sets, and it feeds the extension benchmarks and examples.

use reclaim_core::{Atomic, Guard, Owned, Smr};
use std::cell::UnsafeCell;
use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Protection slot used for the head node during `pop`.
const HP_HEAD: usize = 0;

/// Number of protection slots the stack needs per thread (`K` in the paper).
pub const STACK_HP_SLOTS: usize = 1;

struct Node<V> {
    /// The value is taken out (moved to the caller) by the thread that pops the
    /// node, so the node's destructor must not drop it a second time. The
    /// `UnsafeCell` lets the unique unlinker take it through the shared
    /// [`reclaim_core::Unlinked::as_ref`] view; no other thread ever touches a
    /// popped node's value.
    value: UnsafeCell<ManuallyDrop<V>>,
    next: Atomic<Node<V>>,
}

/// A lock-free last-in-first-out stack (Treiber's algorithm) generic over the
/// reclamation scheme.
pub struct TreiberStack<V, S: Smr> {
    head: Atomic<Node<V>>,
    /// Element count maintained at push/pop time. A traversal-based count cannot be
    /// made safe with a single hazard pointer (nodes deep in the stack cannot be
    /// re-validated the way the ordered structures re-validate through their
    /// predecessor links), so the stack keeps an explicit counter instead.
    size: AtomicUsize,
    smr: Arc<S>,
}

// SAFETY: the stack is a shared concurrent structure; all mutation happens through
// the head CAS and the SMR protocol. Values must be Send because nodes (and popped
// values) move between threads; Sync is not required of V because no thread ever
// holds a shared reference to a value another thread can reach.
unsafe impl<V: Send, S: Smr> Send for TreiberStack<V, S> {}
// SAFETY: `&self` operations change the stack only by CAS on its head, and the
// winner of a pop's CAS alone moves the value out, so no two threads reach a
// value at once (`V: Send` suffices).
unsafe impl<V: Send, S: Smr> Sync for TreiberStack<V, S> {}

impl<V, S> TreiberStack<V, S>
where
    V: Send + 'static,
    S: Smr,
{
    /// Creates an empty stack using the given reclamation scheme.
    pub fn new(smr: Arc<S>) -> Self {
        Self {
            head: Atomic::null(),
            size: AtomicUsize::new(0),
            smr,
        }
    }

    /// The reclamation scheme this stack was created with.
    pub fn smr(&self) -> &Arc<S> {
        &self.smr
    }

    /// Registers the calling thread with the underlying reclamation scheme.
    pub fn register(&self) -> S::Handle {
        self.smr.register()
    }

    /// Pushes a value onto the stack.
    pub fn push(&self, value: V, handle: &mut S::Handle) {
        let guard = Guard::new(handle);
        let mut node = Owned::new(
            Node {
                value: UnsafeCell::new(ManuallyDrop::new(value)),
                next: Atomic::null(),
            },
            &guard,
        );
        loop {
            let head = self.head.load(&guard);
            // The new node is still private, so writing its next link needs no
            // synchronization; the publishing CAS below releases it.
            node.next.store_private(head);
            // Pause point: the observed-head → publish window (ABA window: a
            // pop+push pair completing here is defeated by the link version).
            crate::interleave::hit("stack::push::pre_link_cas");
            match self.head.cas_link(head, node) {
                Ok(_) => {
                    self.size.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err((_, returned)) => node = returned,
            }
        }
    }

    /// Pops the most recently pushed value, or returns `None` if the stack is empty.
    pub fn pop(&self, handle: &mut S::Handle) -> Option<V> {
        let guard = Guard::new(handle);
        loop {
            // Rule 2: protect the head, then re-validate that it is still the
            // head — `load_protected` loops until the protection is validated
            // against the rooted head link.
            let head = guard.load_protected(HP_HEAD, &self.head);
            if head.is_null() {
                return None;
            }
            // SAFETY: `head` carries a validated protection from `load_protected`.
            let node = unsafe { head.as_ref() }.expect("non-null checked above");
            let next = node.next.load(&guard);
            // Pause point: the classic Treiber ABA window — successor read,
            // unlink CAS pending; interleaved pop/push of the same node must
            // fail the versioned CAS.
            crate::interleave::hit("stack::pop::pre_unlink_cas");
            // SAFETY: the head link is the sole path by which new observers reach
            // the top node, so a successful CAS unlinks it; the minted `Unlinked`
            // is the unique retire capability.
            match unsafe { self.head.cas_unlink(head, next) } {
                Ok((unlinked, _)) => {
                    self.size.fetch_sub(1, Ordering::Relaxed);
                    // This thread unlinked the node, so it has the exclusive right
                    // to take the value out (rule 3 gives it the retire duty too).
                    // SAFETY: no other thread reads a popped node's value, and the
                    // ManuallyDrop field keeps the node's destructor off it.
                    let value = unsafe { ManuallyDrop::take(&mut *unlinked.as_ref().value.get()) };
                    unlinked.retire(&guard);
                    return Some(value);
                }
                Err(_) => continue,
            }
        }
    }

    /// True if the stack contains no elements at the moment of the call.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of elements currently on the stack (maintained counter; exact when the
    /// stack is quiescent, momentarily approximate under concurrency like any size
    /// probe of a lock-free container).
    pub fn len(&self) -> usize {
        self.size.load(Ordering::Relaxed)
    }
}

impl<V, S: Smr> Drop for TreiberStack<V, S> {
    fn drop(&mut self) {
        // Exclusive access: free every node still in the chain, dropping the values
        // they still own. Popped nodes are owned by the reclamation scheme.
        // SAFETY: `&mut self` means no concurrent operations and no outstanding
        // protections; each node is taken out of exactly one link.
        unsafe {
            let mut curr = self.head.take();
            while let Some(mut node) = curr {
                let next = node.next.take();
                ManuallyDrop::drop(&mut *node.value.get());
                drop(node);
                curr = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reclaim_core::Leaky;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    fn leaky_stack<V: Send + 'static>() -> TreiberStack<V, Leaky> {
        TreiberStack::new(Leaky::with_defaults())
    }

    #[test]
    fn push_pop_is_lifo() {
        let stack = leaky_stack();
        let mut h = stack.register();
        assert!(stack.pop(&mut h).is_none());
        stack.push(1, &mut h);
        stack.push(2, &mut h);
        stack.push(3, &mut h);
        assert_eq!(stack.len(), 3);
        assert_eq!(stack.pop(&mut h), Some(3));
        assert_eq!(stack.pop(&mut h), Some(2));
        assert_eq!(stack.pop(&mut h), Some(1));
        assert!(stack.pop(&mut h).is_none());
        assert!(stack.is_empty());
    }

    #[test]
    fn values_are_dropped_exactly_once() {
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let stack = leaky_stack();
            let mut h = stack.register();
            for _ in 0..10 {
                stack.push(Counted(Arc::clone(&drops)), &mut h);
            }
            // Pop half (their values drop when the popped value goes out of scope);
            // the rest drop when the stack drops.
            for _ in 0..5 {
                assert!(stack.pop(&mut h).is_some());
            }
            assert_eq!(drops.load(Ordering::SeqCst), 5);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn concurrent_pushes_and_pops_neither_lose_nor_duplicate_values() {
        let stack = Arc::new(TreiberStack::<u64, qsense::QSense>::new(
            qsense::QSense::new(
                reclaim_core::SmrConfig::default()
                    .with_max_threads(8)
                    .with_hp_per_thread(STACK_HP_SLOTS),
            ),
        ));
        const PER_THREAD: u64 = 2_000;
        const PRODUCERS: u64 = 3;
        let popped: Vec<_> = thread::scope(|scope| {
            for p in 0..PRODUCERS {
                let stack = Arc::clone(&stack);
                scope.spawn(move || {
                    let mut h = stack.register();
                    for i in 0..PER_THREAD {
                        stack.push(p * PER_THREAD + i, &mut h);
                    }
                });
            }
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    let stack = Arc::clone(&stack);
                    scope.spawn(move || {
                        let mut h = stack.register();
                        let mut got = Vec::new();
                        let mut idle = 0;
                        while idle < 1_000 {
                            match stack.pop(&mut h) {
                                Some(v) => {
                                    got.push(v);
                                    idle = 0;
                                }
                                None => {
                                    idle += 1;
                                    std::hint::spin_loop();
                                }
                            }
                        }
                        got
                    })
                })
                .collect();
            consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect()
        });
        // Drain anything the consumers gave up on.
        let mut h = stack.register();
        let mut all: Vec<u64> = popped;
        while let Some(v) = stack.pop(&mut h) {
            all.push(v);
        }
        assert_eq!(all.len() as u64, PRODUCERS * PER_THREAD);
        let unique: HashSet<_> = all.iter().copied().collect();
        assert_eq!(unique.len() as u64, PRODUCERS * PER_THREAD, "no duplicates");
    }

    #[test]
    fn works_with_heap_values() {
        let stack: TreiberStack<String, Leaky> = leaky_stack();
        let mut h = stack.register();
        stack.push("alpha".to_string(), &mut h);
        stack.push("bravo".to_string(), &mut h);
        assert_eq!(stack.pop(&mut h).as_deref(), Some("bravo"));
        assert_eq!(stack.pop(&mut h).as_deref(), Some("alpha"));
    }
}
