//! Lock-free FIFO queue (Michael–Scott) generic over the reclamation scheme.
//!
//! The Michael–Scott queue is the second canonical application of hazard pointers in
//! Michael's paper \[25\]: `dequeue` dereferences both the dummy head and its
//! successor, so two protection slots per thread are needed (`K = 2`). As with the
//! ordered sets, every operation follows the paper's three integration rules —
//! the RAII [`Guard`] brackets the operation, [`Guard::load_protected`] bundles
//! protect + re-validate before every dereference of a shared node, and the old
//! dummy is retired exactly once through the [`reclaim_core::Unlinked`]
//! capability minted by the winning head CAS.
//!
//! The queue is not part of the paper's evaluation; it demonstrates the §4.2
//! applicability claim beyond ordered sets and feeds the extension benchmarks and
//! the producer/consumer example.

use reclaim_core::{Atomic, Guard, Owned, Smr};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Protection slot for the head (old dummy) during `dequeue`, and for the tail
/// during `enqueue`.
const HP_FIRST: usize = 0;
/// Protection slot for the head's successor during `dequeue`.
const HP_SECOND: usize = 1;

/// Number of protection slots the queue needs per thread (`K` in the paper).
pub const QUEUE_HP_SLOTS: usize = 2;

struct Node<V> {
    /// `None` for the dummy node; the dequeuing thread that wins the head CAS takes
    /// the value out of the *successor* node (which then becomes the new dummy).
    /// `UnsafeCell` because that take happens through a shared pointer — exclusivity
    /// is guaranteed by winning the CAS, not by the type system.
    value: UnsafeCell<Option<V>>,
    next: Atomic<Node<V>>,
}

impl<V> Node<V> {
    fn new(value: Option<V>) -> Node<V> {
        Node {
            value: UnsafeCell::new(value),
            next: Atomic::null(),
        }
    }
}

/// A lock-free first-in-first-out queue (Michael–Scott algorithm) generic over the
/// reclamation scheme.
pub struct MichaelScottQueue<V, S: Smr> {
    // `head`, `tail` and `size` share a cache line on purpose: padded to a line
    // each (`CachePadded`), every scheme's `mops` on the benchmark's
    // `queue_churn` fell 7–30 % (QSense 5.73 → 4.04 Mops/s; 3 alternating 10 s
    // pairs on a 2-vCPU host) — an operation touches all three, and one line
    // moves between cores cheaper than three.
    head: Atomic<Node<V>>,
    tail: Atomic<Node<V>>,
    /// Element count maintained at enqueue/dequeue time (same rationale as the
    /// stack: a traversal-based count cannot be re-validated safely).
    size: AtomicUsize,
    smr: Arc<S>,
}

// SAFETY: shared concurrent structure; all mutation goes through atomics and the SMR
// protocol. V: Send because values move between threads via the queue.
unsafe impl<V: Send, S: Smr> Send for MichaelScottQueue<V, S> {}
// SAFETY: `&self` operations change `head` and `tail` only by CAS, and no
// thread ever holds a shared reference to a value: only the winner of a
// dequeue's head CAS touches the value, and it moves it out (`V: Send`
// suffices).
unsafe impl<V: Send, S: Smr> Sync for MichaelScottQueue<V, S> {}

impl<V, S> MichaelScottQueue<V, S>
where
    V: Send + 'static,
    S: Smr,
{
    /// Creates an empty queue using the given reclamation scheme.
    pub fn new(smr: Arc<S>) -> Self {
        // The initial dummy is allocated before any handle exists: no birth
        // stamp, off the scheme's arena (`Owned::sentinel`); head and tail alias it.
        let head = Atomic::new(Owned::sentinel(Node::new(None), &*smr));
        let tail = head.alias();
        Self {
            head,
            tail,
            size: AtomicUsize::new(0),
            smr,
        }
    }

    /// The reclamation scheme this queue was created with.
    pub fn smr(&self) -> &Arc<S> {
        &self.smr
    }

    /// Registers the calling thread with the underlying reclamation scheme.
    pub fn register(&self) -> S::Handle {
        self.smr.register()
    }

    /// Appends a value at the tail of the queue.
    pub fn enqueue(&self, value: V, handle: &mut S::Handle) {
        let guard = Guard::new(handle);
        let node = Owned::new(Node::new(Some(value)), &guard);
        let mut node = node;
        loop {
            // Rule 2: protect the tail and re-validate it is still the tail
            // before dereferencing it.
            let tail = guard.load_protected(HP_FIRST, &self.tail);
            // SAFETY: `tail` carries a validated protection and is never null
            // (the chain always ends in the dummy or a live node).
            let tail_node = unsafe { tail.as_ref() }.expect("tail is never null");
            let next = tail_node.next.load(&guard);
            if !next.is_null() {
                // The tail pointer lags behind; help it along and retry.
                let _ = self.tail.cas(tail, next);
                continue;
            }
            // Pause point: tail observed with a null successor, link CAS
            // pending — dequeues of the current tail fit in this window.
            crate::interleave::hit("queue::enqueue::pre_link_cas");
            match tail_node.next.cas_link(next, node) {
                Ok(linked) => {
                    // Link succeeded; swing the tail (failure means someone
                    // helped us).
                    let _ = self.tail.cas(tail, linked);
                    self.size.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err((_, returned)) => node = returned,
            }
        }
    }

    /// Removes and returns the oldest value, or `None` if the queue is empty.
    pub fn dequeue(&self, handle: &mut S::Handle) -> Option<V> {
        let guard = Guard::new(handle);
        loop {
            let head = guard.load_protected(HP_FIRST, &self.head);
            let tail = self.tail.load(&guard);
            // SAFETY: `head` carries a validated protection; the head link is
            // never null.
            let head_node = unsafe { head.as_ref() }.expect("head is never null");
            let next = head_node.next.load(&guard);
            if next.is_null() {
                return None; // empty: only the dummy remains
            }
            // Protect the successor before touching it, and re-validate through
            // the head link: if the head word is unchanged, `next` has not been
            // unlinked (a node is only unlinked by a head CAS that removes its
            // predecessor — and any such CAS bumps the head word's version).
            guard.protect_shared(HP_SECOND, next);
            if self.head.load(&guard) != head {
                continue;
            }
            if head.ptr_eq(tail) {
                // The tail lags behind the real last node; help and retry.
                let _ = self.tail.cas(tail, next);
                continue;
            }
            // Pause point: head and successor validated, unlink CAS pending —
            // the Michael–Scott ABA window a competing dequeue crosses.
            crate::interleave::hit("queue::dequeue::pre_unlink_cas");
            // SAFETY: the head link is the sole path by which new observers
            // reach the old dummy, so winning this CAS unlinks it; the minted
            // `Unlinked` is the unique retire capability.
            match unsafe { self.head.cas_unlink(head, next) } {
                Ok((unlinked, _)) => {
                    self.size.fetch_sub(1, Ordering::Relaxed);
                    // This thread won the head CAS: it has exclusive right to
                    // take the value out of `next` (the new dummy) and must
                    // retire the old dummy.
                    // SAFETY: `next` is protected (slot HP_SECOND) and was
                    // re-validated as the successor of the then-head, so it
                    // cannot have been reclaimed.
                    let next_node = unsafe { next.as_ref() }.expect("successor is non-null");
                    // SAFETY: only the CAS winner takes `next`'s value, so the
                    // `UnsafeCell` access is exclusive.
                    let value = unsafe { (*next_node.value.get()).take() };
                    debug_assert!(
                        value.is_some(),
                        "a linked non-dummy node always has a value"
                    );
                    // The old dummy's value slot is `None`, so its destructor
                    // drops nothing extra.
                    unlinked.retire(&guard);
                    return value;
                }
                Err(_) => continue,
            }
        }
    }

    /// True if the queue contains no elements at the moment of the call.
    pub fn is_empty(&self) -> bool {
        self.size.load(Ordering::Relaxed) == 0
    }

    /// Number of elements currently in the queue (maintained counter; exact when
    /// quiescent).
    pub fn len(&self) -> usize {
        self.size.load(Ordering::Relaxed)
    }
}

impl<V, S: Smr> Drop for MichaelScottQueue<V, S> {
    fn drop(&mut self) {
        // Exclusive access: free the dummy and every linked node, dropping any values
        // still owned by the queue. Unlinked (dequeued) dummies are owned by the
        // reclamation scheme. The tail link aliases a node in the head chain and
        // must not be taken too.
        // SAFETY: `&mut self` means no concurrent operations and no outstanding
        // protections; every chained node is taken out of exactly one link.
        unsafe {
            let mut curr = self.head.take();
            while let Some(mut node) = curr {
                curr = node.next.take();
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

    fn leaky_queue<V: Send + 'static>() -> MichaelScottQueue<V, Leaky> {
        MichaelScottQueue::new(Leaky::with_defaults())
    }

    #[test]
    fn enqueue_dequeue_is_fifo() {
        let queue = leaky_queue();
        let mut h = queue.register();
        assert!(queue.dequeue(&mut h).is_none());
        assert!(queue.is_empty());
        for i in 0..5 {
            queue.enqueue(i, &mut h);
        }
        assert_eq!(queue.len(), 5);
        for i in 0..5 {
            assert_eq!(queue.dequeue(&mut h), Some(i));
        }
        assert!(queue.dequeue(&mut h).is_none());
        assert!(queue.is_empty());
    }

    #[test]
    fn interleaved_operations_keep_order_per_producer() {
        let queue = leaky_queue();
        let mut h = queue.register();
        queue.enqueue("a1", &mut h);
        queue.enqueue("a2", &mut h);
        assert_eq!(queue.dequeue(&mut h), Some("a1"));
        queue.enqueue("a3", &mut h);
        assert_eq!(queue.dequeue(&mut h), Some("a2"));
        assert_eq!(queue.dequeue(&mut h), Some("a3"));
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
            let queue = leaky_queue();
            let mut h = queue.register();
            for _ in 0..10 {
                queue.enqueue(Counted(Arc::clone(&drops)), &mut h);
            }
            for _ in 0..4 {
                assert!(queue.dequeue(&mut h).is_some());
            }
            assert_eq!(drops.load(Ordering::SeqCst), 4);
            // The remaining 6 values drop with the queue.
        }
        assert_eq!(drops.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn concurrent_producers_and_consumers_preserve_every_element() {
        let queue = Arc::new(MichaelScottQueue::<u64, qsense::QSense>::new(
            qsense::QSense::new(
                reclaim_core::SmrConfig::default()
                    .with_max_threads(8)
                    .with_hp_per_thread(QUEUE_HP_SLOTS),
            ),
        ));
        const PER_THREAD: u64 = 2_000;
        const PRODUCERS: u64 = 3;
        let consumed: Vec<u64> = thread::scope(|scope| {
            for p in 0..PRODUCERS {
                let queue = Arc::clone(&queue);
                scope.spawn(move || {
                    let mut h = queue.register();
                    for i in 0..PER_THREAD {
                        queue.enqueue(p * PER_THREAD + i, &mut h);
                    }
                });
            }
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    let queue = Arc::clone(&queue);
                    scope.spawn(move || {
                        let mut h = queue.register();
                        let mut got = Vec::new();
                        let mut idle = 0;
                        while idle < 1_000 {
                            match queue.dequeue(&mut h) {
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
        let mut h = queue.register();
        let mut all = consumed;
        while let Some(v) = queue.dequeue(&mut h) {
            all.push(v);
        }
        assert_eq!(all.len() as u64, PRODUCERS * PER_THREAD);
        let unique: HashSet<_> = all.iter().copied().collect();
        assert_eq!(unique.len() as u64, PRODUCERS * PER_THREAD, "no duplicates");
    }

    #[test]
    fn per_producer_fifo_order_is_preserved_under_concurrency() {
        // FIFO per producer: if a consumer sees two values from the same producer,
        // they must appear in increasing sequence order.
        let queue = Arc::new(MichaelScottQueue::<(u64, u64), Leaky>::new(
            Leaky::with_defaults(),
        ));
        let output: Vec<(u64, u64)> = thread::scope(|scope| {
            for p in 0..2_u64 {
                let queue = Arc::clone(&queue);
                scope.spawn(move || {
                    let mut h = queue.register();
                    for i in 0..3_000_u64 {
                        queue.enqueue((p, i), &mut h);
                    }
                });
            }
            let consumer = {
                let queue = Arc::clone(&queue);
                scope.spawn(move || {
                    let mut h = queue.register();
                    let mut got = Vec::new();
                    let mut idle = 0;
                    while idle < 2_000 {
                        match queue.dequeue(&mut h) {
                            Some(v) => {
                                got.push(v);
                                idle = 0;
                            }
                            None => idle += 1,
                        }
                    }
                    got
                })
            };
            consumer.join().unwrap()
        });
        let mut last_seen = [None::<u64>; 2];
        for (producer, seq) in output {
            let last = &mut last_seen[producer as usize];
            if let Some(prev) = *last {
                assert!(
                    seq > prev,
                    "producer {producer} order violated: {seq} after {prev}"
                );
            }
            *last = Some(seq);
        }
    }
}
