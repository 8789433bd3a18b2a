//! M:N handle leasing: many short-lived tasks borrowing few registered slots.
//!
//! The registry model is one-slot-per-*registered handle*, and every slot a
//! handle claims is a slot every scan must consider. A server that spawns a
//! task per connection must not register a handle per task — thousands of
//! mostly-idle slots would inflate every scan and exhaust `max_threads` — and
//! with the workspace recycling of [`SchemeCore`](crate::limbo::SchemeCore) it
//! does not have to pay the *allocation* cost either. What was still missing is the
//! *slot* story: a way for `M` tasks to time-share `N` registered handles.
//!
//! [`LeasePool`] is that story. It registers `N` handles up front (or adopts
//! any pre-built handles) and checks them out one task at a time:
//!
//! ```text
//! let pool = LeasePool::for_scheme(&scheme, 8, LeasePolicy::Wait)?;
//! // per task:
//! let mut lease = pool.checkout()?;       // borrow one of the 8 handles
//! let guard = Guard::new(&mut *lease);    // normal op bracket
//! drop(guard);
//! drop(lease);                            // handle returns to the pool
//! ```
//!
//! A checkout hands back a [`HandleLease`] — an RAII borrow that derefs to the
//! handle and checks it back in on drop, so a panicking task cannot leak a
//! slot. When every handle is out, [`LeasePolicy`] decides whether a checkout
//! **waits** (blocking on a condvar until a lease is returned) or **fails**
//! (returning [`LeaseExhausted`] so the caller can shed load) — the same
//! choice a connection pool offers.
//!
//! ## The `.await`-safety boundary
//!
//! A [`HandleLease`] may cross threads between operations (it owns the
//! handle, and scheme handles are `Send`), which is exactly what a
//! work-stealing runtime needs: checkout at task start, carry the lease
//! across `.await` points, check in at task end. A
//! [`Guard`](crate::guard::Guard), by contrast, is `!Send`: an *in-flight
//! operation* pins its protections to one thread and must complete before
//! the task yields. The compile-fail doctests on the guard module pin this
//! boundary. In short: **lease = task-scoped, guard = op-scoped.**
//!
//! ## Cost
//!
//! Checkout/checkin is one uncontended mutex lock plus a `Vec` pop/push into
//! storage preallocated at construction — allocation-free after warm-up (the
//! `zero_alloc_steady_state` suite pins this) and O(1) regardless of `M`.
//! Checkin first calls [`SmrHandle::go_idle`], so a pooled handle protects
//! nothing (HE withdraws the era reservation it keeps between operations; no
//! other scheme does any work there).
//! LIFO reuse keeps the hottest handle's pool segments and scratch in cache,
//! mirroring the scheme core's workspace-recycling policy.

use crate::smr::{CapacityExhausted, Smr, SmrHandle};
use std::error::Error;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Condvar, Mutex};

/// What [`LeasePool::checkout`] does when every handle is leased out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LeasePolicy {
    /// Block until a lease is checked back in (the default: backpressure by
    /// waiting, the right choice for bounded task runtimes).
    #[default]
    Wait,
    /// Return [`LeaseExhausted`] immediately so the caller can shed load or
    /// retry on its own schedule.
    Fail,
}

/// Error returned by a [`LeasePolicy::Fail`] checkout (or any
/// [`LeasePool::try_checkout`]) when every handle is leased out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeaseExhausted {
    /// The pool's fixed handle count (`N`).
    pub slots: usize,
}

impl fmt::Display for LeaseExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "all {} leased handles are checked out; wait for a checkin, widen \
             the pool, or shed the task",
            self.slots
        )
    }
}

impl Error for LeaseExhausted {}

/// A fixed pool of `N` registered scheme handles time-shared by `M` tasks
/// (module docs). Generic over the handle type; build one with
/// [`for_scheme`](Self::for_scheme).
pub struct LeasePool<H> {
    /// Idle handles, LIFO. Capacity is reserved for all `N` up front so
    /// checkin never allocates.
    idle: Mutex<Vec<H>>,
    available: Condvar,
    policy: LeasePolicy,
    slots: usize,
    /// Run on a handle as it is checked in: [`SmrHandle::go_idle`] for a
    /// scheme's handles.
    on_checkin: fn(&mut H),
}

impl<H> LeasePool<H> {
    /// Wraps `handles` (all of them initially idle) into a pool with the given
    /// exhaustion policy.
    ///
    /// # Panics
    ///
    /// Panics if `handles` is empty — a zero-handle pool could never serve a
    /// checkout.
    pub(crate) fn new(handles: Vec<H>, policy: LeasePolicy) -> Self {
        assert!(!handles.is_empty(), "lease pool needs at least one handle");
        let slots = handles.len();
        let mut idle = Vec::with_capacity(slots);
        idle.extend(handles);
        Self {
            idle: Mutex::new(idle),
            available: Condvar::new(),
            policy,
            slots,
            on_checkin: |_| {},
        }
    }

    /// Registers `slots` fresh handles on `scheme` and pools them. Fails with
    /// the scheme's descriptive [`CapacityExhausted`] error if the registry
    /// cannot seat that many handles (already-registered handles are dropped
    /// and their slots released).
    pub fn for_scheme<S>(
        scheme: &Arc<S>,
        slots: usize,
        policy: LeasePolicy,
    ) -> Result<Self, CapacityExhausted>
    where
        S: Smr<Handle = H>,
        H: SmrHandle,
    {
        assert!(slots > 0, "lease pool needs at least one handle");
        let mut handles = Vec::with_capacity(slots);
        for _ in 0..slots {
            handles.push(scheme.try_register()?);
        }
        Ok(Self {
            on_checkin: H::go_idle,
            ..Self::new(handles, policy)
        })
    }

    /// Handles currently idle (diagnostics/tests).
    pub fn idle_count(&self) -> usize {
        self.idle.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Checks out a handle, applying the pool's [`LeasePolicy`] when none is
    /// idle: `Wait` blocks until a checkin, `Fail` returns [`LeaseExhausted`].
    pub fn checkout(&self) -> Result<HandleLease<'_, H>, LeaseExhausted> {
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(handle) = idle.pop() {
                return Ok(HandleLease {
                    pool: self,
                    handle: Some(handle),
                });
            }
            match self.policy {
                LeasePolicy::Fail => return Err(LeaseExhausted { slots: self.slots }),
                LeasePolicy::Wait => {
                    idle = self.available.wait(idle).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// Non-blocking checkout regardless of policy: `None` when every handle is
    /// leased out.
    pub fn try_checkout(&self) -> Option<HandleLease<'_, H>> {
        self.idle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .map(|handle| HandleLease {
                pool: self,
                handle: Some(handle),
            })
    }

    /// Takes a handle offline ([`on_checkin`](Self::on_checkin)), returns it
    /// to the idle set and wakes one waiter. Push never allocates: the
    /// storage was reserved for all `N` at construction.
    fn checkin(&self, mut handle: H) {
        (self.on_checkin)(&mut handle);
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(idle.len() < self.slots, "more checkins than handles");
        idle.push(handle);
        drop(idle);
        self.available.notify_one();
    }
}

impl<H> fmt::Debug for LeasePool<H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LeasePool")
            .field("slots", &self.slots)
            .field("idle", &self.idle_count())
            .field("policy", &self.policy)
            .finish()
    }
}

/// An RAII lease on one pooled handle: derefs to the handle, checks it back in
/// on drop (including panic unwinds, so a dying task never leaks a slot).
///
/// The lease owns the handle for its lifetime and is `Send` whenever the
/// handle is — it may migrate between threads *between* operations. In-flight
/// operations are bracketed by [`Guard`](crate::guard::Guard)s, which are
/// `!Send` and therefore cannot cross that boundary (module docs).
pub struct HandleLease<'p, H> {
    pool: &'p LeasePool<H>,
    /// `Some` until drop; `Option` only so drop can move the handle out.
    handle: Option<H>,
}

impl<H> Deref for HandleLease<'_, H> {
    type Target = H;
    fn deref(&self) -> &H {
        self.handle
            .as_ref()
            .expect("lease holds its handle until drop")
    }
}

impl<H> DerefMut for HandleLease<'_, H> {
    fn deref_mut(&mut self) -> &mut H {
        self.handle
            .as_mut()
            .expect("lease holds its handle until drop")
    }
}

impl<H> Drop for HandleLease<'_, H> {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.pool.checkin(handle);
        }
    }
}

impl<H> fmt::Debug for HandleLease<'_, H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HandleLease").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn checkout_checkin_is_lifo_and_conserves_handles() {
        let pool = LeasePool::new(vec![1u32, 2, 3], LeasePolicy::Fail);
        assert_eq!(pool.slots, 3);
        assert_eq!(pool.idle_count(), 3);
        let a = pool.checkout().unwrap();
        assert_eq!(*a, 3, "LIFO hands out the most recently idle handle");
        let b = pool.checkout().unwrap();
        assert_eq!(*b, 2);
        assert_eq!(pool.idle_count(), 1);
        drop(a);
        assert_eq!(pool.idle_count(), 2);
        let c = pool.checkout().unwrap();
        assert_eq!(*c, 3, "returned handle is the next handed out");
        drop(b);
        drop(c);
        assert_eq!(pool.idle_count(), 3);
    }

    #[test]
    fn fail_policy_reports_exhaustion() {
        let pool = LeasePool::new(vec![0u8], LeasePolicy::Fail);
        let held = pool.checkout().unwrap();
        let err = pool.checkout().unwrap_err();
        assert_eq!(err, LeaseExhausted { slots: 1 });
        assert!(err.to_string().contains("all 1 leased handles"));
        assert!(pool.try_checkout().is_none());
        drop(held);
        assert!(pool.checkout().is_ok());
    }

    #[test]
    fn wait_policy_blocks_until_a_checkin() {
        let pool = Arc::new(LeasePool::new(vec![0u8], LeasePolicy::Wait));
        let held = pool.checkout().unwrap();
        let waited = Arc::new(AtomicUsize::new(0));
        let waiter = {
            let pool = Arc::clone(&pool);
            let waited = Arc::clone(&waited);
            thread::spawn(move || {
                let lease = pool.checkout().expect("wait policy never errors");
                waited.store(1, Ordering::SeqCst);
                drop(lease);
            })
        };
        thread::sleep(Duration::from_millis(20));
        assert_eq!(waited.load(Ordering::SeqCst), 0, "waiter blocks while held");
        drop(held);
        waiter.join().unwrap();
        assert_eq!(waited.load(Ordering::SeqCst), 1);
        assert_eq!(pool.idle_count(), 1);
    }

    #[test]
    fn lease_checks_in_on_panic_unwind() {
        let pool = Arc::new(LeasePool::new(vec![0u8], LeasePolicy::Fail));
        let res = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || {
                let _lease = pool.checkout().unwrap();
                panic!("task dies mid-lease");
            })
            .join()
        };
        assert!(res.is_err());
        assert_eq!(pool.idle_count(), 1, "unwind returned the handle");
    }

    #[test]
    fn mn_churn_every_task_gets_a_turn() {
        const M: usize = 32;
        const N: usize = 4;
        let pool = Arc::new(LeasePool::new((0..N as u32).collect(), LeasePolicy::Wait));
        let turns = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<_> = (0..M)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let turns = Arc::clone(&turns);
                thread::spawn(move || {
                    for _ in 0..8 {
                        let lease = pool.checkout().unwrap();
                        assert!(*lease < N as u32);
                        turns.fetch_add(1, Ordering::Relaxed);
                        drop(lease);
                    }
                })
            })
            .collect();
        for t in tasks {
            t.join().unwrap();
        }
        assert_eq!(turns.load(Ordering::Relaxed), M * 8);
        assert_eq!(pool.idle_count(), N);
    }

    #[test]
    #[should_panic(expected = "at least one handle")]
    fn empty_pool_rejected() {
        let _ = LeasePool::new(Vec::<u8>::new(), LeasePolicy::Wait);
    }
}
