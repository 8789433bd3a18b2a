//! The scheme-facing interface: [`Smr`] (one per scheme instance, shared) and
//! [`SmrHandle`] (one per worker thread).
//!
//! The paper's QSense interface consists of exactly three functions
//! (`manage_qsense_state`, `assign_HP`, `free_node_later`) plus the rule set in §1.3
//! that says where to call them. This trait pair is the Rust rendering of that
//! interface, generalized so that every scheme in the evaluation (None, QSBR, HP,
//! Cadence, QSense) implements it and the data structures stay scheme-agnostic:
//!
//! | paper call | trait method | rule (paper §1.3) |
//! |------------|--------------|--------------------|
//! | `manage_qsense_state()` | [`SmrHandle::begin_op`] | call in states where no shared references are held — i.e. at the start of every data-structure operation |
//! | `assign_HP(node, i)` | [`SmrHandle::protect`] | call before using a reference to a node, then re-validate the reference |
//! | `free_node_later(node)` | [`SmrHandle::retire`] — the single retire entry point, carrying the node's birth era and allocation size | call where `free` would be called sequentially, after the node is unlinked |
//!
//! ## The allocation-side hook
//!
//! The paper's three calls cover protection and retirement, but era/interval
//! reclamation (Hazard Eras, 2GE-IBR — the `he` crate) needs one more touch
//! point: every node must be **stamped with the era it was allocated in**, so
//! that its lifetime interval `[birth, retire]` can later be tested against
//! readers' announced eras. [`SmrHandle::alloc_node`] is that hook: data
//! structures call it at every node allocation site, store the returned stamp
//! in the node, and pass the stamp back as [`SmrHandle::retire`]'s `birth_era`
//! when the node is unlinked. For the seven non-era schemes both are free:
//! `alloc_node` defaults to returning
//! [`NO_BIRTH_ERA`](crate::clock::NO_BIRTH_ERA) without touching shared state,
//! and their `retire` ignores the stamp.
//!
//! ## What a scheme writes
//!
//! | trait | a scheme writes | provided over it |
//! |-------|-----------------|------------------|
//! | [`Smr`] | [`try_register`](Smr::try_register) and [`core`](Smr::core) — where its [`SchemeCore`] is (plus the two associated types) | [`register`](Smr::register), [`name`](Smr::name), [`stats`](Smr::stats), [`budget_verdict`](Smr::budget_verdict), [`telemetry`](Smr::telemetry): the same expression for every scheme, because the core's counter stripes are the only books there are |
//! | [`SmrHandle`] | the protocol — `begin_op`, `end_op`, `protect`, `clear_protections`, `retire`, `flush` (and `alloc_node` for an era scheme) — and two one-line views of its [`HandleCore`](crate::limbo::HandleCore): [`ledger`](SmrHandle::ledger), [`telemetry_cursor`](SmrHandle::telemetry_cursor) | [`local_in_limbo`](SmrHandle::local_in_limbo), [`local_limbo_bytes`](SmrHandle::local_limbo_bytes) |

use crate::budget::BudgetVerdict;
use crate::clock::{Era, NO_BIRTH_ERA};
use crate::limbo::SchemeCore;
use crate::retired::DropFn;
use crate::stats::StatsSnapshot;
use crate::telemetry::{HandleTelemetry, Telemetry};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Error returned by [`Smr::try_register`] when every registry slot is claimed:
/// more handles are simultaneously live than the scheme's configured
/// `max_threads`. Carries the scheme name and the exhausted capacity so the
/// failure names its own fix instead of surfacing as an opaque slot-`Option`
/// unwrap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CapacityExhausted {
    /// The scheme that refused the registration (`"hp"`, `"qsense"`, …).
    pub scheme: &'static str,
    /// The configured capacity (`SmrConfig::max_threads`) that is fully claimed.
    pub capacity: usize,
}

impl fmt::Display for CapacityExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: cannot register another handle: all {} registry slots are claimed \
             (SmrConfig::max_threads = {}); raise max_threads, drop an existing \
             handle first, or share handles through a LeasePool",
            self.scheme, self.capacity, self.capacity
        )
    }
}

impl Error for CapacityExhausted {}

/// A safe-memory-reclamation scheme instance.
///
/// The scheme object owns all shared state (hazard-pointer registry, global epoch,
/// fallback flag, barrier ledger, …). Worker threads obtain a per-thread
/// [`SmrHandle`] through [`register`](Smr::register) and perform every data-structure
/// operation through that handle.
pub trait Smr: Send + Sync + 'static {
    /// The per-thread handle type.
    type Handle: SmrHandle;

    /// The per-handle scan scratch of the scheme's [`SchemeCore`] (`()` for a
    /// scheme that snapshots nothing).
    type Scratch: Default;

    /// Registers the calling thread, claiming one of the `N` slots, or reports
    /// a descriptive [`CapacityExhausted`] error when more than `max_threads`
    /// handles are simultaneously live. The non-panicking twin of
    /// [`register`](Smr::register) — thread pools and lease pools that can
    /// retry, wait, or shed load should prefer it.
    fn try_register(self: &Arc<Self>) -> Result<Self::Handle, CapacityExhausted>;

    /// Registers the calling thread, claiming one of the `N` slots.
    ///
    /// # Panics
    ///
    /// Panics with the [`CapacityExhausted`] message if more than `max_threads`
    /// handles are simultaneously live.
    fn register(self: &Arc<Self>) -> Self::Handle {
        match self.try_register() {
            Ok(handle) => handle,
            Err(e) => panic!("{e}"),
        }
    }

    /// The scheme's half of the shared retire pipeline: its name, counter
    /// stripes, budget governor and telemetry, which everything below reads.
    fn core(&self) -> &SchemeCore<Self::Scratch>;

    /// A short human-readable scheme name used by the benchmark harness
    /// (`"none"`, `"qsbr"`, `"hp"`, `"cadence"`, `"qsense"`).
    fn name(&self) -> &'static str {
        self.core().name()
    }

    /// A snapshot of the scheme's reclamation counters.
    fn stats(&self) -> StatsSnapshot {
        self.core().stats()
    }

    /// The scheme's limbo-budget verdict so far (current and peak bytes, time
    /// over budget, escalations taken). Without a configured budget it is
    /// tracking-only: `budget_bytes == 0`, always within budget.
    fn budget_verdict(&self) -> BudgetVerdict {
        self.core().budget_verdict()
    }

    /// The scheme's telemetry state ([`crate::telemetry`]): histograms of op
    /// latency, scan duration and retire→free delay (recording is gated on
    /// [`Telemetry::is_enabled`], off by default).
    fn telemetry(&self) -> &Telemetry {
        self.core().telemetry()
    }
}

/// Per-thread handle to a reclamation scheme.
///
/// Handles are `Send` (a worker thread may be moved by a thread pool) but not `Sync`:
/// all methods take `&mut self` and must only ever be called by the owning thread.
pub trait SmrHandle: Send {
    /// Declares an operation boundary — the paper's `manage_qsense_state`.
    ///
    /// Must be called at the start of every data-structure operation, at a point
    /// where the thread holds no references to shared nodes. Schemes use it to batch
    /// quiescent states (QSBR/QSense), check the fallback flag (QSense) and signal
    /// presence (QSense).
    fn begin_op(&mut self);

    /// Declares the end of a data-structure operation. The thread must again hold no
    /// references to shared nodes. Schemes use it to drop protections eagerly.
    fn end_op(&mut self);

    /// Publishes a protection (hazard pointer) for `ptr` in slot `index` — the
    /// paper's `assign_HP`.
    ///
    /// After this returns, the caller must *re-validate* that the node is still
    /// reachable before dereferencing it (step 4 of Michael's methodology, §3.2);
    /// schemes guarantee that if validation succeeds the node will not be freed while
    /// the protection stays in place. Slot indices must be `< hp_per_thread`.
    ///
    /// Schemes that do not rely on per-node protection (QSBR, Leaky) implement this
    /// as a no-op — but note that QSense does *not*: it keeps hazard pointers
    /// up to date even on the fast path (paper §4.1).
    fn protect(&mut self, index: usize, ptr: *mut u8);

    /// Clears every protection slot of this thread.
    fn clear_protections(&mut self);

    /// Allocation-side hook: returns the **birth era** to stamp into a node the
    /// caller is about to allocate, and lets the scheme account for the
    /// allocation (the era schemes advance their global era clock once per
    /// era-advance interval of allocations — a constant or limbo-adaptive,
    /// per `SmrConfig::era_policy` — which is what bounds the garbage a
    /// stalled reader can pin).
    ///
    /// Data structures call this once per node allocation, store the returned
    /// value in the node, and hand it back as [`retire`](Self::retire)'s
    /// `birth_era` when the node is unlinked. The default implementation
    /// returns [`NO_BIRTH_ERA`](crate::clock::NO_BIRTH_ERA) and touches
    /// nothing — the no-op for every non-era scheme.
    fn alloc_node(&mut self) -> Era {
        NO_BIRTH_ERA
    }

    /// Hands an unlinked node to the scheme for deferred reclamation — the paper's
    /// `free_node_later`, fully stamped: `birth_era` is the value
    /// [`alloc_node`](Self::alloc_node) returned when the node was created
    /// (era schemes use it to bound the node's lifetime interval
    /// `[birth, retire]`; everyone else ignores it) and `size_bytes` its
    /// allocation size, which feeds the limbo byte accounting. The typed
    /// [`retire_box`](crate::retire_box) /
    /// [`retire_box_with_birth`](crate::retire_box_with_birth) helpers and the
    /// guard layer ([`crate::guard::Unlinked::retire`]) fill both in.
    ///
    /// # Safety
    ///
    /// * `ptr` must have been unlinked from the data structure before the call (the
    ///   node is in the *removed* state);
    /// * the same pointer must not be retired twice;
    /// * `drop_fn(ptr)` must correctly release the node;
    /// * `birth_era` must be the stamp `alloc_node` produced for this node, or
    ///   [`NO_BIRTH_ERA`](crate::clock::NO_BIRTH_ERA) (always safe: the era
    ///   schemes treat an unstamped node as born before every announced era);
    /// * `size_bytes` must not exceed the node's actual allocation size (0 =
    ///   unknown, never over-stated; counted in
    ///   [`StatsSnapshot::size_unknown_retires`]).
    unsafe fn retire(&mut self, ptr: *mut u8, drop_fn: DropFn, birth_era: Era, size_bytes: usize);

    /// Forces a best-effort reclamation pass over this thread's retired nodes,
    /// regardless of thresholds. Useful at the end of a benchmark phase and in tests.
    fn flush(&mut self);

    /// The handle's [`HandleCore`](crate::limbo::HandleCore) ledger: the
    /// nodes this thread has retired (or adopted from an exited thread) but
    /// not yet freed, and their stamped bytes.
    fn ledger(&self) -> (usize, usize);

    /// The ledger's node count — this thread's limbo / removed-nodes list
    /// length.
    fn local_in_limbo(&self) -> usize {
        self.ledger().0
    }

    /// The ledger's stamped bytes.
    fn local_limbo_bytes(&self) -> usize {
        self.ledger().1
    }

    /// This handle's telemetry cursor
    /// ([`HandleCore::tele`](crate::limbo::HandleCore::tele)).
    /// [`crate::guard::Guard`] brackets every operation with its
    /// [`op_begin`](HandleTelemetry::op_begin) /
    /// [`op_end`](HandleTelemetry::op_end): one relaxed load when telemetry is
    /// disabled.
    fn telemetry_cursor(&mut self) -> HandleTelemetry<'_>;
}

/// Returns the type-erased destructor for a `Box<T>`-allocated node.
///
/// The returned function reconstructs the `Box` and drops it, releasing the
/// allocation and running `T`'s destructor.
pub fn drop_fn_for<T>() -> DropFn {
    unsafe fn drop_box<T>(ptr: *mut u8) {
        // SAFETY: the contract of `SmrHandle::retire` guarantees `ptr` originated
        // from `Box::<T>::into_raw` and is dropped exactly once.
        #[allow(clippy::disallowed_methods)]
        // sanctioned: drop_fn_for's generated thunk: the canonical free path
        unsafe {
            drop(Box::from_raw(ptr.cast::<T>()))
        }
    }
    drop_box::<T>
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct Tracked {
        counter: Arc<AtomicUsize>,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.counter.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn drop_fn_runs_destructor_exactly_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        let raw = Box::into_raw(Box::new(Tracked {
            counter: Arc::clone(&counter),
        }));
        let f = drop_fn_for::<Tracked>();
        // SAFETY: `raw` was just leaked via Box::into_raw; the drop function matches its type and runs once.
        unsafe { f(raw.cast()) };
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn drop_fn_is_monomorphic_per_type() {
        // Different types produce different function pointers; same type, same pointer.
        assert_eq!(drop_fn_for::<u32>() as usize, drop_fn_for::<u32>() as usize);
    }
}
