//! The scheme-facing interface: [`Smr`] (one per scheme instance, shared) and
//! [`SmrHandle`] (one per worker thread).
//!
//! The paper's QSense interface consists of exactly three functions
//! (`manage_qsense_state`, `assign_HP`, `free_node_later`) plus the rule set in §1.3
//! that says where to call them. This trait pair is the Rust rendering of that
//! interface, generalized so that all eight schemes (None, QSBR, EBR, HE, HP,
//! Cadence, QSense, RC) implement it and the data structures stay scheme-agnostic:
//!
//! | paper call | trait method | rule (paper §1.3) |
//! |------------|--------------|--------------------|
//! | `manage_qsense_state()` | [`SmrHandle::begin_op`] | call in states where no shared references are held — i.e. at the start of every data-structure operation |
//! | `assign_HP(node, i)` | [`SmrHandle::protect`] | call before using a reference to a node, then re-validate the reference |
//! | `free_node_later(node)` | [`SmrHandle::retire`] — the single retire entry point, taking one [`RetiredPtr`]: the node, its destructor, its birth era and its allocation size | call where `free` would be called sequentially, after the node is unlinked |
//!
//! ## The allocation-side hook
//!
//! The paper's three calls cover protection and retirement, but era/interval
//! reclamation (Hazard Eras, 2GE-IBR — the `he` crate) needs one more touch
//! point: every node must be **stamped with the era it was allocated in**, so
//! that its lifetime interval `[birth, retire]` can later be tested against
//! readers' announced eras. [`SmrHandle::alloc_node`] is that hook: data
//! structures call it at every node allocation site, store the returned stamp
//! in the node, and pass the stamp back as the retired node's `birth_era`
//! ([`RetiredPtr::new`]) when the node is unlinked. For the seven non-era
//! schemes both are free: `alloc_node` defaults to returning
//! [`NO_BIRTH_ERA`] without touching shared state,
//! and their `retire` never reads the stamp.
//!
//! ## What a scheme writes
//!
//! | trait | a scheme writes | provided over it |
//! |-------|-----------------|------------------|
//! | [`Smr`] | [`try_register`](Smr::try_register) and [`core`](Smr::core) — where its [`SchemeCore`] is (plus the associated [`Handle`](Smr::Handle) type) | [`register`](Smr::register), [`config`](Smr::config), [`name`](Smr::name), [`stats`](Smr::stats), [`telemetry`](Smr::telemetry): the same expression for every scheme, because the core's counter stripes are the only books there are |
//! | [`SmrHandle`] | the protocol — `begin_op`, `end_op`, `protect`, `clear_protections`, `retire`, `flush` (and `alloc_node` for an era scheme) — and where its [`HandleCore`] is: [`core`](SmrHandle::core) and [`core_mut`](SmrHandle::core_mut), sealed by a [`CoreToken`] only this crate can build | [`local_in_limbo`](SmrHandle::local_in_limbo), [`local_limbo_bytes`](SmrHandle::local_limbo_bytes); [`crate::guard::Guard`] reaches the node cache and the telemetry bracket through `core_mut` |

use crate::clock::{Era, NO_BIRTH_ERA};
use crate::config::SmrConfig;
use crate::limbo::{HandleCore, SchemeCore};
use crate::node_cache::NodeCache;
use crate::retired::{DropFn, RetiredPtr};
use crate::stats::StatsSnapshot;
use crate::telemetry::Telemetry;
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

    /// The scheme's half of the shared retire pipeline: its configuration,
    /// name, counter stripes, budget governor and telemetry, which everything
    /// below reads.
    fn core(&self) -> &SchemeCore;

    /// The configuration the scheme was created with.
    fn config(&self) -> &SmrConfig {
        self.core().config()
    }

    /// A short human-readable scheme name used by the benchmark harness (`"none"`,
    /// `"qsbr"`, `"ebr"`, `"he"`, `"hp"`, `"cadence"`, `"qsense"`, `"rc"`).
    fn name(&self) -> &'static str {
        self.core().name()
    }

    /// A snapshot of the scheme's reclamation counters, its budget ladder's
    /// among them, and of its budget: the limbo-byte peak, the budget and the
    /// time spent over it ([`StatsSnapshot::within_budget`]).
    fn stats(&self) -> StatsSnapshot {
        self.core().stats()
    }

    /// The scheme's telemetry state ([`crate::telemetry`]): histograms of op
    /// latency, scan duration and retire→free delay (recording is gated on
    /// [`SmrConfig::with_telemetry`](crate::SmrConfig::with_telemetry), off by
    /// default).
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
    /// references to shared nodes. Schemes use it to drop protections eagerly —
    /// except HE, whose era reservation stays published until the next
    /// `begin_op` at a newer era, [`go_idle`](Self::go_idle),
    /// [`flush`](Self::flush) or handle drop, so an operation at an unchanged
    /// era pays no fence.
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

    /// Clears every protection slot of this thread. HE's one protection, its
    /// era reservation, is the exception: it outlives the operation (see
    /// [`end_op`](Self::end_op)).
    fn clear_protections(&mut self);

    /// Allocation-side hook: returns the **birth era** to stamp into a node the
    /// caller is about to allocate, and lets the scheme account for the
    /// allocation (the era schemes advance their global era clock once per
    /// era-advance interval of allocations — 64, or adapted to the limbo
    /// residue under `SmrConfig::limbo_budget` — which is what bounds the
    /// garbage a stalled reader can pin).
    ///
    /// Data structures call this once per node allocation, store the returned
    /// value in the node, and hand it back as the `birth_era` of the node they
    /// [`retire`](Self::retire) when it is unlinked. The default implementation
    /// returns [`NO_BIRTH_ERA`] and touches
    /// nothing — the no-op for every non-era scheme.
    fn alloc_node(&mut self) -> Era {
        NO_BIRTH_ERA
    }

    /// Hands an unlinked node to the scheme for deferred reclamation — the
    /// paper's `free_node_later(node)`. `node` is built once by whoever knows
    /// the node ([`RetiredPtr::new`]: its destructor, the birth era
    /// [`alloc_node`](Self::alloc_node) returned — which era schemes use to
    /// bound its lifetime interval `[birth, retire]` —, and its allocation
    /// size, which feeds the limbo byte accounting): the typed
    /// [`retire_box`](crate::retire_box) /
    /// [`retire_box_with_birth`](crate::retire_box_with_birth) helpers and the
    /// guard layer ([`crate::guard::Unlinked::retire`]). The scheme adds only
    /// its stamp, its bag and its ladder.
    ///
    /// # Safety
    ///
    /// `node` meets [`RetiredPtr::new`]'s contract (unlinked, retired once,
    /// released by its destructor), and its readers are this scheme's: every
    /// thread that may still reach it does so inside an operation on one of
    /// this scheme's handles, under its protections.
    unsafe fn retire(&mut self, node: RetiredPtr);

    /// Declares the handle idle until its next `begin_op` (a lease checked
    /// back into its [`LeasePool`](crate::lease::LeasePool)): it withdraws
    /// whatever protection the scheme keeps between operations, without a
    /// scan. The thread must hold no references to shared nodes. HE withdraws
    /// its era reservation; the default, every other scheme's, does nothing.
    fn go_idle(&mut self) {}

    /// Forces a best-effort reclamation pass over this thread's retired nodes,
    /// regardless of thresholds. Useful at the end of a benchmark phase and in tests.
    fn flush(&mut self);

    /// The handle's [`HandleCore`]. Only this crate can build the
    /// [`CoreToken`], so a data structure, which sees only `SmrHandle`,
    /// cannot call it.
    fn core(&self, _: CoreToken) -> &HandleCore;

    /// The handle's [`HandleCore`], mutably: what [`crate::guard::Guard`]
    /// allocates from and brackets an operation's telemetry through.
    fn core_mut(&mut self, _: CoreToken) -> &mut HandleCore;

    /// The nodes this thread has retired (or adopted from an exited thread)
    /// but not yet freed — its limbo / removed-nodes list length.
    fn local_in_limbo(&self) -> usize {
        self.core(CoreToken(())).in_limbo()
    }

    /// The stamped bytes of those nodes.
    fn local_limbo_bytes(&self) -> usize {
        self.core(CoreToken(())).limbo_bytes()
    }
}

/// The seal on [`SmrHandle::core`] and [`SmrHandle::core_mut`]: a scheme
/// implements them, but only this crate can call them. A structure can
/// allocate and bracket an operation through [`crate::guard::Guard`] and read
/// the ledger, but it cannot `park`, `scan` or `adopt_parked` a handle's core:
///
/// ```compile_fail
/// use reclaim_core::{CoreToken, Leaky, Smr, SmrHandle};
///
/// let scheme = Leaky::with_defaults();
/// let mut handle = scheme.register();
/// // ERROR: `CoreToken`'s field is private to reclaim-core.
/// let core = handle.core_mut(CoreToken(()));
/// ```
pub struct CoreToken(pub(crate) ());

/// Returns the type-erased destructor for a `Box<T>`-allocated node.
///
/// The returned function reconstructs the `Box` and drops it, releasing the
/// allocation and running `T`'s destructor; it ignores the node cache.
pub fn drop_fn_for<T>() -> DropFn {
    unsafe fn drop_box<T>(ptr: *mut u8, _: Option<&mut NodeCache>) {
        // SAFETY: the contract of `RetiredPtr::new` guarantees `ptr`
        // originated from `Box::<T>::into_raw` and is dropped exactly once.
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
        unsafe { f(raw.cast(), None) };
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn drop_fn_is_monomorphic_per_type() {
        // Different types produce different function pointers; same type, same pointer.
        assert_eq!(drop_fn_for::<u32>() as usize, drop_fn_for::<u32>() as usize);
    }
}
