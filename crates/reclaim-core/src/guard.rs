//! The safe, scheme-generic pointer layer: [`Guard`] / [`Atomic`] /
//! [`Shared`] / [`Owned`] / [`Unlinked`].
//!
//! Every structure in `lockfree-ds` used to re-derive the paper's three
//! integration rules (§1.3) by hand at every call site: `begin_op` at
//! operation start, `protect` + re-validate before dereferencing, retire
//! exactly once after the unlink CAS. This module states those rules **once,
//! in the type system**, so a new structure inherits them instead of
//! re-proving them:
//!
//! | protocol rule | type-level rendering |
//! |---------------|----------------------|
//! | `begin_op` / `end_op` bracket every operation | [`Guard`] is RAII: construction calls `begin_op`, drop clears every protection slot and calls `end_op` |
//! | no shared reference outlives the operation | [`Shared<'g, T>`] borrows the guard; the borrow checker rejects any `Shared` outliving its `Guard` (see the `compile_fail` test on [`Guard`]) |
//! | protect, then re-validate reachability | [`Guard::load_protected`] bundles the publish + re-read + full-word compare; a `Shared` handed out by it was validated under protection (a traversal that advances on its own publishes with [`Guard::protect_shared`] and re-reads the link itself) |
//! | stamp the birth era at allocation | [`Owned::new`] routes through [`Guard::alloc_block`] — a block from the handle's node cache, and [`SmrHandle::alloc_node`]'s stamp, stored in a private header — structures never see eras |
//! | retire only what you unlinked, exactly once | [`Unlinked`] is produced **only** by a successful unlink CAS ([`Atomic::cas_unlink`]) and is the only type with a `retire`; retiring consumes it |
//! | byte budgets stay exact | [`Unlinked::retire`] always hands [`SmrHandle::retire`] the node's real size and birth era — a size-unknown (0-byte) retire is unreachable from here |
//!
//! Links are [`VersionedAtomic`] words (pointer + mark + 16-bit version, see
//! [`crate::tagged`]), so a `Shared` doubles as the *validate-on-link* CAS
//! expected value: "the link looks unchanged" and "the link is unchanged since
//! my validation" coincide, which is what makes helping and unlinking sound
//! even for structures whose CAS targets the very word it validated.
//!
//! ## What stays `unsafe`
//!
//! The layer shrinks the unsafe surface to two honest obligations the type
//! system cannot discharge:
//!
//! * [`Shared::as_ref`] — the caller asserts the `Shared` came from a
//!   *validated* protection (a `load_protected` result, or a word whose
//!   reachability was re-validated after publication);
//! * [`Atomic::cas_unlink`] — the caller asserts this link is the **sole**
//!   remaining path to the victim, so success makes the node unreachable and
//!   no second `Unlinked` can be minted for it elsewhere.
//!
//! Everything else — slot bookkeeping, era stamping, sized retirement, the
//! begin/end bracket — is safe code in one place.
//!
//! Expert structures with bespoke link protocols (the skip list's fenced
//! towers, the BST's flagged edges) keep their own node layout and use the
//! guard's raw escape hatches ([`Guard::protect_ptr`], and
//! [`Guard::alloc_block`] / [`Guard::retire_block`], `Owned`'s own path);
//! those are the only sanctioned spellings of raw protection/retirement
//! outside this module (enforced by clippy's `disallowed-methods` gate).
//!
//! ## M:N handles: leases are task-scoped, guards are op-scoped
//!
//! A registered handle does not have to mean a dedicated thread. The
//! [`crate::lease`] layer pools `N` registered handles behind a
//! [`crate::LeasePool`] so `M > N` short-lived tasks borrow them in turn: a
//! [`crate::HandleLease`] is `Send`, so a borrowed handle may migrate between
//! threads (or executor workers) *between* operations. The guard is the
//! boundary that keeps that safe: a `Guard` is **`!Send`/`!Sync`**, so an
//! *in-flight* operation — protections published, `Shared` values live — can
//! never cross a thread or `.await` boundary where the scheme's per-slot
//! protocol (thread-confined protection slots, the begin/end fence bracket)
//! would silently break. Lease across tasks; guard within an operation.
//!
//! ```compile_fail
//! use reclaim_core::{Guard, Leaky, LeasePolicy, LeasePool};
//!
//! let scheme = Leaky::with_defaults();
//! let pool = LeasePool::for_scheme(&scheme, 2, LeasePolicy::Wait).unwrap();
//! let mut lease = pool.checkout().unwrap();
//! let guard = Guard::new(&mut *lease);
//! fn crosses_a_task_boundary<T: Send>(_: T) {}
//! // ERROR: `Guard` is `!Send` — an open operation cannot migrate to
//! // another task/thread; finish (drop) it first, then move the lease.
//! crosses_a_task_boundary(guard);
//! ```

use crate::clock::{Era, NO_BIRTH_ERA};
use crate::node_cache::{self, Block};
use crate::smr::{CoreToken, Smr, SmrHandle};
use crate::tagged::{LinkWord, VersionedAtomic};
use std::alloc::Layout;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::ptr::NonNull;
use std::sync::atomic::Ordering;

/// The heap header the guard layer wraps every node value in: the birth-era
/// stamp lives *next to* the value, invisible to the structure. `repr(C)` pins
/// the layout so the type-erased destructor and the sized retire agree on it.
#[repr(C)]
struct NodeBox<T> {
    birth_era: Era,
    value: T,
}

// SAFETY: `Owned` allocates every `NodeBox<T>` with its type's layout.
unsafe impl<T> Block for NodeBox<T> {}

/// An RAII operation bracket over one [`SmrHandle`].
///
/// Constructing a `Guard` calls [`SmrHandle::begin_op`]; dropping it clears
/// every protection slot and calls [`SmrHandle::end_op`]. Every [`Shared`]
/// loaded through the guard borrows it, so the borrow checker enforces the
/// paper's "no shared references outside an operation" rule at compile time:
///
/// ```compile_fail
/// use reclaim_core::{Atomic, Guard, Leaky, Smr};
///
/// let scheme = Leaky::with_defaults();
/// let mut handle = scheme.register();
/// let link: Atomic<u64> = Atomic::null();
/// let stale = {
///     let guard = Guard::new(&mut handle);
///     link.load(&guard)
/// }; // ERROR: `guard` does not live long enough — a `Shared`
///    // cannot outlive the operation that protected it.
/// let _ = stale.is_null();
/// ```
///
/// The guard borrows the handle mutably for its whole lifetime, so one thread
/// cannot hold two overlapping operations on the same handle, and is neither
/// `Send` nor `Sync` — protections are per-thread state.
pub struct Guard<'h, H: SmrHandle> {
    /// Raw so the guard can publish protections through `&self` while `Shared`
    /// values (immutable borrows of the guard) are live. Sound because the
    /// pointer came from an exclusive `&'h mut H`, the guard is `!Send`/`!Sync`
    /// (raw-pointer field), and no method re-enters another.
    handle: *mut H,
    /// Telemetry op-latency sample: `Some` only for the 1-in-N ops the
    /// handle's core chose to time ([`HandleCore`](crate::limbo::HandleCore)
    /// keeps the sampling counter); the drop records the bracket's elapsed
    /// time. Always `None` — one flag load — when telemetry is disabled.
    op_start: Option<std::time::Instant>,
    _marker: PhantomData<&'h mut H>,
}

impl<'h, H: SmrHandle> Guard<'h, H> {
    /// Opens an operation: calls [`SmrHandle::begin_op`] and takes exclusive
    /// use of the handle until the guard drops.
    pub fn new(handle: &'h mut H) -> Self {
        handle.begin_op();
        let op_start = handle.core_mut(CoreToken(())).op_begin();
        Self {
            handle,
            op_start,
            _marker: PhantomData,
        }
    }

    #[inline]
    fn with<R>(&self, f: impl FnOnce(&mut H) -> R) -> R {
        // SAFETY: `handle` originates from the exclusive borrow held for 'h;
        // the guard is confined to the owning thread and `f` never re-enters
        // the guard, so this is the only live reference during the call.
        f(unsafe { &mut *self.handle })
    }

    /// Allocates a node born in this operation: a block for `layout` from the
    /// handle's node cache, else the scheme's arena ([`crate::node_cache`]),
    /// and the birth era to stamp into it ([`SmrHandle::alloc_node`]). Retire
    /// it with [`retire_block`](Self::retire_block).
    #[inline]
    pub fn alloc_block(&self, layout: Layout) -> (NonNull<u8>, Era) {
        self.with(|h| {
            let block = h.core_mut(CoreToken(())).cache.alloc(layout);
            (block, h.alloc_node())
        })
    }

    /// Publishes a protection for a raw pointer in `slot` — the expert escape
    /// hatch for structures that manage their own node layout (skip list,
    /// BST). The caller must re-validate reachability before dereferencing,
    /// exactly as with [`SmrHandle::protect`].
    #[inline]
    pub fn protect_ptr(&self, slot: usize, ptr: *mut u8) {
        #[allow(clippy::disallowed_methods)]
        self.with(|h| h.protect(slot, ptr));
    }

    /// Re-publishes an already-validated `Shared` into another slot (e.g.
    /// duplicating the current node's protection into the predecessor slot
    /// before advancing, or covering a successor before a value read). The
    /// caller must re-validate reachability *after* this call before
    /// dereferencing through the new slot.
    #[inline]
    pub fn protect_shared<T>(&self, slot: usize, shared: Shared<'_, T>) {
        self.protect_ptr(slot, shared.word.ptr().cast());
    }

    /// Loads `link` and publishes a validated protection for the result in
    /// `slot`: publish, re-read, retry until the word is stable across the
    /// publication. The returned `Shared` is safe to dereference while the
    /// guard lives, **provided the link itself is rooted** (a structure head
    /// or a link of a node currently protected by this guard).
    pub fn load_protected<T>(&self, slot: usize, link: &Atomic<T>) -> Shared<'_, T> {
        let mut word = link.inner.load(Ordering::Acquire);
        loop {
            self.protect_ptr(slot, word.ptr().cast());
            let reread = link.inner.load(Ordering::Acquire);
            if reread == word {
                #[cfg(feature = "check-oracle")]
                crate::oracle::check_protected(word.ptr().cast(), "Guard::load_protected");
                return Shared::from_word(word);
            }
            word = reread;
        }
    }

    /// Retires a node at the start of its block
    /// ([`alloc_block`](Self::alloc_block)'s, or [`crate::SchemeCore::alloc_block`]'s
    /// for a sentinel): builds its [`RetiredPtr`](crate::RetiredPtr) once —
    /// the block's size, the birth era, and the block destructor, which once
    /// the node is freed drops it in place and leaves the block to
    /// `node_cache` (the freeing handle's cache, or the arena its chunk
    /// names). A `T` with nothing to drop in a block of a cached class retires
    /// as a plain block, with no destructor.
    ///
    /// # Safety
    ///
    /// `ptr` must be such a node, live, unlinked and never retired twice, in
    /// a structure whose operations run on this guard's scheme; `birth_era`
    /// must be its stamp or [`NO_BIRTH_ERA`].
    pub unsafe fn retire_block<T: Block>(&self, ptr: *mut T, birth_era: Era) {
        // SAFETY: forwarded from the caller's contract.
        let node = unsafe { node_cache::retired(ptr, birth_era) };
        // SAFETY: as above.
        self.with(|h| unsafe { h.retire(node) });
    }
}

impl<H: SmrHandle> Drop for Guard<'_, H> {
    fn drop(&mut self) {
        let op_start = self.op_start;
        self.with(|h| {
            h.clear_protections();
            h.end_op();
            // Sampled op: record the full begin→end bracket, teardown included.
            if let Some(started) = op_start {
                h.core(CoreToken(())).op_end(started);
            }
        });
    }
}

/// An atomic, versioned link to a guard-layer node: the only way nodes are
/// wired together. Backed by a [`VersionedAtomic`] word, so every successful
/// CAS bumps the link's version and stale expected words fail even when the
/// pointer has ABA'd back.
pub struct Atomic<T> {
    inner: VersionedAtomic<NodeBox<T>>,
}

// SAFETY: an `Atomic` is a single atomic word; sharing it shares access to the
// pointed-to `T` across threads, hence the `Send + Sync` bounds on `T`.
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
// SAFETY: as above — all mutation goes through atomic operations.
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> Atomic<T> {
    /// A fresh null link (unmarked, version 0).
    pub fn null() -> Self {
        Self {
            inner: VersionedAtomic::new(std::ptr::null_mut()),
        }
    }

    /// A fresh link holding `node` (construction-time wiring of owned
    /// sentinels/dummies; no CAS, version starts at 0).
    pub fn new(node: Owned<T>) -> Self {
        let ptr = node.ptr.as_ptr();
        // Sanctioned ownership transfer: the node now belongs to the link.
        #[allow(clippy::disallowed_methods)]
        std::mem::forget(node);
        Self {
            inner: VersionedAtomic::new(ptr),
        }
    }

    /// A second link to the same node, for container construction only (e.g.
    /// a queue whose head *and* tail both start at the dummy). The alias's
    /// version counter starts at 0 independently of `self`'s.
    pub fn alias(&self) -> Self {
        Self {
            inner: VersionedAtomic::new(self.inner.load(Ordering::Relaxed).ptr()),
        }
    }

    /// Loads the current word. The guard borrow ties the returned `Shared` to
    /// the operation; dereferencing it additionally requires a validated
    /// protection (see [`Shared::as_ref`]).
    pub fn load<'g, H: SmrHandle>(&self, _guard: &'g Guard<'_, H>) -> Shared<'g, T> {
        Shared::from_word(self.inner.load(Ordering::Acquire))
    }

    /// Plain store of `shared`'s pointer (unmarked, version reset to 0). Only
    /// legal while the owning node is **private** — i.e. this `Atomic` is a
    /// field of an [`Owned`] not yet linked in; a plain store on a shared link
    /// would bypass the version discipline.
    pub fn store_private(&self, shared: Shared<'_, T>) {
        self.inner
            .store_private(shared.word.ptr(), Ordering::Relaxed);
    }

    /// Attempts `current → new` (pointer *and* mark taken from `new`),
    /// bumping the version. This is the general re-pointing CAS used for
    /// helping (e.g. swinging a queue's tail); it neither publishes new nodes
    /// ([`cas_link`](Self::cas_link)) nor unlinks ([`cas_unlink`](Self::cas_unlink)).
    ///
    /// On success returns the word now in the link; on failure the word
    /// observed.
    pub fn cas<'g>(
        &self,
        current: Shared<'g, T>,
        new: Shared<'g, T>,
    ) -> Result<Shared<'g, T>, Shared<'g, T>> {
        self.inner
            .compare_exchange(
                current.word,
                new.word.ptr(),
                new.word.is_marked(),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .map(Shared::from_word)
            .map_err(Shared::from_word)
    }

    /// Publishes `new` into the link: attempts `current → new` and transfers
    /// ownership of the node to the structure on success. On failure the
    /// `Owned` comes back (so its key/value can be recovered or the insert
    /// retried) along with the word observed.
    ///
    /// Success returns the link's new word — a `Shared` for the just-linked
    /// node, usable e.g. to swing auxiliary pointers at it.
    #[allow(clippy::type_complexity)]
    pub fn cas_link<'g>(
        &self,
        current: Shared<'g, T>,
        new: Owned<T>,
    ) -> Result<Shared<'g, T>, (Shared<'g, T>, Owned<T>)> {
        match self.inner.compare_exchange(
            current.word,
            new.ptr.as_ptr(),
            false,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(word) => {
                // Sanctioned ownership transfer: the winning CAS published the
                // node; the structure owns it now.
                #[allow(clippy::disallowed_methods)]
                std::mem::forget(new);
                Ok(Shared::from_word(word))
            }
            Err(observed) => Err((Shared::from_word(observed), new)),
        }
    }

    /// Attempts to set the logical-deletion mark: `current → (current.ptr,
    /// marked)`, bumping the version. The thread whose mark CAS succeeds owns
    /// the removal; the node's outgoing marked link stays marked forever.
    pub fn try_mark<'g>(&self, current: Shared<'g, T>) -> Result<Shared<'g, T>, Shared<'g, T>> {
        self.inner
            .try_mark(current.word, Ordering::AcqRel, Ordering::Acquire)
            .map(Shared::from_word)
            .map_err(Shared::from_word)
    }

    /// The unlink CAS: attempts `current → replacement` and, on success, mints
    /// the **only** [`Unlinked`] for the node `current` pointed to — the one
    /// capability that can retire it. Also returns the link's new word so the
    /// caller can continue traversing past the excision.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that this link is the *sole remaining path*
    /// by which new observers can reach `current`'s node (its predecessor link
    /// in a list after the node's own mark settled, a queue's head, a stack's
    /// top), so that success makes the node unreachable, and that no other
    /// code path can produce an `Unlinked` for the same node. `current` must
    /// be non-null.
    #[allow(clippy::type_complexity)]
    pub unsafe fn cas_unlink<'g>(
        &self,
        current: Shared<'g, T>,
        replacement: Shared<'g, T>,
    ) -> Result<(Unlinked<T>, Shared<'g, T>), Shared<'g, T>> {
        debug_assert!(!current.is_null(), "cannot unlink through a null word");
        match self.inner.compare_exchange(
            current.word,
            replacement.word.ptr(),
            replacement.word.is_marked(),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(word) => {
                let node = NonNull::new(current.word.ptr()).expect("checked non-null");
                Ok((Unlinked { ptr: node }, Shared::from_word(word)))
            }
            Err(observed) => Err(Shared::from_word(observed)),
        }
    }

    /// Takes the linked node out for teardown, leaving the link null. Used by
    /// structure `Drop` impls to walk and free their chains.
    ///
    /// # Safety
    ///
    /// The caller must have exclusive access to the whole structure (no
    /// concurrent operations, no outstanding protections on the chain) and
    /// must not call this on two links aliasing the same node.
    pub unsafe fn take(&mut self) -> Option<Owned<T>> {
        let word = self.inner.load(Ordering::Relaxed);
        self.inner
            .store_private(std::ptr::null_mut(), Ordering::Relaxed);
        NonNull::new(word.ptr()).map(|ptr| Owned { ptr })
    }
}

/// A shared, possibly marked reference observed from an [`Atomic`] link,
/// valid for the lifetime `'g` of the [`Guard`] it was loaded under.
///
/// A `Shared` is the full observed [`LinkWord`] — pointer, mark **and**
/// version — so it doubles as the validate-on-link CAS expected value for the
/// link it was read from. It is `Copy`; equality compares the whole word.
///
/// `Shared` deliberately has no `retire`: only an [`Unlinked`] — minted by a
/// successful [`Atomic::cas_unlink`] — can retire a node.
///
/// ```compile_fail
/// use reclaim_core::{Atomic, Guard, Leaky, Smr};
///
/// let scheme = Leaky::with_defaults();
/// let mut handle = scheme.register();
/// let link: Atomic<u64> = Atomic::null();
/// let guard = Guard::new(&mut handle);
/// let observed = link.load(&guard);
/// observed.retire(&guard); // ERROR: no method `retire` on `Shared` —
///                          // retirement requires a successful unlink CAS.
/// ```
pub struct Shared<'g, T> {
    word: LinkWord<NodeBox<T>>,
    _guard: PhantomData<&'g ()>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<'_, T> {}
impl<T> PartialEq for Shared<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.word == other.word
    }
}
impl<T> Eq for Shared<'_, T> {}

impl<T> std::fmt::Debug for Shared<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("ptr", &self.word.ptr())
            .field("marked", &self.word.is_marked())
            .field("version", &self.word.version())
            .finish()
    }
}

impl<'g, T> Shared<'g, T> {
    fn from_word(word: LinkWord<NodeBox<T>>) -> Self {
        Self {
            word,
            _guard: PhantomData,
        }
    }

    /// The null word (null pointer, unmarked, version 0). Matches a fresh
    /// [`Atomic::null`] link, and serves as the expected value for a CAS on
    /// one.
    pub fn null() -> Self {
        Self::from_word(LinkWord::null())
    }

    /// True if the pointer field is null.
    pub fn is_null(self) -> bool {
        self.word.ptr().is_null()
    }

    /// Whether the logical-deletion mark was set at observation time.
    pub fn is_marked(self) -> bool {
        self.word.is_marked()
    }

    /// The same word with the mark cleared — the *new* value for a CAS that
    /// re-links a deleted node's successor (never a CAS expected value).
    pub fn unmarked(self) -> Self {
        Self::from_word(self.word.with_mark(false))
    }

    /// Pointer identity (mark and version ignored) — e.g. the Michael–Scott
    /// `head == tail` check.
    pub fn ptr_eq(self, other: Shared<'_, T>) -> bool {
        self.word.ptr() == other.word.ptr()
    }

    /// Dereferences the shared node for the guard's lifetime.
    ///
    /// # Safety
    ///
    /// The `Shared` must carry a **validated** protection: it came from
    /// [`Guard::load_protected`] on a rooted link (or its reachability was
    /// re-validated after [`Guard::protect_shared`]), and that protection slot
    /// has not since been overwritten with a different pointer.
    pub unsafe fn as_ref(self) -> Option<&'g T> {
        #[cfg(feature = "check-oracle")]
        crate::oracle::check_protected(self.word.ptr().cast(), "Shared::as_ref");
        // SAFETY: per the caller's contract the node is protected and cannot
        // be freed while the guard lives.
        unsafe { self.word.ptr().as_ref().map(|node| &node.value) }
    }

    /// The birth era [`Owned::new`] stamped into the node ([`NO_BIRTH_ERA`]
    /// under a scheme without eras): for tests and diagnostics that compare
    /// two builds of a structure, which itself never reads it.
    ///
    /// # Safety
    ///
    /// As for [`as_ref`](Self::as_ref), and the `Shared` is not null.
    pub unsafe fn birth_era(self) -> Era {
        // SAFETY: per the caller's contract the node is protected and live.
        unsafe { (*self.word.ptr()).birth_era }
    }
}

/// An owned, not-yet-linked node: the only way to allocate into the guard
/// layer. Allocation ([`Guard::alloc_block`]) takes a block from the handle's
/// node cache and stamps the scheme's birth era into a private header, so
/// era schemes (HE) get exact lifetime intervals without the structure ever
/// seeing an era.
pub struct Owned<T> {
    ptr: NonNull<NodeBox<T>>,
}

// SAFETY: an `Owned` is exclusive ownership of a heap node, like `Box<T>`.
unsafe impl<T: Send> Send for Owned<T> {}

impl<T> Owned<T> {
    /// Allocates a node stamped with the current birth era.
    pub fn new<H: SmrHandle>(value: T, guard: &Guard<'_, H>) -> Self {
        let (block, birth_era) = guard.alloc_block(Layout::new::<NodeBox<T>>());
        Self::init(block, birth_era, value)
    }

    /// Allocates a node with no birth stamp off `scheme`'s arena, for sentinels
    /// and dummies created before any handle exists (era schemes treat
    /// [`NO_BIRTH_ERA`] as born before every announced era — always safe).
    pub fn sentinel<S: Smr>(value: T, scheme: &S) -> Self {
        let block = scheme.core().alloc_block(Layout::new::<NodeBox<T>>());
        Self::init(block, NO_BIRTH_ERA, value)
    }

    fn init(block: NonNull<u8>, birth_era: Era, value: T) -> Self {
        let ptr = block.cast::<NodeBox<T>>();
        // SAFETY: a fresh block of `NodeBox<T>`'s layout, or a wider one.
        unsafe { ptr.write(NodeBox { birth_era, value }) };
        Self { ptr }
    }

    /// Recovers the value, freeing the node — the failed-insert path (the CAS
    /// handed the `Owned` back, the caller wants its key/value for the retry).
    pub fn into_inner(self) -> T {
        let this = ManuallyDrop::new(self);
        let node = this.ptr.as_ptr();
        // SAFETY: `self` is consumed without running its destructor, so the
        // value is moved out once and the never-linked block freed once.
        unsafe {
            let value = std::ptr::read(&(*node).value);
            node_cache::free_block(node.cast(), Layout::new::<NodeBox<T>>());
            value
        }
    }
}

impl<T> std::fmt::Debug for Owned<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Owned").field("ptr", &self.ptr).finish()
    }
}

impl<T> std::ops::Deref for Owned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: exclusive ownership of a live allocation.
        unsafe { &self.ptr.as_ref().value }
    }
}

impl<T> std::ops::DerefMut for Owned<T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: exclusive ownership of a live allocation.
        unsafe { &mut self.ptr.as_mut().value }
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        // Owned teardown (a never-linked node, or a node taken back via
        // `Atomic::take` during structure Drop).
        // SAFETY: the node is exclusively ours and dropped exactly once.
        unsafe { node_cache::free(self.ptr.as_ptr()) };
    }
}

/// A node provably excised from the structure: minted **only** by a successful
/// [`Atomic::cas_unlink`], and the only type that can retire. "You can only
/// retire what you provably unlinked" is thereby an ownership rule, not a
/// comment.
#[must_use = "an Unlinked node owns the obligation to retire — dropping it leaks"]
pub struct Unlinked<T> {
    ptr: NonNull<NodeBox<T>>,
}

// SAFETY: the sole excision capability for a node, like `Box<T>` minus the
// right to free it synchronously.
unsafe impl<T: Send> Send for Unlinked<T> {}

/// Reads the excised node. Safe: the allocation stays live at least until
/// [`Unlinked::retire`] consumes the `Unlinked`, and it is the unique one for
/// the node. (Interior mutability inside `T` — e.g. a stack node's value cell
/// — is governed by the structure's own protocol.)
impl<T> AsRef<T> for Unlinked<T> {
    fn as_ref(&self) -> &T {
        #[cfg(feature = "check-oracle")]
        crate::oracle::check_protected(self.ptr.as_ptr().cast(), "Unlinked::as_ref");
        // SAFETY: the node is unreachable to new observers but not yet
        // retired, so the allocation is live; `&self` keeps it so.
        unsafe { &self.ptr.as_ref().value }
    }
}

impl<T> Unlinked<T> {
    /// Hands the node to the scheme for deferred reclamation — always through
    /// [`Guard::retire_block`], fully stamped: birth era from the
    /// allocation-time header, size from the node's layout. The byte
    /// accounting and the era schemes' lifetime intervals therefore stay
    /// exact for every guard-layer node.
    pub fn retire<H: SmrHandle>(self, guard: &Guard<'_, H>) {
        let node = self.ptr.as_ptr();
        // SAFETY: header written at allocation, node not yet retired.
        let birth_era = unsafe { (*node).birth_era };
        // SAFETY: minted by the unlink CAS — the node is unlinked, and
        // consuming `self` makes this the only retirement; `Owned` allocated
        // its block.
        unsafe { guard.retire_block(node, birth_era) };
        // `self` has no `Drop`; consuming it here simply spends the
        // must-use retirement obligation.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaky::Leaky;
    use crate::smr::Smr;

    #[test]
    fn owned_round_trips_value_and_header() {
        let scheme = Leaky::with_defaults();
        let node = Owned::sentinel(41_u64, &*scheme);
        assert_eq!(*node, 41);
        let mut node = node;
        *node += 1;
        assert_eq!(node.into_inner(), 42);
    }

    #[test]
    fn load_protected_returns_the_linked_node() {
        let scheme = Leaky::with_defaults();
        let mut handle = scheme.register();
        let link = Atomic::new(Owned::sentinel(7_u64, &*scheme));
        {
            let guard = Guard::new(&mut handle);
            let shared = guard.load_protected(0, &link);
            assert!(!shared.is_null());
            assert!(!shared.is_marked());
            // SAFETY: validated protection on a rooted link.
            assert_eq!(unsafe { shared.as_ref() }, Some(&7));
        }
        let mut link = link;
        // SAFETY: single-threaded teardown.
        let node = unsafe { link.take() }.expect("node present");
        assert_eq!(node.into_inner(), 7);
    }

    #[test]
    fn cas_link_failure_returns_the_owned_node() {
        let scheme = Leaky::with_defaults();
        let mut handle = scheme.register();
        let link = Atomic::new(Owned::sentinel(1_u64, &*scheme));
        let guard = Guard::new(&mut handle);
        let node = Owned::new(2_u64, &guard);
        // Expected word is null but the link holds a node: the CAS must fail
        // and hand the Owned back.
        let (observed, node) = link
            .cas_link(Shared::null(), node)
            .expect_err("stale expected word must fail");
        assert!(!observed.is_null());
        assert_eq!(node.into_inner(), 2);
        drop(guard);
        let mut link = link;
        // SAFETY: single-threaded teardown.
        drop(unsafe { link.take() });
    }

    #[test]
    fn unlink_mints_exactly_one_retire_capability() {
        let scheme = Leaky::with_defaults();
        let mut handle = scheme.register();
        let link = Atomic::new(Owned::sentinel(9_u64, &*scheme));
        {
            let guard = Guard::new(&mut handle);
            let shared = guard.load_protected(0, &link);
            // SAFETY: the head link is the sole path to the node.
            let (unlinked, now) =
                unsafe { link.cas_unlink(shared, Shared::null()) }.expect("uncontended unlink");
            assert!(now.is_null());
            assert_eq!(*unlinked.as_ref(), 9);
            unlinked.retire(&guard);
        }
        // Leaky never frees, but the protocol completed; stats record it.
        assert_eq!(scheme.stats().retired, 1);
    }

    #[test]
    fn stale_unlink_fails_on_version_even_with_pointer_aba() {
        let scheme = Leaky::with_defaults();
        let mut handle = scheme.register();
        let link: Atomic<u64> = Atomic::null();
        let guard = Guard::new(&mut handle);
        let stale = link.load(&guard); // (null, v0)
        let linked = link
            .cas_link(stale, Owned::new(5, &guard))
            .expect("link succeeds");
        // SAFETY: sole path.
        let (unlinked, now) =
            unsafe { link.cas_unlink(linked, Shared::null()) }.expect("unlink succeeds");
        unlinked.retire(&guard);
        assert!(now.is_null(), "pointer is null again");
        // The word is (null, v2) now: the stale (null, v0) snapshot must fail.
        assert!(
            link.cas_link(stale, Owned::new(6, &guard)).is_err(),
            "version bump defeats pointer ABA"
        );
    }

    #[test]
    fn guard_brackets_the_operation() {
        let scheme = Leaky::with_defaults();
        let mut handle = scheme.register();
        {
            let _guard = Guard::new(&mut handle);
        }
        {
            let _guard = Guard::new(&mut handle);
        }
        // Two begin/end brackets and no panic: the RAII pairing holds. Leaky
        // counts nothing here; schemes with per-op state are exercised by the
        // structure matrices.
    }
}
