//! Marked and **versioned** link words.
//!
//! Every link in this repository is a [`VersionedAtomic`] holding a
//! [`LinkWord`]: a 64-bit word packing the pointer, the Harris *logical
//! deletion* mark (the least-significant bit of a node's `next` pointer), and a
//! **per-link version counter** that every successful CAS bumps.
//!
//! The mark alone suffices for structures whose validate-then-CAS pattern
//! targets the **same link it validated** (the linked list, the hash map's
//! bucket lists): the CAS's expected pointer value re-validates the link for
//! free, and hazard-pointer protection of the expected node rules out address
//! reuse (ABA), so a stale CAS always fails. The version is what the skip list
//! needs: its upper-level link CAS acts on a *different* link (and level) than
//! the membership validation (`succs[0] == node`), so pointer equality at the
//! CASed link proves nothing about the validated state still holding. With
//! versions, "the link looks unchanged" and "the link *is* unchanged since my
//! validation" coincide, which makes validate-on-link sound — the VBR insight
//! (Sheffi–Morrison–Petrank) applied to exactly the validate-then-CAS window
//! the skip list's re-link race lives in.
//!
//! ## Word layout
//!
//! ```text
//!   63          48 47                    1  0
//!  +--------------+-----------------------+----+
//!  |  version     |  pointer bits [47:1]  |mark|
//!  +--------------+-----------------------+----+
//! ```
//!
//! * **Bit 0 — mark.** All nodes are heap allocations with alignment ≥ 8, so
//!   bit 0 of a real pointer is always zero. Keeping the mark in the *outgoing*
//!   pointer of the deleted node (rather than in the pointer *to* it) is what
//!   makes hazard-pointer validation sound: once a node is unlinked its `next`
//!   stays marked forever, so a traversal standing on a removed node can never
//!   successfully validate a protection acquired through it.
//! * **Bits 47:1 — pointer.** User-space heap pointers on the supported
//!   platforms (x86-64 and aarch64 Linux with 48-bit virtual addressing) fit in
//!   47 bits; `pack` debug-asserts it. Bits 2:1 are pointer bits like any
//!   other (they are zero for aligned pointers but are masked, not shifted, so
//!   the hot path pays one AND to extract the pointer).
//! * **Bits 63:48 — version.** Bumped (mod 2¹⁶) by every successful CAS through
//!   [`VersionedAtomic::compare_exchange`], so the version is a per-link
//!   modification counter.
//!
//! ## Checked-wrap story
//!
//! The version wraps at 2¹⁶ = 65 536. A wrap is dangerous only if one observer
//! holds a `(pointer, version)` snapshot across **exactly** `k·2¹⁶` successful
//! CASes on that one link *and* the pointer field has returned to its old
//! value. Every holder of a snapshot in this crate (a traversal between its
//! validation and its CAS) also holds hazard-pointer/era protection on the
//! snapshot's successor, so the successor cannot be freed and re-allocated
//! under the snapshot; returning to the same pointer therefore requires the
//! *same node* to be unlinked and re-linked at the same level ≥ 65 536/2 times
//! inside one traversal's validate→CAS window (a handful of instructions, plus
//! at worst one preemption quantum per wrap candidate). Unlike the classic
//! 16-bit-tag ABA folklore — where the tag guards *reallocated* memory and a
//! wrap needs only allocator cooperation — a wrap here needs the scheduler to
//! stall one thread across ≥ 32 768 successful re-link cycles of one specific
//! node that the stalled thread's own protection keeps alive; no such cycle
//! even exists for retired nodes (a retired node is never re-linked — that is
//! the invariant the versions enforce). The wrap arithmetic itself is exact:
//! `pack` masks the version to 16 bits, so `0xFFFF + 1` rolls to `0` without
//! touching the pointer or mark bits (pinned by a unit test below).

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// The logical-deletion mark (bit 0) of a link word.
const MARK: usize = 1;

/// Number of version bits in a [`LinkWord`].
pub(crate) const VERSION_BITS: u32 = 16;
/// Bit position of the version field.
const VERSION_SHIFT: u32 = 64 - VERSION_BITS;
/// Mask of the version field's value range.
const VERSION_MASK: u64 = (1 << VERSION_BITS) - 1;
/// Mask selecting the pointer bits of a link word (bits 47:1).
const PTR_MASK: u64 = ((1u64 << VERSION_SHIFT) - 1) & !(MARK as u64);

/// Packs `(pointer, mark, version)` into one link word. The version is taken
/// mod 2¹⁶ (the checked-wrap contract above).
#[inline]
fn pack<T>(ptr: *mut T, mark: bool, version: u64) -> u64 {
    let addr = ptr as usize as u64;
    debug_assert_eq!(
        addr & !PTR_MASK,
        0,
        "pointer {addr:#x} does not fit the 47-bit link-word field \
         (mark bit set, or >47-bit virtual address space?)"
    );
    addr | (mark as u64) | ((version & VERSION_MASK) << VERSION_SHIFT)
}

/// One observed value of a [`VersionedAtomic`] link: pointer + mark + version,
/// compared **as a whole** by the CAS that consumes it. Copyable and cheap; a
/// traversal keeps the `LinkWord` it validated and hands it to the CAS as the
/// expected value, which is precisely the validate-on-link discipline.
pub struct LinkWord<T> {
    raw: u64,
    _marker: PhantomData<*mut T>,
}

impl<T> Clone for LinkWord<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for LinkWord<T> {}
impl<T> PartialEq for LinkWord<T> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}
impl<T> Eq for LinkWord<T> {}

impl<T> std::fmt::Debug for LinkWord<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkWord")
            .field("ptr", &self.ptr())
            .field("marked", &self.is_marked())
            .field("version", &self.version())
            .finish()
    }
}

impl<T> LinkWord<T> {
    fn from_raw(raw: u64) -> Self {
        Self {
            raw,
            _marker: PhantomData,
        }
    }

    /// The all-zero word: null pointer, unmarked, version 0 (array initializer;
    /// also the word a fresh [`VersionedAtomic`] of a null pointer holds).
    #[inline]
    pub fn null() -> Self {
        Self::from_raw(0)
    }

    /// The pointer field (mark and version stripped).
    #[inline]
    pub fn ptr(self) -> *mut T {
        (self.raw & PTR_MASK) as usize as *mut T
    }

    /// Whether the logical-deletion mark is set.
    #[inline]
    pub fn is_marked(self) -> bool {
        self.raw & MARK as u64 != 0
    }

    /// The link's version at observation time.
    #[inline]
    pub(crate) fn version(self) -> u64 {
        self.raw >> VERSION_SHIFT
    }

    /// The same pointer and version with the mark bit set or cleared. This
    /// derives the *new* value of a CAS from an observed word (e.g. re-linking
    /// a deleted node's successor unmarked); it is never meaningful as a CAS
    /// *expected* value — expected words must be observed, not synthesized.
    #[inline]
    pub(crate) fn with_mark(self, mark: bool) -> Self {
        Self::from_raw((self.raw & !(MARK as u64)) | (mark as u64))
    }
}

/// An atomic link word: pointer + mark + per-link version, CASed as one `u64`.
///
/// Every successful [`compare_exchange`](Self::compare_exchange) bumps the
/// version, so holding a [`LinkWord`] and CASing with it as the expected value
/// guarantees the link was not modified — not even transiently, pointer
/// equality notwithstanding — between the observation and the CAS.
pub struct VersionedAtomic<T> {
    word: AtomicU64,
    _marker: PhantomData<*mut T>,
}

impl<T> VersionedAtomic<T> {
    /// A fresh link (version 0) holding `ptr`, unmarked.
    pub fn new(ptr: *mut T) -> Self {
        Self {
            word: AtomicU64::new(pack(ptr, false, 0)),
            _marker: PhantomData,
        }
    }

    /// Loads the current word.
    #[inline]
    pub fn load(&self, order: Ordering) -> LinkWord<T> {
        LinkWord::from_raw(self.word.load(order))
    }

    /// Plain store of `(ptr, unmarked)`, **resetting the version to 0**. Only
    /// legal while the owning node is private (pre-publication initialization):
    /// a store on a shared link would bypass the version discipline.
    #[inline]
    pub fn store_private(&self, ptr: *mut T, order: Ordering) {
        self.word.store(pack(ptr, false, 0), order);
    }

    /// Attempts the transition `current → (new_ptr, new_mark)`, bumping the
    /// version. Fails (returning the observed word) if the link differs from
    /// `current` in pointer, mark, **or version**.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: LinkWord<T>,
        new_ptr: *mut T,
        new_mark: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<LinkWord<T>, LinkWord<T>> {
        let new = pack(new_ptr, new_mark, current.version().wrapping_add(1));
        match self
            .word
            .compare_exchange(current.raw, new, success, failure)
        {
            Ok(_) => Ok(LinkWord::from_raw(new)),
            Err(observed) => Err(LinkWord::from_raw(observed)),
        }
    }

    /// Marks the link (`current → (current.ptr, marked)`), bumping the version.
    #[inline]
    pub fn try_mark(
        &self,
        current: LinkWord<T>,
        success: Ordering,
        failure: Ordering,
    ) -> Result<LinkWord<T>, LinkWord<T>> {
        self.compare_exchange(current, current.ptr(), true, success, failure)
    }

    /// Version-bump with no pointer/mark change (`current → current,
    /// version+1`): the *poison* step of the remove protocol — after it
    /// succeeds, every CAS whose expected word predates `current` is guaranteed
    /// to fail, so a link observed victim-free stays victim-free.
    #[inline]
    pub fn bump_version(
        &self,
        current: LinkWord<T>,
        success: Ordering,
        failure: Ordering,
    ) -> Result<LinkWord<T>, LinkWord<T>> {
        self.compare_exchange(
            current,
            current.ptr(),
            current.is_marked(),
            success,
            failure,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versioned_load_round_trips_pointer_mark_and_version() {
        let raw = Box::into_raw(Box::new(9_u64));
        let link = VersionedAtomic::new(raw);
        let w = link.load(Ordering::Acquire);
        assert_eq!(w.ptr(), raw);
        assert!(!w.is_marked());
        assert_eq!(w.version(), 0);
        // SAFETY: reconstructs the box from the pointer this test leaked via Box::into_raw; it is dropped exactly once.
        #[allow(clippy::disallowed_methods)]
        // sanctioned: test teardown balancing this test's Box::into_raw
        unsafe {
            drop(Box::from_raw(raw))
        };
    }

    #[test]
    fn every_successful_cas_bumps_the_version() {
        let a = Box::into_raw(Box::new(1_u64));
        let b = Box::into_raw(Box::new(2_u64));
        let link = VersionedAtomic::new(a);
        let w0 = link.load(Ordering::Acquire);
        let w1 = link
            .compare_exchange(w0, b, false, Ordering::AcqRel, Ordering::Acquire)
            .expect("uncontended CAS succeeds");
        assert_eq!(w1.ptr(), b);
        assert_eq!(w1.version(), 1);
        let w2 = link
            .try_mark(w1, Ordering::AcqRel, Ordering::Acquire)
            .expect("mark succeeds");
        assert!(w2.is_marked());
        assert_eq!(w2.ptr(), b);
        assert_eq!(w2.version(), 2);
        // SAFETY: `a` and `b` were leaked via Box::into_raw above and are dropped exactly once.
        unsafe {
            #[allow(clippy::disallowed_methods)]
            // sanctioned: test teardown balancing this test's Box::into_raw
            drop(Box::from_raw(a));
            #[allow(clippy::disallowed_methods)]
            // sanctioned: test teardown balancing this test's Box::into_raw
            drop(Box::from_raw(b));
        }
    }

    #[test]
    fn stale_snapshots_fail_even_when_the_pointer_matches() {
        // The ABA the versions exist to stop: pointer goes a -> b -> a; a CAS
        // holding the original (a, v0) snapshot must fail.
        let a = Box::into_raw(Box::new(1_u64));
        let b = Box::into_raw(Box::new(2_u64));
        let link = VersionedAtomic::new(a);
        let stale = link.load(Ordering::Acquire);
        let w1 = link
            .compare_exchange(stale, b, false, Ordering::AcqRel, Ordering::Acquire)
            .unwrap();
        let w2 = link
            .compare_exchange(w1, a, false, Ordering::AcqRel, Ordering::Acquire)
            .unwrap();
        assert_eq!(w2.ptr(), stale.ptr(), "pointer has ABA'd back");
        let err = link
            .compare_exchange(stale, b, false, Ordering::AcqRel, Ordering::Acquire)
            .expect_err("stale snapshot must fail on version mismatch");
        assert_eq!(err.ptr(), a);
        assert_eq!(err.version(), 2);
        // SAFETY: `a` and `b` were leaked via Box::into_raw above and are dropped exactly once.
        unsafe {
            #[allow(clippy::disallowed_methods)]
            // sanctioned: test teardown balancing this test's Box::into_raw
            drop(Box::from_raw(a));
            #[allow(clippy::disallowed_methods)]
            // sanctioned: test teardown balancing this test's Box::into_raw
            drop(Box::from_raw(b));
        }
    }

    #[test]
    fn bump_version_changes_only_the_version() {
        let a = Box::into_raw(Box::new(3_u64));
        let link = VersionedAtomic::new(a);
        let w0 = link.load(Ordering::Acquire);
        let w1 = link
            .bump_version(w0, Ordering::AcqRel, Ordering::Acquire)
            .unwrap();
        assert_eq!(w1.ptr(), a);
        assert!(!w1.is_marked());
        assert_eq!(w1.version(), 1);
        assert!(
            link.bump_version(w0, Ordering::AcqRel, Ordering::Acquire)
                .is_err(),
            "the old snapshot is poisoned"
        );
        // SAFETY: reconstructs the box from the pointer this test leaked via Box::into_raw; it is dropped exactly once.
        #[allow(clippy::disallowed_methods)]
        // sanctioned: test teardown balancing this test's Box::into_raw
        unsafe {
            drop(Box::from_raw(a))
        };
    }

    #[test]
    fn version_wrap_is_exact_and_leaves_pointer_and_mark_intact() {
        let a = Box::into_raw(Box::new(4_u64));
        let link = VersionedAtomic::new(a);
        // Drive the version to the wrap boundary directly (2^16 CAS loops in a
        // unit test would work too, but the packing is what's under test).
        link.word
            .store(pack(a, true, VERSION_MASK), Ordering::Release);
        let w = link.load(Ordering::Acquire);
        assert_eq!(w.version(), VERSION_MASK);
        let wrapped = link
            .compare_exchange(w, a, true, Ordering::AcqRel, Ordering::Acquire)
            .expect("CAS at the wrap boundary succeeds");
        assert_eq!(wrapped.version(), 0, "version wraps mod 2^16");
        assert_eq!(wrapped.ptr(), a, "pointer bits survive the wrap");
        assert!(wrapped.is_marked(), "mark bit survives the wrap");
        // SAFETY: reconstructs the box from the pointer this test leaked via Box::into_raw; it is dropped exactly once.
        #[allow(clippy::disallowed_methods)]
        // sanctioned: test teardown balancing this test's Box::into_raw
        unsafe {
            drop(Box::from_raw(a))
        };
    }

    #[test]
    fn store_private_resets_the_version() {
        let a = Box::into_raw(Box::new(5_u64));
        let b = Box::into_raw(Box::new(6_u64));
        let link = VersionedAtomic::new(a);
        let w0 = link.load(Ordering::Acquire);
        link.compare_exchange(w0, b, true, Ordering::AcqRel, Ordering::Acquire)
            .unwrap();
        link.store_private(a, Ordering::Relaxed);
        let w = link.load(Ordering::Acquire);
        assert_eq!((w.ptr(), w.is_marked(), w.version()), (a, false, 0));
        // SAFETY: `a` and `b` were leaked via Box::into_raw above and are dropped exactly once.
        unsafe {
            #[allow(clippy::disallowed_methods)]
            // sanctioned: test teardown balancing this test's Box::into_raw
            drop(Box::from_raw(a));
            #[allow(clippy::disallowed_methods)]
            // sanctioned: test teardown balancing this test's Box::into_raw
            drop(Box::from_raw(b));
        }
    }

    #[test]
    fn null_links_carry_marks_and_versions() {
        let link: VersionedAtomic<u64> = VersionedAtomic::new(std::ptr::null_mut());
        let w0 = link.load(Ordering::Acquire);
        assert!(w0.ptr().is_null());
        let w1 = link
            .try_mark(w0, Ordering::AcqRel, Ordering::Acquire)
            .unwrap();
        assert!(w1.ptr().is_null());
        assert!(w1.is_marked());
        assert_eq!(w1.version(), 1);
    }
}
