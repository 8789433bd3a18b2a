//! Per-thread era reservations: the shared record other threads scan.
//!
//! Where a hazard-pointer record publishes `K` *node addresses*, an era record
//! publishes one *interval of logical time*: the closed era range
//! `[lower, upper]` during which the owning thread may hold references
//! obtained from the shared structure. A retired node whose lifetime interval
//! `[birth, retire]` overlaps no announced reservation is unreachable — the
//! free-time condition of Hazard Eras (Ramalhete & Correia, DISC 2017) in its
//! two-global-eras / IBR formulation (Wen et al., PPoPP 2018).
//!
//! Within an operation the reservation grows only at the top: `lower` is
//! pinned when the owner begins an operation, and `upper` is bumped whenever
//! the owner observes that the global era advanced mid-operation (see
//! `HeHandle::protect`). That is what lets one record protect arbitrarily many
//! nodes at once — every reference the owner holds was acquired at some era
//! inside `[lower, upper]`, so the overlap check covers all of them with two
//! loads per thread instead of `K` pointer compares.
//!
//! Between operations the record stays published: the next operation at the
//! same era runs under it as it is (no store, no fence), one at a newer era
//! re-activates the record (one fence). Only the owner's `flush`, drop and
//! `go_idle` deactivate it.

use reclaim_core::Era;
use std::sync::atomic::{AtomicU64, Ordering};

/// `lower` of an inactive reservation. Greater than every real era, so the
/// overlap test `lower <= retire` fails without a special case.
pub(crate) const INACTIVE_LOWER: Era = u64::MAX;

/// `upper` of an inactive reservation. Smaller than every real birth era the
/// stamping path produces (eras start at 1), so `birth <= upper` fails too.
pub(crate) const INACTIVE_UPPER: Era = 0;

/// One thread's announced era interval (single writer, many readers).
#[derive(Debug)]
pub(crate) struct EraRecord {
    lower: AtomicU64,
    upper: AtomicU64,
}

impl EraRecord {
    /// Creates an inactive (non-blocking) reservation.
    pub fn new() -> Self {
        Self {
            lower: AtomicU64::new(INACTIVE_LOWER),
            upper: AtomicU64::new(INACTIVE_UPPER),
        }
    }

    /// Announces the point interval `[era, era]` (an operation starts at an era
    /// the record does not yet reach).
    ///
    /// `upper` is written before `lower`: a concurrent scanner that catches the
    /// record mid-activation reads `(INACTIVE_LOWER, era)` — an empty interval.
    /// That is safe, not just benign: activation happens at `begin_op`, when
    /// the owner holds no references yet, and every reference it acquires later
    /// is covered by the publication-fence-then-revalidate argument in
    /// `HeHandle::protect`.
    #[inline]
    pub(crate) fn activate(&self, era: Era) {
        self.upper.store(era, Ordering::Release);
        self.lower.store(era, Ordering::Release);
    }

    /// Extends the reservation's top to `era` (the global era advanced while
    /// the owner is mid-operation). `lower` keeps protecting the references
    /// acquired earlier in the operation.
    #[inline]
    pub(crate) fn extend_upper(&self, era: Era) {
        self.upper.store(era, Ordering::Release);
    }

    /// Withdraws the reservation (`flush`, handle drop, `go_idle`). `lower` is neutralized
    /// first, so a torn read is again an empty interval — and the owner holds
    /// no references at this point either way.
    #[inline]
    pub(crate) fn deactivate(&self) {
        self.lower.store(INACTIVE_LOWER, Ordering::Release);
        self.upper.store(INACTIVE_UPPER, Ordering::Release);
    }

    /// Snapshot of `(lower, upper)` for a scan. The two loads are not one
    /// atomic cut; every torn combination is an interval that under-approximates
    /// the live one only in states where the owner holds no references (see
    /// [`activate`](Self::activate) / [`deactivate`](Self::deactivate)).
    #[inline]
    pub fn load(&self) -> (Era, Era) {
        (
            self.lower.load(Ordering::Acquire),
            self.upper.load(Ordering::Acquire),
        )
    }

    /// True when the reservation currently blocks nothing.
    #[cfg(test)]
    pub(crate) fn is_inactive(&self) -> bool {
        self.lower.load(Ordering::Acquire) == INACTIVE_LOWER
    }
}

impl Default for EraRecord {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_record_is_inactive_and_blocks_nothing() {
        let r = EraRecord::new();
        assert!(r.is_inactive());
        let (lower, upper) = r.load();
        // The overlap test `lower <= retire && birth <= upper` must fail for
        // every real interval.
        assert!(lower > 1_000_000, "inactive lower must exceed any era");
        assert_eq!(upper, INACTIVE_UPPER);
    }

    #[test]
    fn activate_extend_deactivate_round_trip() {
        let r = EraRecord::new();
        r.activate(7);
        assert_eq!(r.load(), (7, 7));
        assert!(!r.is_inactive());
        r.extend_upper(9);
        assert_eq!(r.load(), (7, 9));
        r.deactivate();
        assert!(r.is_inactive());
        // Reactivation starts a fresh point interval.
        r.activate(12);
        assert_eq!(r.load(), (12, 12));
    }
}
