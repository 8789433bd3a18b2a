//! Per-slice correctness checks. A slice that fails any of them counts all of
//! its operations as failed.

use crate::spec::{BOUNDED_UNDER_STALL, STALLED_LIMBO_CAP_BYTES};
use reclaim_core::stats::StatsSnapshot;
use workload::SchemeKind;

/// What one slice left behind, as seen from outside the library.
#[derive(Clone, Copy, Debug)]
pub struct SliceFacts {
    pub scheme: SchemeKind,
    pub stalled: bool,
    pub prefilled: u64,
    pub inserted: u64,
    pub removed: u64,
    /// `BenchSet::len()` after every session closed.
    pub len: u64,
    /// `Smr::stats()` after every session closed.
    pub closed: StatsSnapshot,
}

/// The checks a slice failed; empty when it is correct.
pub fn failures(facts: &SliceFacts) -> Vec<String> {
    let mut failed = Vec::new();
    let expected = (facts.prefilled + facts.inserted).checked_sub(facts.removed);
    if Some(facts.len) != expected {
        failed.push(format!(
            "len {} != prefill {} + inserts {} - removes {}",
            facts.len, facts.prefilled, facts.inserted, facts.removed
        ));
    }
    let stats = &facts.closed;
    if stats.freed > stats.retired {
        failed.push(format!("freed {} > retired {}", stats.freed, stats.retired));
    }
    if stats.size_unknown_retires != 0 {
        failed.push(format!(
            "{} retires carried no size",
            stats.size_unknown_retires
        ));
    }
    if facts.stalled {
        if BOUNDED_UNDER_STALL.contains(&facts.scheme)
            && stats.peak_limbo_bytes > STALLED_LIMBO_CAP_BYTES
        {
            failed.push(format!(
                "limbo peaked at {} bytes under a stalled session (cap {})",
                stats.peak_limbo_bytes, STALLED_LIMBO_CAP_BYTES
            ));
        }
        if facts.scheme == SchemeKind::QSense && stats.fallback_switches == 0 {
            failed.push("qsense never fell back under a stalled session".to_string());
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(scheme: SchemeKind, stalled: bool) -> SliceFacts {
        SliceFacts {
            scheme,
            stalled,
            prefilled: 1_000,
            inserted: 40,
            removed: 25,
            len: 1_015,
            closed: StatsSnapshot {
                retired: 25,
                freed: 20,
                fallback_switches: 1,
                peak_limbo_bytes: 4_096,
                ..StatsSnapshot::default()
            },
        }
    }

    #[test]
    fn a_consistent_slice_passes() {
        for stalled in [false, true] {
            assert!(failures(&clean(SchemeKind::QSense, stalled)).is_empty());
        }
    }

    #[test]
    fn a_doctored_count_fires_each_check() {
        let mut lost_insert = clean(SchemeKind::Hp, false);
        lost_insert.inserted += 1;
        assert_eq!(failures(&lost_insert).len(), 1);

        let mut double_free = clean(SchemeKind::Hp, false);
        double_free.closed.freed = 26;
        assert_eq!(failures(&double_free).len(), 1);

        let mut unsized_retire = clean(SchemeKind::Hp, false);
        unsized_retire.closed.size_unknown_retires = 1;
        assert_eq!(failures(&unsized_retire).len(), 1);

        let mut unbounded = clean(SchemeKind::Cadence, true);
        unbounded.closed.peak_limbo_bytes = STALLED_LIMBO_CAP_BYTES + 1;
        assert_eq!(failures(&unbounded).len(), 1);
        // QSBR is expected to grow without bound under a stall; not a failure.
        unbounded.scheme = SchemeKind::Qsbr;
        assert!(failures(&unbounded).is_empty());

        let mut never_fell_back = clean(SchemeKind::QSense, true);
        never_fell_back.closed.fallback_switches = 0;
        assert_eq!(failures(&never_fell_back).len(), 1);
        never_fell_back.stalled = false;
        assert!(failures(&never_fell_back).is_empty());
    }
}
