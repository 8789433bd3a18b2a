//! Uniform access to every (data structure × reclamation scheme) combination.
//!
//! The matrix crosses six structures (the paper's list, skip list and BST, plus
//! the hash map, queue and stack) with eight reclamation schemes (the paper's
//! None, QSBR, HP, Cadence and QSense, plus EBR, Hazard Eras and reference
//! counting). [`make_set`] instantiates any cell of it behind the object-safe
//! [`BenchSet`] / [`SetSession`] pair, through one generic adapter, so that the
//! benchmark runner and the examples can be written once.

use lockfree_ds::{
    HarrisMichaelList, LockFreeBst, LockFreeHashMap, LockFreeSkipList, MichaelScottQueue,
    TreiberStack, HASHMAP_HP_SLOTS, SKIPLIST_HP_SLOTS,
};
use reclaim_core::stats::StatsSnapshot;
use reclaim_core::{BudgetVerdict, Leaky, Smr, SmrConfig, SmrHandle, TelemetrySummary};
use std::sync::Arc;
use std::time::Duration;

use crate::spec::Structure;

/// Which reclamation scheme to instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeKind {
    /// No reclamation (leaky baseline, "None" in the paper's figures).
    None,
    /// Quiescent-state-based reclamation.
    Qsbr,
    /// Classic hazard pointers: a fence per node traversed, paid by the reader
    /// or, where the kernel offers an expedited `membarrier`, by the scanner.
    Hp,
    /// Cadence stand-alone (fence-free hazard pointers behind a rooster).
    Cadence,
    /// The QSense hybrid.
    QSense,
    /// Epoch-based reclamation with per-operation pinning (related-work baseline).
    Ebr,
    /// Hazard Eras / interval-based reclamation (robust like HP, amortized like
    /// the epoch schemes; nodes carry birth/retire era stamps).
    He,
    /// Reference counting (related-work baseline).
    RefCount,
}

impl SchemeKind {
    /// Name used in benchmark tables (matches the paper's legend where applicable).
    pub fn name(&self) -> &'static str {
        match self {
            SchemeKind::None => "none",
            SchemeKind::Qsbr => "qsbr",
            SchemeKind::Hp => "hp",
            SchemeKind::Cadence => "cadence",
            SchemeKind::QSense => "qsense",
            SchemeKind::Ebr => "ebr",
            SchemeKind::He => "he",
            SchemeKind::RefCount => "rc",
        }
    }

    /// The schemes that appear in the paper's figures, in the order the figures list
    /// them.
    pub fn all() -> [SchemeKind; 5] {
        [
            SchemeKind::None,
            SchemeKind::Qsbr,
            SchemeKind::QSense,
            SchemeKind::Hp,
            SchemeKind::Cadence,
        ]
    }

    /// Every implemented scheme, including the related-work baselines that the paper
    /// discusses but does not plot (EBR, reference counting) and the Hazard-Eras
    /// extension. Used by the extension benchmarks.
    pub fn extended() -> [SchemeKind; 8] {
        [
            SchemeKind::None,
            SchemeKind::Qsbr,
            SchemeKind::Ebr,
            SchemeKind::He,
            SchemeKind::QSense,
            SchemeKind::Cadence,
            SchemeKind::Hp,
            SchemeKind::RefCount,
        ]
    }
}

/// A per-thread session on a concurrent set: a registered reclamation handle bound to
/// the structure. Obtained from [`BenchSet::session`]; one per worker thread.
pub trait SetSession: Send {
    /// Membership test.
    fn contains(&mut self, key: u64) -> bool;
    /// Insert; false if already present.
    fn insert(&mut self, key: u64) -> bool;
    /// Remove; false if absent.
    fn remove(&mut self, key: u64) -> bool;
    /// Forces a reclamation pass on this thread's retired nodes.
    fn flush(&mut self);
}

/// A concurrent set paired with its reclamation scheme, usable from many threads.
pub trait BenchSet: Send + Sync {
    /// Opens a per-thread session (registers with the reclamation scheme).
    fn session(&self) -> Box<dyn SetSession>;
    /// Inserts `keys` (used for the pre-fill phase).
    fn prefill(&self, keys: &[u64]);
    /// Number of elements (quiescent-only; used to sanity-check experiments).
    fn len(&self) -> usize;
    /// True when the set holds no elements (quiescent-only).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Reclamation counters of the underlying scheme.
    fn smr_stats(&self) -> StatsSnapshot;
    /// The scheme's limbo-budget verdict.
    fn budget_verdict(&self) -> BudgetVerdict;
    /// Latency/delay histograms (empty when telemetry was not enabled in the
    /// config).
    fn telemetry_summary(&self) -> TelemetrySummary;
    /// Scheme name ("none", "qsbr", "hp", "cadence", "qsense").
    fn scheme_name(&self) -> &'static str;
    /// Structure name ("linked-list", "skip-list", "bst").
    fn structure_name(&self) -> &'static str;
}

/// What the one adapter needs of a structure: set operations on `u64` keys
/// under a handle of the structure's scheme, and a quiescent element count.
trait KeySet<S: Smr>: Send + Sync + 'static {
    fn contains(&self, key: u64, handle: &mut S::Handle) -> bool;
    fn insert(&self, key: u64, handle: &mut S::Handle) -> bool;
    fn remove(&self, key: u64, handle: &mut S::Handle) -> bool;
    fn len(&self) -> usize;
}

/// The ordered sets already have the set API; `len` walks under a handle of
/// its own.
macro_rules! ordered_set {
    ($($ds:ident),*) => {$(
        impl<S: Smr> KeySet<S> for $ds<u64, S> {
            fn contains(&self, key: u64, handle: &mut S::Handle) -> bool {
                $ds::contains(self, &key, handle)
            }
            fn insert(&self, key: u64, handle: &mut S::Handle) -> bool {
                $ds::insert(self, key, handle)
            }
            fn remove(&self, key: u64, handle: &mut S::Handle) -> bool {
                $ds::remove(self, &key, handle)
            }
            fn len(&self) -> usize {
                $ds::len(self, &mut self.register())
            }
        }
    )*};
}

ordered_set!(HarrisMichaelList, LockFreeSkipList, LockFreeBst);

/// The hash map stores each key as its own value.
impl<S: Smr> KeySet<S> for LockFreeHashMap<u64, u64, S> {
    fn contains(&self, key: u64, handle: &mut S::Handle) -> bool {
        self.contains_key(&key, handle)
    }
    fn insert(&self, key: u64, handle: &mut S::Handle) -> bool {
        LockFreeHashMap::insert(self, key, key, handle)
    }
    fn remove(&self, key: u64, handle: &mut S::Handle) -> bool {
        LockFreeHashMap::remove(self, &key, handle)
    }
    fn len(&self) -> usize {
        LockFreeHashMap::len(self)
    }
}

/// The FIFO/LIFO structures have no membership test and ignore which key an
/// operation carries: `insert` is push/enqueue, `remove` is pop/dequeue (false
/// when empty), and `contains` is served by an emptiness probe so that mixed
/// workloads still run. The natural workload for them is 100% churn
/// ([`crate::OpMix::churn`]), where `contains` never fires.
impl<S: Smr> KeySet<S> for MichaelScottQueue<u64, S> {
    fn contains(&self, _key: u64, _handle: &mut S::Handle) -> bool {
        !self.is_empty()
    }
    fn insert(&self, key: u64, handle: &mut S::Handle) -> bool {
        self.enqueue(key, handle);
        true
    }
    fn remove(&self, _key: u64, handle: &mut S::Handle) -> bool {
        self.dequeue(handle).is_some()
    }
    fn len(&self) -> usize {
        MichaelScottQueue::len(self)
    }
}

impl<S: Smr> KeySet<S> for TreiberStack<u64, S> {
    fn contains(&self, _key: u64, _handle: &mut S::Handle) -> bool {
        !self.is_empty()
    }
    fn insert(&self, key: u64, handle: &mut S::Handle) -> bool {
        self.push(key, handle);
        true
    }
    fn remove(&self, _key: u64, handle: &mut S::Handle) -> bool {
        self.pop(handle).is_some()
    }
    fn len(&self) -> usize {
        TreiberStack::len(self)
    }
}

/// One cell of the matrix: a structure over the scheme that reclaims it.
struct Cell<S: Smr, D> {
    ds: Arc<D>,
    scheme: Arc<S>,
    structure: Structure,
}

/// A worker's session on a [`Cell`].
struct Session<S: Smr, D> {
    ds: Arc<D>,
    handle: S::Handle,
}

impl<S: Smr, D: KeySet<S>> SetSession for Session<S, D> {
    fn contains(&mut self, key: u64) -> bool {
        self.ds.contains(key, &mut self.handle)
    }
    fn insert(&mut self, key: u64) -> bool {
        self.ds.insert(key, &mut self.handle)
    }
    fn remove(&mut self, key: u64) -> bool {
        self.ds.remove(key, &mut self.handle)
    }
    fn flush(&mut self) {
        self.handle.flush();
    }
}

impl<S: Smr, D: KeySet<S>> BenchSet for Cell<S, D> {
    fn session(&self) -> Box<dyn SetSession> {
        Box::new(Session::<S, D> {
            ds: Arc::clone(&self.ds),
            handle: self.scheme.register(),
        })
    }
    fn prefill(&self, keys: &[u64]) {
        let mut handle = self.scheme.register();
        for &key in keys {
            self.ds.insert(key, &mut handle);
        }
        handle.flush();
    }
    fn len(&self) -> usize {
        self.ds.len()
    }
    fn smr_stats(&self) -> StatsSnapshot {
        Smr::stats(&*self.scheme)
    }
    fn budget_verdict(&self) -> BudgetVerdict {
        Smr::budget_verdict(&*self.scheme)
    }
    fn telemetry_summary(&self) -> TelemetrySummary {
        Smr::telemetry(&*self.scheme).summary()
    }
    fn scheme_name(&self) -> &'static str {
        Smr::name(&*self.scheme)
    }
    fn structure_name(&self) -> &'static str {
        self.structure.name()
    }
}

/// The reclamation configuration an experiment uses for `structure`: hazard-pointer
/// budget sized to the structure (2 / 33+ / 6, as in the paper), everything else
/// from the caller's base configuration.
pub fn config_for(structure: Structure, base: SmrConfig) -> SmrConfig {
    match structure {
        Structure::List => base.with_hp_per_thread(lockfree_ds::LIST_HP_SLOTS),
        Structure::SkipList => base.with_hp_per_thread(SKIPLIST_HP_SLOTS),
        Structure::Bst => base.with_hp_per_thread(lockfree_ds::BST_HP_SLOTS),
        Structure::HashMap => base.with_hp_per_thread(HASHMAP_HP_SLOTS),
        Structure::Queue => base.with_hp_per_thread(lockfree_ds::QUEUE_HP_SLOTS),
        Structure::Stack => base.with_hp_per_thread(lockfree_ds::STACK_HP_SLOTS),
    }
}

/// A reasonable base configuration for experiments: short rooster interval so the
/// fallback path reclaims promptly during benchmarks.
pub fn default_bench_config(max_threads: usize) -> SmrConfig {
    SmrConfig::default()
        .with_max_threads(max_threads.max(2))
        .with_quiescence_threshold(64)
        .with_scan_threshold(128)
        .with_fallback_threshold(8_192)
        .with_rooster_interval(Duration::from_millis(5))
}

/// One cell of the matrix over a scheme the caller built (with
/// [`config_for`]`(structure, ..)`) and may keep a reference to — a test that
/// drives the scheme's barrier ledger by hand, say.
pub fn set_over<S: Smr>(structure: Structure, scheme: Arc<S>) -> Arc<dyn BenchSet> {
    fn cell<S: Smr, D: KeySet<S>>(
        structure: Structure,
        scheme: Arc<S>,
        ds: D,
    ) -> Arc<dyn BenchSet> {
        Arc::new(Cell {
            ds: Arc::new(ds),
            scheme,
            structure,
        })
    }
    let smr = Arc::clone(&scheme);
    match structure {
        Structure::List => cell(structure, scheme, HarrisMichaelList::new(smr)),
        Structure::SkipList => cell(structure, scheme, LockFreeSkipList::new(smr)),
        Structure::Bst => cell(structure, scheme, LockFreeBst::new(smr)),
        Structure::HashMap => cell(structure, scheme, LockFreeHashMap::new(smr)),
        Structure::Queue => cell(structure, scheme, MichaelScottQueue::new(smr)),
        Structure::Stack => cell(structure, scheme, TreiberStack::new(smr)),
    }
}

/// Instantiates one cell of the evaluation matrix.
pub fn make_set(structure: Structure, scheme: SchemeKind, base: SmrConfig) -> Arc<dyn BenchSet> {
    let config = config_for(structure, base);
    match scheme {
        SchemeKind::None => set_over(structure, Leaky::new(config)),
        SchemeKind::Qsbr => set_over(structure, qsbr::Qsbr::new(config)),
        SchemeKind::Hp => set_over(structure, hazard::Hazard::new(config)),
        SchemeKind::Cadence => set_over(structure, cadence::Cadence::new(config)),
        SchemeKind::QSense => set_over(structure, qsense::QSense::new(config)),
        SchemeKind::Ebr => set_over(structure, ebr::Ebr::new(config)),
        SchemeKind::He => set_over(structure, he::He::new(config)),
        SchemeKind::RefCount => set_over(structure, refcount::RefCount::new(config)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_matrix_cell_supports_basic_operations() {
        for structure in [
            Structure::List,
            Structure::SkipList,
            Structure::Bst,
            Structure::HashMap,
        ] {
            for scheme in SchemeKind::extended() {
                let set = make_set(structure, scheme, default_bench_config(4));
                let mut session = set.session();
                assert!(session.insert(10), "{structure:?} {scheme:?}");
                assert!(!session.insert(10), "{structure:?} {scheme:?}");
                assert!(session.contains(10), "{structure:?} {scheme:?}");
                assert!(session.remove(10), "{structure:?} {scheme:?}");
                assert!(!session.contains(10), "{structure:?} {scheme:?}");
                session.flush();
                assert_eq!(set.scheme_name(), scheme.name());
                assert_eq!(set.structure_name(), structure.name());
            }
        }
    }

    #[test]
    fn prefill_populates_half_of_the_range() {
        let set = make_set(Structure::List, SchemeKind::QSense, default_bench_config(2));
        let keys: Vec<u64> = (0..100).collect();
        set.prefill(&keys);
        assert_eq!(set.len(), 100);
        let stats = set.smr_stats();
        assert_eq!(stats.retired, 0, "prefill of distinct keys retires nothing");
    }

    #[test]
    fn scheme_kind_names_match_paper_legend() {
        assert_eq!(SchemeKind::None.name(), "none");
        assert_eq!(SchemeKind::Qsbr.name(), "qsbr");
        assert_eq!(SchemeKind::Hp.name(), "hp");
        assert_eq!(SchemeKind::Cadence.name(), "cadence");
        assert_eq!(SchemeKind::QSense.name(), "qsense");
        assert_eq!(SchemeKind::Ebr.name(), "ebr");
        assert_eq!(SchemeKind::He.name(), "he");
        assert_eq!(SchemeKind::RefCount.name(), "rc");
        assert_eq!(SchemeKind::all().len(), 5);
        assert_eq!(SchemeKind::extended().len(), 8);
        for kind in SchemeKind::all() {
            assert!(
                SchemeKind::extended().contains(&kind),
                "extended() must be a superset of all()"
            );
        }
    }

    #[test]
    fn queue_and_stack_cells_churn_on_every_scheme() {
        for structure in [Structure::Queue, Structure::Stack] {
            for scheme in SchemeKind::extended() {
                let set = make_set(structure, scheme, default_bench_config(4));
                let mut session = set.session();
                assert!(
                    !session.contains(0),
                    "{structure:?} {scheme:?}: empty probe"
                );
                assert!(session.insert(1), "{structure:?} {scheme:?}");
                assert!(session.insert(2), "{structure:?} {scheme:?}");
                assert!(session.contains(0), "{structure:?} {scheme:?}");
                assert!(session.remove(0), "{structure:?} {scheme:?}");
                assert!(session.remove(0), "{structure:?} {scheme:?}");
                assert!(
                    !session.remove(0),
                    "{structure:?} {scheme:?}: drained empty"
                );
                session.flush();
                assert_eq!(set.scheme_name(), scheme.name());
                assert_eq!(set.structure_name(), structure.name());
            }
        }
    }

    #[test]
    fn queue_and_stack_prefill_report_their_length() {
        for structure in [Structure::Queue, Structure::Stack] {
            let set = make_set(structure, SchemeKind::QSense, default_bench_config(2));
            let keys: Vec<u64> = (0..100).collect();
            set.prefill(&keys);
            assert_eq!(set.len(), 100, "{structure:?}");
        }
    }

    #[test]
    fn hash_map_cell_reports_its_structure_name() {
        let set = make_set(
            Structure::HashMap,
            SchemeKind::QSense,
            default_bench_config(2),
        );
        assert_eq!(set.structure_name(), "hash-map");
        let keys: Vec<u64> = (0..64).collect();
        set.prefill(&keys);
        assert_eq!(set.len(), 64);
    }
}
