//! Uniform access to every (data structure × reclamation scheme) combination.
//!
//! The paper's evaluation matrix crosses three structures with four reclamation
//! schemes (None, QSBR, HP, QSense — plus Cadence stand-alone in the fallback
//! analysis). [`make_set`] instantiates any cell of that matrix behind the
//! object-safe [`BenchSet`] / [`SetSession`] pair so that the benchmark runner and
//! the examples can be written once.

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

macro_rules! impl_bench_set {
    ($set_ty:ident, $session_ty:ident, $ds:ident, $structure:expr) => {
        struct $set_ty<S: Smr> {
            ds: Arc<$ds<u64, S>>,
            scheme: Arc<S>,
        }

        struct $session_ty<S: Smr> {
            ds: Arc<$ds<u64, S>>,
            handle: S::Handle,
        }

        impl<S: Smr> SetSession for $session_ty<S> {
            fn contains(&mut self, key: u64) -> bool {
                self.ds.contains(&key, &mut self.handle)
            }
            fn insert(&mut self, key: u64) -> bool {
                self.ds.insert(key, &mut self.handle)
            }
            fn remove(&mut self, key: u64) -> bool {
                self.ds.remove(&key, &mut self.handle)
            }
            fn flush(&mut self) {
                self.handle.flush();
            }
        }

        impl<S: Smr> BenchSet for $set_ty<S> {
            fn session(&self) -> Box<dyn SetSession> {
                Box::new($session_ty {
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
                let mut handle = self.scheme.register();
                self.ds.len(&mut handle)
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
                $structure.name()
            }
        }
    };
}

impl_bench_set!(ListSet, ListSession, HarrisMichaelList, Structure::List);
impl_bench_set!(SkipSet, SkipSession, LockFreeSkipList, Structure::SkipList);
impl_bench_set!(BstSet, BstSession, LockFreeBst, Structure::Bst);

/// The hash map has a map-shaped API (`contains_key`, `get`, key → value insert), so
/// its [`BenchSet`] adapter is written out instead of generated by the macro; the
/// benchmark simply stores the key as its own value.
struct HashMapSet<S: Smr> {
    ds: Arc<LockFreeHashMap<u64, u64, S>>,
    scheme: Arc<S>,
}

struct HashMapSession<S: Smr> {
    ds: Arc<LockFreeHashMap<u64, u64, S>>,
    handle: S::Handle,
}

impl<S: Smr> SetSession for HashMapSession<S> {
    fn contains(&mut self, key: u64) -> bool {
        self.ds.contains_key(&key, &mut self.handle)
    }
    fn insert(&mut self, key: u64) -> bool {
        self.ds.insert(key, key, &mut self.handle)
    }
    fn remove(&mut self, key: u64) -> bool {
        self.ds.remove(&key, &mut self.handle)
    }
    fn flush(&mut self) {
        self.handle.flush();
    }
}

impl<S: Smr> BenchSet for HashMapSet<S> {
    fn session(&self) -> Box<dyn SetSession> {
        Box::new(HashMapSession {
            ds: Arc::clone(&self.ds),
            handle: self.scheme.register(),
        })
    }
    fn prefill(&self, keys: &[u64]) {
        let mut handle = self.scheme.register();
        for &key in keys {
            self.ds.insert(key, key, &mut handle);
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
        Structure::HashMap.name()
    }
}

/// The FIFO/LIFO structures have no membership test and ignore which key an
/// operation carries: `insert` is push/enqueue, `remove` is pop/dequeue (false
/// when empty), and `contains` is served by an emptiness probe so that mixed
/// workloads still run. The natural workload for them is 100% churn
/// ([`crate::OpMix::churn`]), where `contains` never fires.
struct QueueSet<S: Smr> {
    ds: Arc<MichaelScottQueue<u64, S>>,
    scheme: Arc<S>,
}

struct QueueSession<S: Smr> {
    ds: Arc<MichaelScottQueue<u64, S>>,
    handle: S::Handle,
}

impl<S: Smr> SetSession for QueueSession<S> {
    fn contains(&mut self, _key: u64) -> bool {
        !self.ds.is_empty()
    }
    fn insert(&mut self, key: u64) -> bool {
        self.ds.enqueue(key, &mut self.handle);
        true
    }
    fn remove(&mut self, _key: u64) -> bool {
        self.ds.dequeue(&mut self.handle).is_some()
    }
    fn flush(&mut self) {
        self.handle.flush();
    }
}

impl<S: Smr> BenchSet for QueueSet<S> {
    fn session(&self) -> Box<dyn SetSession> {
        Box::new(QueueSession {
            ds: Arc::clone(&self.ds),
            handle: self.scheme.register(),
        })
    }
    fn prefill(&self, keys: &[u64]) {
        let mut handle = self.scheme.register();
        for &key in keys {
            self.ds.enqueue(key, &mut handle);
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
        Structure::Queue.name()
    }
}

struct StackSet<S: Smr> {
    ds: Arc<TreiberStack<u64, S>>,
    scheme: Arc<S>,
}

struct StackSession<S: Smr> {
    ds: Arc<TreiberStack<u64, S>>,
    handle: S::Handle,
}

impl<S: Smr> SetSession for StackSession<S> {
    fn contains(&mut self, _key: u64) -> bool {
        !self.ds.is_empty()
    }
    fn insert(&mut self, key: u64) -> bool {
        self.ds.push(key, &mut self.handle);
        true
    }
    fn remove(&mut self, _key: u64) -> bool {
        self.ds.pop(&mut self.handle).is_some()
    }
    fn flush(&mut self) {
        self.handle.flush();
    }
}

impl<S: Smr> BenchSet for StackSet<S> {
    fn session(&self) -> Box<dyn SetSession> {
        Box::new(StackSession {
            ds: Arc::clone(&self.ds),
            handle: self.scheme.register(),
        })
    }
    fn prefill(&self, keys: &[u64]) {
        let mut handle = self.scheme.register();
        for &key in keys {
            self.ds.push(key, &mut handle);
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
        Structure::Stack.name()
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
    match structure {
        Structure::List => Arc::new(ListSet {
            ds: Arc::new(HarrisMichaelList::new(Arc::clone(&scheme))),
            scheme,
        }),
        Structure::SkipList => Arc::new(SkipSet {
            ds: Arc::new(LockFreeSkipList::new(Arc::clone(&scheme))),
            scheme,
        }),
        Structure::Bst => Arc::new(BstSet {
            ds: Arc::new(LockFreeBst::new(Arc::clone(&scheme))),
            scheme,
        }),
        Structure::HashMap => Arc::new(HashMapSet {
            ds: Arc::new(LockFreeHashMap::new(Arc::clone(&scheme))),
            scheme,
        }),
        Structure::Queue => Arc::new(QueueSet {
            ds: Arc::new(MichaelScottQueue::new(Arc::clone(&scheme))),
            scheme,
        }),
        Structure::Stack => Arc::new(StackSet {
            ds: Arc::new(TreiberStack::new(Arc::clone(&scheme))),
            scheme,
        }),
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
