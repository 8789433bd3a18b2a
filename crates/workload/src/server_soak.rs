//! Server soak: thousands of short sessions leasing few registered handles.
//!
//! The sharded-registry + [`LeasePool`] combination
//! exists for exactly one deployment shape: a server that spawns a short-lived
//! task per request against a shared structure. Registering a handle per task
//! would exhaust `max_threads` and bloat every scan; this scenario instead
//! runs `M` worker threads draining a queue of `sessions` short sessions,
//! each session checking one of `N` pooled handles out, performing a burst of
//! skip-list operations through it, and checking it back in.
//!
//! What the run proves, and reports:
//!
//! * **throughput** — total operations and sessions per second across the
//!   whole soak (checkout/checkin overhead rides on every session, so a slow
//!   pool would show up directly);
//! * **session latency** — each session's wall time recorded into a
//!   [`LogHistogram`] (the telemetry layer's allocation-free log2 histogram),
//!   reported as p50/p99/p99.9; the tail captures lease contention under
//!   `M > N`;
//! * **reclamation health** — peak in-limbo bytes, retired/freed conservation
//!   and the registry's shard skip/walk counters; with `N ≤ 8` leased slots
//!   every scan should be dispatching on one or two shards no matter how
//!   large `max_threads` is.
//!
//! The scenario is deterministic per seed (splitmix64 per session) and runs on
//! every scheme in the matrix — `qsense-bench --figure server-soak` records the
//! four facade schemes (hp, cadence, qsense, he) into `BENCH_server_soak.json`.

use crate::generator::SplitMix64;
use crate::spec::Structure;
use crate::structures::config_for;
use crate::SchemeKind;
use lockfree_ds::LockFreeSkipList;
use reclaim_core::stats::StatsSnapshot;
use reclaim_core::telemetry::{HistSnapshot, LogHistogram, HIST_STRIPES};
use reclaim_core::{LeasePolicy, LeasePool, Smr, SmrConfig};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parameters of one soak run. `Default` gives the acceptance-criteria shape:
/// 1024 sessions over 8 leased slots, 16 worker threads.
#[derive(Clone, Debug)]
pub struct ServerSoakSpec {
    /// Scheme under test.
    pub scheme: SchemeKind,
    /// Total short sessions to run (the request count).
    pub sessions: usize,
    /// Concurrent worker threads draining the session queue (`M`).
    pub workers: usize,
    /// Leased handles in the pool (`N`); the only registered slots the soak
    /// claims beyond the prefill handle.
    pub slots: usize,
    /// Skip-list operations per session (mixed insert/remove/contains burst).
    pub ops_per_session: usize,
    /// Key range of the shared skip list (pre-filled to half).
    pub key_range: u64,
    /// Seed for the per-session splitmix64 streams.
    pub seed: u64,
    /// Registry capacity to configure (`SmrConfig::max_threads`). Deliberately
    /// independent of `slots`: a 256-capacity registry serving 8 leased slots
    /// is precisely the shape the sharded scan dispatch is for.
    pub max_threads: usize,
}

impl ServerSoakSpec {
    /// The default soak for `scheme`: ≥1000 sessions over 8 slots.
    pub fn new(scheme: SchemeKind) -> Self {
        Self {
            scheme,
            sessions: 1024,
            workers: 16,
            slots: 8,
            ops_per_session: 64,
            key_range: 512,
            seed: 0xBA1_5EED,
            max_threads: 64,
        }
    }

    /// A fast variant for unit tests.
    #[cfg(test)]
    pub(crate) fn smoke(scheme: SchemeKind) -> Self {
        Self {
            sessions: 200,
            workers: 8,
            ops_per_session: 32,
            key_range: 128,
            ..Self::new(scheme)
        }
    }
}

/// What one soak run measured.
#[derive(Clone, Debug)]
pub struct ServerSoakResult {
    /// Scheme name (matches the figures' legend).
    pub scheme: &'static str,
    /// Sessions actually completed (always the spec's count).
    pub sessions: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Leased handles in the pool.
    pub slots: usize,
    /// Total skip-list operations performed.
    pub total_ops: u64,
    /// Wall time of the whole soak (prefill excluded).
    pub elapsed: Duration,
    /// Session wall-time histogram, in nanoseconds.
    pub session_ns: HistSnapshot,
    /// Checkouts that found the pool empty and had to block for a checkin.
    pub lease_waits: u64,
    /// Scheme counters at the end of the run (retired/freed, peak limbo
    /// bytes, registry shard skip/walk counters).
    pub stats: StatsSnapshot,
}

impl ServerSoakResult {
    /// Throughput in million operations per second.
    pub fn mops(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64() / 1.0e6
    }

    /// Sessions served per second.
    pub fn sessions_per_sec(&self) -> f64 {
        self.sessions as f64 / self.elapsed.as_secs_f64()
    }

    /// Session wall-time percentile in microseconds (log2-bucket upper
    /// bound); `p` is a fraction in `(0.0, 1.0]`, e.g. `0.999` for p99.9.
    pub fn session_percentile_us(&self, p: f64) -> f64 {
        self.session_ns.percentile(p) as f64 / 1.0e3
    }
}

fn soak<S: Smr>(scheme: Arc<S>, spec: &ServerSoakSpec) -> ServerSoakResult {
    let list = Arc::new(LockFreeSkipList::<u64, S>::new(Arc::clone(&scheme)));
    // Pre-fill to half the range, in one batch, with a transient handle, then
    // release its slot so the steady state holds exactly the `slots` leased
    // registrations.
    list.insert_batch((0..spec.key_range).step_by(2), &mut scheme.register());
    let pool = LeasePool::for_scheme(&scheme, spec.slots, LeasePolicy::Wait)
        .expect("soak slots must fit the registry");
    let tickets = AtomicUsize::new(0);
    let lease_waits = AtomicU64::new(0);
    let session_ns = LogHistogram::new();

    let started = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..spec.workers {
            let list = Arc::clone(&list);
            let pool = &pool;
            let tickets = &tickets;
            let lease_waits = &lease_waits;
            let session_ns = &session_ns;
            scope.spawn(move || {
                let stripe = worker % HIST_STRIPES;
                loop {
                    let ticket = tickets.fetch_add(1, Ordering::Relaxed);
                    if ticket >= spec.sessions {
                        break;
                    }
                    let session_start = Instant::now();
                    // Count contended checkouts (pool momentarily empty), then
                    // block under the Wait policy like a real request would.
                    let mut lease = match pool.try_checkout() {
                        Some(lease) => lease,
                        None => {
                            lease_waits.fetch_add(1, Ordering::Relaxed);
                            pool.checkout().expect("wait policy never errors")
                        }
                    };
                    let mut rng =
                        SplitMix64(spec.seed ^ (ticket as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
                    for _ in 0..spec.ops_per_session {
                        let draw = rng.next_u64();
                        let key = draw % spec.key_range;
                        match (draw >> 32) % 4 {
                            0 => {
                                list.insert(key, &mut *lease);
                            }
                            1 => {
                                list.remove(&key, &mut *lease);
                            }
                            _ => {
                                list.contains(&key, &mut *lease);
                            }
                        }
                    }
                    drop(lease); // checkin: the next session may adopt it
                    session_ns.record(stripe, session_start.elapsed().as_nanos() as u64);
                }
            });
        }
    });
    let elapsed = started.elapsed();

    ServerSoakResult {
        scheme: scheme.name(),
        sessions: spec.sessions,
        workers: spec.workers,
        slots: spec.slots,
        total_ops: (spec.sessions * spec.ops_per_session) as u64,
        elapsed,
        session_ns: session_ns.snapshot(),
        lease_waits: lease_waits.load(Ordering::Relaxed),
        stats: Smr::stats(&*scheme),
    }
}

/// Runs the soak for `spec.scheme` on the base reclamation configuration
/// `config`. The soak always runs against a skip list, so the hazard budget
/// is forced to the skip list's (as is `max_threads`, to the spec's registry
/// capacity) — everything else is the caller's.
pub fn run_server_soak_with(spec: &ServerSoakSpec, config: SmrConfig) -> ServerSoakResult {
    assert!(spec.slots > 0 && spec.workers > 0 && spec.ops_per_session > 0);
    assert!(spec.key_range > 0, "key range must be non-empty");
    assert!(
        spec.slots < spec.max_threads,
        "the pool plus the prefill handle must fit the registry"
    );
    let config = config_for(Structure::SkipList, config).with_max_threads(spec.max_threads);
    match spec.scheme {
        SchemeKind::None => soak(reclaim_core::Leaky::new(config), spec),
        SchemeKind::Qsbr => soak(qsbr::Qsbr::new(config), spec),
        SchemeKind::Hp => soak(hazard::Hazard::new(config), spec),
        SchemeKind::Cadence => soak(cadence::Cadence::new(config), spec),
        SchemeKind::QSense => soak(qsense::QSense::new(config), spec),
        SchemeKind::Ebr => soak(ebr::Ebr::new(config), spec),
        SchemeKind::He => soak(he::He::new(config), spec),
        SchemeKind::RefCount => soak(refcount::RefCount::new(config), spec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The soak on the shared bench configuration.
    fn run_server_soak(spec: &ServerSoakSpec) -> ServerSoakResult {
        run_server_soak_with(spec, crate::default_bench_config(spec.max_threads))
    }

    #[test]
    fn smoke_soak_completes_every_session_on_the_facade_schemes() {
        for kind in [
            SchemeKind::Hp,
            SchemeKind::Cadence,
            SchemeKind::QSense,
            SchemeKind::He,
        ] {
            let spec = ServerSoakSpec {
                sessions: 64,
                workers: 4,
                slots: 2,
                ops_per_session: 16,
                key_range: 64,
                ..ServerSoakSpec::smoke(kind)
            };
            let result = run_server_soak(&spec);
            assert_eq!(result.scheme, kind.name(), "{kind:?}");
            assert_eq!(result.sessions, 64);
            assert_eq!(result.total_ops, 64 * 16);
            assert_eq!(
                result.session_ns.count(),
                64,
                "{kind:?}: every session records one latency sample"
            );
            assert!(
                result.stats.retired >= result.stats.freed,
                "{kind:?}: conservation"
            );
        }
    }

    #[test]
    fn soak_scans_dispatch_on_shards_not_capacity() {
        // 256-slot registry, 8 leased slots: scans must be skipping almost
        // every shard (the acceptance shape of the sharded registry).
        let spec = ServerSoakSpec {
            sessions: 128,
            workers: 8,
            slots: 8,
            ops_per_session: 32,
            key_range: 128,
            max_threads: 256,
            ..ServerSoakSpec::smoke(SchemeKind::Hp)
        };
        let result = run_server_soak(&spec);
        assert!(
            result.stats.shard_skips > 0,
            "a 256-capacity registry with <=9 claimed slots must skip shards: {:?}",
            result.stats
        );
        // Round-robin homes spread the 8 leased handles (plus the transient
        // prefill handle) across up to 9 distinct shards, so each scan walks
        // at most 9 of the 32 shards and skips the other 23+.
        assert!(
            result.stats.shard_skips >= 2 * result.stats.shard_walks,
            "at most 9 of 32 shards are ever occupied, so skips dominate walks \
             (skips = {}, walks = {})",
            result.stats.shard_skips,
            result.stats.shard_walks
        );
    }

    #[test]
    fn soak_is_deterministic_in_shape_not_schedule() {
        let spec = ServerSoakSpec {
            sessions: 32,
            workers: 2,
            slots: 1,
            ops_per_session: 8,
            key_range: 32,
            ..ServerSoakSpec::smoke(SchemeKind::Qsbr)
        };
        let a = run_server_soak(&spec);
        let b = run_server_soak(&spec);
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(a.sessions, b.sessions);
        assert_eq!(a.slots, 1);
    }
}
