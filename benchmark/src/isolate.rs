//! The isolation pass of a traced run: unit costs of the public calls, timed
//! on one thread in tight loops, plus the external terms (allocator, clock)
//! they have to be read against. Runs after the rounds, so that the garbage
//! it makes cannot disturb a timed slice.

use crate::spec::SCHEMES;
use crate::stats::median;
use reclaim_core::{Atomic, Guard, Leaky, LeasePolicy, LeasePool, Owned, Shared, Smr, SmrHandle};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{default_bench_config, OpGenerator, SchemeKind, WorkloadSpec};

/// Unit costs of one scheme, nanoseconds per call.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchemeCosts {
    /// `begin_op` + `end_op`.
    pub begin_end_ns: f64,
    /// One `Guard::protect_ptr`.
    pub protect_ns: f64,
    /// Guard bracket + `Owned::new` + publish + `cas_unlink` +
    /// `Unlinked::retire`, scans amortised.
    pub retire_cycle_ns: f64,
}

#[derive(Clone, Debug, Default)]
pub struct Isolation {
    pub schemes: [SchemeCosts; SCHEMES.len()],
    pub guard_bracket_ns: f64,
    pub lease_cycle_ns: f64,
    pub alloc_free_ns: f64,
    pub instant_now_ns: f64,
    pub next_op_ns: f64,
}

const BATCHES: usize = 9;
const BATCH_TIME: Duration = Duration::from_millis(4);
const CHUNK: u64 = 256;

/// Median nanoseconds per call of `body` over `BATCHES` batches, after one
/// warm-up batch. A batch ends after `BATCH_TIME` or `max_calls` calls; the cap
/// bounds what the leaky scheme accumulates.
fn per_call_ns(max_calls: u64, mut body: impl FnMut()) -> f64 {
    let mut batch = || {
        let started = Instant::now();
        let mut calls = 0;
        while calls < max_calls && started.elapsed() < BATCH_TIME {
            for _ in 0..CHUNK {
                body();
            }
            calls += CHUNK;
        }
        started.elapsed().as_nanos() as f64 / calls as f64
    };
    batch();
    let batches: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    median(&batches)
}

const UNCAPPED: u64 = u64::MAX;
/// 152 bytes of value + the 8-byte birth-era header = a 160-byte node.
type Payload = [u64; 19];

fn scheme_costs<S: Smr>(scheme: Arc<S>) -> SchemeCosts {
    let mut handle = scheme.register();
    let begin_end_ns = per_call_ns(UNCAPPED, || {
        handle.begin_op();
        handle.end_op();
    });

    let target = Box::new(0u64);
    let address = std::ptr::from_ref(&*target).cast_mut().cast::<u8>();
    let protect_ns = {
        let guard = Guard::new(&mut handle);
        per_call_ns(UNCAPPED, || guard.protect_ptr(0, black_box(address)))
    };

    let link: Atomic<Payload> = Atomic::null();
    let retire_cycle_ns = per_call_ns(20 * 1024, || {
        let guard = Guard::new(&mut handle);
        let node = Owned::new(black_box([0; 19]), &guard);
        link.cas_link(link.load(&guard), node)
            .expect("nothing else writes this link");
        let published = guard.load_protected(0, &link);
        // SAFETY: `link` is local to this function, so it is the only path to
        // the node and nothing else can unlink it.
        let (unlinked, _) = unsafe { link.cas_unlink(published, Shared::null()) }
            .expect("nothing else writes this link");
        unlinked.retire(&guard);
    });
    handle.flush();
    SchemeCosts {
        begin_end_ns,
        protect_ns,
        retire_cycle_ns,
    }
}

pub fn run(spec: WorkloadSpec, seed: u64) -> Isolation {
    let config = || default_bench_config(2);
    let mut isolation = Isolation::default();
    for (costs, scheme) in isolation.schemes.iter_mut().zip(SCHEMES) {
        *costs = match scheme {
            SchemeKind::None => scheme_costs(Leaky::new(config())),
            SchemeKind::Qsbr => scheme_costs(qsbr::Qsbr::new(config())),
            SchemeKind::Ebr => scheme_costs(ebr::Ebr::new(config())),
            SchemeKind::He => scheme_costs(he::He::new(config())),
            SchemeKind::Hp => scheme_costs(hazard::Hazard::new(config())),
            SchemeKind::Cadence => scheme_costs(cadence::Cadence::new(config())),
            SchemeKind::QSense => scheme_costs(qsense::QSense::new(config())),
            SchemeKind::RefCount => scheme_costs(refcount::RefCount::new(config())),
        };
    }

    let leaky = Leaky::new(config());
    let mut handle = leaky.register();
    isolation.guard_bracket_ns = per_call_ns(UNCAPPED, || drop(Guard::new(&mut handle)));
    drop(handle);
    let pool = LeasePool::for_scheme(&leaky, 1, LeasePolicy::Wait).expect("one free slot");
    isolation.lease_cycle_ns = per_call_ns(UNCAPPED, || {
        drop(black_box(
            pool.checkout().expect("the only lease was returned"),
        ));
    });

    isolation.alloc_free_ns = per_call_ns(UNCAPPED, || drop(black_box(Box::new([0u64; 20]))));
    isolation.instant_now_ns = per_call_ns(UNCAPPED, || {
        black_box(Instant::now());
    });
    let mut stream = OpGenerator::new(spec, seed);
    isolation.next_op_ns = per_call_ns(UNCAPPED, || {
        black_box(stream.next_op());
    });
    isolation
}
