//! Registration past `max_threads` must fail descriptively, not corrupt.
//!
//! Every registry-backed scheme seats a handle per registry slot; the
//! `max_threads + 1`-th registration used to die on a scheme-specific
//! `expect`. This suite pins the PR 10 contract for each facade scheme:
//!
//! * `try_register` returns a [`CapacityExhausted`] error naming the scheme
//!   and the configured capacity, with remediation in the message;
//! * `register` (the panicking convenience wrapper) carries that same message;
//! * dropping a handle reopens its slot — exhaustion is a state, not a wound;
//! * a [`LeasePool`] is the sanctioned way past the limit: `N` pooled handles
//!   serve more tasks than the registry has slots, and its checkout applies
//!   the wait-or-fail policy instead of panicking.
//!
//! The registry-less schemes (`Leaky`, `RefCount`) share stat stripes
//! round-robin and must therefore never report exhaustion.

use qsense_repro::smr::{
    Cadence, Ebr, Hazard, He, Leaky, LeasePolicy, LeasePool, QSense, Qsbr, RefCount, Smr, SmrConfig,
};
use std::sync::Arc;

/// Two registry slots (nothing registers in the background: the process
/// rooster holds ledgers, not slots).
fn tiny_config() -> SmrConfig {
    SmrConfig::default().with_max_threads(2)
}

/// Fills the registry, asserts the overflow error's shape, then frees one
/// slot and asserts registration works again.
fn assert_capacity_exhausted<S: Smr>(scheme: Arc<S>, name: &str) {
    let first = scheme.try_register().expect("slot 1 of 2");
    let second = scheme.try_register().expect("slot 2 of 2");
    let err = scheme
        .try_register()
        .err()
        .unwrap_or_else(|| panic!("{name}: the 3rd registration must be refused"));
    assert_eq!(err.scheme, name, "error names the scheme");
    assert_eq!(err.capacity, 2, "error names the configured capacity");
    let message = err.to_string();
    assert!(
        message.contains(name) && message.contains("all 2 registry slots"),
        "{name}: descriptive message, got: {message}"
    );
    assert!(
        message.contains("max_threads") && message.contains("LeasePool"),
        "{name}: message suggests remediation, got: {message}"
    );
    // Exhaustion is transient: releasing any slot reopens registration.
    drop(second);
    let reopened = scheme.try_register();
    assert!(reopened.is_ok(), "{name}: a dropped handle frees its slot");
    drop(reopened);
    drop(first);
}

#[test]
fn every_registry_backed_scheme_reports_capacity_exhaustion() {
    assert_capacity_exhausted(Hazard::new(tiny_config()), "hp");
    assert_capacity_exhausted(Cadence::new(tiny_config()), "cadence");
    assert_capacity_exhausted(QSense::new(tiny_config()), "qsense");
    assert_capacity_exhausted(Qsbr::new(tiny_config()), "qsbr");
    assert_capacity_exhausted(Ebr::new(tiny_config()), "ebr");
    assert_capacity_exhausted(He::new(tiny_config()), "he");
}

#[test]
fn registry_less_schemes_never_exhaust() {
    let leaky = Leaky::new(tiny_config());
    let rc = RefCount::new(tiny_config());
    let mut handles = Vec::new();
    for _ in 0..8 {
        handles.push(leaky.try_register().expect("leaky shares stripes"));
    }
    let mut rc_handles = Vec::new();
    for _ in 0..8 {
        rc_handles.push(rc.try_register().expect("refcount shares stripes"));
    }
}

#[test]
fn register_panics_with_the_descriptive_message() {
    let scheme = Hazard::new(tiny_config());
    let _a = scheme.register();
    let _b = scheme.register();
    let scheme2 = Arc::clone(&scheme);
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let _ = scheme2.register();
    }))
    .expect_err("register past capacity panics");
    let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        message.contains("hp") && message.contains("all 2 registry slots"),
        "panic carries the CapacityExhausted message, got: {message}"
    );
}

#[test]
fn lease_pool_is_the_way_past_the_slot_limit() {
    // The pool itself must fit...
    let scheme = Hazard::new(tiny_config());
    let err = match LeasePool::for_scheme(&scheme, 3, LeasePolicy::Wait) {
        Ok(_) => panic!("3 pooled handles cannot fit 2 slots"),
        Err(err) => err,
    };
    assert_eq!(err.capacity, 2);
    // ...and once it does, checkout applies wait-or-fail instead of dying:
    // more concurrent borrowers than the registry has slots, no panic.
    let pool = LeasePool::for_scheme(&scheme, 2, LeasePolicy::Fail).expect("2 handles fit");
    let a = pool.checkout().expect("lease 1");
    let b = pool.checkout().expect("lease 2");
    let exhausted = pool.checkout().expect_err("fail policy sheds the 3rd task");
    assert_eq!(exhausted.slots, 2);
    assert!(exhausted.to_string().contains("checked out"));
    drop(a);
    assert!(pool.checkout().is_ok(), "a checkin reopens the pool");
    drop(b);
}
