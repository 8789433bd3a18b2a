//! Acceptance: the *current* structures explore clean — every interleaving of
//! each protocol suite up to the default preemption bound, under all eight
//! schemes. With `--features check-oracle` the same schedules additionally
//! validate every traversal/guard checkpoint against the shadow heap, so
//! "clean" means "no silent use-after-free anywhere in the bounded space",
//! not just "assertions held".

use reclaim_check::{suites, Explorer};

fn explore_structure(structure: &str) {
    for scenario in suites::scenarios_for(structure) {
        let report = Explorer::new().explore(&scenario);
        report.assert_exhaustive();
        assert!(
            report.schedules > 1,
            "{}: a protocol scenario must have more than one schedule (got {})",
            scenario.name(),
            report.schedules
        );
    }
}

#[test]
fn list_explores_clean_under_every_scheme() {
    explore_structure("list");
}

#[test]
fn skiplist_explores_clean_under_every_scheme() {
    explore_structure("skiplist");
}

#[test]
fn skiplist_batch_explores_clean_under_every_scheme() {
    explore_structure("skiplist-batch");
}

#[test]
fn bst_explores_clean_under_every_scheme() {
    explore_structure("bst");
}

#[test]
fn queue_explores_clean_under_every_scheme() {
    explore_structure("queue");
}

#[test]
fn stack_explores_clean_under_every_scheme() {
    explore_structure("stack");
}
