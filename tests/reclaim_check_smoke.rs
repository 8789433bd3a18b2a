//! Tier-1 smoke test for the `reclaim-check` harness: the full suite matrix
//! (6 scenarios — one per structure, and the skip list's batch — × 8
//! schemes) exists, and a representative cell from each end
//! of the cost spectrum explores exhaustively clean at the default preemption
//! bound. The complete matrix — plus the oracle-backed verdict tests — runs in
//! the dedicated CI `check` job (`cargo test -p reclaim-check
//! --features check-oracle`); this test only pins that the harness builds and
//! drives real structures from the workspace root.

use reclaim_check::{suites, Explorer};

#[test]
fn suite_matrix_covers_every_structure_and_scheme() {
    let all = suites::all_scenarios();
    assert_eq!(all.len(), 6 * 8, "6 scenarios x 8 schemes");
    for structure in [
        "list",
        "skiplist",
        "skiplist-batch",
        "bst",
        "queue",
        "stack",
    ] {
        assert_eq!(suites::scenarios_for(structure).len(), 8, "{structure}");
    }
}

#[test]
fn representative_cells_explore_clean() {
    let explorer = Explorer::new();
    for scenario in suites::scenarios_for("stack")
        .iter()
        .chain(suites::scenarios_for("list").iter().take(1))
    {
        let report = explorer.explore(scenario);
        report.assert_exhaustive();
        assert!(
            report.schedules > 1,
            "{} explored {}",
            scenario.name(),
            report.schedules
        );
    }
}
