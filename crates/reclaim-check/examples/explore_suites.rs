//! Explores every suite cell (5 structures × 8 schemes) at the default
//! preemption bound and prints one line per cell — the CI `check` job runs
//! this for a human-readable coverage table in the job log. With
//! `check-oracle` it then explores the resurrected-bug fixtures, which must be
//! *convicted*, and prints each verdict with its schedule.
//!
//! Exit code is non-zero if any cell fails or is truncated, or a fixture
//! escapes, so the example doubles as a standalone gate:
//!
//! ```text
//! cargo run -p reclaim-check --features check-oracle --example explore_suites
//! ```

use reclaim_check::{suites, Explorer};

fn main() {
    let explorer = Explorer::new();
    let mut failed = false;
    println!(
        "{:<20} {:>9} {:>13} {:>9}  verdict",
        "scenario", "schedules", "max-decisions", "truncated"
    );
    for scenario in suites::all_scenarios() {
        let report = explorer.explore(&scenario);
        let verdict = match (&report.failure, report.truncated) {
            (Some(_), _) => "FAIL",
            (None, true) => "TRUNCATED",
            (None, false) => "clean",
        };
        println!(
            "{:<20} {:>9} {:>13} {:>9}  {verdict}",
            scenario.name(),
            report.schedules,
            report.max_decisions,
            report.truncated,
        );
        if let Some(failure) = &report.failure {
            eprintln!("{failure}");
            failed = true;
        }
        failed |= report.truncated;
    }
    #[cfg(feature = "check-oracle")]
    for scenario in [
        reclaim_check::fixture::relink_scenario(),
        reclaim_check::fixture::rotation_scenario(false),
    ] {
        let report = explorer.explore(&scenario);
        match &report.failure {
            Some(failure) => println!(
                "{:<28} {:>9}  CONVICTED (as it must be)\n{failure}",
                scenario.name(),
                report.schedules
            ),
            None => {
                println!("{:<28} {:>9}  ESCAPED", scenario.name(), report.schedules);
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
