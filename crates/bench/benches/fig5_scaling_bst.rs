//! **Figure 5, top-right**: scalability of memory reclamation on the binary search
//! tree (paper: 2 000 000 keys; default here 200 000, scaled down to fit the
//! container, and the full range with `QSENSE_BENCH_FULL=1`), 50% updates — None,
//! QSBR, QSense, HP.
//!
//! Expected shape (paper): same ordering as the other structures; the BST uses 6
//! hazard pointers and short (logarithmic) traversals.
//!
//! Besides the text table, the run emits **`BENCH_fig5_scaling_bst.json`** in
//! the workspace root so the figure's numbers are tracked across revisions.

use bench::{fig5_schemes, key_range, run_and_emit_series, thread_counts};
use workload::{OpMix, Structure, WorkloadSpec};

fn main() {
    let spec = WorkloadSpec::new(key_range(Structure::Bst), OpMix::updates_50());
    println!(
        "Figure 5 (top-right): BST, {} keys, 50% updates, threads = {:?}",
        spec.key_range,
        thread_counts()
    );
    run_and_emit_series(
        Structure::Bst,
        &fig5_schemes(),
        spec,
        "BENCH_fig5_scaling_bst.json",
        "fig5_scaling_bst",
        "cargo bench -p bench --bench fig5_scaling_bst",
    );
}
