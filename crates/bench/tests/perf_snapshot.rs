//! The fig5 trace snapshot against the checked-in
//! `BENCH_perf_baseline.json` at the repository root (see
//! [`bench::snapshot`] for the keys; each is gated exactly). A binary of
//! its own with one test, because the trace it captures is process-global.
//! Re-record the baseline intentionally with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p bench --test perf_snapshot
//! ```

use std::path::Path;

#[test]
fn fig5_trace_snapshot_matches_baseline() {
    let snap = bench::snapshot::collect();
    let baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_perf_baseline.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&baseline, bench::snapshot::render(&snap)).unwrap();
    }
    if let Err(verdict) = bench::snapshot::gate(&snap, &baseline) {
        panic!(
            "the fig5 trace snapshot fails its baseline gate:\n{}\n\
             if the change is intentional, regenerate with UPDATE_GOLDEN=1 and \
             review the diff",
            verdict.trim_end()
        );
    }
}
