//! The fig5 trace snapshot: what the tracer records for the fig5 quick
//! pipeline on a small fixed corpus — its record count and its own event,
//! byte and span totals. Every number is an integer,
//! byte-identical at every `--jobs` value and on every host, so each must
//! match exactly: any drift is a real behaviour change, not noise. The
//! figure's own numbers are not here; its stdout golden (`tests/figures.rs`)
//! pins them, and wall-clock performance is measured in `benchmark/`.
//!
//! A binary of its own with one test, because `obs::finish_trace` dumps
//! process-global counters.

#[test]
fn fig5_trace_snapshot_matches_baseline() {
    obs::start_trace_memory();
    bench::fig5::run_with(12);
    let report = obs::finish_trace();
    let oh = &report.overhead;
    assert_eq!(
        [report.events, oh.events, oh.bytes, oh.spans],
        [4032, 4041, 410499, 1280],
        "fig5 trace: [trace.events, obs.events, obs.bytes, obs.spans]"
    );
}
