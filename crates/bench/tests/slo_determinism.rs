//! Determinism contract of the SLO engine over a real pipeline
//! (DESIGN.md §13): `slo.state` / `alert.*` records — and the `watch`
//! frames derived from them — are a pure function of the logical run, so
//! they must be byte-identical at every `--jobs` value, across reruns,
//! and (for the watcher) regardless of how the byte stream is chunked.
//!
//! Separate integration binary on purpose: `obs::slo::with_specs` holds a
//! process-global spec slot, and every capture sits inside
//! `obs::capture_trace`, whose internal lock serializes streams.

use tracetool::watch::{Mode, Watcher};

/// Specs pinned to the fig4 learning-curve series. The `mdfo` target is
/// unreachable on purpose so the alert path (fire + state transitions) is
/// exercised, not just the evaluation path.
fn fig4_specs() -> Vec<obs::slo::SloSpec> {
    obs::slo::parse_specs(
        "mape fig4.mape mean <= 100 fast=2 slow=4 burn=500/250 pending=1\n\
         mdfo fig4.mdfo mean >= 1000000 fast=2 slow=4 burn=500/250 pending=1\n",
    )
    .expect("test specs parse")
}

fn fig4_trace(jobs: usize) -> Vec<u8> {
    obs::capture_trace(|| parx::with_jobs(jobs, || bench::fig4::run_with(12))).1
}

#[test]
fn slo_and_alert_records_are_byte_identical_across_job_counts_and_reruns() {
    obs::slo::with_specs(fig4_specs(), || {
        let one = fig4_trace(1);
        let two = fig4_trace(2);
        let four = fig4_trace(4);
        let again = fig4_trace(4);
        if obs::telemetry_compiled() {
            let text = String::from_utf8(one.clone()).expect("trace is UTF-8 JSONL");
            assert!(
                text.contains("\"kind\":\"slo.state\",\"slo\":\"mape\""),
                "armed specs must judge every fig4 window"
            );
            assert!(
                text.contains("\"kind\":\"alert.fire\",\"slo\":\"mdfo\""),
                "the unreachable mdfo target must fire its alert"
            );
        }
        assert_eq!(one, two, "jobs=1 vs jobs=2 must be byte-identical");
        assert_eq!(two, four, "jobs=2 vs jobs=4 must be byte-identical");
        assert_eq!(four, again, "rerun at jobs=4 must be byte-identical");
    });
}

/// Feed one trace through the watcher in both modes and at pathological
/// chunk sizes: the frame sequence is a pure function of the byte
/// sequence, never of read() boundaries.
#[test]
fn watch_frames_are_invariant_to_chunking_and_mode_consistent() {
    let trace = obs::slo::with_specs(fig4_specs(), || fig4_trace(2));
    if !obs::telemetry_compiled() {
        return;
    }

    let frames_at = |mode: Mode, chunk: usize| -> Vec<String> {
        let mut w = Watcher::new(mode);
        let mut out = Vec::new();
        // Chunks may split a UTF-8 character: the watcher takes bytes.
        for piece in trace.chunks(chunk) {
            out.extend(w.feed(piece).expect("trace parses"));
        }
        out.extend(w.finish());
        out
    };

    for mode in [Mode::Plain, Mode::Json] {
        let whole = frames_at(mode, usize::MAX);
        assert!(!whole.is_empty(), "fig4 must produce at least one frame");
        for chunk in [1, 7, 64, 4096] {
            assert_eq!(
                whole,
                frames_at(mode, chunk),
                "frames diverged at chunk size {chunk}"
            );
        }
    }

    // The twins agree on cadence: one JSON object per plain frame.
    let plain = frames_at(Mode::Plain, usize::MAX);
    let json = frames_at(Mode::Json, usize::MAX);
    assert_eq!(
        plain.len(),
        json.len(),
        "plain and --json must pace together"
    );
    for f in &json {
        assert!(f.starts_with("{\"frame\":") && f.ends_with("}\n"), "{f}");
    }
}
