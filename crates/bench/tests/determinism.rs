//! The parallel evaluation pipeline must be *bit-identical* to the serial
//! one: the tables the experiments print are part of the paper artifact,
//! and a reader re-running them with a different `--jobs` (or on a machine
//! with a different core count) must get the same bytes.
//!
//! `parx::with_jobs` scopes the worker count to one closure, so each test
//! runs the same computation serially and on a 4-worker pool and compares
//! the raw `f64`s with `==` — no tolerance.

use bench::harness::Bench;
use polytm::Kpi;
use recsys::{BaggingEnsemble, CfAlgorithm, MfParams, Row, TuningOptions, UtilityMatrix};
use tmsim::MachineModel;

#[test]
fn truth_matrix_is_identical_across_job_counts() {
    let serial = parx::with_jobs(1, || {
        Bench::new(MachineModel::machine_a(), Kpi::ExecTime, 24, 0xD1CE).truth
    });
    let parallel = parx::with_jobs(4, || {
        Bench::new(MachineModel::machine_a(), Kpi::ExecTime, 24, 0xD1CE).truth
    });
    assert_eq!(serial, parallel, "truth matrices must match bit-for-bit");
}

/// MF members are the ones fitted on the pool (KNN members share one model
/// and fit nothing).
#[test]
fn bagging_fit_and_predict_are_identical_across_job_counts() {
    let mf = CfAlgorithm::Mf(MfParams::default());
    let training = UtilityMatrix::from_rows(
        (1..=12)
            .map(|r| {
                (1..=8)
                    .map(|c| Some((r * c) as f64 * 0.1 + (r as f64).sin() * 0.01))
                    .collect()
            })
            .collect(),
    );
    let known: Row = vec![Some(0.2), Some(0.45), None, None, None, None, None, None];
    let serial = parx::with_jobs(1, || {
        BaggingEnsemble::fit(&training, mf, 10, 77).predict_stats(&known)
    });
    let parallel = parx::with_jobs(4, || {
        BaggingEnsemble::fit(&training, mf, 10, 77).predict_stats(&known)
    });
    assert_eq!(
        serial, parallel,
        "ensemble means and variances must match bit-for-bit"
    );
}

/// The trace stream itself is part of the determinism contract. Fig. 5
/// drives `Controller::optimize` inside parx workers. The controller
/// *buffers* its events (`explore.start`, `ei.step`, `recommend`, …) on
/// the returned `Exploration` and the bench replays them at the serial
/// fold point, so the captured bytes — not just the parsed events — must
/// be identical at every job count, and free of wall-clock fields.
/// `capture_trace` serializes captures internally, so concurrent tests in
/// this binary cannot interleave events into either stream.
#[test]
fn fig5_trace_is_byte_identical_across_job_counts() {
    let (_, serial) = obs::capture_trace(|| parx::with_jobs(1, || bench::fig5::run_with(12)));
    let (_, parallel) = obs::capture_trace(|| parx::with_jobs(4, || bench::fig5::run_with(12)));
    assert!(
        !serial.is_empty(),
        "fig5 must emit controller events while a trace is active"
    );
    let text = String::from_utf8(serial.clone()).expect("trace is UTF-8 JSONL");
    for kind in [
        "explore.start",
        "ei.reference",
        "ei.step",
        "stop.verdict",
        "recommend",
    ] {
        assert!(
            text.contains(&format!("\"kind\":\"{kind}\"")),
            "missing {kind} events in trace"
        );
    }
    assert!(
        !text.contains("latency_ns"),
        "wall-clock fields must stay out of the learning-path stream"
    );
    assert!(
        !text.contains("\"kind\":\"recovery."),
        "recovery events in a run where nothing failed"
    );
    assert_eq!(
        serial, parallel,
        "fig5 JSONL trace must be byte-identical at jobs=1 and jobs=4"
    );
}

/// The vtime stage's contract is stronger than the rest of the suite's:
/// its numbers live on a *simulated* clock, so not just the stream shape
/// but every value must be byte-identical across job counts and across
/// two same-seed runs in the same process. Its numbers are stdout goldens;
/// the trace holds one event per report and per conflict cell, and no
/// windowed restatement of either.
#[test]
fn vtime_trace_is_byte_identical_across_job_counts_and_reruns() {
    let run = |jobs: usize| {
        let (_, bytes) = obs::capture_trace(|| parx::with_jobs(jobs, bench::vtime::run));
        bytes
    };
    let first = run(1);
    assert!(
        !first.is_empty(),
        "vtime must emit events while a trace is active"
    );
    let text = String::from_utf8(first.clone()).expect("trace is UTF-8 JSONL");
    for needle in [
        "\"kind\":\"vtime.report\"",
        "\"kind\":\"vtime.conflict\"",
        "\"kind\":\"conflict.stripe\"",
    ] {
        assert!(text.contains(needle), "missing {needle} in trace");
    }
    assert!(
        !text.contains("\"kind\":\"metrics."),
        "no windowed series is written"
    );
    assert_eq!(
        first,
        run(2),
        "vtime trace must be byte-identical at jobs=2"
    );
    assert_eq!(
        first,
        run(4),
        "vtime trace must be byte-identical at jobs=4"
    );
    assert_eq!(first, run(1), "same-seed rerun must reproduce the bytes");
}

/// The durable stage runs on the same virtual clock as vtime, so its trace
/// is byte-identical across job counts, and the report closes the loop: its
/// crash-recovery drill must show up as an audit whose verdict is
/// "recovered".
#[test]
fn durable_trace_is_byte_identical_and_its_audit_recovers() {
    let run = |jobs: usize| {
        let (_, bytes) = obs::capture_trace(|| parx::with_jobs(jobs, bench::durable::run));
        String::from_utf8(bytes).expect("trace is UTF-8 JSONL")
    };
    let text = run(1);
    assert_eq!(
        text,
        run(4),
        "durable trace must be byte-identical at jobs=1 and jobs=4"
    );
    let trace = tracetool::parse_trace(&text).expect("durable trace parses");
    let report = tracetool::report::render(&trace);
    for needle in ["crash recovery audit", "verdict: recovered"] {
        assert!(
            report.contains(needle),
            "report lacks {needle:?}:\n{report}"
        );
    }
}

/// The conflict observatory rides the same rails: the `proteus-trace
/// conflicts` view over a captured trace must be
/// byte-identical at jobs 1, 2, and 4. The vtime stage exercises every
/// section of the view — per-backend ledgers, the exact cross-host vtime
/// cells and hot-stripe tables.
#[test]
fn conflicts_view_is_byte_identical_across_job_counts() {
    let run = |jobs: usize| {
        let (_, bytes) = obs::capture_trace(|| parx::with_jobs(jobs, bench::vtime::run));
        let text = String::from_utf8(bytes).expect("trace is UTF-8 JSONL");
        let trace = tracetool::parse_trace(&text).expect("trace parses");
        tracetool::conflicts::render(&trace)
    };
    let view = run(1);
    for section in [
        "abort attribution & wasted work",
        "vtime conflict profile",
        "hot stripes",
    ] {
        assert!(
            view.contains(section),
            "conflicts view must render its {section:?} section:\n{view}"
        );
    }
    assert_eq!(view, run(2), "differs at jobs=2");
    assert_eq!(view, run(4), "differs at jobs=4");
}

#[test]
fn tuner_is_identical_across_job_counts() {
    let training = UtilityMatrix::from_rows(
        (0..10)
            .map(|i| {
                (0..8)
                    .map(|c| {
                        let x = (c + 1) as f64;
                        Some(if i % 2 == 0 { x } else { 8.0 / x } * (1.0 + 0.01 * i as f64))
                    })
                    .collect()
            })
            .collect(),
    );
    let opts = TuningOptions {
        n_candidates: 8,
        knn_only: true,
        ..TuningOptions::default()
    };
    let serial = parx::with_jobs(1, || recsys::tune_cf(&training, &opts));
    let parallel = parx::with_jobs(4, || recsys::tune_cf(&training, &opts));
    assert_eq!(serial.best_mape, parallel.best_mape);
    assert_eq!(
        format!("{:?}", serial.evaluated),
        format!("{:?}", parallel.evaluated),
        "every candidate must score identically in the same order"
    );
}
