//! The analyzer inherits the trace's determinism guarantee: `proteus-trace
//! report` over a fig5 trace must be byte-identical at every job count and
//! across repeated runs.
//!
//! These tests run the analyzer in-process (`tracetool::report::render`) on
//! traces captured with `obs::capture_trace`, which is exactly what the
//! `proteus-trace` binary does after reading the file.

use polytm::{BackendId, HtmSetting, PolyTm, TmConfig};
use txcore::DurabilityMode;

/// One fig5 run's trace, and its counters read inside the capture (where
/// no sibling test can bump the process-global registry).
fn fig5_trace(jobs: usize) -> (String, Vec<(String, u64)>) {
    let (counters, bytes) = obs::capture_trace(|| {
        parx::with_jobs(jobs, || bench::fig5::run_with(12));
        obs::metrics::counter_snapshot()
    });
    let text = String::from_utf8(bytes).expect("trace is UTF-8 JSONL");
    (text, counters)
}

#[test]
fn fig5_report_is_byte_identical_across_job_counts_and_runs() {
    let (serial, counters) = fig5_trace(1);
    let (parallel, counters4) = fig5_trace(4);
    let (again, _) = fig5_trace(4);
    assert!(!counters.is_empty(), "a traced fig5 bumps counters");
    assert_eq!(counters, fig5_trace(2).1, "counters differ at jobs=2");
    assert_eq!(counters, counters4, "counters differ at jobs=4");

    let report = |text: &str| {
        let trace = tracetool::parse_trace(text).expect("fig5 trace parses");
        tracetool::report::render(&trace)
    };
    let (a, b, c) = (report(&serial), report(&parallel), report(&again));
    assert_eq!(a, b, "report must not depend on the job count");
    assert_eq!(b, c, "report must be stable across repeated runs");
    assert!(a.contains("explore.start"), "missing timeline rows:\n{a}");
}

#[test]
fn analyzer_rejects_schema_drift_loudly() {
    // A trace from a future emitter must be refused, not half-parsed.
    let future = format!(
        "{{\"kind\":\"trace.meta\",\"schema\":{}}}\n\
         {{\"seq\":0,\"kind\":\"config.switch\",\"to\":\"b\"}}\n",
        obs::SCHEMA_VERSION + 1
    );
    let err = tracetool::parse_trace(&future).unwrap_err();
    assert!(
        matches!(err, tracetool::TraceError::UnsupportedSchema { .. }),
        "got {err:?}"
    );

    // And a real captured trace must carry the current schema header.
    let (trace, _) = fig5_trace(1);
    assert!(
        trace.starts_with(&format!(
            "{{\"kind\":\"trace.meta\",\"schema\":{}}}",
            obs::SCHEMA_VERSION
        )),
        "capture must start with the schema header"
    );
}

/// The suite's one live runtime: a `PolyTm` applies each of the seven
/// volatile backends in turn and runs a few hundred one-read, one-write
/// transactions on each. Its counters are read inside the capture, as
/// `fig5_trace` does.
fn switching_trace() -> tracetool::Trace {
    let (counters, bytes) = obs::capture_trace(|| {
        let poly = PolyTm::builder().heap_words(1 << 12).max_threads(1).build();
        let word = poly.system().heap.alloc(1);
        let mut worker = poly.register_thread(0);
        for backend in BackendId::ALL
            .into_iter()
            .filter(|&b| b != BackendId::Durable)
        {
            let config = TmConfig {
                backend,
                threads: 1,
                htm: backend.is_hardware().then_some(HtmSetting::DEFAULT),
                durability: DurabilityMode::Volatile,
            };
            poly.apply(&config).expect("a volatile config applies");
            for _ in 0..300 {
                poly.run_tx(&mut worker, |tx| {
                    let v = tx.read(word)?;
                    tx.write(word, v + 1)
                });
            }
        }
        obs::metrics::counter_snapshot()
    });
    let text = String::from_utf8(bytes).expect("trace is UTF-8 JSONL");
    assert!(!text.contains("\"alerts\":"), "retired with the SLO engine");
    let mut trace = tracetool::parse_trace(&text).expect("switching trace parses");
    trace.counters.extend(counters);
    trace
}

/// `apply` reads the clock only while traced: every traced switch must
/// still carry its wall time, and the report's switch section reads them.
#[test]
fn traced_switches_carry_latency_and_reach_the_report() {
    let trace = switching_trace();
    let switches: Vec<_> = trace
        .records
        .iter()
        .filter(|r| r.kind == "config.switch")
        .collect();
    assert!(!switches.is_empty(), "every apply records a switch");
    for rec in switches {
        let latency = rec.u64("latency_ns");
        assert!(
            latency > Some(0),
            "line {}: latency_ns {latency:?}",
            rec.line
        );
    }
    let report = tracetool::report::render(&trace);
    assert!(
        report.contains("switch latency & gate stalls"),
        "missing switch section:\n{report}"
    );
}

/// The attribution counters `run_tx` bumps on every backend must fold into
/// the conflicts view's per-backend ledger table. The numbers are
/// wall-clock, so only the shape is checked.
#[test]
fn backend_counters_fold_into_the_conflicts_ledger() {
    let trace = switching_trace();
    let view = tracetool::conflicts::render(&trace);
    for needle in ["  tl2 ", "overall goodput:"] {
        assert!(
            view.contains(needle),
            "conflicts view lacks {needle:?}:\n{view}"
        );
    }
}
