//! Golden-tick regression for the SLO chaos drill (DESIGN.md §13).
//!
//! With a fully deterministic fault plan (`probability: 1`, pinned
//! `after`/`max_fires`), the slo-drill's abort storm and crash outage
//! land on exact ticks, so the default specs' alerts must fire and
//! resolve on exact windows — any drift in the burn-rate math, the
//! window bookkeeping, or the drill's schedule shows up as a changed
//! tick here.
//!
//! Separate integration binary on purpose: `faultsim::with_plan` and
//! `obs::slo::with_specs` both arm process-global state.

use faultsim::{FaultPlan, FaultSpec, Site};

/// The storm covers ticks 64..96 (windows 8–11: occurrences 4096..6144 at
/// 64 tx/tick) and the crash lands on tick 112 (window 14).
fn drill_plan() -> FaultPlan {
    FaultPlan::new(7)
        .with(
            Site::HtmSpurious,
            FaultSpec::always().skip_first(4096).fires(2048),
        )
        .with(
            Site::CrashPoint,
            FaultSpec::always().skip_first(112).fires(1),
        )
}

fn drill_trace() -> Vec<u8> {
    faultsim::with_plan(drill_plan(), || {
        obs::slo::with_specs(obs::slo::default_specs(), || {
            obs::capture_trace(bench::slodrill::run).1
        })
    })
}

#[test]
fn chaos_drill_fires_and_resolves_on_golden_ticks() {
    if !faultsim::enabled() {
        return;
    }
    let trace = drill_trace();
    if !obs::telemetry_compiled() {
        return;
    }
    let text = String::from_utf8(trace.clone()).expect("trace is UTF-8 JSONL");

    // Abort storm: rate 1.0 over windows 8–11. The fast window (3) holds
    // two violations when window 9 closes at tick 80 -> fire; it drains
    // below threshold when window 13 closes at tick 112 -> resolve.
    for golden in [
        "\"kind\":\"alert.fire\",\"slo\":\"abort_rate\",\"window\":9,\"tick\":80,\"value\":1,",
        "\"kind\":\"alert.resolve\",\"slo\":\"abort_rate\",\"window\":13,\"tick\":112,\
         \"firing_windows\":4",
        // Crash outage: recovery.success = 0 for exactly window 14 -> the
        // min >= 1 objective fires at tick 120 and resolves two clean
        // windows later, when window 16 closes at tick 136.
        "\"kind\":\"alert.fire\",\"slo\":\"recovery\",\"window\":14,\"tick\":120,\"value\":0,",
        "\"kind\":\"alert.resolve\",\"slo\":\"recovery\",\"window\":16,\"tick\":136,\
         \"firing_windows\":2",
        // The drill's own markers explain the alerts on the dashboard.
        "\"kind\":\"drill.storm\",\"edge\":\"start\",\"tick\":64,\"aborts\":64",
        "\"kind\":\"drill.storm\",\"edge\":\"end\",\"tick\":96,\"aborts\":2",
        "\"kind\":\"drill.crash\",\"tick\":112,\"site\":\"crash_point\",\"outage_ticks\":8",
        "\"kind\":\"drill.recovery\",\"tick\":120,\"outage_ticks\":8",
    ] {
        assert!(text.contains(golden), "missing golden record {golden}");
    }

    // The storm latency (84000 ns) also breaches the p99 ceiling, on the
    // same trajectory as the abort-rate objective.
    assert!(text.contains(
        "\"kind\":\"alert.fire\",\"slo\":\"commit_latency_p99\",\"window\":9,\"tick\":80,"
    ));

    // Every alert that fired also resolved: the run ends healthy.
    assert_eq!(
        text.matches("\"kind\":\"alert.fire\"").count(),
        text.matches("\"kind\":\"alert.resolve\"").count(),
        "the drill must end with no alert left firing"
    );

    // The whole schedule is seeded: a rerun replays the same bytes.
    assert_eq!(trace, drill_trace(), "drill trace must replay identically");
}

#[test]
fn undisturbed_drill_stays_inside_every_objective() {
    // An empty plan enables nothing; it holds `faultsim`'s plan lock so the
    // sibling test's armed plan cannot be live (and consumed) during this run.
    let trace = faultsim::with_plan(FaultPlan::new(0), || {
        obs::slo::with_specs(obs::slo::default_specs(), || {
            obs::capture_trace(bench::slodrill::run).1
        })
    });
    if !obs::telemetry_compiled() {
        return;
    }
    let text = String::from_utf8(trace).expect("trace is UTF-8 JSONL");
    assert!(
        text.contains("\"kind\":\"slo.state\""),
        "armed specs must judge the healthy drill too"
    );
    assert!(
        !text.contains("\"kind\":\"alert."),
        "a healthy drill must raise no alerts"
    );
    assert!(
        !text.contains("\"state\":\"firing\""),
        "no objective may enter firing on the baseline schedule"
    );
}
