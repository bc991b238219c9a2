//! End-to-end fault injection over the benchmark pipelines: the learning
//! path under poisoned KPIs and the runtime path under switch failures and
//! stalls, both at fixed fault seeds.
//!
//! Separate integration binary on purpose: `faultsim::with_plan` arms a
//! process-global injector. Within the binary, every emitting region sits
//! inside `obs::capture_trace` (whose internal lock serializes captures),
//! so concurrent tests cannot interleave events into each other's streams.

/// Fig. 5 drives `Controller::optimize` inside parx workers; the KpiCorrupt
/// site uses a *local* per-optimization fault stream, so the corruption
/// schedule — and therefore the replayed JSONL trace — must stay
/// byte-identical at every job count, faults and all.
#[test]
fn fig5_trace_with_poisoned_kpis_is_byte_identical_across_job_counts() {
    if !faultsim::enabled() {
        return;
    }
    let plan = faultsim::FaultPlan::new(0xF1_65).with(
        faultsim::Site::KpiCorrupt,
        faultsim::FaultSpec::with_probability(0.3),
    );
    faultsim::with_plan(plan, || {
        let (_, serial) = obs::capture_trace(|| parx::with_jobs(1, || bench::fig5::run_with(12)));
        let (_, parallel) = obs::capture_trace(|| parx::with_jobs(4, || bench::fig5::run_with(12)));
        if obs::telemetry_compiled() {
            let text = String::from_utf8(serial.clone()).expect("trace is UTF-8 JSONL");
            assert!(
                text.contains("\"kind\":\"fault.kpi_corrupt\""),
                "a 30% corruption plan must fire during fig5"
            );
        }
        assert_eq!(
            serial, parallel,
            "fig5 trace under injected KPI corruption must be byte-identical \
             at jobs=1 and jobs=4"
        );
    });
}

/// The same fault seed must reproduce the same run: two fig5 executions
/// under one plan produce the same bytes (the whole point of seeding the
/// injector — a fault schedule is part of the experiment's identity).
#[test]
fn fig5_trace_under_a_fixed_fault_seed_replays_byte_identically() {
    if !faultsim::enabled() {
        return;
    }
    let run = || {
        let plan = faultsim::FaultPlan::new(0xBEE).with(
            faultsim::Site::KpiCorrupt,
            faultsim::FaultSpec::with_probability(0.5),
        );
        faultsim::with_plan(plan, || {
            obs::capture_trace(|| parx::with_jobs(2, || bench::fig5::run_with(10))).1
        })
    };
    assert_eq!(run(), run(), "fixed fault seed must replay identically");
}

/// With no plan installed the trace carries no fault or recovery events at
/// all — the subsystem is inert, not merely quiet.
#[test]
fn fig4_trace_has_no_fault_events_without_a_plan() {
    let (_, trace) = obs::capture_trace(|| parx::with_jobs(2, || bench::fig4::run_with(12)));
    if !obs::telemetry_compiled() {
        return;
    }
    let text = String::from_utf8(trace).expect("trace is UTF-8 JSONL");
    assert!(!text.is_empty(), "fig4 must emit telemetry");
    assert!(
        !text.contains("\"kind\":\"fault."),
        "fault events in an uninjected run"
    );
    assert!(
        !text.contains("\"kind\":\"recovery."),
        "recovery events in an uninjected run"
    );
}

/// Table 5 reconfigures a live PolyTM under load — the full runtime path.
/// Armed with switch failures and worker stalls it must still complete:
/// the bench driver absorbs transient faults through `apply_with_retry`,
/// and the quiescence protocol tolerates stalls shorter than the drain
/// budget.
#[test]
fn table5_completes_under_switch_failures_and_stalls() {
    if !faultsim::enabled() {
        return;
    }
    let plan = faultsim::FaultPlan::new(0x7AB1E5)
        .with(
            faultsim::Site::SwitchApply,
            faultsim::FaultSpec::with_probability(0.3),
        )
        .with(
            faultsim::Site::GateStall,
            faultsim::FaultSpec::with_probability(0.001).stall(15),
        );
    faultsim::with_plan(plan, || {
        let (_, trace) = obs::capture_trace(|| bench::table5::run_with(2));
        if obs::telemetry_compiled() {
            let text = String::from_utf8(trace).expect("trace is UTF-8 JSONL");
            assert!(
                text.contains("\"kind\":\"fault.switch_apply\""),
                "a 30% switch-failure plan must fire across table5's switches"
            );
            assert!(
                text.contains("\"kind\":\"recovery.switch_retry\""),
                "every injected switch failure must be absorbed by a retry"
            );
            // The one capture of real `PolyTm::apply` records in the suite.
            assert!(text.contains("\"kind\":\"config.switch\""));
            assert!(!text.contains("\"alerts\":"), "retired with the SLO engine");
        }
    });
}
