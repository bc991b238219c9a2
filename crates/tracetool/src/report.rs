//! The single-trace report: decision timeline, convergence vs the oracle,
//! switch/quiescence breakdowns, fault audit.
//!
//! Every section is a pure fold over `Trace::records` (plus the counter
//! dump), so the report is byte-identical for byte-identical traces — and
//! because the learning-path trace itself is byte-identical at every
//! `PROTEUS_JOBS` value, so is the report.

use crate::spans::SpanForest;
use crate::{dfo, Record, Trace};
use obs::encode_str;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Event kinds that constitute "decisions" for the timeline section.
const DECISION_KINDS: [&str; 11] = [
    "fig4.start",
    "fig4.scheme",
    "config.switch",
    "cusum.alarm",
    "cusum.reset",
    "explore.start",
    "stop.verdict",
    "recommend",
    "recovery.switch_retry_ok",
    "recovery.degraded",
    "recovery.adapter_restart",
];

/// Timeline rows printed before eliding the rest.
const TIMELINE_LIMIT: usize = 60;

/// One exploration replayed behind an `oracle.row` ground-truth record.
struct OracleRun {
    policy: String,
    maximize: bool,
    oracle_best: f64,
    /// KPIs in observation order (reference probe first).
    observed: Vec<f64>,
    /// KPI of the final recommendation.
    final_kpi: Option<f64>,
}

impl OracleRun {
    /// Regret (DFO vs the oracle) after the first `n` observations.
    fn regret_after(&self, n: usize) -> Option<f64> {
        let n = n.min(self.observed.len());
        if n == 0 {
            return None;
        }
        let best = self.observed[..n]
            .iter()
            .copied()
            .reduce(|a, b| {
                if (self.maximize && b > a) || (!self.maximize && b < a) {
                    b
                } else {
                    a
                }
            })
            .expect("n >= 1");
        Some(dfo(self.oracle_best, best))
    }

    /// Number of observations needed to get within `epsilon` of the
    /// oracle, when it ever happens.
    fn steps_to_within(&self, epsilon: f64) -> Option<usize> {
        (1..=self.observed.len()).find(|&n| self.regret_after(n).is_some_and(|r| r <= epsilon))
    }
}

/// Collect the oracle-annotated explorations (fig5/fig7 emit one
/// `oracle.row` immediately before replaying each exploration buffer).
fn oracle_runs(records: &[Record]) -> Vec<OracleRun> {
    let mut runs: Vec<OracleRun> = Vec::new();
    let mut open: Option<OracleRun> = None;
    for r in records {
        match r.kind.as_str() {
            "oracle.row" => {
                // A dangling run (no recommend) is dropped: without the
                // final record it never completed.
                open = r.f64("best").map(|oracle_best| OracleRun {
                    policy: r.str("policy").unwrap_or("?").to_string(),
                    maximize: r.str("goal") != Some("minimize"),
                    oracle_best,
                    observed: Vec::new(),
                    final_kpi: None,
                });
            }
            "ei.reference" | "ei.step" => {
                if let Some(run) = open.as_mut() {
                    let key = if r.kind == "ei.reference" {
                        "kpi"
                    } else {
                        "actual"
                    };
                    if let Some(v) = r.f64(key) {
                        run.observed.push(v);
                    }
                }
            }
            "recommend" => {
                if let Some(mut run) = open.take() {
                    run.final_kpi = r.f64("kpi");
                    runs.push(run);
                }
            }
            _ => {}
        }
    }
    runs
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn section(out: &mut String, title: &str) {
    let _ = writeln!(out, "\n-- {title} --");
}

/// Render the full report. `epsilon` is the convergence threshold for the
/// steps-to-within-ε statistics (the paper's figures use 1–5%).
pub fn render(trace: &Trace, epsilon: f64) -> String {
    let forest = SpanForest::build(&trace.records);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== proteus-trace report (schema {}) ===",
        trace.schema
    );
    let _ = writeln!(
        out,
        "records: {} events, {} counters, {} spans ({} unclosed, {} orphan ends)",
        trace.records.len(),
        trace.counters.len(),
        forest.nodes.len(),
        forest.unclosed(),
        forest.orphan_ends,
    );
    let hist = trace.kind_histogram();
    for (kind, count) in &hist {
        let _ = writeln!(out, "  {kind:<28} {count:>8}");
    }

    render_timeline(&mut out, trace);
    render_fig4_convergence(&mut out, trace, epsilon);
    render_oracle_convergence(&mut out, trace, epsilon);
    render_switches(&mut out, trace, &forest);
    render_fault_audit(&mut out, trace);
    render_recovery_audit(&mut out, trace);
    out
}

pub(crate) fn fnum(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        encode_str(out, &v.to_string());
    }
}

/// Render the report as one machine-readable JSON object (the `--json`
/// flag of `proteus-trace report`). Key order is fixed and all maps are
/// name-sorted, so equal traces yield equal bytes — CI can diff or parse
/// this without scraping the text report. Floats use the same
/// shortest-roundtrip encoding as the trace itself.
pub fn render_json(trace: &Trace, epsilon: f64) -> String {
    let forest = SpanForest::build(&trace.records);
    let mut out = String::from("{\"schema\":");
    let _ = write!(out, "{}", trace.schema);
    let _ = write!(out, ",\"records\":{}", trace.records.len());
    let _ = write!(
        out,
        ",\"spans\":{{\"count\":{},\"unclosed\":{},\"orphan_ends\":{}}}",
        forest.nodes.len(),
        forest.unclosed(),
        forest.orphan_ends
    );

    out.push_str(",\"kinds\":{");
    for (i, (kind, count)) in trace.kind_histogram().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_str(&mut out, kind);
        let _ = write!(out, ":{count}");
    }
    out.push_str("},\"counters\":{");
    for (i, (name, value)) in trace.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_str(&mut out, name);
        let _ = write!(out, ":{value}");
    }

    // fig4 regret curves, in stream order (same grouping as the text view).
    out.push_str("},\"fig4\":[");
    let mut groups: Vec<((String, String), Fig4Curve)> = Vec::new();
    for r in trace.of_kind("fig4.result") {
        let key = (
            r.str("algo").unwrap_or("?").to_string(),
            r.str("scheme").unwrap_or("?").to_string(),
        );
        let point = (r.u64("k").unwrap_or(0), r.f64("mdfo"));
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, pts)) => pts.push(point),
            None => groups.push((key, vec![point])),
        }
    }
    for (i, ((algo, scheme), pts)) in groups.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"algo\":");
        encode_str(&mut out, algo);
        out.push_str(",\"scheme\":");
        encode_str(&mut out, scheme);
        out.push_str(",\"curve\":[");
        for (j, (k, mdfo)) in pts.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"k\":{k},\"mdfo\":");
            match mdfo {
                Some(v) => fnum(&mut out, *v),
                None => out.push_str("null"),
            }
            out.push('}');
        }
        out.push_str("],\"within_epsilon_k\":");
        match pts
            .iter()
            .find(|(_, mdfo)| mdfo.is_some_and(|v| v <= epsilon))
        {
            Some((k, _)) => {
                let _ = write!(out, "{k}");
            }
            None => out.push_str("null"),
        }
        out.push('}');
    }

    // Oracle convergence per policy (sorted by policy).
    out.push_str("],\"oracle\":[");
    let runs = oracle_runs(&trace.records);
    let mut by_policy: BTreeMap<&str, Vec<&OracleRun>> = BTreeMap::new();
    for run in &runs {
        by_policy.entry(run.policy.as_str()).or_default().push(run);
    }
    for (i, (policy, runs)) in by_policy.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let n = runs.len();
        let mean_final = runs
            .iter()
            .filter_map(|r| r.final_kpi.map(|k| dfo(r.oracle_best, k)))
            .sum::<f64>()
            / n as f64;
        let mut steps: Vec<usize> = runs
            .iter()
            .filter_map(|r| r.steps_to_within(epsilon))
            .collect();
        steps.sort_unstable();
        out.push_str("{\"policy\":");
        encode_str(&mut out, policy);
        let _ = write!(out, ",\"explorations\":{n},\"mean_final_regret\":");
        fnum(&mut out, mean_final);
        let _ = write!(out, ",\"converged\":{},\"median_steps\":", steps.len());
        match steps.len() {
            0 => out.push_str("null"),
            c => {
                let _ = write!(out, "{}", steps[(c - 1) / 2]);
            }
        }
        out.push('}');
    }

    // Time-series windows, one aggregate row per series (schema v3).
    out.push_str("],\"windows\":[");
    for (i, (series, points)) in crate::perf::windows_by_series(trace).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"series\":");
        encode_str(&mut out, series);
        let _ = write!(
            out,
            ",\"windows\":{},\"samples\":{},\"mean\":",
            points.len(),
            points.iter().map(|p| p.n).sum::<u64>()
        );
        fnum(&mut out, crate::perf::overall_mean(points));
        out.push('}');
    }

    // Self-overhead audit from the trailing obs.overhead total record.
    out.push_str("],\"overhead\":");
    match trace
        .of_kind("obs.overhead")
        .find(|r| r.str("subsystem") == Some("total"))
    {
        Some(r) => {
            let _ = write!(
                out,
                "{{\"events\":{},\"bytes\":{},\"spans\":{},\"windows\":{},\
                 \"histogram_updates\":{}}}",
                r.u64("events").unwrap_or(0),
                r.u64("bytes").unwrap_or(0),
                r.u64("spans").unwrap_or(0),
                r.u64("windows").unwrap_or(0),
                r.u64("histogram_updates").unwrap_or(0),
            );
        }
        None => out.push_str("null"),
    }
    out.push_str("}\n");
    out
}

fn render_timeline(out: &mut String, trace: &Trace) {
    section(out, "decision timeline");
    let decisions: Vec<&Record> = trace
        .records
        .iter()
        .filter(|r| DECISION_KINDS.contains(&r.kind.as_str()))
        .collect();
    if decisions.is_empty() {
        let _ = writeln!(out, "(no decision records)");
        return;
    }
    for r in decisions.iter().take(TIMELINE_LIMIT) {
        let seq = r.seq.map_or("-".to_string(), |s| s.to_string());
        let _ = writeln!(out, "  seq={seq:<7} {:<24} {}", r.kind, r.summary());
    }
    if decisions.len() > TIMELINE_LIMIT {
        let _ = writeln!(
            out,
            "  ... ({} more decision records)",
            decisions.len() - TIMELINE_LIMIT
        );
    }
}

/// fig4 regret curve for one (algorithm, scheme): `(k, mdfo)` points.
type Fig4Curve = Vec<(u64, Option<f64>)>;

fn render_fig4_convergence(out: &mut String, trace: &Trace, epsilon: f64) {
    // fig4.result rows: mdfo *is* the mean regret to the oracle for a
    // scheme given k sampled configurations.
    let mut groups: Vec<((String, String), Fig4Curve)> = Vec::new();
    for r in trace.of_kind("fig4.result") {
        let key = (
            r.str("algo").unwrap_or("?").to_string(),
            r.str("scheme").unwrap_or("?").to_string(),
        );
        let point = (r.u64("k").unwrap_or(0), r.f64("mdfo"));
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, pts)) => pts.push(point),
            None => groups.push((key, vec![point])),
        }
    }
    if groups.is_empty() {
        return;
    }
    section(out, "regret to oracle (fig4: mean DFO vs #sampled configs)");
    for ((algo, scheme), pts) in &groups {
        let curve: Vec<String> = pts
            .iter()
            .map(|(k, mdfo)| match mdfo {
                Some(v) => format!("k={k}:{v:.4}"),
                None => format!("k={k}:n/a"),
            })
            .collect();
        let eps_k = pts
            .iter()
            .find(|(_, mdfo)| mdfo.is_some_and(|v| v <= epsilon))
            .map(|(k, _)| k.to_string())
            .unwrap_or_else(|| "not reached".to_string());
        let _ = writeln!(
            out,
            "  {algo} / {scheme}: {}  | within eps={epsilon}: k={eps_k}",
            curve.join(" ")
        );
    }
}

fn render_oracle_convergence(out: &mut String, trace: &Trace, epsilon: f64) {
    let runs = oracle_runs(&trace.records);
    if runs.is_empty() {
        return;
    }
    section(out, "regret to oracle (explorations vs oracle.row truth)");
    let mut by_policy: BTreeMap<&str, Vec<&OracleRun>> = BTreeMap::new();
    for run in &runs {
        by_policy.entry(run.policy.as_str()).or_default().push(run);
    }
    const CHECKPOINTS: [usize; 6] = [1, 2, 3, 5, 8, 12];
    for (policy, runs) in by_policy {
        let n = runs.len();
        let mean_final = runs
            .iter()
            .filter_map(|r| r.final_kpi.map(|k| dfo(r.oracle_best, k)))
            .sum::<f64>()
            / n as f64;
        let mut steps: Vec<usize> = runs
            .iter()
            .filter_map(|r| r.steps_to_within(epsilon))
            .collect();
        steps.sort_unstable();
        let converged = steps.len();
        let median_steps = if steps.is_empty() {
            "n/a".to_string()
        } else {
            steps[(converged - 1) / 2].to_string()
        };
        let curve: Vec<String> = CHECKPOINTS
            .iter()
            .map(|&cp| {
                let mean = runs.iter().filter_map(|r| r.regret_after(cp)).sum::<f64>() / n as f64;
                format!("n={cp}:{mean:.4}")
            })
            .collect();
        let _ = writeln!(
            out,
            "  {policy}: {n} explorations, mean final regret {mean_final:.4}, \
             within eps={epsilon}: {converged}/{n} (median steps {median_steps})",
        );
        let _ = writeln!(out, "    mean regret curve: {}", curve.join(" "));
    }
}

fn render_switches(out: &mut String, trace: &Trace, forest: &SpanForest) {
    let switches = trace.count_kind("config.switch");
    let agg = forest.aggregate();
    let phase_names = [
        "switch",
        "quiesce.prepare",
        "quiesce.drain",
        "quiesce.switch",
        "quiesce.resume",
        "gate.resize",
    ];
    let have_spans = phase_names.iter().any(|n| agg.contains_key(n));
    if switches == 0 && !have_spans {
        return;
    }
    section(out, "switch latency & gate stalls (from span trees)");
    let _ = writeln!(
        out,
        "  config.switch events: {switches} ({} quiesce epochs, {} rollbacks)",
        trace.count_kind("quiesce.start"),
        trace.count_kind("recovery.quiesce_rollback"),
    );
    for name in phase_names {
        if let Some(a) = agg.get(name) {
            let timing = if a.timed > 0 {
                format!(
                    " mean={} max={}",
                    fmt_ns(a.mean_ns()),
                    fmt_ns(a.max_ns as f64)
                )
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "  {name:<16} n={} closed={}{timing}",
                a.count, a.closed
            );
        }
    }
    let gate_skips = trace
        .counter("polytm.gate_skips")
        .max(trace.count_kind("recovery.gate_skip") as u64);
    let _ = writeln!(
        out,
        "  gate stalls: {} injected, {} drain timeouts skipped",
        trace.counter("fault.fired.gate_stall"),
        gate_skips,
    );
}

fn render_fault_audit(out: &mut String, trace: &Trace) {
    // injected / contained / degraded per fault-injection site. "Injected"
    // takes the max of the fired counter and the per-injection events, so
    // capture traces (which carry no counter dump) still audit correctly.
    let sites: [(&str, u64, u64, u64); 5] = [
        (
            "htm_spurious",
            trace.counter("fault.fired.htm_spurious"),
            // Spurious hardware aborts are contained by the retry ladder;
            // each one shows up as a per-backend spurious-abort counter.
            trace
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with("tx.abort.") && k.ends_with(".spurious"))
                .map(|(_, v)| *v)
                .sum(),
            0,
        ),
        (
            // Stalls are contained by construction: the quiescence drain
            // either absorbs the delay or the watchdog skips the thread
            // (recovery.gate_skip, broken out in the switch section) — the
            // protocol completes either way, so every injected stall counts
            // as contained.
            "gate_stall",
            trace.counter("fault.fired.gate_stall"),
            trace
                .counter("fault.fired.gate_stall")
                .max(trace.count_kind("recovery.gate_skip") as u64)
                .max(trace.counter("polytm.gate_skips")),
            0,
        ),
        (
            "switch_apply",
            trace
                .counter("fault.fired.switch_apply")
                .max(trace.count_kind("fault.switch_apply") as u64),
            trace.count_kind("recovery.switch_retry") as u64,
            trace.count_kind("recovery.degraded") as u64,
        ),
        (
            "kpi_corrupt",
            trace
                .counter("fault.fired.kpi_corrupt")
                .max(trace.count_kind("fault.kpi_corrupt") as u64),
            trace.count_kind("kpi.sanitized") as u64,
            0,
        ),
        (
            "adapter_panic",
            trace.counter("fault.fired.adapter_panic"),
            trace.count_kind("recovery.adapter_contained") as u64,
            trace.count_kind("recovery.adapter_restart") as u64,
        ),
    ];
    if sites
        .iter()
        .all(|(_, i, c, d)| *i == 0 && *c == 0 && *d == 0)
    {
        return;
    }
    section(out, "fault injection audit");
    let _ = writeln!(
        out,
        "  {:<14} {:>9} {:>10} {:>9}  verdict",
        "site", "injected", "contained", "degraded"
    );
    for (site, injected, contained, degraded) in sites {
        // With nothing injected, recovery activity is organic (e.g. KPI
        // sanitization of legitimately-absurd samples), not containment.
        let verdict = if injected == 0 {
            "-"
        } else if degraded > 0 {
            "degraded"
        } else if contained >= injected {
            "contained"
        } else {
            "unaccounted"
        };
        let _ = writeln!(
            out,
            "  {site:<14} {injected:>9} {contained:>10} {degraded:>9}  {verdict}"
        );
    }
}

fn render_recovery_audit(out: &mut String, trace: &Trace) {
    // The durable backend's crash ledger: every `durable.crash` (a modeled
    // process kill at a persistence step, emitted on restart) must be
    // matched by a completed `durable.recovery` replay. Crashes armed by
    // the faultsim `crash_point` site also tick the fired counter;
    // internally-armed ones (the sweep tests' absolute-step trigger) only
    // emit the event, so the crash count takes the max of both signals.
    let crashes =
        (trace.count_kind("durable.crash") as u64).max(trace.counter("fault.fired.crash_point"));
    let recoveries: Vec<&Record> = trace.of_kind("durable.recovery").collect();
    if crashes == 0 && recoveries.is_empty() {
        return;
    }
    section(out, "crash recovery audit");
    let injected = trace.counter("fault.fired.crash_point");
    let _ = writeln!(
        out,
        "  crashes: {crashes} ({injected} via faultsim crash_point)"
    );
    let sum = |key: &str| -> u64 { recoveries.iter().filter_map(|r| r.u64(key)).sum() };
    let replayed_txs = sum("replayed_txs");
    let replayed_words = sum("replayed_words");
    let torn_words = sum("torn_words");
    let _ = writeln!(
        out,
        "  recoveries: {} (replayed {replayed_txs} txs / {replayed_words} words, discarded {torn_words} torn words)",
        recoveries.len()
    );
    let recovery_ns = sum("recovery_ns");
    if !recoveries.is_empty() {
        let _ = writeln!(
            out,
            "  modeled replay time: {} total, {} mean",
            fmt_ns(recovery_ns as f64),
            fmt_ns(recovery_ns as f64 / recoveries.len() as f64)
        );
    }
    // A crash without a matching recovery means the trace ended on a dirty
    // heap — the recovery checker never ran, so durability is unproven.
    let verdict = if recoveries.len() as u64 >= crashes {
        "recovered (every crash replayed to a consistent heap)"
    } else {
        "UNRECOVERED (crashed heap never replayed)"
    };
    let _ = writeln!(out, "  verdict: {verdict}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_trace;

    fn trace_of(lines: &[String]) -> Trace {
        let mut text = format!(
            "{{\"kind\":\"trace.meta\",\"schema\":{}}}\n",
            obs::SCHEMA_VERSION
        );
        for l in lines {
            text.push_str(l);
            text.push('\n');
        }
        parse_trace(&text).unwrap()
    }

    #[test]
    fn fig4_regret_section_reports_curves_and_epsilon_k() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"fig4.result","algo":"KNN","scheme":"ProteusTM","k":2,"mape":0.4,"mdfo":0.2}"#.to_string(),
            r#"{"seq":1,"kind":"fig4.result","algo":"KNN","scheme":"ProteusTM","k":5,"mape":0.1,"mdfo":0.03}"#.to_string(),
            r#"{"seq":2,"kind":"fig4.result","algo":"KNN","scheme":"No norm","k":2,"mape":0.9,"mdfo":0.5}"#.to_string(),
        ]);
        let text = render(&t, 0.05);
        assert!(text.contains("regret to oracle (fig4"));
        assert!(text.contains("KNN / ProteusTM: k=2:0.2000 k=5:0.0300  | within eps=0.05: k=5"));
        assert!(text.contains("KNN / No norm: k=2:0.5000  | within eps=0.05: k=not reached"));
    }

    #[test]
    fn oracle_runs_accumulate_best_so_far_regret() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"oracle.row","row":3,"policy":"EI","best":10,"goal":"maximize"}"#.to_string(),
            r#"{"seq":1,"kind":"ei.reference","config":0,"kpi":5}"#.to_string(),
            r#"{"seq":2,"kind":"ei.step","step":1,"config":4,"ei":0.5,"predicted":9.0,"actual":8}"#.to_string(),
            r#"{"seq":3,"kind":"ei.step","step":2,"config":7,"ei":0.4,"predicted":9.9,"actual":10}"#.to_string(),
            r#"{"seq":4,"kind":"recommend","config":7,"kpi":10,"explored":3}"#.to_string(),
        ]);
        let runs = oracle_runs(&t.records);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].observed, vec![5.0, 8.0, 10.0]);
        assert_eq!(runs[0].regret_after(1), Some(0.5));
        assert_eq!(runs[0].regret_after(2), Some(0.2));
        assert_eq!(runs[0].regret_after(3), Some(0.0));
        assert_eq!(runs[0].steps_to_within(0.05), Some(3));
        let text = render(&t, 0.05);
        assert!(text.contains("EI: 1 explorations, mean final regret 0.0000"));
        assert!(text.contains("1/1 (median steps 3)"));
    }

    #[test]
    fn minimize_goal_tracks_the_minimum() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"oracle.row","row":0,"policy":"EI","best":2,"goal":"minimize"}"#
                .to_string(),
            r#"{"seq":1,"kind":"ei.reference","config":0,"kpi":4}"#.to_string(),
            r#"{"seq":2,"kind":"ei.step","step":1,"config":1,"ei":0.1,"predicted":2.0,"actual":2}"#
                .to_string(),
            r#"{"seq":3,"kind":"recommend","config":1,"kpi":2,"explored":2}"#.to_string(),
        ]);
        let runs = oracle_runs(&t.records);
        assert_eq!(runs[0].regret_after(1), Some(1.0));
        assert_eq!(runs[0].regret_after(2), Some(0.0));
    }

    #[test]
    fn switch_section_reads_span_durations() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"span.begin","id":1,"name":"switch","from":"a","to":"b"}"#
                .to_string(),
            r#"{"seq":1,"kind":"quiesce.start","epoch":1}"#.to_string(),
            r#"{"seq":2,"kind":"span.begin","id":2,"parent":1,"name":"quiesce.drain"}"#.to_string(),
            r#"{"seq":3,"kind":"span.end","id":2,"name":"quiesce.drain","duration_ns":1500}"#
                .to_string(),
            r#"{"seq":4,"kind":"config.switch","from":"a","to":"b"}"#.to_string(),
            r#"{"seq":5,"kind":"span.end","id":1,"name":"switch","duration_ns":4000}"#.to_string(),
        ]);
        let text = render(&t, 0.05);
        assert!(text.contains("switch latency & gate stalls"));
        assert!(text.contains("config.switch events: 1 (1 quiesce epochs, 0 rollbacks)"));
        assert!(text.contains("quiesce.drain"));
        assert!(text.contains("mean=1.50us"));
    }

    #[test]
    fn fault_audit_counts_injected_contained_degraded() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"fault.switch_apply","to":"b"}"#.to_string(),
            r#"{"seq":1,"kind":"recovery.switch_retry","attempt":1,"error":"x","backoff_ns":10}"#
                .to_string(),
            r#"{"seq":2,"kind":"fault.kpi_corrupt","config":3,"replaced":1.0,"with":"NaN"}"#
                .to_string(),
            r#"{"seq":3,"kind":"kpi.sanitized","reason":"nonfinite","config":3}"#.to_string(),
        ]);
        let text = render(&t, 0.05);
        assert!(text.contains("fault injection audit"));
        assert!(
            text.contains("switch_apply           1          1         0  contained"),
            "{text}"
        );
        assert!(text.contains("kpi_corrupt            1          1         0  contained"));
    }

    #[test]
    fn recovery_audit_matches_crashes_with_recoveries() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"durable.crash","step":140,"log_words":12,"durable_words":8}"#
                .to_string(),
            r#"{"seq":1,"kind":"durable.recovery","replayed_txs":2,"replayed_words":6,"torn_words":1,"recovery_ns":2600}"#
                .to_string(),
            r#"{"seq":2,"kind":"durable.crash","step":220,"log_words":4,"durable_words":20}"#
                .to_string(),
            r#"{"seq":3,"kind":"durable.recovery","replayed_txs":1,"replayed_words":4,"torn_words":0,"recovery_ns":1400}"#
                .to_string(),
            r#"{"seq":4,"kind":"counter","name":"fault.fired.crash_point","value":1}"#.to_string(),
        ]);
        let text = render(&t, 0.05);
        assert!(text.contains("crash recovery audit"), "{text}");
        assert!(
            text.contains("crashes: 2 (1 via faultsim crash_point)"),
            "{text}"
        );
        assert!(
            text.contains("recoveries: 2 (replayed 3 txs / 10 words, discarded 1 torn words)"),
            "{text}"
        );
        assert!(
            text.contains("modeled replay time: 4.00us total, 2.00us mean"),
            "{text}"
        );
        assert!(
            text.contains("verdict: recovered (every crash replayed to a consistent heap)"),
            "{text}"
        );
    }

    #[test]
    fn recovery_audit_flags_a_crash_without_recovery() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"durable.crash","step":9,"log_words":3,"durable_words":0}"#
                .to_string(),
        ]);
        let text = render(&t, 0.05);
        assert!(
            text.contains("verdict: UNRECOVERED (crashed heap never replayed)"),
            "{text}"
        );
    }

    #[test]
    fn recovery_audit_absent_without_durable_activity() {
        let t = trace_of(&[r#"{"seq":0,"kind":"fault.switch_apply","to":"b"}"#.to_string()]);
        assert!(!render(&t, 0.05).contains("crash recovery audit"));
    }

    #[test]
    fn json_report_is_stable_and_machine_parseable() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"fig4.result","algo":"KNN","scheme":"ProteusTM","k":2,"mape":0.4,"mdfo":0.2}"#.to_string(),
            r#"{"seq":1,"kind":"fig4.result","algo":"KNN","scheme":"ProteusTM","k":5,"mape":0.1,"mdfo":0.03}"#.to_string(),
            r#"{"seq":2,"kind":"metrics.window","series":"fig4.mdfo","window":0,"tick":8,"n":2,"mean":0.115,"min":0.03,"max":0.2,"last":0.03}"#.to_string(),
            r#"{"seq":3,"kind":"obs.overhead","subsystem":"total","events":3,"bytes":400,"spans":0,"windows":1,"histogram_updates":2}"#.to_string(),
            r#"{"seq":4,"kind":"counter","name":"tx.commit.tl2","value":7}"#.to_string(),
        ]);
        let a = render_json(&t, 0.05);
        assert_eq!(a, render_json(&t, 0.05), "stable bytes");
        assert!(a.starts_with(&format!("{{\"schema\":{}", obs::SCHEMA_VERSION)));
        assert!(a.contains("\"kinds\":{\"fig4.result\":2,\"metrics.window\":1,\"obs.overhead\":1}"));
        assert!(a.contains("\"counters\":{\"tx.commit.tl2\":7}"));
        assert!(a.contains("\"algo\":\"KNN\""));
        assert!(a.contains("\"within_epsilon_k\":5"));
        assert!(a.contains("\"series\":\"fig4.mdfo\",\"windows\":1,\"samples\":2,\"mean\":0.115"));
        assert!(a.contains("\"overhead\":{\"events\":3,\"bytes\":400,"));
        assert!(a.ends_with("}\n"));
        // The flat-object parser cannot parse nested JSON, but the output
        // must at least be structurally balanced.
        let opens = a.matches(['{', '[']).count();
        let closes = a.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn json_report_without_optional_sections_uses_nulls_and_empties() {
        let t = trace_of(&[r#"{"seq":0,"kind":"config.switch","to":"b"}"#.to_string()]);
        let a = render_json(&t, 0.05);
        assert!(a.contains("\"fig4\":[]"));
        assert!(a.contains("\"oracle\":[]"));
        assert!(a.contains("\"windows\":[]"));
        assert!(a.contains("\"overhead\":null"));
    }

    #[test]
    fn report_is_a_pure_function_of_the_trace() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"config.switch","from":"a","to":"b"}"#.to_string(),
            r#"{"seq":1,"kind":"recommend","config":1,"kpi":2.5,"explored":4}"#.to_string(),
        ]);
        assert_eq!(render(&t, 0.05), render(&t, 0.05));
        assert!(render(&t, 0.05).contains("decision timeline"));
    }
}
