//! The single-trace report: decision timeline, convergence vs the oracle,
//! switch/quiescence breakdowns, crash recovery audit.
//!
//! [`Report::new`] folds the trace once into a typed model; [`plain`] and
//! [`json`] only format it. Every section is a pure fold over
//! `Trace::records` (plus the counter dump), so the report is
//! byte-identical for byte-identical traces — and because the
//! learning-path trace itself is byte-identical at every `--jobs`
//! value, so is the report.

use crate::perf::SeriesAgg;
use crate::spans::SpanForest;
use crate::{banner, dfo, elide, json_head, section, Record, Trace};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Event kinds that constitute "decisions" for the timeline section.
const DECISION_KINDS: [&str; 8] = [
    "fig4.start",
    "fig4.scheme",
    "config.switch",
    "cusum.alarm",
    "cusum.reset",
    "explore.start",
    "stop.verdict",
    "recommend",
];

/// Timeline rows printed before eliding the rest.
const TIMELINE_LIMIT: usize = 60;

/// Observation counts at which the mean regret curve is sampled.
const CHECKPOINTS: [usize; 6] = [1, 2, 3, 5, 8, 12];

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
        let pick = if self.maximize { f64::max } else { f64::min };
        let best = self.observed[..n].iter().copied().reduce(pick)?;
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
                let key = if r.kind == "ei.step" { "actual" } else { "kpi" };
                if let (Some(run), Some(v)) = (open.as_mut(), r.f64(key)) {
                    run.observed.push(v);
                }
            }
            "recommend" => {
                let final_kpi = r.f64("kpi");
                runs.extend(open.take().map(|run| OracleRun { final_kpi, ..run }));
            }
            _ => {}
        }
    }
    runs
}

/// fig4 regret curve of one (algorithm, scheme): `fig4.result` rows, whose
/// `mdfo` *is* the mean regret to the oracle given `k` sampled
/// configurations.
struct Fig4Group<'a> {
    algo: &'a str,
    scheme: &'a str,
    /// `(k, mdfo)` in stream order.
    points: Vec<(u64, Option<f64>)>,
}

impl Fig4Group<'_> {
    /// First `k` whose regret is within `epsilon`.
    fn within(&self, epsilon: f64) -> Option<u64> {
        let reached = |(_, mdfo): &&(u64, Option<f64>)| mdfo.is_some_and(|v| v <= epsilon);
        self.points.iter().find(reached).map(|(k, _)| *k)
    }
}

/// Convergence of one exploration policy over its oracle-annotated runs.
struct PolicyStats {
    policy: String,
    explorations: usize,
    mean_final_regret: f64,
    /// Runs that got within epsilon of the oracle.
    converged: usize,
    /// Median observations those runs needed.
    median_steps: Option<usize>,
    /// Mean regret after each of [`CHECKPOINTS`] observations.
    curve: Vec<f64>,
}

/// Everything `proteus-trace report` says about one trace.
pub struct Report<'a> {
    trace: &'a Trace,
    epsilon: f64,
    spans: SpanForest,
    /// In order of first appearance.
    fig4: Vec<Fig4Group<'a>>,
    /// Sorted by policy.
    oracle: Vec<PolicyStats>,
}

impl<'a> Report<'a> {
    /// Fold `trace` into the report model. `epsilon` is the convergence
    /// threshold for the steps-to-within-ε statistics (the paper's figures
    /// use 1–5%).
    pub fn new(trace: &'a Trace, epsilon: f64) -> Report<'a> {
        let mut fig4: Vec<Fig4Group> = Vec::new();
        for r in trace.of_kind("fig4.result") {
            let (algo, scheme) = (r.str("algo").unwrap_or("?"), r.str("scheme").unwrap_or("?"));
            let point = (r.u64("k").unwrap_or(0), r.f64("mdfo"));
            match fig4
                .iter_mut()
                .find(|g| (g.algo, g.scheme) == (algo, scheme))
            {
                Some(group) => group.points.push(point),
                None => fig4.push(Fig4Group {
                    algo,
                    scheme,
                    points: vec![point],
                }),
            }
        }

        let mut by_policy: BTreeMap<String, Vec<OracleRun>> = BTreeMap::new();
        for run in oracle_runs(&trace.records) {
            by_policy.entry(run.policy.clone()).or_default().push(run);
        }
        let oracle = by_policy
            .into_iter()
            .map(|(policy, runs)| {
                let mean = |of: &dyn Fn(&OracleRun) -> Option<f64>| {
                    runs.iter().filter_map(of).sum::<f64>() / runs.len() as f64
                };
                let mut steps: Vec<usize> = runs
                    .iter()
                    .filter_map(|r| r.steps_to_within(epsilon))
                    .collect();
                steps.sort_unstable();
                PolicyStats {
                    policy,
                    explorations: runs.len(),
                    mean_final_regret: mean(&|r| r.final_kpi.map(|k| dfo(r.oracle_best, k))),
                    converged: steps.len(),
                    median_steps: steps.get(steps.len().saturating_sub(1) / 2).copied(),
                    curve: CHECKPOINTS.map(|cp| mean(&|r| r.regret_after(cp))).to_vec(),
                }
            })
            .collect();

        Report {
            trace,
            epsilon,
            spans: SpanForest::build(&trace.records),
            fig4,
            oracle,
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    let units = [(1e9, "s"), (1e6, "ms"), (1e3, "us")];
    match units.into_iter().find(|(scale, _)| ns >= *scale) {
        Some((scale, unit)) => format!("{:.2}{unit}", ns / scale),
        None => format!("{ns:.0}ns"),
    }
}

/// `Some(v)` as its token, `None` as `null`.
fn or_null(v: Option<impl ToString>) -> String {
    v.map_or("null".to_string(), |v| v.to_string())
}

/// Render the report as text.
pub fn plain(report: &Report) -> String {
    let Report { trace, spans, .. } = report;
    let mut out = banner("report", trace.complete);
    let (events, counters) = (trace.records.len(), trace.counters.len());
    let _ = writeln!(
        out,
        "records: {events} events, {counters} counters, {} spans ({} unclosed, {} orphan ends)",
        spans.nodes.len(),
        spans.unclosed(),
        spans.orphan_ends,
    );
    for (kind, count) in trace.kind_histogram() {
        let _ = writeln!(out, "  {kind:<28} {count:>8}");
    }

    render_timeline(&mut out, trace);
    render_fig4_convergence(&mut out, report);
    render_oracle_convergence(&mut out, report);
    render_switches(&mut out, trace, spans);
    render_recovery_audit(&mut out, trace);
    out
}

/// Render the report as one machine-readable JSON object (the `--json`
/// flag of `proteus-trace report`). Key order is fixed and all maps are
/// name-sorted, so equal traces yield equal bytes — CI can diff or parse
/// this without scraping the text report. Floats use the same
/// shortest-roundtrip encoding as the trace itself.
pub fn json(report: &Report) -> String {
    let Report { trace, spans, .. } = report;
    let mut w = json_head(trace.complete);
    w.key("records").raw(trace.records.len());
    w.key("spans").open('{').key("count").raw(spans.nodes.len());
    w.key("unclosed").raw(spans.unclosed());
    w.key("orphan_ends").raw(spans.orphan_ends).close('}');

    w.key("kinds").open('{');
    for (kind, count) in trace.kind_histogram() {
        w.key(kind).raw(count);
    }
    w.close('}').key("counters").open('{');
    for (name, value) in &trace.counters {
        w.key(name).raw(value);
    }

    w.close('}').key("fig4").open('[');
    for group in &report.fig4 {
        w.open('{').key("algo").str(group.algo);
        w.key("scheme").str(group.scheme).key("curve").open('[');
        for (k, mdfo) in &group.points {
            w.open('{').key("k").raw(k).key("mdfo");
            match mdfo {
                Some(v) => w.f64(*v),
                None => w.raw("null"),
            };
            w.close('}');
        }
        let eps_k = or_null(group.within(report.epsilon));
        w.close(']').key("within_epsilon_k").raw(eps_k).close('}');
    }

    w.close(']').key("oracle").open('[');
    for p in &report.oracle {
        w.open('{').key("policy").str(&p.policy);
        w.key("explorations").raw(p.explorations);
        w.key("mean_final_regret").f64(p.mean_final_regret);
        w.key("converged").raw(p.converged);
        w.key("median_steps").raw(or_null(p.median_steps));
        w.close('}');
    }

    // Time-series windows, one aggregate row per series.
    w.close(']').key("windows").open('[');
    for (series, points) in trace.windows() {
        w.open('{').key("series").str(series);
        SeriesAgg::of(points).json(&mut w);
        w.close('}');
    }

    // Self-overhead audit from the trailing obs.overhead total record.
    w.close(']').key("overhead");
    match trace.records.iter().find(|r| r.is_trailer()) {
        None => w.raw("null"),
        Some(r) => {
            w.open('{');
            for key in ["events", "bytes", "spans", "windows"] {
                w.key(key).raw(r.u64(key).unwrap_or(0));
            }
            w.close('}')
        }
    };
    w.close('}');
    w.finish()
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
    elide(out, decisions.len(), TIMELINE_LIMIT, "decision records");
}

fn render_fig4_convergence(out: &mut String, report: &Report) {
    if report.fig4.is_empty() {
        return;
    }
    section(out, "regret to oracle (fig4: mean DFO vs #sampled configs)");
    for group in &report.fig4 {
        let curve: Vec<String> = group
            .points
            .iter()
            .map(|(k, mdfo)| match mdfo {
                Some(v) => format!("k={k}:{v:.4}"),
                None => format!("k={k}:n/a"),
            })
            .collect();
        let (algo, scheme, eps) = (group.algo, group.scheme, report.epsilon);
        let eps_k = group
            .within(eps)
            .map_or("not reached".to_string(), |k| k.to_string());
        let _ = writeln!(
            out,
            "  {algo} / {scheme}: {}  | within eps={eps}: k={eps_k}",
            curve.join(" ")
        );
    }
}

fn render_oracle_convergence(out: &mut String, report: &Report) {
    if report.oracle.is_empty() {
        return;
    }
    section(out, "regret to oracle (explorations vs oracle.row truth)");
    for p in &report.oracle {
        let median_steps = p.median_steps.map_or("n/a".to_string(), |s| s.to_string());
        let curve: Vec<String> = CHECKPOINTS
            .iter()
            .zip(&p.curve)
            .map(|(cp, mean)| format!("n={cp}:{mean:.4}"))
            .collect();
        let (n, regret, eps) = (p.explorations, p.mean_final_regret, report.epsilon);
        let _ = writeln!(
            out,
            "  {}: {n} explorations, mean final regret {regret:.4}, \
             within eps={eps}: {}/{n} (median steps {median_steps})",
            p.policy, p.converged
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
            let (mean, max) = (fmt_ns(a.mean_ns()), fmt_ns(a.max_ns as f64));
            let timing = match a.timed {
                0 => String::new(),
                _ => format!(" mean={mean} max={max}"),
            };
            let _ = writeln!(
                out,
                "  {name:<16} n={} closed={}{timing}",
                a.count, a.closed
            );
        }
    }
    let skips = trace
        .counter("polytm.gate_skips")
        .max(trace.count_kind("recovery.gate_skip"));
    let _ = writeln!(out, "  gate stalls: {skips} drain timeouts skipped");
}

fn render_recovery_audit(out: &mut String, trace: &Trace) {
    // The durable backend's crash ledger: every `durable.crash` (a modeled
    // process kill at a persistence step, emitted on restart) must be
    // matched by a completed `durable.recovery` replay.
    let crashes = trace.count_kind("durable.crash");
    let recoveries: Vec<&Record> = trace.of_kind("durable.recovery").collect();
    if crashes == 0 && recoveries.is_empty() {
        return;
    }
    section(out, "crash recovery audit");
    let _ = writeln!(out, "  crashes: {crashes}");
    let sum = |key: &str| -> u64 { recoveries.iter().filter_map(|r| r.u64(key)).sum() };
    let (txs, words) = (sum("replayed_txs"), sum("replayed_words"));
    let torn = sum("torn_words");
    let _ = writeln!(
        out,
        "  recoveries: {} (replayed {txs} txs / {words} words, discarded {torn} torn words)",
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
    use crate::tests::trace_of;

    fn render(trace: &Trace, epsilon: f64) -> String {
        plain(&Report::new(trace, epsilon))
    }

    fn render_json(trace: &Trace, epsilon: f64) -> String {
        json(&Report::new(trace, epsilon))
    }

    #[test]
    fn fig4_regret_section_reports_curves_and_epsilon_k() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"fig4.result","algo":"KNN","scheme":"ProteusTM","k":2,"mape":0.4,"mdfo":0.2}"#,
            r#"{"seq":1,"kind":"fig4.result","algo":"KNN","scheme":"ProteusTM","k":5,"mape":0.1,"mdfo":0.03}"#,
            r#"{"seq":2,"kind":"fig4.result","algo":"KNN","scheme":"No norm","k":2,"mape":0.9,"mdfo":0.5}"#,
        ]);
        let text = render(&t, 0.05);
        assert!(text.contains("regret to oracle (fig4"));
        assert!(text.contains("KNN / ProteusTM: k=2:0.2000 k=5:0.0300  | within eps=0.05: k=5"));
        assert!(text.contains("KNN / No norm: k=2:0.5000  | within eps=0.05: k=not reached"));
    }

    #[test]
    fn oracle_runs_accumulate_best_so_far_regret() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"oracle.row","row":3,"policy":"EI","best":10,"goal":"maximize"}"#,
            r#"{"seq":1,"kind":"ei.reference","config":0,"kpi":5}"#,
            r#"{"seq":2,"kind":"ei.step","step":1,"config":4,"ei":0.5,"predicted":9.0,"actual":8}"#,
            r#"{"seq":3,"kind":"ei.step","step":2,"config":7,"ei":0.4,"predicted":9.9,"actual":10}"#,
            r#"{"seq":4,"kind":"recommend","config":7,"kpi":10,"explored":3}"#,
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
            r#"{"seq":0,"kind":"oracle.row","row":0,"policy":"EI","best":2,"goal":"minimize"}"#,
            r#"{"seq":1,"kind":"ei.reference","config":0,"kpi":4}"#,
            r#"{"seq":2,"kind":"ei.step","step":1,"config":1,"ei":0.1,"predicted":2.0,"actual":2}"#,
            r#"{"seq":3,"kind":"recommend","config":1,"kpi":2,"explored":2}"#,
        ]);
        let runs = oracle_runs(&t.records);
        assert_eq!(runs[0].regret_after(1), Some(1.0));
        assert_eq!(runs[0].regret_after(2), Some(0.0));
    }

    #[test]
    fn switch_section_reads_span_durations() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"span.begin","id":1,"name":"switch","from":"a","to":"b"}"#,
            r#"{"seq":1,"kind":"quiesce.start","epoch":1}"#,
            r#"{"seq":2,"kind":"span.begin","id":2,"parent":1,"name":"quiesce.drain"}"#,
            r#"{"seq":3,"kind":"span.end","id":2,"name":"quiesce.drain","duration_ns":1500}"#,
            r#"{"seq":4,"kind":"config.switch","from":"a","to":"b"}"#,
            r#"{"seq":5,"kind":"span.end","id":1,"name":"switch","duration_ns":4000}"#,
            r#"{"seq":6,"kind":"recovery.gate_skip","thread":1,"degree":1}"#,
        ]);
        let text = render(&t, 0.05);
        assert!(text.contains("switch latency & gate stalls"));
        assert!(text.contains("config.switch events: 1 (1 quiesce epochs, 0 rollbacks)"));
        assert!(text.contains("quiesce.drain"));
        assert!(text.contains("mean=1.50us"));
        assert!(
            text.contains("gate stalls: 1 drain timeouts skipped"),
            "{text}"
        );
    }

    #[test]
    fn recovery_audit_matches_crashes_with_recoveries() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"durable.crash","step":140,"log_words":12,"durable_words":8}"#,
            r#"{"seq":1,"kind":"durable.recovery","replayed_txs":2,"replayed_words":6,"torn_words":1,"recovery_ns":2600}"#,
            r#"{"seq":2,"kind":"durable.crash","step":220,"log_words":4,"durable_words":20}"#,
            r#"{"seq":3,"kind":"durable.recovery","replayed_txs":1,"replayed_words":4,"torn_words":0,"recovery_ns":1400}"#,
        ]);
        let text = render(&t, 0.05);
        assert!(text.contains("crash recovery audit"), "{text}");
        assert!(text.contains("crashes: 2\n"), "{text}");
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
            r#"{"seq":0,"kind":"durable.crash","step":9,"log_words":3,"durable_words":0}"#,
        ]);
        let text = render(&t, 0.05);
        assert!(
            text.contains("verdict: UNRECOVERED (crashed heap never replayed)"),
            "{text}"
        );
    }

    #[test]
    fn recovery_audit_absent_without_durable_activity() {
        let t = trace_of(&[r#"{"seq":0,"kind":"config.switch","to":"b"}"#]);
        assert!(!render(&t, 0.05).contains("crash recovery audit"));
    }

    #[test]
    fn json_report_is_stable_and_machine_parseable() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"fig4.result","algo":"KNN","scheme":"ProteusTM","k":2,"mape":0.4,"mdfo":0.2}"#,
            r#"{"seq":1,"kind":"fig4.result","algo":"KNN","scheme":"ProteusTM","k":5,"mape":0.1,"mdfo":0.03}"#,
            r#"{"seq":2,"kind":"metrics.window","series":"fig4.mdfo","window":0,"tick":8,"n":2,"mean":0.115,"min":0.03,"max":0.2,"last":0.03}"#,
            r#"{"seq":3,"kind":"obs.overhead","subsystem":"total","events":3,"bytes":400,"spans":0,"windows":1,"histogram_updates":2}"#,
            r#"{"seq":4,"kind":"counter","name":"tx.commit.tl2","value":7}"#,
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
        let t = trace_of(&[r#"{"seq":0,"kind":"config.switch","to":"b"}"#]);
        let a = render_json(&t, 0.05);
        assert!(a.contains("\"fig4\":[]"));
        assert!(a.contains("\"oracle\":[]"));
        assert!(a.contains("\"windows\":[]"));
        assert!(a.contains("\"overhead\":null"));
    }

    #[test]
    fn report_is_a_pure_function_of_the_trace() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"config.switch","from":"a","to":"b"}"#,
            r#"{"seq":1,"kind":"recommend","config":1,"kpi":2.5,"explored":4}"#,
        ]);
        assert_eq!(render(&t, 0.05), render(&t, 0.05));
        assert!(render(&t, 0.05).contains("decision timeline"));
    }
}
