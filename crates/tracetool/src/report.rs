//! The single-trace report: decision timeline, switch/quiescence
//! breakdowns, crash recovery audit, counter dump, and the trace's own
//! self-overhead audit.
//!
//! Every section of [`render`] is a pure fold over `Trace::records` (plus
//! the counter dump), so the report is byte-identical for byte-identical
//! traces — and because the learning-path trace itself is byte-identical
//! at every `--jobs` value, so is the report.

use crate::spans::SpanForest;
use crate::{banner, elide, section, Record, Trace};
use std::fmt::Write;

/// Event kinds that constitute "decisions" for the timeline section.
const DECISION_KINDS: [&str; 6] = [
    "config.switch",
    "cusum.alarm",
    "cusum.reset",
    "explore.start",
    "stop.verdict",
    "recommend",
];

/// Timeline rows printed before eliding the rest.
const TIMELINE_LIMIT: usize = 60;

fn fmt_ns(ns: f64) -> String {
    let units = [(1e9, "s"), (1e6, "ms"), (1e3, "us")];
    match units.into_iter().find(|(scale, _)| ns >= *scale) {
        Some((scale, unit)) => format!("{:.2}{unit}", ns / scale),
        None => format!("{ns:.0}ns"),
    }
}

/// Render the report of one trace.
pub fn render(trace: &Trace) -> String {
    let spans = SpanForest::build(&trace.records);
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
    render_switches(&mut out, trace, &spans);
    render_recovery_audit(&mut out, trace);
    render_counters(&mut out, trace);
    render_overhead(&mut out, trace);
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
    elide(out, decisions.len(), TIMELINE_LIMIT, "decision records");
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
    let skips = trace.count_kind("recovery.gate_skip");
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

/// The counter dump, sorted by name; absent when the trace has none (a
/// capture, or a writer that died before `obs::finish_trace`).
fn render_counters(out: &mut String, trace: &Trace) {
    if trace.counters.is_empty() {
        return;
    }
    section(out, "counters");
    for (name, value) in &trace.counters {
        let _ = writeln!(out, "  {name:<28} {value:>8}");
    }
}

/// The instrumentation self-overhead audit from the trailing
/// `obs.overhead` records: one row per subsystem, then the total. Absent
/// when the trace has none (a capture, or a writer that died first).
fn render_overhead(out: &mut String, trace: &Trace) {
    let mut audits = trace.of_kind("obs.overhead").peekable();
    if audits.peek().is_none() {
        return;
    }
    section(out, "obs.overhead");
    for r in audits {
        let sub = r.str("subsystem").unwrap_or("?");
        let [events, bytes, spans] = ["events", "bytes", "spans"].map(|k| r.u64(k).unwrap_or(0));
        if sub == "total" {
            let _ = writeln!(
                out,
                "  total: {events} records, {bytes} bytes, {spans} spans"
            );
        } else {
            let _ = writeln!(out, "  {sub:<28} events={events:<8} bytes={bytes}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::trace_of;

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
        let text = render(&t);
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
        let text = render(&t);
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
        let text = render(&t);
        assert!(
            text.contains("verdict: UNRECOVERED (crashed heap never replayed)"),
            "{text}"
        );
    }

    #[test]
    fn recovery_audit_absent_without_durable_activity() {
        let t = trace_of(&[r#"{"seq":0,"kind":"config.switch","to":"b"}"#]);
        assert!(!render(&t).contains("crash recovery audit"));
    }

    #[test]
    fn counters_section_lists_the_dump_sorted_by_name() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"config.switch","to":"b"}"#,
            r#"{"seq":1,"kind":"counter","name":"tx.commit.tl2","value":7}"#,
            r#"{"seq":2,"kind":"counter","name":"parx.maps","value":65}"#,
        ]);
        let text = render(&t);
        let tail = "\n-- counters --\n  parx.maps                          65\n  \
                    tx.commit.tl2                       7\n";
        assert!(text.ends_with(tail), "{text}");

        let t = trace_of(&[r#"{"seq":0,"kind":"config.switch","to":"b"}"#]);
        let text = render(&t);
        assert!(!text.contains("-- counters --"), "{text}");
    }

    #[test]
    fn overhead_section_lists_subsystems_then_the_total() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"config.switch","to":"b"}"#,
            r#"{"seq":1,"kind":"counter","name":"parx.maps","value":65}"#,
            r#"{"seq":2,"kind":"obs.overhead","subsystem":"config","events":1,"bytes":40}"#,
            r#"{"seq":3,"kind":"obs.overhead","subsystem":"counter","events":1,"bytes":60}"#,
            r#"{"seq":4,"kind":"obs.overhead","subsystem":"total","events":2,"bytes":100,"spans":0}"#,
        ]);
        let text = render(&t);
        let tail = "\n-- obs.overhead --\n  \
                    config                       events=1        bytes=40\n  \
                    counter                      events=1        bytes=60\n  \
                    total: 2 records, 100 bytes, 0 spans\n";
        assert!(text.ends_with(tail), "{text}");

        let t = trace_of(&[r#"{"seq":0,"kind":"config.switch","to":"b"}"#]);
        assert!(!render(&t).contains("-- obs.overhead --"));
    }

    #[test]
    fn report_is_a_pure_function_of_the_trace() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"config.switch","from":"a","to":"b"}"#,
            r#"{"seq":1,"kind":"recommend","config":1,"kpi":2.5,"explored":4}"#,
        ]);
        assert_eq!(render(&t), render(&t));
        assert!(render(&t).contains("decision timeline"));
    }
}
