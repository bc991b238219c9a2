//! The conflict-observatory view: abort attribution, wasted-work ledger,
//! hot-stripe tables and goodput timelines (`proteus-trace conflicts`).
//!
//! Everything here is a pure fold over one trace's counters, events and
//! `metrics.window` records, so the view is byte-identical for
//! byte-identical traces. Two sources feed it:
//!
//! - **Wall-clock runs** dump per-backend counters at trace end
//!   (`tx.commit.<b>`, `tx.abort.<b>.<cause>`, `tx.work.<b>.ops`,
//!   `tx.wasted.<b>.ops`) and flush `abort.cause.*` / `wasted.ops` /
//!   `goodput.ratio` windows from the KPI probe.
//! - **The vtime stage** emits the same series from its exact-integer
//!   conflict profiles, plus `vtime.conflict` and `conflict.stripe`
//!   events carrying the per-backend cells and top-K hot stripes.

use crate::perf::{overall_mean, windows_by_series, WindowPoint};
use crate::report::fnum;
use crate::{Record, Trace};
use obs::encode_str;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Canonical abort-cause order. Mirrors `txcore::AbortCode::ALL`; the
/// analyzer deliberately has no txcore dependency (it only *reads*
/// traces), so the order is pinned here and unknown causes sort after it.
const CAUSE_ORDER: [&str; 7] = [
    "conflict", "capacity", "explicit", "fallback", "spurious", "mode", "journal",
];

/// Goodput-timeline windows listed per series before eliding.
const TIMELINE_LIMIT: usize = 16;

/// One backend's attribution ledger folded from the trace counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BackendLedger {
    /// Committed transactions (`tx.commit.<b>`).
    pub commits: u64,
    /// Commits that took the HTM fallback path (`tx.commit.<b>.fallback`).
    pub fallback_commits: u64,
    /// Aborts per cause slug (`tx.abort.<b>.<cause>`).
    pub causes: BTreeMap<String, u64>,
    /// Ops retired by committed attempts (`tx.work.<b>.ops`).
    pub work_ops: u64,
    /// Ops discarded by rolled-back attempts (`tx.wasted.<b>.ops`).
    pub wasted_ops: u64,
}

impl BackendLedger {
    /// Total aborted attempts (sum over causes).
    pub fn aborts(&self) -> u64 {
        self.causes.values().sum()
    }

    /// Committed / total executed ops; 1.0 when the backend ran no ops.
    pub fn goodput_ratio(&self) -> f64 {
        let total = self.work_ops + self.wasted_ops;
        if total == 0 {
            1.0
        } else {
            self.work_ops as f64 / total as f64
        }
    }
}

/// Fold the `tx.*` counter dump into per-backend ledgers (sorted by
/// backend name). Counter shapes: `tx.commit.<b>`, `tx.commit.<b>.fallback`,
/// `tx.abort.<b>.<cause>`, `tx.work.<b>.ops`, `tx.wasted.<b>.ops`.
pub fn backend_ledgers(trace: &Trace) -> BTreeMap<String, BackendLedger> {
    let mut out: BTreeMap<String, BackendLedger> = BTreeMap::new();
    for (name, &value) in &trace.counters {
        if let Some(rest) = name.strip_prefix("tx.commit.") {
            match rest.strip_suffix(".fallback") {
                Some(b) => out.entry(b.to_string()).or_default().fallback_commits = value,
                None if !rest.contains('.') => {
                    out.entry(rest.to_string()).or_default().commits = value;
                }
                None => {}
            }
        } else if let Some(rest) = name.strip_prefix("tx.abort.") {
            if let Some((b, cause)) = rest.split_once('.') {
                out.entry(b.to_string())
                    .or_default()
                    .causes
                    .insert(cause.to_string(), value);
            }
        } else if let Some(rest) = name.strip_prefix("tx.work.") {
            if let Some(b) = rest.strip_suffix(".ops") {
                out.entry(b.to_string()).or_default().work_ops = value;
            }
        } else if let Some(rest) = name.strip_prefix("tx.wasted.") {
            if let Some(b) = rest.strip_suffix(".ops") {
                out.entry(b.to_string()).or_default().wasted_ops = value;
            }
        }
    }
    out
}

/// Causes of one ledger in canonical order (unknown slugs after, sorted).
fn ordered_causes(ledger: &BackendLedger) -> Vec<(&str, u64)> {
    let mut out: Vec<(&str, u64)> = Vec::new();
    for slug in CAUSE_ORDER {
        if let Some(&n) = ledger.causes.get(slug) {
            if n > 0 {
                out.push((slug, n));
            }
        }
    }
    for (slug, &n) in &ledger.causes {
        if n > 0 && !CAUSE_ORDER.contains(&slug.as_str()) {
            out.push((slug, n));
        }
    }
    out
}

/// One hot-stripe row from a `conflict.stripe` event.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StripeRow {
    machine: String,
    backend: String,
    rank: u64,
    stripe: u64,
    hits: u64,
}

fn stripe_rows(trace: &Trace) -> Vec<StripeRow> {
    trace
        .of_kind("conflict.stripe")
        .filter_map(|r| {
            Some(StripeRow {
                machine: r.str("machine").unwrap_or("-").to_string(),
                backend: r.str("backend").unwrap_or("?").to_string(),
                rank: r.u64("rank")?,
                stripe: r.u64("stripe")?,
                hits: r.u64("hits").unwrap_or(0),
            })
        })
        .collect()
}

fn vtime_cells(trace: &Trace) -> Vec<&Record> {
    trace.of_kind("vtime.conflict").collect()
}

/// The switch/resize latencies of one machine's vtime run, read back from
/// its `vtime.<machine>.{switch,resize}.*` windows (hot-stripe tables are
/// rendered next to these so heatmaps line up with the reconfiguration
/// spans measured in the same run).
fn reconfig_line(windows: &BTreeMap<String, Vec<WindowPoint>>, machine: &str) -> Option<String> {
    let mean = |metric: &str| -> Option<f64> {
        windows
            .get(&format!("vtime.{machine}.{metric}"))
            .map(|pts| overall_mean(pts))
    };
    let switch = mean("switch.latency_ns")?;
    let (shrink, grow) = (
        mean("resize.shrink_ns").unwrap_or(0.0),
        mean("resize.grow_ns").unwrap_or(0.0),
    );
    Some(format!(
        "switch {:.0} vns, resize shrink {:.0} vns / grow {:.0} vns",
        switch, shrink, grow
    ))
}

fn section(out: &mut String, title: &str) {
    let _ = writeln!(out, "\n-- {title} --");
}

/// Render the conflict-observatory report.
pub fn render(trace: &Trace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== proteus-trace conflicts (schema {}) ===",
        trace.schema
    );
    let windows = windows_by_series(trace);

    // Per-backend abort attribution + wasted-work ledger (counter dump).
    let ledgers = backend_ledgers(trace);
    section(&mut out, "abort attribution & wasted work (per backend)");
    if ledgers.is_empty() {
        let _ = writeln!(out, "(no tx.* counters in this trace)");
    } else {
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>9} {:>7} {:>10} {:>10} {:>8}",
            "backend", "commits", "fallback", "aborts", "work_ops", "wasted", "goodput"
        );
        for (backend, ledger) in &ledgers {
            let _ = writeln!(
                out,
                "  {:<10} {:>8} {:>9} {:>7} {:>10} {:>10} {:>8.4}",
                backend,
                ledger.commits,
                ledger.fallback_commits,
                ledger.aborts(),
                ledger.work_ops,
                ledger.wasted_ops,
                ledger.goodput_ratio()
            );
            let causes = ordered_causes(ledger);
            if !causes.is_empty() {
                let list: Vec<String> = causes.iter().map(|(s, n)| format!("{s} x{n}")).collect();
                let _ = writeln!(out, "    causes: {}", list.join(", "));
            }
        }
        let (work, wasted): (u64, u64) = ledgers
            .values()
            .fold((0, 0), |(w, x), l| (w + l.work_ops, x + l.wasted_ops));
        if work + wasted > 0 {
            let _ = writeln!(
                out,
                "  overall goodput: {:.4} ({work} committed / {} total ops)",
                work as f64 / (work + wasted) as f64,
                work + wasted
            );
        }
    }

    // Deterministic vtime conflict cells, when the trace has a vtime stage.
    let cells = vtime_cells(trace);
    if !cells.is_empty() {
        section(&mut out, "vtime conflict profile (exact cross-host)");
        let _ = writeln!(
            out,
            "  {:<10} {:<8} {:>7} {:>7} {:>11} {:>11}",
            "machine", "backend", "threads", "aborts", "goodput_pm", "wasted_ops"
        );
        for r in &cells {
            let _ = writeln!(
                out,
                "  {:<10} {:<8} {:>7} {:>7} {:>11} {:>11}",
                r.str("machine").unwrap_or("-"),
                r.str("backend").unwrap_or("?"),
                r.u64("threads").unwrap_or(0),
                r.u64("aborts").unwrap_or(0),
                r.u64("goodput_pm").unwrap_or(0),
                r.u64("wasted_ops").unwrap_or(0),
            );
        }
    }

    // Hot-stripe tables, grouped per (machine, backend) and rendered next
    // to that machine's switch/resize latencies so the heatmap lines up
    // with the reconfiguration spans of the same run.
    let stripes = stripe_rows(trace);
    if !stripes.is_empty() {
        section(&mut out, "hot stripes (top-K per backend)");
        let mut by_machine: BTreeMap<&str, Vec<&StripeRow>> = BTreeMap::new();
        for s in &stripes {
            by_machine.entry(&s.machine).or_default().push(s);
        }
        for (machine, rows) in by_machine {
            let _ = writeln!(out, "  {machine}:");
            let mut by_backend: BTreeMap<&str, Vec<&&StripeRow>> = BTreeMap::new();
            for s in &rows {
                by_backend.entry(&s.backend).or_default().push(s);
            }
            for (backend, mut rows) in by_backend {
                rows.sort_by_key(|s| s.rank);
                let list: Vec<String> = rows
                    .iter()
                    .map(|s| format!("stripe {} x{}", s.stripe, s.hits))
                    .collect();
                let _ = writeln!(out, "    {:<8} {}", backend, list.join(", "));
            }
            if let Some(line) = reconfig_line(&windows, machine) {
                let _ = writeln!(out, "    reconfig: {line}");
            }
        }
    }

    // Goodput-vs-throughput timeline from the windowed series.
    if let Some(goodput) = windows.get("goodput.ratio") {
        section(&mut out, "goodput timeline (windows)");
        let tput = windows.get("kpi.throughput");
        let commits = windows.get("kpi.commits");
        let at_tick = |pts: Option<&Vec<WindowPoint>>, tick: u64| -> Option<f64> {
            pts.and_then(|pts| pts.iter().find(|p| p.tick == tick).map(|p| p.mean))
        };
        for p in goodput.iter().take(TIMELINE_LIMIT) {
            let mut line = format!("  tick {:>5}  goodput {:.4}", p.tick, p.mean);
            if let Some(v) = at_tick(tput, p.tick) {
                let _ = write!(line, "  throughput {v:.0}/s");
            }
            if let Some(v) = at_tick(commits, p.tick) {
                let _ = write!(line, "  commits {v:.0}");
            }
            let _ = writeln!(out, "{line}");
        }
        if goodput.len() > TIMELINE_LIMIT {
            let _ = writeln!(
                out,
                "  ... ({} more windows)",
                goodput.len() - TIMELINE_LIMIT
            );
        }
        let _ = writeln!(
            out,
            "  overall: goodput {:.4} over {} windows, wasted.ops mean {:.1}",
            overall_mean(goodput),
            goodput.len(),
            windows
                .get("wasted.ops")
                .map(|pts| overall_mean(pts))
                .unwrap_or(0.0)
        );
    }

    // Windowed abort-cause mix (covers capture traces with no counter dump).
    let cause_series: Vec<(&String, &Vec<WindowPoint>)> = windows
        .iter()
        .filter(|(name, _)| name.starts_with("abort.cause."))
        .collect();
    if !cause_series.is_empty() {
        section(&mut out, "windowed abort-cause mix");
        for (name, pts) in cause_series {
            let total: f64 = pts.iter().map(|p| p.mean * p.n as f64).sum();
            let _ = writeln!(
                out,
                "  {:<24} {:>8.0} across {} windows",
                name.trim_start_matches("abort.cause."),
                total,
                pts.len()
            );
        }
    }
    out
}

/// Render the view as one machine-readable JSON object (`--json`). Key
/// order is fixed and all maps are name-sorted, so equal traces yield
/// equal bytes.
pub fn render_json(trace: &Trace) -> String {
    let windows = windows_by_series(trace);
    let mut out = String::from("{\"schema\":");
    let _ = write!(out, "{}", trace.schema);

    out.push_str(",\"backends\":{");
    for (i, (backend, ledger)) in backend_ledgers(trace).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_str(&mut out, backend);
        let _ = write!(
            out,
            ":{{\"commits\":{},\"fallback_commits\":{},\"aborts\":{},\"causes\":{{",
            ledger.commits,
            ledger.fallback_commits,
            ledger.aborts()
        );
        for (j, (slug, n)) in ordered_causes(ledger).iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            encode_str(&mut out, slug);
            let _ = write!(out, ":{n}");
        }
        let _ = write!(
            out,
            "}},\"work_ops\":{},\"wasted_ops\":{},\"goodput_ratio\":",
            ledger.work_ops, ledger.wasted_ops
        );
        fnum(&mut out, ledger.goodput_ratio());
        out.push('}');
    }

    out.push_str("},\"vtime\":[");
    for (i, r) in vtime_cells(trace).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"machine\":");
        encode_str(&mut out, r.str("machine").unwrap_or("-"));
        out.push_str(",\"backend\":");
        encode_str(&mut out, r.str("backend").unwrap_or("?"));
        let _ = write!(
            out,
            ",\"threads\":{},\"aborts\":{},\"goodput_pm\":{},\"wasted_ops\":{}}}",
            r.u64("threads").unwrap_or(0),
            r.u64("aborts").unwrap_or(0),
            r.u64("goodput_pm").unwrap_or(0),
            r.u64("wasted_ops").unwrap_or(0),
        );
    }

    out.push_str("],\"stripes\":[");
    for (i, s) in stripe_rows(trace).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"machine\":");
        encode_str(&mut out, &s.machine);
        out.push_str(",\"backend\":");
        encode_str(&mut out, &s.backend);
        let _ = write!(
            out,
            ",\"rank\":{},\"stripe\":{},\"hits\":{}}}",
            s.rank, s.stripe, s.hits
        );
    }

    out.push_str("],\"series\":{");
    let observed: Vec<(&String, &Vec<WindowPoint>)> = windows
        .iter()
        .filter(|(name, _)| {
            name.starts_with("abort.cause.")
                || name.as_str() == "wasted.ops"
                || name.as_str() == "goodput.ratio"
                || name.as_str() == "conflict.stripe_topk"
        })
        .collect();
    for (i, (name, pts)) in observed.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_str(&mut out, name);
        let _ = write!(
            out,
            ":{{\"windows\":{},\"samples\":{},\"mean\":",
            pts.len(),
            pts.iter().map(|p| p.n).sum::<u64>()
        );
        fnum(&mut out, overall_mean(pts));
        out.push('}');
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_trace;

    fn trace_of(lines: &[&str]) -> Trace {
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
    fn ledgers_fold_the_counter_dump() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"counter","name":"tx.commit.tl2","value":90}"#,
            r#"{"seq":1,"kind":"counter","name":"tx.abort.tl2.conflict","value":10}"#,
            r#"{"seq":2,"kind":"counter","name":"tx.abort.tl2.spurious","value":2}"#,
            r#"{"seq":3,"kind":"counter","name":"tx.work.tl2.ops","value":900}"#,
            r#"{"seq":4,"kind":"counter","name":"tx.wasted.tl2.ops","value":100}"#,
            r#"{"seq":5,"kind":"counter","name":"tx.commit.htm","value":50}"#,
            r#"{"seq":6,"kind":"counter","name":"tx.commit.htm.fallback","value":5}"#,
        ]);
        let ledgers = backend_ledgers(&t);
        assert_eq!(ledgers.len(), 2);
        let tl2 = &ledgers["tl2"];
        assert_eq!(tl2.commits, 90);
        assert_eq!(tl2.aborts(), 12);
        assert_eq!(tl2.goodput_ratio(), 0.9);
        assert_eq!(ledgers["htm"].fallback_commits, 5);
        let text = render(&t);
        assert!(text.contains("abort attribution"), "{text}");
        assert!(text.contains("causes: conflict x10, spurious x2"), "{text}");
        assert!(
            text.contains("overall goodput: 0.9000 (900 committed / 1000 total ops)"),
            "{text}"
        );
    }

    #[test]
    fn cause_order_is_canonical_not_alphabetical() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"counter","name":"tx.abort.htm.spurious","value":1}"#,
            r#"{"seq":1,"kind":"counter","name":"tx.abort.htm.capacity","value":3}"#,
            r#"{"seq":2,"kind":"counter","name":"tx.abort.htm.conflict","value":2}"#,
        ]);
        let text = render(&t);
        assert!(
            text.contains("causes: conflict x2, capacity x3, spurious x1"),
            "{text}"
        );
    }

    #[test]
    fn vtime_cells_and_stripes_render_tables() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"vtime.conflict","machine":"machine-a","backend":"TL2","threads":8,"aborts":6,"goodput_pm":975,"wasted_ops":160}"#,
            r#"{"seq":1,"kind":"conflict.stripe","machine":"machine-a","backend":"TL2","rank":1,"stripe":31497,"hits":2}"#,
            r#"{"seq":2,"kind":"conflict.stripe","machine":"machine-a","backend":"TL2","rank":2,"stripe":32586,"hits":2}"#,
            r#"{"seq":3,"kind":"metrics.window","series":"vtime.machine-a.switch.latency_ns","window":0,"tick":9,"n":1,"mean":50000,"min":50000,"max":50000,"last":50000}"#,
        ]);
        let text = render(&t);
        assert!(text.contains("vtime conflict profile"), "{text}");
        assert!(
            text.contains("machine-a  TL2            8       6         975         160"),
            "{text}"
        );
        assert!(text.contains("hot stripes"), "{text}");
        assert!(
            text.contains("TL2      stripe 31497 x2, stripe 32586 x2"),
            "{text}"
        );
        assert!(text.contains("reconfig: switch 50000 vns"), "{text}");
    }

    #[test]
    fn goodput_timeline_pairs_windows_by_tick() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"metrics.window","series":"goodput.ratio","window":0,"tick":4,"n":2,"mean":0.95,"min":0.9,"max":1.0,"last":1.0}"#,
            r#"{"seq":1,"kind":"metrics.window","series":"kpi.throughput","window":0,"tick":4,"n":2,"mean":1200,"min":1000,"max":1400,"last":1400}"#,
            r#"{"seq":2,"kind":"metrics.window","series":"wasted.ops","window":0,"tick":4,"n":2,"mean":35,"min":30,"max":40,"last":30}"#,
        ]);
        let text = render(&t);
        assert!(
            text.contains("tick     4  goodput 0.9500  throughput 1200/s"),
            "{text}"
        );
        assert!(
            text.contains("overall: goodput 0.9500 over 1 windows, wasted.ops mean 35.0"),
            "{text}"
        );
    }

    #[test]
    fn json_view_is_stable_and_balanced() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"counter","name":"tx.commit.tl2","value":90}"#,
            r#"{"seq":1,"kind":"counter","name":"tx.abort.tl2.conflict","value":10}"#,
            r#"{"seq":2,"kind":"counter","name":"tx.work.tl2.ops","value":900}"#,
            r#"{"seq":3,"kind":"counter","name":"tx.wasted.tl2.ops","value":100}"#,
            r#"{"seq":4,"kind":"vtime.conflict","machine":"machine-a","backend":"TL2","threads":8,"aborts":6,"goodput_pm":975,"wasted_ops":160}"#,
            r#"{"seq":5,"kind":"conflict.stripe","machine":"machine-a","backend":"TL2","rank":1,"stripe":31497,"hits":2}"#,
            r#"{"seq":6,"kind":"metrics.window","series":"goodput.ratio","window":0,"tick":4,"n":2,"mean":0.95,"min":0.9,"max":1.0,"last":1.0}"#,
        ]);
        let a = render_json(&t);
        assert_eq!(a, render_json(&t), "stable bytes");
        assert!(a.starts_with(&format!("{{\"schema\":{}", obs::SCHEMA_VERSION)));
        assert!(
            a.contains("\"tl2\":{\"commits\":90,\"fallback_commits\":0,\"aborts\":10,\"causes\":{\"conflict\":10},\"work_ops\":900,\"wasted_ops\":100,\"goodput_ratio\":0.9}"),
            "{a}"
        );
        assert!(a.contains("\"machine\":\"machine-a\""), "{a}");
        assert!(a.contains("\"stripe\":31497"), "{a}");
        assert!(
            a.contains("\"goodput.ratio\":{\"windows\":1,\"samples\":2,\"mean\":0.95}"),
            "{a}"
        );
        assert!(a.ends_with("}\n"));
        let opens = a.matches(['{', '[']).count();
        let closes = a.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn empty_trace_renders_gracefully() {
        let t = trace_of(&[r#"{"seq":0,"kind":"fig4.start","rows":1}"#]);
        let text = render(&t);
        assert!(text.contains("(no tx.* counters in this trace)"), "{text}");
        let a = render_json(&t);
        assert!(a.contains("\"backends\":{}"), "{a}");
        assert!(a.contains("\"vtime\":[]"), "{a}");
    }
}
