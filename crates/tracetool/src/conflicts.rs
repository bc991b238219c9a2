//! The conflict-observatory view: abort attribution, wasted-work ledger,
//! hot-stripe tables and goodput timelines (`proteus-trace conflicts`).
//!
//! [`Conflicts::new`] folds one trace's counters, events and
//! `metrics.window` records into a typed model; [`plain`] and [`json`] only
//! format it, so the view is byte-identical for byte-identical traces. Two
//! sources feed it:
//!
//! - **Wall-clock runs** dump per-backend counters at trace end
//!   (`tx.commit.<b>`, `tx.abort.<b>.<cause>`, `tx.work.<b>.ops`,
//!   `tx.wasted.<b>.ops`).
//! - **The vtime stage** flushes `abort.cause.*` / `wasted.ops` /
//!   `goodput.ratio` / `conflict.stripe_topk` windows from its
//!   exact-integer conflict profiles, plus `vtime.conflict` and
//!   `conflict.stripe` events carrying the per-backend cells and top-K hot
//!   stripes.

use crate::perf::{SeriesAgg, WindowPoint, WINDOW_LIMIT};
use crate::{banner, elide, json_head, section, Record, Trace};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Canonical abort-cause order. Mirrors `txcore::AbortCode::ALL`; the
/// analyzer deliberately has no txcore dependency (it only *reads*
/// traces), so the order is pinned here and unknown causes sort after it.
const CAUSE_ORDER: [&str; 6] = [
    "conflict", "capacity", "explicit", "fallback", "spurious", "journal",
];

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
    type Ledgers = BTreeMap<String, BackendLedger>;
    fn of<'a>(out: &'a mut Ledgers, backend: &str) -> &'a mut BackendLedger {
        out.entry(backend.to_string()).or_default()
    }
    let mut out = Ledgers::new();
    for (name, &value) in &trace.counters {
        // `tx.<what>.<backend>[.<tail>]`: a backend name holds no dot.
        let mut parts = name.strip_prefix("tx.").unwrap_or("").splitn(3, '.');
        let (Some(what), Some(b)) = (parts.next(), parts.next()) else {
            continue;
        };
        match (what, parts.next()) {
            ("commit", None) => of(&mut out, b).commits = value,
            ("commit", Some("fallback")) => of(&mut out, b).fallback_commits = value,
            ("abort", Some(cause)) => drop(of(&mut out, b).causes.insert(cause.to_string(), value)),
            ("work", Some("ops")) => of(&mut out, b).work_ops = value,
            ("wasted", Some("ops")) => of(&mut out, b).wasted_ops = value,
            _ => {}
        }
    }
    out
}

/// Causes of one ledger that fired, in canonical order (unknown slugs
/// after, sorted).
fn ordered_causes(ledger: &BackendLedger) -> Vec<(&str, u64)> {
    let fired = ledger.causes.iter().filter(|(_, &n)| n > 0);
    let mut out: Vec<(&str, u64)> = fired.map(|(slug, &n)| (slug.as_str(), n)).collect();
    // Stable, and the map is name-sorted: unknown slugs stay in that order.
    let rank = |slug: &str| CAUSE_ORDER.iter().position(|&known| known == slug);
    out.sort_by_key(|(slug, _)| rank(slug).unwrap_or(usize::MAX));
    out
}

/// One hot-stripe row from a `conflict.stripe` event.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StripeRow<'a> {
    machine: &'a str,
    backend: &'a str,
    rank: u64,
    stripe: u64,
    hits: u64,
}

/// One `vtime.conflict` event: a backend's exact conflict profile at one
/// thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cell<'a> {
    machine: &'a str,
    backend: &'a str,
    threads: u64,
    aborts: u64,
    goodput_pm: u64,
    wasted_ops: u64,
}

/// Everything `proteus-trace conflicts` says about one trace.
pub struct Conflicts<'a> {
    /// Per-backend attribution from the counter dump, sorted by backend.
    ledgers: BTreeMap<String, BackendLedger>,
    /// Deterministic vtime conflict cells, in stream order.
    cells: Vec<Cell<'a>>,
    /// Hot stripes, in stream order.
    stripes: Vec<StripeRow<'a>>,
    windows: &'a BTreeMap<String, Vec<WindowPoint>>,
    complete: bool,
}

impl<'a> Conflicts<'a> {
    /// Fold `trace` into the conflict-observatory model.
    pub fn new(trace: &'a Trace) -> Conflicts<'a> {
        let cell = |r: &'a Record| Cell {
            machine: r.str("machine").unwrap_or("-"),
            backend: r.str("backend").unwrap_or("?"),
            threads: r.u64("threads").unwrap_or(0),
            aborts: r.u64("aborts").unwrap_or(0),
            goodput_pm: r.u64("goodput_pm").unwrap_or(0),
            wasted_ops: r.u64("wasted_ops").unwrap_or(0),
        };
        let stripe = |r: &'a Record| {
            Some(StripeRow {
                machine: r.str("machine").unwrap_or("-"),
                backend: r.str("backend").unwrap_or("?"),
                rank: r.u64("rank")?,
                stripe: r.u64("stripe")?,
                hits: r.u64("hits").unwrap_or(0),
            })
        };
        Conflicts {
            ledgers: backend_ledgers(trace),
            cells: trace.of_kind("vtime.conflict").map(cell).collect(),
            stripes: trace
                .of_kind("conflict.stripe")
                .filter_map(stripe)
                .collect(),
            windows: trace.windows(),
            complete: trace.complete,
        }
    }

    /// Overall mean of one windowed series, when the trace has it.
    fn mean(&self, series: &str) -> Option<f64> {
        self.windows.get(series).map(|pts| SeriesAgg::of(pts).mean)
    }

    /// The switch/resize latencies of one machine's vtime run, read back
    /// from its `vtime.<machine>.{switch,resize}.*` windows (hot-stripe
    /// tables are rendered next to these so heatmaps line up with the
    /// reconfiguration spans measured in the same run).
    fn reconfig_line(&self, machine: &str) -> Option<String> {
        let mean = |metric: &str| self.mean(&format!("vtime.{machine}.{metric}"));
        Some(format!(
            "switch {:.0} vns, resize shrink {:.0} vns / grow {:.0} vns",
            mean("switch.latency_ns")?,
            mean("resize.shrink_ns").unwrap_or(0.0),
            mean("resize.grow_ns").unwrap_or(0.0)
        ))
    }
}

/// Render the conflict-observatory report as text.
pub fn plain(view: &Conflicts) -> String {
    let mut out = banner("conflicts", view.complete);

    section(&mut out, "abort attribution & wasted work (per backend)");
    if view.ledgers.is_empty() {
        let _ = writeln!(out, "(no tx.* counters in this trace)");
    } else {
        out.push_str("  backend     commits  fallback  aborts   work_ops     wasted  goodput\n");
        for (backend, l) in &view.ledgers {
            let goodput = l.goodput_ratio();
            let _ = writeln!(
                out,
                "  {backend:<10} {:>8} {:>9} {:>7} {:>10} {:>10} {goodput:>8.4}",
                l.commits,
                l.fallback_commits,
                l.aborts(),
                l.work_ops,
                l.wasted_ops
            );
            let causes = ordered_causes(l);
            if !causes.is_empty() {
                let list: Vec<String> = causes.iter().map(|(s, n)| format!("{s} x{n}")).collect();
                let _ = writeln!(out, "    causes: {}", list.join(", "));
            }
        }
        let work: u64 = view.ledgers.values().map(|l| l.work_ops).sum();
        let total = work + view.ledgers.values().map(|l| l.wasted_ops).sum::<u64>();
        if total > 0 {
            let _ = writeln!(
                out,
                "  overall goodput: {:.4} ({work} committed / {total} total ops)",
                work as f64 / total as f64
            );
        }
    }

    if !view.cells.is_empty() {
        section(&mut out, "vtime conflict profile (exact cross-host)");
        out.push_str("  machine    backend  threads  aborts  goodput_pm  wasted_ops\n");
        for c in &view.cells {
            let _ = writeln!(
                out,
                "  {:<10} {:<8} {:>7} {:>7} {:>11} {:>11}",
                c.machine, c.backend, c.threads, c.aborts, c.goodput_pm, c.wasted_ops,
            );
        }
    }

    // Hot-stripe tables, grouped per (machine, backend) and rendered next
    // to that machine's switch/resize latencies so the heatmap lines up
    // with the reconfiguration spans of the same run.
    if !view.stripes.is_empty() {
        section(&mut out, "hot stripes (top-K per backend)");
        let mut by_machine: BTreeMap<&str, BTreeMap<&str, Vec<&StripeRow>>> = BTreeMap::new();
        for s in &view.stripes {
            let by_backend = by_machine.entry(s.machine).or_default();
            by_backend.entry(s.backend).or_default().push(s);
        }
        for (machine, by_backend) in by_machine {
            let _ = writeln!(out, "  {machine}:");
            for (backend, mut rows) in by_backend {
                rows.sort_by_key(|s| s.rank);
                let hot = |s: &&StripeRow| format!("stripe {} x{}", s.stripe, s.hits);
                let list: Vec<String> = rows.iter().map(hot).collect();
                let _ = writeln!(out, "    {backend:<8} {}", list.join(", "));
            }
            if let Some(line) = view.reconfig_line(machine) {
                let _ = writeln!(out, "    reconfig: {line}");
            }
        }
    }

    // Goodput-vs-throughput timeline from the windowed series.
    if let Some(goodput) = view.windows.get("goodput.ratio") {
        section(&mut out, "goodput timeline (windows)");
        let at_tick = |series: &str, tick: u64| -> Option<f64> {
            let pts = view.windows.get(series)?;
            pts.iter().find(|p| p.tick == tick).map(|p| p.mean)
        };
        for p in goodput.iter().take(WINDOW_LIMIT) {
            let mut line = format!("  tick {:>5}  goodput {:.4}", p.tick, p.mean);
            if let Some(v) = at_tick("kpi.throughput", p.tick) {
                let _ = write!(line, "  throughput {v:.0}/s");
            }
            if let Some(v) = at_tick("kpi.commits", p.tick) {
                let _ = write!(line, "  commits {v:.0}");
            }
            let _ = writeln!(out, "{line}");
        }
        elide(&mut out, goodput.len(), WINDOW_LIMIT, "windows");
        let _ = writeln!(
            out,
            "  overall: goodput {:.4} over {} windows, wasted.ops mean {:.1}",
            SeriesAgg::of(goodput).mean,
            goodput.len(),
            view.mean("wasted.ops").unwrap_or(0.0)
        );
    }

    // Windowed `abort.cause.*` series (covers capture traces, which have no
    // counter dump).
    let causes = view.windows.iter();
    let causes = causes.filter_map(|(name, pts)| Some((name.strip_prefix("abort.cause.")?, pts)));
    let causes: Vec<(&str, &Vec<WindowPoint>)> = causes.collect();
    if !causes.is_empty() {
        section(&mut out, "windowed abort-cause mix");
        for (slug, pts) in causes {
            let total: f64 = pts.iter().map(|p| p.mean * p.n as f64).sum();
            let _ = writeln!(
                out,
                "  {slug:<24} {total:>8.0} across {} windows",
                pts.len()
            );
        }
    }
    out
}

/// Render the view as one machine-readable JSON object (`--json`). Key
/// order is fixed and all maps are name-sorted, so equal traces yield
/// equal bytes.
pub fn json(view: &Conflicts) -> String {
    let mut w = json_head(view.complete);

    w.key("backends").open('{');
    for (backend, l) in &view.ledgers {
        w.key(backend).open('{').key("commits").raw(l.commits);
        w.key("fallback_commits").raw(l.fallback_commits);
        w.key("aborts").raw(l.aborts()).key("causes").open('{');
        for (slug, n) in ordered_causes(l) {
            w.key(slug).raw(n);
        }
        w.close('}').key("work_ops").raw(l.work_ops);
        w.key("wasted_ops").raw(l.wasted_ops);
        w.key("goodput_ratio").f64(l.goodput_ratio()).close('}');
    }

    w.close('}').key("vtime").open('[');
    for c in &view.cells {
        w.open('{').key("machine").str(c.machine);
        w.key("backend").str(c.backend);
        w.key("threads").raw(c.threads);
        w.key("aborts").raw(c.aborts);
        w.key("goodput_pm").raw(c.goodput_pm);
        w.key("wasted_ops").raw(c.wasted_ops).close('}');
    }

    w.close(']').key("stripes").open('[');
    for s in &view.stripes {
        w.open('{').key("machine").str(s.machine);
        w.key("backend").str(s.backend).key("rank").raw(s.rank);
        w.key("stripe").raw(s.stripe);
        w.key("hits").raw(s.hits).close('}');
    }

    w.close(']').key("series").open('{');
    let observed = |name: &str| {
        name.starts_with("abort.cause.")
            || ["wasted.ops", "goodput.ratio", "conflict.stripe_topk"].contains(&name)
    };
    for (name, pts) in view.windows.iter().filter(|(name, _)| observed(name)) {
        w.key(name).open('{');
        SeriesAgg::of(pts).json(&mut w);
        w.close('}');
    }
    w.close('}').close('}');
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::trace_of;

    fn render(trace: &Trace) -> String {
        plain(&Conflicts::new(trace))
    }

    fn render_json(trace: &Trace) -> String {
        json(&Conflicts::new(trace))
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
