//! The conflict-observatory view: abort attribution, wasted-work ledger
//! and hot-stripe tables (`proteus-trace conflicts`).
//!
//! [`render`] folds one trace's counters and events into a typed model and
//! formats it, so the view is byte-identical for byte-identical traces.
//! Two sources feed it:
//!
//! - **Wall-clock runs** dump per-backend counters at trace end
//!   (`tx.commit.<b>`, `tx.abort.<b>.<cause>`, `tx.work.<b>.ops`,
//!   `tx.wasted.<b>.ops`).
//! - **The vtime stage** emits `vtime.conflict` and `conflict.stripe`
//!   events carrying its exact-integer per-backend cells and top-K hot
//!   stripes.

use crate::{banner, section, Record, Trace};
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
struct Conflicts<'a> {
    /// Per-backend attribution from the counter dump, sorted by backend.
    ledgers: BTreeMap<String, BackendLedger>,
    /// Deterministic vtime conflict cells, in stream order.
    cells: Vec<Cell<'a>>,
    /// Hot stripes, in stream order.
    stripes: Vec<StripeRow<'a>>,
}

impl<'a> Conflicts<'a> {
    /// Fold `trace` into the conflict-observatory model.
    fn new(trace: &'a Trace) -> Conflicts<'a> {
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
        }
    }
}

/// Render the conflict-observatory view of one trace.
pub fn render(trace: &Trace) -> String {
    let view = Conflicts::new(trace);
    let mut out = banner("conflicts", trace.complete);

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

    // Hot-stripe tables, grouped per (machine, backend).
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
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::trace_of;

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
    }

    #[test]
    fn empty_trace_renders_gracefully() {
        let t = trace_of(&[r#"{"seq":0,"kind":"explore.start","config":1}"#]);
        let text = render(&t);
        assert!(text.contains("(no tx.* counters in this trace)"), "{text}");
    }
}
