//! Structural diff of two traces.
//!
//! The determinism contract says two runs with the same seed and
//! parameters produce byte-identical learning-path streams — the diff
//! exists to say *where* that breaks when it does: which kinds changed
//! counts, which counters drifted, and the first record where the streams
//! diverge.

use crate::spans::SpanForest;
use crate::{elide, Record, Trace};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

/// How many diverging counters / kinds to list before eliding.
const DIFF_LIMIT: usize = 40;

/// List the first [`DIFF_LIMIT`] names whose count differs between `a` and
/// `b` (absent counts as 0), one `row` each. Returns how many names the two
/// hold together, and how many of them differ.
fn diff_counts(
    out: &mut String,
    what: &str,
    a: &BTreeMap<String, u64>,
    b: &BTreeMap<String, u64>,
    row: impl Fn(&str, u64, u64) -> String,
) -> (usize, usize) {
    let names: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    let mut diffs = 0;
    for name in &names {
        let value = |side: &BTreeMap<String, u64>| side.get(*name).copied().unwrap_or(0);
        let (va, vb) = (value(a), value(b));
        if va != vb {
            diffs += 1;
            if diffs <= DIFF_LIMIT {
                let _ = writeln!(out, "{}", row(name, va, vb));
            }
        }
    }
    elide(out, diffs, DIFF_LIMIT, &format!("{what} diffs"));
    (names.len(), diffs)
}

/// Render a structural comparison of `a` and `b`. The boolean is true
/// when the traces are structurally identical (records and counters).
pub fn render(a: &Trace, b: &Trace) -> (String, bool) {
    let mut out = "=== proteus-trace diff ===\n".to_string();
    let mut identical = true;
    let _ = writeln!(
        out,
        "A: {} records, {} counters | B: {} records, {} counters",
        a.records.len(),
        a.counters.len(),
        b.records.len(),
        b.counters.len(),
    );

    // Per-kind record counts, then counter values, over the union of names.
    let (kinds, kind_diffs) = diff_counts(
        &mut out,
        "kind",
        a.kind_histogram(),
        b.kind_histogram(),
        |kind, ca, cb| format!("  kind {kind:<28} A={ca} B={cb}"),
    );
    if kind_diffs == 0 {
        let _ = writeln!(out, "  per-kind record counts: identical ({kinds} kinds)");
    }
    let (names, counter_diffs) = diff_counts(
        &mut out,
        "counter",
        &a.counters,
        &b.counters,
        |name, va, vb| {
            let delta = vb as i128 - va as i128;
            format!("  counter {name:<32} A={va} B={vb} ({delta:+})")
        },
    );
    if counter_diffs == 0 && names > 0 {
        let _ = writeln!(out, "  counters: identical ({names} names)");
    }
    identical &= kind_diffs + counter_diffs == 0;

    // First diverging record, comparing (seq, kind, fields) in order.
    let same = |(ra, rb): (&Record, &Record)| {
        (ra.seq, &ra.kind, &ra.fields) == (rb.seq, &rb.kind, &rb.fields)
    };
    let common = a.records.len().min(b.records.len());
    match a
        .records
        .iter()
        .zip(&b.records)
        .position(|pair| !same(pair))
    {
        Some(i) => {
            identical = false;
            let _ = writeln!(out, "  first divergence at record {i}:");
            for (side, r) in [("A", &a.records[i]), ("B", &b.records[i])] {
                let _ = writeln!(
                    out,
                    "    {side} line {}: kind={} {}",
                    r.line,
                    r.kind,
                    r.summary()
                );
            }
        }
        None if a.records.len() != b.records.len() => {
            identical = false;
            let (longer, extra) = match a.records.get(common) {
                Some(extra) => ("A", extra),
                None => ("B", &b.records[common]),
            };
            let _ = writeln!(
                out,
                "  records agree for the first {common}, then {longer} continues: kind={} {}",
                extra.kind,
                extra.summary()
            );
        }
        None => {
            let _ = writeln!(out, "  record streams: identical ({common} records)");
        }
    }

    // Span-level summary so gate/quiesce regressions stand out even when
    // counts happen to match.
    let spans = |t: &Trace| {
        let forest = SpanForest::build(&t.records);
        format!("{} ({} unclosed)", forest.nodes.len(), forest.unclosed())
    };
    let _ = writeln!(out, "  spans: A={} B={}", spans(a), spans(b));

    let verdict = match identical {
        true => "structurally identical",
        false => "traces differ",
    };
    let _ = writeln!(out, "verdict: {verdict}");
    (out, identical)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_of(body: &str) -> Trace {
        crate::tests::trace_of(&[body])
    }

    #[test]
    fn identical_traces_diff_clean() {
        let body = "{\"seq\":0,\"kind\":\"config.switch\",\"from\":\"a\",\"to\":\"b\"}\n\
                    {\"seq\":1,\"kind\":\"counter\",\"name\":\"c\",\"value\":3}\n";
        let (text, same) = render(&trace_of(body), &trace_of(body));
        assert!(same, "{text}");
        assert!(text.contains("structurally identical"));
    }

    #[test]
    fn field_divergence_is_located() {
        let a = trace_of("{\"seq\":0,\"kind\":\"config.switch\",\"to\":\"b\"}\n");
        let b = trace_of("{\"seq\":0,\"kind\":\"config.switch\",\"to\":\"c\"}\n");
        let (text, same) = render(&a, &b);
        assert!(!same);
        assert!(text.contains("first divergence at record 0"));
        assert!(text.contains("to=b"));
        assert!(text.contains("to=c"));
    }

    #[test]
    fn counter_and_length_drift_are_reported() {
        let a = trace_of("{\"seq\":0,\"kind\":\"counter\",\"name\":\"c\",\"value\":3}\n");
        let b = trace_of(
            "{\"seq\":0,\"kind\":\"counter\",\"name\":\"c\",\"value\":5}\n\
             {\"seq\":1,\"kind\":\"cusum.alarm\",\"metric\":\"abort\"}\n",
        );
        let (text, same) = render(&a, &b);
        assert!(!same);
        assert!(text.contains("counter c"));
        assert!(text.contains("(+2)"));
        assert!(text.contains("then B continues: kind=cusum.alarm"));
    }
}
