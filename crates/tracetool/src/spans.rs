//! Rebuild the span hierarchy from `span.begin` / `span.end` records.
//!
//! The emitter assigns ids (and parent links for scoped spans) at emit
//! time under the trace lock, so the tree is fully encoded in the record
//! fields — this module only has to index it and flag the pathologies a
//! report should surface (unclosed spans, orphan ends).

use crate::Record;
use std::collections::BTreeMap;

/// One reconstructed span.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Logical span id (1-based, unique per trace).
    pub id: u64,
    /// Enclosing scoped span, when any.
    pub parent: Option<u64>,
    /// Span name from the begin record (`"?"` when missing).
    pub name: String,
    /// Index of the end record, when the span closed.
    pub end: Option<usize>,
    /// Wall-clock duration from the end record, for timed spans on
    /// serial-protocol paths (absent on the deterministic learning path).
    pub duration_ns: Option<u64>,
    /// Child span ids, in begin order.
    pub children: Vec<u64>,
}

/// All spans of a trace, indexed by id.
#[derive(Debug, Clone, Default)]
pub struct SpanForest {
    /// Spans by id.
    pub nodes: BTreeMap<u64, SpanNode>,
    /// Ids of spans with no parent, in begin order.
    pub roots: Vec<u64>,
    /// `span.end` records with no id or an id that never began — an
    /// instrumentation bug worth flagging.
    pub orphan_ends: usize,
}

impl SpanForest {
    /// Rebuild the forest from the record stream.
    pub fn build(records: &[Record]) -> SpanForest {
        let mut forest = SpanForest::default();
        for (idx, r) in records.iter().enumerate() {
            match r.kind.as_str() {
                "span.begin" => {
                    let Some(id) = r.u64("id") else {
                        forest.orphan_ends += 1;
                        continue;
                    };
                    let parent = r.u64("parent");
                    let node = SpanNode {
                        id,
                        parent,
                        name: r.str("name").unwrap_or("?").to_string(),
                        end: None,
                        duration_ns: None,
                        children: Vec::new(),
                    };
                    match parent.and_then(|p| forest.nodes.get_mut(&p)) {
                        Some(p) => p.children.push(id),
                        None => forest.roots.push(id),
                    }
                    forest.nodes.insert(id, node);
                }
                "span.end" => match r.u64("id").and_then(|id| forest.nodes.get_mut(&id)) {
                    Some(node) => {
                        node.end = Some(idx);
                        node.duration_ns = r.u64("duration_ns");
                    }
                    None => forest.orphan_ends += 1,
                },
                _ => {}
            }
        }
        forest
    }

    /// Number of spans that never closed.
    pub fn unclosed(&self) -> usize {
        self.nodes.values().filter(|n| n.end.is_none()).count()
    }

    /// Per-name aggregate: (count, closed, timed, total_ns, max_ns),
    /// sorted by name.
    pub fn aggregate(&self) -> BTreeMap<&str, SpanAgg> {
        let mut out: BTreeMap<&str, SpanAgg> = BTreeMap::new();
        for n in self.nodes.values() {
            let agg = out.entry(n.name.as_str()).or_default();
            agg.count += 1;
            agg.closed += n.end.is_some() as usize;
            if let Some(d) = n.duration_ns {
                agg.timed += 1;
                agg.total_ns += d;
                agg.max_ns = agg.max_ns.max(d);
            }
        }
        out
    }
}

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanAgg {
    /// Spans begun.
    pub count: usize,
    /// Spans that also ended.
    pub closed: usize,
    /// Spans carrying a wall-clock duration.
    pub timed: usize,
    /// Sum of those durations.
    pub total_ns: u64,
    /// Largest single duration.
    pub max_ns: u64,
}

impl SpanAgg {
    /// Mean duration over the timed spans (0 when none).
    pub fn mean_ns(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.timed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::trace_of;

    #[test]
    fn rebuilds_nesting_and_durations() {
        let t = trace_of(&[
            r#"{"seq":0,"kind":"span.begin","id":1,"name":"switch"}"#,
            r#"{"seq":1,"kind":"span.begin","id":2,"parent":1,"name":"quiesce.drain"}"#,
            r#"{"seq":2,"kind":"span.end","id":2,"name":"quiesce.drain","duration_ns":500}"#,
            r#"{"seq":3,"kind":"span.end","id":1,"name":"switch","duration_ns":900}"#,
            r#"{"seq":4,"kind":"span.begin","id":3,"name":"explore"}"#,
        ]);
        let f = SpanForest::build(&t.records);
        assert_eq!(f.nodes.len(), 3);
        assert_eq!(f.roots, vec![1, 3]);
        assert_eq!(f.nodes[&1].children, vec![2]);
        assert_eq!(f.nodes[&2].parent, Some(1));
        assert_eq!(f.nodes[&2].duration_ns, Some(500));
        assert_eq!(f.unclosed(), 1);
        assert_eq!(f.orphan_ends, 0);
        let agg = f.aggregate();
        assert_eq!(agg["switch"].timed, 1);
        assert_eq!(agg["switch"].total_ns, 900);
        assert_eq!(agg["quiesce.drain"].mean_ns(), 500.0);
    }

    #[test]
    fn orphan_ends_are_counted_not_fatal() {
        let t = trace_of(&[r#"{"seq":0,"kind":"span.end","name":"orphan"}"#]);
        let f = SpanForest::build(&t.records);
        assert_eq!(f.orphan_ends, 1);
        assert!(f.nodes.is_empty());
    }
}
