//! Spans at the boundaries the benchmark can see from outside: recorded in
//! memory, written as JSON lines when the run ends. Spans inside the
//! program are a later issue; these bracket the calls into each layer.
//!
//! Each span has a name, start and end (nanoseconds since the recorder was
//! created), the id of the span that caused it, the id of the slice it
//! belongs to (shared by every span of one slice), and the counter deltas
//! taken at the same boundary.

use crate::json::{num, obj, string, Value};
use std::time::Instant;

/// Identifier of a recorded span; 0 is "no span" (the root's parent, and
/// what a switched-off recorder hands out).
pub type SpanId = u32;

struct Span {
    name: String,
    parent: SpanId,
    slice: u32,
    start_ns: u64,
    end_ns: u64,
    counters: Vec<(&'static str, u64)>,
}

/// The in-memory span log of one run.
pub struct Recorder {
    /// Whether spans are being recorded right now. Traced runs switch this
    /// off for every other round, which is what `benchmark.trace_overhead_pct`
    /// compares.
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder; `on` is false for end-to-end runs, which record nothing.
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span under `parent`, belonging to slice `slice`.
    pub fn begin(&mut self, name: &str, parent: SpanId, slice: u32) -> SpanId {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            slice,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            counters: Vec::new(),
        });
        self.spans.len() as SpanId
    }

    /// Close span `id` with the counter deltas taken at this boundary.
    pub fn end(&mut self, id: SpanId, counters: &[(&'static str, u64)]) {
        let now = self.origin.elapsed().as_nanos() as u64;
        if let Some(span) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            span.end_ns = now;
            span.counters = counters.to_vec();
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per line, in the order the spans were opened.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let line = obj(vec![
                ("id", num(i as u32 + 1)),
                ("parent", num(s.parent)),
                ("slice", num(s.slice)),
                ("name", string(s.name.as_str())),
                ("start_ns", num(s.start_ns as f64)),
                ("end_ns", num(s.end_ns as f64)),
                (
                    "counters",
                    Value::Obj(
                        s.counters
                            .iter()
                            .map(|(k, v)| (k.to_string(), num(*v as f64)))
                            .collect(),
                    ),
                ),
            ]);
            line.write(&mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn spans_nest_and_carry_their_counters() {
        let mut rec = Recorder::new(true);
        let root = rec.begin("tpcc_1t", 0, 0);
        let slice = rec.begin("slice", root, 7);
        let measure = rec.begin("measure", slice, 7);
        rec.end(measure, &[("commits", 40_000), ("aborts", 3)]);
        rec.end(slice, &[]);
        rec.end(root, &[]);
        let text = rec.to_jsonl();
        let lines: Vec<Value> = text.lines().map(|l| parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 3);
        let m = &lines[2];
        assert_eq!(m.get("name").unwrap().as_str(), Some("measure"));
        assert_eq!(m.get("parent").unwrap().as_f64(), Some(2.0));
        assert_eq!(m.get("slice").unwrap().as_f64(), Some(7.0));
        assert_eq!(
            m.get("counters").unwrap().get("commits").unwrap().as_f64(),
            Some(40_000.0)
        );
        let (start, end) = (
            m.get("start_ns").unwrap().as_f64().unwrap(),
            m.get("end_ns").unwrap().as_f64().unwrap(),
        );
        assert!(end >= start);
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut rec = Recorder::new(false);
        let id = rec.begin("slice", 0, 1);
        rec.end(id, &[("commits", 1)]);
        assert_eq!(id, 0);
        assert_eq!(rec.len(), 0);
        assert_eq!(rec.to_jsonl(), "");
    }
}
