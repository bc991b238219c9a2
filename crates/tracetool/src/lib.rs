//! `proteus-trace`: a decision-quality analyzer for the JSONL telemetry
//! stream emitted by the ProteusTM stack (`crates/obs`).
//!
//! The trace is the stack's record of a run: every adaptation decision —
//! quiescence epochs, configuration switches, CUSUM alarms, EI exploration
//! steps, CV folds — is a record with a logical sequence number, and span
//! records add the hierarchy. This crate turns one such stream into
//! deterministic reports, in two steps with one owner each:
//!
//! * [`parse_trace`] is the only code that reads trace text: lines,
//!   header contract, counter dump, end-of-trace marker.
//! * Each view ([`report`], [`conflicts`]) is one
//!   `render(&Trace) -> String`: one plain text.
//!
//! Everything is a pure function of the input bytes: same trace, same
//! report, byte for byte. That property is load-bearing — the repo's
//! determinism tests compare analyzer output across `--jobs` values
//! (`crates/bench/tests/tracetool.rs`). Two traces are compared with
//! `cmp`, never with a view.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conflicts;
pub mod json;
mod reader;
pub mod report;
pub mod spans;

use json::JsonValue;
pub use reader::parse_trace;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// One parsed trace record (event or span begin/end).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// 1-based line number in the source stream (for error messages).
    pub line: usize,
    /// Logical sequence number, when present.
    pub seq: Option<u64>,
    /// Event kind (`"config.switch"`, `"span.begin"`, ...).
    pub kind: String,
    /// Remaining fields, in stream order.
    pub fields: Vec<(String, JsonValue)>,
}

impl Record {
    /// First field named `key`.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// `key` as u64.
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(JsonValue::as_u64)
    }

    /// `key` as a string slice.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(JsonValue::as_str)
    }

    /// Whether this is the `obs.overhead` total record that ends a trace.
    pub fn is_trailer(&self) -> bool {
        self.kind == "obs.overhead" && self.str("subsystem") == Some("total")
    }

    /// Compact `k=v` rendering of all fields except `seq`/`kind`.
    pub fn summary(&self) -> String {
        let pairs = self
            .fields
            .iter()
            .map(|(k, v)| format!("{k}={}", v.display()));
        pairs.collect::<Vec<_>>().join(" ")
    }
}

/// A fully parsed trace: the records, plus the folds every view asks for,
/// built once while reading.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Event and span records, in stream order (header and counter dump
    /// excluded).
    pub records: Vec<Record>,
    /// The counter dump (`{"kind":"counter",...}` lines), sorted by name
    /// as written by `obs::finish_trace`.
    pub counters: BTreeMap<String, u64>,
    /// Whether the end-of-trace trailer ([`Record::is_trailer`]) was read.
    /// Without it the writer died or is still running: the counter dump
    /// is missing and every total is a lower bound.
    pub complete: bool,
    kinds: BTreeMap<String, u64>,
}

impl Trace {
    /// Append the next record of the stream, updating the folds.
    fn push(&mut self, record: Record) {
        *self.kinds.entry(record.kind.clone()).or_insert(0) += 1;
        self.records.push(record);
    }

    /// Records of one kind, in stream order.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Record> {
        self.records.iter().filter(move |r| r.kind == kind)
    }

    /// Number of records of one kind.
    pub fn count_kind(&self, kind: &str) -> u64 {
        self.kinds.get(kind).copied().unwrap_or(0)
    }

    /// Per-kind record counts, sorted by kind.
    pub fn kind_histogram(&self) -> &BTreeMap<String, u64> {
        &self.kinds
    }
}

/// Why a trace failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The stream has no lines at all (the writer died before its schema
    /// header, or the path was wrong).
    Empty,
    /// The first line is not a `trace.meta` schema header.
    MissingHeader {
        /// Kind of the first record, when it parsed at all.
        first_kind: Option<String>,
    },
    /// The header names a schema other than [`obs::SCHEMA_VERSION`].
    UnsupportedSchema {
        /// Version found in the stream.
        found: u64,
    },
    /// A line failed to parse or lacks mandatory structure.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Empty => write!(
                f,
                "empty trace: no lines at all, not even the schema header"
            ),
            TraceError::MissingHeader { first_kind } => write!(
                f,
                "missing schema header: the first line must be \
                 {{\"kind\":\"trace.meta\",\"schema\":N}}, found {}",
                match first_kind {
                    Some(k) => format!("a {k:?} record"),
                    None => "an unparseable line".to_string(),
                }
            ),
            TraceError::UnsupportedSchema { found } => write!(
                f,
                "unsupported trace schema {found} (this proteus-trace \
                 understands schema {}); re-run the \
                 analyzer from the toolchain that produced the trace",
                obs::SCHEMA_VERSION
            ),
            TraceError::Malformed { line, msg } => write!(f, "line {line}: {msg}"),
        }
    }
}

/// The first line of a plain-text view — and, for a trace without its
/// trailer, the line that says so: a dead writer is a visible state.
pub(crate) fn banner(view: &str, complete: bool) -> String {
    let schema = obs::SCHEMA_VERSION;
    let mut out = format!("=== proteus-trace {view} (schema {schema}) ===\n");
    if !complete {
        out.push_str(
            "INCOMPLETE: no end-of-trace trailer — the writer died or is still running; \
             counters are missing and totals are lower bounds\n",
        );
    }
    out
}

/// Say how many rows a listing capped at `limit` left out, if any.
pub(crate) fn elide(out: &mut String, total: usize, limit: usize, what: &str) {
    if total > limit {
        let _ = writeln!(out, "  ... ({} more {what})", total - limit);
    }
}

/// Start a titled section of a plain-text view.
pub(crate) fn section(out: &mut String, title: &str) {
    let _ = writeln!(out, "\n-- {title} --");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> String {
        format!(
            "{{\"kind\":\"trace.meta\",\"schema\":{}}}",
            obs::SCHEMA_VERSION
        )
    }

    /// A trace of the current schema holding `lines` (the one helper every
    /// module's tests build their input with).
    pub(crate) fn trace_of<S: AsRef<str>>(lines: &[S]) -> Trace {
        let mut text = header() + "\n";
        for l in lines {
            text.push_str(l.as_ref());
            text.push('\n');
        }
        parse_trace(&text).unwrap()
    }

    #[test]
    fn parses_header_records_and_counters() {
        let text = format!(
            "{}\n{{\"seq\":0,\"kind\":\"config.switch\",\"from\":\"a\",\"to\":\"b\"}}\n\
             {{\"seq\":1,\"kind\":\"counter\",\"name\":\"tx.commit.tl2\",\"value\":7}}\n",
            header()
        );
        let trace = parse_trace(&text).unwrap();
        assert_eq!(trace.records.len(), 1);
        assert_eq!(trace.records[0].kind, "config.switch");
        assert_eq!(trace.records[0].seq, Some(0));
        assert_eq!(trace.records[0].str("to"), Some("b"));
        assert_eq!(trace.counters.get("tx.commit.tl2"), Some(&7));
        assert_eq!(trace.counters.get("absent"), None);
    }

    #[test]
    fn empty_stream_is_a_clear_error() {
        assert_eq!(parse_trace(""), Err(TraceError::Empty));
        assert_eq!(parse_trace("\n\n"), Err(TraceError::Empty));
    }

    #[test]
    fn missing_header_is_rejected() {
        let err = parse_trace("{\"seq\":0,\"kind\":\"config.switch\"}\n").unwrap_err();
        assert_eq!(
            err,
            TraceError::MissingHeader {
                first_kind: Some("config.switch".to_string())
            }
        );
        assert!(err.to_string().contains("trace.meta"));
    }

    #[test]
    fn other_schemas_are_rejected_with_the_supported_version_named() {
        for found in [1, 2, 3, 99] {
            let text = format!("{{\"kind\":\"trace.meta\",\"schema\":{found}}}\n");
            let err = parse_trace(&text).unwrap_err();
            assert_eq!(err, TraceError::UnsupportedSchema { found });
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("unsupported trace schema {found} ")),
                "{msg}"
            );
            assert!(
                msg.contains(&format!("understands schema {}", obs::SCHEMA_VERSION)),
                "{msg}"
            );
        }
    }

    #[test]
    fn crlf_and_trailing_whitespace_are_tolerated() {
        let unix = format!(
            "{}\n{{\"seq\":0,\"kind\":\"config.switch\",\"to\":\"b\"}}\n",
            header()
        );
        let crlf = unix.replace('\n', "\r\n");
        let cr_only = unix.replace('\n', "\r");
        let padded = format!(
            "{}   \n  {{\"seq\":0,\"kind\":\"config.switch\",\"to\":\"b\"}}\t\n",
            header()
        );
        let bom = format!("\u{feff}{unix}");
        let want = parse_trace(&unix).unwrap();
        for (label, text) in [
            ("crlf", &crlf),
            ("cr-only", &cr_only),
            ("padded", &padded),
            ("bom", &bom),
        ] {
            let got = parse_trace(text).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(got.records.len(), want.records.len(), "{label}");
            assert_eq!(got.records[0].kind, "config.switch", "{label}");
        }
    }

    #[test]
    fn complete_iff_the_trailer_was_read() {
        let trailer = |subsystem: &str| {
            format!("{{\"seq\":1,\"kind\":\"obs.overhead\",\"subsystem\":{subsystem:?}}}")
        };
        let cut = format!("{}\n{{\"seq\":0,\"kind\":\"config.switch\"}}\n", header());
        // Whole-file inputs: the last line may lack its terminator.
        for (text, complete) in [
            (format!("{cut}{}\n", trailer("total")), true),
            (format!("{cut}{}", trailer("total")), true),
            (format!("{cut}{}\n", trailer("metrics")), false),
            (cut.clone(), false),
        ] {
            for text in [text.replace('\n', "\r\n"), text] {
                assert_eq!(parse_trace(&text).unwrap().complete, complete, "{text:?}");
            }
        }
    }

    #[test]
    fn malformed_lines_carry_their_line_number() {
        let text = format!("{}\nnot json\n", header());
        match parse_trace(&text).unwrap_err() {
            TraceError::Malformed { line, .. } => assert_eq!(line, 2),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
