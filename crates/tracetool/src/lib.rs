//! `proteus-trace`: a decision-quality analyzer for the JSONL telemetry
//! stream emitted by the ProteusTM stack (`crates/obs`).
//!
//! The trace is the stack's flight recorder: every adaptation decision —
//! quiescence epochs, configuration switches, CUSUM alarms, EI exploration
//! steps, CV folds — is a record with a logical sequence number, and span
//! records add the hierarchy. This crate turns one or two such streams
//! into deterministic plain-text reports:
//!
//! * [`report::render`] — decision timeline, regret-to-oracle and
//!   steps-to-within-ε convergence, switch/quiescence span breakdowns and
//!   a fault-injection audit, from a single trace.
//! * [`diff::render`] — a structural comparison of two traces (per-kind
//!   counts, counter deltas, first diverging record).
//!
//! Everything is a pure function of the input bytes: same trace, same
//! report, byte for byte. That property is load-bearing — the repo's
//! determinism tests compare analyzer output across `PROTEUS_JOBS` values
//! (`crates/bench/tests/tracetool.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conflicts;
pub mod diff;
pub mod json;
pub mod perf;
pub mod report;
pub mod spans;
pub mod watch;

use json::JsonValue;
use std::collections::BTreeMap;
use std::fmt;

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

    /// `key` as f64 (integers widen).
    pub fn f64(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(JsonValue::as_f64)
    }

    /// `key` as a string slice.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(JsonValue::as_str)
    }

    /// Compact `k=v` rendering of all fields except `seq`/`kind`.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.fields {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(k);
            out.push('=');
            out.push_str(&v.display());
        }
        out
    }
}

/// A fully parsed trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Schema version from the `trace.meta` header.
    pub schema: u32,
    /// Event and span records, in stream order (header and trailing
    /// counter dump excluded).
    pub records: Vec<Record>,
    /// The trailing counter dump (`{"kind":"counter",...}` lines), sorted
    /// by name as written by `obs::finish_trace`.
    pub counters: BTreeMap<String, u64>,
}

impl Trace {
    /// Records of one kind, in stream order.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Record> {
        self.records.iter().filter(move |r| r.kind == kind)
    }

    /// Number of records of one kind.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.of_kind(kind).count()
    }

    /// A counter from the trailing dump (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Per-kind record counts, sorted by kind.
    pub fn kind_histogram(&self) -> BTreeMap<&str, usize> {
        let mut out = BTreeMap::new();
        for r in &self.records {
            *out.entry(r.kind.as_str()).or_insert(0) += 1;
        }
        out
    }
}

/// Why a trace failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The stream has no lines at all (e.g. a `--no-default-features`
    /// build wrote it, or the path was wrong).
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
        /// The one version this binary reads.
        supported: u32,
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
                "empty trace: no lines at all (was the emitter built \
                 without the `telemetry` feature?)"
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
            TraceError::UnsupportedSchema { found, supported } => write!(
                f,
                "unsupported trace schema {found} (this proteus-trace \
                 understands schema {supported}); re-run the \
                 analyzer from the toolchain that produced the trace"
            ),
            TraceError::Malformed { line, msg } => write!(f, "line {line}: {msg}"),
        }
    }
}

/// Normalize line-ending and encoding quirks a trace file may pick up in
/// transit (a checkout with `autocrlf`, an editor save, a shell
/// redirection on Windows): strip a UTF-8 BOM, turn `\r\n` and lone `\r`
/// terminators into `\n`. Borrows when the text is already clean — the
/// common case pays one scan and no allocation.
fn normalize(text: &str) -> std::borrow::Cow<'_, str> {
    let text = text.strip_prefix('\u{feff}').unwrap_or(text);
    if !text.contains('\r') {
        return std::borrow::Cow::Borrowed(text);
    }
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\r' {
            if chars.peek() == Some(&'\n') {
                chars.next();
            }
            out.push('\n');
        } else {
            out.push(c);
        }
    }
    std::borrow::Cow::Owned(out)
}

/// Check the schema header, the first non-blank line of every trace
/// (`line_no` is 1-based). The one statement of the header contract:
/// [`parse_trace`] and [`watch::Watcher`] both call it.
///
/// The line must be the `trace.meta` record with `schema` equal to
/// [`obs::SCHEMA_VERSION`]; anything else is a hard error — skew between
/// emitter and analyzer must fail loudly, not produce a half-right report.
pub(crate) fn check_header(line_no: usize, line: &str) -> Result<(), TraceError> {
    let header =
        json::parse_object(line).map_err(|_| TraceError::MissingHeader { first_kind: None })?;
    let kind = header
        .iter()
        .find(|(k, _)| k == "kind")
        .and_then(|(_, v)| v.as_str());
    if kind != Some("trace.meta") {
        return Err(TraceError::MissingHeader {
            first_kind: kind.map(str::to_string),
        });
    }
    let schema = header
        .iter()
        .find(|(k, _)| k == "schema")
        .and_then(|(_, v)| v.as_u64())
        .ok_or(TraceError::Malformed {
            line: line_no,
            msg: "trace.meta header lacks a numeric \"schema\" field".to_string(),
        })?;
    if schema != obs::SCHEMA_VERSION as u64 {
        return Err(TraceError::UnsupportedSchema {
            found: schema,
            supported: obs::SCHEMA_VERSION,
        });
    }
    Ok(())
}

/// Parse a JSONL trace, enforcing the schema header contract
/// (`check_header`).
///
/// CRLF / lone-CR line endings, trailing whitespace and a UTF-8 BOM are
/// tolerated (normalized away before parsing).
pub fn parse_trace(text: &str) -> Result<Trace, TraceError> {
    let text = normalize(text);
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let Some((header_idx, header_line)) = lines.next() else {
        return Err(TraceError::Empty);
    };
    check_header(header_idx + 1, header_line)?;

    let mut records = Vec::new();
    let mut counters = BTreeMap::new();
    for (idx, line) in lines {
        let line_no = idx + 1;
        let fields =
            json::parse_object(line).map_err(|msg| TraceError::Malformed { line: line_no, msg })?;
        let mut seq = None;
        let mut kind = None;
        let mut rest = Vec::with_capacity(fields.len());
        for (k, v) in fields {
            match k.as_str() {
                "seq" => seq = v.as_u64(),
                "kind" => kind = v.as_str().map(str::to_string),
                _ => rest.push((k, v)),
            }
        }
        let kind = kind.ok_or(TraceError::Malformed {
            line: line_no,
            msg: "record lacks a \"kind\" field".to_string(),
        })?;
        if kind == "counter" {
            let record = Record {
                line: line_no,
                seq,
                kind,
                fields: rest,
            };
            let (Some(name), Some(value)) = (record.str("name"), record.u64("value")) else {
                return Err(TraceError::Malformed {
                    line: line_no,
                    msg: "counter record lacks name/value".to_string(),
                });
            };
            counters.insert(name.to_string(), value);
        } else {
            records.push(Record {
                line: line_no,
                seq,
                kind,
                fields: rest,
            });
        }
    }
    Ok(Trace {
        schema: obs::SCHEMA_VERSION,
        records,
        counters,
    })
}

/// Distance-from-optimum of `chosen` against `optimal` — same definition
/// as `recsys::dfo` (duplicated to keep this crate's dependency surface at
/// `obs` only): relative KPI gap, 0 when the optimum is (near) zero.
pub fn dfo(optimal: f64, chosen: f64) -> f64 {
    if optimal.abs() < 1e-12 {
        0.0
    } else {
        (optimal - chosen).abs() / optimal.abs()
    }
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

    #[test]
    fn parses_header_records_and_counters() {
        let text = format!(
            "{}\n{{\"seq\":0,\"kind\":\"config.switch\",\"from\":\"a\",\"to\":\"b\"}}\n\
             {{\"seq\":1,\"kind\":\"counter\",\"name\":\"tx.commit.tl2\",\"value\":7}}\n",
            header()
        );
        let trace = parse_trace(&text).unwrap();
        assert_eq!(trace.schema, obs::SCHEMA_VERSION);
        assert_eq!(trace.records.len(), 1);
        assert_eq!(trace.records[0].kind, "config.switch");
        assert_eq!(trace.records[0].seq, Some(0));
        assert_eq!(trace.records[0].str("to"), Some("b"));
        assert_eq!(trace.counter("tx.commit.tl2"), 7);
        assert_eq!(trace.counter("absent"), 0);
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
            assert_eq!(
                err,
                TraceError::UnsupportedSchema {
                    found,
                    supported: obs::SCHEMA_VERSION
                }
            );
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
            assert_eq!(got.schema, want.schema, "{label}");
            assert_eq!(got.records.len(), want.records.len(), "{label}");
            assert_eq!(got.records[0].kind, "config.switch", "{label}");
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

    #[test]
    fn dfo_matches_the_recsys_definition() {
        assert_eq!(dfo(10.0, 10.0), 0.0);
        assert_eq!(dfo(10.0, 5.0), 0.5);
        assert_eq!(dfo(10.0, 12.0), 0.2);
        assert_eq!(dfo(0.0, 5.0), 0.0);
    }
}
