//! The one reader of trace bytes.
//!
//! [`TraceReader`] is incremental — bytes in, [`Record`]s out
//! ([`crate::parse_trace`]: feed everything, finish). Because it buffers
//! the line still arriving, the record stream is a function of the byte
//! *sequence* alone: any chunking, even one that splits a multi-byte
//! character, yields the same records.

use crate::json::{self, JsonValue};
use crate::{Record, TraceError};
use std::collections::BTreeMap;

/// Incremental JSONL trace parser. Owns line buffering, the tolerated
/// transit quirks (a UTF-8 BOM, `\r\n` and lone `\r` terminators, blank
/// lines, padding), 1-based line numbers, the header contract, the
/// counter dump and the end-of-trace marker.
#[derive(Debug, Default)]
pub struct TraceReader {
    /// Bytes of the line still arriving.
    partial: Vec<u8>,
    /// Lines completed so far.
    lines: usize,
    /// The previous byte was a `\r` terminator: a `\n` now belongs to it.
    after_cr: bool,
    header_seen: bool,
    done: bool,
    counters: BTreeMap<String, u64>,
}

impl TraceReader {
    /// Feed the next chunk of the stream; returns the records it completed.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<Vec<Record>, TraceError> {
        let mut out = Vec::new();
        for piece in chunk.split_inclusive(|&b| b == b'\n' || b == b'\r') {
            let after_cr = std::mem::replace(&mut self.after_cr, piece.ends_with(b"\r"));
            match piece.split_last() {
                Some((b'\n', [])) if after_cr => {}
                Some((b'\n' | b'\r', body)) => {
                    self.partial.extend_from_slice(body);
                    out.extend(self.end_line()?);
                }
                _ => self.partial.extend_from_slice(piece),
            }
        }
        Ok(out)
    }

    /// The stream has ended: parse a last line that had no terminator.
    /// Fails with [`TraceError::Empty`] when there never was a header.
    pub fn finish(&mut self) -> Result<Option<Record>, TraceError> {
        let last = if self.partial.is_empty() {
            None
        } else {
            self.end_line()?
        };
        self.header_seen.then_some(last).ok_or(TraceError::Empty)
    }

    /// Whether the end-of-trace record ([`Record::is_trailer`]) has been
    /// read — the writer finished and the counter dump is complete.
    pub fn done(&self) -> bool {
        self.done
    }

    /// The counter dump read so far, by name.
    pub fn into_counters(self) -> BTreeMap<String, u64> {
        self.counters
    }

    fn end_line(&mut self) -> Result<Option<Record>, TraceError> {
        self.lines += 1;
        let line = std::mem::take(&mut self.partial);
        self.parse(&line)
    }

    /// Parse one complete line; `None` when it yields no record (a blank
    /// line, the header, a counter).
    fn parse(&mut self, line: &[u8]) -> Result<Option<Record>, TraceError> {
        let line_no = self.lines;
        let malformed = |msg: &str| TraceError::Malformed {
            line: line_no,
            msg: msg.to_string(),
        };
        let text = std::str::from_utf8(line).map_err(|_| malformed("invalid UTF-8"))?;
        let bom = text.strip_prefix('\u{feff}').filter(|_| line_no == 1);
        let text = bom.unwrap_or(text).trim();
        if text.is_empty() {
            return Ok(None);
        }
        let fields = json::parse_object(text);
        if !self.header_seen {
            let header = fields.map_err(|_| TraceError::MissingHeader { first_kind: None })?;
            check_header(line_no, &header)?;
            self.header_seen = true;
            return Ok(None);
        }
        let mut fields = fields.map_err(|msg| malformed(&msg))?;
        let (mut seq, mut kind) = (None, None);
        fields.retain(|(k, v)| match k.as_str() {
            "seq" => {
                seq = v.as_u64();
                false
            }
            "kind" => {
                kind = v.as_str().map(str::to_string);
                false
            }
            _ => true,
        });
        let record = Record {
            line: line_no,
            seq,
            kind: kind.ok_or_else(|| malformed("record lacks a \"kind\" field"))?,
            fields,
        };
        if record.kind != "counter" {
            self.done |= record.is_trailer();
            return Ok(Some(record));
        }
        match (record.str("name"), record.u64("value")) {
            (Some(name), Some(value)) => self.counters.insert(name.to_string(), value),
            _ => return Err(malformed("counter record lacks name/value")),
        };
        Ok(None)
    }
}

/// Check the schema header, the first non-blank line of every trace. The
/// line must be the `trace.meta` record with `schema` equal to
/// [`obs::SCHEMA_VERSION`]; anything else is a hard error — skew between
/// emitter and analyzer must fail loudly, not produce a half-right report.
fn check_header(line_no: usize, header: &[(String, JsonValue)]) -> Result<(), TraceError> {
    let field = |key: &str| header.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let kind = field("kind").and_then(JsonValue::as_str);
    if kind != Some("trace.meta") {
        return Err(TraceError::MissingHeader {
            first_kind: kind.map(str::to_string),
        });
    }
    match field("schema").and_then(JsonValue::as_u64) {
        Some(found) if found == obs::SCHEMA_VERSION as u64 => Ok(()),
        Some(found) => Err(TraceError::UnsupportedSchema { found }),
        None => Err(TraceError::Malformed {
            line: line_no,
            msg: "trace.meta header lacks a numeric \"schema\" field".to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "{\"kind\":\"trace.meta\",\"schema\":4}";

    fn kinds(reader: &mut TraceReader, chunk: &[u8]) -> Vec<String> {
        let records = reader.feed(chunk).unwrap();
        records.into_iter().map(|r| r.kind).collect()
    }

    #[test]
    fn records_do_not_depend_on_where_chunks_split() {
        // "é" and "▄" are multi-byte: per-byte feeding splits inside them.
        let text = format!(
            "{HEADER}\r\n{{\"seq\":0,\"kind\":\"a\",\"s\":\"é▄\"}}\r{{\"seq\":1,\"kind\":\"counter\",\
             \"name\":\"c\",\"value\":3}}\n\n{{\"seq\":2,\"kind\":\"obs.overhead\",\"subsystem\":\"total\"}}"
        );
        let whole = crate::parse_trace(&text).unwrap();
        assert_eq!(whole.records.len(), 2);
        assert_eq!(whole.records[0].str("s"), Some("é▄"));
        assert_eq!((whole.records[0].line, whole.records[1].line), (2, 5));
        assert_eq!(whole.counter("c"), 3);
        for size in [1, 2, 3, 5, 64] {
            let mut reader = TraceReader::default();
            let mut records = Vec::new();
            for chunk in text.as_bytes().chunks(size) {
                records.extend(reader.feed(chunk).unwrap());
            }
            // The last line has no terminator: only `finish` may parse it.
            assert!(!reader.done(), "chunk size {size}");
            records.extend(reader.finish().unwrap());
            assert!(reader.done(), "chunk size {size}");
            assert_eq!(records, whole.records, "chunk size {size}");
        }
    }

    #[test]
    fn strictness_is_the_same_for_every_consumer() {
        let mut reader = TraceReader::default();
        assert!(kinds(&mut reader, format!("{HEADER}\n").as_bytes()).is_empty());
        assert_eq!(kinds(&mut reader, b"{\"kind\":\"a\"}\n"), ["a"]);
        let cases: [(&[u8], usize); 3] = [
            (b"{\"seq\":1}\n", 3),
            (b"{\"kind\":\"counter\",\"name\":\"c\"}\n", 4),
            (b"{\"kind\":\"a\",\"s\":\"\xff\"}\n", 5),
        ];
        for (bad, line) in cases {
            match reader.feed(bad) {
                Err(TraceError::Malformed { line: at, .. }) => assert_eq!(at, line),
                other => panic!("line {line}: expected Malformed, got {other:?}"),
            }
        }
        assert_eq!(TraceReader::default().finish(), Err(TraceError::Empty));
    }
}
