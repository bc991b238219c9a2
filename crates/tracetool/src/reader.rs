//! The one reader of trace bytes.
//!
//! [`parse_trace`] reads a whole trace in one pass over its lines. It owns
//! the tolerated transit quirks (a UTF-8 BOM, `\r\n` and lone `\r`
//! terminators, blank lines, padding), 1-based line numbers, the header
//! contract, the counter dump and the end-of-trace marker.

use crate::json::{self, JsonValue};
use crate::{Record, Trace, TraceError};

/// Parse a whole JSONL trace.
pub fn parse_trace(text: &str) -> Result<Trace, TraceError> {
    let text = text.strip_prefix('\u{feff}').unwrap_or(text);
    let mut trace = Trace::default();
    let mut header_seen = false;
    // `lines` ends a line at `\n` or `\r\n`; a lone `\r` ends one too.
    for (i, line) in text.lines().flat_map(|l| l.split('\r')).enumerate() {
        let line_no = i + 1;
        let malformed = |msg: &str| TraceError::Malformed {
            line: line_no,
            msg: msg.to_string(),
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields = json::parse_object(line);
        if !header_seen {
            let header = fields.map_err(|_| TraceError::MissingHeader { first_kind: None })?;
            check_header(line_no, &header)?;
            header_seen = true;
            continue;
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
            trace.complete |= record.is_trailer();
            trace.push(record);
            continue;
        }
        match (record.str("name"), record.u64("value")) {
            (Some(name), Some(value)) => trace.counters.insert(name.to_string(), value),
            _ => return Err(malformed("counter record lacks name/value")),
        };
    }
    header_seen.then_some(trace).ok_or(TraceError::Empty)
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

    #[test]
    fn strictness_is_the_same_for_every_consumer() {
        // Every terminator counts one line: `\r\n`, a lone `\r`, a blank
        // `\n`; the last line needs none.
        let mixed = format!(
            "{HEADER}\r\n{{\"seq\":0,\"kind\":\"a\",\"s\":\"é▄\"}}\r{{\"seq\":1,\"kind\":\"counter\",\
             \"name\":\"c\",\"value\":3}}\n\n{{\"seq\":2,\"kind\":\"obs.overhead\",\"subsystem\":\"total\"}}"
        );
        let trace = parse_trace(&mixed).unwrap();
        assert_eq!(trace.records[0].str("s"), Some("é▄"));
        assert_eq!((trace.records[0].line, trace.records[1].line), (2, 5));
        assert_eq!(trace.counters.get("c"), Some(&3));
        assert!(trace.complete);

        let good = format!("{HEADER}\n{{\"kind\":\"a\"}}\n");
        assert_eq!(parse_trace(&good).unwrap().records[0].kind, "a");
        let cases: [(&str, usize); 3] = [
            ("{\"seq\":1}\n", 3),
            ("\n{\"kind\":\"counter\",\"name\":\"c\"}\n", 4),
            ("{\"kind\":\"a\",\"s\":\"\\q\"}\n", 3),
        ];
        for (bad, line) in cases {
            match parse_trace(&format!("{good}{bad}")) {
                Err(TraceError::Malformed { line: at, .. }) => assert_eq!(at, line),
                other => panic!("line {line}: expected Malformed, got {other:?}"),
            }
        }
        assert_eq!(parse_trace(""), Err(TraceError::Empty));
    }
}
