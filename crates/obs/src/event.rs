//! Structured events and their JSONL encoding.

use std::fmt;

/// A typed field value.
///
/// The set is deliberately small: everything the ProteusTM layers report is
/// a scalar or a short label, and a closed set keeps the JSONL encoding
/// (and therefore the determinism guarantees) easy to audit.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point. Encoded with Rust's shortest round-trip formatting,
    /// which is a pure function of the bits — deterministic by
    /// construction. Non-finite values encode as JSON strings.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Short label (configuration names, scheme labels, ...).
    Str(String),
}

macro_rules! value_from {
    ($($t:ty => $variant:ident as $conv:ty),+ $(,)?) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::$variant(v as $conv)
            }
        }
    )+};
}

value_from!(
    u64 => U64 as u64,
    u32 => U64 as u64,
    u16 => U64 as u64,
    u8 => U64 as u64,
    usize => U64 as u64,
    i64 => I64 as i64,
    i32 => I64 as i64,
    f64 => F64 as f64,
);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl Value {
    /// Append this value's JSON encoding to `out`.
    pub(crate) fn encode(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
            }
            Value::I64(v) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
            }
            Value::F64(v) if v.is_finite() => {
                let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
            }
            Value::F64(v) => encode_str(out, &v.to_string()),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(s) => encode_str(out, s),
        }
    }
}

/// Append `s` to `out` as a JSON string literal with the mandatory
/// escapes. The one string encoder of the trace format.
fn encode_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An event assembled *off* the serial path, to be emitted later.
///
/// Code that may run inside `parx` workers (e.g. `rectm`'s Controller,
/// which Figs. 5/7 run one-per-workload on the pool) must not call
/// [`crate::emit`] directly — concurrent emission would interleave
/// sequence numbers in arrival order and break the byte-identity
/// determinism contract. Instead such code buffers `PendingEvent`s into
/// its return value and the serial driver replays them, in fold order,
/// with [`crate::emit_pending`], which assigns sequence numbers at replay
/// time (DESIGN.md §7, rule 1).
#[derive(Debug, Clone, PartialEq)]
pub struct PendingEvent {
    /// Event kind from the stable taxonomy (DESIGN.md §7).
    pub kind: &'static str,
    /// Typed fields, in emission order.
    pub fields: Vec<(&'static str, Value)>,
}

/// One structured observability event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic *logical* sequence number, assigned at emission. Restarts
    /// from zero whenever a new trace starts, so captured streams are
    /// self-contained.
    pub seq: u64,
    /// Event kind from the stable taxonomy (DESIGN.md §7), dot-separated
    /// `layer.action` (e.g. `"config.switch"`, `"cusum.alarm"`).
    pub kind: &'static str,
    /// Typed fields, in emission order.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Encode as one JSON object (no trailing newline):
    /// `{"seq":3,"kind":"config.switch","from":"TL2:8t","to":"NOrec:4t"}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(48 + 16 * self.fields.len());
        let _ = fmt::Write::write_fmt(&mut out, format_args!("{{\"seq\":{},\"kind\":", self.seq));
        encode_str(&mut out, self.kind);
        for (key, value) in &self.fields {
            out.push(',');
            encode_str(&mut out, key);
            out.push(':');
            value.encode(&mut out);
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_flat_json() {
        let e = Event {
            seq: 7,
            kind: "config.switch",
            fields: vec![
                ("from", Value::from("TL2:8t")),
                ("to", Value::from("NOrec:4t")),
                ("quiesced", Value::from(true)),
                ("threads", Value::from(4usize)),
            ],
        };
        assert_eq!(
            e.to_json(),
            r#"{"seq":7,"kind":"config.switch","from":"TL2:8t","to":"NOrec:4t","quiesced":true,"threads":4}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let e = Event {
            seq: 0,
            kind: "t",
            fields: vec![("s", Value::from("a\"b\\c\nd\u{1}"))],
        };
        assert_eq!(
            e.to_json(),
            "{\"seq\":0,\"kind\":\"t\",\"s\":\"a\\\"b\\\\c\\nd\\u0001\"}"
        );
    }

    #[test]
    fn floats_are_shortest_roundtrip_and_nonfinite_are_strings() {
        let finite = Event {
            seq: 0,
            kind: "t",
            fields: vec![("x", Value::from(0.1f64)), ("y", Value::from(3.0f64))],
        };
        assert_eq!(finite.to_json(), r#"{"seq":0,"kind":"t","x":0.1,"y":3}"#);
        let nan = Event {
            seq: 0,
            kind: "t",
            fields: vec![("x", Value::from(f64::NAN))],
        };
        assert_eq!(nan.to_json(), r#"{"seq":0,"kind":"t","x":"NaN"}"#);
    }

    #[test]
    fn signed_and_unsigned_conversions() {
        assert_eq!(Value::from(-3i64), Value::I64(-3));
        assert_eq!(Value::from(3u32), Value::U64(3));
        assert_eq!(Value::from(String::from("s")), Value::Str("s".into()));
    }
}
