//! Minimal flat-JSON parser for the obs JSONL dialect.
//!
//! The trace encoder (`crates/obs/src/event.rs`) emits exactly one flat
//! object per line whose values are scalars — no nested objects or arrays.
//! This parser accepts that dialect (plus `null`, for forward tolerance)
//! and rejects everything else with a position-carrying error, which is
//! what lets `proteus-trace` fail CI on malformed streams instead of
//! silently misreading them.

/// A scalar JSON value from a trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Any number written with a fraction or exponent.
    F64(f64),
    /// `true` / `false`.
    Bool(bool),
    /// String (escapes decoded).
    Str(String),
    /// `null`.
    Null,
}

impl JsonValue {
    /// As an unsigned integer, when losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(v) => Some(*v),
            JsonValue::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// As a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Compact display form (strings unquoted) for report rendering.
    pub fn display(&self) -> String {
        match self {
            JsonValue::U64(v) => v.to_string(),
            JsonValue::I64(v) => v.to_string(),
            JsonValue::F64(v) => v.to_string(),
            JsonValue::Bool(b) => b.to_string(),
            JsonValue::Str(s) => s.clone(),
            JsonValue::Null => "null".to_string(),
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Consume exactly `word`.
    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.literal("\"")?;
        let mut out = String::new();
        loop {
            // Copy the run of ordinary characters up to the next special one.
            let rest = &self.text[self.pos..];
            let special = |c| c == '"' || c == '\\' || c < ' ';
            let run = rest.find(special).unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.pos += run;
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = self
                            .text
                            .get(self.pos..self.pos + 4)
                            .ok_or_else(|| self.err("truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| self.err("invalid \\u escape"))?;
                        self.pos += 4;
                        // The encoder only escapes control characters, so no
                        // surrogate pairs occur; reject them rather than guess.
                        let c = char::from_u32(code)
                            .ok_or_else(|| self.err("unpaired surrogate in \\u escape"))?;
                        out.push(c);
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        // Integers wider than 64 bits (e.g. the injector's absurd-KPI
        // constant written in full decimal) fall back to f64, like every
        // JSON reader built on doubles.
        let int = match text.strip_prefix('-') {
            _ if float => None,
            None => text.parse().ok().map(JsonValue::U64),
            Some(digits) => digits
                .parse::<u64>()
                .ok()
                .filter(|&v| v <= i64::MAX as u64)
                .map(|v| JsonValue::I64(-(v as i64))),
        };
        match int {
            Some(v) => Ok(v),
            None => text
                .parse()
                .map(JsonValue::F64)
                .map_err(|_| self.err("invalid number")),
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => self.parse_string().map(JsonValue::Str),
            Some(b't') => self.literal("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| JsonValue::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(b'{' | b'[') => Err(self.err("nested values are not part of the trace dialect")),
            _ => Err(self.err("expected a value")),
        }
    }
}

/// Parse one line as a flat JSON object, preserving key order.
pub(crate) fn parse_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut p = Parser { text: line, pos: 0 };
    p.skip_ws();
    p.literal("{")?;
    let mut out = Vec::new();
    loop {
        p.skip_ws();
        if out.is_empty() && p.peek() == Some(b'}') {
            p.pos += 1;
            break;
        }
        let key = p.parse_string()?;
        p.skip_ws();
        p.literal(":")?;
        p.skip_ws();
        out.push((key, p.parse_value()?));
        p.skip_ws();
        match p.bump() {
            Some(b',') => continue,
            Some(b'}') => break,
            _ => return Err(p.err("expected ',' or '}'")),
        }
    }
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(p.err("trailing data after object"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_real_trace_line() {
        let fields = parse_object(
            r#"{"seq":7,"kind":"config.switch","from":"TL2:8t","quiesced":true,"latency_ns":120,"x":-3,"f":0.25}"#,
        )
        .unwrap();
        assert_eq!(fields[0], ("seq".into(), JsonValue::U64(7)));
        assert_eq!(fields[2], ("from".into(), JsonValue::Str("TL2:8t".into())));
        assert_eq!(fields[3], ("quiesced".into(), JsonValue::Bool(true)));
        assert_eq!(fields[5], ("x".into(), JsonValue::I64(-3)));
        assert_eq!(fields[6], ("f".into(), JsonValue::F64(0.25)));
    }

    #[test]
    fn decodes_escapes() {
        let fields = parse_object(r#"{"s":"a\"b\\c\nd\u0001é"}"#).unwrap();
        assert_eq!(fields[0].1.as_str().unwrap(), "a\"b\\c\nd\u{1}é");
    }

    #[test]
    fn nonfinite_floats_arrive_as_strings() {
        let fields = parse_object(r#"{"x":"NaN"}"#).unwrap();
        assert_eq!(fields[0].1, JsonValue::Str("NaN".into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_object("").is_err());
        assert!(parse_object("{").is_err());
        assert!(parse_object(r#"{"a":}"#).is_err());
        assert!(parse_object(r#"{"a":1} extra"#).is_err());
        assert!(parse_object(r#"{"a":{"nested":1}}"#).is_err());
        assert!(parse_object(r#"{"a":[1]}"#).is_err());
        assert!(parse_object("not json").is_err());
    }

    #[test]
    fn oversized_integers_widen_to_f64() {
        let fields = parse_object(&format!("{{\"big\":1{}}}", "0".repeat(150))).unwrap();
        assert_eq!(fields[0].1, JsonValue::F64(1e150));
        let fields = parse_object(&format!("{{\"big\":-1{}}}", "0".repeat(30))).unwrap();
        assert_eq!(fields[0].1, JsonValue::F64(-1e30));
    }

    #[test]
    fn empty_object_is_fine() {
        assert!(parse_object("{}").unwrap().is_empty());
        assert!(parse_object(" { } ").unwrap().is_empty());
    }
}
