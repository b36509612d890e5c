//! Offline shim of `serde_json` over the `serde` shim's [`Value`] model:
//! `to_string`, `to_string_pretty` and `from_str`, with a small
//! recursive-descent JSON parser.
//!
//! The parser treats its input as untrusted (catalog and checkpoint
//! files are read back from disk): nesting deeper than [`MAX_DEPTH`],
//! number tokens longer than [`MAX_NUMBER_LEN`] and string tokens
//! longer than [`MAX_STRING_LEN`] are errors, so hostile text is
//! rejected instead of overflowing the stack.

#![forbid(unsafe_code)]

pub use serde::Error;
use serde::{Deserialize, Serialize, Value};

/// Deepest array/object nesting the parser accepts.  The parser
/// recurses once per level, so this bounds its stack use.
pub const MAX_DEPTH: usize = 128;

/// Longest number token accepted, in bytes.  Room for every finite
/// `f64` as the writer prints it (no exponent: up to ~330 digits).
pub const MAX_NUMBER_LEN: usize = 512;

/// Longest string token accepted, in bytes of JSON text.
pub const MAX_STRING_LEN: usize = 1 << 20;

/// Serializes `value` to compact JSON.
///
/// # Errors
///
/// Never fails in this shim (kept for API compatibility).
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes `value` to human-readable JSON.
///
/// # Errors
///
/// Never fails in this shim (kept for API compatibility).
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into a `T`.
///
/// # Errors
///
/// Malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    T::from_value(&value)
}

/// Parses JSON text into the raw [`Value`] tree.
///
/// # Errors
///
/// Malformed JSON.
pub fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg("trailing characters after JSON value"));
    }
    Ok(v)
}

// --------------------------------------------------------------------
// Writer.
// --------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // Rust's shortest round-trip float formatting; add `.0`
                // so integral floats stay floats through a round trip.
                let s = f.to_string();
                out.push_str(&s);
                if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                    out.push_str(".0");
                }
            } else {
                // JSON has no NaN/inf; serde_json writes null.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// --------------------------------------------------------------------
// Parser.
// --------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(Error::msg(format!("unexpected character at byte {}", self.pos))),
        }
    }

    /// Parses one array or object one nesting level down, refusing to
    /// go past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::msg(format!(
                "JSON nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            entries.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error::msg("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error::msg("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        let start = self.pos;
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            if self.pos - start > MAX_STRING_LEN {
                return Err(Error::msg(format!(
                    "string at byte {start} longer than {MAX_STRING_LEN} bytes"
                )));
            }
            let Some(c) = self.peek() else {
                return Err(Error::msg("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(Error::msg("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::msg("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::msg("bad \\u escape"))?;
                            // Surrogate pairs are not needed by this
                            // workspace's identifiers; map lone
                            // surrogates to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(Error::msg("unknown escape")),
                    }
                }
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: re-decode from the byte slice.
                    let start = self.pos - 1;
                    let width = utf8_width(c);
                    let end = start + width;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| Error::msg("truncated UTF-8"))?;
                    let s =
                        std::str::from_utf8(chunk).map_err(|_| Error::msg("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if self.pos - start > MAX_NUMBER_LEN {
            return Err(Error::msg(format!(
                "number at byte {start} longer than {MAX_NUMBER_LEN} bytes"
            )));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::msg("invalid float"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::msg("invalid integer"))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error::msg("invalid integer"))
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_value_tree() {
        let v = Value::Map(vec![
            ("a".to_string(), Value::UInt(7)),
            ("b".to_string(), Value::Seq(vec![Value::Float(1.5), Value::Null])),
            ("s".to_string(), Value::Str("hi \"there\"\n".to_string())),
            ("neg".to_string(), Value::Int(-3)),
            ("t".to_string(), Value::Bool(true)),
        ]);
        let compact = {
            let mut s = String::new();
            write_value(&mut s, &v, None, 0);
            s
        };
        assert_eq!(parse_value(&compact).unwrap(), v);
        let pretty = {
            let mut s = String::new();
            write_value(&mut s, &v, Some(2), 0);
            s
        };
        assert_eq!(parse_value(&pretty).unwrap(), v);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.0, 1.0, 0.1875, 1e-15, 123456.789, -2.5e17] {
            let mut s = String::new();
            write_value(&mut s, &Value::Float(f), None, 0);
            match parse_value(&s).unwrap() {
                Value::Float(g) => assert_eq!(f, g, "{s}"),
                Value::Int(i) => assert_eq!(f, i as f64),
                Value::UInt(u) => assert_eq!(f, u as f64),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn extreme_floats_fit_the_number_cap() {
        for f in [f64::MAX, f64::MIN, f64::MIN_POSITIVE, 5e-324, -2.2250738585072014e-308] {
            let mut s = String::new();
            write_value(&mut s, &Value::Float(f), None, 0);
            assert!(s.len() <= MAX_NUMBER_LEN, "{} bytes", s.len());
            assert_eq!(parse_value(&s).unwrap(), Value::Float(f), "{s}");
        }
    }

    #[test]
    fn nesting_is_capped_not_fatal() {
        let nest = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse_value(&nest(MAX_DEPTH)).is_ok());
        assert!(parse_value(&nest(MAX_DEPTH + 1)).is_err());
        // Deep enough to overflow any thread stack without the cap.
        let err = parse_value(&nest(100_000)).unwrap_err();
        assert!(err.to_string().contains("nested deeper"), "{err}");
        let objects = "{\"a\":".repeat(100_000);
        assert!(parse_value(&objects).is_err());
        // The limit is on open levels, not on total containers.
        let wide = format!("[{}]", vec!["[[]]"; 10_000].join(","));
        assert!(parse_value(&wide).is_ok());
    }

    #[test]
    fn oversized_tokens_are_rejected() {
        let digits = "9".repeat(MAX_NUMBER_LEN + 1);
        assert!(parse_value(&digits).is_err());
        assert!(parse_value(&format!("[0.{digits}]")).is_err());
        let long = format!("\"{}\"", "x".repeat(MAX_STRING_LEN + 1));
        assert!(parse_value(&long).is_err());
        let fits = format!("\"{}\"", "x".repeat(MAX_STRING_LEN - 2));
        assert!(parse_value(&fits).is_ok());
    }

    #[test]
    fn typed_round_trip() {
        let pairs: Vec<(u64, Option<f64>)> = vec![(1, Some(2.5)), (9, None)];
        let json = to_string(&pairs).unwrap();
        let back: Vec<(u64, Option<f64>)> = from_str(&json).unwrap();
        assert_eq!(pairs, back);
    }
}
