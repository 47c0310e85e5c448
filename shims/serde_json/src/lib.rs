//! Shim for `serde_json`: renders the shim-serde [`Value`] model as JSON
//! (compact and pretty), parses JSON text back into [`Value`] via
//! [`from_str`], plus a `json!` macro for flat object literals.
//! Output formatting matches real serde_json where the workspace can
//! observe it: 2-space pretty indentation, floats always carry a decimal
//! point or exponent, non-finite floats become `null`. The parser accepts
//! exactly RFC 8259 JSON (no comments, no trailing commas) and keeps
//! integers exact (`I64`/`U64`) where they fit, falling back to `F64`.

#![forbid(unsafe_code)]

use std::fmt;

pub use serde::Value;

#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

pub type Result<T> = std::result::Result<T, Error>;

/// Serializes to compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes to human-readable JSON with 2-space indentation.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

#[doc(hidden)]
pub fn __to_value<T: serde::Serialize>(value: &T) -> Value {
    value.to_value()
}

/// Parses one JSON document from `s` into the [`Value`] model.
///
/// Strict RFC 8259: a single top-level value, no trailing garbage, no
/// comments, no trailing commas. Integers that fit `i64`/`u64` stay exact;
/// everything else numeric becomes `F64`. Nesting is bounded (128 levels)
/// so adversarial input cannot overflow the stack.
pub fn from_str(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!(
            "trailing characters at byte {} of JSON document",
            p.pos
        )));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

const MAX_DEPTH: usize = 128;

impl Parser<'_> {
    fn err<T>(&self, msg: &str) -> Result<T> {
        Err(Error(format!(
            "{msg} at byte {} of JSON document",
            self.pos
        )))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(&mut self, lit: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.err("invalid literal")
        }
    }

    fn value(&mut self) -> Result<Value> {
        if self.depth >= MAX_DEPTH {
            return self.err("JSON nested too deeply");
        }
        match self.peek() {
            Some(b'n') => self.expect_literal("null", Value::Null),
            Some(b't') => self.expect_literal("true", Value::Bool(true)),
            Some(b'f') => self.expect_literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => self.err("unexpected character"),
            None => self.err("unexpected end of input"),
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.pos += 1; // '['
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                break;
            }
            if !self.eat(b',') {
                return self.err("expected `,` or `]` in array");
            }
        }
        self.depth -= 1;
        Ok(Value::Array(items))
    }

    fn object(&mut self) -> Result<Value> {
        self.pos += 1; // '{'
        self.depth += 1;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            self.depth -= 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return self.err("expected string key in object");
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return self.err("expected `:` after object key");
            }
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            if self.eat(b'}') {
                break;
            }
            if !self.eat(b',') {
                return self.err("expected `,` or `}` in object");
            }
        }
        self.depth -= 1;
        Ok(Value::Object(entries))
    }

    fn string(&mut self) -> Result<String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the unescaped run in one slice.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            match std::str::from_utf8(&self.bytes[start..self.pos]) {
                Ok(run) => out.push_str(run),
                Err(_) => return self.err("invalid UTF-8 in string"),
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return self.err("unpaired UTF-16 surrogate");
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return self.err("invalid low surrogate");
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            match char::from_u32(cp) {
                                Some(c) => out.push(c),
                                None => return self.err("invalid unicode escape"),
                            }
                            continue; // hex4 advanced past the escape
                        }
                        _ => return self.err("invalid escape sequence"),
                    }
                    self.pos += 1;
                }
                Some(_) => return self.err("unescaped control character in string"),
                None => return self.err("unterminated string"),
            }
        }
    }

    /// Reads exactly four hex digits at the cursor, advancing past them.
    fn hex4(&mut self) -> Result<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a') as u32 + 10,
                Some(c @ b'A'..=b'F') => (c - b'A') as u32 + 10,
                _ => return self.err("expected four hex digits"),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        let negative = self.eat(b'-');
        if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            return self.err("expected digit in number");
        }
        // Leading zero may not be followed by more digits (RFC 8259).
        if self.eat(b'0') {
            if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return self.err("leading zero in number");
            }
        } else {
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let mut is_float = false;
        if self.eat(b'.') {
            is_float = true;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return self.err("expected digit after decimal point");
            }
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
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return self.err("expected digit in exponent");
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = match std::str::from_utf8(&self.bytes[start..self.pos]) {
            Ok(t) => t,
            Err(_) => return self.err("invalid number"),
        };
        if !is_float {
            if negative {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Value::I64(n));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::F64(x)),
            _ => self.err("number out of range"),
        }
    }
}

/// Builds a [`Value`] from a flat JSON-ish object literal or a single
/// serializable expression. Values are arbitrary serializable expressions;
/// nested containers should themselves be expressions (a `Vec` works
/// directly, nested maps via another `json!`).
#[macro_export]
macro_rules! json {
    ({ $($key:tt : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( (($key).to_string(), $crate::__to_value(&$val)) ),*
        ])
    };
    ($other:expr) => { $crate::__to_value(&$other) };
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => write_f64(out, *x),
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
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
        Value::Object(entries) => {
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
                write_escaped(out, k);
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
        out.extend(std::iter::repeat_n(' ', width * level));
    }
}

fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    // `Display` expands extreme magnitudes to full decimal digit strings;
    // serde_json (via ryu) switches to exponent notation instead.
    let s = if x != 0.0 && (x.abs() >= 1e16 || x.abs() < 1e-5) {
        format!("{x:e}")
    } else {
        x.to_string()
    };
    out.push_str(&s);
    // serde_json always marks floats as such.
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        out.push_str(".0");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let v = json!({
            "name": "node0",
            "power": 215.5,
            "count": 3u32,
            "tags": vec!["a", "b"],
            "gone": f64::NAN,
        });
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"name":"node0","power":215.5,"count":3,"tags":["a","b"],"gone":null}"#
        );
    }

    #[test]
    fn pretty_rendering_matches_serde_json_shape() {
        let v = json!({ "a": 1u32, "b": vec![true, false] });
        let expect = "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    false\n  ]\n}";
        assert_eq!(to_string_pretty(&v).unwrap(), expect);
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&0.25f64).unwrap(), "0.25");
        assert_eq!(to_string(&1e300f64).unwrap(), "1e300");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(to_string(&"a\"b\n").unwrap(), r#""a\"b\n""#);
    }

    #[test]
    fn parse_round_trips_compact_output() {
        let v = json!({
            "name": "node0",
            "power": 215.5,
            "count": 3u32,
            "neg": Value::I64(-7),
            "tags": vec!["a", "b"],
            "nested": json!({ "ok": true, "none": Value::Null }),
        });
        let text = to_string(&v).unwrap();
        assert_eq!(from_str(&text).unwrap(), v);
    }

    #[test]
    fn parse_escapes_and_unicode() {
        let v = from_str(r#""a\"b\\c\n\t\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v, Value::Str("a\"b\\c\n\tA😀".to_string()));
    }

    #[test]
    fn parse_numbers_keep_integer_exactness() {
        assert_eq!(
            from_str("18446744073709551615").unwrap(),
            Value::U64(u64::MAX)
        );
        assert_eq!(
            from_str("-9223372036854775808").unwrap(),
            Value::I64(i64::MIN)
        );
        assert_eq!(from_str("0.25").unwrap(), Value::F64(0.25));
        assert_eq!(from_str("1e3").unwrap(), Value::F64(1000.0));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "01",
            "1 2",
            "\"\\q\"",
            "\"unterminated",
            "{a:1}",
            "nan",
            "--1",
            "1.e3",
        ] {
            assert!(from_str(bad).is_err(), "accepted malformed JSON: {bad:?}");
        }
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(from_str(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(from_str(&ok).is_ok());
    }
}
