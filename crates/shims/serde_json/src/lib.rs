//! Minimal in-tree stand-in for `serde_json`: compact and pretty JSON
//! encoding plus a recursive-descent parser, over the `serde` shim's
//! [`Value`] model. Supports exactly the API surface the workspace uses:
//! [`to_string`], [`to_string_pretty`], [`from_str`], [`to_value`] and
//! [`from_value`].

#![warn(missing_docs)]

use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::fmt::Write as _;

/// JSON encoding/decoding error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.0)
    }
}

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0)?;
    Ok(out)
}

/// Serializes a value to pretty JSON (2-space indent, like real
/// `serde_json`).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0)?;
    Ok(out)
}

/// Converts a serializable value into the shim's [`Value`] model.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Reconstructs a value from the shim's [`Value`] model.
pub fn from_value<T: Deserialize>(v: &Value) -> Result<T, Error> {
    T::from_value(v).map_err(Error::from)
}

/// Parses JSON text into a value.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    from_value(&v)
}

// ------------------------------------------------------------- encoding

fn write_value(
    out: &mut String,
    v: &Value,
    indent: Option<usize>,
    depth: usize,
) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Float(x) => {
            if !x.is_finite() {
                return Err(Error(format!("cannot encode non-finite float {x}")));
            }
            // Keep floats recognizably floats on re-parse.
            if x.fract() == 0.0 && x.abs() < 1e15 {
                let _ = write!(out, "{x:.1}");
            } else {
                let _ = write!(out, "{x}");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            write_seq(out, items.len(), indent, depth, '[', ']', |out, i, d| {
                write_value(out, &items[i], indent, d)
            })?;
        }
        Value::Object(pairs) => {
            write_seq(out, pairs.len(), indent, depth, '{', '}', |out, i, d| {
                write_string(out, &pairs[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, &pairs[i].1, indent, d)
            })?;
        }
    }
    Ok(())
}

fn write_seq(
    out: &mut String,
    len: usize,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize, usize) -> Result<(), Error>,
) -> Result<(), Error> {
    out.push(open);
    if len == 0 {
        out.push(close);
        return Ok(());
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat(' ').take(w * (depth + 1)));
        }
        item(out, i, depth + 1)?;
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat(' ').take(w * depth));
    }
    out.push(close);
    Ok(())
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// -------------------------------------------------------------- parsing

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    let value = self.parse_value(depth + 1)?;
                    pairs.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(pairs));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not produced by this
                            // shim's encoder; reject them on input.
                            let c = char::from_u32(cp)
                                .ok_or_else(|| self.err("unsupported \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash.
                    // Neither byte occurs inside a multibyte UTF-8 sequence,
                    // so the run is a complete UTF-8 slice.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(n) = stripped.parse::<u64>() {
                    if let Ok(i) = i64::try_from(n) {
                        return Ok(Value::Int(-i));
                    }
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(from_str::<i64>("-7").unwrap(), -7);
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(from_str::<bool>("true").unwrap(), true);
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
    }

    #[test]
    fn vec_round_trip() {
        let xs = vec![1u64, 2, 3];
        let s = to_string(&xs).unwrap();
        assert_eq!(s, "[1,2,3]");
        assert_eq!(from_str::<Vec<u64>>(&s).unwrap(), xs);
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = vec![vec![1u64], vec![2]];
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains("\n  ["), "{s}");
        assert_eq!(from_str::<Vec<Vec<u64>>>(&s).unwrap(), v);
    }

    #[test]
    fn object_parsing_and_errors() {
        let v: Value = {
            let mut p = Parser {
                bytes: br#"{"a": 1, "b": [true, null]}"#,
                pos: 0,
            };
            p.parse_value(0).unwrap()
        };
        assert_eq!(v.field("a"), Some(&Value::UInt(1)));
        assert!(from_str::<u64>("12 troll").is_err());
        assert!(from_str::<u64>("").is_err());
        assert!(from_str::<Vec<u64>>("[1,").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "quote\" slash\\ nl\n tab\t unicode\u{1}".to_string();
        let enc = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&enc).unwrap(), s);
    }

    #[test]
    fn long_mixed_strings_round_trip() {
        let unit = "größe \"λ\" → 日本\\ tab\t nl\n 🚀 ctl\u{1} ";
        let s = unit.repeat(5_000);
        let enc = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&enc).unwrap(), s);
        let pair = vec![s.clone(), "plain".to_string()];
        let enc = to_string_pretty(&pair).unwrap();
        assert_eq!(from_str::<Vec<String>>(&enc).unwrap(), pair);
    }

    #[test]
    fn unterminated_strings_are_errors() {
        assert!(from_str::<String>("\"abc").is_err());
        assert!(from_str::<String>("\"größe 日本").is_err());
        assert!(from_str::<String>("\"ends in escape\\").is_err());
        assert!(from_str::<String>("\"").is_err());
    }
}
