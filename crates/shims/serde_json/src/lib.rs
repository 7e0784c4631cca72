//! Minimal in-tree stand-in for `serde_json`: compact and pretty JSON
//! output streamed through the `serde` shim's [`serde::Encoder`], plus a
//! recursive-descent parser into the shim's [`Value`] tree. Supports
//! exactly the API surface the workspace uses: [`to_string`],
//! [`to_string_pretty`], [`to_writer`], [`from_str`] and [`from_value`].

#![warn(missing_docs)]

use serde::{Deserialize, Encoder, Serialize, Value};
use std::fmt;
use std::io;

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

/// Serializes a value as compact JSON straight into `writer`. On error
/// the writer may hold a partial document, as with real `serde_json`.
pub fn to_writer<W: io::Write, T: Serialize + ?Sized>(writer: W, value: &T) -> Result<(), Error> {
    encode(writer, value, false).map(drop)
}

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    encode_string(value, false)
}

/// Serializes a value to pretty JSON (2-space indent, like real
/// `serde_json`).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    encode_string(value, true)
}

fn encode<W: io::Write, T: Serialize + ?Sized>(
    writer: W,
    value: &T,
    pretty: bool,
) -> Result<W, Error> {
    let mut enc = Encoder::new(writer, pretty);
    value.serialize(&mut enc);
    Ok(enc.finish()?)
}

fn encode_string<T: Serialize + ?Sized>(value: &T, pretty: bool) -> Result<String, Error> {
    let bytes = encode(Vec::new(), value, pretty)?;
    String::from_utf8(bytes).map_err(|e| Error(format!("encoder wrote invalid UTF-8: {e}")))
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
    fn primitives_round_trip() {
        assert_eq!(from_str::<u64>(&to_string(&7u64).unwrap()), Ok(7));
        assert_eq!(from_str::<i32>(&to_string(&-3i32).unwrap()), Ok(-3));
        assert_eq!(from_str::<bool>(&to_string(&true).unwrap()), Ok(true));
        assert_eq!(
            from_str::<String>(&to_string(&"hi".to_string()).unwrap()),
            Ok("hi".to_string())
        );
        assert_eq!(from_str::<f64>(&to_string(&1.5f64).unwrap()), Ok(1.5));
        // Integers are accepted where floats are expected.
        assert_eq!(from_str::<f64>("4"), Ok(4.0));
    }

    #[test]
    fn containers_round_trip() {
        let xs = vec![1u64, 2, 3];
        assert_eq!(from_str::<Vec<u64>>(&to_string(&xs).unwrap()), Ok(xs));
        let opts = vec![Some(1u64), None];
        assert_eq!(to_string(&opts).unwrap(), "[1,null]");
        assert_eq!(from_str::<Vec<Option<u64>>>("[1,null]"), Ok(opts));
    }

    #[test]
    fn to_writer_appends_compact_json() {
        let mut buf = b"x".to_vec();
        to_writer(&mut buf, &vec![(1u64, "a")]).unwrap();
        assert_eq!(buf, br#"x[[1,"a"]]"#);
        assert!(to_writer(&mut buf, &f64::NAN).is_err());
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
