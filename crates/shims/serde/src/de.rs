//! Decoding: a pull parser over JSON text.
//!
//! [`Deserialize`] impls read tokens straight from a [`Decoder`]: no
//! `Value` tree is built, object keys are borrowed from the input unless
//! they hold an escape, and derive-generated impls match them against
//! field names in place. [`Value`] is an ordinary `Deserialize` type,
//! used for generic trees and for printing the offending value in a type
//! error.
//!
//! Errors come in two kinds. A syntax error names its byte offset, as in
//! `unterminated string at byte 35`; a type error names the expected
//! shape and the value found, as in `Job.size: expected unsigned integer,
//! got Str("3")`. [`decode`] reports the first syntax error in the document
//! if there is one, and the type error otherwise, exactly as a decoder
//! that parses the whole document before converting it would.

use crate::{Error, Value};
use std::borrow::Cow;

/// The deepest nesting accepted: a value nested in more than this many
/// arrays or objects is a syntax error.
const MAX_DEPTH: usize = 128;

/// Types that can be read from JSON text.
pub trait Deserialize: Sized {
    /// Reads one JSON value from `de` as `Self`.
    fn deserialize(de: &mut Decoder<'_>) -> Result<Self, Error>;
}

/// Decodes a whole JSON document as `T`: one value, then nothing but
/// whitespace.
pub fn decode<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut de = Decoder::new(text);
    let result = T::deserialize(&mut de).and_then(|v| de.end().map(|()| v));
    // A syntax error anywhere in the document outranks a type error met
    // before it; only the error path pays for the second pass.
    result.map_err(|e| {
        let mut check = Decoder::new(text);
        check
            .skip_value()
            .and_then(|()| check.end())
            .err()
            .unwrap_or(e)
    })
}

/// A position in the input to rewind to: the start of a value and its
/// nesting depth.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    pos: usize,
    depth: usize,
}

/// An array of a fixed length being read: its start, for the error that
/// prints it, and the error's text.
#[derive(Clone, Copy, Debug)]
pub struct Tuple {
    start: Mark,
    expected: &'static str,
}

/// The head of an externally tagged enum value, as [`Decoder::variant`]
/// reads it.
#[derive(Debug)]
pub enum Variant<'a> {
    /// A string: the name of a unit variant.
    Unit(Cow<'a, str>),
    /// A single-key object, read up to its payload: the tag and the
    /// object's start.
    Tagged(Cow<'a, str>, Mark),
}

/// A pull parser over JSON text.
#[derive(Debug)]
pub struct Decoder<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Nesting depth of the value read next.
    depth: usize,
    /// The innermost container was just opened and nothing in it read.
    first: bool,
}

impl<'a> Decoder<'a> {
    /// A decoder at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Decoder {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    #[inline]
    fn byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        let rest = &self.bytes[self.pos..];
        self.pos += rest
            .iter()
            .position(|b| !matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .unwrap_or(rest.len());
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.byte() == Some(b) {
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

    /// Checks that only whitespace is left.
    pub fn end(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters"))
        }
    }

    /// Starts the next value: checks the nesting depth, skips whitespace
    /// and returns the value's first byte without consuming it.
    #[inline]
    fn peek(&mut self) -> Result<u8, Error> {
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        self.byte().ok_or_else(|| self.err("expected a JSON value"))
    }

    /// The current position, to pass to [`Decoder::unexpected`]; take it
    /// right after [`Decoder::peek`].
    #[must_use]
    fn mark(&self) -> Mark {
        Mark {
            pos: self.pos,
            depth: self.depth,
        }
    }

    /// The type error for the value at `at`: `"{expected}, got {value:?}"`.
    /// Rewinds to `at` and reads the value as a [`Value`] to print it; a
    /// syntax error inside it is returned instead.
    fn unexpected(&mut self, at: Mark, expected: &str) -> Error {
        match self.value_at(at) {
            Ok(v) => Error(format!("{expected}, got {v:?}")),
            Err(e) => e,
        }
    }

    fn value_at(&mut self, at: Mark) -> Result<Value, Error> {
        self.pos = at.pos;
        self.depth = at.depth;
        self.parse_value()
    }

    /// Reads `null` if it comes next.
    #[inline]
    fn null(&mut self) -> Result<bool, Error> {
        Ok(self.peek()? == b'n' && self.eat_keyword("null"))
    }

    /// Reads a boolean.
    fn bool(&mut self) -> Result<bool, Error> {
        let at = self.mark_value()?;
        if self.eat_keyword("true") {
            Ok(true)
        } else if self.eat_keyword("false") {
            Ok(false)
        } else {
            Err(self.unexpected(at, "expected bool"))
        }
    }

    #[inline]
    fn mark_value(&mut self) -> Result<Mark, Error> {
        self.peek()?;
        Ok(self.mark())
    }

    /// Reads a number as [`Value::UInt`], [`Value::Int`] or
    /// [`Value::Float`]; any other value is a type error saying
    /// `expected`.
    fn number(&mut self, expected: &str) -> Result<Value, Error> {
        let at = self.mark_value()?;
        match self.bytes[self.pos] {
            b'-' | b'0'..=b'9' => self.parse_number(),
            _ => Err(self.unexpected(at, expected)),
        }
    }

    /// Reads an unsigned integer. Plain digit runs that cannot overflow
    /// take a direct path; every other number goes through the full
    /// number grammar, so the result and the errors are the same.
    #[inline]
    fn u64(&mut self) -> Result<u64, Error> {
        if self.peek()?.is_ascii_digit() {
            let run = &self.bytes[self.pos..];
            let len = run
                .iter()
                .position(|b| !b.is_ascii_digit())
                .unwrap_or(run.len());
            if len <= 19 && !matches!(run.get(len), Some(b'.' | b'e' | b'E' | b'+' | b'-')) {
                self.pos += len;
                return Ok(run[..len]
                    .iter()
                    .fold(0, |n, d| n * 10 + u64::from(d - b'0')));
            }
        }
        match self.number("expected unsigned integer")? {
            Value::UInt(n) => Ok(n),
            other => Err(Error(format!("expected unsigned integer, got {other:?}"))),
        }
    }

    /// Reads a string, borrowed from the input unless it holds an escape.
    #[inline]
    fn str(&mut self) -> Result<Cow<'a, str>, Error> {
        let at = self.mark_value()?;
        if self.bytes[self.pos] == b'"' {
            self.parse_string()
        } else {
            Err(self.unexpected(at, "expected string"))
        }
    }

    /// Opens an object if one comes next; `false` (nothing consumed)
    /// otherwise. Read its members with [`Decoder::next_key`].
    #[inline]
    pub fn begin_object(&mut self) -> Result<bool, Error> {
        Ok(self.peek()? == b'{' && self.open())
    }

    /// Opens an array if one comes next; `false` (nothing consumed)
    /// otherwise. Read its items with [`Decoder::next_element`].
    #[inline]
    fn begin_array(&mut self) -> Result<bool, Error> {
        Ok(self.peek()? == b'[' && self.open())
    }

    #[inline]
    fn open(&mut self) -> bool {
        self.pos += 1;
        self.depth += 1;
        self.first = true;
        true
    }

    /// Moves to the next member of the open object and reads its key and
    /// the `:`; `None` once the object is closed. The member's value must
    /// be read or skipped before the next call.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        self.skip_ws();
        let first = std::mem::take(&mut self.first);
        match self.byte() {
            Some(b'}') => {
                self.close();
                return Ok(None);
            }
            Some(b',') if !first => {
                self.pos += 1;
                self.skip_ws();
            }
            _ if !first => return Err(self.err("expected `,` or `}`")),
            _ => {}
        }
        let key = self.parse_string()?;
        self.skip_ws();
        self.eat(b':')?;
        Ok(Some(key))
    }

    /// Moves to the next item of the open array: `true` when one follows,
    /// `false` once the array is closed.
    #[inline]
    fn next_element(&mut self) -> Result<bool, Error> {
        self.skip_ws();
        let first = std::mem::take(&mut self.first);
        match self.byte() {
            Some(b']') => {
                self.close();
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                Ok(true)
            }
            _ if !first => Err(self.err("expected `,` or `]`")),
            _ => Ok(true),
        }
    }

    /// Consumes the closing bracket of the innermost container.
    #[inline]
    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
    }

    /// Reads the value of the member just keyed as field `field` of type
    /// `ty`, prefixing a type error with `ty.field: `.
    pub fn field<T: Deserialize>(&mut self, ty: &str, field: &str) -> Result<T, Error> {
        T::deserialize(self).map_err(|e| Error(format!("{ty}.{field}: {}", e.0)))
    }

    /// Skips one value, checking its syntax as strictly as reading it.
    /// Only unknown and repeated keys and the error path skip, so the
    /// value is read as a [`Value`] and dropped.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        self.parse_value().map(drop)
    }

    /// Opens an array that must hold exactly as many items as the caller
    /// reads with [`Decoder::tuple_element`] before [`Decoder::end_tuple`];
    /// any other value or length is the type error
    /// `"{expected}, got {value:?}"`.
    pub fn begin_tuple(&mut self, expected: &'static str) -> Result<Tuple, Error> {
        let start = self.mark_value()?;
        if self.begin_array()? {
            Ok(Tuple { start, expected })
        } else {
            Err(self.unexpected(start, expected))
        }
    }

    /// Reads the next item of the tuple `t`.
    pub fn tuple_element<T: Deserialize>(&mut self, t: Tuple) -> Result<T, Error> {
        if self.next_element()? {
            T::deserialize(self)
        } else {
            Err(self.unexpected(t.start, t.expected))
        }
    }

    /// Closes the tuple `t`, which must have no items left.
    pub fn end_tuple(&mut self, t: Tuple) -> Result<(), Error> {
        if self.next_element()? {
            Err(self.unexpected(t.start, t.expected))
        } else {
            Ok(())
        }
    }

    /// Reads the head of an externally tagged value of the enum `ty`: a
    /// unit variant's name, or a single-key object's tag and `:`, leaving
    /// the payload to read and [`Decoder::end_variant`] to call.
    pub fn variant(&mut self, ty: &str) -> Result<Variant<'a>, Error> {
        let start = self.mark_value()?;
        if self.bytes[self.pos] == b'"' {
            return self.parse_string().map(Variant::Unit);
        }
        if self.begin_object()? {
            if let Some(tag) = self.next_key()? {
                return Ok(Variant::Tagged(tag, start));
            }
        }
        Err(self.unknown_variant(start, ty))
    }

    /// Closes a tagged value opened by [`Decoder::variant`] at `start`;
    /// a second key makes it the error [`Decoder::unknown_variant`] gives.
    pub fn end_variant(&mut self, start: Mark, ty: &str) -> Result<(), Error> {
        self.skip_ws();
        if self.byte() == Some(b'}') {
            self.close();
            Ok(())
        } else {
            Err(self.unknown_variant(start, ty))
        }
    }

    /// The error for a value at `start` that is no variant of the enum
    /// `ty`: `unknown variant` for a single-key object, a type error for
    /// anything else.
    pub fn unknown_variant(&mut self, start: Mark, ty: &str) -> Error {
        match self.value_at(start) {
            Ok(Value::Object(pairs)) if pairs.len() == 1 => {
                Error(format!("unknown variant `{}` for {ty}", pairs[0].0))
            }
            Ok(v) => Error(format!("{ty}: expected enum value, got {v:?}")),
            Err(e) => e,
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' if self.eat_keyword("null") => Ok(Value::Null),
            b't' if self.eat_keyword("true") => Ok(Value::Bool(true)),
            b'f' if self.eat_keyword("false") => Ok(Value::Bool(false)),
            b'"' => Ok(Value::Str(self.parse_string()?.into_owned())),
            b'[' => {
                self.open();
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.parse_value()?);
                }
                Ok(Value::Array(items))
            }
            b'{' => {
                self.open();
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key()? {
                    let key = key.into_owned();
                    pairs.push((key, self.parse_value()?));
                }
                Ok(Value::Object(pairs))
            }
            b'-' | b'0'..=b'9' => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    #[inline]
    fn parse_string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.eat(b'"')?;
        let start = self.pos;
        let rest = &self.bytes[start..];
        match rest.iter().position(|&b| b == b'"' || b == b'\\') {
            Some(len) if rest[len] == b'"' => {
                self.pos += len + 1;
                // Quotes are ASCII, so both ends are char boundaries.
                Ok(Cow::Borrowed(&self.text[start..start + len]))
            }
            Some(len) => {
                self.pos += len;
                let mut out = self.text[start..start + len].to_string();
                self.parse_escaped(&mut out)?;
                Ok(Cow::Owned(out))
            }
            None => {
                self.pos = self.bytes.len();
                Err(self.err("unterminated string"))
            }
        }
    }

    /// The rest of a string from its first backslash, unescaped onto
    /// `out`, through the closing quote.
    fn parse_escaped(&mut self, out: &mut String) -> Result<(), Error> {
        loop {
            match self.byte() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.byte() {
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
                            // The encoder never writes surrogate pairs;
                            // they are refused on input.
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
                    // The run up to the next quote or backslash: both are
                    // ASCII, so the run ends on a char boundary.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + len]);
                    self.pos += len;
                }
            }
        }
    }

    /// Reads a number token: the longest run of digits and `.eE+-` after
    /// an optional `-`. A plain integer is exact when it fits (`UInt`, or
    /// `Int` when negative); anything else is parsed as a float.
    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let bytes = self.bytes;
        let digits = start + usize::from(bytes[start] == b'-');
        let run = &bytes[digits..];
        let len = run
            .iter()
            .position(|b| !b.is_ascii_digit())
            .unwrap_or(run.len());
        self.pos = digits + len;
        let mut is_float = false;
        while let Some(c) = self.byte() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        if !is_float && len > 0 {
            let n = run[..len].iter().try_fold(0u64, |n, d| {
                n.checked_mul(10)?.checked_add(u64::from(d - b'0'))
            });
            match (n, digits > start) {
                (Some(n), false) => return Ok(Value::UInt(n)),
                (Some(n), true) => {
                    if let Ok(i) = i64::try_from(n) {
                        return Ok(Value::Int(-i));
                    }
                }
                (None, _) => {}
            }
        }
        self.parse_float(start)
    }

    fn parse_float(&self, start: usize) -> Result<Value, Error> {
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

// ------------------------------------------------------ std type impls

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            #[inline]
            fn deserialize(de: &mut Decoder<'_>) -> Result<Self, Error> {
                let n = de.u64()?;
                <$t>::try_from(n)
                    .map_err(|_| Error(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64);

impl Deserialize for usize {
    #[inline]
    fn deserialize(de: &mut Decoder<'_>) -> Result<Self, Error> {
        u64::deserialize(de).and_then(|n| {
            usize::try_from(n).map_err(|_| Error(format!("{n} out of range for usize")))
        })
    }
}

macro_rules! impl_sint {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize(de: &mut Decoder<'_>) -> Result<Self, Error> {
                let wide: i64 = match de.number("expected integer")? {
                    Value::UInt(n) => i64::try_from(n)
                        .map_err(|_| Error(format!("{n} out of range for {}", stringify!($t))))?,
                    Value::Int(n) => n,
                    other => return Err(Error(format!("expected integer, got {other:?}"))),
                };
                <$t>::try_from(wide)
                    .map_err(|_| Error(format!("{wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_sint!(i8, i16, i32, i64);

impl Deserialize for isize {
    fn deserialize(de: &mut Decoder<'_>) -> Result<Self, Error> {
        i64::deserialize(de).and_then(|n| {
            isize::try_from(n).map_err(|_| Error(format!("{n} out of range for isize")))
        })
    }
}

impl Deserialize for f64 {
    fn deserialize(de: &mut Decoder<'_>) -> Result<Self, Error> {
        match de.number("expected number")? {
            Value::Float(x) => Ok(x),
            Value::UInt(n) => Ok(n as f64),
            Value::Int(n) => Ok(n as f64),
            other => Err(Error(format!("expected number, got {other:?}"))),
        }
    }
}

impl Deserialize for f32 {
    fn deserialize(de: &mut Decoder<'_>) -> Result<Self, Error> {
        f64::deserialize(de).map(|x| x as f32)
    }
}

impl Deserialize for bool {
    fn deserialize(de: &mut Decoder<'_>) -> Result<Self, Error> {
        de.bool()
    }
}

impl Deserialize for String {
    #[inline]
    fn deserialize(de: &mut Decoder<'_>) -> Result<Self, Error> {
        de.str().map(Cow::into_owned)
    }
}

impl Deserialize for Value {
    fn deserialize(de: &mut Decoder<'_>) -> Result<Self, Error> {
        de.parse_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(de: &mut Decoder<'_>) -> Result<Self, Error> {
        T::deserialize(de).map(Box::new)
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(de: &mut Decoder<'_>) -> Result<Self, Error> {
        if de.null()? {
            Ok(None)
        } else {
            T::deserialize(de).map(Some)
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(de: &mut Decoder<'_>) -> Result<Self, Error> {
        let at = de.mark_value()?;
        if !de.begin_array()? {
            return Err(de.unexpected(at, "expected array"));
        }
        let mut items = Vec::new();
        while de.next_element()? {
            items.push(T::deserialize(de)?);
        }
        Ok(items)
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn deserialize(de: &mut Decoder<'_>) -> Result<Self, Error> {
        let at = de.mark_value()?;
        if !de.begin_object()? {
            return Err(de.unexpected(at, "expected object"));
        }
        let mut map = Self::new();
        while let Some(key) = de.next_key()? {
            let key = key.into_owned();
            map.insert(key, V::deserialize(de)?);
        }
        Ok(map)
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize(de: &mut Decoder<'_>) -> Result<Self, Error> {
        let t = de.begin_tuple("expected 2-element array")?;
        let pair = (de.tuple_element(t)?, de.tuple_element(t)?);
        de.end_tuple(t)?;
        Ok(pair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_errors_reported() {
        assert!(decode::<u8>("300").is_err());
        assert_eq!(
            decode::<u64>("\"x\"").unwrap_err().0,
            "expected unsigned integer, got Str(\"x\")"
        );
        // Integers are accepted where floats are expected.
        assert_eq!(decode::<f64>("4"), Ok(4.0));
        assert_eq!(decode::<Option<u64>>("null"), Ok(None));
    }

    #[test]
    fn keys_borrow_unless_escaped() {
        let mut de = Decoder::new(r#"{"plain":1,"\u0065scaped":2}"#);
        assert!(de.begin_object().unwrap());
        assert!(matches!(
            de.next_key().unwrap(),
            Some(Cow::Borrowed("plain"))
        ));
        de.skip_value().unwrap();
        let key = de.next_key().unwrap().unwrap();
        assert!(matches!(&key, Cow::Owned(k) if k == "escaped"));
        de.skip_value().unwrap();
        assert!(de.next_key().unwrap().is_none());
        de.end().unwrap();
    }

    #[test]
    fn a_syntax_error_after_a_type_error_wins() {
        // The type error at byte 1 comes first in reading order, but the
        // document is not JSON at all.
        assert_eq!(
            decode::<Vec<u64>>(r#"["x", 1,]"#).unwrap_err().0,
            "expected a JSON value at byte 8"
        );
        assert_eq!(
            decode::<Vec<u64>>(r#"["x", 1]"#).unwrap_err().0,
            "expected unsigned integer, got Str(\"x\")"
        );
    }

    #[test]
    fn tuples_need_their_exact_length() {
        assert_eq!(decode::<(u8, bool)>("[1, true]"), Ok((1, true)));
        for doc in ["[1]", "[1,true,2]", "{}", "7"] {
            let e = decode::<(u8, bool)>(doc).unwrap_err().0;
            assert!(
                e.starts_with("expected 2-element array, got "),
                "{doc}: {e}"
            );
        }
    }
}
