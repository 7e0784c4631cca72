//! Minimal in-tree stand-in for the `serde` crate.
//!
//! The build environment has no registry access, so this crate provides
//! the subset of serde the workspace actually uses: `Serialize` /
//! `Deserialize` traits plus derive macros for plain structs, tuple
//! structs and enums with unit / newtype / struct variants — the only
//! shapes the workspace derives.
//!
//! Both halves stream, with no intermediate tree. A [`Serialize`] impl
//! appends its JSON text to an [`Encoder`], which writes straight to any
//! `io::Write`. A [`Deserialize`] impl reads tokens from a [`Decoder`], a
//! pull parser over the input text; `serde_json::from_str` is
//! [`decode`]. [`Value`] is the generic JSON tree, an ordinary
//! `Deserialize` type. Representation conventions match real serde's
//! JSON output: structs are objects, newtype structs are transparent,
//! unit enum variants are strings, and data-carrying enum variants are
//! single-key objects (externally tagged).

#![warn(missing_docs)]

mod de;

use std::fmt;
use std::io;

pub use de::{decode, Decoder, Deserialize, Mark, Tuple, Variant};
#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A JSON value as a generic tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-negative integer (kept exact up to `u64::MAX`).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

/// Serialization/deserialization error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error {
    /// The error for a struct or struct variant `ty` whose JSON object
    /// lacks `field`.
    #[must_use]
    pub fn missing_field(ty: &str, field: &str) -> Self {
        Error(format!("{ty}: missing field `{field}`"))
    }
}

impl std::error::Error for Error {}

/// Types that can write themselves as JSON.
pub trait Serialize {
    /// Appends `self`'s JSON encoding to `enc`.
    fn serialize<W: io::Write>(&self, enc: &mut Encoder<W>);
}

// ------------------------------------------------------------- encoding

/// Streams JSON text to a writer.
///
/// Compact and pretty output (2-space indent, like real `serde_json`)
/// share one code path: pretty mode only adds the line breaks and the
/// space after `:`. Containers are written as `begin_*`, then
/// [`Encoder::element`] or a key before each item, then `end_*`. In
/// compact mode a derived struct writes each constant run between its
/// values, such as `{"Arrival":{"t":` or `,"job":`, with one
/// [`Encoder::literal`] and its closing run with [`Encoder::end_literal`].
///
/// Errors are sticky: the first non-finite float or I/O failure is kept,
/// every later write is skipped, and [`Encoder::finish`] returns it.
pub struct Encoder<W> {
    out: W,
    pretty: bool,
    depth: usize,
    /// Nothing written yet in the innermost open container.
    first: bool,
    error: Option<Error>,
}

impl<W: io::Write> Encoder<W> {
    /// An encoder writing compact (`pretty = false`) or 2-space indented
    /// JSON to `out`.
    pub fn new(out: W, pretty: bool) -> Self {
        Encoder {
            out,
            pretty,
            depth: 0,
            first: true,
            error: None,
        }
    }

    /// Returns the writer, or the first error hit while encoding.
    pub fn finish(self) -> Result<W, Error> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.out),
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        if self.error.is_none() {
            if let Err(e) = self.out.write_all(bytes) {
                self.error = Some(Error(format!("writing JSON: {e}")));
            }
        }
    }

    fn newline(&mut self) {
        self.put(b"\n");
        for _ in 0..self.depth {
            self.put(b"  ");
        }
    }

    fn open(&mut self, bracket: &[u8]) {
        self.put(bracket);
        self.depth += 1;
        self.first = true;
    }

    fn close(&mut self, bracket: &[u8]) {
        self.depth -= 1;
        if self.pretty && !self.first {
            self.newline();
        }
        self.put(bracket);
        // The enclosing container now holds this value.
        self.first = false;
    }

    /// Opens a JSON object.
    pub fn begin_object(&mut self) {
        self.open(b"{");
    }

    /// Closes the innermost JSON object.
    pub fn end_object(&mut self) {
        self.close(b"}");
    }

    /// Opens a JSON array.
    pub fn begin_array(&mut self) {
        self.open(b"[");
    }

    /// Closes the innermost JSON array.
    pub fn end_array(&mut self) {
        self.close(b"]");
    }

    /// Starts the next array item: the separating `,` and, when pretty,
    /// the line break and indent.
    pub fn element(&mut self) {
        if !self.first {
            self.put(b",");
        }
        self.first = false;
        if self.pretty {
            self.newline();
        }
    }

    /// Starts the next object member under `key`, escaping it.
    pub fn key(&mut self, key: &str) {
        self.element();
        self.str(key);
        self.colon();
    }

    /// Starts the next object member under a key that is already encoded
    /// as a JSON string, quotes included (derive-generated field names).
    pub fn field(&mut self, encoded_key: &str) {
        self.element();
        self.put(encoded_key.as_bytes());
        self.colon();
    }

    fn colon(&mut self) {
        self.put(if self.pretty { b": " } else { b":" });
    }

    /// Whether this encoder writes 2-space indented JSON.
    pub fn is_pretty(&self) -> bool {
        self.pretty
    }

    /// Writes JSON text that is already encoded: derive-generated unit
    /// variant names, and the constant runs of a derived struct's compact
    /// encoding.
    pub fn literal(&mut self, json: &str) {
        self.put(json.as_bytes());
    }

    /// Writes the closing run of a derived struct's compact encoding,
    /// such as `}}`. The enclosing container then holds a value, as after
    /// [`Encoder::end_object`].
    pub fn end_literal(&mut self, json: &str) {
        self.put(json.as_bytes());
        self.first = false;
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.put(b"null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.put(if b { b"true" } else { b"false" });
    }

    /// Writes a non-negative integer.
    pub fn u64(&mut self, n: u64) {
        let mut buf = [0u8; 20];
        let start = digits(&mut buf, n);
        self.put(&buf[start..]);
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, n: i64) {
        if n < 0 {
            self.put(b"-");
        }
        self.u64(n.unsigned_abs());
    }

    /// Writes a float. Integral values below 1e15 keep a `.0` so they
    /// re-parse as floats; a non-finite value is an error.
    pub fn f64(&mut self, x: f64) {
        if !x.is_finite() {
            self.error
                .get_or_insert_with(|| Error(format!("cannot encode non-finite float {x}")));
            return;
        }
        let text = if x.fract() == 0.0 && x.abs() < 1e15 {
            format!("{x:.1}")
        } else {
            format!("{x}")
        };
        self.put(text.as_bytes());
    }

    /// Writes a JSON string, escaping quotes, backslashes and control
    /// characters. Each run of bytes that needs no escape is written in
    /// one piece.
    pub fn str(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let bytes = s.as_bytes();
        self.put(b"\"");
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let control;
            let escaped: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\t' => b"\\t",
                b'\r' => b"\\r",
                0..=0x1f => {
                    control = [
                        b'\\',
                        b'u',
                        b'0',
                        b'0',
                        HEX[usize::from(b >> 4)],
                        HEX[usize::from(b & 0xf)],
                    ];
                    &control
                }
                _ => continue,
            };
            self.put(&bytes[run..i]);
            self.put(escaped);
            run = i + 1;
        }
        self.put(&bytes[run..]);
        self.put(b"\"");
    }
}

/// Writes the decimal digits of `n` right-aligned into `buf` and returns
/// the index of the first digit.
fn digits(buf: &mut [u8; 20], mut n: u64) -> usize {
    let mut i = buf.len();
    loop {
        i -= 1;
        // n % 10 < 10, so the narrowing is exact.
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return i;
        }
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<W: io::Write>(&self, enc: &mut Encoder<W>) {
                enc.u64(u64::from(*self));
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64);

impl Serialize for usize {
    fn serialize<W: io::Write>(&self, enc: &mut Encoder<W>) {
        enc.u64(*self as u64);
    }
}

macro_rules! impl_sint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<W: io::Write>(&self, enc: &mut Encoder<W>) {
                enc.i64(i64::from(*self));
            }
        }
    )*};
}

impl_sint!(i8, i16, i32, i64);

impl Serialize for isize {
    fn serialize<W: io::Write>(&self, enc: &mut Encoder<W>) {
        enc.i64(*self as i64);
    }
}

impl Serialize for f64 {
    fn serialize<W: io::Write>(&self, enc: &mut Encoder<W>) {
        enc.f64(*self);
    }
}

impl Serialize for f32 {
    fn serialize<W: io::Write>(&self, enc: &mut Encoder<W>) {
        enc.f64(f64::from(*self));
    }
}

impl Serialize for bool {
    fn serialize<W: io::Write>(&self, enc: &mut Encoder<W>) {
        enc.bool(*self);
    }
}

impl Serialize for String {
    fn serialize<W: io::Write>(&self, enc: &mut Encoder<W>) {
        enc.str(self);
    }
}

impl Serialize for str {
    fn serialize<W: io::Write>(&self, enc: &mut Encoder<W>) {
        enc.str(self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<W: io::Write>(&self, enc: &mut Encoder<W>) {
        (**self).serialize(enc);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<W: io::Write>(&self, enc: &mut Encoder<W>) {
        (**self).serialize(enc);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<W: io::Write>(&self, enc: &mut Encoder<W>) {
        self.as_slice().serialize(enc);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<W: io::Write>(&self, enc: &mut Encoder<W>) {
        enc.begin_array();
        for x in self {
            enc.element();
            x.serialize(enc);
        }
        enc.end_array();
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<W: io::Write>(&self, enc: &mut Encoder<W>) {
        match self {
            Some(x) => x.serialize(enc),
            None => enc.null(),
        }
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn serialize<W: io::Write>(&self, enc: &mut Encoder<W>) {
        enc.begin_object();
        for (k, v) in self {
            enc.key(k);
            v.serialize(enc);
        }
        enc.end_object();
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize<W: io::Write>(&self, enc: &mut Encoder<W>) {
        enc.begin_array();
        enc.element();
        self.0.serialize(enc);
        enc.element();
        self.1.serialize(enc);
        enc.end_array();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode<T: Serialize + ?Sized>(v: &T, pretty: bool) -> Result<String, Error> {
        let mut enc = Encoder::new(Vec::new(), pretty);
        v.serialize(&mut enc);
        Ok(String::from_utf8(enc.finish()?).unwrap())
    }

    #[test]
    fn nested_containers_share_one_layout_path() {
        let v = vec![vec![], vec![1u64, 2]];
        assert_eq!(encode(&v, false).unwrap(), "[[],[1,2]]");
        assert_eq!(
            encode(&v, true).unwrap(),
            "[\n  [],\n  [\n    1,\n    2\n  ]\n]"
        );
        let mut map = std::collections::BTreeMap::new();
        map.insert("k\"".to_string(), (true, None::<u8>));
        assert_eq!(encode(&map, false).unwrap(), r#"{"k\"":[true,null]}"#);
        assert_eq!(
            encode(&map, true).unwrap(),
            "{\n  \"k\\\"\": [\n    true,\n    null\n  ]\n}"
        );
    }

    #[test]
    fn integers_and_floats_format_like_display() {
        for n in [0u64, 9, 10, 1_234_567, u64::MAX] {
            assert_eq!(encode(&n, false).unwrap(), n.to_string());
        }
        for n in [i64::MIN, -10, -1, 0, i64::MAX] {
            assert_eq!(encode(&n, false).unwrap(), n.to_string());
        }
        assert_eq!(encode(&2.0f64, false).unwrap(), "2.0");
        assert_eq!(encode(&0.5f64, false).unwrap(), "0.5");
        assert_eq!(encode(&1e15f64, false).unwrap(), "1000000000000000");
    }

    #[test]
    fn non_finite_floats_are_sticky_errors() {
        let v = vec![(1.0f64, "a"), (f64::NAN, "b"), (f64::INFINITY, "c")];
        for pretty in [false, true] {
            let e = encode(&v, pretty).unwrap_err();
            assert_eq!(e.0, "cannot encode non-finite float NaN");
        }
    }
}
