//! Minimal in-tree stand-in for `serde_json`: compact and pretty JSON
//! output streamed through the `serde` shim's [`serde::Encoder`], and
//! input read by the shim's pull parser, [`serde::Decoder`], straight
//! into the target type. Supports exactly the API surface the workspace
//! uses: [`to_string`], [`to_string_pretty`], [`to_writer`] and
//! [`from_str`].

#![warn(missing_docs)]

use serde::{Deserialize, Encoder, Serialize};
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

/// Parses JSON text into a value. The text must hold exactly one JSON
/// value, nested at most 128 deep, with nothing but whitespace around it.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    Ok(serde::decode(s)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

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
        let v: Value = from_str(r#"{"a": 1, "b": [true, null]}"#).unwrap();
        assert_eq!(
            v,
            Value::Object(vec![
                ("a".into(), Value::UInt(1)),
                (
                    "b".into(),
                    Value::Array(vec![Value::Bool(true), Value::Null])
                ),
            ])
        );
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
