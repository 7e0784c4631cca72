//! Minimal in-tree stand-in for the `serde` crate.
//!
//! The build environment has no registry access, so this crate provides
//! the subset of serde the workspace actually uses: `Serialize` /
//! `Deserialize` traits (value-model based, not visitor based) plus
//! derive macros for plain structs, tuple structs and enums with unit /
//! newtype / struct variants — the only shapes the workspace derives.
//!
//! The JSON data model lives here as [`Value`]; `serde_json` (also
//! shimmed) provides the text encoding. Representation conventions match
//! real serde's JSON output: structs are objects, newtype structs are
//! transparent, unit enum variants are strings, and data-carrying enum
//! variants are single-key objects (externally tagged).

#![warn(missing_docs)]

use std::fmt;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// The serialization data model: an ordered JSON-like value tree.
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

impl Value {
    /// Looks up a field of an object by key.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Serialization/deserialization error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can be converted into the data model.
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

/// Types that can be reconstructed from the data model.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a [`Value`].
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Derive-macro helper: extracts and deserializes a named field,
/// reporting the owning type on error.
pub fn from_field<T: Deserialize>(v: &Value, ty: &str, field: &str) -> Result<T, Error> {
    let fv = v
        .field(field)
        .ok_or_else(|| Error(format!("{ty}: missing field `{field}`")))?;
    T::from_value(fv).map_err(|e| Error(format!("{ty}.{field}: {}", e.0)))
}

/// Derive-macro helper: views `v` as an externally tagged enum value
/// (a single-key object), returning the variant name and payload.
#[must_use]
pub fn as_enum(v: &Value) -> Option<(&str, &Value)> {
    match v {
        Value::Object(pairs) if pairs.len() == 1 => Some((pairs[0].0.as_str(), &pairs[0].1)),
        _ => None,
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(u64::from(*self))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::UInt(n) => <$t>::try_from(*n)
                        .map_err(|_| Error(format!("{n} out of range for {}", stringify!($t)))),
                    other => Err(Error(format!(
                        "expected unsigned integer, got {other:?}"
                    ))),
                }
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64);

impl Serialize for usize {
    fn to_value(&self) -> Value {
        Value::UInt(*self as u64)
    }
}

impl Deserialize for usize {
    fn from_value(v: &Value) -> Result<Self, Error> {
        u64::from_value(v).and_then(|n| {
            usize::try_from(n).map_err(|_| Error(format!("{n} out of range for usize")))
        })
    }
}

macro_rules! impl_sint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = i64::from(*self);
                if n >= 0 { Value::UInt(n as u64) } else { Value::Int(n) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let wide: i64 = match v {
                    Value::UInt(n) => i64::try_from(*n)
                        .map_err(|_| Error(format!("{n} out of range for {}", stringify!($t))))?,
                    Value::Int(n) => *n,
                    other => {
                        return Err(Error(format!("expected integer, got {other:?}")))
                    }
                };
                <$t>::try_from(wide)
                    .map_err(|_| Error(format!("{wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_sint!(i8, i16, i32, i64);

impl Serialize for isize {
    fn to_value(&self) -> Value {
        (*self as i64).to_value()
    }
}

impl Deserialize for isize {
    fn from_value(v: &Value) -> Result<Self, Error> {
        i64::from_value(v).and_then(|n| {
            isize::try_from(n).map_err(|_| Error(format!("{n} out of range for isize")))
        })
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Float(x) => Ok(*x),
            Value::UInt(n) => Ok(*n as f64),
            Value::Int(n) => Ok(*n as f64),
            other => Err(Error(format!("expected number, got {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error(format!("expected bool, got {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error(format!("expected array, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(pairs) => pairs
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => Err(Error(format!("expected object, got {other:?}"))),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) if items.len() == 2 => {
                Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
            }
            other => Err(Error(format!("expected 2-element array, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&7u64.to_value()), Ok(7));
        assert_eq!(i32::from_value(&(-3i32).to_value()), Ok(-3));
        assert_eq!(bool::from_value(&true.to_value()), Ok(true));
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()),
            Ok("hi".to_string())
        );
        assert_eq!(f64::from_value(&1.5f64.to_value()), Ok(1.5));
        // Integers are accepted where floats are expected.
        assert_eq!(f64::from_value(&Value::UInt(4)), Ok(4.0));
    }

    #[test]
    fn containers_round_trip() {
        let xs = vec![1u64, 2, 3];
        assert_eq!(Vec::<u64>::from_value(&xs.to_value()), Ok(xs));
        assert_eq!(Option::<u64>::from_value(&Value::Null), Ok(None));
        assert_eq!(Option::<u64>::from_value(&Value::UInt(1)), Ok(Some(1)));
    }

    #[test]
    fn range_errors_reported() {
        assert!(u8::from_value(&Value::UInt(300)).is_err());
        assert!(u64::from_value(&Value::Str("x".into())).is_err());
    }

    #[test]
    fn field_lookup() {
        let v = Value::Object(vec![("a".into(), Value::UInt(1))]);
        assert_eq!(from_field::<u64>(&v, "T", "a"), Ok(1));
        assert!(from_field::<u64>(&v, "T", "b")
            .unwrap_err()
            .0
            .contains("missing"));
    }
}
