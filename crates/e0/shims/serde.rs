//! Minimal offline stand-in for `serde`: the two traits plus the JSON
//! value model `serde_json` re-exports. Hand-written impls cover the
//! primitive and container types the `json!` call sites pass;
//! `#[derive(Serialize, Deserialize)]` (see `serde_derive.rs`) expands
//! to impls that keep the default methods, which report "unsupported" —
//! the call sites (`VaultCatalog::to_json`, `DataVault::export_catalog`)
//! already fall back on `Err`, and no benchmark workload reaches them.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;
use std::fmt;

/// `serde_json::Map` without `preserve_order` is a sorted map.
pub type Map<K, V> = BTreeMap<K, V>;

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
}

#[derive(Debug)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

fn unsupported() -> Error {
    Error("derived serde impls are inert in the offline stand-in".into())
}

pub trait Serialize {
    fn to_json(&self) -> Result<Value, Error> {
        Err(unsupported())
    }
}

pub trait Deserialize: Sized {
    fn from_json(_value: Value) -> Result<Self, Error> {
        Err(unsupported())
    }
}

impl Serialize for Value {
    fn to_json(&self) -> Result<Value, Error> {
        Ok(self.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json(&self) -> Result<Value, Error> {
        (**self).to_json()
    }
}

impl Serialize for bool {
    fn to_json(&self) -> Result<Value, Error> {
        Ok(Value::Bool(*self))
    }
}

impl Serialize for str {
    fn to_json(&self) -> Result<Value, Error> {
        Ok(Value::String(self.to_string()))
    }
}

impl Serialize for String {
    fn to_json(&self) -> Result<Value, Error> {
        Ok(Value::String(self.clone()))
    }
}

macro_rules! number {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Result<Value, Error> {
                Ok(Value::Number(*self as f64))
            }
        }
    )*};
}
number!(f64, f32, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: Serialize> Serialize for [T] {
    fn to_json(&self) -> Result<Value, Error> {
        self.iter()
            .map(Serialize::to_json)
            .collect::<Result<_, _>>()
            .map(Value::Array)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Result<Value, Error> {
        self.as_slice().to_json()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Result<Value, Error> {
        self.as_ref().map_or(Ok(Value::Null), Serialize::to_json)
    }
}
