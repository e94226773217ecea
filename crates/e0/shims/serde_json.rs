//! Minimal offline stand-in for `serde_json`: the value model, the
//! `json!` literal macro, and pretty printing. `from_str` always
//! reports an error — the stand-in carries no parser because nothing a
//! benchmark workload runs parses JSON.

pub use serde::{Error, Map, Value};

use serde::{Deserialize, Serialize};

pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    value.to_json()
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_json()?, 0, &mut out);
    Ok(out)
}

pub fn from_str<T: Deserialize>(_json: &str) -> Result<T, Error> {
    Err(Error("the offline serde_json stand-in cannot parse".into()))
}

fn write_value(v: &Value, indent: usize, out: &mut String) {
    let pad = |n: usize, out: &mut String| out.push_str(&"  ".repeat(n));
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) if n.is_finite() => out.push_str(&format!("{n:?}")),
        Value::Number(_) => out.push_str("null"),
        Value::String(s) => write_string(s, out),
        Value::Array(items) if items.is_empty() => out.push_str("[]"),
        Value::Array(items) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                pad(indent + 1, out);
                write_value(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            pad(indent, out);
            out.push(']');
        }
        Value::Object(map) if map.is_empty() => out.push_str("{}"),
        Value::Object(map) => {
            out.push_str("{\n");
            for (i, (k, item)) in map.iter().enumerate() {
                pad(indent + 1, out);
                write_string(k, out);
                out.push_str(": ");
                write_value(item, indent + 1, out);
                out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
            }
            pad(indent, out);
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `json!` for the literal shapes the workspace writes: objects with
/// string-literal keys, arrays of expressions, and bare expressions.
#[macro_export]
macro_rules! json {
    ({ $($body:tt)* }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $crate::json_fields!(map; $($body)*);
        $crate::Value::Object(map)
    }};
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![$($crate::json!($item)),*])
    };
    ($value:expr) => {
        $crate::to_value(&$value).unwrap_or($crate::Value::Null)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_fields {
    ($map:ident;) => {};
    ($map:ident; $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $map.insert($key.to_string(), $crate::json!({ $($inner)* }));
        $crate::json_fields!($map; $($($rest)*)?);
    };
    ($map:ident; $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $map.insert($key.to_string(), $crate::json!([ $($inner)* ]));
        $crate::json_fields!($map; $($($rest)*)?);
    };
    ($map:ident; $key:literal : $value:expr $(, $($rest:tt)*)?) => {
        $map.insert($key.to_string(), $crate::json!($value));
        $crate::json_fields!($map; $($($rest)*)?);
    };
}
