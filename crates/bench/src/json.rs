//! A minimal JSON value and serializer for the benchmark emitters.
//!
//! The harness only ever *writes* JSON (machine-readable result files like
//! `BENCH_registry.json`), so this module implements exactly that: a value
//! tree, a pretty-printer with stable key order, and RFC 8259-compliant
//! string/number formatting. No parsing, no derive machinery.

use std::fmt::Write as _;

/// The `(name, Json)` pairs of `$value`'s fields, each keyed by its own
/// name, in the order listed: `Json::obj(fields!(row; site, hits))` writes
/// `{"site": row.site, "hits": row.hits}`. A field's name is its key, so
/// renaming one changes the artifact's schema.
macro_rules! fields {
    ($value:expr; $($field:ident),+ $(,)?) => {
        [$((stringify!($field), $crate::json::Json::from($value.$field.clone()))),+]
    };
}
pub(crate) use fields;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Finite number (non-finite floats serialize as `null`, like
    /// serde_json's lossy mode).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; keys keep insertion order for reproducible output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object builder: `Json::obj([("k", v), ...])`.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Array builder.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Compact serialization.
    pub fn to_string_compact(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        s
    }

    /// Pretty serialization (two-space indent, trailing newline).
    pub fn to_string_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(2), 0);
        s.push('\n');
        s
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    if *n == n.trunc() && n.abs() < 1e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(fields) => write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                let (k, v) = &fields[i];
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                v.write(out, indent, depth + 1);
            }),
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    glare_fabric::json_escape_into(out, s);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::Null.to_string_compact(), "null");
        assert_eq!(Json::Bool(true).to_string_compact(), "true");
        assert_eq!(Json::Num(3.0).to_string_compact(), "3");
        assert_eq!(Json::Num(3.5).to_string_compact(), "3.5");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::from("hi").to_string_compact(), "\"hi\"");
    }

    #[test]
    fn escaping() {
        assert_eq!(
            Json::from("a\"b\\c\nd\u{1}").to_string_compact(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn nested_pretty() {
        let v = Json::obj([
            ("name", Json::from("ATR")),
            ("points", Json::arr([Json::from(1u64), Json::from(2u64)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let expected = "{\n  \"name\": \"ATR\",\n  \"points\": [\n    1,\n    2\n  ],\n  \"empty\": []\n}\n";
        assert_eq!(v.to_string_pretty(), expected);
    }

    #[test]
    fn object_preserves_insertion_order() {
        let v = Json::obj([("z", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        assert_eq!(v.to_string_compact(), "{\"z\":1,\"a\":2}");
    }
}
