//! A minimal JSON value and serializer for the benchmark emitters.
//!
//! The harness only ever *writes* JSON (machine-readable result files like
//! `BENCH_registry.json`), so this module implements exactly that: a value
//! tree, a pretty-printer with stable key order, and RFC 8259-compliant
//! string/number formatting. No parsing, no derive machinery. What a
//! harness prints on a terminal is the same document again, laid out by
//! [`Json::to_text`], so the text can never disagree with the file.

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

    /// The document as terminal text, walked in key order. A scalar member
    /// is a `path: value` line under its dotted path; an array of objects
    /// is one aligned table, a column per scalar key in first-seen order, a
    /// blank cell where a row lacks the key; any other array prints inline.
    /// A cell that is not a scalar stays out of its table and is walked
    /// after it as `path[i].key`. Every value is written exactly as
    /// [`Json::to_string_compact`] writes it.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write_text("", &mut out);
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write_text(&self, path: &str, out: &mut String) {
        match self {
            Json::Obj(fields) if !fields.is_empty() => {
                for (key, value) in fields {
                    let path = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                    value.write_text(&path, out);
                }
            }
            Json::Arr(rows)
                if !rows.is_empty() && rows.iter().all(|row| matches!(row, Json::Obj(_))) =>
            {
                write_table(path, rows, out);
            }
            _ => {
                let label = if path.is_empty() { String::new() } else { format!("{path}: ") };
                let _ = writeln!(out, "{label}{}", self.to_string_compact());
            }
        }
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

/// An array of objects as one aligned table (see [`Json::to_text`]),
/// headed by `path:` unless it is the whole document.
fn write_table(path: &str, rows: &[Json], out: &mut String) {
    let rows: Vec<&[(String, Json)]> = rows
        .iter()
        .map(|row| if let Json::Obj(fields) = row { fields.as_slice() } else { &[] })
        .collect();
    let mut columns: Vec<&str> = Vec::new();
    for (key, value) in rows.iter().copied().flatten() {
        if value.is_scalar() && !columns.contains(&key.as_str()) {
            columns.push(key);
        }
    }
    let cell = |row: &[(String, Json)], column: &str| {
        let found = row.iter().find(|(key, value)| key == column && value.is_scalar());
        found.map_or(String::new(), |(_, value)| value.to_string_compact())
    };
    let mut lines = vec![columns.iter().map(|c| (*c).to_owned()).collect::<Vec<_>>()];
    lines.extend(rows.iter().map(|row| columns.iter().map(|c| cell(row, c)).collect()));
    let width = |j: usize| lines.iter().map(|line| line[j].chars().count()).max().unwrap_or(0);
    let widths: Vec<usize> = (0..columns.len()).map(width).collect();
    let indent = if path.is_empty() { "" } else { "  " };
    if !path.is_empty() {
        let _ = writeln!(out, "{path}:");
    }
    for line in &lines {
        let cells: Vec<String> =
            line.iter().zip(&widths).map(|(text, &w)| format!("{text:<w$}")).collect();
        let _ = writeln!(out, "{indent}{}", cells.join("  ").trim_end());
    }
    for (i, row) in rows.iter().enumerate() {
        for (key, value) in row.iter().filter(|(_, value)| !value.is_scalar()) {
            value.write_text(&format!("{path}[{i}].{key}"), out);
        }
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

    #[test]
    fn text_walks_members_in_key_order_under_dotted_paths() {
        let v = Json::obj([
            ("z", Json::from("last?")),
            ("params", Json::obj([("seed", Json::from(7u64)), ("loss", Json::from(0.02))])),
            ("a", Json::arr([Json::from(1u64), Json::from("b")])),
        ]);
        assert_eq!(v.to_text(), "z: \"last?\"\nparams.seed: 7\nparams.loss: 0.02\na: [1,\"b\"]\n");
    }

    #[test]
    fn text_table_takes_the_union_of_columns_with_blank_cells() {
        let rows = Json::arr([
            Json::obj([("site", Json::from("s0")), ("hits", Json::from(12u64))]),
            Json::obj([("misses", Json::from(3u64)), ("site", Json::from("s1"))]),
        ]);
        let doc = Json::obj([("sites", rows.clone())]);
        let expected = "sites:\n  site  hits  misses\n  \"s0\"  12\n  \"s1\"        3\n";
        assert_eq!(doc.to_text(), expected);
        // The whole document as a table: no heading, no indent.
        assert_eq!(rows.to_text(), "site  hits  misses\n\"s0\"  12\n\"s1\"        3\n");
    }

    #[test]
    fn text_walks_non_scalar_cells_after_their_table() {
        let point = |factor: f64, shed: u64| {
            Json::obj([
                ("factor", Json::from(factor)),
                (
                    "tenants",
                    Json::arr([Json::obj([("name", "gold".into()), ("shed", shed.into())])]),
                ),
                ("lint", Json::arr([])),
            ])
        };
        let doc = Json::obj([("points", Json::arr([point(0.5, 0), point(2.0, 4)]))]);
        let expected = "points:\n  factor\n  0.5\n  2\n\
                        points[0].tenants:\n  name    shed\n  \"gold\"  0\n\
                        points[0].lint: []\n\
                        points[1].tenants:\n  name    shed\n  \"gold\"  4\n\
                        points[1].lint: []\n";
        assert_eq!(doc.to_text(), expected);
    }

    #[test]
    fn text_prints_empty_containers_as_their_json() {
        let doc = Json::obj([("rows", Json::arr([])), ("params", Json::obj::<&str>([]))]);
        assert_eq!(doc.to_text(), "rows: []\nparams: {}\n");
        assert_eq!(Json::arr([]).to_text(), "[]\n");
    }

    #[test]
    fn text_numbers_are_byte_equal_to_compact_json() {
        let numbers = [0.1 + 0.2, 1e21, -0.0, 3.0, 57513.629458, f64::NAN, 1.5e-7, 8.357742e18];
        for n in numbers {
            let (v, compact) = (Json::from(n), Json::from(n).to_string_compact());
            assert_eq!(Json::obj([("n", v.clone())]).to_text(), format!("n: {compact}\n"));
            let table = Json::arr([Json::obj([("n", v)])]).to_text();
            assert_eq!(table.lines().nth(1).map(str::trim_end), Some(compact.as_str()), "{n}");
        }
    }

    /// The compact text of every scalar leaf under `v`.
    fn scalar_leaves(v: &Json, out: &mut Vec<String>) {
        match v {
            Json::Obj(fields) => fields.iter().for_each(|(_, v)| scalar_leaves(v, out)),
            Json::Arr(items) => items.iter().for_each(|v| scalar_leaves(v, out)),
            scalar => out.push(scalar.to_string_compact()),
        }
    }

    #[test]
    fn text_of_a_real_report_shows_every_leaf() {
        let rows = Json::arr(crate::table1::run().iter().map(|r| r.to_json()));
        let text = rows.to_text();
        let cells: Vec<&str> = text.lines().flat_map(|l| l.split("  ")).map(str::trim).collect();
        let mut leaves = Vec::new();
        scalar_leaves(&rows, &mut leaves);
        assert_eq!(leaves.len(), 6 * 9);
        for leaf in leaves {
            assert!(cells.contains(&leaf.as_str()), "{leaf} missing from\n{text}");
        }
    }
}
