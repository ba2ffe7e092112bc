//! A tiny, deterministic JSON writer for campaign reports.
//!
//! The offline environment has no `serde_json`, and the campaign engine's
//! contract is stronger than serde's anyway: reports must be **byte
//! identical** for a given spec regardless of `--jobs`, so field order is the
//! insertion order of the builder and float formatting is Rust's shortest
//! round-trip `Display` (deterministic across runs and thread counts).

use std::fmt::Write as _;

/// A JSON value with ordered object fields.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An unsigned integer (the only integer kind the reports need).
    UInt(u64),
    /// A float; non-finite values serialise as `null` per JSON's rules.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with fields in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Appends a field to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Object(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("Json::field on a non-object"),
        }
        self
    }

    /// Serialises with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serialises on a single line with no whitespace — the form used for
    /// JSONL streams (journals, row streams) where one record is one line.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                    if f.fract() == 0.0 && f.abs() < 1e15 {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                    // Keep round floats visibly floats (1 -> 1.0); very large
                    // magnitudes print so many digits that the suffix would
                    // only add noise.
                    if f.fract() == 0.0 && f.abs() < 1e15 {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
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

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Array(v)
    }
}

/// `None` is `null`: a cell a report cannot compute.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_document_layout() {
        let doc = Json::object()
            .field("name", "demo")
            .field("count", 2u64)
            .field("ratio", 1.25)
            .field("whole", 2.0)
            .field("rows", vec![Json::object().field("ok", true), Json::Null]);
        let text = doc.pretty();
        assert!(text.starts_with("{\n  \"name\": \"demo\""));
        assert!(text.contains("\"ratio\": 1.25"));
        assert!(text.contains("\"whole\": 2.0"));
        assert!(text.contains("\"ok\": true"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn strings_are_escaped() {
        let doc = Json::object().field("k", "a\"b\\c\nd\u{1}");
        assert_eq!(doc.pretty(), "{\n  \"k\": \"a\\\"b\\\\c\\nd\\u0001\"\n}\n");
    }

    #[test]
    fn deterministic_output() {
        let build = || {
            Json::object()
                .field("speedup", 1.2345678901234567)
                .field("x", 0.1 + 0.2)
                .pretty()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn compact_is_single_line() {
        let doc = Json::object()
            .field("job", 3u64)
            .field("ok", true)
            .field("name", "a\"b")
            .field("xs", vec![Json::UInt(1), Json::UInt(2)]);
        assert_eq!(
            doc.compact(),
            "{\"job\":3,\"ok\":true,\"name\":\"a\\\"b\",\"xs\":[1,2]}"
        );
        assert_eq!(Json::object().compact(), "{}");
        assert_eq!(Json::Array(vec![]).compact(), "[]");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Array(vec![]).pretty(), "[]\n");
        assert_eq!(Json::object().pretty(), "{}\n");
    }

    #[test]
    fn non_finite_floats_are_null() {
        assert_eq!(Json::Float(f64::NAN).pretty(), "null\n");
        assert_eq!(Json::Float(f64::INFINITY).pretty(), "null\n");
    }
}
