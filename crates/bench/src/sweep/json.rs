//! A minimal JSON emitter for sweep reports.
//!
//! The workspace carries no serde (offline reproducibility), and the sweep
//! output is a fixed, shallow schema — so a tiny value tree with a
//! deterministic pretty renderer is all that is needed. Numbers render
//! through Rust's shortest-round-trip float formatting; non-finite floats
//! become `null` (JSON has no NaN); u64-range integers that would lose
//! precision in an f64 (digests, counters) should be emitted as strings by
//! the caller ([`Json::hex`] helps).

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A finite number (non-finite renders as `null`).
    Num(f64),
    /// An exact integer (u64 counters; rendered digit-exact).
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object builder from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A `u64` rendered as a lossless `"0x…"` string (for digests, whose
    /// full 64-bit range exceeds f64-exact integers).
    pub fn hex(x: u64) -> Json {
        Json::Str(format!("{x:#018x}"))
    }

    /// Renders with two-space indentation and a final newline.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            // `{:?}` is Rust's shortest round-trip form; it may produce
            // "1.0" or scientific notation like "1e-7" (both valid JSON).
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(xs) => write_items(out, depth, "[]", xs.iter().map(|x| (None, x))),
            Json::Obj(kvs) => write_items(
                out,
                depth,
                "{}",
                kvs.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// An array (`None` keys) or object between `brackets`, one item per
/// line; an empty one stays on its line.
fn write_items<'a>(
    out: &mut String,
    depth: usize,
    brackets: &str,
    items: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let (open, close) = brackets.split_at(1);
    out.push_str(open);
    if items.len() == 0 {
        out.push_str(close);
        return;
    }
    for (i, (key, value)) in items.enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push_str(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `v` rendered, without the final newline.
    fn render(v: Json) -> String {
        v.render_pretty().trim_end_matches('\n').to_string()
    }

    #[test]
    fn scalars_render() {
        assert_eq!(render(Json::Num(1.5)), "1.5");
        assert_eq!(render(Json::Num(3.0)), "3.0");
        assert_eq!(render(Json::Num(f64::NAN)), "null");
        assert_eq!(render(Json::Num(f64::INFINITY)), "null");
        assert_eq!(render(Json::Int(u64::MAX)), "18446744073709551615");
        assert_eq!(render(Json::str("hi")), "\"hi\"");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            render(Json::str("a\"b\\c\nd\te")),
            "\"a\\\"b\\\\c\\nd\\te\""
        );
        assert_eq!(render(Json::str("\u{1}")), "\"\\u0001\"");
    }

    #[test]
    fn nested_structure_renders_one_item_per_line() {
        let v = Json::obj(vec![
            ("name", Json::str("sweep")),
            ("xs", Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])),
            ("meta", Json::obj(vec![("n", Json::Int(1))])),
            ("empty", Json::Arr(Vec::new())),
        ]);
        assert_eq!(
            v.render_pretty(),
            "{\n  \"name\": \"sweep\",\n  \"xs\": [\n    1.0,\n    2.5\n  ],\n  \
             \"meta\": {\n    \"n\": 1\n  },\n  \"empty\": []\n}\n"
        );
    }

    #[test]
    fn hex_preserves_full_u64_range() {
        assert_eq!(
            render(Json::hex(0xDEAD_BEEF_DEAD_BEEF)),
            "\"0xdeadbeefdeadbeef\""
        );
        assert_eq!(render(Json::hex(0)), "\"0x0000000000000000\"");
    }
}
