//! The workspace's one JSON writer.
//!
//! Every export (sweep, fleet, SLO, Chrome trace) builds a [`Json`] value
//! and prints it with `Display`. Only this module escapes strings, places
//! separators and lays out containers, by one rule: a container goes on
//! one line (`{"a": 1, "b": [2, 3]}`) unless a member holds a container;
//! then each member gets its own line, indented two spaces per level.
//! Numbers carry the text their producer formatted ([`Json::fixed`] for
//! floats; there is no `From<f64>`).

use std::fmt::{self, Write};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as the text its producer formatted; written verbatim.
    Num(String),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in insertion order.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// `x` with `digits` digits after the point (`{:.digits$}`).
    pub fn fixed(x: f64, digits: usize) -> Json {
        Json::Num(format!("{x:.digits$}"))
    }

    /// Whether containers nest more than `levels` deep in this value (a
    /// scalar nests 0 deep, `[1]` 1 deep, `[[1]]` 2 deep).
    fn nests(&self, levels: u32) -> bool {
        match self {
            Json::Arr(items) => levels == 0 || items.iter().any(|v| v.nests(levels - 1)),
            Json::Obj(fields) => levels == 0 || fields.iter().any(|(_, v)| v.nests(levels - 1)),
            _ => false,
        }
    }

    fn write(&self, out: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let (open, members, close): (_, Vec<(Option<&str>, &Json)>, _) = match self {
            Json::Null => return out.write_str("null"),
            Json::Bool(b) => return write!(out, "{b}"),
            Json::Num(text) => return out.write_str(text),
            Json::Str(s) => return write_escaped(out, s),
            Json::Arr(items) => ('[', items.iter().map(|v| (None, v)).collect(), ']'),
            Json::Obj(fields) => (
                '{',
                fields.iter().map(|(k, v)| (Some(*k), v)).collect(),
                '}',
            ),
        };
        // The layout rule: one line unless a member holds a container.
        let broken = self.nests(2);
        out.write_char(open)?;
        for (i, (key, value)) in members.into_iter().enumerate() {
            out.write_str(if i == 0 { "" } else { "," })?;
            if broken {
                write!(out, "\n{:w$}", "", w = 2 * indent + 2)?;
            } else if i > 0 {
                out.write_char(' ')?;
            }
            if let Some(key) = key {
                write_escaped(out, key)?;
                out.write_str(": ")?;
            }
            value.write(out, indent + 1)?;
        }
        if broken {
            write!(out, "\n{:w$}", "", w = 2 * indent)?;
        }
        out.write_char(close)
    }
}

/// Writes `s` as a JSON string: `"` and `\` are backslash-escaped, a
/// newline becomes `\n`, every other control character `\u00XX`.
fn write_escaped(out: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' | '\\' => write!(out, "\\{c}")?,
            '\n' => out.write_str("\\n")?,
            c if c < ' ' => write!(out, "\\u{:04x}", u32::from(c))?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v.to_string())
            }
        }
    )*};
}
from_integer!(u64, u32, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The layout rule on its boundary cases; escapes and number text are
    /// checked against an independent parser in `tests/trace_inertness.rs`.
    #[test]
    fn a_container_breaks_only_when_a_member_holds_a_container() {
        let flat = Json::Obj(vec![
            ("a", Json::Null),
            ("b", [2u64, 3].into_iter().collect()),
            ("c", Json::Bool(true)),
        ]);
        assert_eq!(flat.to_string(), r#"{"a": null, "b": [2, 3], "c": true}"#);
        let empty = Json::Obj(vec![("x", Json::Arr(vec![])), ("y", Json::Obj(vec![]))]);
        assert_eq!(empty.to_string(), r#"{"x": [], "y": {}}"#);
        let doc = Json::Obj(vec![("rows", [flat.clone(), flat].into_iter().collect())]);
        let row = r#"{"a": null, "b": [2, 3], "c": true}"#;
        assert_eq!(
            doc.to_string(),
            format!("{{\n  \"rows\": [\n    {row},\n    {row}\n  ]\n}}")
        );
    }
}
