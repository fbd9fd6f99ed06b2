//! The workspace's one JSON writer.
//!
//! Every export (sweep, fleet, SLO, Chrome trace) builds a [`Json`] value
//! and prints it with `Display`; an export too long to hold as one value
//! (the Chrome trace's event array) streams its array through
//! [`write_object_streaming`], which prints the same text. Only this
//! module escapes strings, places separators and lays out containers, by
//! one rule: a container goes on one line (`{"a": 1, "b": [2, 3]}`)
//! unless a member holds a container; then each member gets its own
//! line, indented two spaces per level. Numbers carry the text their
//! producer formatted ([`Json::fixed`] for floats; there is no
//! `From<f64>`).

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

    fn write(&self, out: &mut impl Write, indent: usize) -> fmt::Result {
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
            separate(out, i, broken, indent)?;
            if let Some(key) = key {
                write_key(out, key)?;
            }
            value.write(out, indent + 1)?;
        }
        end(out, close, broken, indent)
    }
}

/// Prints the object `{key: [items…], rest…}` into `out`: the text
/// `Display` prints for that object built as one value, but the array's
/// items are built and printed one at a time, so a long array (the
/// Chrome trace's events) never exists as a tree. Items are held back
/// only until one holds a container: that fixes the layout (the array
/// and the object both break, one member per line). An array in which
/// no item holds a container, an empty one included, prints as the
/// built value.
pub fn write_object_streaming(
    out: &mut impl Write,
    key: &'static str,
    items: impl IntoIterator<Item = Json>,
    rest: Vec<(&'static str, Json)>,
) -> fmt::Result {
    let mut items = items.into_iter();
    let (mut head, mut deep) = (Vec::new(), false);
    for item in items.by_ref() {
        deep = item.nests(1);
        head.push(item);
        if deep {
            break;
        }
    }
    if !deep {
        let fields = std::iter::once((key, Json::Arr(head))).chain(rest);
        return Json::Obj(fields.collect()).write(out, 0);
    }
    out.write_char('{')?;
    separate(out, 0, true, 0)?;
    write_key(out, key)?;
    out.write_char('[')?;
    for (i, item) in head.into_iter().chain(items).enumerate() {
        separate(out, i, true, 1)?;
        item.write(out, 2)?;
    }
    end(out, ']', true, 1)?;
    for (i, (key, value)) in rest.iter().enumerate() {
        separate(out, i + 1, true, 0)?;
        write_key(out, key)?;
        value.write(out, 1)?;
    }
    end(out, '}', true, 0)
}

/// Starts member `i` of a container opened at `indent`: the comma after
/// the previous member, then a new line (`broken`) or a space.
fn separate(out: &mut impl Write, i: usize, broken: bool, indent: usize) -> fmt::Result {
    out.write_str(if i == 0 { "" } else { "," })?;
    if broken {
        write!(out, "\n{:w$}", "", w = 2 * indent + 2)
    } else if i > 0 {
        out.write_char(' ')
    } else {
        Ok(())
    }
}

/// Closes a container opened at `indent` with `close`.
fn end(out: &mut impl Write, close: char, broken: bool, indent: usize) -> fmt::Result {
    if broken {
        write!(out, "\n{:w$}", "", w = 2 * indent)?;
    }
    out.write_char(close)
}

/// Writes an object member's `"key": `.
fn write_key(out: &mut impl Write, key: &str) -> fmt::Result {
    write_escaped(out, key)?;
    out.write_str(": ")
}

/// Writes `s` as a JSON string: `"` and `\` are backslash-escaped, a
/// newline becomes `\n`, every other control character `\u00XX`.
fn write_escaped(out: &mut impl Write, s: &str) -> fmt::Result {
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

    /// Streaming prints the built value's text whichever item first
    /// holds a container: none (flat, scalar or no items), the first,
    /// or a later one.
    #[test]
    fn a_streamed_array_prints_the_built_text() {
        let deep = || Json::Obj(vec![("args", Json::Obj(vec![("bank", 2u64.into())]))]);
        let flat = || [1u64, 2].into_iter().collect::<Json>();
        let cases: [Vec<Json>; 6] = [
            vec![],
            vec![7u64.into(), "x".into()],
            vec![flat(), flat()],
            vec![deep(), deep(), 3u64.into()],
            vec![flat(), 4u64.into(), deep(), flat()],
            vec![Json::Obj(vec![]), deep()],
        ];
        for items in cases {
            let rest = vec![
                ("unit", "ns".into()),
                ("other", Json::Obj(vec![("dropped", "0".into())])),
            ];
            let mut fields = vec![("events", Json::Arr(items.clone()))];
            fields.extend(rest.clone());
            let mut streamed = String::new();
            write_object_streaming(&mut streamed, "events", items, rest).unwrap();
            assert_eq!(streamed, Json::Obj(fields).to_string());
        }
    }

    /// Each item is printed before the next one is built.
    #[test]
    fn a_streamed_array_holds_one_item_at_a_time() {
        struct Shared<'a>(&'a std::cell::RefCell<String>);
        impl Write for Shared<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.borrow_mut().push_str(s);
                Ok(())
            }
        }
        let out = std::cell::RefCell::new(String::new());
        let items = (0..4u64).map(|i| {
            if i > 0 {
                let previous = format!("\"id\": {}", i - 1);
                assert!(out.borrow().contains(&previous), "item {i} built early");
            }
            Json::Obj(vec![("id", i.into()), ("args", Json::Obj(vec![]))])
        });
        write_object_streaming(&mut Shared(&out), "events", items, vec![]).unwrap();
        assert!(out.borrow().ends_with("{\"id\": 3, \"args\": {}}\n  ]\n}"));
    }
}
