//! The one JSON writer behind every artifact the workspace emits: the
//! trace JSONL, the Chrome trace, the metrics documents and the bench
//! reports.
//!
//! Every decision of how a value becomes JSON text is made here, once,
//! with no style option:
//!
//! * **Floats**: finite values as `{:e}` — compact, round-trippable, and
//!   valid JSON even in the `1e0` form; non-finite values as `null`, so no
//!   artifact can carry a `NaN`/`inf` token.
//! * **Strings** (keys and values): `"` and `\` are backslash-escaped and
//!   control characters are written as `\u00XX`.
//! * **Integers** and **booleans** as-is.
//! * **Members** keep insertion order, and the [`Object`]/[`Array`]
//!   builders place every brace, bracket, colon and comma.
//! * **Layout**: compact. [`document`] is the one variant, for files under
//!   `results/`: each top-level member sits on its own line and the file
//!   ends with `\n`.

use std::fmt::Write as _;

/// A value that writes itself as JSON text.
pub trait Json {
    /// Appends this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

impl Json for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self:e}");
        } else {
            out.push_str("null");
        }
    }
}

macro_rules! json_display {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
json_display!(bool, u64, usize);

impl Json for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' | '\\' => {
                    out.push('\\');
                    out.push(c);
                }
                c if c.is_control() => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Json for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: Json> Json for [T] {
    fn write_json(&self, out: &mut String) {
        array(out, |a| {
            for v in self {
                a.item(v);
            }
        });
    }
}

impl<T: Json> Json for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: Json + ?Sized> Json for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// The members of a JSON object being written.
pub struct Object<'a> {
    out: &'a mut String,
    empty: bool,
    /// Members on their own lines ([`document`]'s top level).
    lines: bool,
}

impl Object<'_> {
    fn key(&mut self, key: &str) {
        if !self.empty {
            self.out.push(',');
        }
        if self.lines {
            self.out.push('\n');
        }
        self.empty = false;
        key.write_json(self.out);
        self.out.push(':');
    }

    /// Appends the member `key: value`.
    pub fn field(&mut self, key: &str, value: impl Json) -> &mut Self {
        self.key(key);
        value.write_json(self.out);
        self
    }

    /// Appends the member `key: {..}`, its members written by `f`.
    pub fn object(&mut self, key: &str, f: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        self.key(key);
        object(self.out, f);
        self
    }

    /// Appends the member `key: [..]`, its items written by `f`.
    pub fn array(&mut self, key: &str, f: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        self.key(key);
        array(self.out, f);
        self
    }
}

/// The items of a JSON array being written.
pub struct Array<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Array<'_> {
    fn next(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
    }

    /// Appends one item.
    pub(crate) fn item(&mut self, value: impl Json) -> &mut Self {
        self.next();
        value.write_json(self.out);
        self
    }

    /// Appends one object item, its members written by `f`.
    pub fn object(&mut self, f: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        self.next();
        object(self.out, f);
        self
    }
}

fn write_object(out: &mut String, lines: bool, f: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    let mut o = Object {
        out,
        empty: true,
        lines,
    };
    f(&mut o);
    if lines {
        o.out.push('\n');
    }
    o.out.push('}');
}

/// Appends a compact object whose members `f` writes.
pub fn object(out: &mut String, f: impl FnOnce(&mut Object<'_>)) {
    write_object(out, false, f);
}

/// Appends a compact array whose items `f` writes.
fn array(out: &mut String, f: impl FnOnce(&mut Array<'_>)) {
    out.push('[');
    let mut a = Array { out, empty: true };
    f(&mut a);
    a.out.push(']');
}

/// A value's compact JSON text.
pub fn to_string(value: &(impl Json + ?Sized)) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// A whole file under `results/`: one object whose top-level members `f`
/// writes, each on its own line (nested values stay compact), ending with
/// a newline.
pub fn document(f: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, true, f);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(to_string("plain"), r#""plain""#);
        assert_eq!(to_string(r#"say "hi""#), r#""say \"hi\"""#);
        assert_eq!(to_string(r"C:\dir"), r#""C:\\dir""#);
        assert_eq!(to_string("a\nb"), r#""a\u000ab""#);
        assert_eq!(to_string("\u{1}"), r#""\u0001""#);
        // Non-ASCII text passes through as UTF-8.
        assert_eq!(to_string("±60°"), "\"±60°\"");
        // Keys follow the same rule.
        let mut out = String::new();
        object(&mut out, |o| {
            o.field("k\"", 1u64);
        });
        assert_eq!(out, r#"{"k\"":1}"#);
    }

    #[test]
    fn floats_are_exponent_form_and_non_finite_is_null() {
        assert_eq!(to_string(&1.0), "1e0");
        assert_eq!(to_string(&0.25), "2.5e-1");
        assert_eq!(to_string(&-1e-7), "-1e-7");
        assert_eq!(to_string(&0.0), "0e0");
        assert_eq!(to_string(&f64::NAN), "null");
        assert_eq!(to_string(&f64::INFINITY), "null");
        assert_eq!(to_string(&f64::NEG_INFINITY), "null");
        assert_eq!(to_string(&[1.5, f64::NAN][..]), "[1.5e0,null]");
    }

    #[test]
    fn integers_and_booleans_are_exact() {
        assert_eq!(to_string(&u64::MAX), "18446744073709551615");
        assert_eq!(to_string(&true), "true");
        assert_eq!(to_string(&vec![1usize, 4]), "[1,4]");
    }

    #[test]
    fn empty_containers() {
        let mut out = String::new();
        object(&mut out, |_| {});
        array(&mut out, |_| {});
        assert_eq!(out, "{}[]");
        assert_eq!(to_string(&Vec::<u64>::new()), "[]");
        assert_eq!(document(|_| {}), "{\n}\n");
    }

    #[test]
    fn nesting_keeps_insertion_order() {
        let mut out = String::new();
        object(&mut out, |o| {
            o.field("z", 1u64)
                .object("a", |inner| {
                    inner.field("y", "s").array("x", |a| {
                        a.item(2u64).object(|e| {
                            e.field("w", false);
                        });
                    });
                })
                .field("m", 0.5);
        });
        assert_eq!(out, r#"{"z":1,"a":{"y":"s","x":[2,{"w":false}]},"m":5e-1}"#);
    }

    #[test]
    fn documents_put_top_level_members_on_lines() {
        let doc = document(|d| {
            d.field("schema", "s-v1").object("host", |h| {
                h.field("cores", 2u64).field("rustc", "rustc 1.0");
            });
        });
        assert_eq!(
            doc,
            "{\n\"schema\":\"s-v1\",\n\"host\":{\"cores\":2,\"rustc\":\"rustc 1.0\"}\n}\n"
        );
    }
}
