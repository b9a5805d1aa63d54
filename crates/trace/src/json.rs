//! JSON: a writer for every document the workspace prints. Nothing in
//! the workspace reads JSON back; traces are read only as `.dtb`.
//!
//! The writer prints serde_json's layout byte for byte, so the tracked
//! figure exports and bench reports keep their bytes:
//!
//! * compact (`{"k":1}`) or pretty (two-space indent, `"k": 1`, `[]` and
//!   `{}` for empty containers);
//! * struct fields in declaration order, enums externally tagged (a unit
//!   variant as its name, a struct variant as `{"Name":{..}}`);
//! * `null` for `None` and for NaN and infinities;
//! * strings escaped as serde_json escapes them: `\"`, `\\`, the short
//!   forms `\b \f \n \r \t`, `\u00xx` for the other control bytes, and
//!   everything else, `/` and non-ASCII included, as is;
//! * floats in ryu's layout: the shortest digits that read back to the
//!   same value, as `1.0`, `0.00001`, `1000000000000000.0`, `1e16` or
//!   `1.5e-7` (Rust's `{:?}` prints `1e-5` and `1e15`).
//!
//! [`to_json!`](crate::to_json) implements [`ToJson`] for a plain struct
//! or enum from its field list.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A value the [`Writer`] can print.
pub trait ToJson {
    /// Writes `self` as one JSON value.
    fn write_json(&self, w: &mut Writer);
}

/// `value` as compact JSON: `{"k":[1,2]}`.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut w = Writer::new(false);
    value.write_json(&mut w);
    w.into_string()
}

/// `value` as pretty JSON, two spaces per level, no trailing newline.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut w = Writer::new(true);
    value.write_json(&mut w);
    w.into_string()
}

/// Prints JSON values into a string, compact or pretty.
pub struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
    /// Whether the innermost open container has no element yet.
    empty: bool,
}

impl Writer {
    /// An empty writer; `pretty` selects the indented layout.
    pub fn new(pretty: bool) -> Self {
        Self {
            out: String::new(),
            pretty,
            depth: 0,
            empty: true,
        }
    }

    /// The text written so far.
    pub(crate) fn as_str(&self) -> &str {
        &self.out
    }

    /// The text written.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Forgets the text written so far, keeping the buffer.
    pub(crate) fn clear(&mut self) {
        self.out.clear();
        self.depth = 0;
        self.empty = true;
    }

    /// An object whose entries `body` writes with [`Writer::field`] or
    /// [`Writer::key`].
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) {
        self.open('{');
        body(self);
        self.close('}');
    }

    /// An array of `items`.
    pub fn array<T: ToJson>(&mut self, items: impl IntoIterator<Item = T>) {
        self.open('[');
        for item in items {
            self.separate();
            item.write_json(self);
        }
        self.close(']');
    }

    /// Inside [`Writer::object`]: the entry `name: value`.
    pub fn field<T: ToJson + ?Sized>(&mut self, name: &str, value: &T) {
        self.key(name);
        value.write_json(self);
    }

    /// Inside [`Writer::object`]: an entry's key; the next value written
    /// is its value.
    pub fn key(&mut self, name: &str) {
        self.separate();
        self.string(name);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// An externally tagged enum variant with content: `{"tag": value}`.
    pub(crate) fn tagged<T: ToJson + ?Sized>(&mut self, tag: &str, value: &T) {
        self.object(|w| w.field(tag, value));
    }

    /// A string, escaped.
    pub fn string(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.out.push('"');
        let mut start = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let short = match b {
                b'"' => '"',
                b'\\' => '\\',
                b'\n' => 'n',
                b'\r' => 'r',
                b'\t' => 't',
                0x08 => 'b',
                0x0c => 'f',
                0..=0x1f => 'u',
                _ => continue,
            };
            // Every escaped byte is ASCII, so `i` is a char boundary.
            self.out.push_str(&s[start..i]);
            self.out.push('\\');
            self.out.push(short);
            if short == 'u' {
                self.out.push_str("00");
                self.out.push(HEX[usize::from(b >> 4)] as char);
                self.out.push(HEX[usize::from(b & 0xf)] as char);
            }
            start = i + 1;
        }
        self.out.push_str(&s[start..]);
        self.out.push('"');
    }

    /// An unsigned integer.
    pub fn u64(&mut self, v: u64) {
        let _ = write!(self.out, "{v}");
    }

    /// A float in ryu's layout; `null` when it is not finite.
    pub fn f64(&mut self, v: f64) {
        if !v.is_finite() {
            return self.null();
        }
        if v.is_sign_negative() {
            self.out.push('-');
        }
        if v == 0.0 {
            return self.out.push_str("0.0");
        }
        // `{:e}` prints the shortest digits that read back to `v`, as
        // `d.ddde±x`; lay them out as ryu does.
        let sci = format!("{:e}", v.abs());
        let (mantissa, exp) = sci.split_once('e').expect("`{:e}` prints an exponent");
        let digits = mantissa.replace('.', "");
        let n = digits.len() as i32;
        // `v` is 0.DIGITS × 10^point.
        let point = exp
            .parse::<i32>()
            .expect("`{:e}` prints an integer exponent")
            + 1;
        let zeros = |k: i32| "0".repeat(k.max(0) as usize);
        if (n..=16).contains(&point) {
            let _ = write!(self.out, "{digits}{}.0", zeros(point - n));
        } else if (1..=16).contains(&point) {
            let (int, frac) = digits.split_at(point as usize);
            let _ = write!(self.out, "{int}.{frac}");
        } else if (-4..=0).contains(&point) {
            let _ = write!(self.out, "0.{}{digits}", zeros(-point));
        } else {
            let (lead, rest) = digits.split_at(1);
            let dot = if rest.is_empty() { "" } else { "." };
            let _ = write!(self.out, "{lead}{dot}{rest}e{}", point - 1);
        }
    }

    /// `true` or `false`.
    pub fn bool(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if self.pretty && !self.empty {
            self.newline();
        }
        self.out.push(bracket);
        // The container just closed is an element of the enclosing one.
        self.empty = false;
    }

    /// Before an array element or an object key.
    fn separate(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        if self.pretty {
            self.newline();
        }
        self.empty = false;
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }
}

/// Implements [`ToJson`](crate::json::ToJson) from a field list.
///
/// `to_json!(Point { x, y })` writes a struct's listed fields in the
/// listed order, which should be declaration order; a field left out of
/// the list does not compile, unless the list ends in `..` (for fields
/// JSON does not carry). `to_json!(enum Shape { Dot, Circle { r } })`
/// writes an enum externally tagged: `"Dot"`, `{"Circle":{"r":..}}`.
#[macro_export]
macro_rules! to_json {
    ($ty:ident { $($field:ident),* , .. }) => {
        $crate::to_json!(@struct $ty [$($field)*] [..]);
    };
    ($ty:ident { $($field:ident),* $(,)? }) => {
        $crate::to_json!(@struct $ty [$($field)*] []);
    };
    (@struct $ty:ident [$($field:ident)*] [$($rest:tt)*]) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, w: &mut $crate::json::Writer) {
                let $ty { $($field,)* $($rest)* } = self;
                w.object(|w| { $(w.field(stringify!($field), $field);)* });
            }
        }
    };
    (enum $ty:ident { $($variant:ident $({ $($field:ident),* $(,)? })?),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, w: &mut $crate::json::Writer) {
                match self {
                    $($ty::$variant $({ $($field),* })? => {
                        $crate::to_json!(@variant w $variant $({ $($field),* })?)
                    })*
                }
            }
        }
    };
    (@variant $w:ident $variant:ident) => {
        $w.string(stringify!($variant))
    };
    (@variant $w:ident $variant:ident { $($field:ident),* }) => {
        $w.object(|w| {
            w.key(stringify!($variant));
            w.object(|w| { $(w.field(stringify!($field), $field);)* });
        })
    };
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

impl ToJson for str {
    fn write_json(&self, w: &mut Writer) {
        w.string(self);
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut Writer) {
        w.string(self);
    }
}

impl ToJson for bool {
    fn write_json(&self, w: &mut Writer) {
        w.bool(*self);
    }
}

impl ToJson for f64 {
    fn write_json(&self, w: &mut Writer) {
        w.f64(*self);
    }
}

impl ToJson for u64 {
    fn write_json(&self, w: &mut Writer) {
        w.u64(*self);
    }
}

impl ToJson for u32 {
    fn write_json(&self, w: &mut Writer) {
        w.u64(u64::from(*self));
    }
}

impl ToJson for u8 {
    fn write_json(&self, w: &mut Writer) {
        w.u64(u64::from(*self));
    }
}

impl ToJson for usize {
    fn write_json(&self, w: &mut Writer) {
        w.u64(*self as u64);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write_json(w),
            None => w.null(),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut Writer) {
        w.array(self);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut Writer) {
        w.array(self);
    }
}

impl<K: AsRef<str>, V: ToJson> ToJson for BTreeMap<K, V> {
    fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            for (k, v) in self {
                w.field(k.as_ref(), v);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn float(v: f64) -> String {
        to_string(&v)
    }

    #[test]
    fn floats_take_ryus_layout() {
        for (v, text) in [
            (0.1, "0.1"),
            (1.0, "1.0"),
            (2833712.0, "2833712.0"),
            (1e15, "1000000000000000.0"),
            (1e16, "1e16"),
            (1.5e-7, "1.5e-7"),
            (1e21, "1e21"),
            (1e-5, "0.00001"),
            (1e-4, "0.0001"),
            (0.000123, "0.000123"),
            (1e-6, "1e-6"),
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (-2.5, "-2.5"),
            (123.456, "123.456"),
            (401700004.52047354, "401700004.52047354"),
            (1.2345678901234567e16, "1.2345678901234568e16"),
            (f64::MAX, "1.7976931348623157e308"),
            (5e-324, "5e-324"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            assert_eq!(float(v), text, "{v:?}");
        }
    }

    #[test]
    fn strings_escape_as_serde_json_does() {
        let s = "q\"b\\s/ \u{8}\u{c}\n\r\t\u{0}\u{1f}\u{7f} é ✓";
        assert_eq!(
            to_string(s),
            r#""q\"b\\s/ \b\f\n\r\t\u0000\u001f"#.to_owned() + "\u{7f} é ✓\""
        );
    }

    #[derive(Clone)]
    struct Point {
        x: u64,
        label: String,
        tags: Vec<String>,
        next: Option<Box<Point>>,
    }
    impl ToJson for Box<Point> {
        fn write_json(&self, w: &mut Writer) {
            (**self).write_json(w);
        }
    }
    to_json!(Point {
        x,
        label,
        tags,
        next
    });

    enum Shape {
        Dot,
        Circle { r: f64, at: Vec<u64> },
    }
    to_json!(enum Shape { Dot, Circle { r, at } });

    #[test]
    fn compact_and_pretty_layouts() {
        let p = Point {
            x: 1,
            label: "a".into(),
            tags: vec![],
            next: Some(Box::new(Point {
                x: 2,
                label: "b".into(),
                tags: vec!["t".into(), "u".into()],
                next: None,
            })),
        };
        assert_eq!(
            to_string(&p),
            r#"{"x":1,"label":"a","tags":[],"next":{"x":2,"label":"b","tags":["t","u"],"next":null}}"#
        );
        assert_eq!(
            to_string_pretty(&p),
            "{\n  \"x\": 1,\n  \"label\": \"a\",\n  \"tags\": [],\n  \"next\": {\n    \"x\": 2,\n    \
             \"label\": \"b\",\n    \"tags\": [\n      \"t\",\n      \"u\"\n    ],\n    \
             \"next\": null\n  }\n}"
        );
        let shapes = vec![Shape::Dot, Shape::Circle { r: 0.5, at: vec![] }];
        assert_eq!(
            to_string(&shapes),
            r#"["Dot",{"Circle":{"r":0.5,"at":[]}}]"#
        );
        assert_eq!(
            to_string_pretty(&shapes),
            "[\n  \"Dot\",\n  {\n    \"Circle\": {\n      \"r\": 0.5,\n      \"at\": []\n    }\n  }\n]"
        );
        let empty: BTreeMap<&str, u64> = BTreeMap::new();
        assert_eq!(to_string_pretty(&empty), "{}");
        let map: BTreeMap<&str, u64> = [("b", 2), ("a", 1)].into();
        assert_eq!(to_string(&map), r#"{"a":1,"b":2}"#);
    }
}
