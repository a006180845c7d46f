//! # pocolo-json
//!
//! Pocolo's one JSON codec: the wire protocol between the cluster daemon
//! and its agents, the federation log, and every machine-readable report
//! go through it. It is a [`Value`] tree, a strict parser ([`from_str`]),
//! compact and pretty writers, the [`ToJson`] / [`FromJson`] conversion
//! traits, and the [`json!`], [`impl_to_json!`] and [`impl_json!`] macros.
//!
//! The build environment is fully offline, so external serialization
//! frameworks are unavailable. Object key order is preserved (insertion
//! order), which keeps emitted reports and frames stable and diffable.
//!
//! Decoding rules, shared by every type:
//! - a decode failure is a [`JsonError`] naming the field path
//!   (`run.policy.seed`, `entries[2].decision.budget_w[1]`) and what was
//!   expected there;
//! - integers decode only below [`EXACT_INT_LIMIT`] (2^53), the range a
//!   JSON number carries exactly, so a value either crosses intact or is
//!   refused;
//! - `Option<T>` reads `null` as `None`; a missing field is an error, not
//!   `None` (a type that omits a field must say so by hand).

#![warn(missing_docs)]

use std::fmt;

mod parse;

pub use parse::{from_str, ParseError, MAX_DEPTH};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, like the figures pipeline needs).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric content, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric content as a `u64`, if it is a non-negative integer
    /// below [`EXACT_INT_LIMIT`]. Larger numbers are refused: the number
    /// may already be a rounded stand-in for a different integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < EXACT_INT_LIMIT as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean content, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The entries, if this is an object.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Member lookup; `None` when absent or not an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Decodes member `key` as a [`FromJson`] type. A missing member, a
    /// non-object `self` and a bad member value are all errors, the last
    /// with `key` prepended to its path.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        match self {
            Value::Object(entries) => match entries.iter().find(|(k, _)| k == key) {
                Some((_, v)) => T::from_json(v).map_err(|e| e.within(key)),
                None => Err(JsonError::new("missing").within(key)),
            },
            other => Err(JsonError::expected("an object", other)),
        }
    }

    /// Compact single-line rendering.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_number(out, *n),
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Value::Object(entries) => {
                write_seq(out, indent, depth, '{', '}', entries.len(), |out, i, d| {
                    write_escaped(out, &entries[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    entries[i].1.write(out, indent, d);
                });
            }
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
    mut item: impl FnMut(&mut String, usize, usize),
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
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..width * (depth + 1) {
                out.push(' ');
            }
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
    out.push(close);
}

fn write_number(out: &mut String, n: f64) {
    use std::fmt::Write as _;
    if !n.is_finite() {
        // JSON has no NaN/inf; null is the conventional stand-in.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact_string())
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// Member access; missing keys and non-objects yield `null` (so lookup
    /// chains like `v["a"]["b"]` never panic).
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    /// Element access; out-of-range and non-arrays yield `null`.
    fn index(&self, index: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(index).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

/// Conversion into a JSON [`Value`].
pub trait ToJson {
    /// This value as JSON.
    fn to_json(&self) -> Value;
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

macro_rules! impl_to_json_number {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Number(*self as f64)
            }
        }
    )*};
}

impl_to_json_number!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: ToJson + ?Sized> ToJson for Box<T> {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

macro_rules! impl_to_json_tuple {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: ToJson),+> ToJson for ($($t,)+) {
            fn to_json(&self) -> Value {
                Value::Array(vec![$(self.$i.to_json()),+])
            }
        }
    };
}

impl_to_json_tuple!(A.0, B.1);
impl_to_json_tuple!(A.0, B.1, C.2);
impl_to_json_tuple!(A.0, B.1, C.2, D.3);
impl_to_json_tuple!(A.0, B.1, C.2, D.3, E.4);

/// Integers at or above this bound (2^53) are not all representable as a
/// JSON number, so no integer decode accepts them.
pub const EXACT_INT_LIMIT: u64 = 1 << 53;

/// A decode failure: the field path it happened at and what was wrong.
///
/// The path is built only on the error path, one segment per level on
/// the way out ([`JsonError::within`], [`JsonError::at`]); the error
/// displays as `run.policy.seed: expected …`.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// `.key` and `[index]` segments, outermost first.
    path: String,
    message: String,
}

impl JsonError {
    /// An error at the current position.
    pub fn new(message: impl Into<String>) -> JsonError {
        JsonError {
            path: String::new(),
            message: message.into(),
        }
    }

    /// "expected `what`, found …", describing `found`.
    fn expected(what: &str, found: &Value) -> JsonError {
        let found = match found {
            Value::String(_) => "a string".to_string(),
            Value::Array(_) => "an array".to_string(),
            Value::Object(_) => "an object".to_string(),
            scalar => scalar.to_compact_string(),
        };
        JsonError::new(format!("expected {what}, found {found}"))
    }

    /// The same error, one object member further out.
    pub fn within(mut self, key: &str) -> JsonError {
        self.path.insert_str(0, &format!(".{key}"));
        self
    }

    /// The same error, one array element further out.
    pub fn at(mut self, index: usize) -> JsonError {
        self.path.insert_str(0, &format!("[{index}]"));
        self
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let path = self.path.strip_prefix('.').unwrap_or(&self.path);
        if !path.is_empty() {
            write!(f, "{path}: ")?;
        }
        f.write_str(&self.message)
    }
}

impl std::error::Error for JsonError {}

impl From<ParseError> for JsonError {
    fn from(e: ParseError) -> Self {
        JsonError::new(e.to_string())
    }
}

/// Conversion from a JSON [`Value`].
pub trait FromJson: Sized {
    /// Reconstructs `Self` from JSON, or says which field is wrong.
    fn from_json(value: &Value) -> Result<Self, JsonError>;
}

macro_rules! impl_from_json_scalar {
    ($($t:ty: $what:literal, $get:expr;)*) => {$(
        impl FromJson for $t {
            fn from_json(value: &Value) -> Result<Self, JsonError> {
                $get(value).ok_or_else(|| JsonError::expected($what, value))
            }
        }
    )*};
}

impl_from_json_scalar! {
    f64: "a number", Value::as_f64;
    u64: "an integer in [0, 2^53)", Value::as_u64;
    bool: "a boolean", Value::as_bool;
    String: "a string", |v: &Value| v.as_str().map(str::to_string);
}

impl FromJson for usize {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let n = u64::from_json(value)?;
        usize::try_from(n).map_err(|_| JsonError::expected("an index", value))
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let items = value
            .as_array()
            .ok_or_else(|| JsonError::expected("an array", value))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| e.at(i)))
            .collect()
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match value {
            Value::Null => Ok(None),
            some => T::from_json(some).map(Some),
        }
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        T::from_json(value).map(Box::new)
    }
}

/// Parses JSON text straight into a [`FromJson`] type.
pub fn typed_from_str<T: FromJson>(input: &str) -> Result<T, JsonError> {
    T::from_json(&from_str(input)?)
}

/// Compact JSON text for any [`ToJson`] value.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_compact_string()
}

/// Pretty (2-space indented) JSON text for any [`ToJson`] value.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_pretty_string()
}

/// Builds a [`Value`] from a JSON-shaped literal.
///
/// Supports objects with string-literal keys and expression values, arrays
/// of expressions, `null`, and any expression implementing [`ToJson`]:
///
/// ```
/// use pocolo_json::json;
/// let v = json!({ "name": "sphinx", "peak": 3.5, "tags": vec!["lc", "audio"] });
/// assert_eq!(v["name"].as_str(), Some("sphinx"));
/// ```
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $(($key.to_string(), $crate::ToJson::to_json(&$value)),)*
        ])
    };
    ([ $($element:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![
            $($crate::ToJson::to_json(&$element),)*
        ])
    };
    ($other:expr) => { $crate::ToJson::to_json(&$other) };
}

/// Implements [`ToJson`] for a struct with named fields, mapping each field
/// through its own `ToJson` impl:
///
/// ```
/// struct Row { app: String, watts: f64 }
/// pocolo_json::impl_to_json!(Row { app, watts });
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Value {
                $crate::Value::Object(vec![
                    $((stringify!($field).to_string(),
                       $crate::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
    };
}

/// Implements both [`ToJson`] and [`FromJson`] for a struct with named
/// fields, from one field list: the encoding writes the fields in the
/// listed order, and the decoding reads each through its own `FromJson`
/// impl. Every field of the struct must be listed.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct Row { app: String, watts: f64 }
/// pocolo_json::impl_json!(Row { app, watts });
/// let row: Row = pocolo_json::typed_from_str(r#"{"app":"tpcc","watts":154}"#).unwrap();
/// assert_eq!(pocolo_json::to_string(&row), r#"{"app":"tpcc","watts":154}"#);
/// ```
#[macro_export]
macro_rules! impl_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        $crate::impl_to_json!($ty { $($field),+ });
        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::Value) -> Result<Self, $crate::JsonError> {
                Ok(Self {
                    $($field: value.field(stringify!($field))?,)+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_rendering() {
        assert_eq!(json!(null).to_compact_string(), "null");
        assert_eq!(json!(true).to_compact_string(), "true");
        assert_eq!(json!(3).to_compact_string(), "3");
        assert_eq!(json!(3.5).to_compact_string(), "3.5");
        assert_eq!(json!("hi").to_compact_string(), "\"hi\"");
    }

    #[test]
    fn escapes_control_characters() {
        let v = json!("a\"b\\c\nd\te\u{1}");
        assert_eq!(v.to_compact_string(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn object_preserves_insertion_order() {
        let v = json!({ "z": 1, "a": 2, "m": 3 });
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn indexing_never_panics() {
        let v = json!({ "a": vec![1, 2, 3] });
        assert_eq!(v["a"][1].as_f64(), Some(2.0));
        assert_eq!(v["missing"], Value::Null);
        assert_eq!(v["a"][99], Value::Null);
        assert_eq!(v["a"]["not-an-object"], Value::Null);
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = json!({ "a": 1, "b": vec![1, 2] });
        let pretty = v.to_pretty_string();
        assert_eq!(pretty, "{\n  \"a\": 1,\n  \"b\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Value::Array(vec![]).to_pretty_string(), "[]");
        assert_eq!(Value::Object(vec![]).to_pretty_string(), "{}");
    }

    #[test]
    fn numbers_render_integers_exactly() {
        assert_eq!(json!(1e6).to_compact_string(), "1000000");
        assert_eq!(json!(-42).to_compact_string(), "-42");
        assert_eq!(json!(f64::NAN).to_compact_string(), "null");
    }

    #[test]
    fn tuples_and_slices() {
        let pairs = vec![("graph".to_string(), "sphinx".to_string())];
        assert_eq!(to_string(&pairs), "[[\"graph\",\"sphinx\"]]");
        let slice: &[f64] = &[0.25, 0.75];
        assert_eq!(to_string(&slice), "[0.25,0.75]");
    }

    #[test]
    fn impl_to_json_macro_works() {
        struct Row {
            app: String,
            watts: f64,
        }
        impl_to_json!(Row { app, watts });
        let r = Row {
            app: "tpcc".into(),
            watts: 154.0,
        };
        assert_eq!(to_string(&r), "{\"app\":\"tpcc\",\"watts\":154}");
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(json!(7).as_u64(), Some(7));
        assert_eq!(json!(7.5).as_u64(), None);
        assert_eq!(json!(-7).as_u64(), None);
        // Only integers below 2^53 cross exactly. 2^53 + 1 has no f64 of
        // its own: it is written as 2^53, which must be refused rather
        // than read back as a different integer.
        let max = EXACT_INT_LIMIT - 1;
        assert_eq!(from_str(&to_string(&max)).unwrap().as_u64(), Some(max));
        assert_eq!(to_string(&(EXACT_INT_LIMIT + 1)), "9007199254740992");
        for text in ["9007199254740992", "18446744073709551616", "1e300"] {
            assert_eq!(from_str(text).unwrap().as_u64(), None, "{text}");
        }
    }

    #[test]
    fn decode_errors_name_the_field_path() {
        let e = JsonError::new("bad").at(1).within("budget_w").at(2);
        assert_eq!(
            e.within("entries").to_string(),
            "entries[2].budget_w[1]: bad"
        );
        let v = from_str(r#"{"rows":[[1],[1,"x"]],"note":7,"seed":9007199254740992}"#).unwrap();
        let errors = [
            v.field::<Vec<Vec<f64>>>("rows").map(drop),
            v.field::<usize>("seed").map(drop),
            v.field::<Option<String>>("note").map(drop),
            v.field::<bool>("gone").map(drop),
            v["rows"].field::<bool>("x").map(drop),
        ];
        let want = [
            "rows[1][1]: expected a number, found a string",
            "seed: expected an integer in [0, 2^53), found 9007199254740992",
            "note: expected a string, found 7",
            "gone: missing",
            "expected an object, found an array",
        ];
        for (e, want) in errors.into_iter().zip(want) {
            assert_eq!(e.unwrap_err().to_string(), want);
        }
        assert_eq!(Option::<f64>::from_json(&Value::Null), Ok(None));
        assert!(typed_from_str::<bool>("{").is_err());
    }

    #[test]
    fn round_trip_through_parser() {
        let v = json!({
            "app": "img-dnn",
            "alphas": vec![0.6, 0.4],
            "ok": true,
            "none": Option::<u32>::None
        });
        let text = v.to_pretty_string();
        assert_eq!(from_str(&text).unwrap(), v);
    }
}
