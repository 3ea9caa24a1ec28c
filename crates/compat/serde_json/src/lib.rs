//! Offline stand-in for the subset of `serde_json` this workspace uses:
//! [`Value`] (with `Number` and object `Map`), [`from_str`] into `Value`,
//! [`to_string`] over the serde shim's `Serialize`, and the [`json!`]
//! macro.
//!
//! Objects use a `BTreeMap`, so key order is sorted and rendering is
//! deterministic — `corpus::filter` uses serialised params as dedup keys.

use std::collections::BTreeMap;
use std::fmt;

/// Object representation (sorted keys — deterministic rendering).
pub type Map = BTreeMap<String, Value>;

/// A JSON number: integer-preserving like `serde_json::Number`.
#[derive(Debug, Clone, PartialEq)]
pub struct Number {
    repr: NumberRepr,
}

#[derive(Debug, Clone, PartialEq)]
enum NumberRepr {
    Int(i64),
    UInt(u64),
    Float(f64),
}

impl Number {
    pub fn as_i64(&self) -> Option<i64> {
        match self.repr {
            NumberRepr::Int(i) => Some(i),
            NumberRepr::UInt(u) => i64::try_from(u).ok(),
            NumberRepr::Float(_) => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self.repr {
            NumberRepr::Int(i) => u64::try_from(i).ok(),
            NumberRepr::UInt(u) => Some(u),
            NumberRepr::Float(_) => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self.repr {
            NumberRepr::Int(i) => Some(i as f64),
            NumberRepr::UInt(u) => Some(u as f64),
            NumberRepr::Float(f) => Some(f),
        }
    }

    pub fn is_i64(&self) -> bool {
        self.as_i64().is_some()
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.repr {
            NumberRepr::Int(i) => write!(f, "{i}"),
            NumberRepr::UInt(u) => write!(f, "{u}"),
            NumberRepr::Float(v) => {
                let mut s = String::new();
                float_to_json(v, &mut s);
                f.write_str(&s)
            }
        }
    }
}

fn float_to_json(v: f64, out: &mut String) {
    if v.is_finite() {
        let s = format!("{v}");
        let has_marker = s.contains('.') || s.contains('e') || s.contains('E');
        out.push_str(&s);
        if !has_marker {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

macro_rules! impl_number_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Number {
            fn from(v: $t) -> Number {
                Number { repr: NumberRepr::Int(v as i64) }
            }
        }
    )*};
}
impl_number_from_int!(i8, i16, i32, i64, isize, u8, u16, u32);

impl From<u64> for Number {
    fn from(v: u64) -> Number {
        Number { repr: NumberRepr::UInt(v) }
    }
}

impl From<usize> for Number {
    fn from(v: usize) -> Number {
        Number { repr: NumberRepr::UInt(v as u64) }
    }
}

impl From<f64> for Number {
    fn from(v: f64) -> Number {
        Number { repr: NumberRepr::Float(v) }
    }
}

impl From<f32> for Number {
    fn from(v: f32) -> Number {
        Number { repr: NumberRepr::Float(v as f64) }
    }
}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map),
}

impl Value {
    /// Object member lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Array element lookup.
    pub fn get_index(&self, idx: usize) -> Option<&Value> {
        match self {
            Value::Array(items) => items.get(idx),
            _ => None,
        }
    }

    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(&n.to_string()),
            Value::String(s) => serde::write_json_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    serde::write_json_string(k, out);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out);
        f.write_str(&out)
    }
}

impl serde::Serialize for Value {
    fn serialize_json(&self, out: &mut String) {
        self.write_compact(out);
    }
}

impl serde::Deserialize for Value {}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<&String> for Value {
    fn from(v: &String) -> Value {
        Value::String(v.clone())
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        match v {
            None => Value::Null,
            Some(inner) => inner.into(),
        }
    }
}

macro_rules! impl_value_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Number(Number::from(v))
            }
        }
    )*};
}
impl_value_from_number!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f32, f64);

/// A parse error with position information.
#[derive(Debug, Clone)]
pub struct Error {
    line: usize,
    column: usize,
    message: String,
}

impl Error {
    pub fn line(&self) -> usize {
        self.line
    }

    pub fn column(&self) -> usize {
        self.column
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at line {} column {}", self.message, self.line, self.column)
    }
}

impl std::error::Error for Error {}

/// Deepest array/object nesting [`from_str`] accepts — the same limit as
/// upstream serde_json. The parser recurses once per level, so without a
/// bound a body of a few hundred thousand `[` overflows the parsing
/// thread's stack and aborts the process.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> Error {
        let mut line = 1;
        let mut column = 1;
        for &b in &self.text.as_bytes()[..self.pos.min(self.text.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        Error { line, column, message: message.into() }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.error(format!("unexpected character `{}`", other as char))),
        }
    }

    /// Run a container parser one nesting level down, failing instead of
    /// recursing past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value, Error> {
        if self.text.as_bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{kw}`")))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid unicode escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one
                    // step. Both are ASCII, so the run ends on a character
                    // boundary of the (already valid UTF-8) input.
                    let rest = &self.text.as_bytes()[self.pos..];
                    let run = rest.iter().position(|&b| b == b'"' || b == b'\\');
                    let end = self.pos + run.unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::from(i)));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::from(u)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::from(f)))
            .map_err(|_| self.error(format!("invalid number `{text}`")))
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

/// Parse a JSON document into a [`Value`].
pub fn from_str(text: &str) -> Result<Value, Error> {
    let mut parser = Parser { text, pos: 0, depth: 0 };
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.text.len() {
        return Err(parser.error("trailing characters"));
    }
    Ok(value)
}

/// Serialise any `serde::Serialize` value to a compact JSON string.
#[allow(clippy::unnecessary_wraps)] // signature mirrors serde_json
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(serde::to_json_string(value))
}

/// By-reference conversion used by the [`json!`] macro, so interpolated
/// expressions are not moved out of (matches `serde_json`, whose macro
/// routes through `to_value(&expr)`).
#[doc(hidden)]
pub trait ToJsonValue {
    fn to_json_value(&self) -> Value;
}

impl<T: Clone + Into<Value>> ToJsonValue for T {
    fn to_json_value(&self) -> Value {
        self.clone().into()
    }
}

/// Build a [`Value`] from JSON-like syntax (subset of `serde_json::json!`:
/// literals, arrays, objects with string-literal keys, interpolated
/// expressions).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => {{
        #[allow(clippy::vec_init_then_push)]
        {
            let mut __arr: ::std::vec::Vec<$crate::Value> = ::std::vec::Vec::new();
            $crate::json_elems!(__arr, $($tt)*);
            $crate::Value::Array(__arr)
        }
    }};
    ({ $($tt:tt)* }) => {{
        let mut __map = $crate::Map::new();
        $crate::json_entries!(__map, $($tt)*);
        $crate::Value::Object(__map)
    }};
    ($other:expr) => { $crate::ToJsonValue::to_json_value(&$other) };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_elems {
    ($arr:ident,) => {};
    ($arr:ident) => {};
    ($arr:ident, null $(, $($rest:tt)*)?) => {
        $arr.push($crate::Value::Null);
        $crate::json_elems!($arr $(, $($rest)*)?);
    };
    ($arr:ident, { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $arr.push($crate::json!({ $($inner)* }));
        $crate::json_elems!($arr $(, $($rest)*)?);
    };
    ($arr:ident, [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $arr.push($crate::json!([ $($inner)* ]));
        $crate::json_elems!($arr $(, $($rest)*)?);
    };
    ($arr:ident, $value:expr $(, $($rest:tt)*)?) => {
        $arr.push($crate::ToJsonValue::to_json_value(&$value));
        $crate::json_elems!($arr $(, $($rest)*)?);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_entries {
    ($map:ident,) => {};
    ($map:ident) => {};
    ($map:ident, $key:literal : null $(, $($rest:tt)*)?) => {
        $map.insert($key.to_string(), $crate::Value::Null);
        $crate::json_entries!($map $(, $($rest)*)?);
    };
    ($map:ident, $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $map.insert($key.to_string(), $crate::json!({ $($inner)* }));
        $crate::json_entries!($map $(, $($rest)*)?);
    };
    ($map:ident, $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $map.insert($key.to_string(), $crate::json!([ $($inner)* ]));
        $crate::json_entries!($map $(, $($rest)*)?);
    };
    ($map:ident, $key:literal : $value:expr $(, $($rest:tt)*)?) => {
        $map.insert($key.to_string(), $crate::ToJsonValue::to_json_value(&$value));
        $crate::json_entries!($map $(, $($rest)*)?);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(from_str("null").unwrap(), Value::Null);
        assert_eq!(from_str("true").unwrap(), Value::Bool(true));
        assert_eq!(from_str("42").unwrap().as_i64(), Some(42));
        assert_eq!(from_str("-1.5").unwrap().as_f64(), Some(-1.5));
        assert_eq!(from_str("\"hi\\n\"").unwrap().as_str(), Some("hi\n"));
        let arr = from_str("[1, 2, 3]").unwrap();
        assert_eq!(arr.as_array().unwrap().len(), 3);
        let obj = from_str(r#"{"a": {"b": [1, null]}}"#).unwrap();
        assert!(obj.is_object());
        assert_eq!(obj.get("a").unwrap().get("b").unwrap().get_index(1), Some(&Value::Null));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = from_str("{\n  \"a\": nope\n}").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("line 2"));
        assert!(from_str("{not json").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("42 junk").is_err());
    }

    fn nested_arrays(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        let value = from_str(&nested_arrays(MAX_DEPTH)).unwrap();
        assert_eq!(value.to_string(), nested_arrays(MAX_DEPTH));
        let objects = "{\"a\":".repeat(MAX_DEPTH - 1) + "[]" + &"}".repeat(MAX_DEPTH - 1);
        assert!(from_str(&objects).is_ok());
    }

    #[test]
    fn nesting_past_the_limit_is_an_error() {
        let err = from_str(&nested_arrays(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(from_str(&objects).is_err());
    }

    #[test]
    fn a_million_open_brackets_error_instead_of_overflowing_the_stack() {
        // A default-sized (2 MiB) thread stack, the same as a daemon handler
        // thread: unbounded recursion would abort the whole process here.
        let result = std::thread::Builder::new()
            .stack_size(2 * 1024 * 1024)
            .spawn(|| from_str(&"[".repeat(1_000_000)).is_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(result);
    }

    #[test]
    fn strings_keep_multibyte_text_and_escapes() {
        let text = r#"["héllo wörld", "日本\u00e9\"q\"✓", "", "a\\b"]"#;
        let value = from_str(text).unwrap();
        let items: Vec<&str> =
            value.as_array().unwrap().iter().map(|v| v.as_str().unwrap()).collect();
        assert_eq!(items, ["héllo wörld", "日本é\"q\"✓", "", "a\\b"]);
        assert!(from_str(r#""\u00"#).is_err());
        assert!(from_str(r#""\uzzzz""#).is_err());
        assert!(from_str(r#""open"#).is_err());
    }

    #[test]
    fn long_documents_parse_in_linear_time() {
        // 128k short strings, ~1.5 MiB. Decoding each character by
        // re-validating the rest of the input made this quadratic: minutes
        // instead of milliseconds.
        let doc = format!("[{}]", vec!["\"k0001234\""; 1 << 17].join(","));
        let started = std::time::Instant::now();
        let value = from_str(&doc).unwrap();
        assert_eq!(value.as_array().unwrap().len(), 1 << 17);
        let secs = started.elapsed().as_secs_f64();
        assert!(secs < 5.0, "parsing {} bytes took {secs:.1} s", doc.len());
    }

    #[test]
    fn roundtrips_through_display() {
        let text = r#"{"a":[1,2.5,"x",null,true],"b":{"c":false}}"#;
        let value = from_str(text).unwrap();
        assert_eq!(value.to_string(), text);
        assert_eq!(from_str(&value.to_string()).unwrap(), value);
    }

    #[test]
    fn json_macro_builds_nested_documents() {
        let name = "ada".to_string();
        let doc = json!({
            "id": 7,
            "profile": {"name": name, "tags": ["a", "b"]},
            "score": (2.0_f64) * 1.5 + 3.0,
            "flag": true,
            "nothing": null,
        });
        assert_eq!(doc.get("id").unwrap().as_i64(), Some(7));
        assert_eq!(
            doc.get("profile").unwrap().get("name").unwrap().as_str(),
            Some("ada")
        );
        assert_eq!(doc.get("score").unwrap().as_f64(), Some(6.0));
        assert_eq!(doc.get("nothing"), Some(&Value::Null));
        assert_eq!(json!(42).as_i64(), Some(42));
        assert_eq!(json!([1, 2]).as_array().unwrap().len(), 2);
        assert_eq!(json!([{ "a": 1 }, { "a": 2 }]).as_array().unwrap().len(), 2);
    }

    #[test]
    fn to_string_uses_serde_shim() {
        let records = vec![json!({"a": 1}), json!({"a": 2})];
        assert_eq!(to_string(&records).unwrap(), r#"[{"a":1},{"a":2}]"#);
    }
}
