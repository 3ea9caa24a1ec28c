//! Offline stand-in for the subset of `serde_json` this workspace uses:
//! [`Value`] (with `Number` and object `Map`), [`from_str`] into `Value`,
//! `Value`'s `Display` as the one JSON writer, and the [`json!`] macro.
//! [`from_str`] is built on [`Reader`], a pull reader that decoders of
//! their own types drive directly, so there is one grammar for both.
//! Nothing in the workspace serialises typed values, so there is no
//! `Serialize`/`Deserialize` and no dependency.
//!
//! Objects use a `BTreeMap`, so key order is sorted and rendering is
//! deterministic — trace files and the sample store's manifest rely on it.

use std::borrow::Cow;
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
            Value::String(s) => write_json_string(s, out),
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
                    write_json_string(k, out);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escape and quote a string as a JSON string literal.
fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out);
        f.write_str(&out)
    }
}

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

/// Deepest array/object nesting a [`Reader`] accepts — the same limit as
/// upstream serde_json. Readers of nested values recurse once per level,
/// so without a bound a body of a few hundred thousand `[` overflows the
/// reading thread's stack and aborts the process.
const MAX_DEPTH: usize = 128;

/// The powers of ten a double holds exactly: 10^22 is the last one, since
/// 5^22 < 2^53 < 5^23.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// The kind of value that starts at a [`Reader`]'s position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Null,
    Bool,
    Number,
    String,
    Array,
    Object,
}

/// A pull reader over one JSON document: the one grammar behind
/// [`from_str`], which decoders of their own types also drive directly so
/// that no [`Value`] tree is built in between.
///
/// A caller asks what comes next ([`Reader::peek`]) and reads that value
/// with the matching method: a scalar read, [`Reader::skip`] for any
/// value, or a container walk — [`Reader::begin_array`], then one value
/// per `true` from [`Reader::next_element`]; [`Reader::begin_object`],
/// then one value per key from [`Reader::next_key`]. [`Reader::finish`]
/// checks that only whitespace follows the document. An error carries
/// the line and column where reading stopped, so a document fails with
/// the same error whichever caller drives the reader.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
    /// A container was just opened, so its first item has no `,` before it.
    opened: bool,
}

/// Digits of a number as they are scanned: the value of its first 19
/// significant digits (19 always fit in a `u64`) and how many there are.
#[derive(Default)]
struct Digits {
    mantissa: u64,
    significant: usize,
}

impl<'a> Reader<'a> {
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader { text, pos: 0, depth: 0, opened: false }
    }

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

    fn peek_byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek_byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    /// The kind of the next value, after any whitespace.
    pub fn peek(&mut self) -> Result<Kind, Error> {
        self.skip_ws();
        match self.peek_byte() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::String),
            Some(b'[') => Ok(Kind::Array),
            Some(b'{') => Ok(Kind::Object),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            Some(other) => Err(self.error(format!("unexpected character `{}`", other as char))),
        }
    }

    /// Read the next value whole, as a [`Value`] tree.
    fn value(&mut self) -> Result<Value, Error> {
        Ok(match self.peek()? {
            Kind::Null => {
                self.null()?;
                Value::Null
            }
            Kind::Bool => Value::Bool(self.bool()?),
            Kind::Number => Value::Number(self.number()?),
            Kind::String => Value::String(self.string()?.into_owned()),
            Kind::Array => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.value()?);
                }
                Value::Array(items)
            }
            Kind::Object => {
                self.begin_object()?;
                let mut map = Map::new();
                while let Some(key) = self.next_key()? {
                    let value = self.value()?;
                    map.insert(key.into_owned(), value);
                }
                Value::Object(map)
            }
        })
    }

    /// Read past the next value, whatever it is.
    pub fn skip(&mut self) -> Result<(), Error> {
        match self.peek()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Number => self.number().map(drop),
            Kind::String => self.string().map(drop),
            Kind::Array => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip()?;
                }
                Ok(())
            }
            Kind::Object => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
        }
    }

    /// Check that only whitespace follows the document.
    pub fn finish(mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.error("trailing characters"));
        }
        Ok(())
    }

    pub fn null(&mut self) -> Result<(), Error> {
        self.keyword("null")
    }

    pub fn bool(&mut self) -> Result<bool, Error> {
        self.skip_ws();
        let value = self.peek_byte() == Some(b't');
        self.keyword(if value { "true" } else { "false" })?;
        Ok(value)
    }

    fn keyword(&mut self, kw: &str) -> Result<(), Error> {
        self.skip_ws();
        if self.text.as_bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`")))
        }
    }

    /// Open an array; read its items with [`Reader::next_element`].
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.open(b'[')
    }

    /// Open an object; read its members with [`Reader::next_key`].
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.open(b'{')
    }

    /// Enter a container one nesting level down, failing instead of going
    /// past [`MAX_DEPTH`].
    fn open(&mut self, bracket: u8) -> Result<(), Error> {
        self.skip_ws();
        if self.depth == MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        self.expect(bracket)?;
        self.depth += 1;
        self.opened = true;
        Ok(())
    }

    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
    }

    /// Whether the open array has another element; if so, the caller
    /// reads it next. `false` consumes the closing `]`.
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.skip_ws();
        let first = std::mem::take(&mut self.opened);
        match self.peek_byte() {
            Some(b']') => {
                self.close();
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.error("expected `,` or `]`")),
        }
    }

    /// The open object's next key, whose value the caller reads next;
    /// `None` consumes the closing `}`.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        self.skip_ws();
        let first = std::mem::take(&mut self.opened);
        match self.peek_byte() {
            Some(b'}') => {
                self.close();
                return Ok(None);
            }
            _ if first => {}
            Some(b',') => self.pos += 1,
            _ => return Err(self.error("expected `,` or `}`")),
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// The end of the run from `pos` to the next quote, backslash or
    /// control character (RFC 8259 allows U+0000–U+001F only escaped), or
    /// to the end of input. All three are ASCII, so the run ends on a
    /// character boundary of the (already valid UTF-8) input.
    fn run_end(&self) -> usize {
        let rest = &self.text.as_bytes()[self.pos..];
        let run = rest.iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20);
        self.pos + run.unwrap_or(rest.len())
    }

    /// A string. One without escapes is borrowed from the input whole.
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.skip_ws();
        self.expect(b'"')?;
        let text = self.text;
        let start = self.pos;
        self.pos = self.run_end();
        if self.peek_byte() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&text[start..self.pos - 1]));
        }
        let mut out = String::from(&text[start..self.pos]);
        loop {
            match self.peek_byte() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    let escaped = match text.as_bytes().get(self.pos + 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{0008}',
                        Some(b'f') => '\u{000C}',
                        Some(b'u') => {
                            self.pos += 2;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => {
                            self.pos += 1;
                            return Err(self.error("invalid escape"));
                        }
                    };
                    out.push(escaped);
                    self.pos += 2;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("unescaped control character in string"));
                }
                Some(_) => {
                    let end = self.run_end();
                    out.push_str(&text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    /// The character of a `\u` escape whose four hex digits start at
    /// `pos`. A UTF-16 surrogate pair is two escapes that make one
    /// character; a surrogate on its own is an error.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let code = match self.hex4()? {
            high @ 0xD800..=0xDBFF => {
                if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                    return Err(self.error("unpaired surrogate in \\u escape"));
                }
                self.pos += 2;
                match self.hex4()? {
                    low @ 0xDC00..=0xDFFF => 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00),
                    _ => return Err(self.error("unpaired surrogate in \\u escape")),
                }
            }
            0xDC00..=0xDFFF => return Err(self.error("unpaired surrogate in \\u escape")),
            code => code,
        };
        // Every value left is a scalar value: below 0x110000, no surrogate.
        Ok(char::from_u32(code).expect("non-surrogate code point"))
    }

    /// Exactly four hex digits; unlike `from_str_radix`, no sign.
    fn hex4(&mut self) -> Result<u32, Error> {
        let text = self.text;
        let digits = text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let mut code = 0;
        for &b in digits {
            let digit = char::from(b).to_digit(16).ok_or_else(|| self.error("bad \\u escape"))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Scan a run of ASCII digits into `digits`, returning how many there
    /// were. Leading zeros are not significant.
    fn scan_digits(&mut self, digits: &mut Digits) -> usize {
        let start = self.pos;
        while let Some(d @ b'0'..=b'9') = self.peek_byte() {
            if digits.significant > 0 || d != b'0' {
                digits.significant += 1;
                if digits.significant <= 19 {
                    digits.mantissa = digits.mantissa * 10 + u64::from(d - b'0');
                }
            }
            self.pos += 1;
        }
        self.pos - start
    }

    /// A number by RFC 8259's grammar:
    /// `[-] (0 | [1-9] *DIGIT) [. 1*DIGIT] [(e|E) [+|-] 1*DIGIT]`.
    ///
    /// The digits are accumulated while scanning. An integer of at most 19
    /// significant digits is read from them, and so is a decimal of at
    /// most 15 significant digits scaled by at most 10^22: both factors
    /// are exact doubles, so one multiply or divide rounds correctly
    /// (Clinger's fast path). Every other number is parsed from its text
    /// by `str::parse`, which is correctly rounded too.
    pub fn number(&mut self) -> Result<Number, Error> {
        self.skip_ws();
        let start = self.pos;
        let negative = self.peek_byte() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let first = self.peek_byte();
        let mut digits = Digits::default();
        let int_digits = self.scan_digits(&mut digits);
        if int_digits == 0 || (first == Some(b'0') && int_digits > 1) {
            return Err(self.error("invalid number"));
        }
        let mut frac_digits = 0;
        if self.peek_byte() == Some(b'.') {
            self.pos += 1;
            frac_digits = self.scan_digits(&mut digits);
            if frac_digits == 0 {
                return Err(self.error("expected digits after `.`"));
            }
        }
        let mut exponent: Option<i64> = None;
        if matches!(self.peek_byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            let sign = match self.peek_byte() {
                Some(b'-') => -1,
                Some(b'+') => 1,
                _ => 0,
            };
            if sign != 0 {
                self.pos += 1;
            }
            let exp_start = self.pos;
            let mut value: i64 = 0;
            while let Some(d @ b'0'..=b'9') = self.peek_byte() {
                value = value.saturating_mul(10).saturating_add(i64::from(d - b'0'));
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.error("expected exponent digits"));
            }
            exponent = Some(if sign < 0 { -value } else { value });
        }
        let is_float = frac_digits > 0 || exponent.is_some();
        let mantissa = digits.mantissa;
        if !is_float && digits.significant <= 19 {
            if !negative && mantissa <= i64::MAX as u64 {
                return Ok(Number::from(mantissa as i64));
            }
            if !negative {
                return Ok(Number::from(mantissa));
            }
            if mantissa <= i64::MIN.unsigned_abs() {
                // 2^63 wraps to `i64::MIN`, which is its own negation.
                return Ok(Number::from((mantissa as i64).wrapping_neg()));
            }
        }
        if is_float && digits.significant <= 15 {
            let scale = exponent.unwrap_or(0).saturating_sub(frac_digits as i64);
            let power = usize::try_from(scale.unsigned_abs()).ok().and_then(|i| POW10.get(i));
            if let Some(&power) = power {
                let magnitude = mantissa as f64;
                let value = if scale < 0 { magnitude / power } else { magnitude * power };
                return Ok(Number::from(if negative { -value } else { value }));
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::from(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::from(u));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Number::from(f)),
            _ => Err(self.error(format!("number out of range `{text}`"))),
        }
    }
}

/// Parse a JSON document into a [`Value`].
pub fn from_str(text: &str) -> Result<Value, Error> {
    let mut reader = Reader::new(text);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
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
        // RFC 8259 numbers: no leading zeros, digits on both sides of `.`,
        // and a finite value.
        for bad in ["01", "-01", "00", "1.", "1.e5", "[1.]", "-", "1e", "1e+", "1e999", "-1e999"] {
            assert!(from_str(bad).is_err(), "{bad} parsed");
        }
        // RFC 8259 strings: U+0000–U+001F only escaped.
        for bad in ["\"a\u{1}b\"", "\"a\tb\"", "[\"a\nb\"]", "\"\u{0}\"", "\"\u{1f}\""] {
            assert!(from_str(bad).is_err(), "{bad:?} parsed");
        }
        let err = from_str("{\"a\":\n\"x\ty\"}").unwrap_err();
        assert_eq!((err.line(), err.column()), (2, 3), "{err}");
        let escaped = [(r#""a\tb""#, "a\tb"), (r#""\u0001""#, "\u{1}"), (r#""\u001f\n""#, "\u{1f}\n")];
        for (text, value) in escaped {
            assert_eq!(from_str(text).unwrap().as_str(), Some(value), "{text}");
        }
        let good = [("0", 0.0), ("-0.5", -0.5), ("1e5", 1e5), ("2E-2", 0.02), ("10.25", 10.25)];
        for (good, value) in good {
            assert_eq!(from_str(good).unwrap().as_f64(), Some(value), "{good}");
        }
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
        // Exactly four hex digits: `from_str_radix` alone would take a sign.
        assert!(from_str(r#""\u+041""#).is_err());
        assert!(from_str(r#""\u-041""#).is_err());
        // A surrogate pair (what Python's `json.dumps` writes for any
        // non-BMP character) is one character; a lone surrogate is an error.
        assert_eq!(from_str(r#""\ud83d\ude00!""#).unwrap().as_str(), Some("\u{1F600}!"));
        assert_eq!(from_str(r#""\uD83D\uDE00""#).unwrap().as_str(), Some("\u{1F600}"));
        for lone in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\n""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
        ] {
            assert!(from_str(lone).is_err(), "{lone} parsed");
        }
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

    /// The float `from_str` reads from `text`, by bits, next to
    /// `str::parse`'s.
    fn float_bits(text: &str) -> (u64, u64) {
        let value = from_str(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let read = value.as_f64().unwrap_or_else(|| panic!("{text}: not a number"));
        (read.to_bits(), text.parse::<f64>().unwrap().to_bits())
    }

    #[test]
    fn number_fast_paths_are_bit_exact_against_str_parse() {
        let mut state = 0x5eed_0005u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        // Seeded decimals of 1-17 significant digits, with the point
        // anywhere and an optional exponent: both sides of the 15-digit
        // and 10^22 limits of the exact path.
        for _ in 0..200_000 {
            let digits = 1 + next() % 17;
            let mut text = String::new();
            if next() % 2 == 0 {
                text.push('-');
            }
            let mut mantissa: String =
                (0..digits).map(|_| char::from(b'0' + (next() % 10) as u8)).collect();
            if mantissa.len() > 1 && mantissa.starts_with('0') {
                mantissa.replace_range(..1, "1");
            }
            let point = next() % (digits + 1);
            if point == 0 {
                mantissa.insert_str(0, "0.");
            } else if point < digits {
                mantissa.insert(point as usize, '.');
            } else if next() % 2 == 0 {
                mantissa.push_str(".0");
            }
            text.push_str(&mantissa);
            match next() % 4 {
                0 => text.push_str(&format!("e{}", next() % 30)),
                1 => text.push_str(&format!("E-{}", next() % 30)),
                2 => text.push_str(&format!("e+{}", next() % 290)),
                _ => {}
            }
            if !text.contains(['.', 'e', 'E']) {
                text.push_str(".5");
            }
            let (read, parsed) = float_bits(&text);
            assert_eq!(read, parsed, "{text}");
        }
        let edges = [
            "-0.0", "0.0", "-0e0", "0e-400", "1e15", "999999999999999.0", "9999999999999999.0",
            "1e22", "1e23", "1e-22", "1e-23", "999999999999999e22", "999999999999999e23",
            "999999999999999e-22", "0.000000000000000000000001", "123456789012345e-37",
            "4.9e-324", "2.2250738585072014e-308", "1.7976931348623157e308", "9007199254740993.0",
            "0.1", "0.3", "1E+2", "1.5e-0",
        ];
        for text in edges {
            let (read, parsed) = float_bits(text);
            assert_eq!(read, parsed, "{text}");
        }
        assert_eq!(float_bits("-0.0").0, (-0.0f64).to_bits());
        // Integers keep their type up to the `u64` edge; past it they are
        // floats, as `str::parse::<f64>` reads them.
        let ints = [
            ("0", Some(0), Some(0)),
            ("-0", Some(0), Some(0)),
            ("9223372036854775807", Some(i64::MAX), Some(i64::MAX as u64)),
            ("9223372036854775808", None, Some(1 << 63)),
            ("-9223372036854775808", Some(i64::MIN), None),
            ("-9223372036854775809", None, None),
            ("18446744073709551615", None, Some(u64::MAX)),
            ("18446744073709551616", None, None),
            ("9999999999999999999", None, Some(9_999_999_999_999_999_999)),
            ("-9999999999999999999", None, None),
        ];
        for (text, as_i64, as_u64) in ints {
            let value = from_str(text).unwrap();
            assert_eq!((value.as_i64(), value.as_u64()), (as_i64, as_u64), "{text}");
            let is_int = as_i64.is_some() || as_u64.is_some();
            assert_eq!(value.to_string().contains('.'), !is_int, "{text}");
            if !is_int {
                let (read, parsed) = float_bits(text);
                assert_eq!(read, parsed, "{text}");
            }
        }
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
    fn display_writes_compact_escaped_json() {
        let records = Value::Array(vec![json!({"a": 1}), json!({"b": "x\"\n\u{1}"})]);
        assert_eq!(records.to_string(), r#"[{"a":1},{"b":"x\"\n\u0001"}]"#);
        assert_eq!(json!(1.0).to_string(), "1.0");
        assert_eq!(json!(f64::NAN).to_string(), "null");
    }
}
