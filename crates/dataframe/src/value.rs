//! Scalar cell values and data types.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The logical type of a column, inferred from its values.
///
/// Mirrors the coarse dtypes the paper's features distinguish
/// (string vs. int vs. float vs. bool vs. date), which drive e.g. the
/// *col-value-types* join feature and the *column-data-type* GroupBy feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// All values null; type unknown.
    Null,
    Bool,
    Int,
    Float,
    Str,
    /// Days since the Unix epoch. A dedicated type so date-typed columns can
    /// be recognised as dimensions even though they are stored numerically.
    Date,
}

impl DType {
    /// Whether values of this type are numeric (ordered on a number line).
    pub fn is_numeric(self) -> bool {
        matches!(self, DType::Int | DType::Float | DType::Date)
    }

    /// The join "compatibility class": values can only ever match equal if
    /// their types unify to the same class.
    pub fn unify(self, other: DType) -> Option<DType> {
        use DType::*;
        match (self, other) {
            (a, b) if a == b => Some(a),
            (Null, b) => Some(b),
            (a, Null) => Some(a),
            (Int, Float) | (Float, Int) => Some(Float),
            _ => None,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::Null => "null",
            DType::Bool => "bool",
            DType::Int => "int",
            DType::Float => "float",
            DType::Str => "str",
            DType::Date => "date",
        };
        f.write_str(s)
    }
}

/// A single cell value.
///
/// `Value` provides a *total* order (`Null` sorts first, floats via IEEE
/// `total_cmp`) and a hash consistent with equality, so values can serve as
/// group-by keys, join keys, and members of distinct-value sets.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    /// Days since the Unix epoch.
    Date(i64),
}

impl Value {
    /// The dtype of this single value.
    pub fn dtype(&self) -> DType {
        match self {
            Value::Null => DType::Null,
            Value::Bool(_) => DType::Bool,
            Value::Int(_) => DType::Int,
            Value::Float(_) => DType::Float,
            Value::Str(_) => DType::Str,
            Value::Date(_) => DType::Date,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it has one. Dates map to their day
    /// number; booleans to 0/1 (Pandas coerces the same way under
    /// aggregation).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Date(d) => Some(*d as f64),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// String view without allocating for `Str`; other types render via
    /// `Display`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Render the value the way a CSV cell would show it.
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            other => other.to_string(),
        }
    }

    /// Parse a raw text cell into the most specific `Value`, the same
    /// inference a CSV reader performs. Empty strings become `Null`.
    pub fn infer_from_str(raw: &str) -> Value {
        let t = raw.trim();
        if t.is_empty() {
            return Value::Null;
        }
        match t {
            "true" | "True" | "TRUE" => return Value::Bool(true),
            "false" | "False" | "FALSE" => return Value::Bool(false),
            _ => {}
        }
        if let Ok(i) = t.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = t.parse::<f64>() {
            if f.is_finite() {
                return Value::Float(f);
            }
        }
        if let Some(days) = parse_date_days(t) {
            return Value::Date(days);
        }
        Value::Str(t.to_string())
    }

    /// A canonical 64-bit fingerprint of the value, used for cheap
    /// content-addressed hashing of whole frames (the replay data-flow graph
    /// identifies frames by hash id, §3.3 of the paper).
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// Parse `YYYY-MM-DD` into days since the Unix epoch.
fn parse_date_days(s: &str) -> Option<i64> {
    let bytes = s.as_bytes();
    if bytes.len() != 10 || bytes[4] != b'-' || bytes[7] != b'-' {
        return None;
    }
    let year: i64 = s[0..4].parse().ok()?;
    let month: u32 = s[5..7].parse().ok()?;
    let day: u32 = s[8..10].parse().ok()?;
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return None;
    }
    Some(days_from_civil(year, month, day))
}

/// Howard Hinnant's `days_from_civil`: civil date to days since 1970-01-01.
pub fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m as i64 + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`].
pub fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => f.write_str(s),
            Value::Date(d) => {
                let (y, m, day) = civil_from_days(*d);
                write!(f, "{y:04}-{m:02}-{day:02}")
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: Null < Bool < numeric (Int/Float unified on the number
    /// line) < Str < Date-vs-numeric is numeric. Within numerics, `5` and
    /// `5.0` compare equal so joins match across int/float columns, as
    /// Pandas does after type coercion.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Bool(_), _) => Ordering::Less,
            (_, Bool(_)) => Ordering::Greater,
            (Str(a), Str(b)) => a.cmp(b),
            (Str(_), _) => Ordering::Greater,
            (_, Str(_)) => Ordering::Less,
            // Remaining: Int / Float / Date — compare on the number line.
            // Zeros are canonicalised so that -0.0 == 0.0, consistent with
            // the Hash impl.
            (a, b) => {
                let canon = |f: f64| if f == 0.0 { 0.0 } else { f };
                let x = canon(a.as_f64().expect("numeric"));
                let y = canon(b.as_f64().expect("numeric"));
                x.total_cmp(&y)
            }
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // Int/Float/Date hash through their f64 view so that values that
            // compare equal hash equal (Int(5) == Float(5.0) == Date(5)).
            Value::Int(_) | Value::Float(_) | Value::Date(_) => {
                state.write_u8(2);
                let f = self.as_f64().expect("numeric");
                // Canonicalise -0.0 to 0.0 and NaN payloads to one NaN.
                let f = if f == 0.0 {
                    0.0
                } else if f.is_nan() {
                    f64::NAN
                } else {
                    f
                };
                state.write_u64(f.to_bits());
            }
            Value::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn dtype_unification() {
        assert_eq!(DType::Int.unify(DType::Float), Some(DType::Float));
        assert_eq!(DType::Null.unify(DType::Str), Some(DType::Str));
        assert_eq!(DType::Str.unify(DType::Int), None);
        assert_eq!(DType::Date.unify(DType::Date), Some(DType::Date));
    }

    #[test]
    fn int_float_cross_type_equality() {
        assert_eq!(Value::Int(5), Value::Float(5.0));
        assert_ne!(Value::Int(5), Value::Float(5.5));
        let mut set = HashSet::new();
        set.insert(Value::Int(5));
        assert!(set.contains(&Value::Float(5.0)));
    }

    #[test]
    fn total_order_null_first() {
        let mut vals = [Value::Str("a".into()),
            Value::Int(3),
            Value::Null,
            Value::Float(-1.5),
            Value::Bool(true)];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Float(-1.5));
        assert_eq!(vals[3], Value::Int(3));
        assert_eq!(vals[4], Value::Str("a".into()));
    }

    #[test]
    fn infer_from_str_types() {
        assert_eq!(Value::infer_from_str("42"), Value::Int(42));
        assert_eq!(Value::infer_from_str("4.5"), Value::Float(4.5));
        assert_eq!(Value::infer_from_str("true"), Value::Bool(true));
        assert_eq!(Value::infer_from_str(""), Value::Null);
        assert_eq!(Value::infer_from_str("  "), Value::Null);
        assert_eq!(
            Value::infer_from_str("hello world"),
            Value::Str("hello world".into())
        );
        assert_eq!(
            Value::infer_from_str("2006-01-02"),
            Value::Date(days_from_civil(2006, 1, 2))
        );
    }

    #[test]
    fn date_roundtrip_civil() {
        for &(y, m, d) in &[(1970, 1, 1), (2000, 2, 29), (2019, 12, 31), (1969, 7, 20)] {
            let days = days_from_civil(y, m, d);
            assert_eq!(civil_from_days(days), (y, m, d));
        }
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1970, 1, 2), 1);
    }

    #[test]
    fn date_display() {
        let v = Value::Date(days_from_civil(2006, 3, 15));
        assert_eq!(v.to_string(), "2006-03-15");
    }

    #[test]
    fn negative_zero_hashes_like_zero() {
        let mut set = HashSet::new();
        set.insert(Value::Float(-0.0));
        assert!(set.contains(&Value::Float(0.0)));
        assert!(set.contains(&Value::Int(0)));
    }

    #[test]
    fn render_null_is_empty() {
        assert_eq!(Value::Null.render(), "");
        assert_eq!(Value::Int(7).render(), "7");
    }
}
