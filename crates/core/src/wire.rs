//! JSON wire format for interactive suggest requests and responses.
//!
//! [`SuggestRequest`] borrows its tables, which is right for the in-process
//! batch API but useless on a socket; this module defines the owned,
//! serializable counterpart ([`OwnedSuggestRequest`]) plus encode/decode
//! for both directions of the exchange, built on the vendored `serde_json`
//! shim. `autosuggestd` and its clients speak exactly this format.
//!
//! # Encoding
//!
//! Requests are tagged by `"op"`:
//!
//! ```json
//! {"op":"join","left":{"columns":[...]},"right":{"columns":[...]},"top_k":3}
//! {"op":"groupby","table":{"columns":[...]}}
//! {"op":"pivot","table":{"columns":[...]},"dims":[0,1]}
//! {"op":"unpivot","table":{"columns":[...]}}
//! ```
//!
//! Tables are columnar: `{"columns":[{"name":"a","values":[...]}]}`. Cells
//! map `Null`/`Bool`/`Str` to their JSON natives, `Int` to a JSON integer,
//! finite `Float` to a JSON float (the shim preserves the int/float
//! distinction and prints shortest-round-trip floats, so decoding is
//! bit-exact), and the two lossy cases get tagged objects: `Date(d)` is
//! `{"date":d}` and non-finite floats are `{"f":"nan"|"inf"|"-inf"}`.
//!
//! Responses are tagged by `"kind"` (`join`/`groupby`/`pivot`/`unpivot`),
//! plus `"unavailable"` with a `"model"` payload — the wire form of
//! [`SuggestResponse::Unavailable`], whose `&'static str` arm decodes by
//! mapping the model name back onto the static names the pipeline uses.
//!
//! Every variant round-trips bit-for-bit: `decode(encode(x)) == x`,
//! including float payloads (compared by IEEE bits), which is what lets
//! the daemon integration tests assert served responses are byte-identical
//! to direct library calls.

use crate::pipeline::{SuggestRequest, SuggestResponse};
use crate::{GroupBySuggestion, JoinSuggestion, PivotSuggestion, UnpivotSuggestion};
use autosuggest_dataframe::{Column, DataFrame, Value as Cell};
use serde_json::{json, Value};
use std::fmt;

/// A malformed wire document (unknown tag, missing field, type mismatch,
/// ragged table). The payload is a human-readable path + reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(String);

impl WireError {
    fn new(msg: impl Into<String>) -> WireError {
        WireError(msg.into())
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// The owned counterpart of [`SuggestRequest`]: same four operators, tables
/// held by value so a decoded request can outlive its transport buffer.
#[derive(Debug, Clone)]
pub enum OwnedSuggestRequest {
    Join { left: DataFrame, right: DataFrame, top_k: usize },
    GroupBy { table: DataFrame },
    Pivot { table: DataFrame, dims: Vec<usize> },
    Unpivot { table: DataFrame },
}

impl OwnedSuggestRequest {
    /// Borrow as the library request type (what `TrainedModels::suggest`
    /// consumes).
    pub fn as_request(&self) -> SuggestRequest<'_> {
        match self {
            OwnedSuggestRequest::Join { left, right, top_k } => {
                SuggestRequest::Join { left, right, top_k: *top_k }
            }
            OwnedSuggestRequest::GroupBy { table } => SuggestRequest::GroupBy { table },
            OwnedSuggestRequest::Pivot { table, dims } => {
                SuggestRequest::Pivot { table, dims }
            }
            OwnedSuggestRequest::Unpivot { table } => SuggestRequest::Unpivot { table },
        }
    }

    /// The wire tag of this request's operator.
    pub fn op(&self) -> &'static str {
        match self {
            OwnedSuggestRequest::Join { .. } => "join",
            OwnedSuggestRequest::GroupBy { .. } => "groupby",
            OwnedSuggestRequest::Pivot { .. } => "pivot",
            OwnedSuggestRequest::Unpivot { .. } => "unpivot",
        }
    }
}

// ---------------------------------------------------------------------------
// Cells and tables
// ---------------------------------------------------------------------------

fn encode_f64(v: f64) -> Value {
    if v.is_finite() {
        Value::from(v)
    } else if v.is_nan() {
        json!({"f": "nan"})
    } else if v > 0.0 {
        json!({"f": "inf"})
    } else {
        json!({"f": "-inf"})
    }
}

fn decode_f64(v: &Value, ctx: &str) -> Result<f64, WireError> {
    if let Some(f) = v.as_f64() {
        return Ok(f);
    }
    if let Some(tag) = v.get("f").and_then(Value::as_str) {
        return match tag {
            "nan" => Ok(f64::NAN),
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            other => Err(WireError::new(format!("{ctx}: unknown float tag {other:?}"))),
        };
    }
    Err(WireError::new(format!("{ctx}: expected a number")))
}

/// Encode one cell value.
pub fn encode_cell(cell: &Cell) -> Value {
    match cell {
        Cell::Null => Value::Null,
        Cell::Bool(b) => Value::Bool(*b),
        Cell::Int(i) => Value::from(*i),
        Cell::Float(f) => encode_f64(*f),
        Cell::Str(s) => Value::String(s.clone()),
        Cell::Date(d) => json!({"date": *d}),
    }
}

/// Decode one cell value.
pub fn decode_cell(v: &Value) -> Result<Cell, WireError> {
    match v {
        Value::Null => Ok(Cell::Null),
        Value::Bool(b) => Ok(Cell::Bool(*b)),
        Value::String(s) => Ok(Cell::Str(s.clone())),
        Value::Number(n) => match n.as_i64() {
            // The shim keeps ints and floats distinct, so `1` and `1.0`
            // decode back to the cell dtype they were encoded from.
            Some(i) => Ok(Cell::Int(i)),
            None => Ok(Cell::Float(
                n.as_f64().ok_or_else(|| WireError::new("cell: unrepresentable number"))?,
            )),
        },
        Value::Object(_) => {
            if let Some(d) = v.get("date") {
                return Ok(Cell::Date(
                    d.as_i64().ok_or_else(|| WireError::new("cell: date must be an integer"))?,
                ));
            }
            if v.get("f").is_some() {
                return Ok(Cell::Float(decode_f64(v, "cell")?));
            }
            Err(WireError::new("cell: unknown tagged object"))
        }
        Value::Array(_) => Err(WireError::new("cell: arrays are not cell values")),
    }
}

/// Encode a table in columnar form.
pub fn encode_table(df: &DataFrame) -> Value {
    let columns: Vec<Value> = df
        .columns()
        .iter()
        .map(|c| {
            let values: Vec<Value> = c.values().iter().map(encode_cell).collect();
            json!({"name": c.name(), "values": Value::Array(values)})
        })
        .collect();
    json!({"columns": Value::Array(columns)})
}

/// Decode a columnar table. Ragged columns (unequal lengths) are rejected
/// by the `DataFrame` constructor and surface as a [`WireError`].
pub fn decode_table(v: &Value) -> Result<DataFrame, WireError> {
    let cols = v
        .get("columns")
        .and_then(Value::as_array)
        .ok_or_else(|| WireError::new("table: missing \"columns\" array"))?;
    let mut columns = Vec::with_capacity(cols.len());
    for (i, col) in cols.iter().enumerate() {
        let name = col
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| WireError::new(format!("table: column {i} missing \"name\"")))?;
        let values = col
            .get("values")
            .and_then(Value::as_array)
            .ok_or_else(|| WireError::new(format!("table: column {i} missing \"values\"")))?;
        let cells = values.iter().map(decode_cell).collect::<Result<Vec<_>, _>>()?;
        columns.push(Column::new(name, cells));
    }
    DataFrame::new(columns).map_err(|e| WireError::new(format!("table: {e}")))
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Encode a (borrowed) request. The owned form encodes identically via
/// [`OwnedSuggestRequest::as_request`].
pub fn encode_request(req: &SuggestRequest<'_>) -> Value {
    match req {
        SuggestRequest::Join { left, right, top_k } => json!({
            "op": "join",
            "left": encode_table(left),
            "right": encode_table(right),
            "top_k": *top_k,
        }),
        SuggestRequest::GroupBy { table } => {
            json!({"op": "groupby", "table": encode_table(table)})
        }
        SuggestRequest::Pivot { table, dims } => {
            let dims: Vec<Value> = dims.iter().map(|&d| Value::from(d)).collect();
            json!({"op": "pivot", "table": encode_table(table), "dims": Value::Array(dims)})
        }
        SuggestRequest::Unpivot { table } => {
            json!({"op": "unpivot", "table": encode_table(table)})
        }
    }
}

fn field<'v>(v: &'v Value, key: &str, op: &str) -> Result<&'v Value, WireError> {
    v.get(key).ok_or_else(|| WireError::new(format!("{op}: missing \"{key}\"")))
}

/// Decode a request document into its owned form.
pub fn decode_request(v: &Value) -> Result<OwnedSuggestRequest, WireError> {
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| WireError::new("request: missing \"op\" tag"))?;
    match op {
        "join" => {
            let top_k = field(v, "top_k", op)?
                .as_i64()
                .and_then(|k| usize::try_from(k).ok())
                .ok_or_else(|| WireError::new("join: \"top_k\" must be a non-negative integer"))?;
            Ok(OwnedSuggestRequest::Join {
                left: decode_table(field(v, "left", op)?)?,
                right: decode_table(field(v, "right", op)?)?,
                top_k,
            })
        }
        "groupby" => Ok(OwnedSuggestRequest::GroupBy {
            table: decode_table(field(v, "table", op)?)?,
        }),
        "pivot" => {
            let dims = field(v, "dims", op)?
                .as_array()
                .ok_or_else(|| WireError::new("pivot: \"dims\" must be an array"))?
                .iter()
                .map(|d| {
                    d.as_i64()
                        .and_then(|d| usize::try_from(d).ok())
                        .ok_or_else(|| WireError::new("pivot: dims must be column indices"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let table = decode_table(field(v, "table", op)?)?;
            let columns = table.columns().len();
            if let Some(d) = dims.iter().find(|&&d| d >= columns) {
                return Err(WireError::new(format!(
                    "pivot: dim {d} is out of range for a {columns}-column table"
                )));
            }
            // A repeated dim would pair a column with itself in the
            // affinity featuriser.
            let mut seen = std::collections::HashSet::new();
            if let Some(d) = dims.iter().find(|&&d| !seen.insert(d)) {
                return Err(WireError::new(format!("pivot: dim {d} is repeated")));
            }
            Ok(OwnedSuggestRequest::Pivot { table, dims })
        }
        "unpivot" => Ok(OwnedSuggestRequest::Unpivot {
            table: decode_table(field(v, "table", op)?)?,
        }),
        other => Err(WireError::new(format!("request: unknown op {other:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

fn strings(items: &[String]) -> Value {
    Value::Array(items.iter().map(|s| Value::String(s.clone())).collect())
}

fn decode_strings(v: &Value, ctx: &str) -> Result<Vec<String>, WireError> {
    v.as_array()
        .ok_or_else(|| WireError::new(format!("{ctx}: expected a string array")))?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| WireError::new(format!("{ctx}: expected a string")))
        })
        .collect()
}

/// Encode a response. [`SuggestResponse::Unavailable`] gains the wire form
/// `{"kind":"unavailable","model":<name>}`.
pub fn encode_response(resp: &SuggestResponse) -> Value {
    match resp {
        SuggestResponse::Join(suggestions) => {
            let items: Vec<Value> = suggestions
                .iter()
                .map(|s| {
                    json!({
                        "left_cols": strings(&s.left_cols),
                        "right_cols": strings(&s.right_cols),
                        "score": encode_f64(s.score),
                    })
                })
                .collect();
            json!({"kind": "join", "suggestions": Value::Array(items)})
        }
        SuggestResponse::GroupBy(suggestions) => {
            let items: Vec<Value> = suggestions
                .iter()
                .map(|s| json!({"column": s.column.clone(), "score": encode_f64(s.score)}))
                .collect();
            json!({"kind": "groupby", "suggestions": Value::Array(items)})
        }
        SuggestResponse::Pivot(opt) => {
            let suggestion = match opt {
                None => Value::Null,
                Some(p) => json!({
                    "index": strings(&p.index),
                    "header": strings(&p.header),
                    "objective": encode_f64(p.objective),
                }),
            };
            json!({"kind": "pivot", "suggestion": suggestion})
        }
        SuggestResponse::Unpivot(opt) => {
            let suggestion = match opt {
                None => Value::Null,
                Some(u) => json!({
                    "collapse": strings(&u.collapse),
                    "objective": encode_f64(u.objective),
                }),
            };
            json!({"kind": "unpivot", "suggestion": suggestion})
        }
        SuggestResponse::Unavailable(model) => {
            json!({"kind": "unavailable", "model": *model})
        }
    }
}

/// The static model names [`SuggestResponse::Unavailable`] can carry. The
/// decoder maps wire strings back onto these so the round-tripped variant
/// compares equal to the library-produced one.
const UNAVAILABLE_MODELS: &[&str] = &["join", "groupby", "pivot", "unpivot"];

/// Decode a response document.
pub fn decode_response(v: &Value) -> Result<SuggestResponse, WireError> {
    let kind = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| WireError::new("response: missing \"kind\" tag"))?;
    match kind {
        "join" => {
            let items = field(v, "suggestions", kind)?
                .as_array()
                .ok_or_else(|| WireError::new("join: \"suggestions\" must be an array"))?
                .iter()
                .map(|s| {
                    Ok(JoinSuggestion {
                        left_cols: decode_strings(field(s, "left_cols", kind)?, "left_cols")?,
                        right_cols: decode_strings(field(s, "right_cols", kind)?, "right_cols")?,
                        score: decode_f64(field(s, "score", kind)?, "score")?,
                    })
                })
                .collect::<Result<Vec<_>, WireError>>()?;
            Ok(SuggestResponse::Join(items))
        }
        "groupby" => {
            let items = field(v, "suggestions", kind)?
                .as_array()
                .ok_or_else(|| WireError::new("groupby: \"suggestions\" must be an array"))?
                .iter()
                .map(|s| {
                    Ok(GroupBySuggestion {
                        column: field(s, "column", kind)?
                            .as_str()
                            .ok_or_else(|| WireError::new("groupby: \"column\" must be a string"))?
                            .to_string(),
                        score: decode_f64(field(s, "score", kind)?, "score")?,
                    })
                })
                .collect::<Result<Vec<_>, WireError>>()?;
            Ok(SuggestResponse::GroupBy(items))
        }
        "pivot" => {
            let s = field(v, "suggestion", kind)?;
            let suggestion = if s.is_null() {
                None
            } else {
                Some(PivotSuggestion {
                    index: decode_strings(field(s, "index", kind)?, "index")?,
                    header: decode_strings(field(s, "header", kind)?, "header")?,
                    objective: decode_f64(field(s, "objective", kind)?, "objective")?,
                })
            };
            Ok(SuggestResponse::Pivot(suggestion))
        }
        "unpivot" => {
            let s = field(v, "suggestion", kind)?;
            let suggestion = if s.is_null() {
                None
            } else {
                Some(UnpivotSuggestion {
                    collapse: decode_strings(field(s, "collapse", kind)?, "collapse")?,
                    objective: decode_f64(field(s, "objective", kind)?, "objective")?,
                })
            };
            Ok(SuggestResponse::Unpivot(suggestion))
        }
        "unavailable" => {
            let model = field(v, "model", kind)?
                .as_str()
                .ok_or_else(|| WireError::new("unavailable: \"model\" must be a string"))?;
            let model = UNAVAILABLE_MODELS
                .iter()
                .find(|&&m| m == model)
                .copied()
                .ok_or_else(|| {
                    WireError::new(format!("unavailable: unknown model name {model:?}"))
                })?;
            Ok(SuggestResponse::Unavailable(model))
        }
        other => Err(WireError::new(format!("response: unknown kind {other:?}"))),
    }
}

/// Compare two responses for *wire equality*: float payloads by IEEE bits
/// (so `NaN == NaN` and `-0.0 != 0.0`), everything else structurally. This
/// is the "bit-for-bit" relation the daemon tests use, strictly stronger
/// in float handling than the derived `PartialEq`.
pub fn responses_bitwise_equal(a: &SuggestResponse, b: &SuggestResponse) -> bool {
    // Encoding is injective up to float bits (shortest-round-trip floats,
    // tagged non-finites), so comparing rendered documents compares bits.
    encode_response(a).to_string() == encode_response(b).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> DataFrame {
        DataFrame::from_columns(vec![
            ("id", vec![Cell::Int(1), Cell::Int(2), Cell::Int(3)]),
            (
                "name",
                vec![Cell::Str("a".into()), Cell::Null, Cell::Str("c".into())],
            ),
            (
                "mixed",
                vec![Cell::Float(2.5), Cell::Bool(true), Cell::Date(18262)],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn cells_roundtrip_including_tagged_forms() {
        let cells = [
            Cell::Null,
            Cell::Bool(false),
            Cell::Int(-42),
            Cell::Int(i64::MAX),
            Cell::Float(1.0),
            Cell::Float(-0.0),
            Cell::Float(f64::NAN),
            Cell::Float(f64::INFINITY),
            Cell::Float(f64::NEG_INFINITY),
            Cell::Float(0.1 + 0.2),
            Cell::Str("héllo\n\"quoted\"".into()),
            Cell::Date(-719162),
        ];
        for cell in &cells {
            let rendered = encode_cell(cell).to_string();
            let parsed = serde_json::from_str(&rendered).unwrap();
            let back = decode_cell(&parsed).unwrap();
            assert_eq!(
                encode_cell(&back).to_string(),
                rendered,
                "cell {cell:?} did not round-trip"
            );
            // Bit-exactness for floats specifically.
            if let (Cell::Float(a), Cell::Float(b)) = (cell, &back) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn tables_roundtrip_through_text() {
        let df = table();
        let text = encode_table(&df).to_string();
        let back = decode_table(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back.num_rows(), df.num_rows());
        assert_eq!(back.column_names(), df.column_names());
        assert_eq!(encode_table(&back).to_string(), text);
    }

    #[test]
    fn requests_roundtrip() {
        let t = table();
        let reqs = [
            OwnedSuggestRequest::Join { left: t.clone(), right: t.clone(), top_k: 3 },
            OwnedSuggestRequest::GroupBy { table: t.clone() },
            OwnedSuggestRequest::Pivot { table: t.clone(), dims: vec![0, 2] },
            OwnedSuggestRequest::Unpivot { table: t.clone() },
        ];
        for req in &reqs {
            let text = encode_request(&req.as_request()).to_string();
            let back = decode_request(&serde_json::from_str(&text).unwrap()).unwrap();
            assert_eq!(back.op(), req.op());
            assert_eq!(encode_request(&back.as_request()).to_string(), text);
        }
    }

    #[test]
    fn responses_roundtrip_every_variant() {
        let responses = [
            SuggestResponse::Join(vec![JoinSuggestion {
                left_cols: vec!["a".into()],
                right_cols: vec!["b".into(), "c".into()],
                score: 0.875,
            }]),
            SuggestResponse::Join(vec![]),
            SuggestResponse::GroupBy(vec![GroupBySuggestion {
                column: "x".into(),
                score: f64::NAN,
            }]),
            SuggestResponse::Pivot(Some(PivotSuggestion {
                index: vec!["i".into()],
                header: vec!["h".into()],
                objective: -1.25,
            })),
            SuggestResponse::Pivot(None),
            SuggestResponse::Unpivot(Some(UnpivotSuggestion {
                collapse: vec!["c1".into(), "c2".into()],
                objective: f64::INFINITY,
            })),
            SuggestResponse::Unpivot(None),
            SuggestResponse::Unavailable("join"),
            SuggestResponse::Unavailable("unpivot"),
        ];
        for resp in &responses {
            let text = encode_response(resp).to_string();
            let back = decode_response(&serde_json::from_str(&text).unwrap()).unwrap();
            assert!(
                responses_bitwise_equal(resp, &back),
                "response {resp:?} did not round-trip: {text}"
            );
        }
    }

    #[test]
    fn malformed_documents_are_rejected_not_panicked() {
        let bad = [
            r#"{}"#,
            r#"{"op":"fly"}"#,
            r#"{"op":"join","left":{"columns":[]},"right":{"columns":[]}}"#,
            r#"{"op":"join","left":{"columns":[]},"right":{"columns":[]},"top_k":-1}"#,
            r#"{"op":"groupby","table":{"columns":[{"name":"a"}]}}"#,
            r#"{"op":"groupby","table":{"columns":[{"name":"a","values":[[1]]}]}}"#,
            r#"{"op":"pivot","table":{"columns":[]},"dims":["x"]}"#,
            // Ragged table: columns of different lengths.
            r#"{"op":"groupby","table":{"columns":[
                {"name":"a","values":[1,2]},{"name":"b","values":[1]}]}}"#,
        ];
        for text in bad {
            let v = serde_json::from_str(text).unwrap();
            assert!(decode_request(&v).is_err(), "accepted {text}");
        }
        assert!(decode_response(&serde_json::from_str(r#"{"kind":"?"}"#).unwrap()).is_err());
        assert!(decode_response(
            &serde_json::from_str(r#"{"kind":"unavailable","model":"nope"}"#).unwrap()
        )
        .is_err());
    }
}
