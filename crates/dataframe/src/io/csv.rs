//! A small RFC-4180-ish CSV reader/writer with type inference.
//!
//! Notebook replay resolves data files (§3.2 of the paper) and loads them
//! through this reader, inferring int/float/bool/date/str per column the
//! way `pd.read_csv` does. The generator writes every planted data file
//! through the writer. Both make one pass: the reader borrows each plain
//! field straight from the input and pushes it into its column, and the
//! writer formats each cell straight into one output buffer. DESIGN.md
//! §5.1 states the contract; `tests/csv_reference.rs` holds both functions
//! to the row-matrix codec they replaced.

use crate::column::Column;
use crate::error::{DataFrameError, Result};
use crate::frame::DataFrame;
use crate::value::{DType, Value};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Parse CSV text (first row = header) into a [`DataFrame`].
///
/// Supports quoted fields with embedded commas, quotes (doubled), and
/// newlines. Each column's dtype is inferred from its cells; a column with
/// mixed incompatible types falls back to strings for *all* its cells so the
/// column is homogeneous.
///
/// Only `"`, `,`, `\r` and `\n` are special. A `\r` outside quotes is
/// dropped wherever it appears; inside quotes it is kept. A `"` opens a
/// quoted section only while its field has no content yet. A final record
/// with no content (say `""` with no newline) is dropped. A malformed quote
/// anywhere fails the whole parse, ahead of the first ragged row, whose
/// error line counts records, not physical lines.
pub fn read_csv_str(text: &str) -> Result<DataFrame> {
    let mut fields = Fields { text, pos: 0, line: 1 };
    let mut header: Vec<Cow<str>> = Vec::new();
    let mut cells: Vec<Vec<Cow<str>>> = Vec::new();
    let mut record = 0usize;
    let mut col = 0usize;
    let mut ragged = None;
    loop {
        let (field, end) = fields.next_field()?;
        if end == End::Eof && col == 0 && field.is_empty() {
            break;
        }
        if record == 0 {
            header.push(field);
        } else if ragged.is_none() && col < cells.len() {
            cells[col].push(field);
        }
        col += 1;
        if end == End::Comma {
            continue;
        }
        if record == 0 {
            cells = header.iter().map(|_| Vec::new()).collect();
        } else if col != header.len() && ragged.is_none() {
            ragged = Some(DataFrameError::Parse {
                line: record + 1,
                message: format!("expected {} fields, found {col}", header.len()),
            });
        }
        record += 1;
        col = 0;
        if end == End::Eof {
            break;
        }
    }
    if let Some(err) = ragged {
        return Err(err);
    }
    if record == 0 {
        return Ok(DataFrame::empty());
    }
    let columns = header
        .into_iter()
        .zip(cells)
        .map(|(name, raw)| infer_column(name.into_owned(), &raw))
        .collect();
    DataFrame::new(columns)
}

/// Infer each cell, stopping at the first dtype that does not unify with
/// the ones before it: such a column keeps every cell as trimmed text.
fn infer_column(name: String, raw: &[Cow<str>]) -> Column {
    let mut values = Vec::with_capacity(raw.len());
    let mut dtype = DType::Null;
    for cell in raw {
        let v = Value::infer_from_str(cell);
        if !v.is_null() {
            match dtype.unify(v.dtype()) {
                Some(u) => dtype = u,
                None => return Column::new(name, raw.iter().map(|c| str_cell(c)).collect()),
            }
        }
        values.push(v);
    }
    Column::new(name, values)
}

fn str_cell(raw: &str) -> Value {
    let t = raw.trim();
    if t.is_empty() {
        Value::Null
    } else {
        Value::Str(t.to_string())
    }
}

/// What ended a field.
#[derive(Clone, Copy, PartialEq, Eq)]
enum End {
    Comma,
    Newline,
    Eof,
}

/// A cursor over CSV text that yields one unescaped field at a time.
struct Fields<'a> {
    text: &'a str,
    pos: usize,
    /// Physical line of `pos`, for quote errors.
    line: usize,
}

impl<'a> Fields<'a> {
    /// The next field and what ended it. A field that is unquoted and has
    /// no `\r` is borrowed from the input. Every special byte is ASCII, so
    /// each slice boundary falls on a char boundary.
    fn next_field(&mut self) -> Result<(Cow<'a, str>, End)> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut i = next_special(bytes, start);
        match bytes.get(i) {
            None | Some(b',') | Some(b'\n') => {
                let end = self.finish(i);
                return Ok((Cow::Borrowed(&self.text[start..i]), end));
            }
            _ => {}
        }
        let mut buf = String::from(&self.text[start..i]);
        let mut in_quotes = false;
        loop {
            if in_quotes {
                let close = bytes[i..].iter().position(|&b| b == b'"').map(|k| i + k);
                let stop = close.unwrap_or(bytes.len());
                self.line += bytes[i..stop].iter().filter(|&&b| b == b'\n').count();
                buf.push_str(&self.text[i..stop]);
                let Some(close) = close else {
                    return Err(DataFrameError::Parse {
                        line: self.line,
                        message: "unterminated quoted field".into(),
                    });
                };
                if bytes.get(close + 1) == Some(&b'"') {
                    buf.push('"');
                    i = close + 2;
                } else {
                    in_quotes = false;
                    i = close + 1;
                }
                continue;
            }
            let stop = next_special(bytes, i);
            buf.push_str(&self.text[i..stop]);
            i = stop;
            match bytes.get(i) {
                None | Some(b',') | Some(b'\n') => {
                    let end = self.finish(i);
                    return Ok((Cow::Owned(buf), end));
                }
                Some(b'\r') => i += 1,
                _ if buf.is_empty() => {
                    in_quotes = true;
                    i += 1;
                }
                _ => {
                    return Err(DataFrameError::Parse {
                        line: self.line,
                        message: "unexpected quote inside unquoted field".into(),
                    })
                }
            }
        }
    }

    /// Step past the terminator at `i` (if any) and name it.
    fn finish(&mut self, i: usize) -> End {
        match self.text.as_bytes().get(i) {
            None => {
                self.pos = i;
                End::Eof
            }
            Some(b',') => {
                self.pos = i + 1;
                End::Comma
            }
            _ => {
                self.pos = i + 1;
                self.line += 1;
                End::Newline
            }
        }
    }
}

/// Index of the first special byte at or after `from`, or `bytes.len()`.
fn next_special(bytes: &[u8], from: usize) -> usize {
    bytes[from..]
        .iter()
        .position(|&b| matches!(b, b',' | b'\n' | b'\r' | b'"'))
        .map_or(bytes.len(), |k| from + k)
}

/// Serialise a frame to CSV text (header + rows), quoting where needed.
///
/// A name or string cell is quoted when it holds `,`, `"`, `\n` or `\r`,
/// with its quotes doubled. A finite float whose rendering has no `.`
/// (an integral value of magnitude 1e15 or more) gets `.0`, so it reads
/// back as a float rather than an int.
pub fn write_csv_string(df: &DataFrame) -> String {
    let columns = df.columns();
    // Generated cells average about seven bytes with their comma; longer
    // cells grow the buffer. Sized by cell count, the guess stays below the
    // frame's own 32 bytes per cell.
    let mut out = String::with_capacity((df.num_rows() + 1) * (columns.len() * 8 + 1));
    for (j, c) in columns.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        push_text(&mut out, c.name());
    }
    out.push('\n');
    for i in 0..df.num_rows() {
        for (j, c) in columns.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_cell(&mut out, c.get(i));
        }
        out.push('\n');
    }
    out
}

fn push_cell(out: &mut String, v: &Value) {
    match v {
        Value::Null => {}
        Value::Str(s) => push_text(out, s),
        Value::Float(x) => {
            let start = out.len();
            let _ = write!(out, "{v}");
            if x.is_finite() && !out[start..].contains('.') {
                out.push_str(".0");
            }
        }
        // Bools, ints and dates never render a special byte.
        other => {
            let _ = write!(out, "{other}");
        }
    }
}

fn push_text(out: &mut String, s: &str) {
    if !s.bytes().any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r')) {
        out.push_str(s);
        return;
    }
    out.push('"');
    for (k, part) in s.split('"').enumerate() {
        if k > 0 {
            out.push_str("\"\"");
        }
        out.push_str(part);
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_roundtrip() {
        let csv = "id,name,score\n1,ada,9.5\n2,bob,8.0\n";
        let df = read_csv_str(csv).unwrap();
        assert_eq!(df.num_rows(), 2);
        assert_eq!(df.schema().field(0).dtype, DType::Int);
        assert_eq!(df.schema().field(2).dtype, DType::Float);
        let back = write_csv_string(&df);
        let df2 = read_csv_str(&back).unwrap();
        assert_eq!(df.content_hash(), df2.content_hash());
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let csv = "title,author\n\"Dune, Part 1\",\"Frank \"\"F\"\" Herbert\"\n";
        let df = read_csv_str(csv).unwrap();
        assert_eq!(
            df.column("title").unwrap().get(0),
            &Value::Str("Dune, Part 1".into())
        );
        assert_eq!(
            df.column("author").unwrap().get(0),
            &Value::Str("Frank \"F\" Herbert".into())
        );
    }

    #[test]
    fn embedded_newline_in_quotes() {
        let csv = "note\n\"line1\nline2\"\n";
        let df = read_csv_str(csv).unwrap();
        assert_eq!(df.num_rows(), 1);
        assert_eq!(
            df.column("note").unwrap().get(0),
            &Value::Str("line1\nline2".into())
        );
    }

    #[test]
    fn empty_cells_become_null() {
        let csv = "a,b\n1,\n,2\n";
        let df = read_csv_str(csv).unwrap();
        assert_eq!(df.column("a").unwrap().null_count(), 1);
        assert_eq!(df.column("b").unwrap().null_count(), 1);
    }

    #[test]
    fn mixed_type_column_degrades_to_all_strings() {
        let csv = "v\n1\nabc\n2\n";
        let df = read_csv_str(csv).unwrap();
        assert_eq!(df.schema().field(0).dtype, DType::Str);
        // Even the numeric-looking cells stay strings for homogeneity.
        assert_eq!(df.column("v").unwrap().get(0), &Value::Str("1".into()));
    }

    #[test]
    fn ragged_row_is_a_parse_error() {
        let err = read_csv_str("a,b\n1\n").unwrap_err();
        assert!(matches!(err, DataFrameError::Parse { line: 2, .. }));
    }

    #[test]
    fn date_inference() {
        let df = read_csv_str("d\n2020-05-01\n2020-05-02\n").unwrap();
        assert_eq!(df.schema().field(0).dtype, DType::Date);
    }

    #[test]
    fn crlf_line_endings() {
        let df = read_csv_str("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(df.num_rows(), 1);
        assert_eq!(df.column("b").unwrap().get(0), &Value::Int(2));
    }

    #[test]
    fn missing_trailing_newline() {
        let df = read_csv_str("a\n1").unwrap();
        assert_eq!(df.num_rows(), 1);
    }

    #[test]
    fn empty_input_is_empty_frame() {
        let df = read_csv_str("").unwrap();
        assert_eq!(df.num_columns(), 0);
    }

    #[test]
    fn unterminated_quote_errors() {
        assert!(read_csv_str("a\n\"oops\n").is_err());
    }

    #[test]
    fn header_only_with_trailing_comma_and_no_newline_has_three_columns() {
        let df = read_csv_str("a,b,").unwrap();
        assert_eq!(df.column_names(), vec!["a", "b", ""]);
        assert_eq!(df.num_rows(), 0);
    }

    #[test]
    fn last_row_cut_after_a_comma_is_ragged() {
        let err = read_csv_str("a,b,c\n1,2,3\n4,").unwrap_err();
        assert_eq!(
            err,
            DataFrameError::Parse { line: 3, message: "expected 3 fields, found 2".into() }
        );
        // With two columns the cut row is a whole row with an empty cell.
        let df = read_csv_str("a,b\n1,").unwrap();
        assert_eq!(df.num_rows(), 1);
        assert_eq!(df.column("b").unwrap().get(0), &Value::Null);
    }

    #[test]
    fn quote_errors_win_over_an_earlier_ragged_row() {
        let err = read_csv_str("a,b\n1\n\"x,2\n").unwrap_err();
        assert_eq!(
            err,
            DataFrameError::Parse { line: 4, message: "unterminated quoted field".into() }
        );
        let err = read_csv_str("a,b\n1\n2,x\"y\n").unwrap_err();
        assert_eq!(
            err,
            DataFrameError::Parse {
                line: 3,
                message: "unexpected quote inside unquoted field".into()
            }
        );
    }

    #[test]
    fn ragged_row_line_counts_records_not_physical_lines() {
        // The ragged row is the third record but starts on physical line 4.
        let err = read_csv_str("a,b\n\"x\ny\",1\n2\n").unwrap_err();
        assert!(matches!(err, DataFrameError::Parse { line: 3, .. }), "{err:?}");
    }

    #[test]
    fn final_empty_quoted_line_without_newline_is_dropped() {
        let df = read_csv_str("a\n1\n\"\"").unwrap();
        assert_eq!(df.num_rows(), 1);
        assert_eq!(df.column("a").unwrap().get(0), &Value::Int(1));
    }

    #[test]
    fn quote_reopens_after_an_empty_quoted_section_and_cr() {
        let df = read_csv_str("a\n\"\"\r\"x\"\n").unwrap();
        assert_eq!(df.column("a").unwrap().get(0), &Value::Str("x".into()));
    }

    #[test]
    fn carriage_returns_in_names_and_cells_roundtrip() {
        let df = DataFrame::from_columns(vec![
            ("a\rb", vec![Value::Str("x\ry".into()), Value::Str("p\rq".into())]),
            ("c", vec![Value::Int(1), Value::Int(2)]),
        ])
        .unwrap();
        let text = write_csv_string(&df);
        assert_eq!(text, "\"a\rb\",c\n\"x\ry\",1\n\"p\rq\",2\n");
        let back = read_csv_str(&text).unwrap();
        assert_eq!(back.column_names(), vec!["a\rb", "c"]);
        assert_eq!(back.content_hash(), df.content_hash());
    }

    #[test]
    fn large_integral_floats_roundtrip_as_floats() {
        let floats = [1e15, -2e20, 1e300, 123_456_789_012_345_680.0, 2.5e15, 1e15 + 0.5];
        let df = DataFrame::from_columns(vec![(
            "x",
            floats.iter().map(|&f| Value::Float(f)).collect(),
        )])
        .unwrap();
        let text = write_csv_string(&df);
        assert!(text.starts_with("x\n1000000000000000.0\n-200000000000000000000.0\n"), "{text}");
        let back = read_csv_str(&text).unwrap();
        assert_eq!(back.schema().field(0).dtype, DType::Float);
        assert_eq!(back.content_hash(), df.content_hash());
        // Tables still print these without a fraction.
        assert_eq!(Value::Float(1e15).to_string(), "1000000000000000");
    }
}
