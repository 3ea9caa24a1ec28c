//! Differential tests for the CSV codec (`dataframe::io::csv`).
//!
//! The reader scans its input once and borrows plain fields; the writer
//! formats each cell straight into one buffer. [`reference`] keeps the
//! codec they replaced, which splits the text into a row matrix of owned
//! strings and renders each cell to its own string. Both readers must give
//! the same frame (compared by `Debug`, which tells `Int` from `Float` and
//! shows `-0.0`) or the same error, on every file a generated corpus
//! writes and on seeded mutations of those files. Both writers must give
//! the same bytes for every generated table, so the writer's two fixes
//! (quoting `\r`, the `.0` on large integral floats) leave corpus bytes
//! unchanged.

use auto_suggest::corpus::{CorpusConfig, CorpusGenerator, TableGenerator};
use auto_suggest::dataframe::io::{read_csv_str, write_csv_string};
use auto_suggest::dataframe::DataFrame;
use std::sync::OnceLock;

/// The codec before the one-pass rewrite, verbatim.
mod reference {
    use auto_suggest::dataframe::{Column, DType, DataFrame, DataFrameError, Result, Value};

    /// Parse CSV text (first row = header) into a [`DataFrame`].
    ///
    /// Supports quoted fields with embedded commas, quotes (doubled), and
    /// newlines. Each column's dtype is inferred from its cells; a column with
    /// mixed incompatible types falls back to strings for *all* its cells so the
    /// column is homogeneous.
    pub fn read_csv_str(text: &str) -> Result<DataFrame> {
        let rows = parse_rows(text)?;
        let mut iter = rows.into_iter();
        let header = match iter.next() {
            Some(h) => h,
            None => return Ok(DataFrame::empty()),
        };
        let ncols = header.len();
        let mut raw_cols: Vec<Vec<String>> = vec![Vec::new(); ncols];
        for (line, row) in iter.enumerate() {
            if row.len() != ncols {
                return Err(DataFrameError::Parse {
                    line: line + 2,
                    message: format!("expected {ncols} fields, found {}", row.len()),
                });
            }
            for (c, cell) in row.into_iter().enumerate() {
                raw_cols[c].push(cell);
            }
        }

        let mut columns = Vec::with_capacity(ncols);
        for (name, raw) in header.into_iter().zip(raw_cols) {
            let inferred: Vec<Value> = raw.iter().map(|s| Value::infer_from_str(s)).collect();
            // Homogenise: if inference produced an incompatible mix, keep strings.
            let mut dtype = DType::Null;
            let mut mixed = false;
            for v in &inferred {
                if v.is_null() {
                    continue;
                }
                dtype = match dtype.unify(v.dtype()) {
                    Some(u) => u,
                    None => {
                        mixed = true;
                        break;
                    }
                };
            }
            let values = if mixed {
                raw.iter()
                    .map(|s| {
                        let t = s.trim();
                        if t.is_empty() {
                            Value::Null
                        } else {
                            Value::Str(t.to_string())
                        }
                    })
                    .collect()
            } else {
                inferred
            };
            columns.push(Column::new(name, values));
        }
        DataFrame::new(columns)
    }

    /// Serialise a frame to CSV text (header + rows), quoting where needed.
    pub fn write_csv_string(df: &DataFrame) -> String {
        let mut out = String::new();
        let names: Vec<String> = df
            .column_names()
            .iter()
            .map(|n| quote_if_needed(n))
            .collect();
        out.push_str(&names.join(","));
        out.push('\n');
        for i in 0..df.num_rows() {
            let cells: Vec<String> = df
                .columns()
                .iter()
                .map(|c| quote_if_needed(&c.get(i).render()))
                .collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    fn quote_if_needed(s: &str) -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    }

    /// Split CSV text into rows of unescaped fields.
    fn parse_rows(text: &str) -> Result<Vec<Vec<String>>> {
        let mut rows = Vec::new();
        let mut row: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut in_quotes = false;
        let mut chars = text.chars().peekable();
        let mut line = 1usize;
        let mut any = false;

        while let Some(ch) = chars.next() {
            any = true;
            if in_quotes {
                match ch {
                    '"' => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            field.push('"');
                        } else {
                            in_quotes = false;
                        }
                    }
                    '\n' => {
                        line += 1;
                        field.push('\n');
                    }
                    c => field.push(c),
                }
            } else {
                match ch {
                    '"' => {
                        if field.is_empty() {
                            in_quotes = true;
                        } else {
                            return Err(DataFrameError::Parse {
                                line,
                                message: "unexpected quote inside unquoted field".into(),
                            });
                        }
                    }
                    ',' => {
                        row.push(std::mem::take(&mut field));
                    }
                    '\r' => {}
                    '\n' => {
                        line += 1;
                        row.push(std::mem::take(&mut field));
                        rows.push(std::mem::take(&mut row));
                    }
                    c => field.push(c),
                }
            }
        }
        if in_quotes {
            return Err(DataFrameError::Parse {
                line,
                message: "unterminated quoted field".into(),
            });
        }
        if any && (!field.is_empty() || !row.is_empty()) {
            row.push(field);
            rows.push(row);
        }
        Ok(rows)
    }
}

/// The seeds of the two generated corpora.
const SEEDS: [u64; 2] = [7, 11];

/// Every CSV file the generator writes for a small corpus at each seed,
/// named by seed and path. With failures unplanted, each written table
/// lands in its notebook's repository rather than behind a URL or a
/// dataset slug.
fn corpus_files() -> &'static [(String, String)] {
    static FILES: OnceLock<Vec<(String, String)>> = OnceLock::new();
    FILES.get_or_init(|| {
        let mut files = Vec::new();
        for seed in SEEDS {
            let cfg = CorpusConfig { plant_failures: false, ..CorpusConfig::small(seed) };
            let corpus = CorpusGenerator::new(cfg).generate();
            let mut named: Vec<(String, String)> = corpus
                .notebooks
                .iter()
                .flat_map(|nb| nb.repo_files.iter())
                .filter(|(path, _)| path.ends_with(".csv"))
                .map(|(path, text)| (format!("seed {seed} {path}"), text.clone()))
                .collect();
            named.sort();
            files.extend(named);
        }
        files
    })
}

/// Both readers' answer for `text`, asserted equal: the frame's `Debug`
/// or the error's.
fn read_agreed(text: &str, what: &str) -> Result<String, String> {
    let render = |r: auto_suggest::dataframe::Result<DataFrame>| match r {
        Ok(df) => Ok(format!("{df:?}")),
        Err(e) => Err(format!("{e:?}")),
    };
    let (new, old) = (render(read_csv_str(text)), render(reference::read_csv_str(text)));
    if new != old {
        let shown: String = text.chars().take(400).collect();
        panic!(
            "{what}: readers disagree\n  one-pass:  {new:?}\n  reference: {old:?}\n  input ({} bytes, first 400 chars): {shown:?}",
            text.len()
        );
    }
    new
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A char boundary of `text` near `at`.
fn boundary(text: &str, mut at: usize) -> usize {
    at = at.min(text.len());
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

#[test]
fn reader_matches_reference_on_every_corpus_file() {
    let files = corpus_files();
    assert!(files.len() > 200, "only {} CSV files", files.len());
    for (name, text) in files {
        read_agreed(text, name).unwrap();
    }
}

#[test]
fn reader_matches_reference_on_seeded_mutations() {
    const INSERTS: [&str; 7] = ["\"", ",", "\n", "\r", "\"\"", "\r\n", "é"];
    // Mutate the first few records of each file: they reach every parser
    // state, and short inputs keep the debug run fast.
    const WINDOW: usize = 600;
    let mut rng = 0x0C5F_5EED_u64;
    let mut outcomes = std::collections::BTreeMap::<&str, usize>::new();
    for (name, text) in corpus_files() {
        let window = &text[..boundary(text, WINDOW)];
        let base = &window[..window.rfind('\n').map_or(window.len(), |k| k + 1)];
        for _ in 0..48 {
            let mutant = match splitmix(&mut rng) % 4 {
                // Cut anywhere, including mid-record and mid-quote.
                0 => base[..boundary(base, splitmix(&mut rng) as usize % (base.len() + 1))]
                    .to_string(),
                // One to three insertions at random places.
                k => {
                    let mut m = base.to_string();
                    for _ in 0..k {
                        let at = boundary(&m, splitmix(&mut rng) as usize % (m.len() + 1));
                        let ins = INSERTS[splitmix(&mut rng) as usize % INSERTS.len()];
                        m.insert_str(at, ins);
                    }
                    m
                }
            };
            let outcome = match read_agreed(&mutant, &format!("{name} mutant")) {
                Ok(_) => "ok",
                Err(e) => ["expected", "unexpected", "unterminated"]
                    .into_iter()
                    .find(|w| e.contains(&format!("message: \"{w}")))
                    .unwrap_or("other error"),
            };
            *outcomes.entry(outcome).or_default() += 1;
        }
    }
    // The mutations must reach the success path and every parse error:
    // ragged rows, stray quotes and unterminated quotes.
    let total: usize = outcomes.values().sum();
    for outcome in ["ok", "expected", "unexpected", "unterminated"] {
        let n = outcomes.get(outcome).copied().unwrap_or(0);
        assert!(n * 100 > total, "{outcome}: {n} of {total} ({outcomes:?})");
    }
}

#[test]
fn reader_matches_reference_on_odd_inputs() {
    let cases = [
        "", "\n", "\r", "\r\n", "\"\"", "\"\"\n", ",", "a,b,", "a,b,\n", "a,b\n1,",
        "a,b,c\n1,", "a\n\"\"", "a\n\"\"\r\"x\"\n", "a\n1\n\n2\n", "a,b\n1\n\"x",
        "a,b\n1\n2,x\"y", "a,b\n\"x\ny\",1\n2\n", "a\n\"\"\"\"\n", "a\n\"x\"y\n",
        "a\n\"x\" \"\n", "a\n\"\r\"\n", "a\n\r\"x\"\n", "a\nx\r\"\n", "a,a\n1,2\n",
        "a\n é \n", "a\n1\ntrue\n", "a\n1\n2.5\n", "a\n 7 \n\u{a0}\n", "a\nNaN\ninf\n",
        "d\n2020-05-01\n2020-13-01\n", "a\n\"1\"\n",
    ];
    for text in cases {
        let _ = read_agreed(text, "odd input");
    }
}

#[test]
fn writer_matches_reference_on_every_generated_table() {
    let mut tables = 0usize;
    for (name, text) in corpus_files() {
        let df = reference::read_csv_str(text).unwrap();
        let ours = write_csv_string(&df);
        assert_eq!(ours, reference::write_csv_string(&df), "{name}");
        // Each file is a fixed point: reading and writing it back gives
        // the bytes the generator wrote.
        assert_eq!(&ours, text, "{name} does not round-trip");
        tables += 1;
    }
    // The generator's own frames, before any CSV round trip.
    for seed in SEEDS {
        let mut gen = TableGenerator::with_seed(seed);
        for _ in 0..20 {
            let case = gen.join_pair();
            let entities = gen.entities(12);
            let frames = [
                case.left.df,
                case.right.df,
                gen.fact_table(&entities).df,
                gen.dimension_table(&entities, "id").df,
                gen.dimension_table_with_dups(&entities, "key", true).df,
                gen.wide_pivot_table(6).df,
            ];
            for df in &frames {
                assert_eq!(write_csv_string(df), reference::write_csv_string(df), "seed {seed}");
                tables += 1;
            }
        }
    }
    assert!(tables > 300, "only {tables} tables");
}
