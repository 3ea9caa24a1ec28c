//! Property tests for the daemon wire format (`core::wire`): seeded
//! random requests, responses, and tables must survive
//! encode → render → parse → decode → re-encode *byte-for-byte*, for
//! every variant — including `Unavailable`, empty suggestion lists, and
//! non-finite float payloads the JSON shim cannot represent natively.
//!
//! The daemon decodes a request body in one pass, from text straight into
//! columns ([`decode_request_text`]). [`reference`] keeps the decoder it
//! replaced, which walks a parsed `Value` tree, and every body here must
//! decode the same both ways: accepted by both or neither, with the same
//! error text, re-encoding to the same bytes.

use auto_suggest::core::wire::{
    decode_request, decode_request_text, decode_response, encode_request, encode_response,
    OwnedSuggestRequest,
};
use auto_suggest::core::{
    GroupBySuggestion, JoinSuggestion, PivotSuggestion, SuggestResponse, UnpivotSuggestion,
};
use auto_suggest::dataframe::{DataFrame, Value as Cell};
use serde_json::Value;

/// The request decoder that walks a parsed document: the reference the
/// one-pass decoder is held to. Errors are the text a `WireError` shows.
mod reference {
    use auto_suggest::core::wire::OwnedSuggestRequest;
    use auto_suggest::dataframe::{Column, DataFrame, Value as Cell};
    use serde_json::Value;

    fn error(msg: impl std::fmt::Display) -> String {
        format!("wire: {msg}")
    }

    fn decode_f64(v: &Value, ctx: &str) -> Result<f64, String> {
        if let Some(f) = v.as_f64() {
            return Ok(f);
        }
        if let Some(tag) = v.get("f").and_then(Value::as_str) {
            return match tag {
                "nan" => Ok(f64::NAN),
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                other => Err(error(format!("{ctx}: unknown float tag {other:?}"))),
            };
        }
        Err(error(format!("{ctx}: expected a number")))
    }

    fn decode_cell(v: &Value) -> Result<Cell, String> {
        match v {
            Value::Null => Ok(Cell::Null),
            Value::Bool(b) => Ok(Cell::Bool(*b)),
            Value::String(s) => Ok(Cell::Str(s.clone())),
            Value::Number(n) => match n.as_i64() {
                Some(i) => Ok(Cell::Int(i)),
                None => Ok(Cell::Float(
                    n.as_f64().ok_or_else(|| error("cell: unrepresentable number"))?,
                )),
            },
            Value::Object(_) => {
                if let Some(d) = v.get("date") {
                    return Ok(Cell::Date(
                        d.as_i64().ok_or_else(|| error("cell: date must be an integer"))?,
                    ));
                }
                if v.get("f").is_some() {
                    return Ok(Cell::Float(decode_f64(v, "cell")?));
                }
                Err(error("cell: unknown tagged object"))
            }
            Value::Array(_) => Err(error("cell: arrays are not cell values")),
        }
    }

    fn decode_table(v: &Value) -> Result<DataFrame, String> {
        let cols = v
            .get("columns")
            .and_then(Value::as_array)
            .ok_or_else(|| error("table: missing \"columns\" array"))?;
        let mut columns = Vec::with_capacity(cols.len());
        for (i, col) in cols.iter().enumerate() {
            let name = col
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| error(format!("table: column {i} missing \"name\"")))?;
            let values = col
                .get("values")
                .and_then(Value::as_array)
                .ok_or_else(|| error(format!("table: column {i} missing \"values\"")))?;
            let cells = values.iter().map(decode_cell).collect::<Result<Vec<_>, _>>()?;
            columns.push(Column::new(name, cells));
        }
        DataFrame::new(columns).map_err(|e| error(format!("table: {e}")))
    }

    fn field<'v>(v: &'v Value, key: &str, op: &str) -> Result<&'v Value, String> {
        v.get(key).ok_or_else(|| error(format!("{op}: missing \"{key}\"")))
    }

    pub fn decode_request(v: &Value) -> Result<OwnedSuggestRequest, String> {
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| error("request: missing \"op\" tag"))?;
        match op {
            "join" => {
                let top_k = field(v, "top_k", op)?
                    .as_i64()
                    .and_then(|k| usize::try_from(k).ok())
                    .ok_or_else(|| error("join: \"top_k\" must be a non-negative integer"))?;
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
                    .ok_or_else(|| error("pivot: \"dims\" must be an array"))?
                    .iter()
                    .map(|d| {
                        d.as_i64()
                            .and_then(|d| usize::try_from(d).ok())
                            .ok_or_else(|| error("pivot: dims must be column indices"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let table = decode_table(field(v, "table", op)?)?;
                let columns = table.columns().len();
                if let Some(d) = dims.iter().find(|&&d| d >= columns) {
                    return Err(error(format!(
                        "pivot: dim {d} is out of range for a {columns}-column table"
                    )));
                }
                let mut seen = std::collections::HashSet::new();
                if let Some(d) = dims.iter().find(|&&d| !seen.insert(d)) {
                    return Err(error(format!("pivot: dim {d} is repeated")));
                }
                Ok(OwnedSuggestRequest::Pivot { table, dims })
            }
            "unpivot" => Ok(OwnedSuggestRequest::Unpivot {
                table: decode_table(field(v, "table", op)?)?,
            }),
            other => Err(error(format!("request: unknown op {other:?}"))),
        }
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random cell spanning every dtype, biased toward awkward floats
/// (NaN, infinities, -0.0, subnormal-ish magnitudes).
fn random_cell(rng: &mut u64) -> Cell {
    match splitmix(rng) % 10 {
        0 => Cell::Null,
        1 => Cell::Bool(splitmix(rng).is_multiple_of(2)),
        2 => Cell::Int(splitmix(rng) as i64),
        3 => Cell::Int(i64::MIN + (splitmix(rng) % 1000) as i64),
        4 => Cell::Date((splitmix(rng) % 1_000_000) as i64 - 500_000),
        5 => Cell::Str(format!("s{}\u{00e9}\"\\\n", splitmix(rng) % 100)),
        6 => Cell::Float(f64::from_bits(splitmix(rng))), // any bit pattern, incl. NaN payloads
        7 => Cell::Float(match splitmix(rng) % 4 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => -0.0,
        }),
        8 => Cell::Float((splitmix(rng) as i64 as f64) / 1e3),
        _ => Cell::Str(String::new()),
    }
}

fn random_table(rng: &mut u64) -> DataFrame {
    let cols = 1 + (splitmix(rng) % 4) as usize;
    let rows = (splitmix(rng) % 12) as usize;
    let columns = (0..cols)
        .map(|c| {
            let values = (0..rows).map(|_| random_cell(rng)).collect::<Vec<_>>();
            (format!("col_{c}"), values)
        })
        .collect::<Vec<_>>();
    DataFrame::from_columns(
        columns.iter().map(|(n, v)| (n.as_str(), v.clone())).collect(),
    )
    .expect("generated tables are rectangular")
}

fn random_request(rng: &mut u64) -> OwnedSuggestRequest {
    match splitmix(rng) % 4 {
        0 => OwnedSuggestRequest::Join {
            left: random_table(rng),
            right: random_table(rng),
            top_k: (splitmix(rng) % 10) as usize,
        },
        1 => OwnedSuggestRequest::GroupBy { table: random_table(rng) },
        2 => {
            let table = random_table(rng);
            let dims = (0..table.columns().len())
                .filter(|_| splitmix(rng).is_multiple_of(2))
                .collect();
            OwnedSuggestRequest::Pivot { table, dims }
        }
        _ => OwnedSuggestRequest::Unpivot { table: random_table(rng) },
    }
}

fn random_strings(rng: &mut u64) -> Vec<String> {
    (0..splitmix(rng) % 4).map(|i| format!("c{i}")).collect()
}

fn random_score(rng: &mut u64) -> f64 {
    match splitmix(rng) % 5 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => f64::from_bits(splitmix(rng) % (1u64 << 62)), // finite-ish spread
    }
}

fn random_response(rng: &mut u64) -> SuggestResponse {
    match splitmix(rng) % 7 {
        0 => SuggestResponse::Join(
            (0..splitmix(rng) % 4)
                .map(|_| JoinSuggestion {
                    left_cols: random_strings(rng),
                    right_cols: random_strings(rng),
                    score: random_score(rng),
                })
                .collect(),
        ),
        1 => SuggestResponse::GroupBy(
            (0..splitmix(rng) % 4)
                .map(|i| GroupBySuggestion {
                    column: format!("g{i}"),
                    score: random_score(rng),
                })
                .collect(),
        ),
        2 => SuggestResponse::Pivot(Some(PivotSuggestion {
            index: random_strings(rng),
            header: random_strings(rng),
            objective: random_score(rng),
        })),
        3 => SuggestResponse::Pivot(None),
        4 => SuggestResponse::Unpivot(Some(UnpivotSuggestion {
            collapse: random_strings(rng),
            objective: random_score(rng),
        })),
        5 => SuggestResponse::Unpivot(None),
        _ => SuggestResponse::Unavailable(
            ["join", "groupby", "pivot", "unpivot"][(splitmix(rng) % 4) as usize],
        ),
    }
}

#[test]
fn requests_roundtrip_bit_for_bit_over_seeded_fuzz() {
    let mut rng = 0x5eed_0001u64;
    for case in 0..500 {
        let req = random_request(&mut rng);
        let rendered = encode_request(&req.as_request()).to_string();
        let parsed = serde_json::from_str(&rendered)
            .unwrap_or_else(|e| panic!("case {case}: rendered JSON unparseable: {e}\n{rendered}"));
        let back = decode_request(&parsed)
            .unwrap_or_else(|e| panic!("case {case}: decode failed: {e}\n{rendered}"));
        let rerendered = encode_request(&back.as_request()).to_string();
        assert_eq!(rendered, rerendered, "case {case}: request round-trip drifted");
        assert_eq!(decode_both(rendered.as_bytes()), Ok(rendered), "case {case}");
    }
}

#[test]
fn responses_roundtrip_bit_for_bit_over_seeded_fuzz() {
    let mut rng = 0x5eed_0002u64;
    for case in 0..500 {
        let resp = random_response(&mut rng);
        let rendered = encode_response(&resp).to_string();
        let parsed = serde_json::from_str(&rendered)
            .unwrap_or_else(|e| panic!("case {case}: rendered JSON unparseable: {e}\n{rendered}"));
        let back = decode_response(&parsed)
            .unwrap_or_else(|e| panic!("case {case}: decode failed: {e}\n{rendered}"));
        let rerendered = encode_response(&back).to_string();
        assert_eq!(rendered, rerendered, "case {case}: response round-trip drifted");
        // For variants without float payloads the decoded value must also
        // be structurally identical; float-bearing ones are compared via
        // the rendering (bit-preserving for floats by construction).
        if let SuggestResponse::Unavailable(model) = resp {
            assert_eq!(back, SuggestResponse::Unavailable(model));
        }
    }
}

/// A decoded request re-encoded, or the error text the daemon answers.
fn outcome(decoded: Result<OwnedSuggestRequest, String>) -> Result<String, String> {
    decoded.map(|r| encode_request(&r.as_request()).to_string())
}

/// Decode one request body the daemon's way and the reference's way
/// (parse to a `Value`, then walk it), and require the same outcome. A
/// panic in either fails the test. Bytes that are not UTF-8 reach the
/// decoders with U+FFFD in their place. Returns the outcome.
fn decode_both(body: &[u8]) -> Result<String, String> {
    let text = String::from_utf8_lossy(body);
    let daemon = outcome(decode_request_text(&text).map_err(|e| e.to_string()));
    let walked = serde_json::from_str(&text)
        .map_err(|e| format!("bad JSON: {e}"))
        .and_then(|v| reference::decode_request(&v));
    assert_eq!(daemon, outcome(walked), "body {text:?}");
    daemon
}

/// Values a member can be given in place of its own.
const DECOYS: &[&str] = &[
    "3",
    "-1",
    "1.5",
    "\"x\"",
    "\"join\"",
    "null",
    "true",
    "[]",
    "[1,[2]]",
    "{}",
    "{\"date\":1}",
    "{\"f\":\"nan\"}",
    "{\"columns\":[]}",
    "{\"name\":\"a\",\"values\":[1]}",
];

/// How [`render_varied`] may change a document.
#[derive(Clone, Copy)]
struct Variation {
    /// Add a member with a decoy value and the key of a member that
    /// follows it, so the document means the same (the last value wins).
    shadowed: bool,
    /// Add a member with a decoy value after the one it repeats, which
    /// changes what the document means.
    overriding: bool,
    /// Add members with keys no request has.
    unknown: bool,
}

/// A JSON string literal for `key`, sometimes with its first character
/// written as a `\u` escape.
fn render_key(key: &str, rng: &mut u64) -> String {
    let quoted = Value::from(key).to_string();
    match key.chars().next() {
        Some(c) if splitmix(rng).is_multiple_of(4) => {
            format!("\"\\u{:04x}{}", c as u32, &quoted[1 + c.len_utf8()..])
        }
        _ => quoted,
    }
}

/// Whitespace that JSON allows between tokens, often none.
fn whitespace(rng: &mut u64) -> &'static str {
    const SPACES: [&str; 10] = ["", "", "", "", "", "", " ", "\n", "\t ", "\r\n  "];
    SPACES[(splitmix(rng) % SPACES.len() as u64) as usize]
}

/// Render `v` with every object's members shuffled, with whitespace
/// between tokens and the members `variation` allows.
fn render_varied(v: &Value, variation: Variation, rng: &mut u64) -> String {
    let decoy = |rng: &mut u64| DECOYS[(splitmix(rng) % DECOYS.len() as u64) as usize];
    match v {
        Value::Object(map) => {
            let mut members: Vec<(String, String)> = map
                .iter()
                .map(|(k, v)| (k.clone(), render_varied(v, variation, rng)))
                .collect();
            let mut order: Vec<u64> = members.iter().map(|_| splitmix(rng)).collect();
            if variation.unknown && splitmix(rng).is_multiple_of(2) {
                members.push(("zz".into(), decoy(rng).into()));
                order.push(splitmix(rng));
            }
            let mut keyed: Vec<(u64, (String, String))> = order.into_iter().zip(members).collect();
            keyed.sort_by_key(|(o, _)| *o);
            let mut members: Vec<(String, String)> = keyed.into_iter().map(|(_, m)| m).collect();
            if !members.is_empty() {
                let at = (splitmix(rng) % members.len() as u64) as usize;
                let key = members[at].0.clone();
                if variation.shadowed && splitmix(rng).is_multiple_of(2) {
                    members.insert(at, (key.clone(), decoy(rng).into()));
                }
                if variation.overriding && splitmix(rng).is_multiple_of(3) {
                    let at = members.iter().rposition(|(k, _)| *k == key).unwrap();
                    members.insert(at + 1, (key, decoy(rng).into()));
                }
            }
            let members: Vec<String> = members
                .into_iter()
                .map(|(k, v)| {
                    let (a, b, c) = (whitespace(rng), whitespace(rng), whitespace(rng));
                    format!("{a}{}{b}:{c}{v}", render_key(&k, rng))
                })
                .collect();
            format!("{{{}{}}}", members.join(","), whitespace(rng))
        }
        Value::Array(items) => {
            let items: Vec<String> = items
                .iter()
                .map(|v| format!("{}{}", whitespace(rng), render_varied(v, variation, rng)))
                .collect();
            format!("[{}{}]", items.join(","), whitespace(rng))
        }
        other => other.to_string(),
    }
}

#[test]
fn member_order_whitespace_and_shadowed_keys_decode_unchanged() {
    let mut rng = 0x5eed_0004u64;
    let meaning_kept = Variation { shadowed: true, overriding: false, unknown: true };
    let any = Variation { shadowed: true, overriding: true, unknown: true };
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..300 {
        let req = random_request(&mut rng);
        let doc = encode_request(&req.as_request());
        let rendered = doc.to_string();
        for _ in 0..4 {
            let varied = render_varied(&doc, meaning_kept, &mut rng);
            assert_eq!(decode_both(varied.as_bytes()), Ok(rendered.clone()), "case {case}");
            match decode_both(render_varied(&doc, any, &mut rng).as_bytes()) {
                Ok(_) => accepted += 1,
                Err(_) => rejected += 1,
            }
        }
    }
    // Overriding members must reach both outcomes, or the comparison
    // above is one-sided.
    assert!(accepted > 100 && rejected > 100, "{accepted} accepted, {rejected} rejected");
}

#[test]
fn surrogate_pair_escapes_decode_to_one_cell() {
    // Python's `json.dumps` escapes every non-BMP character this way.
    let text = r#"{"op":"groupby","table":{"columns":[{"name":"a","values":["\ud83d\ude00"]}]}}"#;
    let back = decode_request(&serde_json::from_str(text).unwrap()).unwrap();
    let OwnedSuggestRequest::GroupBy { table } = &back else { panic!("decoded {back:?}") };
    assert_eq!(table.columns()[0].values(), [Cell::Str("\u{1F600}".into())]);
    let rendered = encode_request(&back.as_request()).to_string();
    assert_eq!(rendered, text.replace(r"\ud83d\ude00", "\u{1F600}"));
}

#[test]
fn error_documents_decode_to_errors_never_panics() {
    // Every byte prefix of seeded request bodies, each body with each byte
    // in turn replaced by a seeded pick of a JSON-significant one, and
    // seeded multi-byte mutations of each body must surface as an error or
    // a decoded request, never a panic, and the same one as the reference.
    const SUBSTITUTES: &[u8] = b"\"\\[]{},:-e0";
    // Lead bytes of 2-, 3- and 4-byte UTF-8 sequences, each cut short.
    const TRUNCATED_UTF8: &[&[u8]] = &[b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98"];
    let mut rng = 0x5eed_0003u64;
    let pick = |rng: &mut u64, n: usize| (splitmix(rng) % n as u64) as usize;
    for _ in 0..20 {
        let body = encode_request(&random_request(&mut rng).as_request()).to_string();
        let bytes = body.as_bytes();
        for cut in 0..bytes.len() {
            let _ = decode_both(&bytes[..cut]);
        }
        let mut mutated = bytes.to_vec();
        for at in 0..bytes.len() {
            mutated[at] = SUBSTITUTES[pick(&mut rng, SUBSTITUTES.len())];
            let _ = decode_both(&mutated);
            mutated[at] = bytes[at];
        }
        // A span of 2-8 bytes replaced with JSON-significant bytes,
        // deleted or duplicated, or a truncated UTF-8 sequence inserted.
        for _ in 0..500 {
            let at = pick(&mut rng, bytes.len());
            let end = (at + 2 + pick(&mut rng, 7)).min(bytes.len());
            let mut mutated = bytes[..at].to_vec();
            match pick(&mut rng, 4) {
                0 => {
                    for _ in at..end {
                        mutated.push(SUBSTITUTES[pick(&mut rng, SUBSTITUTES.len())]);
                    }
                    mutated.extend(&bytes[end..]);
                }
                1 => mutated.extend(&bytes[end..]),
                2 => {
                    mutated.extend(&bytes[at..end]);
                    mutated.extend(&bytes[at..]);
                }
                _ => {
                    mutated.extend(TRUNCATED_UTF8[pick(&mut rng, TRUNCATED_UTF8.len())]);
                    mutated.extend(&bytes[at..]);
                }
            }
            let _ = decode_both(&mutated);
        }
    }
    // Nesting: 128 levels parse (and fail to decode: a cell is no array);
    // 129 are past the parser's recursion limit.
    let nested = |depth: usize| {
        let arrays = depth - 4; // object, table, columns, column
        format!(
            r#"{{"op":"groupby","table":{{"columns":[{{"name":"a","values":{}{}}}]}}}}"#,
            "[".repeat(arrays),
            "]".repeat(arrays)
        )
    };
    assert!(decode_request(&serde_json::from_str(&nested(128)).unwrap()).is_err());
    assert!(serde_json::from_str(&nested(129)).is_err());
    let cell_error = decode_both(nested(128).as_bytes()).unwrap_err();
    assert!(cell_error.contains("arrays are not cell values"), "{cell_error}");
    let too_deep = decode_both(nested(129).as_bytes()).unwrap_err();
    assert!(too_deep.contains("recursion limit"), "{too_deep}");
    let confusions = [
        r#"{"op":3}"#,
        r#"{"op":"join","left":3,"right":4,"top_k":1}"#,
        r#"{"op":"pivot","table":{"columns":[]},"dims":3}"#,
        // A dim past the table's last column would index out of bounds
        // in the pivot featuriser.
        r#"{"op":"pivot","table":{"columns":[{"name":"a","values":[1]},{"name":"b","values":[2]}]},"dims":[0,99]}"#,
        // A repeated dim would pair a column with itself in the affinity
        // featuriser.
        r#"{"op":"pivot","table":{"columns":[{"name":"a","values":[1]},{"name":"b","values":[2]}]},"dims":[0,0]}"#,
        r#"{"kind":"join","suggestions":3}"#,
        r#"{"kind":"join","suggestions":[{"left_cols":"x","right_cols":[],"score":1}]}"#,
        r#"{"kind":"pivot","suggestion":3}"#,
        r#"{"kind":"unavailable","model":3}"#,
        r#"{"kind":"unavailable","model":"mystery"}"#,
    ];
    // RFC 8259 allows U+0000–U+001F in a string only escaped: a raw one
    // makes the body an error, the escaped form a one-cell table.
    let raw = "{\"op\":\"groupby\",\"table\":{\"columns\":[{\"name\":\"a\",\"values\":[\"x\u{1}y\"]}]}}";
    assert!(serde_json::from_str(raw).is_err(), "raw control character parsed");
    let escaped = raw.replace('\u{1}', "\\u0001");
    let back = decode_request(&serde_json::from_str(&escaped).unwrap()).unwrap();
    let OwnedSuggestRequest::GroupBy { table } = &back else { panic!("decoded {back:?}") };
    assert_eq!(table.columns()[0].values(), [Cell::Str("x\u{1}y".into())]);
    for text in confusions {
        assert!(decode_both(text.as_bytes()).is_err(), "daemon accepted {text}");
        let v = serde_json::from_str(text).unwrap();
        assert!(
            decode_request(&v).is_err(),
            "request decoder accepted {text}"
        );
        assert!(
            decode_response(&v).is_err(),
            "response decoder accepted {text}"
        );
    }
}
