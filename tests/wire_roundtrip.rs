//! Property tests for the daemon wire format (`core::wire`): seeded
//! random requests, responses, and tables must survive
//! encode → render → parse → decode → re-encode *byte-for-byte*, for
//! every variant — including `Unavailable`, empty suggestion lists, and
//! non-finite float payloads the JSON shim cannot represent natively.

use auto_suggest::core::wire::{
    decode_request, decode_response, encode_request, encode_response, OwnedSuggestRequest,
};
use auto_suggest::core::{
    GroupBySuggestion, JoinSuggestion, PivotSuggestion, SuggestResponse, UnpivotSuggestion,
};
use auto_suggest::dataframe::{DataFrame, Value as Cell};

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

/// The daemon's path for one request body: UTF-8, then `from_str`, then
/// `decode_request`. Any `Result` is fine; a panic fails the test. Bytes
/// that are not UTF-8 reach the parser with U+FFFD in their place.
fn parse_and_decode(body: &[u8]) {
    if let Ok(v) = serde_json::from_str(&String::from_utf8_lossy(body)) {
        let _ = decode_request(&v);
    }
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
    // Every byte prefix of seeded request bodies, and each body with each
    // byte in turn replaced by a seeded pick of a JSON-significant one,
    // must surface as an error or a decoded request, never a panic.
    const SUBSTITUTES: &[u8] = b"\"\\[]{},:-e0";
    let mut rng = 0x5eed_0003u64;
    for _ in 0..20 {
        let body = encode_request(&random_request(&mut rng).as_request()).to_string();
        let bytes = body.as_bytes();
        for cut in 0..bytes.len() {
            parse_and_decode(&bytes[..cut]);
        }
        let mut mutated = bytes.to_vec();
        for at in 0..bytes.len() {
            mutated[at] = SUBSTITUTES[(splitmix(&mut rng) % SUBSTITUTES.len() as u64) as usize];
            parse_and_decode(&mutated);
            mutated[at] = bytes[at];
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
