//! Golden-file regression tests for every repro table.
//!
//! Each table's machine-readable rows (method names + metric values, via
//! `autosuggest_bench::tables::GOLDEN_TABLES`) are compared against
//! `tests/goldens/<name>.json` to an absolute tolerance of 1e-9, so any
//! drift in a reported metric — a feature change, a GBDT tweak, a corpus
//! regeneration bug — fails the suite with the exact cell that moved.
//!
//! The shared context mirrors `repro --fast --seed 42` (no fault
//! injection). Training runs once and is shared by all table tests.
//!
//! After an intentional metric change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test repro_goldens
//! ```
//!
//! and review the golden diff like any other code change.

use autosuggest_bench::tables::{ReproContext, TableRow, GOLDEN_TABLES};
use autosuggest_core::AutoSuggestConfig;
use autosuggest_corpus::CorpusConfig;
use serde_json::{json, Value};
use std::path::PathBuf;
use std::sync::OnceLock;

const TOLERANCE: f64 = 1e-9;

/// Train once with the exact `repro --fast --seed 42` configuration and
/// share the context across all table tests.
fn ctx() -> &'static ReproContext {
    static CTX: OnceLock<ReproContext> = OnceLock::new();
    CTX.get_or_init(|| {
        let mut config = AutoSuggestConfig::fast(42);
        config.corpus = CorpusConfig::small(42);
        ReproContext::build(config)
    })
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.json"))
}

/// Write rows in the golden format. Non-finite values render as JSON
/// null (the serde_json shim's convention), which `value_close` accepts
/// back as equal to any non-finite float.
fn rows_value(name: &str, rows: &[TableRow]) -> Value {
    let rows_json: Vec<Value> = rows
        .iter()
        .map(|r| {
            let values: Vec<Value> = r.values.iter().map(|&v| json!(v)).collect();
            json!({"method": r.method.clone(), "values": Value::Array(values)})
        })
        .collect();
    json!({"table": name, "rows": Value::Array(rows_json)})
}

fn value_close(ours: f64, golden: &Value) -> bool {
    match golden {
        Value::Null => !ours.is_finite(),
        _ => match golden.as_f64() {
            Some(g) => (ours - g).abs() <= TOLERANCE,
            None => false,
        },
    }
}

fn compare_to_golden(name: &str, rows: &[TableRow], golden: &Value) {
    let golden_rows = golden
        .get("rows")
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{name}: golden file has no \"rows\" array"));
    assert_eq!(
        rows.len(),
        golden_rows.len(),
        "{name}: row count changed (ours {}, golden {}); regenerate with \
         UPDATE_GOLDENS=1 if intentional",
        rows.len(),
        golden_rows.len(),
    );
    for (i, (row, grow)) in rows.iter().zip(golden_rows).enumerate() {
        let gmethod = grow
            .get("method")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{name}: golden row {i} has no \"method\""));
        assert_eq!(
            row.method, gmethod,
            "{name}: row {i} method changed; regenerate with UPDATE_GOLDENS=1 if intentional"
        );
        let gvalues = grow
            .get("values")
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{name}: golden row {i} has no \"values\" array"));
        assert_eq!(
            row.values.len(),
            gvalues.len(),
            "{name}: row {i} ({}) metric count changed",
            row.method,
        );
        for (j, (&ours, gv)) in row.values.iter().zip(gvalues).enumerate() {
            assert!(
                value_close(ours, gv),
                "{name}: row {i} ({}), metric {j} drifted beyond {TOLERANCE}: \
                 ours {ours:?}, golden {gv:?}",
                row.method,
            );
        }
    }
}

fn check(name: &str) {
    let rows_fn = GOLDEN_TABLES
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not in GOLDEN_TABLES"))
        .1;
    let rows = rows_fn(ctx());
    assert!(!rows.is_empty(), "{name}: evaluator produced no rows");
    let path = golden_path(name);
    let actual = rows_value(name, &rows);
    if std::env::var("UPDATE_GOLDENS").is_ok_and(|v| !v.is_empty() && v != "0") {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create tests/goldens");
        }
        std::fs::write(&path, format!("{actual}\n")).expect("write golden file");
        eprintln!("[repro_goldens] wrote {}", path.display());
        return;
    }
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{name}: missing golden {} ({e}); generate with \
             UPDATE_GOLDENS=1 cargo test --test repro_goldens",
            path.display()
        )
    });
    let golden: Value = serde_json::from_str(raw.trim())
        .unwrap_or_else(|e| panic!("{name}: golden {} is not valid JSON: {e:?}", path.display()));
    compare_to_golden(name, &rows, &golden);
}

macro_rules! golden_tests {
    ($($test_name:ident => $table:literal),* $(,)?) => {
        $(
            #[test]
            fn $test_name() {
                check($table);
            }
        )*

        /// Every entry in GOLDEN_TABLES must have a test above — adding a
        /// table to the registry without a golden fails here, not silently.
        #[test]
        fn every_registered_table_has_a_golden_test() {
            let covered = [$($table),*];
            for (name, _) in GOLDEN_TABLES {
                assert!(
                    covered.contains(name),
                    "table {name} is registered in GOLDEN_TABLES but has no \
                     golden test; add one to tests/repro_goldens.rs"
                );
            }
            assert_eq!(covered.len(), GOLDEN_TABLES.len());
        }
    };
}

golden_tests! {
    table2_matches_golden => "table2",
    table3_matches_golden => "table3",
    table4_matches_golden => "table4",
    table5_matches_golden => "table5",
    table6_matches_golden => "table6",
    table7_matches_golden => "table7",
    table8_matches_golden => "table8",
    table9_matches_golden => "table9",
    table10_matches_golden => "table10",
    table11_matches_golden => "table11",
}
