//! Serialising a [`MetricsSnapshot`] to a JSON trace document.
//!
//! The document has three top-level keys, rendered in sorted order by
//! the `serde_json` shim's `BTreeMap` object representation:
//!
//! ```json
//! {"deterministic": {...}, "meta": {...}, "timing": {...}}
//! ```
//!
//! Only `deterministic` is byte-identical at any thread count;
//! `autosuggest_bench::determinism` compares it structurally, by JSON path.

use crate::metrics::MetricsSnapshot;
use serde_json::{Map, Value};
use std::io;
use std::path::Path;

/// Writes trace documents. Stateless — the snapshot carries the data.
pub struct TraceSink;

impl TraceSink {
    /// Render the full trace document as compact JSON.
    pub fn render(snapshot: &MetricsSnapshot, meta: Value) -> String {
        let mut doc = Map::new();
        doc.insert("deterministic".to_string(), snapshot.deterministic_value());
        doc.insert("meta".to_string(), meta);
        doc.insert("timing".to_string(), snapshot.timing_value());
        Value::Object(doc).to_string()
    }

    /// Write the trace document to `path` (plus a trailing newline).
    pub fn write(path: &Path, snapshot: &MetricsSnapshot, meta: Value) -> io::Result<()> {
        let mut text = Self::render(snapshot, meta);
        text.push('\n');
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use serde_json::json;

    #[test]
    fn render_orders_deterministic_first() {
        let reg = MetricsRegistry::new();
        reg.counter_add("c", 1);
        reg.record_span("root", 5);
        let text = TraceSink::render(&reg.snapshot(), json!({"threads": 4}));
        assert!(text.starts_with("{\"deterministic\":"), "got: {text}");
        let doc = serde_json::from_str(&text).unwrap();
        assert_eq!(
            doc.get("meta").and_then(|m| m.get("threads")).and_then(Value::as_i64),
            Some(4)
        );
        assert!(doc.get("deterministic").is_some());
        assert!(doc.get("timing").is_some());
    }

    #[test]
    fn sed_style_extraction_matches_deterministic_value() {
        let reg = MetricsRegistry::new();
        reg.counter_add("x", 2);
        reg.observe("stage_seconds", 0.1);
        let snap = reg.snapshot();
        let text = TraceSink::render(&snap, json!({}));
        // Emulate the CI extraction: strip the wrapper prefix and the
        // ,"meta"... tail.
        let start = "{\"deterministic\":";
        let stripped = text.strip_prefix(start).unwrap_or("");
        let end = stripped.find(",\"meta\"").unwrap_or(stripped.len());
        assert_eq!(&stripped[..end], snap.deterministic_value().to_string());
    }
}
