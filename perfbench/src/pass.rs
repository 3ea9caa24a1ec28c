//! One pass of a workload: what a child process measures and hands back to
//! the orchestrator as a single JSON line on its stdout.

use crate::layers::LayerValues;
use serde_json::{json, Value};

/// Raw measurements of one pass.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of each user-facing operation, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Items the timed phase completed (notebooks or requests).
    pub items: f64,
    /// Wall seconds of the timed phase.
    pub work_s: f64,
    pub quality: f64,
    pub peak_rss_mib: f64,
    /// Operations attempted and failed, correctness checks included.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
    /// Workload-specific figures by name: `(name, value, unit)`.
    pub report: Vec<(String, f64, String)>,
    /// The figure tracing overhead is measured on, in milliseconds.
    pub overhead_basis_ms: f64,
    /// Per-layer values (traced passes only).
    pub layers: LayerValues,
}

impl Pass {
    /// Count one attempted operation; a false `ok` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 10 {
                self.notes.push(what());
            }
        }
    }

    pub fn report(&mut self, name: &str, value: f64, unit: &str) {
        self.report
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Record the process's peak resident set size so far.
    pub fn record_peak_rss(&mut self) {
        let bytes = autosuggest_obs::peak_rss_bytes().unwrap_or(0);
        self.peak_rss_mib = bytes as f64 / (1024.0 * 1024.0);
    }

    pub fn to_json(&self) -> Value {
        let report: Vec<Value> = self
            .report
            .iter()
            .map(|(n, v, u)| json!({"name": n.clone(), "value": *v, "unit": u.clone()}))
            .collect();
        let layers: serde_json::Map = self
            .layers
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(*v)))
            .collect();
        json!({
            "setup_s": self.setup_s.clone(),
            "op_ms": self.op_ms.clone(),
            "items": self.items,
            "work_s": self.work_s,
            "quality": self.quality,
            "peak_rss_mib": self.peak_rss_mib,
            "attempted": self.attempted,
            "failed": self.failed,
            "notes": self.notes.clone(),
            "report": report,
            "overhead_basis_ms": self.overhead_basis_ms,
            "layers": Value::Object(layers),
        })
    }

    pub fn from_json(v: &Value) -> Result<Pass, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("pass result lacks {k}"))
        };
        let nums = |k: &str| -> Result<Vec<f64>, String> {
            v.get(k)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("pass result lacks {k}"))?
                .iter()
                .map(|x| x.as_f64().ok_or_else(|| format!("{k} holds a non-number")))
                .collect()
        };
        let report = v
            .get("report")
            .and_then(Value::as_array)
            .ok_or("pass result lacks report")?
            .iter()
            .map(|r| {
                let name = r
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("report entry lacks name")?;
                let unit = r
                    .get("unit")
                    .and_then(Value::as_str)
                    .ok_or("report entry lacks unit")?;
                let value = r
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or("report entry lacks value")?;
                Ok((name.to_string(), value, unit.to_string()))
            })
            .collect::<Result<Vec<_>, &str>>()?;
        let layers = v
            .get("layers")
            .and_then(Value::as_object)
            .ok_or("pass result lacks layers")?
            .iter()
            .map(|(k, x)| Ok((k.clone(), x.as_f64().ok_or("layer value is not a number")?)))
            .collect::<Result<LayerValues, &str>>()?;
        let notes = v
            .get("notes")
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(|n| n.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default();
        Ok(Pass {
            setup_s: nums("setup_s")?,
            op_ms: nums("op_ms")?,
            items: num("items")?,
            work_s: num("work_s")?,
            quality: num("quality")?,
            peak_rss_mib: num("peak_rss_mib")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            notes,
            report,
            overhead_basis_ms: num("overhead_basis_ms")?,
            layers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_round_trips_through_json() {
        let mut p = Pass {
            setup_s: vec![0.25, 0.5],
            op_ms: vec![1.5, 2.0, 30.125],
            items: 3.0,
            work_s: 0.1,
            quality: 0.75,
            peak_rss_mib: 12.5,
            overhead_basis_ms: 2.0,
            ..Pass::default()
        };
        p.check(true, String::new);
        p.check(false, || "bad body".to_string());
        p.report("suggest_p50_ms", 2.0, "ms");
        p.layers.insert("wire.decode_us".into(), 41.5);
        let text = p.to_json().to_string();
        let back = Pass::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().to_string(), text);
        assert_eq!((back.attempted, back.failed), (2, 1));
        assert_eq!(back.notes, vec!["bad body".to_string()]);
    }
}
