//! Deterministic fault injection and robustness accounting.
//!
//! The paper's pipeline earns its training data by surviving millions of
//! broken notebooks; this module lets us *manufacture* that breakage on
//! demand, reproducibly, so the recovery machinery (typed errors, retry,
//! quarantine) is exercised in tests and CI rather than trusted on faith.
//!
//! A [`FaultSpec`] seeds failures into cell execution as a pure function of
//! `(spec seed, notebook id, cell index, retry salt)` — never of wall
//! clock, thread id, or scheduling — so an injected-fault run is
//! bit-identical at any `AUTOSUGGEST_THREADS`.
//!
//! ## Spec grammar (`AUTOSUGGEST_FAULTS`)
//!
//! Comma- or semicolon-separated `key=value` pairs:
//!
//! ```text
//! AUTOSUGGEST_FAULTS="panic=0.05,io=0.04,timeout=0.03,seed=7,transient=0.5"
//! ```
//!
//! * `panic | io | timeout | package | schema` — per-kind injection rate
//!   in `[0, 1]`, evaluated per cell (rates are cumulative; their sum is
//!   the fraction of cells that fault).
//! * `seed` — the injection RNG seed (default 0).
//! * `transient` — probability an injected fault clears on retry
//!   (default 0.5). Transient faults vanish on any later attempt or
//!   round, exercising the recovery path; persistent ones keep firing,
//!   exercising quarantine.

use crate::error::ReplayErrorKind;
use autosuggest_obs as obs;

/// What kind of failure to inject into a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// `panic!` mid-cell — exercises `catch_unwind` isolation.
    Panic,
    /// An unresolvable file path — exercises path repair and quarantine.
    Io,
    /// Immediate budget exhaustion — exercises the timeout path.
    Timeout,
    /// An import of a package outside the registry — permanent failure.
    Package,
    /// An operator-level schema error — permanent failure.
    Schema,
}

impl FaultKind {
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Panic,
        FaultKind::Io,
        FaultKind::Timeout,
        FaultKind::Package,
        FaultKind::Schema,
    ];

    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Io => "io",
            FaultKind::Timeout => "timeout",
            FaultKind::Package => "package",
            FaultKind::Schema => "schema",
        }
    }

    fn from_key(key: &str) -> Option<FaultKind> {
        FaultKind::ALL.iter().copied().find(|k| k.as_str() == key)
    }

    /// The error kind this fault surfaces as.
    pub fn error_kind(&self) -> ReplayErrorKind {
        match self {
            FaultKind::Panic => ReplayErrorKind::OperatorPanic,
            FaultKind::Io => ReplayErrorKind::IoPath,
            FaultKind::Timeout => ReplayErrorKind::Timeout,
            FaultKind::Package => ReplayErrorKind::MissingPackage,
            FaultKind::Schema => ReplayErrorKind::SchemaMismatch,
        }
    }
}

/// A parsed, deterministic fault-injection plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    pub seed: u64,
    /// `(kind, rate)` in canonical [`FaultKind::ALL`] order; absent kinds
    /// have rate 0.
    pub rates: Vec<(FaultKind, f64)>,
    /// Probability an injected fault is transient (clears on retry).
    pub transient: f64,
}

impl FaultSpec {
    /// Parse the `AUTOSUGGEST_FAULTS` grammar (see module docs).
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut seed = 0u64;
        let mut transient = 0.5f64;
        let mut rates: Vec<(FaultKind, f64)> = Vec::new();
        for pair in spec.split([',', ';']).map(str::trim).filter(|p| !p.is_empty()) {
            let Some((key, value)) = pair.split_once('=') else {
                return Err(format!("fault spec entry {pair:?} is not key=value"));
            };
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => {
                    seed = value
                        .parse()
                        .map_err(|_| format!("seed {value:?} is not an integer"))?;
                }
                "transient" => {
                    transient = parse_rate(key, value)?;
                }
                _ => {
                    let Some(kind) = FaultKind::from_key(key) else {
                        return Err(format!(
                            "unknown fault key {key:?} (expected seed, transient, or one of panic/io/timeout/package/schema)"
                        ));
                    };
                    let rate = parse_rate(key, value)?;
                    if let Some(slot) = rates.iter_mut().find(|(k, _)| *k == kind) {
                        slot.1 = rate;
                    } else {
                        rates.push((kind, rate));
                    }
                }
            }
        }
        // Canonical order so `render` and the decision cascade are stable
        // regardless of how the spec was written.
        rates.sort_by_key(|(k, _)| FaultKind::ALL.iter().position(|a| a == k));
        let total: f64 = rates.iter().map(|(_, r)| r).sum();
        if total > 1.0 {
            return Err(format!("fault rates sum to {total:.3} > 1.0"));
        }
        Ok(FaultSpec { seed, rates, transient })
    }

    /// Read and parse `AUTOSUGGEST_FAULTS`. Unset → `None`; a malformed
    /// spec is an operator error worth failing loudly over, so it panics
    /// with the parse message rather than silently running fault-free.
    pub fn from_env() -> Option<FaultSpec> {
        let raw = std::env::var("AUTOSUGGEST_FAULTS").ok()?;
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            return None;
        }
        match FaultSpec::parse(trimmed) {
            Ok(spec) => Some(spec),
            Err(e) => panic!("invalid AUTOSUGGEST_FAULTS={raw:?}: {e}"),
        }
    }

    /// Canonical textual form (stable across parse order).
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = self
            .rates
            .iter()
            .filter(|(_, r)| *r > 0.0)
            .map(|(k, r)| format!("{}={r}", k.as_str()))
            .collect();
        parts.push(format!("seed={}", self.seed));
        parts.push(format!("transient={}", self.transient));
        parts.join(",")
    }

    /// Total per-cell injection probability.
    pub fn total_rate(&self) -> f64 {
        self.rates.iter().map(|(_, r)| r).sum()
    }

    /// Decide whether executing `(notebook, cell)` faults on this attempt.
    ///
    /// The *targeting* roll ignores `round`/`attempt`, so whether a cell is
    /// fault-prone is a stable property of the cell; the *transience* roll
    /// decides whether the fault clears once any retry (cell-level
    /// `attempt` or notebook-level `round`) happens. Pure function of its
    /// arguments — the determinism contract depends on it.
    pub fn fault_for(
        &self,
        notebook_id: &str,
        cell_index: usize,
        round: usize,
        attempt: usize,
    ) -> Option<FaultKind> {
        let target = unit_roll(self.seed, notebook_id, cell_index as u64, 0);
        let mut cumulative = 0.0;
        let mut chosen = None;
        for (kind, rate) in &self.rates {
            cumulative += rate;
            if target < cumulative {
                chosen = Some(*kind);
                break;
            }
        }
        let kind = chosen?;
        let is_transient = unit_roll(self.seed, notebook_id, cell_index as u64, 1) < self.transient;
        if is_transient && (round > 0 || attempt > 0) {
            return None; // transient fault cleared by the retry
        }
        Some(kind)
    }
}

fn parse_rate(key: &str, value: &str) -> Result<f64, String> {
    let rate: f64 = value
        .parse()
        .map_err(|_| format!("{key} rate {value:?} is not a number"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("{key} rate {rate} outside [0, 1]"));
    }
    Ok(rate)
}

/// splitmix64 — the same stable mixer the corpus generator uses for
/// per-notebook seed derivation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash `(seed, name, a, b)` into a uniform f64 in `[0, 1)`.
fn unit_roll(seed: u64, name: &str, a: u64, b: u64) -> f64 {
    let mut h = splitmix64(seed ^ 0xD6E8_FEB8_6659_FD93);
    for byte in name.bytes() {
        h = splitmix64(h ^ u64::from(byte));
    }
    h = splitmix64(h ^ a.wrapping_mul(0x2545_F491_4F6C_DD1D));
    h = splitmix64(h ^ b);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Per-error-kind robustness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounters {
    /// Fault events injected (all rounds and attempts).
    pub injected: usize,
    /// Notebooks whose replay ended a round failed with this kind.
    pub failures: usize,
    /// Notebook-level retry attempts performed for this kind.
    pub retries: usize,
    /// Notebooks that failed with this kind, then succeeded on retry.
    pub recovered: usize,
    /// Notebooks still failing with this kind after the final round.
    pub quarantined: usize,
}

/// Aggregate robustness accounting for one corpus replay; the same
/// counters reach the `replay.*` entries of a `repro --trace` document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RobustnessStats {
    /// Canonical fault spec, when injection was active.
    pub fault_spec: Option<String>,
    pub notebooks: usize,
    /// Notebooks that failed the first replay pass (any kind).
    pub failed_first_pass: usize,
    /// Notebooks that entered quarantine and were retried at least once.
    pub retried_notebooks: usize,
    /// Retried notebooks that eventually replayed successfully.
    pub recovered_notebooks: usize,
    /// Notebooks still failing a retryable kind after the final round.
    pub quarantined_notebooks: usize,
    /// Cell-level retry attempts across all reports (package installs,
    /// file recoveries, panic retries).
    pub cell_retries: usize,
    pub io_path: KindCounters,
    pub missing_package: KindCounters,
    pub schema_mismatch: KindCounters,
    pub operator_panic: KindCounters,
    pub timeout: KindCounters,
}

impl RobustnessStats {
    pub fn kind(&self, kind: ReplayErrorKind) -> &KindCounters {
        match kind {
            ReplayErrorKind::IoPath => &self.io_path,
            ReplayErrorKind::MissingPackage => &self.missing_package,
            ReplayErrorKind::SchemaMismatch => &self.schema_mismatch,
            ReplayErrorKind::OperatorPanic => &self.operator_panic,
            ReplayErrorKind::Timeout => &self.timeout,
        }
    }

    pub fn kind_mut(&mut self, kind: ReplayErrorKind) -> &mut KindCounters {
        match kind {
            ReplayErrorKind::IoPath => &mut self.io_path,
            ReplayErrorKind::MissingPackage => &mut self.missing_package,
            ReplayErrorKind::SchemaMismatch => &mut self.schema_mismatch,
            ReplayErrorKind::OperatorPanic => &mut self.operator_panic,
            ReplayErrorKind::Timeout => &mut self.timeout,
        }
    }

    /// Total injected fault events across kinds.
    pub fn total_injected(&self) -> usize {
        ReplayErrorKind::ALL.iter().map(|&k| self.kind(k).injected).sum()
    }

    /// Fold another replay's accounting into this one. Every counter is
    /// additive, so merging per-shard stats in shard order reproduces the
    /// single full-corpus sweep exactly; `fault_spec` keeps the first
    /// non-`None` spec seen (all shards of one run share a spec).
    pub fn merge_from(&mut self, other: &RobustnessStats) {
        if self.fault_spec.is_none() {
            self.fault_spec = other.fault_spec.clone();
        }
        self.notebooks += other.notebooks;
        self.failed_first_pass += other.failed_first_pass;
        self.retried_notebooks += other.retried_notebooks;
        self.recovered_notebooks += other.recovered_notebooks;
        self.quarantined_notebooks += other.quarantined_notebooks;
        self.cell_retries += other.cell_retries;
        for kind in ReplayErrorKind::ALL {
            let src = *other.kind(kind);
            let dst = self.kind_mut(kind);
            dst.injected += src.injected;
            dst.failures += src.failures;
            dst.retries += src.retries;
            dst.recovered += src.recovered;
            dst.quarantined += src.quarantined;
        }
    }

    /// Fold these stats into the active obs registry under
    /// `replay.faults.{kind}.{field}` (nonzero fields only, so clean
    /// runs stay noise-free) plus the notebook-level totals. Called once
    /// per `replay_corpus` sweep, after all rounds complete, so the
    /// counters are a pure function of the workload and fault spec.
    pub fn record_obs(&self) {
        obs::counter_add("replay.notebooks", self.notebooks as u64);
        let totals: [(&str, usize); 5] = [
            ("replay.failed_first_pass", self.failed_first_pass),
            ("replay.retried_notebooks", self.retried_notebooks),
            ("replay.recovered_notebooks", self.recovered_notebooks),
            ("replay.quarantined_notebooks", self.quarantined_notebooks),
            ("replay.cell_retries", self.cell_retries),
        ];
        for (name, v) in totals {
            if v > 0 {
                obs::counter_add(name, v as u64);
            }
        }
        for &kind in &ReplayErrorKind::ALL {
            let c = self.kind(kind);
            let fields: [(&str, usize); 5] = [
                ("injected", c.injected),
                ("failures", c.failures),
                ("retries", c.retries),
                ("recovered", c.recovered),
                ("quarantined", c.quarantined),
            ];
            for (field, v) in fields {
                if v > 0 {
                    obs::counter_add(
                        &format!("replay.faults.{}.{field}", kind.as_str()),
                        v as u64,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_and_canonicalises() {
        let spec = FaultSpec::parse("io=0.1, panic = 0.05; seed=9,transient=0.25").unwrap();
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.transient, 0.25);
        assert_eq!(
            spec.rates,
            vec![(FaultKind::Panic, 0.05), (FaultKind::Io, 0.1)],
            "rates are sorted into canonical kind order"
        );
        assert_eq!(spec.render(), "panic=0.05,io=0.1,seed=9,transient=0.25");
        assert!((spec.total_rate() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultSpec::parse("bogus=0.1").is_err());
        assert!(FaultSpec::parse("panic").is_err());
        assert!(FaultSpec::parse("panic=2.0").is_err());
        assert!(FaultSpec::parse("panic=0.7,io=0.7").is_err());
        assert!(FaultSpec::parse("seed=x").is_err());
    }

    #[test]
    fn decisions_are_deterministic_and_rate_accurate() {
        let spec = FaultSpec::parse("panic=0.1,io=0.1,timeout=0.1,seed=3").unwrap();
        let mut hits = 0usize;
        let n = 4000usize;
        for i in 0..n {
            let nb = format!("nb-{i:05}");
            let a = spec.fault_for(&nb, i % 7, 0, 0);
            let b = spec.fault_for(&nb, i % 7, 0, 0);
            assert_eq!(a, b, "same inputs must give the same decision");
            if a.is_some() {
                hits += 1;
            }
        }
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.05, "empirical rate {rate} far from 0.3");
    }

    #[test]
    fn transient_faults_clear_on_retry_and_persistent_ones_do_not() {
        let spec = FaultSpec::parse("timeout=0.5,seed=1,transient=0.5").unwrap();
        let mut saw_transient = false;
        let mut saw_persistent = false;
        for i in 0..200 {
            let nb = format!("nb-{i:03}");
            if spec.fault_for(&nb, 0, 0, 0).is_some() {
                let retried = spec.fault_for(&nb, 0, 1, 0);
                let attempted = spec.fault_for(&nb, 0, 0, 1);
                assert_eq!(retried, attempted, "round and attempt salts agree");
                if retried.is_none() {
                    saw_transient = true;
                } else {
                    saw_persistent = true;
                }
            }
        }
        assert!(saw_transient && saw_persistent);
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let a = FaultSpec::parse("io=0.2,seed=1").unwrap();
        let b = FaultSpec::parse("io=0.2,seed=2").unwrap();
        let differs = (0..200).any(|i| {
            let nb = format!("nb-{i:03}");
            a.fault_for(&nb, 0, 0, 0) != b.fault_for(&nb, 0, 0, 0)
        });
        assert!(differs);
    }

    #[test]
    fn stats_kind_accessors_cover_all_kinds() {
        let mut stats = RobustnessStats::default();
        for (i, &k) in ReplayErrorKind::ALL.iter().enumerate() {
            stats.kind_mut(k).injected = i + 1;
        }
        for (i, &k) in ReplayErrorKind::ALL.iter().enumerate() {
            assert_eq!(stats.kind(k).injected, i + 1);
        }
        assert_eq!(stats.total_injected(), 1 + 2 + 3 + 4 + 5);
    }
}
