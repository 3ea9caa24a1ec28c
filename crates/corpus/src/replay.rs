//! The replay engine (§3.2): execute notebooks cell-by-cell, repair
//! missing files and packages, and instrument every operator invocation.
//!
//! Failures are classified into the [`ReplayError`] taxonomy and handled
//! per kind: missing packages are installed, missing files are resolved,
//! panics are caught (`catch_unwind`) and retried with a bound, timeouts
//! and unresolvable paths fail the notebook but remain eligible for
//! notebook-level quarantine retry in [`ReplayEngine::replay_corpus`].
//! Seeded faults ([`FaultSpec`]) can be injected into cell execution to
//! exercise every one of those paths deterministically.

use crate::datasets::{extract_urls, DatasetRepository};
use crate::error::{ReplayError, ReplayErrorKind};
use crate::faults::{FaultKind, FaultSpec, RobustnessStats};
use crate::flowgraph::{FlowGraph, OpKind};
use crate::lang::{expr_inputs, Expr, FillValue, Stmt};
use crate::notebook::Notebook;
use autosuggest_dataframe::ops::{self, Agg, DropHow, JoinType};
use autosuggest_dataframe::{io, DataFrame, Value};
use autosuggest_obs as obs;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Full parameterisation of one operator call — explicit arguments plus the
/// implicit defaults Pandas would fill in, which the paper logs too ("8
/// implicit parameters that use default values").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OpParams {
    Merge {
        left_on: Vec<String>,
        right_on: Vec<String>,
        how: JoinType,
        // Implicit defaults (constant under our replay, logged for fidelity).
        suffixes: (String, String),
        sort: bool,
        indicator: bool,
    },
    GroupBy {
        keys: Vec<String>,
        aggs: Vec<(String, Agg)>,
        sort: bool,
        dropna: bool,
    },
    Pivot {
        index: Vec<String>,
        header: Vec<String>,
        values: String,
        agg: Agg,
        fill_value: Option<f64>,
        margins: bool,
    },
    Melt {
        id_vars: Vec<String>,
        value_vars: Vec<String>,
        var_name: String,
        value_name: String,
    },
    Concat {
        num_frames: usize,
        axis: u8,
        ignore_index: bool,
    },
    DropNa {
        how_all: bool,
        subset: Option<Vec<String>>,
    },
    FillNa {
        value: String,
    },
    JsonNormalize {
        record_path: Option<Vec<String>>,
    },
}

/// One instrumented operator invocation: the paper's unit of training data.
/// Carries full input tables, all parameters, and output identity. Input
/// tables are shared, not copied: every invocation that read the same
/// bound variable holds the same `Arc`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpInvocation {
    pub notebook_id: String,
    pub dataset_group: String,
    pub cell_index: usize,
    pub op: OpKind,
    /// The input frames, in call order.
    pub inputs: Vec<Arc<DataFrame>>,
    pub params: OpParams,
    pub input_hashes: Vec<u64>,
    pub output_hash: u64,
    pub output_rows: usize,
    pub output_cols: usize,
}

/// Why a cell (and hence its notebook) failed to replay.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplayOutcome {
    Success,
    /// A data file could not be resolved by any repair strategy.
    MissingFile(String),
    /// An imported package is absent and not installable.
    MissingPackage(String),
    /// The cell exceeded the execution budget (the paper's 5-minute
    /// timeout, modelled as a row-processing budget).
    Timeout,
    /// The operator itself failed (schema mismatch etc.).
    ExecutionError(String),
    /// A panic escaped an operator and retries did not clear it.
    OperatorPanic(String),
}

impl ReplayOutcome {
    /// The error kind behind a failed outcome (`None` for `Success`).
    pub fn failure_kind(&self) -> Option<ReplayErrorKind> {
        match self {
            ReplayOutcome::Success => None,
            ReplayOutcome::MissingFile(_) => Some(ReplayErrorKind::IoPath),
            ReplayOutcome::MissingPackage(_) => Some(ReplayErrorKind::MissingPackage),
            ReplayOutcome::Timeout => Some(ReplayErrorKind::Timeout),
            ReplayOutcome::ExecutionError(_) => Some(ReplayErrorKind::SchemaMismatch),
            ReplayOutcome::OperatorPanic(_) => Some(ReplayErrorKind::OperatorPanic),
        }
    }

    /// Map a terminal [`ReplayError`] to the notebook outcome.
    pub fn from_error(err: ReplayError) -> ReplayOutcome {
        match err.kind {
            ReplayErrorKind::IoPath => {
                ReplayOutcome::MissingFile(err.subject.unwrap_or(err.message))
            }
            ReplayErrorKind::MissingPackage => {
                ReplayOutcome::MissingPackage(err.subject.unwrap_or(err.message))
            }
            ReplayErrorKind::Timeout => ReplayOutcome::Timeout,
            ReplayErrorKind::SchemaMismatch => ReplayOutcome::ExecutionError(err.message),
            ReplayErrorKind::OperatorPanic => ReplayOutcome::OperatorPanic(err.message),
        }
    }
}

/// The replay result for one notebook.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayReport {
    pub notebook_id: String,
    pub dataset_group: String,
    pub outcome: ReplayOutcome,
    /// Cells successfully executed before failure (== all cells on success).
    pub cells_executed: usize,
    /// Instrumented invocations from successfully executed cells.
    pub invocations: Vec<OpInvocation>,
    pub flow: FlowGraph,
    /// Packages installed on demand while replaying.
    pub packages_installed: Vec<String>,
    /// Files recovered via basename search / URLs / the dataset API.
    pub files_recovered: Vec<String>,
    /// Cell-level retry attempts performed (installs, recoveries, panic
    /// retries) during this replay.
    pub cell_retries: usize,
    /// Kinds of the faults injected into this replay, in injection order
    /// (empty when no fault spec is active).
    pub injected_faults: Vec<ReplayErrorKind>,
}

/// Engine configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayConfig {
    /// Total rows an operator may process per cell before the simulated
    /// timeout fires.
    pub cell_row_budget: usize,
    /// Maximum repair-and-retry attempts per cell.
    pub max_retries: usize,
    /// Total notebook-level replay rounds in [`ReplayEngine::replay_corpus`]
    /// (first pass + quarantine retries). 3 → up to two retries per
    /// quarantined notebook.
    pub max_notebook_rounds: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig { cell_row_budget: 2_000_000, max_retries: 8, max_notebook_rounds: 3 }
    }
}

/// The replay engine: holds the package registry (what `pip install` can
/// see) and the external dataset repository.
pub struct ReplayEngine {
    config: ReplayConfig,
    /// Packages `pip install` can resolve.
    pub package_registry: HashSet<String>,
    /// Packages pre-installed in the base environment, shared with every
    /// replay round's environment.
    pub preinstalled: Arc<HashSet<String>>,
    pub repository: DatasetRepository,
    /// Active fault-injection plan, if any.
    faults: Option<FaultSpec>,
}

impl ReplayEngine {
    pub fn new(repository: DatasetRepository) -> Self {
        let preinstalled: Arc<HashSet<String>> =
            Arc::new(["pandas", "numpy", "json"].iter().map(|s| s.to_string()).collect());
        let package_registry: HashSet<String> = [
            "pandas", "numpy", "json", "matplotlib", "seaborn", "sklearn",
            "scipy", "statsmodels", "xgboost",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        ReplayEngine {
            config: ReplayConfig::default(),
            package_registry,
            preinstalled,
            repository,
            faults: None,
        }
    }

    pub fn with_config(mut self, config: ReplayConfig) -> Self {
        self.config = config;
        self
    }

    /// Enable (or disable) deterministic fault injection.
    pub fn with_faults(mut self, faults: Option<FaultSpec>) -> Self {
        if faults.is_some() {
            silence_injected_panic_reports();
        }
        self.faults = faults;
        self
    }

    pub fn config(&self) -> &ReplayConfig {
        &self.config
    }

    pub fn faults(&self) -> Option<&FaultSpec> {
        self.faults.as_ref()
    }

    /// Replay one notebook end to end (quarantine round 0).
    pub fn replay(&self, nb: &Notebook) -> ReplayReport {
        self.replay_round(nb, 0)
    }

    /// Replay one notebook in a given quarantine `round` (the round salts
    /// fault-injection decisions so transient faults can clear on retry).
    ///
    /// Instrumented: opens a `nb:{id}` span (cell spans nest inside),
    /// records wall-clock into the `replay.notebook_seconds` histogram,
    /// and counts executed cells and logged invocations.
    pub fn replay_round(&self, nb: &Notebook, round: usize) -> ReplayReport {
        let _nb_span = obs::span(&format!("nb:{}", nb.id));
        let started = std::time::Instant::now();
        let report = self.replay_round_inner(nb, round);
        obs::observe_since("replay.notebook_seconds", started);
        obs::counter_add("replay.cells_executed", report.cells_executed as u64);
        obs::counter_add("replay.op_invocations", report.invocations.len() as u64);
        report
    }

    /// A round's starting environment: no variables, and the engine's
    /// packages and the notebook's files shared, not copied.
    fn round_env(&self, nb: &Notebook) -> Env {
        Env {
            vars: HashMap::new(),
            installed: Arc::clone(&self.preinstalled),
            files: Arc::clone(&nb.repo_files),
        }
    }

    fn replay_round_inner(&self, nb: &Notebook, round: usize) -> ReplayReport {
        let mut env = self.round_env(nb);
        let mut report = ReplayReport {
            notebook_id: nb.id.clone(),
            dataset_group: nb.dataset_group.clone(),
            outcome: ReplayOutcome::Success,
            cells_executed: 0,
            invocations: Vec::new(),
            flow: FlowGraph::new(),
            packages_installed: Vec::new(),
            files_recovered: Vec::new(),
            cell_retries: 0,
            injected_faults: Vec::new(),
        };

        for (cell_idx, _cell) in nb.cells.iter().enumerate() {
            let _cell_span = obs::span(&format!("cell{cell_idx}"));
            let mut attempts = 0;
            loop {
                attempts += 1;
                // Each attempt runs against a snapshot so failed partial
                // execution does not leak state or log spurious invocations.
                // The snapshot shares every frame and file with `env`.
                let mut trial_env = env.clone();
                let mut trial_log: Vec<OpInvocation> = Vec::new();
                let mut trial_flow: Vec<(OpKind, Vec<u64>, u64)> = Vec::new();
                let mut budget = self.config.cell_row_budget;
                let mut trial = CellTrial {
                    env: &mut trial_env,
                    log: &mut trial_log,
                    flow: &mut trial_flow,
                    budget: &mut budget,
                    injected: &mut report.injected_faults,
                    round,
                    attempt: attempts - 1,
                };

                // A panic anywhere inside the cell (planted operator bug or
                // injected fault) is caught here and classified, so no
                // notebook can take its batch down. The trial state is
                // discarded on failure, so a mid-cell unwind cannot leak
                // partial execution (`AssertUnwindSafe` is sound for it).
                let result = catch_unwind(AssertUnwindSafe(|| {
                    self.run_cell(nb, cell_idx, &mut trial)
                }))
                .unwrap_or_else(|payload| {
                    Err(ReplayError::operator_panic(autosuggest_parallel::panic_message(
                        payload.as_ref(),
                    )))
                });
                let mut err = match result {
                    Ok(()) => {
                        env = trial_env;
                        report.invocations.extend(trial_log);
                        for (op, ins, out) in trial_flow {
                            report.flow.record(op, ins, out);
                        }
                        report.cells_executed += 1;
                        break;
                    }
                    Err(err) => err,
                };
                if attempts > self.config.max_retries {
                    err.message = format!("retries exhausted: {}", err.message);
                    report.outcome = ReplayOutcome::from_error(err);
                    return report;
                }
                // Release the snapshot first, so a repair below writes to
                // `env`'s packages or files without copying them.
                drop(trial_env);
                // §3.2: classify the failure and attempt repair.
                match err.kind {
                    ReplayErrorKind::MissingPackage => {
                        let pkg = err
                            .package_name()
                            .unwrap_or("unknown-package")
                            .to_string();
                        if self.package_registry.contains(&pkg) {
                            Arc::make_mut(&mut env.installed).insert(pkg.clone());
                            report.packages_installed.push(pkg);
                            report.cell_retries += 1;
                            continue;
                        }
                        report.outcome = ReplayOutcome::MissingPackage(pkg);
                        return report;
                    }
                    ReplayErrorKind::IoPath => {
                        let path = err
                            .missing_path()
                            .unwrap_or("unknown-path")
                            .to_string();
                        match self.resolve_file(&path, nb, cell_idx, &env) {
                            Some((resolved_name, content)) => {
                                Arc::make_mut(&mut env.files)
                                    .insert(resolved_name.clone(), content);
                                report.files_recovered.push(resolved_name);
                                report.cell_retries += 1;
                                continue;
                            }
                            None => {
                                report.outcome = ReplayOutcome::MissingFile(path);
                                return report;
                            }
                        }
                    }
                    ReplayErrorKind::OperatorPanic => {
                        // Panics are often environmental; retry the
                        // cell within the attempt bound.
                        report.cell_retries += 1;
                        continue;
                    }
                    ReplayErrorKind::Timeout | ReplayErrorKind::SchemaMismatch => {
                        report.outcome = ReplayOutcome::from_error(err);
                        return report;
                    }
                }
            }
        }
        report
    }

    /// Replay a whole corpus with panic-isolated fan-out and
    /// quarantine-with-bounded-retry.
    ///
    /// First pass replays every notebook across the pool; notebooks that
    /// fail with a retryable kind ([`ReplayErrorKind::retryable`]) are
    /// quarantined and retried in later rounds (up to
    /// `max_notebook_rounds - 1` retries), with per-kind accounting.
    /// Reports come back in notebook order, bit-identical at any thread
    /// count.
    pub fn replay_corpus(&self, notebooks: &[Notebook]) -> (Vec<ReplayReport>, RobustnessStats) {
        let pool = autosuggest_parallel::Pool::global();
        let mut stats = RobustnessStats {
            fault_spec: self.faults.as_ref().map(FaultSpec::render),
            notebooks: notebooks.len(),
            ..Default::default()
        };

        let run_round = |idx: &[usize], round: usize| -> Vec<ReplayReport> {
            let firsts: Vec<Result<ReplayReport, ReplayError>> =
                pool.par_try_map(idx, |&i| Ok(self.replay_round(&notebooks[i], round)));
            firsts
                .into_iter()
                .zip(idx)
                .map(|(res, &i)| {
                    // A panic that escapes even the engine's own isolation
                    // (impossible barring engine bugs) still degrades to a
                    // per-notebook failure instead of aborting the batch.
                    res.unwrap_or_else(|err| failed_report(&notebooks[i], err))
                })
                .collect()
        };

        let all: Vec<usize> = (0..notebooks.len()).collect();
        let mut reports = run_round(&all, 0);
        for r in &reports {
            stats.cell_retries += r.cell_retries;
            for &k in &r.injected_faults {
                stats.kind_mut(k).injected += 1;
            }
            if let Some(kind) = r.outcome.failure_kind() {
                stats.failed_first_pass += 1;
                stats.kind_mut(kind).failures += 1;
            }
        }

        let mut entered_quarantine: HashSet<usize> = HashSet::new();
        for round in 1..self.config.max_notebook_rounds.max(1) {
            let retry_idx: Vec<usize> = reports
                .iter()
                .enumerate()
                .filter(|(_, r)| {
                    r.outcome.failure_kind().is_some_and(|k| k.retryable())
                })
                .map(|(i, _)| i)
                .collect();
            if retry_idx.is_empty() {
                break;
            }
            let retried = run_round(&retry_idx, round);
            for (&i, new_report) in retry_idx.iter().zip(retried) {
                let old_kind = reports[i]
                    .outcome
                    .failure_kind()
                    .unwrap_or(ReplayErrorKind::OperatorPanic);
                if entered_quarantine.insert(i) {
                    stats.retried_notebooks += 1;
                }
                stats.kind_mut(old_kind).retries += 1;
                stats.cell_retries += new_report.cell_retries;
                for &k in &new_report.injected_faults {
                    stats.kind_mut(k).injected += 1;
                }
                if new_report.outcome == ReplayOutcome::Success {
                    stats.recovered_notebooks += 1;
                    stats.kind_mut(old_kind).recovered += 1;
                }
                reports[i] = new_report;
            }
        }

        for r in &reports {
            if let Some(kind) = r.outcome.failure_kind() {
                if kind.retryable() {
                    stats.quarantined_notebooks += 1;
                    stats.kind_mut(kind).quarantined += 1;
                }
            }
        }
        stats.record_obs();
        (reports, stats)
    }

    /// Resolve a missing data file with the paper's three strategies:
    /// (1) basename search in the repository, (2) URLs in adjacent
    /// markdown, (3) the Kaggle-style dataset API.
    fn resolve_file(
        &self,
        path: &str,
        nb: &Notebook,
        cell_idx: usize,
        env: &Env,
    ) -> Option<(String, String)> {
        let target = basename(path);
        // (1) Search the repo by file name, ignoring the bogus directory.
        let mut repo_paths: Vec<&String> = env.files.keys().collect();
        repo_paths.sort();
        for p in repo_paths {
            if basename(p) == target {
                return Some((path.to_string(), env.files[p].clone()));
            }
        }
        // (2) URLs in markdown adjacent to the failing cell.
        for probe in [cell_idx, cell_idx.saturating_sub(1)] {
            if let Some(md) = nb.cells.get(probe).and_then(|c| c.markdown.as_ref()) {
                for url in extract_urls(md) {
                    if let Some(content) = self.repository.fetch_url(url) {
                        return Some((path.to_string(), content.to_string()));
                    }
                }
            }
        }
        // (3) Kaggle dataset API by basename.
        self.repository
            .find_file_by_name(&target)
            .map(|content| (path.to_string(), content.to_string()))
    }

    fn run_cell(
        &self,
        nb: &Notebook,
        cell_idx: usize,
        trial: &mut CellTrial<'_>,
    ) -> Result<(), ReplayError> {
        if let Some(spec) = &self.faults {
            if let Some(kind) = spec.fault_for(&nb.id, cell_idx, trial.round, trial.attempt) {
                trial.injected.push(kind.error_kind());
                match kind {
                    FaultKind::Panic => {
                        panic!("{INJECTED_PANIC_MARKER} operator panic in cell {cell_idx}")
                    }
                    FaultKind::Io => {
                        return Err(ReplayError::io_path(format!(
                            "injected://{}/cell{cell_idx}.csv",
                            nb.id
                        )))
                    }
                    FaultKind::Timeout => return Err(ReplayError::timeout()),
                    FaultKind::Package => {
                        return Err(ReplayError::missing_package("autosuggest_injected_pkg"))
                    }
                    FaultKind::Schema => {
                        return Err(ReplayError::schema("KeyError: 'injected_fault_column'"))
                    }
                }
            }
        }

        let cell = &nb.cells[cell_idx];
        for stmt in &cell.ast {
            match stmt {
                Stmt::Import { package } => {
                    if !trial.env.installed.contains(package) {
                        return Err(ReplayError::missing_package(package));
                    }
                }
                Stmt::Assign { var, expr } => {
                    let bound = self.eval(nb, cell_idx, expr, trial)?;
                    trial.env.vars.insert(var.clone(), bound);
                }
                Stmt::Inspect { expr } => {
                    self.eval(nb, cell_idx, expr, trial)?;
                }
            }
        }
        Ok(())
    }

    fn eval(
        &self,
        nb: &Notebook,
        cell_idx: usize,
        expr: &Expr,
        trial: &mut CellTrial<'_>,
    ) -> Result<Bound, ReplayError> {
        // Gather input frames first (shared error for unknown variables).
        let names = expr_inputs(expr);
        let mut bound_inputs: Vec<Bound> = Vec::new();
        for &v in &names {
            match trial.env.vars.get(v) {
                Some(b) => bound_inputs.push(b.clone()),
                None => {
                    return Err(ReplayError::schema(format!(
                        "NameError: name '{v}' is not defined"
                    )))
                }
            }
        }
        let inputs: Vec<&DataFrame> = bound_inputs.iter().map(|b| &*b.frame).collect();
        let in_rows: usize = inputs.iter().map(|f| f.num_rows()).sum();
        if in_rows > *trial.budget {
            return Err(ReplayError::timeout());
        }
        *trial.budget -= in_rows;

        let (op, params, output): (Option<OpKind>, Option<OpParams>, DataFrame) = match expr {
            Expr::ReadCsv { path } => {
                let content = trial
                    .env
                    .files
                    .get(path)
                    .ok_or_else(|| ReplayError::io_path(path.clone()))?;
                let df = io::read_csv_str(content).map_err(schema_err)?;
                (None, None, df)
            }
            Expr::JsonNormalize { path, record_path } => {
                let content = trial
                    .env
                    .files
                    .get(path)
                    .ok_or_else(|| ReplayError::io_path(path.clone()))?;
                let doc: serde_json::Value =
                    serde_json::from_str(content).map_err(schema_err)?;
                let rp: Option<Vec<&str>> = record_path
                    .as_ref()
                    .map(|p| p.iter().map(String::as_str).collect());
                let df = ops::json_normalize(&doc, rp.as_deref())
                    .map_err(schema_err)?;
                (
                    Some(OpKind::JsonNormalize),
                    Some(OpParams::JsonNormalize { record_path: record_path.clone() }),
                    df,
                )
            }
            Expr::Merge { left_on, right_on, how, .. } => {
                let lo: Vec<&str> = left_on.iter().map(String::as_str).collect();
                let ro: Vec<&str> = right_on.iter().map(String::as_str).collect();
                let df = ops::merge(inputs[0], inputs[1], &lo, &ro, *how)
                    .map_err(schema_err)?;
                (
                    Some(OpKind::Merge),
                    Some(OpParams::Merge {
                        left_on: left_on.clone(),
                        right_on: right_on.clone(),
                        how: *how,
                        suffixes: ("_x".into(), "_y".into()),
                        sort: false,
                        indicator: false,
                    }),
                    df,
                )
            }
            Expr::GroupBy { keys, aggs, .. } => {
                let k: Vec<&str> = keys.iter().map(String::as_str).collect();
                let a: Vec<(&str, Agg)> =
                    aggs.iter().map(|(c, g)| (c.as_str(), *g)).collect();
                let df = ops::groupby(inputs[0], &k, &a).map_err(schema_err)?;
                (
                    Some(OpKind::GroupBy),
                    Some(OpParams::GroupBy {
                        keys: keys.clone(),
                        aggs: aggs.clone(),
                        sort: false,
                        dropna: true,
                    }),
                    df,
                )
            }
            Expr::Pivot { index, header, values, agg, .. } => {
                let i: Vec<&str> = index.iter().map(String::as_str).collect();
                let h: Vec<&str> = header.iter().map(String::as_str).collect();
                let df = ops::pivot_table(inputs[0], &i, &h, values, *agg)
                    .map_err(schema_err)?;
                (
                    Some(OpKind::Pivot),
                    Some(OpParams::Pivot {
                        index: index.clone(),
                        header: header.clone(),
                        values: values.clone(),
                        agg: *agg,
                        fill_value: None,
                        margins: false,
                    }),
                    df,
                )
            }
            Expr::Melt { id_vars, value_vars, var_name, value_name, .. } => {
                let iv: Vec<&str> = id_vars.iter().map(String::as_str).collect();
                let vv: Vec<&str> = value_vars.iter().map(String::as_str).collect();
                let df = ops::melt(inputs[0], &iv, &vv, var_name, value_name)
                    .map_err(schema_err)?;
                (
                    Some(OpKind::Melt),
                    Some(OpParams::Melt {
                        id_vars: id_vars.clone(),
                        value_vars: value_vars.clone(),
                        var_name: var_name.clone(),
                        value_name: value_name.clone(),
                    }),
                    df,
                )
            }
            Expr::Concat { frames } => {
                let df = ops::concat(&inputs).map_err(schema_err)?;
                (
                    Some(OpKind::Concat),
                    Some(OpParams::Concat {
                        num_frames: frames.len(),
                        axis: 0,
                        ignore_index: true,
                    }),
                    df,
                )
            }
            Expr::DropNa { how_all, subset, .. } => {
                let how = if *how_all { DropHow::All } else { DropHow::Any };
                let sub: Option<Vec<&str>> =
                    subset.as_ref().map(|s| s.iter().map(String::as_str).collect());
                let df = ops::dropna(inputs[0], how, sub.as_deref())
                    .map_err(schema_err)?;
                (
                    Some(OpKind::DropNa),
                    Some(OpParams::DropNa { how_all: *how_all, subset: subset.clone() }),
                    df,
                )
            }
            Expr::FillNa { value, .. } => {
                let v = match value {
                    FillValue::Int(i) => Value::Int(*i),
                    FillValue::Float(f) => Value::Float(*f),
                    FillValue::Str(s) => Value::Str(s.clone()),
                };
                let df =
                    ops::fillna_all(inputs[0], &v).map_err(schema_err)?;
                (
                    Some(OpKind::FillNa),
                    Some(OpParams::FillNa { value: v.to_string() }),
                    df,
                )
            }
            // Rebinding shares the frame and its hash; nothing is logged.
            Expr::Var(_) => return Ok(bound_inputs.swap_remove(0)),
        };
        let output = Arc::new(output);

        let (Some(op), Some(params)) = (op, params) else {
            return Ok(Bound { frame: output, hash: None });
        };
        // Each frame is hashed once: an input produced by an earlier op
        // carries that op's output hash, and a read frame keeps the hash
        // its first reader computes.
        let input_hashes: Vec<u64> = bound_inputs.iter().map(Bound::content_hash).collect();
        for (name, &hash) in names.iter().zip(&input_hashes) {
            if let Some(slot) = trial.env.vars.get_mut(*name) {
                slot.hash = Some(hash);
            }
        }
        let output_hash = output.content_hash();
        trial.flow.push((op, input_hashes.clone(), output_hash));
        trial.log.push(OpInvocation {
            notebook_id: nb.id.clone(),
            dataset_group: nb.dataset_group.clone(),
            cell_index: cell_idx,
            op,
            inputs: bound_inputs.into_iter().map(|b| b.frame).collect(),
            params,
            input_hashes,
            output_hash,
            output_rows: output.num_rows(),
            output_cols: output.num_columns(),
        });
        Ok(Bound { frame: output, hash: Some(output_hash) })
    }
}

/// A frame bound to a variable, with its content hash once computed.
#[derive(Clone)]
struct Bound {
    frame: Arc<DataFrame>,
    hash: Option<u64>,
}

impl Bound {
    fn content_hash(&self) -> u64 {
        self.hash.unwrap_or_else(|| self.frame.content_hash())
    }
}

/// Environment state threaded through cell execution. Cloning it (once per
/// cell attempt) copies only the variable names; frames, packages and
/// files are shared, and the two repair paths write through
/// `Arc::make_mut`.
#[derive(Clone)]
struct Env {
    vars: HashMap<String, Bound>,
    installed: Arc<HashSet<String>>,
    /// Resolvable file paths → contents (repo clone + recovered downloads).
    files: Arc<HashMap<String, String>>,
}

/// One attempt at executing a cell: the snapshotted state it mutates plus
/// the (round, attempt) coordinates that salt fault-injection decisions.
struct CellTrial<'a> {
    env: &'a mut Env,
    log: &'a mut Vec<OpInvocation>,
    flow: &'a mut Vec<(OpKind, Vec<u64>, u64)>,
    budget: &'a mut usize,
    injected: &'a mut Vec<ReplayErrorKind>,
    round: usize,
    attempt: usize,
}

/// Dataframe-operator failures are schema/data problems by construction.
fn schema_err(e: impl std::fmt::Display) -> ReplayError {
    ReplayError::schema(e.to_string())
}

/// Marker carried by every injected panic payload (see `run_cell`).
const INJECTED_PANIC_MARKER: &str = "injected fault:";

/// Injected panics are caught and classified a few frames up, so the
/// default panic hook's stderr report is pure noise — hundreds of lines in
/// a fault-injection sweep. Chain a hook that drops reports for payloads
/// carrying the injection marker and forwards everything else untouched.
fn silence_injected_panic_reports() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains(INJECTED_PANIC_MARKER));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Build the stand-in report for a notebook whose replay task itself
/// failed (e.g. a panic escaping even the engine's own isolation).
fn failed_report(nb: &Notebook, err: ReplayError) -> ReplayReport {
    ReplayReport {
        notebook_id: nb.id.clone(),
        dataset_group: nb.dataset_group.clone(),
        outcome: ReplayOutcome::from_error(err),
        cells_executed: 0,
        invocations: Vec::new(),
        flow: FlowGraph::new(),
        packages_installed: Vec::new(),
        files_recovered: Vec::new(),
        cell_retries: 0,
        injected_faults: Vec::new(),
    }
}

/// Parse `ModuleNotFoundError: No module named 'pkg'`.
pub fn parse_missing_package(err: &str) -> Option<String> {
    let marker = "No module named '";
    let start = err.find(marker)? + marker.len();
    let rest = &err[start..];
    let end = rest.find('\'')?;
    Some(rest[..end].to_string())
}

/// Parse `FileNotFoundError: No such file: 'path'`.
pub fn parse_missing_file(err: &str) -> Option<String> {
    let marker = "No such file: '";
    let start = err.find(marker)? + marker.len();
    let rest = &err[start..];
    let end = rest.find('\'')?;
    Some(rest[..end].to_string())
}

/// The basename of a path in either Unix or Windows notation (authors
/// hard-code both, §3.2).
pub fn basename(path: &str) -> String {
    path.rsplit(['/', '\\']).next().unwrap_or(path).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::Stmt;
    use crate::notebook::{Cell, Notebook};

    fn csv_a() -> &'static str {
        "k,v\n1,10\n2,20\n3,30\n"
    }

    fn read_nb(path: &str, file_at: Option<&str>) -> Notebook {
        let mut nb = Notebook::new("t", "g");
        if let Some(p) = file_at {
            nb.add_file(p, csv_a());
        }
        nb.push_cell(Cell::code(vec![Stmt::Assign {
            var: "df".into(),
            expr: Expr::ReadCsv { path: path.into() },
        }]));
        nb
    }

    #[test]
    fn round_env_shares_repo_files_until_a_recovery_writes() {
        let engine = ReplayEngine::new(DatasetRepository::new());
        let nb = read_nb("D:\\my_project\\data.csv", Some("input/data.csv"));
        let mut env = engine.round_env(&nb);
        assert!(Arc::ptr_eq(&env.files, &nb.repo_files));
        assert!(Arc::ptr_eq(&env.installed, &engine.preinstalled));
        // What the file-recovery repair does once the attempt failed.
        let path = "D:\\my_project\\data.csv";
        let (name, content) = engine.resolve_file(path, &nb, 0, &env).unwrap();
        Arc::make_mut(&mut env.files).insert(name, content);
        assert!(!Arc::ptr_eq(&env.files, &nb.repo_files));
        assert_eq!((env.files.len(), nb.repo_files.len()), (2, 1));
    }

    #[test]
    fn direct_path_replays() {
        let engine = ReplayEngine::new(DatasetRepository::new());
        let report = engine.replay(&read_nb("data.csv", Some("data.csv")));
        assert_eq!(report.outcome, ReplayOutcome::Success);
        assert_eq!(report.cells_executed, 1);
    }

    #[test]
    fn absolute_path_resolved_by_basename_search() {
        // The §3.2 case: a hard-coded Windows path, file present in repo.
        let engine = ReplayEngine::new(DatasetRepository::new());
        let nb = read_nb("D:\\my_project\\data.csv", Some("input/data.csv"));
        let report = engine.replay(&nb);
        assert_eq!(report.outcome, ReplayOutcome::Success);
        assert_eq!(report.files_recovered.len(), 1);
    }

    #[test]
    fn url_in_markdown_recovers_file() {
        let mut repo = DatasetRepository::new();
        repo.add_url("https://data.example.com/data.csv", csv_a());
        let engine = ReplayEngine::new(repo);
        let mut nb = read_nb("data.csv", None);
        nb.cells[0].markdown =
            Some("Download from https://data.example.com/data.csv first".into());
        let report = engine.replay(&nb);
        assert_eq!(report.outcome, ReplayOutcome::Success);
    }

    #[test]
    fn kaggle_repository_recovers_file() {
        let mut repo = DatasetRepository::new();
        repo.add_dataset_file("someone/numbers", "data.csv", csv_a());
        let engine = ReplayEngine::new(repo);
        let report = engine.replay(&read_nb("data.csv", None));
        assert_eq!(report.outcome, ReplayOutcome::Success);
    }

    #[test]
    fn unresolvable_file_fails() {
        let engine = ReplayEngine::new(DatasetRepository::new());
        let report = engine.replay(&read_nb("secret.csv", None));
        assert_eq!(report.outcome, ReplayOutcome::MissingFile("secret.csv".into()));
        assert_eq!(report.cells_executed, 0);
    }

    #[test]
    fn installable_package_is_installed_and_cell_retried() {
        let engine = ReplayEngine::new(DatasetRepository::new());
        let mut nb = Notebook::new("t", "g");
        nb.add_file("data.csv", csv_a());
        nb.push_cell(Cell::code(vec![
            Stmt::Import { package: "seaborn".into() },
            Stmt::Assign {
                var: "df".into(),
                expr: Expr::ReadCsv { path: "data.csv".into() },
            },
        ]));
        let report = engine.replay(&nb);
        assert_eq!(report.outcome, ReplayOutcome::Success);
        assert_eq!(report.packages_installed, vec!["seaborn".to_string()]);
    }

    #[test]
    fn unknown_package_fails_notebook() {
        let engine = ReplayEngine::new(DatasetRepository::new());
        let mut nb = Notebook::new("t", "g");
        nb.push_cell(Cell::code(vec![Stmt::Import {
            package: "proprietary_internal_lib".into(),
        }]));
        let report = engine.replay(&nb);
        assert_eq!(
            report.outcome,
            ReplayOutcome::MissingPackage("proprietary_internal_lib".into())
        );
    }

    #[test]
    fn merge_invocation_is_instrumented_with_full_params() {
        let engine = ReplayEngine::new(DatasetRepository::new());
        let mut nb = Notebook::new("t", "g");
        nb.add_file("l.csv", "k,a\n1,x\n2,y\n3,z\n4,w\n5,q\n");
        nb.add_file("r.csv", "k,b\n1,p\n2,q\n3,r\n4,s\n5,t\n");
        nb.push_cell(Cell::code(vec![
            Stmt::Assign { var: "l".into(), expr: Expr::ReadCsv { path: "l.csv".into() } },
            Stmt::Assign { var: "r".into(), expr: Expr::ReadCsv { path: "r.csv".into() } },
            Stmt::Assign {
                var: "m".into(),
                expr: Expr::Merge {
                    left: "l".into(),
                    right: "r".into(),
                    left_on: vec!["k".into()],
                    right_on: vec!["k".into()],
                    how: JoinType::Left,
                },
            },
        ]));
        let report = engine.replay(&nb);
        assert_eq!(report.outcome, ReplayOutcome::Success);
        assert_eq!(report.invocations.len(), 1);
        let inv = &report.invocations[0];
        assert_eq!(inv.op, OpKind::Merge);
        assert_eq!(inv.inputs.len(), 2);
        assert_eq!(inv.inputs[0].num_rows(), 5);
        match &inv.params {
            OpParams::Merge { how, left_on, suffixes, .. } => {
                assert_eq!(*how, JoinType::Left);
                assert_eq!(left_on, &vec!["k".to_string()]);
                assert_eq!(suffixes.0, "_x"); // implicit default logged
            }
            other => panic!("wrong params {other:?}"),
        }
        assert_eq!(report.flow.op_sequence(), vec![OpKind::Merge]);
    }

    #[test]
    fn readers_of_one_variable_share_its_frame_and_hash_across_retries() {
        // Every cell's first attempt panics, so every logged invocation
        // comes from a retried cell.
        let engine = ReplayEngine::new(DatasetRepository::new())
            .with_faults(Some(spec("panic=1.0,seed=7,transient=1.0")));
        let mut nb = read_nb("data.csv", Some("data.csv"));
        let dropna =
            |frame: &str| Expr::DropNa { frame: frame.into(), how_all: false, subset: None };
        let assign =
            |var: &str, expr: Expr| Cell::code(vec![Stmt::Assign { var: var.into(), expr }]);
        nb.push_cell(assign("a", dropna("df")));
        nb.push_cell(assign("alias", Expr::Var("df".into())));
        nb.push_cell(assign("b", dropna("alias")));
        nb.push_cell(assign("c", Expr::Concat { frames: vec!["a".into(), "df".into()] }));
        let report = engine.replay(&nb);
        assert_eq!(report.outcome, ReplayOutcome::Success);
        assert_eq!(report.cell_retries, nb.cells.len());
        let [a, b, c] = &report.invocations[..] else { panic!("{:?}", report.invocations) };
        assert!(Arc::ptr_eq(&a.inputs[0], &b.inputs[0]), "a rebinding copied the frame");
        assert!(Arc::ptr_eq(&a.inputs[0], &c.inputs[1]));
        for inv in [a, b, c] {
            for (f, &h) in inv.inputs.iter().zip(&inv.input_hashes) {
                assert_eq!(h, f.content_hash());
            }
        }
        // `c` reads `a`'s output: the logged hash is the producer's.
        assert_eq!(c.input_hashes[0], a.output_hash);
    }

    #[test]
    fn failed_cell_leaves_no_partial_invocations() {
        let engine = ReplayEngine::new(DatasetRepository::new());
        let mut nb = Notebook::new("t", "g");
        nb.add_file("l.csv", "k,a\n1,x\n");
        nb.push_cell(Cell::code(vec![
            Stmt::Assign { var: "l".into(), expr: Expr::ReadCsv { path: "l.csv".into() } },
            // groupby on a column that does not exist.
            Stmt::Assign {
                var: "g".into(),
                expr: Expr::GroupBy {
                    frame: "l".into(),
                    keys: vec!["missing".into()],
                    aggs: vec![("a".into(), Agg::Count)],
                },
            },
        ]));
        let report = engine.replay(&nb);
        assert!(matches!(report.outcome, ReplayOutcome::ExecutionError(_)));
        assert!(report.invocations.is_empty());
        assert_eq!(report.cells_executed, 0);
    }

    #[test]
    fn timeout_fires_on_budget_exhaustion() {
        let engine = ReplayEngine::new(DatasetRepository::new())
            .with_config(ReplayConfig {
                cell_row_budget: 2,
                max_retries: 2,
                ..ReplayConfig::default()
            });
        let mut nb = Notebook::new("t", "g");
        nb.add_file("l.csv", csv_a());
        nb.push_cell(Cell::code(vec![
            Stmt::Assign { var: "l".into(), expr: Expr::ReadCsv { path: "l.csv".into() } },
            Stmt::Assign {
                var: "d".into(),
                expr: Expr::DropNa { frame: "l".into(), how_all: false, subset: None },
            },
        ]));
        assert_eq!(engine.replay(&nb).outcome, ReplayOutcome::Timeout);
    }

    #[test]
    fn error_message_parsers() {
        assert_eq!(
            parse_missing_package("ModuleNotFoundError: No module named 'seaborn'"),
            Some("seaborn".into())
        );
        assert_eq!(parse_missing_package("SyntaxError"), None);
        assert_eq!(
            parse_missing_file("FileNotFoundError: No such file: 'a/b.csv'"),
            Some("a/b.csv".into())
        );
        assert_eq!(basename("D:\\x\\y.csv"), "y.csv");
        assert_eq!(basename("a/b/c.csv"), "c.csv");
        assert_eq!(basename("plain.csv"), "plain.csv");
    }

    #[test]
    fn undefined_variable_is_execution_error() {
        let engine = ReplayEngine::new(DatasetRepository::new());
        let mut nb = Notebook::new("t", "g");
        nb.push_cell(Cell::code(vec![Stmt::Assign {
            var: "x".into(),
            expr: Expr::DropNa { frame: "ghost".into(), how_all: false, subset: None },
        }]));
        let report = engine.replay(&nb);
        assert!(matches!(report.outcome, ReplayOutcome::ExecutionError(m) if m.contains("NameError")));
    }

    fn spec(s: &str) -> FaultSpec {
        FaultSpec::parse(s).expect("fault spec")
    }

    #[test]
    fn transient_injected_panic_is_retried_and_recovers() {
        let engine = ReplayEngine::new(DatasetRepository::new())
            .with_faults(Some(spec("panic=1.0,seed=7,transient=1.0")));
        let report = engine.replay(&read_nb("data.csv", Some("data.csv")));
        assert_eq!(report.outcome, ReplayOutcome::Success);
        assert!(report.cell_retries >= 1);
        assert_eq!(report.injected_faults, vec![ReplayErrorKind::OperatorPanic]);
    }

    #[test]
    fn persistent_injected_panic_exhausts_retries_without_escaping() {
        let engine = ReplayEngine::new(DatasetRepository::new())
            .with_faults(Some(spec("panic=1.0,seed=7,transient=0.0")));
        let report = engine.replay(&read_nb("data.csv", Some("data.csv")));
        assert!(
            matches!(&report.outcome, ReplayOutcome::OperatorPanic(m) if m.contains("retries exhausted")),
            "got {:?}",
            report.outcome
        );
        assert_eq!(report.cells_executed, 0);
    }

    #[test]
    fn injected_io_fault_becomes_missing_file() {
        let engine = ReplayEngine::new(DatasetRepository::new())
            .with_faults(Some(spec("io=1.0,seed=7,transient=0.0")));
        let report = engine.replay(&read_nb("data.csv", Some("data.csv")));
        assert!(
            matches!(&report.outcome, ReplayOutcome::MissingFile(p) if p.starts_with("injected://")),
            "got {:?}",
            report.outcome
        );
    }

    #[test]
    fn replay_corpus_quarantines_persistent_failures() {
        let engine = ReplayEngine::new(DatasetRepository::new())
            .with_faults(Some(spec("panic=1.0,seed=7,transient=0.0")));
        let notebooks = vec![read_nb("data.csv", Some("data.csv"))];
        let (reports, stats) = engine.replay_corpus(&notebooks);
        assert_eq!(reports.len(), 1);
        assert!(matches!(reports[0].outcome, ReplayOutcome::OperatorPanic(_)));
        assert_eq!(stats.notebooks, 1);
        assert_eq!(stats.failed_first_pass, 1);
        assert_eq!(stats.retried_notebooks, 1);
        assert_eq!(stats.recovered_notebooks, 0);
        assert_eq!(stats.quarantined_notebooks, 1);
        let panic_ctr = stats.kind(ReplayErrorKind::OperatorPanic);
        assert_eq!(panic_ctr.failures, 1);
        assert_eq!(panic_ctr.retries, 2); // max_notebook_rounds(3) - first pass
        assert_eq!(panic_ctr.quarantined, 1);
        assert!(panic_ctr.injected > 0);
    }

    #[test]
    fn replay_corpus_recovers_transient_timeout_in_quarantine_round() {
        // A transient timeout fails the whole notebook on round 0 (timeouts
        // are not retried at cell level) and clears on the quarantine round.
        let engine = ReplayEngine::new(DatasetRepository::new())
            .with_faults(Some(spec("timeout=1.0,seed=7,transient=1.0")));
        let notebooks = vec![read_nb("data.csv", Some("data.csv"))];
        let (reports, stats) = engine.replay_corpus(&notebooks);
        assert_eq!(reports[0].outcome, ReplayOutcome::Success);
        assert_eq!(stats.failed_first_pass, 1);
        assert_eq!(stats.recovered_notebooks, 1);
        assert_eq!(stats.quarantined_notebooks, 0);
        let t = stats.kind(ReplayErrorKind::Timeout);
        assert_eq!(t.retries, 1);
        assert_eq!(t.recovered, 1);
        assert_eq!(t.quarantined, 0);
    }

    #[test]
    fn every_fault_kind_is_injectable_and_surfaces_its_error_kind() {
        // Each FaultKind, injected persistently at rate 1.0, must fail the
        // notebook with exactly the ReplayErrorKind it maps to — no kind is
        // uninjectable and none masquerades as another.
        for kind in crate::faults::FaultKind::ALL {
            let engine = ReplayEngine::new(DatasetRepository::new()).with_faults(Some(spec(
                &format!("{}=1.0,seed=7,transient=0.0", kind.as_str()),
            )));
            let report = engine.replay(&read_nb("data.csv", Some("data.csv")));
            assert_eq!(
                report.outcome.failure_kind(),
                Some(kind.error_kind()),
                "injected {:?}, outcome {:?}",
                kind,
                report.outcome
            );
            assert!(
                report.injected_faults.contains(&kind.error_kind()),
                "{kind:?} was not recorded as injected"
            );
            assert_eq!(report.cells_executed, 0);
        }
    }

    #[test]
    fn non_retryable_faults_skip_retry_rounds_and_quarantine() {
        // Schema and package failures are deterministic: replay_corpus must
        // fail them on the first pass without burning retry rounds, and the
        // quarantine counters must stay untouched.
        for kind in [crate::faults::FaultKind::Package, crate::faults::FaultKind::Schema] {
            let engine = ReplayEngine::new(DatasetRepository::new()).with_faults(Some(spec(
                &format!("{}=1.0,seed=7,transient=0.0", kind.as_str()),
            )));
            let notebooks = vec![read_nb("data.csv", Some("data.csv"))];
            let (reports, stats) = engine.replay_corpus(&notebooks);
            assert_eq!(reports[0].outcome.failure_kind(), Some(kind.error_kind()));
            assert_eq!(stats.failed_first_pass, 1);
            assert_eq!(stats.retried_notebooks, 0, "{kind:?} must not be retried");
            assert_eq!(stats.recovered_notebooks, 0);
            assert_eq!(stats.quarantined_notebooks, 0);
            let c = stats.kind(kind.error_kind());
            assert_eq!(c.failures, 1);
            assert_eq!(c.retries, 0);
            assert_eq!(c.recovered, 0);
            assert_eq!(c.quarantined, 0);
        }
    }

    #[test]
    fn obs_fault_counters_mirror_robustness_stats() {
        // record_obs folds RobustnessStats into the metrics registry at the
        // end of replay_corpus; every counter must equal the stats field it
        // mirrors, and zero-valued fields must leave no counter behind.
        let engine = ReplayEngine::new(DatasetRepository::new())
            .with_faults(Some(spec("panic=1.0,seed=7,transient=0.0")));
        let notebooks = vec![
            read_nb("data.csv", Some("data.csv")),
            read_nb("other.csv", Some("other.csv")),
        ];
        let ((_, stats), snap) =
            obs::with_local_registry(|| engine.replay_corpus(&notebooks));
        let ctr = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        assert_eq!(ctr("replay.notebooks"), stats.notebooks as u64);
        assert_eq!(ctr("replay.failed_first_pass"), stats.failed_first_pass as u64);
        assert_eq!(ctr("replay.retried_notebooks"), stats.retried_notebooks as u64);
        assert_eq!(ctr("replay.recovered_notebooks"), stats.recovered_notebooks as u64);
        assert_eq!(
            ctr("replay.quarantined_notebooks"),
            stats.quarantined_notebooks as u64
        );
        assert_eq!(ctr("replay.cell_retries"), stats.cell_retries as u64);
        assert!(stats.total_injected() > 0, "sanity: faults actually fired");
        for kind in ReplayErrorKind::ALL {
            let c = stats.kind(kind);
            let fields = [
                ("injected", c.injected),
                ("failures", c.failures),
                ("retries", c.retries),
                ("recovered", c.recovered),
                ("quarantined", c.quarantined),
            ];
            for (field, v) in fields {
                let name = format!("replay.faults.{}.{field}", kind.as_str());
                assert_eq!(ctr(&name), v as u64, "counter {name} diverged");
                if v == 0 {
                    assert!(
                        !snap.counters.contains_key(&name),
                        "zero-valued {name} should not be emitted"
                    );
                }
            }
        }
    }

    #[test]
    fn replay_corpus_without_faults_reports_clean_stats() {
        let engine = ReplayEngine::new(DatasetRepository::new());
        let notebooks = vec![
            read_nb("data.csv", Some("data.csv")),
            read_nb("other.csv", Some("other.csv")),
        ];
        let (reports, stats) = engine.replay_corpus(&notebooks);
        assert!(reports.iter().all(|r| r.outcome == ReplayOutcome::Success));
        assert_eq!(stats.total_injected(), 0);
        assert_eq!(stats.failed_first_pass, 0);
        assert_eq!(stats.quarantined_notebooks, 0);
        assert_eq!(stats.fault_spec, None);
    }
}
