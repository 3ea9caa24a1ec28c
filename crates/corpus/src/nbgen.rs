//! Synthetic notebook generation.
//!
//! Produces a corpus whose *replay logs* have the statistical structure the
//! paper harvests from GitHub (DESIGN.md §1): per-operator notebook
//! archetypes with planted ground truth, plus longer mixed pipelines whose
//! operator transitions carry the sequential correlations next-operator
//! prediction exploits (§5). Author misbehaviour is planted at realistic
//! rates — hard-coded absolute paths, data only available via URLs or the
//! Kaggle API, missing packages, duplicated invocations, and unrecoverable
//! failures that make replay success rates match Table 2's shape.

use crate::datasets::DatasetRepository;
use crate::flowgraph::OpKind;
use crate::lang::{Expr, FillValue, Stmt};
use crate::notebook::{Cell, Notebook};
use crate::tablegen::{GenTable, JoinCase, TableGenerator};
use autosuggest_dataframe::io::write_csv_string;
use autosuggest_dataframe::ops::Agg;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};

/// Corpus-scale configuration.
///
/// Defaults reproduce the paper's post-filtering dataset at roughly 1:40
/// scale (Table 2), which is ample to train and evaluate every predictor.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    pub seed: u64,
    pub join_notebooks: usize,
    pub groupby_notebooks: usize,
    pub pivot_notebooks: usize,
    pub unpivot_notebooks: usize,
    pub json_notebooks: usize,
    /// Mixed multi-operator pipelines for next-op prediction.
    pub flow_notebooks: usize,
    /// Plant recoverable quirks and unrecoverable failures.
    pub plant_failures: bool,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 42,
            join_notebooks: 420,
            groupby_notebooks: 300,
            pivot_notebooks: 260,
            unpivot_notebooks: 110,
            json_notebooks: 60,
            flow_notebooks: 420,
            plant_failures: true,
        }
    }
}

impl CorpusConfig {
    /// A corpus of (roughly) `total` notebooks at the default archetype mix,
    /// used by `repro --corpus-scale N`. Per-archetype counts scale
    /// proportionally from the default configuration; the rounding remainder
    /// goes to join notebooks. Join twins (~20% of join jobs) generate on
    /// top, so the realised notebook count slightly exceeds `total`.
    pub fn scaled_to(seed: u64, total: usize) -> Self {
        let base = CorpusConfig::default();
        let weights = [
            base.join_notebooks,
            base.groupby_notebooks,
            base.pivot_notebooks,
            base.unpivot_notebooks,
            base.json_notebooks,
            base.flow_notebooks,
        ];
        let denom: usize = weights.iter().sum();
        let scaled: Vec<usize> = weights.iter().map(|w| total * w / denom).collect();
        let assigned: usize = scaled.iter().sum();
        CorpusConfig {
            seed,
            join_notebooks: scaled[0] + (total - assigned),
            groupby_notebooks: scaled[1],
            pivot_notebooks: scaled[2],
            unpivot_notebooks: scaled[3],
            json_notebooks: scaled[4],
            flow_notebooks: scaled[5],
            plant_failures: true,
        }
    }

    /// A small corpus for unit/integration tests (fast in debug builds).
    pub fn small(seed: u64) -> Self {
        CorpusConfig {
            seed,
            join_notebooks: 40,
            groupby_notebooks: 30,
            pivot_notebooks: 30,
            unpivot_notebooks: 20,
            json_notebooks: 8,
            flow_notebooks: 40,
            plant_failures: true,
        }
    }
}

/// The generated corpus: notebooks plus the simulated external world.
#[derive(Debug, Clone)]
pub struct GeneratedCorpus {
    pub notebooks: Vec<Notebook>,
    pub repository: DatasetRepository,
}

/// Per-archetype unrecoverable-failure probability, tuned so replay success
/// rates land near Table 2's (#replayed / #sampled) ratios.
fn unrecoverable_rate(archetype: Archetype) -> f64 {
    match archetype {
        Archetype::Join => 0.55,
        Archetype::GroupBy => 0.55,
        Archetype::Pivot => 0.5,
        Archetype::Unpivot => 0.45,
        Archetype::Json => 0.4,
        Archetype::Flow => 0.3,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Archetype {
    Join,
    GroupBy,
    Pivot,
    Unpivot,
    Json,
    Flow,
}

impl Archetype {
    /// Stable stream tag mixed into per-notebook seeds.
    fn stream_tag(self) -> u64 {
        match self {
            Archetype::Join => 1,
            Archetype::GroupBy => 2,
            Archetype::Pivot => 3,
            Archetype::Unpivot => 4,
            Archetype::Json => 5,
            Archetype::Flow => 6,
        }
    }
}

/// SplitMix64-style seed derivation: every notebook gets an RNG stream that
/// is a pure function of `(corpus seed, archetype, ordinal, lane)` — no
/// shared sequential RNG, so notebooks can be generated in any order (or in
/// parallel) without changing their content.
fn derive_seed(seed: u64, tag: u64, ordinal: u64, lane: u64) -> u64 {
    let mut z = seed
        ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ ordinal.wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ lane.wrapping_mul(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One generation job: a per-archetype ordinal. A join job may emit twin
/// notebooks (they share a dataset group and input tables).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Job {
    pub(crate) archetype: Archetype,
    pub(crate) idx: usize,
}

/// The canonical job list for a corpus configuration, in the same archetype
/// order `generate()` uses. Every notebook is a pure function of its job, so
/// any partition of this list into contiguous shards, generated
/// independently and concatenated, reproduces the full corpus exactly.
pub(crate) fn corpus_jobs(cfg: &CorpusConfig) -> Vec<Job> {
    let mut jobs: Vec<Job> = Vec::new();
    let mut push = |archetype: Archetype, count: usize| {
        jobs.extend((0..count).map(|idx| Job { archetype, idx }));
    };
    push(Archetype::Join, cfg.join_notebooks);
    push(Archetype::GroupBy, cfg.groupby_notebooks);
    push(Archetype::Pivot, cfg.pivot_notebooks);
    push(Archetype::Unpivot, cfg.unpivot_notebooks);
    push(Archetype::Json, cfg.json_notebooks);
    push(Archetype::Flow, cfg.flow_notebooks);
    jobs
}

/// Generate the notebooks for a slice of the canonical job list. Jobs are
/// independent (each carries its own derived RNG streams and repository
/// delta), so they fan out across the deterministic thread pool; results are
/// reassembled in job order and are bit-identical at any
/// `AUTOSUGGEST_THREADS`. Because every dataset basename/URL/slug embeds the
/// notebook's archetype and serial, a shard's repository delta contains
/// exactly the files its notebooks reference — replaying a shard against its
/// own delta behaves identically to replaying against the merged full-corpus
/// repository.
pub(crate) fn generate_jobs(cfg: &CorpusConfig, jobs: &[Job]) -> GeneratedCorpus {
    let pool = autosuggest_parallel::Pool::global().with_min_items(8);
    let produced = pool.par_map(jobs, |job| CorpusGenerator::run_job(cfg, *job));

    let mut notebooks = Vec::new();
    let mut repository = DatasetRepository::new();
    for (nbs, delta) in produced {
        notebooks.extend(nbs);
        repository.merge(delta);
    }
    autosuggest_obs::counter_add("corpus.notebooks_generated", notebooks.len() as u64);
    GeneratedCorpus { notebooks, repository }
}

/// The `<scenario>` of a notebook id `nb-<scenario>-<serial>` (the
/// generating archetype's tag, as `CorpusGenerator::next_id` writes it),
/// or `None` for an id of another shape.
pub fn scenario_of(notebook_id: &str) -> Option<&str> {
    let (scenario, _serial) = notebook_id.strip_prefix("nb-")?.rsplit_once('-')?;
    Some(scenario)
}

/// The operator a notebook's scenario is generated around (`None` for
/// `flow` notebooks, which chain several, and for foreign ids).
pub fn primary_op(notebook_id: &str) -> Option<OpKind> {
    Some(match scenario_of(notebook_id)? {
        "join" => OpKind::Merge,
        "groupby" => OpKind::GroupBy,
        "pivot" => OpKind::Pivot,
        "unpivot" => OpKind::Melt,
        "json" => OpKind::JsonNormalize,
        _ => return None,
    })
}

/// The corpus generator. `CorpusGenerator::new(cfg).generate()` builds the
/// full corpus; internally each notebook is produced by a short-lived
/// per-notebook generator whose RNG, table generator, and serial are all
/// derived from the notebook's identity (archetype + ordinal), never from a
/// shared sequential stream.
pub struct CorpusGenerator {
    rng: StdRng,
    tables: TableGenerator,
    cfg: CorpusConfig,
    repo: DatasetRepository,
    serial: usize,
}

impl CorpusGenerator {
    pub fn new(cfg: CorpusConfig) -> Self {
        Self::for_notebook(&cfg, Archetype::Join, 0)
    }

    /// A generator scoped to one notebook: `serial` (used in notebook ids,
    /// file basenames, URLs, and dataset slugs) is the per-archetype
    /// ordinal, and both RNG streams are derived from it.
    fn for_notebook(cfg: &CorpusConfig, archetype: Archetype, ordinal: usize) -> Self {
        let tag = archetype.stream_tag();
        CorpusGenerator {
            rng: StdRng::seed_from_u64(derive_seed(cfg.seed, tag, ordinal as u64, 1)),
            tables: TableGenerator::new(derive_seed(cfg.seed, tag, ordinal as u64, 2)),
            cfg: cfg.clone(),
            repo: DatasetRepository::new(),
            serial: ordinal,
        }
    }

    /// Generate the full corpus. Jobs are independent (each carries its own
    /// derived RNG streams and repository delta), so they fan out across
    /// the deterministic thread pool; results are reassembled in job order
    /// and are bit-identical at any `AUTOSUGGEST_THREADS`.
    pub fn generate(self) -> GeneratedCorpus {
        let jobs = corpus_jobs(&self.cfg);
        generate_jobs(&self.cfg, &jobs)
    }


    pub(crate) fn run_job(cfg: &CorpusConfig, job: Job) -> (Vec<Notebook>, DatasetRepository) {
        let mut generator = Self::for_notebook(cfg, job.archetype, job.idx);
        let notebooks = match job.archetype {
            Archetype::Join => generator.join_notebooks(job.idx),
            Archetype::GroupBy => vec![generator.groupby_notebook(job.idx)],
            Archetype::Pivot => vec![generator.pivot_notebook(job.idx)],
            Archetype::Unpivot => vec![generator.unpivot_notebook(job.idx)],
            Archetype::Json => vec![generator.json_notebook(job.idx)],
            Archetype::Flow => vec![generator.flow_notebook(job.idx)],
        };
        (notebooks, generator.repo)
    }

    /// `nb-<kind>-<serial>`, which [`scenario_of`] parses back.
    fn next_id(&self, kind: &str) -> String {
        format!("nb-{kind}-{:05}", self.serial)
    }

    /// The first cell: imports, possibly planting package failures.
    fn import_cell(&mut self, archetype: Archetype, doomed: &mut bool) -> Cell {
        let mut stmts = vec![Stmt::Import { package: "pandas".into() }];
        if self.cfg.plant_failures {
            if self.rng.random_bool(0.4) {
                if let Some(extra) =
                    ["matplotlib", "seaborn", "sklearn", "scipy"].choose(&mut self.rng)
                {
                    stmts.push(Stmt::Import { package: (*extra).to_string() });
                }
            }
            if !*doomed && self.rng.random_bool(unrecoverable_rate(archetype) * 0.5) {
                // Half of the unrecoverable failures are unknown packages...
                stmts.push(Stmt::Import {
                    package: format!("private_utils_{}", self.serial),
                });
                *doomed = true;
            }
        }
        Cell::code(stmts)
    }

    /// Attach a table to the notebook and return the path `read_csv` should
    /// use, planting path quirks (§3.2) at realistic rates.
    fn plant_file(
        &mut self,
        nb: &mut Notebook,
        name: &str,
        content: String,
        doomed_file: bool,
    ) -> (String, Option<String>) {
        if doomed_file {
            // ...the other half reference proprietary data hosted nowhere.
            return (format!("/home/author/private/{name}"), None);
        }
        if !self.cfg.plant_failures {
            nb.add_file(name.to_string(), content);
            return (name.to_string(), None);
        }
        let roll: f64 = self.rng.random();
        if roll < 0.45 {
            // Hard-coded absolute path; file lives elsewhere in the repo.
            nb.add_file(format!("data/{name}"), content);
            let style = if self.rng.random_bool(0.5) {
                format!("D:\\my_project\\{name}")
            } else {
                format!("/Users/author/work/{name}")
            };
            (style, None)
        } else if roll < 0.55 {
            // Only available at a URL mentioned in markdown.
            let url = format!("https://data.example.com/{}/{name}", self.serial);
            self.repo.add_url(url.clone(), content);
            (
                name.to_string(),
                Some(format!("Dataset downloaded from {url}")),
            )
        } else if roll < 0.65 {
            // Only available as a Kaggle-style dataset.
            let slug = format!("user{}/{}", self.serial % 97, name.trim_end_matches(".csv"));
            self.repo.add_dataset_file(slug.clone(), name.to_string(), content);
            (
                name.to_string(),
                Some(format!("See kaggle datasets download -d {slug}")),
            )
        } else {
            nb.add_file(name.to_string(), content);
            (name.to_string(), None)
        }
    }

    /// One join case produces 1–2 notebooks (twins share the dataset group,
    /// exercising the leakage-safe splitter and cross-notebook dedup). The
    /// twin runs on its own derived streams at an offset ordinal so its id,
    /// file basenames, and quirks stay distinct from the primary's.
    fn join_notebooks(&mut self, idx: usize) -> Vec<Notebook> {
        const TWIN_OFFSET: usize = 50_000;
        let case = self.tables.join_pair();
        let group = format!("join-ds-{idx}");
        let mut out = vec![self.join_notebook_for(&case, &group)];
        if self.rng.random_bool(0.2) {
            let mut twin = Self::for_notebook(&self.cfg, Archetype::Join, idx + TWIN_OFFSET);
            out.push(twin.join_notebook_for(&case, &group));
            self.repo.merge(twin.repo);
        }
        out
    }

    fn join_notebook_for(&mut self, case: &JoinCase, group: &str) -> Vec1 {
        let id = self.next_id("join");
        let mut nb = Notebook::new(id, group);
        let mut doomed = false;
        nb.push_cell(self.import_cell(Archetype::Join, &mut doomed));

        let doom_file = self.cfg.plant_failures
            && !doomed
            && self.rng.random_bool(unrecoverable_rate(Archetype::Join) * 0.5);
        // Basenames are unique per notebook: the Kaggle-style fallback
        // resolves by basename, and identically-named files from unrelated
        // notebooks would otherwise shadow each other.
        let lname = format!("sales_{}.csv", self.serial);
        let rname = format!("lookup_{}.csv", self.serial);
        let (lpath, lmd) =
            self.plant_file(&mut nb, &lname, write_csv_string(&case.left.df), false);
        let (rpath, rmd) =
            self.plant_file(&mut nb, &rname, write_csv_string(&case.right.df), doom_file);
        let mut c1 = Cell::code(vec![Stmt::Assign {
            var: "sales".into(),
            expr: Expr::ReadCsv { path: lpath },
        }]);
        c1.markdown = lmd;
        nb.push_cell(c1);
        let mut c2 = Cell::code(vec![Stmt::Assign {
            var: "lookup".into(),
            expr: Expr::ReadCsv { path: rpath },
        }]);
        c2.markdown = rmd;
        nb.push_cell(c2);

        let merge = Expr::Merge {
            left: "sales".into(),
            right: "lookup".into(),
            left_on: case.left_on.clone(),
            right_on: case.right_on.clone(),
            how: case.how,
        };
        nb.push_cell(Cell::code(vec![Stmt::Assign {
            var: "merged".into(),
            expr: merge.clone(),
        }]));
        // Loop-style repetition: several near-identical merges (Table 2's
        // #operator-replayed ≫ #notebooks-replayed; dedup collapses them).
        if self.rng.random_bool(0.6) {
            let reps = self.rng.random_range(1..=4);
            let mut stmts = Vec::new();
            for r in 0..reps {
                stmts.push(Stmt::Assign { var: format!("merged_{r}"), expr: merge.clone() });
            }
            nb.push_cell(Cell::code(stmts));
        }
        // Occasionally the merged frame is stacked with itself (appends of
        // multiple periods are a common concat pattern).
        if self.rng.random_bool(0.3) {
            nb.push_cell(Cell::code(vec![Stmt::Assign {
                var: "stacked".into(),
                expr: Expr::Concat { frames: vec!["merged".into(), "merged".into()] },
            }]));
        }
        // Frequently a groupby follows the join (sequence signal).
        if self.rng.random_bool(0.5) && !case.left.meta.measure_cols.is_empty() {
            let mut key = case.left.meta.dim_cols
                [self.rng.random_range(0..case.left.meta.dim_cols.len())]
            .clone();
            // Columns present on both sides get suffixed by the merge.
            let right_names = case.right.df.column_names();
            if right_names.contains(&key.as_str()) && !case.left_on.contains(&key) {
                key.push_str("_x");
            }
            let measure = case.left.meta.measure_cols[0].clone();
            nb.push_cell(Cell::code(vec![Stmt::Assign {
                var: "summary".into(),
                expr: Expr::GroupBy {
                    frame: "merged".into(),
                    keys: vec![key],
                    aggs: vec![(measure, Agg::Sum)],
                },
            }]));
        }
        nb
    }

    fn groupby_notebook(&mut self, idx: usize) -> Notebook {
        let id = self.next_id("groupby");
        let mut nb = Notebook::new(id, format!("groupby-ds-{idx}"));
        let mut doomed = false;
        nb.push_cell(self.import_cell(Archetype::GroupBy, &mut doomed));

        let n = self.rng.random_range(8..25);
        let entities = self.tables.entities(n);
        let table = self.tables.fact_table(&entities);
        let doom_file = self.cfg.plant_failures
            && !doomed
            && self
                .rng
                .random_bool(unrecoverable_rate(Archetype::GroupBy) * 0.5);
        let fname = format!("records_{}.csv", self.serial);
        let (path, md) =
            self.plant_file(&mut nb, &fname, write_csv_string(&table.df), doom_file);
        let mut c = Cell::code(vec![Stmt::Assign {
            var: "df".into(),
            expr: Expr::ReadCsv { path },
        }]);
        c.markdown = md;
        nb.push_cell(c);

        let mut frame = "df".to_string();
        // Authors often clean nulls before aggregating.
        let has_nulls = table.df.columns().iter().any(|c| c.null_count() > 0);
        if has_nulls && self.rng.random_bool(0.75) {
            let (var, expr) = if self.rng.random_bool(0.5) {
                ("clean", Expr::DropNa { frame: frame.clone(), how_all: false, subset: None })
            } else {
                ("clean", Expr::FillNa { frame: frame.clone(), value: FillValue::Float(0.0) })
            };
            nb.push_cell(Cell::code(vec![Stmt::Assign { var: var.into(), expr }]));
            frame = "clean".into();
        }

        let (keys, aggs) = self.author_groupby_choice(&table);
        nb.push_cell(Cell::code(vec![Stmt::Assign {
            var: "grouped".into(),
            expr: Expr::GroupBy { frame, keys, aggs },
        }]));
        nb
    }

    /// How an author parameterises GroupBy on a fact table: 1–2 dimensions
    /// (non-key dims preferred; keys are too fine-grained to group by alone
    /// unless paired with time), and 1–2 measures aggregated.
    fn author_groupby_choice(&mut self, t: &GenTable) -> (Vec<String>, Vec<(String, Agg)>) {
        let mut keys: Vec<String> = Vec::new();
        let candidate_dims: Vec<&String> = t.meta.dim_cols.iter().collect();
        let n_keys = self.rng.random_range(1..=2.min(candidate_dims.len()));
        while keys.len() < n_keys {
            let pick = candidate_dims[self.rng.random_range(0..candidate_dims.len())];
            if !keys.contains(pick) {
                keys.push(pick.clone());
            }
        }
        let mut aggs: Vec<(String, Agg)> = Vec::new();
        let n_aggs = self.rng.random_range(1..=t.meta.measure_cols.len().min(2));
        for m in t.meta.measure_cols.iter().take(n_aggs) {
            let agg = if self.rng.random_bool(0.6) { Agg::Sum } else { Agg::Mean };
            aggs.push((m.clone(), agg));
        }
        // Sometimes the aggregated column is a *string* dimension counted
        // per group ("how many companies per sector") — the case that
        // breaks type-based dimension/measure rules.
        if self.rng.random_bool(0.35) {
            if let Some(counted) = t
                .meta
                .dim_cols
                .iter()
                .find(|d| !keys.contains(d) && !aggs.iter().any(|(a, _)| a == *d))
            {
                aggs.push((counted.clone(), Agg::Count));
            }
        }
        (keys, aggs)
    }

    fn pivot_notebook(&mut self, idx: usize) -> Notebook {
        let id = self.next_id("pivot");
        let mut nb = Notebook::new(id, format!("pivot-ds-{idx}"));
        let mut doomed = false;
        nb.push_cell(self.import_cell(Archetype::Pivot, &mut doomed));

        let n = self.rng.random_range(10..30);
        let entities = self.tables.entities(n);
        let table = self.tables.fact_table(&entities);
        let doom_file = self.cfg.plant_failures
            && !doomed
            && self.rng.random_bool(unrecoverable_rate(Archetype::Pivot) * 0.5);
        let fname = format!("filings_{}.csv", self.serial);
        let (path, md) =
            self.plant_file(&mut nb, &fname, write_csv_string(&table.df), doom_file);
        let mut c = Cell::code(vec![Stmt::Assign {
            var: "df".into(),
            expr: Expr::ReadCsv { path },
        }]);
        c.markdown = md;
        nb.push_cell(c);

        // Author's split: FD-linked entity attributes on the index, one of
        // the *independent* dimensions (year, quarter, or a per-row
        // categorical like region) on the header (Fig. 7). Headers are not
        // always numeric/temporal — that variety is what defeats static
        // type rules (Table 8). A small fraction of authors deviates — the
        // irreducible noise real data has.
        let entity_dims: Vec<String> = table.meta.dim_cols[..3.min(table.meta.dim_cols.len())]
            .to_vec();
        let independent: Vec<String> = table
            .meta
            .dim_cols
            .iter()
            .filter(|d| !entity_dims.contains(*d))
            .cloned()
            .collect();
        let (mut index, mut header) = if !independent.is_empty() {
            // Authors usually pick the smallest-cardinality independent
            // dimension as the header (narrow pivots read best); sometimes
            // they pick another one.
            let chosen = if self.rng.random_bool(0.75) {
                independent
                    .iter()
                    .min_by_key(|d| {
                        table.df.column(d).map(|c| c.distinct_count()).unwrap_or(usize::MAX)
                    })
                    .unwrap_or(&independent[0])
                    .clone()
            } else {
                independent[self.rng.random_range(0..independent.len())].clone()
            };
            let h = vec![chosen];
            let mut i = entity_dims.clone();
            i.extend(independent.iter().filter(|t| !h.contains(t)).cloned());
            (i, h)
        } else {
            match entity_dims.split_last() {
                Some((last, rest)) => (rest.to_vec(), vec![last.clone()]),
                None => (Vec::new(), Vec::new()),
            }
        };
        if index.is_empty() {
            std::mem::swap(&mut index, &mut header);
        }
        if self.rng.random_bool(0.05) && index.len() >= 2 {
            // Contrarian author: swap one index column onto the header.
            let moved = index.remove(self.rng.random_range(0..index.len()));
            header.push(moved);
        }
        let values = table.meta.measure_cols[0].clone();
        let agg = if self.rng.random_bool(0.7) { Agg::Sum } else { Agg::Mean };
        nb.push_cell(Cell::code(vec![Stmt::Assign {
            var: "pivoted".into(),
            expr: Expr::Pivot { frame: "df".into(), index, header, values, agg },
        }]));
        nb
    }

    fn unpivot_notebook(&mut self, idx: usize) -> Notebook {
        let id = self.next_id("unpivot");
        let mut nb = Notebook::new(id, format!("unpivot-ds-{idx}"));
        let mut doomed = false;
        nb.push_cell(self.import_cell(Archetype::Unpivot, &mut doomed));

        // Wide tables: mostly 5–25 collapsible columns at our scale (the
        // paper reports 183-column monsters; the block/ids ratio is what
        // matters for CMUT).
        let wide = self.rng.random_range(4..26);
        let table = self.tables.wide_pivot_table(wide);
        let doom_file = self.cfg.plant_failures
            && !doomed
            && self
                .rng
                .random_bool(unrecoverable_rate(Archetype::Unpivot) * 0.5);
        let fname = format!("wide_{}.csv", self.serial);
        let (path, md) =
            self.plant_file(&mut nb, &fname, write_csv_string(&table.df), doom_file);
        let mut c = Cell::code(vec![Stmt::Assign {
            var: "wide".into(),
            expr: Expr::ReadCsv { path },
        }]);
        c.markdown = md;
        nb.push_cell(c);

        let (var_name, value_name) = match table.meta.collapse_cols[0].parse::<i64>() {
            Ok(_) => ("year".to_string(), "value".to_string()),
            Err(_) => ("period".to_string(), "amount".to_string()),
        };
        nb.push_cell(Cell::code(vec![Stmt::Assign {
            var: "long".into(),
            expr: Expr::Melt {
                frame: "wide".into(),
                id_vars: table.meta.dim_cols.clone(),
                value_vars: table.meta.collapse_cols.clone(),
                var_name,
                value_name: value_name.clone(),
            },
        }]));
        // Often an aggregation follows the reshape.
        if self.rng.random_bool(0.4) {
            nb.push_cell(Cell::code(vec![Stmt::Assign {
                var: "agg".into(),
                expr: Expr::GroupBy {
                    frame: "long".into(),
                    keys: vec![table.meta.dim_cols[0].clone()],
                    aggs: vec![(value_name, Agg::Mean)],
                },
            }]));
        }
        nb
    }

    fn json_notebook(&mut self, idx: usize) -> Notebook {
        let id = self.next_id("json");
        let mut nb = Notebook::new(id, format!("json-ds-{idx}"));
        let mut doomed = false;
        nb.push_cell(self.import_cell(Archetype::Json, &mut doomed));

        let n = self.rng.random_range(5..20);
        let entities = self.tables.entities(n);
        let records: Vec<serde_json::Value> = entities
            .iter()
            .enumerate()
            .map(|(i, e)| {
                serde_json::json!({
                    "id": e.id,
                    "profile": {"name": e.name, "sector": e.category},
                    "metrics": {"score": (i as f64) * 1.5 + 3.0},
                })
            })
            .collect();
        let content = serde_json::Value::Array(records).to_string();
        let path = format!("api_dump_{idx}.json");
        let doom_file =
            self.cfg.plant_failures && !doomed && self.rng.random_bool(0.4);
        if !doom_file {
            nb.add_file(path.clone(), content);
        }
        let read_path =
            if doom_file { format!("/tmp/private/{path}") } else { path };
        nb.push_cell(Cell::code(vec![Stmt::Assign {
            var: "df".into(),
            expr: Expr::JsonNormalize { path: read_path, record_path: None },
        }]));
        nb
    }

    /// A mixed pipeline notebook: the next-operator training signal.
    fn flow_notebook(&mut self, idx: usize) -> Notebook {
        let id = self.next_id("flow");
        let mut nb = Notebook::new(id, format!("flow-ds-{idx}"));
        let mut doomed = false;
        nb.push_cell(self.import_cell(Archetype::Flow, &mut doomed));

        // 20% of pipelines start on a wide pivot-shaped table; the rest on a
        // fact table (with an optional dimension table for joins).
        if self.rng.random_bool(0.2) {
            self.flow_from_wide(&mut nb, doomed);
        } else {
            self.flow_from_fact(&mut nb, doomed);
        }
        nb
    }

    fn flow_from_wide(&mut self, nb: &mut Notebook, doomed: bool) {
        let wide = self.rng.random_range(4..15);
        let table = self.tables.wide_pivot_table(wide);
        let doom_file = doomed && self.rng.random_bool(0.5);
        let fname = format!("matrix_{}.csv", self.serial);
        let (path, md) =
            self.plant_file(nb, &fname, write_csv_string(&table.df), doom_file);
        let mut c = Cell::code(vec![Stmt::Assign {
            var: "wide".into(),
            expr: Expr::ReadCsv { path },
        }]);
        c.markdown = md;
        nb.push_cell(c);
        // Wide tables overwhelmingly get melted first (the table-state
        // signal: input "looks like" a pivot table → Unpivot next, §5).
        let has_nulls = table.df.columns().iter().any(|c| c.null_count() > 0);
        let mut frame = "wide".to_string();
        if has_nulls && self.rng.random_bool(0.35) {
            nb.push_cell(Cell::code(vec![Stmt::Assign {
                var: "filled".into(),
                expr: Expr::FillNa { frame: frame.clone(), value: FillValue::Float(0.0) },
            }]));
            frame = "filled".into();
        }
        nb.push_cell(Cell::code(vec![Stmt::Assign {
            var: "long".into(),
            expr: Expr::Melt {
                frame,
                id_vars: table.meta.dim_cols.clone(),
                value_vars: table.meta.collapse_cols.clone(),
                var_name: "period".into(),
                value_name: "value".into(),
            },
        }]));
        if self.rng.random_bool(0.6) {
            nb.push_cell(Cell::code(vec![Stmt::Assign {
                var: "agg".into(),
                expr: Expr::GroupBy {
                    frame: "long".into(),
                    keys: vec![table.meta.dim_cols[0].clone()],
                    aggs: vec![("value".into(), Agg::Sum)],
                },
            }]));
        }
    }

    fn flow_from_fact(&mut self, nb: &mut Notebook, doomed: bool) {
        let n = self.rng.random_range(8..20);
        let entities = self.tables.entities(n);
        let fact = self.tables.fact_table(&entities);
        let doom_file = doomed && self.rng.random_bool(0.5);
        let fname = format!("events_{}.csv", self.serial);
        let (path, md) =
            self.plant_file(nb, &fname, write_csv_string(&fact.df), doom_file);
        let mut c = Cell::code(vec![Stmt::Assign {
            var: "df0".into(),
            expr: Expr::ReadCsv { path },
        }]);
        c.markdown = md;
        nb.push_cell(c);

        let mut dims = fact.meta.dim_cols.clone();
        let mut measures = fact.meta.measure_cols.clone();
        let mut has_nulls = fact.df.columns().iter().any(|c| c.null_count() > 0);
        let mut frame = "df0".to_string();
        let mut var_serial = 0usize;
        let mut prev_op: Option<&'static str> = None;
        let mut pivoted = false;
        let mut joined = false;
        let steps = self.rng.random_range(2..=6);

        for _ in 0..steps {
            // Candidate weights: Table 10 marginals × state modifiers ×
            // sequence-correlation boosts.
            let mut cand: Vec<(&'static str, f64)> = Vec::new();
            if !pivoted {
                if !dims.is_empty() && !measures.is_empty() {
                    let mut w = 0.33;
                    if prev_op == Some("merge") {
                        w *= 2.0; // join → aggregate
                    }
                    cand.push(("groupby", w));
                }
                if !joined {
                    cand.push(("merge", 0.28));
                }
                cand.push(("concat", 0.30));
                if dims.len() >= 2 && !measures.is_empty() {
                    let mut w = 0.02;
                    if prev_op == Some("groupby") {
                        w *= 3.0; // aggregate → cross-tab
                    }
                    cand.push(("pivot", w));
                }
            }
            let null_boost = if has_nulls { 2.0 } else { 0.35 };
            let mut w_drop = 0.16 * null_boost;
            let mut w_fill = 0.14 * null_boost;
            if prev_op == Some("dropna") {
                w_fill *= 0.2;
            }
            if prev_op == Some("fillna") {
                w_drop *= 0.2;
            }
            cand.push(("dropna", w_drop));
            cand.push(("fillna", w_fill));

            let total: f64 = cand.iter().map(|(_, w)| w).sum();
            let mut roll = self.rng.random_range(0.0..total);
            let mut pick = cand[0].0;
            for (op, w) in &cand {
                if roll < *w {
                    pick = op;
                    break;
                }
                roll -= w;
            }

            var_serial += 1;
            let var = format!("df{var_serial}");
            match pick {
                "groupby" => {
                    let key = dims[self.rng.random_range(0..dims.len())].clone();
                    let m = measures[self.rng.random_range(0..measures.len())].clone();
                    nb.push_cell(Cell::code(vec![Stmt::Assign {
                        var: var.clone(),
                        expr: Expr::GroupBy {
                            frame: frame.clone(),
                            keys: vec![key.clone()],
                            aggs: vec![(m.clone(), Agg::Sum)],
                        },
                    }]));
                    dims = vec![key];
                    measures = vec![m];
                    has_nulls = false;
                }
                "merge" => {
                    // Mint a dimension table joinable on the entity key.
                    let dim =
                        self.tables.dimension_table(&entities, "entity_id");
                    let dname = format!("dim_{}.csv", self.serial);
                    let (dpath, dmd) =
                        self.plant_file(nb, &dname, write_csv_string(&dim.df), false);
                    let mut cc = Cell::code(vec![Stmt::Assign {
                        var: "dim".into(),
                        expr: Expr::ReadCsv { path: dpath },
                    }]);
                    cc.markdown = dmd;
                    nb.push_cell(cc);
                    let left_key = fact.meta.key_cols[0].clone();
                    // Only valid while the key survives in the frame.
                    if !dims.contains(&left_key) {
                        var_serial -= 1;
                        continue;
                    }
                    nb.push_cell(Cell::code(vec![Stmt::Assign {
                        var: var.clone(),
                        expr: Expr::Merge {
                            left: frame.clone(),
                            right: "dim".into(),
                            left_on: vec![left_key.clone()],
                            right_on: vec!["entity_id".into()],
                            how: autosuggest_dataframe::ops::JoinType::Inner,
                        },
                    }]));
                    // Columns shared by both sides get _x/_y suffixes in the
                    // merge output; keep downstream references valid.
                    let dim_names: Vec<&str> =
                        dim.df.column_names().into_iter().collect();
                    let dim_owned: Vec<String> =
                        dim_names.iter().map(|s| s.to_string()).collect();
                    for d in dims.iter_mut() {
                        if dim_owned.contains(d) && *d != left_key {
                            *d = format!("{d}_x");
                        }
                    }
                    for m in measures.iter_mut() {
                        if dim_owned.contains(m) {
                            *m = format!("{m}_x");
                        }
                    }
                    dims.push("name".into());
                    joined = true;
                }
                "concat" => {
                    nb.push_cell(Cell::code(vec![Stmt::Assign {
                        var: var.clone(),
                        expr: Expr::Concat { frames: vec![frame.clone(), frame.clone()] },
                    }]));
                }
                "pivot" => {
                    let header = dims
                        .iter()
                        .find(|d| *d == "year" || *d == "quarter")
                        .cloned()
                        .or_else(|| dims.last().cloned())
                        .unwrap_or_else(|| "year".to_string());
                    let index: Vec<String> =
                        dims.iter().filter(|d| **d != header).cloned().collect();
                    if index.is_empty() {
                        var_serial -= 1;
                        continue;
                    }
                    nb.push_cell(Cell::code(vec![Stmt::Assign {
                        var: var.clone(),
                        expr: Expr::Pivot {
                            frame: frame.clone(),
                            index,
                            header: vec![header],
                            values: measures[0].clone(),
                            agg: Agg::Sum,
                        },
                    }]));
                    pivoted = true;
                }
                "dropna" => {
                    nb.push_cell(Cell::code(vec![Stmt::Assign {
                        var: var.clone(),
                        expr: Expr::DropNa {
                            frame: frame.clone(),
                            how_all: false,
                            subset: None,
                        },
                    }]));
                    has_nulls = false;
                }
                "fillna" => {
                    nb.push_cell(Cell::code(vec![Stmt::Assign {
                        var: var.clone(),
                        expr: Expr::FillNa {
                            frame: frame.clone(),
                            value: FillValue::Float(0.0),
                        },
                    }]));
                    has_nulls = false;
                }
                _ => unreachable!("unknown op"),
            }
            frame = var;
            prev_op = Some(pick);
        }
    }
}

/// Local alias to keep `join_notebook_for`'s signature readable.
type Vec1 = Notebook;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{ReplayEngine, ReplayOutcome};

    #[test]
    fn notebook_ids_parse_back_to_scenario_and_operator() {
        assert_eq!(scenario_of("nb-join-00012"), Some("join"));
        assert_eq!(scenario_of("nb-groupby-00001"), Some("groupby"));
        assert_eq!(scenario_of("weird"), None);
        assert_eq!(primary_op("nb-unpivot-00003"), Some(OpKind::Melt));
        assert_eq!(primary_op("nb-flow-00004"), None);
    }

    #[test]
    fn small_corpus_generates() {
        let corpus = CorpusGenerator::new(CorpusConfig::small(1)).generate();
        assert!(corpus.notebooks.len() >= 150);
        // Unique ids.
        let ids: std::collections::HashSet<_> =
            corpus.notebooks.iter().map(|n| &n.id).collect();
        assert_eq!(ids.len(), corpus.notebooks.len());
        // Every id parses back to the archetype that generated it.
        let scenarios: std::collections::BTreeSet<&str> =
            corpus.notebooks.iter().filter_map(|nb| scenario_of(&nb.id)).collect();
        let all = ["flow", "groupby", "join", "json", "pivot", "unpivot"];
        assert_eq!(scenarios, all.into_iter().collect());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CorpusGenerator::new(CorpusConfig::small(7)).generate();
        let b = CorpusGenerator::new(CorpusConfig::small(7)).generate();
        assert_eq!(a.notebooks.len(), b.notebooks.len());
        for (x, y) in a.notebooks.iter().zip(&b.notebooks) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.cells.len(), y.cells.len());
        }
    }

    #[test]
    fn replay_succeeds_on_a_healthy_fraction() {
        let corpus = CorpusGenerator::new(CorpusConfig::small(3)).generate();
        let engine = ReplayEngine::new(corpus.repository.clone());
        let mut ok = 0;
        let mut exec_errors = Vec::new();
        for nb in &corpus.notebooks {
            let report = engine.replay(nb);
            match report.outcome {
                ReplayOutcome::Success => ok += 1,
                ReplayOutcome::ExecutionError(e) => exec_errors.push((nb.id.clone(), e)),
                _ => {}
            }
        }
        let frac = ok as f64 / corpus.notebooks.len() as f64;
        // Planted unrecoverable failures put success in a Table-2-like band.
        assert!(
            (0.25..=0.85).contains(&frac),
            "replay success fraction {frac}; exec errors: {exec_errors:?}"
        );
        // Execution errors (bugs in generated programs) must be rare.
        assert!(
            exec_errors.len() <= corpus.notebooks.len() / 20,
            "too many execution errors: {exec_errors:?}"
        );
    }

    #[test]
    fn without_failure_planting_everything_replays() {
        let mut cfg = CorpusConfig::small(5);
        cfg.plant_failures = false;
        let corpus = CorpusGenerator::new(cfg).generate();
        let engine = ReplayEngine::new(corpus.repository.clone());
        for nb in &corpus.notebooks {
            let report = engine.replay(nb);
            assert_eq!(
                report.outcome,
                ReplayOutcome::Success,
                "notebook {} failed: {:?}",
                nb.id,
                report.outcome
            );
        }
    }

    #[test]
    fn flow_notebooks_produce_sequences() {
        let mut cfg = CorpusConfig::small(11);
        cfg.plant_failures = false;
        cfg.join_notebooks = 0;
        cfg.groupby_notebooks = 0;
        cfg.pivot_notebooks = 0;
        cfg.unpivot_notebooks = 0;
        cfg.json_notebooks = 0;
        cfg.flow_notebooks = 20;
        let corpus = CorpusGenerator::new(cfg).generate();
        let engine = ReplayEngine::new(corpus.repository.clone());
        let mut seq_lens = Vec::new();
        for nb in &corpus.notebooks {
            let report = engine.replay(nb);
            assert_eq!(report.outcome, ReplayOutcome::Success, "{}", nb.id);
            seq_lens.push(report.op_sequence().count());
        }
        assert!(seq_lens.iter().any(|&l| l >= 3), "lens {seq_lens:?}");
    }
}
