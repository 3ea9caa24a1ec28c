//! Synthetic table generation.
//!
//! The corpus substitute must plant the statistical structure the paper
//! observes in real notebooks, because that structure is what the
//! predictors learn:
//!
//! * dimension columns are low-cardinality, string-ish or small-range
//!   numeric (years), and sit to the *left*; measures are high-cardinality
//!   floats to the *right* (§4.2's features);
//! * key columns are near-unique and left-most, while decoy integer columns
//!   (ranks, counts) produce *accidental containment* (Fig. 5 / Example 1);
//! * functional dependencies tie entity attributes together
//!   (company → sector), which drives pivot emptiness (Fig. 8);
//! * wide pivot-shaped tables carry a homogeneous block of collapsible
//!   columns (years, months, countries) next to a few id columns (Fig. 11);
//! * only ~68% of joins are strict foreign keys; the rest are ad-hoc with
//!   partial overlap (§6.5.1), and ~78% of joins are inner (§6.5.2).

use autosuggest_dataframe::ops::JoinType;
use autosuggest_dataframe::{Column, DataFrame, Value};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};

/// Vocabulary pools the generator draws names and values from.
const SECTORS: [&str; 12] = [
    "Aerospace", "Business Services", "Consumer Staples", "Utilities",
    "Energy", "Finance", "Healthcare", "Materials", "Retail",
    "Technology", "Telecom", "Transport",
];
const COMPANY_WORDS: [&str; 18] = [
    "Aerojet", "Astro", "Harte", "Cine", "Yield", "York", "Boeing", "Delta",
    "Nimbus", "Orion", "Pioneer", "Quantum", "Ridge", "Solar", "Titan",
    "Vertex", "Willow", "Zephyr",
];
const COMPANY_SUFFIX: [&str; 6] = ["Corp", "Inc", "Group", "Ltd", "Holdings", "Co"];
const REGIONS: [&str; 8] = [
    "North", "South", "East", "West", "Central", "Pacific", "Atlantic", "Mountain",
];
#[allow(dead_code)] // reserved for future table archetypes
const PRODUCTS: [&str; 10] = [
    "widget", "gadget", "module", "sensor", "panel", "filter", "valve",
    "rotor", "cable", "switch",
];
const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct",
    "Nov", "Dec",
];
const COUNTRIES: [&str; 10] = [
    "USA", "Canada", "Mexico", "Brazil", "Germany", "France", "Japan",
    "China", "India", "Australia",
];
/// Dimension column-name pool (drives the *col-name-freq* prior).
const DIM_NAMES: [&str; 8] = [
    "sector", "region", "category", "product", "department", "country",
    "segment", "status",
];
/// Measure column-name pool.
const MEASURE_NAMES: [&str; 10] = [
    "revenue", "profit", "sales", "price", "amount", "score", "market_cap",
    "cost", "units", "balance",
];

/// An entity shared between joinable tables, with FD-linked attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Entity {
    pub id: String,
    pub name: String,
    pub category: String,
}

/// What role the generator assigned to each column — the ground truth the
/// notebook author "knows" when writing operator calls.
#[derive(Debug, Clone, Default)]
pub struct TableMeta {
    /// Near-unique identifying column(s).
    pub key_cols: Vec<String>,
    /// Dimension (GroupBy-able) columns, including keys.
    pub dim_cols: Vec<String>,
    /// Measure (aggregatable) columns.
    pub measure_cols: Vec<String>,
    /// For wide pivot-shaped tables: the block of columns an Unpivot should
    /// collapse.
    pub collapse_cols: Vec<String>,
}

/// A generated table plus its role metadata.
#[derive(Debug, Clone)]
pub struct GenTable {
    pub df: DataFrame,
    pub meta: TableMeta,
}

/// A generated join scenario: two tables plus the author's ground truth.
#[derive(Debug, Clone)]
pub struct JoinCase {
    pub left: GenTable,
    pub right: GenTable,
    pub left_on: Vec<String>,
    pub right_on: Vec<String>,
    pub how: JoinType,
}

/// Range of entity counts of a join scenario's entity pool.
const ENTITIES: std::ops::RangeInclusive<usize> = 8..=30;
/// Range of the year span of a fact table's temporal dimension.
const YEARS: std::ops::RangeInclusive<usize> = 2..=5;

/// Seeded generator of realistic tables and join scenarios.
pub struct TableGenerator {
    rng: StdRng,
    serial: u64,
}

impl TableGenerator {
    pub fn new(seed: u64) -> Self {
        TableGenerator { rng: StdRng::seed_from_u64(seed), serial: 0 }
    }

    fn next_serial(&mut self) -> u64 {
        self.serial += 1;
        self.serial
    }

    /// Generate a pool of entities with FD-linked attributes
    /// (id → name → category).
    pub fn entities(&mut self, n: usize) -> Vec<Entity> {
        let serial = self.next_serial();
        let mut out: Vec<Entity> = (0..n)
            .map(|i| {
                let word = COMPANY_WORDS[self.rng.random_range(0..COMPANY_WORDS.len())];
                let suffix = COMPANY_SUFFIX[self.rng.random_range(0..COMPANY_SUFFIX.len())];
                Entity {
                    id: format!("E{serial:03}{i:03}"),
                    name: format!("{word} {suffix} {i}"),
                    category: SECTORS[self.rng.random_range(0..SECTORS.len())].to_string(),
                }
            })
            .collect();
        // Shuffle so id columns are not accidentally sorted (sorted-ness
        // must be a weak signal, as in real tables).
        use rand::seq::SliceRandom;
        out.shuffle(&mut self.rng);
        out
    }

    /// A fact table: FD-linked dimension columns on the left (category,
    /// entity id, entity name), a temporal dimension, then measures on the
    /// right. Row = entity × period (optionally × quarter).
    pub fn fact_table(&mut self, entities: &[Entity]) -> GenTable {
        let years = self.rng.random_range(YEARS);
        let base_year = 2004 + self.rng.random_range(0..10) as i64;
        let with_quarter = self.rng.random_bool(0.4);
        let n_measures = self.rng.random_range(1..=3);
        let mut measure_names = self.pick_distinct(&MEASURE_NAMES, n_measures);
        // Column-name variation: notebooks rarely reuse canonical names, so
        // name-frequency priors (SQL-history, col-name-freq) see many
        // unknown names and must fall back to content signals.
        let serial_tag = self.serial % 100;
        for name in measure_names.iter_mut() {
            if self.rng.random_bool(0.35) {
                let suffix = ["_usd", "_total", "_fy", "_adj", "_q", "_est"]
                    [self.rng.random_range(0..6)];
                name.push_str(suffix);
            } else if self.rng.random_bool(0.3) {
                // Dataset-specific names the training prior has never seen.
                name.push_str(&format!("_{serial_tag}"));
            }
        }
        // Measure flavours: floats, integers (units sold), and low-
        // cardinality ratings (the trap for cardinality heuristics).
        let measure_flavours: Vec<u8> = (0..n_measures)
            .map(|_| self.rng.random_range(0..10))
            .collect();
        let extra_dim = self.rng.random_bool(0.6);
        // One draw for both dimension names so they never collide.
        let dim_names = self.pick_distinct(&DIM_NAMES, 2);
        let (mut cat_name, mut extra_dim_name) =
            (dim_names[0].clone(), dim_names[1].clone());
        // Numeric-coded category: ~40% of tables store the category as an
        // integer code ("sector_id") — a *numeric dimension*, the case that
        // defeats type-based dimension/measure heuristics (Table 6).
        let coded_cat = self.rng.random_bool(0.5);
        if coded_cat {
            cat_name.push_str("_id");
        } else if self.rng.random_bool(0.45) {
            // Name variation for string dims too (weakens name priors);
            // serial suffixes emulate dataset-specific vocabulary.
            if self.rng.random_bool(0.5) {
                cat_name.push_str(["_name", "_code", "_grp"][self.rng.random_range(0..3)]);
            } else {
                cat_name.push_str(&format!("_{}", self.serial % 100));
            }
        }
        if self.rng.random_bool(0.45) {
            extra_dim_name.push_str(["_name", "_code", "_grp"][self.rng.random_range(0..3)]);
        }

        let id_col = self.key_name();
        let mut cat = Vec::new();
        let mut id = Vec::new();
        let mut name = Vec::new();
        let mut year = Vec::new();
        let mut quarter = Vec::new();
        let mut extra = Vec::new();
        let mut measures: Vec<Vec<Value>> = vec![Vec::new(); n_measures];

        for e in entities {
            // Per-entity base levels so measures correlate with entities.
            let bases: Vec<f64> = (0..n_measures)
                .map(|_| self.rng.random_range(100.0..5000.0))
                .collect();
            for y in 0..years {
                let periods = if with_quarter { 4 } else { 1 };
                for q in 0..periods {
                    cat.push(if coded_cat {
                        let code = SECTORS
                            .iter()
                            .position(|c| *c == e.category)
                            .unwrap_or(0) as i64;
                        Value::Int(100 + code)
                    } else {
                        Value::Str(e.category.clone())
                    });
                    id.push(Value::Str(e.id.clone()));
                    name.push(Value::Str(e.name.clone()));
                    year.push(Value::Int(base_year + y as i64));
                    if with_quarter {
                        quarter.push(Value::Str(format!("Q{}", q + 1)));
                    }
                    if extra_dim {
                        // Independent dimension: drawn per row, not per
                        // entity, so it carries no FD to the entity cluster
                        // (a valid standalone pivot header).
                        extra.push(Value::Str(
                            REGIONS[self.rng.random_range(0..REGIONS.len())].to_string(),
                        ));
                    }
                    for ((m, base), flavour) in
                        measures.iter_mut().zip(&bases).zip(&measure_flavours)
                    {
                        let trend = 1.0 + 0.05 * y as f64;
                        let noise = self.rng.random_range(0.9..1.1);
                        let v = base * trend * noise;
                        m.push(match flavour {
                            0..=5 => Value::Float((v * 100.0).round() / 100.0),
                            6..=7 => Value::Int(v.round() as i64),
                            // Rating-like: 1.0..5.0 in half steps — few
                            // distinct values despite being a measure.
                            _ => Value::Float(
                                ((v % 9.0) / 9.0 * 8.0).round() / 2.0 + 1.0,
                            ),
                        });
                    }
                }
            }
        }
        let n_rows = id.len();

        // Dimension block with a randomised key position: real tables do
        // not always lead with the key, so left-ness must stay a signal,
        // not an oracle.
        let mut dim_block: Vec<Column> = vec![
            Column::new(id_col.clone(), id),
            Column::new(cat_name.clone(), cat),
            Column::new("company", name),
        ];
        let swap = self.rng.random_range(0..3);
        dim_block.swap(0, swap);
        let mut cols: Vec<Column> = dim_block;
        cols.push(Column::new("year", year));
        if with_quarter {
            cols.push(Column::new("quarter", quarter));
        }
        if extra_dim {
            cols.push(Column::new(extra_dim_name.clone(), extra));
        }
        // Integer decoy: a row-id/rank column whose values accidentally
        // contain every small-int column of other tables (the Fig. 5 trap).
        let with_decoy = self.rng.random_bool(0.6);
        if with_decoy {
            let decoy_name = ["row_id", "rank", "index", "position"]
                [self.rng.random_range(0..4)];
            let at = self.rng.random_range(0..=cols.len().min(2));
            cols.insert(
                at,
                Column::new(
                    decoy_name,
                    (1..=n_rows as i64).map(Value::Int).collect(),
                ),
            );
        }
        for (vals, mname) in measures.into_iter().zip(&measure_names) {
            cols.push(Column::new(mname.clone(), vals));
        }
        // In ~45% of tables, interleave the measures among the dimensions:
        // real tables do not keep a clean dims-left/measures-right layout,
        // so pure position cannot rescue a ranking (it stays a weak prior).
        if self.rng.random_bool(0.45) {
            for _ in 0..n_measures {
                let from = cols.len() - 1;
                let col = cols.remove(from);
                let to = self.rng.random_range(0..cols.len());
                cols.insert(to, col);
            }
        }
        // Occasionally sprinkle nulls into a measure (dropna/fillna fodder).
        let df = {
            let mut df = DataFrame::new(cols).unwrap_or_else(|_| DataFrame::empty());
            if self.rng.random_bool(0.4) {
                let target = df.num_columns() - 1;
                let rows = df.num_rows();
                let mut count = (rows / 12).max(1);
                let col = &mut df_column_mut(&mut df, target);
                while count > 0 {
                    let at = self.rng.random_range(0..rows);
                    col[at] = Value::Null;
                    count -= 1;
                }
            }
            df
        };

        let mut dim_cols = vec![cat_name, id_col.clone(), "company".into(), "year".into()];
        if with_quarter {
            dim_cols.push("quarter".into());
        }
        if extra_dim {
            dim_cols.push(extra_dim_name);
        }
        GenTable {
            df,
            meta: TableMeta {
                key_cols: vec![id_col],
                dim_cols,
                measure_cols: measure_names,
                collapse_cols: vec![],
            },
        }
    }

    /// A dimension table over (a superset or subset of) the given entities:
    /// key + FD attributes + a small decoy integer column whose values are
    /// accidentally contained in fact-table ranks.
    pub fn dimension_table(&mut self, entities: &[Entity], key_name: &str) -> GenTable {
        self.dimension_table_with_dups(entities, key_name, false)
    }

    /// Like [`TableGenerator::dimension_table`], optionally duplicating a
    /// fraction of key rows — the ad-hoc, non-curated lookup tables that
    /// break strict-FK methods (§6.5.1: only 68% of notebook joins are
    /// strict foreign keys).
    pub fn dimension_table_with_dups(
        &mut self,
        entities: &[Entity],
        key_name: &str,
        with_dups: bool,
    ) -> GenTable {
        let mut id = Vec::new();
        let mut name = Vec::new();
        let mut cat = Vec::new();
        let mut founded = Vec::new();
        let mut rank = Vec::new();
        for (i, e) in entities.iter().enumerate() {
            let copies = if with_dups && self.rng.random_bool(0.3) { 2 } else { 1 };
            for _ in 0..copies {
                id.push(Value::Str(e.id.clone()));
                name.push(Value::Str(e.name.clone()));
                cat.push(Value::Str(e.category.clone()));
                founded.push(Value::Int(1900 + self.rng.random_range(0..120) as i64));
                rank.push(Value::Int(rank.len() as i64 + 1));
                let _ = i;
            }
        }
        let decoy_name = ["weeks_on_list", "rating", "tier", "rank"]
            [self.rng.random_range(0..4)];
        // Shuffle the leading columns: dimension tables do not always lead
        // with their key, so candidate rankers cannot treat position 0 as
        // an oracle.
        let mut lead: Vec<Column> = vec![
            Column::new(key_name, id),
            Column::new("name", name),
            Column::new("sector", cat),
        ];
        let swap = self.rng.random_range(0..3);
        lead.swap(0, swap);
        let mut cols = lead;
        cols.push(Column::new("founded", founded));
        cols.push(Column::new(decoy_name, rank));
        let df = DataFrame::new(cols).unwrap_or_else(|_| DataFrame::empty());
        GenTable {
            df,
            meta: TableMeta {
                key_cols: vec![key_name.to_string()],
                dim_cols: vec![key_name.to_string(), "name".into(), "sector".into()],
                measure_cols: vec!["founded".into(), decoy_name.into()],
                collapse_cols: vec![],
            },
        }
    }

    /// Append a *string trap* pair to a join case: a near-unique serial
    /// column ("code") with heavily overlapping values placed toward the
    /// right of both tables. Containment-driven rankers fall for it; the
    /// left-most true key and name semantics survive.
    fn plant_code_trap(&mut self, case: &mut JoinCase) {
        let serial = self.next_serial();
        let make = |rows: usize, offset: usize| -> Vec<Value> {
            (0..rows)
                .map(|r| Value::Str(format!("C{serial:03}-{:04}", r + offset)))
                .collect()
        };
        let lrows = case.left.df.num_rows();
        let rrows = case.right.df.num_rows();
        // Offset a little so containment is high but imperfect.
        let l = Column::new("code", make(lrows, 0));
        let r = Column::new("batch_ref", make(rrows, self.rng.random_range(0..3)));
        let _ = case.left.df.add_column(l);
        let _ = case.right.df.add_column(r);
    }

    /// A wide pivot-shaped table: a few id columns plus a homogeneous block
    /// of collapsible columns (years, months, or countries) — Fig. 11's
    /// input shape. `wide` controls the block width.
    pub fn wide_pivot_table(&mut self, wide: usize) -> GenTable {
        assert!(wide >= 2);
        let n_rows = self.rng.random_range(10..40);
        let serial = self.next_serial();
        let block_kind = self.rng.random_range(0..3);
        let block_names: Vec<String> = match block_kind {
            0 => (0..wide).map(|i| (2000 + i as i64).to_string()).collect(),
            1 => (0..wide).map(|i| MONTHS[i % 12].to_string()).collect(),
            _ => (0..wide)
                .map(|i| COUNTRIES[i % COUNTRIES.len()].to_string())
                .collect(),
        };
        // Month/country names repeat past their pool size; disambiguate.
        let block_names: Vec<String> = block_names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                if block_names[..i].contains(n) {
                    format!("{n}_{i}")
                } else {
                    n.clone()
                }
            })
            .collect();

        let mut cols: Vec<Column> = Vec::new();
        let n_ids = self.rng.random_range(1..=3);
        let mut id_names = Vec::new();
        for k in 0..n_ids {
            let name = match k {
                0 => "name".to_string(),
                1 => "sector".to_string(),
                _ => "code".to_string(),
            };
            let vals: Vec<Value> = (0..n_rows)
                .map(|i| match k {
                    0 => Value::Str(format!(
                        "{} {}",
                        COMPANY_WORDS[(i + serial as usize) % COMPANY_WORDS.len()],
                        i
                    )),
                    1 => Value::Str(SECTORS[i % SECTORS.len()].to_string()),
                    _ => Value::Str(format!("K{serial:02}{i:03}")),
                })
                .collect();
            id_names.push(name.clone());
            cols.push(Column::new(name, vals));
        }
        // Trap 1: a *numeric* id column among the ids. Type- and
        // pattern-based baselines absorb it into the collapse block.
        if self.rng.random_bool(0.5) {
            let vals: Vec<Value> = (1..=n_rows as i64).map(Value::Int).collect();
            id_names.push("account_id".to_string());
            cols.push(Column::new("account_id", vals));
        }
        let mut block_values: Vec<Vec<f64>> = vec![Vec::new(); block_names.len()];
        for row_block in block_values.iter_mut() {
            for _ in 0..n_rows {
                row_block.push((self.rng.random_range(100.0..9000.0) * 100.0_f64).round() / 100.0);
            }
        }
        for (bn, vals) in block_names.iter().zip(&block_values) {
            let vals: Vec<Value> = vals
                .iter()
                .map(|&v| {
                    if self.rng.random_bool(0.05) {
                        Value::Null
                    } else {
                        Value::Float(v)
                    }
                })
                .collect();
            cols.push(Column::new(bn.clone(), vals));
        }
        // Trap 2: a trailing aggregate column ("total") of the same dtype,
        // contiguous with the block but never collapsed by authors. Its
        // value range (~sum of the block) gives the learned model the
        // signal the contiguity heuristic lacks.
        let with_total = self.rng.random_bool(0.4);
        if with_total {
            let totals: Vec<Value> = (0..n_rows)
                .map(|r| {
                    Value::Float(
                        block_values.iter().map(|b| b[r]).sum::<f64>().round(),
                    )
                })
                .collect();
            cols.push(Column::new("total", totals));
        }
        let df = DataFrame::new(cols).unwrap_or_else(|_| DataFrame::empty());
        let mut dim_cols = id_names;
        if with_total {
            dim_cols.push("total".to_string());
        }
        GenTable {
            df,
            meta: TableMeta {
                key_cols: vec![dim_cols[0].clone()],
                dim_cols,
                measure_cols: vec![],
                collapse_cols: block_names,
            },
        }
    }

    /// A complete join scenario with planted ground truth (§4.1 / §6.5.1-2).
    pub fn join_pair(&mut self) -> JoinCase {
        let n = self.rng.random_range(ENTITIES);
        let entities = self.entities(n);

        // 68% strict FK joins; the rest are ad-hoc with partial overlap.
        let strict_fk = self.rng.random_bool(0.68);
        let (left_entities, right_entities): (Vec<Entity>, Vec<Entity>) = if strict_fk {
            // Left references a subset; right covers all.
            let keep = entities
                .iter()
                .filter(|_| self.rng.random_bool(0.8))
                .cloned()
                .collect::<Vec<_>>();
            (if keep.is_empty() { entities.clone() } else { keep }, entities.clone())
        } else {
            // Partial overlap in both directions.
            let left: Vec<Entity> = entities
                .iter()
                .filter(|_| self.rng.random_bool(0.75))
                .cloned()
                .collect();
            let mut right: Vec<Entity> = entities
                .iter()
                .filter(|_| self.rng.random_bool(0.75))
                .cloned()
                .collect();
            // Extra right-only entities that never join.
            let extra = self.rng.random_range(1..6);
            right.extend(self.entities(extra));
            (
                if left.is_empty() { entities.clone() } else { left },
                if right.is_empty() { entities } else { right },
            )
        };

        let mut left = self.fact_table(&left_entities);
        // Half the time the right key shares the left key's name (the FK
        // convention); otherwise it differs entirely (Fig. 2's "device" vs
        // "Model").
        let left_key = left.meta.key_cols[0].clone();
        let right_key = if self.rng.random_bool(0.5) {
            left_key.clone()
        } else {
            ["Model", "company_id", "id", "entity"]
                [self.rng.random_range(0..4)]
            .to_string()
        };
        let mut right =
            self.dimension_table_with_dups(&right_entities, &right_key, !strict_fk);

        // Scenario drives both the tables' shapes and the author's join
        // type (§4.1 / §6.5.2): filtering joins are inner; enriching a
        // large central table keeps its rows (left/outer); size-balanced
        // joins default to inner.
        let scenario: f64 = self.rng.random();
        let how;
        if scenario < 0.25 {
            // Filter: right shrinks to key (+1 attribute).
            let keep: Vec<&str> = vec![right_key.as_str(), "name"];
            if let Ok(selected) = right.df.select(&keep) {
                right.df = selected;
            }
            right.meta.dim_cols.retain(|c| keep.contains(&c.as_str()));
            right.meta.measure_cols.clear();
            how = if self.rng.random_bool(0.95) { JoinType::Inner } else { JoinType::Left };
        } else if scenario < 0.5 {
            // Enrichment: the fact table dwarfs the lookup.
            let r: f64 = self.rng.random();
            how = if r < 0.30 {
                JoinType::Inner
            } else if r < 0.90 {
                JoinType::Left
            } else {
                JoinType::Outer
            };
        } else {
            // Symmetric: subsample the fact side to a comparable size.
            let target = ((right.df.num_rows() as f64)
                * self.rng.random_range(0.6..2.4)) as usize;
            let rows = left.df.num_rows();
            // A fact table can come out smaller than the 5-row floor at
            // large corpus scales; `clamp(5, rows)` would then panic on
            // min > max. Identical to the old clamp whenever rows >= 5.
            let target = target.clamp(5.min(rows), rows);
            // Strided sample so the kept rows still span all entities
            // (a prefix would keep only the first few join keys).
            let idx: Vec<usize> = (0..target).map(|i| i * rows / target).collect();
            left.df = left.df.take(&idx);
            let r: f64 = self.rng.random();
            how = if r < 0.90 {
                JoinType::Inner
            } else if r < 0.96 {
                JoinType::Right
            } else {
                JoinType::Outer
            };
        }

        // ~12% of authors join on the entity *name* instead of the id —
        // both are semantically valid, which caps every method's accuracy
        // (the paper's Auto-Suggest tops out at 0.89, not 1.0). Authors who
        // join on names tend to have name-led tables, so position carries a
        // learnable (but not infallible) hint.
        let name_join = self.rng.random_bool(0.12);
        if name_join && self.rng.random_bool(0.6) {
            // Usually the author had no choice: the two tables do not share
            // an id space, so the name is the only usable key.
            if let Ok(pos) = right.df.column_index(&right_key) {
                for v in right.df.column_at_mut(pos).values_mut() {
                    if let autosuggest_dataframe::Value::Str(id) = v {
                        *id = format!("X{id}");
                    }
                }
            }
        }
        let (left_on, right_on) = if name_join {
            if let Ok(pos) = left.df.column_index("company") {
                let col = left.df.column_at_mut(pos).clone();
                // Move company to the front (remove + reinsert).
                let mut names: Vec<String> =
                    left.df.column_names().iter().map(|s| s.to_string()).collect();
                names.remove(pos);
                names.insert(0, col.name().to_string());
                let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
                if let Ok(selected) = left.df.select(&name_refs) {
                    left.df = selected;
                }
            }
            if let Ok(pos) = right.df.column_index("name") {
                let mut names: Vec<String> =
                    right.df.column_names().iter().map(|s| s.to_string()).collect();
                let moved = names.remove(pos);
                names.insert(0, moved);
                let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
                if let Ok(selected) = right.df.select(&name_refs) {
                    right.df = selected;
                }
            }
            ("company".to_string(), "name".to_string())
        } else {
            (left_key, right_key.clone())
        };
        let mut case = JoinCase {
            left,
            right,
            left_on: vec![left_on],
            right_on: vec![right_on],
            how,
        };
        // A string trap pair in over half the cases (Fig. 5's point:
        // overlap alone is not a reliable signal).
        if self.rng.random_bool(0.55) {
            self.plant_code_trap(&mut case);
        }
        case
    }

    /// Pick `n` distinct strings from a pool.
    fn pick_distinct(&mut self, pool: &[&str], n: usize) -> Vec<String> {
        assert!(n <= pool.len());
        let mut chosen: Vec<&str> = Vec::with_capacity(n);
        while chosen.len() < n {
            let Some(c) = pool.choose(&mut self.rng) else { break };
            if !chosen.contains(c) {
                chosen.push(c);
            }
        }
        chosen.into_iter().map(str::to_string).collect()
    }

    /// Key column name pool.
    fn key_name(&mut self) -> String {
        ["ticker", "customer_id", "device", "symbol", "entity_key"]
            [self.rng.random_range(0..5)]
        .to_string()
    }
}

/// Mutable access to a column's values (generator-internal).
fn df_column_mut(df: &mut DataFrame, idx: usize) -> &mut Vec<Value> {
    // DataFrame keeps columns private; rebuild in place via the public API
    // would clone, so we go through a small internal helper instead.
    df.column_at_mut(idx).values_mut()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosuggest_dataframe::DType;

    #[test]
    fn entities_have_fd_structure() {
        let mut g = TableGenerator::new(1);
        let es = g.entities(20);
        assert_eq!(es.len(), 20);
        let ids: std::collections::HashSet<_> = es.iter().map(|e| &e.id).collect();
        assert_eq!(ids.len(), 20, "entity ids must be unique");
    }

    #[test]
    fn fact_table_layout() {
        let mut g = TableGenerator::new(2);
        let es = g.entities(10);
        let t = g.fact_table(&es);
        // Every dim and measure resolves to a real column.
        let names = t.df.column_names();
        for c in t.meta.dim_cols.iter().chain(&t.meta.measure_cols) {
            assert!(names.iter().any(|n| n == c), "missing column {c}");
        }
        // Measures are numeric (float, integer units, or ratings); the
        // year dim is int.
        for m in &t.meta.measure_cols {
            assert!(t.df.column(m).unwrap().dtype().is_numeric());
        }
        assert_eq!(t.df.column("year").unwrap().dtype(), DType::Int);
        assert!(t.df.num_rows() >= 10);
    }

    #[test]
    fn measures_lean_right_but_interleaving_occurs() {
        let mut g = TableGenerator::new(17);
        let mut mean_dim_pos = 0.0;
        let mut mean_measure_pos = 0.0;
        let mut interleaved = 0;
        let trials = 40;
        for _ in 0..trials {
            let es = g.entities(6);
            let t = g.fact_table(&es);
            let names = t.df.column_names();
            let pos = |c: &String| names.iter().position(|n| n == c).unwrap() as f64;
            let dp: f64 =
                t.meta.dim_cols.iter().map(&pos).sum::<f64>() / t.meta.dim_cols.len() as f64;
            let mp: f64 = t.meta.measure_cols.iter().map(&pos).sum::<f64>()
                / t.meta.measure_cols.len() as f64;
            mean_dim_pos += dp;
            mean_measure_pos += mp;
            let strictly_ordered = t.meta.measure_cols.iter().all(|m| {
                t.meta.dim_cols.iter().all(|d| pos(d) < pos(m))
            });
            if !strictly_ordered {
                interleaved += 1;
            }
        }
        // Measures sit to the right on average (the left-ness signal)...
        assert!(mean_measure_pos > mean_dim_pos);
        // ...but a healthy fraction of tables interleave (position is not
        // an oracle).
        assert!(interleaved >= trials / 5, "only {interleaved} interleaved");
    }

    #[test]
    fn dimension_table_key_is_unique() {
        let mut g = TableGenerator::new(3);
        let es = g.entities(15);
        let d = g.dimension_table(&es, "Model");
        let key = d.df.column("Model").unwrap();
        assert_eq!(key.distinct_count(), 15);
        assert_eq!(d.meta.key_cols, vec!["Model".to_string()]);
    }

    #[test]
    fn wide_pivot_table_has_homogeneous_block() {
        let mut g = TableGenerator::new(4);
        let t = g.wide_pivot_table(8);
        assert_eq!(t.meta.collapse_cols.len(), 8);
        for c in &t.meta.collapse_cols {
            assert_eq!(t.df.column(c).unwrap().dtype(), DType::Float);
        }
        // Every id column precedes the block; a "total" trap, if present,
        // follows it.
        let names = t.df.column_names();
        let first_block = names
            .iter()
            .position(|n| t.meta.collapse_cols.contains(&n.to_string()))
            .unwrap();
        for d in &t.meta.dim_cols {
            let pos = names.iter().position(|n| n == d).unwrap();
            if d == "total" {
                assert!(pos > first_block);
            } else {
                assert!(pos < first_block, "id column {d} must precede the block");
            }
        }
    }

    #[test]
    fn wide_pivot_traps_appear_at_configured_rates() {
        let mut g = TableGenerator::new(14);
        let mut with_total = 0;
        let mut with_numeric_id = 0;
        for _ in 0..60 {
            let t = g.wide_pivot_table(6);
            if t.meta.dim_cols.iter().any(|d| d == "total") {
                with_total += 1;
                // The total column is never part of the collapse block.
                assert!(!t.meta.collapse_cols.contains(&"total".to_string()));
            }
            if t.meta.dim_cols.iter().any(|d| d == "account_id") {
                with_numeric_id += 1;
            }
        }
        assert!(with_total > 8, "totals {with_total}");
        assert!(with_numeric_id > 12, "numeric ids {with_numeric_id}");
    }

    #[test]
    fn adhoc_dimension_tables_can_have_duplicate_keys() {
        let mut g = TableGenerator::new(15);
        let es = g.entities(30);
        let d = g.dimension_table_with_dups(&es, "id", true);
        let key = d.df.column("id").unwrap();
        assert!(key.distinct_count() < d.df.num_rows(), "expected duplicated keys");
    }

    #[test]
    fn join_pair_ground_truth_is_joinable() {
        let mut g = TableGenerator::new(5);
        for _ in 0..10 {
            let case = g.join_pair();
            let l = case.left.df.column(&case.left_on[0]).unwrap();
            let r = case.right.df.column(&case.right_on[0]).unwrap();
            let lset = l.distinct_set();
            let rset = r.distinct_set();
            let overlap = lset.intersection(&rset).count();
            assert!(overlap > 0, "planted join must have overlapping keys");
        }
    }

    #[test]
    fn join_type_distribution_is_mostly_inner() {
        let mut g = TableGenerator::new(6);
        let mut inner = 0;
        let total = 300;
        for _ in 0..total {
            if g.join_pair().how == JoinType::Inner {
                inner += 1;
            }
        }
        let frac = inner as f64 / total as f64;
        assert!((0.60..=0.92).contains(&frac), "inner fraction {frac}");
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = TableGenerator::new(9);
        let mut b = TableGenerator::new(9);
        let ea = a.entities(5);
        let eb = b.entities(5);
        let ta = a.fact_table(&ea);
        let tb = b.fact_table(&eb);
        assert_eq!(ta.df.content_hash(), tb.df.content_hash());
    }
}
