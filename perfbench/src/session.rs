//! Seeded request sessions for the `serve` workload.
//!
//! A session is what one notebook user asks about one fresh set of
//! tables: a table pair that shares a planted join key, plus a wide table
//! of per-period measures. The session asks four questions — join the
//! pair, group the left table, pivot the wide table on its two dimension
//! columns, unpivot the wide table — so its columns repeat within the
//! session (the daemon's column cache hits) and never across sessions
//! (it misses).
//!
//! Row counts span two decades, `MIN_ROWS..=MAX_ROWS` on a log grid. Each
//! block of `BLOCK` consecutive sessions uses every grid size exactly
//! once, in a seeded order, so any whole number of blocks has the same
//! size mix whatever the seed: the seed changes cell values, names and
//! order, not how much work a run holds.

use autosuggest_core::wire::{self, OwnedSuggestRequest};
use autosuggest_dataframe::{DataFrame, Value as Cell};

const MIN_ROWS: usize = 20;
const MAX_ROWS: usize = 2000;
/// Sessions per size block (one session per grid size).
pub const BLOCK: usize = 16;
/// Questions per session, in the order they are asked.
pub const OPS: [&str; 4] = ["join", "groupby", "pivot", "unpivot"];

const KEY_NAMES: [&str; 5] = [
    "customer_id",
    "account_id",
    "order_id",
    "user_id",
    "store_id",
];
const REGIONS: [&str; 6] = ["north", "south", "east", "west", "central", "overseas"];
const SEGMENTS: [&str; 4] = ["retail", "wholesale", "online", "partner"];
const CITIES: [&str; 8] = [
    "oslo", "lima", "pune", "kyiv", "doha", "nice", "ulm", "york",
];

/// One user's session: four request bodies (in `OPS` order), the row
/// count of its tables, and the planted join key.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    pub rows: usize,
    pub key: &'static str,
    pub bodies: [String; 4],
}

/// SplitMix64 step: a small, seedable, platform-independent generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `BLOCK` row counts of one size block, ascending.
fn size_grid() -> [usize; BLOCK] {
    let ratio = (MAX_ROWS as f64 / MIN_ROWS as f64).ln();
    std::array::from_fn(|j| {
        let u = j as f64 / (BLOCK - 1) as f64;
        (MIN_ROWS as f64 * (ratio * u).exp()).round() as usize
    })
}

/// `count` sessions, a pure function of `seed`.
pub fn sessions(seed: u64, count: usize) -> Vec<Session> {
    (0..count)
        .map(|k| {
            let (rows, key, requests) = requests(seed, k);
            Session {
                rows,
                key,
                bodies: requests.map(|r| wire::encode_request(&r.as_request()).to_string()),
            }
        })
        .collect()
}

/// Row count of session `k`: the grid size the seeded shuffle of its
/// block puts at its position.
fn rows_of(seed: u64, k: usize) -> usize {
    let mut rng = seed
        .wrapping_add((k / BLOCK) as u64)
        .wrapping_mul(0x2545_f491_4f6c_dd1d);
    let mut order: [usize; BLOCK] = std::array::from_fn(|j| j);
    for i in (1..BLOCK).rev() {
        let j = (splitmix(&mut rng) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    size_grid()[order[k % BLOCK]]
}

fn pick<'a>(rng: &mut u64, pool: &[&'a str]) -> &'a str {
    pool[(splitmix(rng) % pool.len() as u64) as usize]
}

fn column(rng: &mut u64, rows: usize, mut cell: impl FnMut(&mut u64, usize) -> Cell) -> Vec<Cell> {
    (0..rows).map(|i| cell(rng, i)).collect()
}

fn money(rng: &mut u64) -> Cell {
    Cell::Float((splitmix(rng) % 1_000_000) as f64 / 100.0)
}

fn frame(cols: Vec<(&str, Vec<Cell>)>) -> DataFrame {
    match DataFrame::from_columns(cols) {
        Ok(df) => df,
        Err(e) => unreachable!("session tables are rectangular by construction: {e}"),
    }
}

/// Session `k`'s row count, planted key and four requests (in `OPS`
/// order), rebuilt from `(seed, k)` alone.
pub fn requests(seed: u64, k: usize) -> (usize, &'static str, [OwnedSuggestRequest; 4]) {
    let rows = rows_of(seed, k);
    let rng = &mut (seed ^ (k as u64).wrapping_mul(0xd1b5_4a32_d192_ed03));
    let key = pick(rng, &KEY_NAMES);
    let id_base = (splitmix(rng) % 900_000) as i64 + 100_000;
    let left = frame(vec![
        (key, column(rng, rows, |_, i| Cell::Int(id_base + i as i64))),
        (
            "region",
            column(rng, rows, |r, _| Cell::Str(pick(r, &REGIONS).to_string())),
        ),
        (
            "segment",
            column(rng, rows, |r, _| Cell::Str(pick(r, &SEGMENTS).to_string())),
        ),
        ("amount", column(rng, rows, |r, _| money(r))),
        (
            "quantity",
            column(rng, rows, |r, _| Cell::Int(1 + (splitmix(r) % 40) as i64)),
        ),
    ]);
    // Every right-hand key refers to a left row: a many-to-one lookup.
    let right = frame(vec![
        (
            key,
            column(rng, rows, |r, _| {
                Cell::Int(id_base + (splitmix(r) % rows as u64) as i64)
            }),
        ),
        (
            "city",
            column(rng, rows, |r, _| Cell::Str(pick(r, &CITIES).to_string())),
        ),
        (
            "score",
            column(rng, rows, |r, _| {
                Cell::Float((splitmix(r) % 1000) as f64 / 10.0)
            }),
        ),
    ]);
    let mut wide_cols = vec![
        ("id", column(rng, rows, |_, i| Cell::Int(i as i64 + 1))),
        (
            "region",
            column(rng, rows, |r, _| Cell::Str(pick(r, &REGIONS).to_string())),
        ),
        (
            "year",
            column(rng, rows, |r, _| Cell::Int(2015 + (splitmix(r) % 8) as i64)),
        ),
    ];
    for name in ["q1", "q2", "q3", "q4", "q5", "q6"] {
        wide_cols.push((name, column(rng, rows, |r, _| money(r))));
    }
    let wide = frame(wide_cols);

    let requests = [
        OwnedSuggestRequest::Join {
            left: left.clone(),
            right,
            top_k: 3,
        },
        OwnedSuggestRequest::GroupBy { table: left },
        OwnedSuggestRequest::Pivot {
            table: wide.clone(),
            dims: vec![1, 2],
        },
        OwnedSuggestRequest::Unpivot { table: wide },
    ];
    (rows, key, requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_bodies() {
        assert_eq!(sessions(7, 40), sessions(7, 40));
    }

    #[test]
    fn different_seeds_give_different_bodies() {
        let (a, b) = (sessions(7, 20), sessions(8, 20));
        for (x, y) in a.iter().zip(&b) {
            for (bx, by) in x.bodies.iter().zip(&y.bodies) {
                assert_ne!(bx, by);
            }
        }
    }

    #[test]
    fn every_block_holds_the_whole_size_grid() {
        let grid = size_grid();
        assert_eq!((grid[0], grid[BLOCK - 1]), (MIN_ROWS, MAX_ROWS));
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
        for seed in [1, 2, 99] {
            let all = sessions(seed, 2 * BLOCK);
            for block in all.chunks(BLOCK) {
                let mut rows: Vec<usize> = block.iter().map(|s| s.rows).collect();
                rows.sort_unstable();
                assert_eq!(rows, grid.to_vec());
            }
        }
    }

    #[test]
    fn bodies_decode_to_the_four_questions_over_the_planted_key() {
        for s in sessions(3, 5) {
            let decoded: Vec<OwnedSuggestRequest> = s
                .bodies
                .iter()
                .map(|b| wire::decode_request(&serde_json::from_str(b).unwrap()).unwrap())
                .collect();
            let ops: Vec<&str> = decoded.iter().map(|r| r.op()).collect();
            assert_eq!(ops, OPS);
            let OwnedSuggestRequest::Join { left, right, .. } = &decoded[0] else {
                panic!("first question is a join");
            };
            assert_eq!(left.num_rows(), s.rows);
            assert_eq!(left.column_at(0).name(), s.key);
            assert_eq!(right.column_at(0).name(), s.key);
        }
    }
}
