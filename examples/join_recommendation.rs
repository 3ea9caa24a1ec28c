//! The Fig. 5 scenario: recommend join columns for two book tables where
//! naive value-overlap picks the wrong (integer) pair.
//!
//! ```text
//! cargo run --release --example join_recommendation
//! ```

use auto_suggest::baselines::join::{JoinBaseline, MaxOverlap};
use auto_suggest::core::{AutoSuggest, AutoSuggestConfig};
use auto_suggest::dataframe::{DataFrame, Value};
use auto_suggest::features::{enumerate_join_candidates, join_features_batch};

fn books() -> (DataFrame, DataFrame) {
    let left = DataFrame::from_columns(vec![
        (
            "title",
            ["The Overstory", "Educated", "Becoming", "Circe", "Milkman"]
                .iter()
                .map(|s| Value::Str((*s).into()))
                .collect(),
        ),
        ("rank_on_list", (1..=5).map(Value::Int).collect()),
        (
            "weeks",
            vec![Value::Int(3), Value::Int(11), Value::Int(29), Value::Int(7), Value::Int(2)],
        ),
    ])
    .unwrap();
    let right = DataFrame::from_columns(vec![
        (
            "title_on_list",
            ["Becoming", "Circe", "The Overstory", "There There"]
                .iter()
                .map(|s| Value::Str((*s).into()))
                .collect(),
        ),
        ("weeks_on_list", (1..=4).map(Value::Int).collect()),
        (
            "publisher",
            ["Crown", "Little Brown", "Norton", "Knopf"]
                .iter()
                .map(|s| Value::Str((*s).into()))
                .collect(),
        ),
    ])
    .unwrap();
    (left, right)
}

fn main() {
    println!("Training Auto-Suggest...");
    let system = AutoSuggest::train(AutoSuggestConfig::fast(11));
    let model = system.models.join.as_ref().expect("join model");

    let (left, right) = books();
    println!("\nLeft table:\n{left}\nRight table:\n{right}");

    let cands = enumerate_join_candidates(&left, &right);
    println!("{} join candidates survive pruning", cands.len());

    println!("\nAuto-Suggest ranking:");
    for s in model.suggest(&left, &right, 3) {
        println!("  {:?} = {:?}  (score {:.3})", s.left_cols, s.right_cols, s.score);
    }

    // The Fig. 5 trap: weeks_on_list {1..4} is fully contained in
    // rank_on_list {1..5}, so overlap alone prefers the integer pair.
    let feats = join_features_batch(&left, &right, &cands);
    let order = MaxOverlap.rank(&left, &right, &cands, &feats);
    let top = &cands[order[0]];
    println!(
        "\nmax-overlap instead picks: {:?} = {:?}",
        top.left_cols
            .iter()
            .map(|&i| left.column_at(i).name())
            .collect::<Vec<_>>(),
        top.right_cols
            .iter()
            .map(|&i| right.column_at(i).name())
            .collect::<Vec<_>>(),
    );
    println!("(the learned model recognises string titles as the intended key)");
}
