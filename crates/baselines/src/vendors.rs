//! Stand-ins for the anonymised commercial systems Vendor-A/B/C.
//!
//! The paper cannot name these systems (EULA) and treats them as black
//! boxes; what it does tell us is the *class* of algorithm each exhibits:
//! single-heuristic join-column ranking of varying sophistication
//! (Table 3), an always-inner join-type default (Table 5), and
//! cardinality/type-based GroupBy ranking (Table 6). These white-box
//! stand-ins implement exactly those behaviour classes — see DESIGN.md §1.

use crate::join::JoinBaseline;
use autosuggest_dataframe::ops::JoinType;
use autosuggest_dataframe::{DataFrame, DType};
use autosuggest_features::{JoinCandidate, JoinFeatures};

/// **Vendor-A** (the strongest commercial join recommender, 0.76 prec@1 in
/// Table 3): combines value overlap with key-ness and a type sanity check —
/// a well-engineered single-pass heuristic, but blind to left-ness and
/// range overlap.
pub struct VendorA;

impl JoinBaseline for VendorA {
    fn name(&self) -> &'static str {
        "Vendor-A"
    }

    fn score(&self, _: &DataFrame, _: &DataFrame, _: &JoinCandidate, f: &JoinFeatures) -> f64 {
        let type_bonus = if f.get("key_is_string") > 0.0 { 0.3 } else { 0.0 };
        f.get("containment_max") * f.get("distinct_ratio_max") + type_bonus
    }
}

/// **Vendor-B** (0.33 prec@1): matches columns by *name equality* first,
/// with raw overlap as the only fallback — the weakest scheme.
pub struct VendorB;

impl JoinBaseline for VendorB {
    fn name(&self) -> &'static str {
        "Vendor-B"
    }

    fn score(
        &self,
        left: &DataFrame,
        right: &DataFrame,
        cand: &JoinCandidate,
        f: &JoinFeatures,
    ) -> f64 {
        let same_name = cand
            .left_cols
            .iter()
            .zip(&cand.right_cols)
            .all(|(&l, &r)| {
                left.column_at(l).name().to_lowercase()
                    == right.column_at(r).name().to_lowercase()
            });
        if same_name {
            1.0 + f.get("jaccard_similarity")
        } else {
            f.get("jaccard_similarity") * 0.5
        }
    }
}

/// **Vendor-C** (0.42 prec@1): plain maximum value overlap with a
/// key-uniqueness gate.
pub struct VendorC;

impl JoinBaseline for VendorC {
    fn name(&self) -> &'static str {
        "Vendor-C"
    }

    fn score(&self, _: &DataFrame, _: &DataFrame, _: &JoinCandidate, f: &JoinFeatures) -> f64 {
        if f.get("distinct_ratio_max") < 0.8 {
            return f.get("jaccard_similarity") * 0.2;
        }
        f.get("jaccard_similarity")
    }
}

/// The commercial join-type "predictor": every vendor defaults to
/// inner-join (Table 5's comparison point).
pub fn vendor_default_join_type(_left: &DataFrame, _right: &DataFrame) -> JoinType {
    JoinType::Inner
}

/// **Vendor-B GroupBy**: type-driven — string columns are dimensions,
/// numeric columns are measures, ties broken by position.
pub fn vendor_b_groupby_scores(df: &DataFrame) -> Vec<f64> {
    df.columns()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let type_score = match c.dtype() {
                DType::Str | DType::Bool => 1.0,
                DType::Date => 0.6,
                DType::Int => 0.3,
                _ => 0.0,
            };
            type_score - 0.01 * i as f64
        })
        .collect()
}

/// **Vendor-C GroupBy**: low-cardinality columns are dimensions, with a
/// mild type prior — close to Min-Cardinality but slightly type-aware.
pub fn vendor_c_groupby_scores(df: &DataFrame) -> Vec<f64> {
    df.columns()
        .iter()
        .map(|c| {
            let card = c.distinct_count().max(1) as f64;
            let type_bonus = if c.dtype() == DType::Float { -0.5 } else { 0.0 };
            1.0 / card + type_bonus
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosuggest_dataframe::Value;
    use autosuggest_features::join_features_batch;

    /// `method`'s score of the single-column candidate `(0, 0)`.
    fn score_first_columns(method: &dyn JoinBaseline, left: &DataFrame, right: &DataFrame) -> f64 {
        let cand = [JoinCandidate { left_cols: vec![0], right_cols: vec![0] }];
        let f = join_features_batch(left, right, &cand);
        method.score(left, right, &cand[0], &f[0])
    }

    fn sample() -> DataFrame {
        DataFrame::from_columns(vec![
            (
                "sector",
                vec![
                    Value::Str("a".into()),
                    Value::Str("a".into()),
                    Value::Str("b".into()),
                ],
            ),
            ("year", vec![Value::Int(2006), Value::Int(2007), Value::Int(2006)]),
            (
                "revenue",
                vec![Value::Float(1.5), Value::Float(2.5), Value::Float(3.5)],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn vendor_b_join_rewards_equal_names() {
        let df = DataFrame::from_columns(vec![(
            "id",
            vec![Value::Str("x".into()), Value::Str("y".into())],
        )])
        .unwrap();
        assert!(score_first_columns(&VendorB, &df, &df) > 1.0);
    }

    #[test]
    fn vendor_default_is_inner() {
        let df = sample();
        assert_eq!(vendor_default_join_type(&df, &df), JoinType::Inner);
    }

    #[test]
    fn vendor_b_groupby_ranks_strings_first() {
        let s = vendor_b_groupby_scores(&sample());
        assert!(s[0] > s[1]);
        assert!(s[1] > s[2]);
    }

    #[test]
    fn vendor_c_groupby_ranks_low_cardinality_first() {
        let s = vendor_c_groupby_scores(&sample());
        assert!(s[0] > s[2]); // sector (2 distinct) above revenue (3 distinct float)
    }

    #[test]
    fn vendor_a_gates_on_keyness() {
        let keys = DataFrame::from_columns(vec![(
            "k",
            (0..10).map(Value::Int).collect(),
        )])
        .unwrap();
        let dups = DataFrame::from_columns(vec![(
            "k",
            (0..10).map(|i| Value::Int(i % 2)).collect(),
        )])
        .unwrap();
        assert!(
            score_first_columns(&VendorA, &keys, &keys)
                > score_first_columns(&VendorA, &dups, &dups)
        );
    }
}
