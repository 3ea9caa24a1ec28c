//! Training data container.

use serde::{Deserialize, Serialize};

/// A dense row-major training set: one `Vec<f64>` of feature values per
/// example, plus a regression label per example.
///
/// Ranking candidates (join-column pairs, GroupBy columns, …) are featurised
/// upstream into this representation; labels are 1.0 for the choice the
/// notebook author made and 0.0 otherwise.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    feature_names: Vec<String>,
    rows: Vec<Vec<f64>>,
    labels: Vec<f64>,
}

impl Dataset {
    /// Build a dataset, validating that every row has one value per feature
    /// and labels align with rows.
    pub fn new(
        feature_names: Vec<String>,
        rows: Vec<Vec<f64>>,
        labels: Vec<f64>,
    ) -> Result<Self, String> {
        if rows.len() != labels.len() {
            return Err(format!(
                "{} rows but {} labels",
                rows.len(),
                labels.len()
            ));
        }
        for (i, r) in rows.iter().enumerate() {
            if r.len() != feature_names.len() {
                return Err(format!(
                    "row {i} has {} features, expected {}",
                    r.len(),
                    feature_names.len()
                ));
            }
            if r.iter().any(|v| v.is_nan()) {
                return Err(format!("row {i} contains NaN"));
            }
        }
        Ok(Dataset { feature_names, rows, labels })
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn num_features(&self) -> usize {
        self.feature_names.len()
    }

    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    pub fn row(&self, i: usize) -> &[f64] {
        &self.rows[i]
    }

    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    pub fn label(&self, i: usize) -> f64 {
        self.labels[i]
    }

    pub fn labels(&self) -> &[f64] {
        &self.labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_shapes() {
        assert!(Dataset::new(vec!["a".into()], vec![vec![1.0]], vec![0.0]).is_ok());
        assert!(Dataset::new(vec!["a".into()], vec![vec![1.0, 2.0]], vec![0.0]).is_err());
        assert!(Dataset::new(vec!["a".into()], vec![vec![1.0]], vec![]).is_err());
        assert!(Dataset::new(vec!["a".into()], vec![vec![f64::NAN]], vec![0.0]).is_err());
    }
}
