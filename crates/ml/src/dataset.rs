//! A small named-column dataset container shared by the modeling layers.

use crate::error::MlError;
use serde::{Deserialize, Serialize};

/// A tabular dataset with named feature columns and a single target.
///
/// # Example
///
/// ```
/// use opprox_ml::Dataset;
///
/// let mut ds = Dataset::new(vec!["al".into(), "mesh".into()]);
/// ds.push(vec![1.0, 30.0], 0.05).unwrap();
/// ds.push(vec![2.0, 30.0], 0.09).unwrap();
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.column(0), vec![1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    feature_names: Vec<String>,
    rows: Vec<Vec<f64>>,
    targets: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset with the given feature names.
    pub fn new(feature_names: Vec<String>) -> Self {
        Dataset {
            feature_names,
            rows: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Appends one observation.
    ///
    /// # Errors
    ///
    /// * [`MlError::FeatureMismatch`] if the row length differs from the
    ///   number of feature names.
    /// * [`MlError::InvalidTrainingData`] if a feature value or the target
    ///   is NaN or infinite.
    pub fn push(&mut self, row: Vec<f64>, target: f64) -> Result<(), MlError> {
        self.check_row(&row, target)?;
        self.rows.push(row);
        self.targets.push(target);
        Ok(())
    }

    /// Bulk-appends observations. Every row is validated before any
    /// mutation, so a failed call leaves the dataset unchanged.
    ///
    /// # Errors
    ///
    /// Same as [`Dataset::push`], for the first bad row.
    pub fn extend_rows(&mut self, rows: Vec<(Vec<f64>, f64)>) -> Result<(), MlError> {
        for (row, target) in &rows {
            self.check_row(row, *target)?;
        }
        self.rows.reserve(rows.len());
        self.targets.reserve(rows.len());
        for (row, target) in rows {
            self.rows.push(row);
            self.targets.push(target);
        }
        Ok(())
    }

    /// Refuses a row of the wrong arity, and any non-finite value: the
    /// fitting pipeline sorts and takes quantiles of these numbers.
    fn check_row(&self, row: &[f64], target: f64) -> Result<(), MlError> {
        if row.len() != self.feature_names.len() {
            return Err(MlError::FeatureMismatch {
                expected: self.feature_names.len(),
                actual: row.len(),
            });
        }
        if let Some(c) = row.iter().position(|v| !v.is_finite()) {
            return Err(MlError::InvalidTrainingData(format!(
                "feature {} is {}",
                self.feature_names[c], row[c]
            )));
        }
        if !target.is_finite() {
            return Err(MlError::InvalidTrainingData(format!("target is {target}")));
        }
        Ok(())
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the dataset has no observations.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The feature names, in column order.
    pub(crate) fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// All feature rows.
    pub(crate) fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// All targets.
    pub(crate) fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Extracts column `c` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn column(&self, c: usize) -> Vec<f64> {
        assert!(c < self.feature_names.len(), "column {c} out of range");
        self.rows.iter().map(|r| r[c]).collect()
    }

    /// Returns a new dataset restricted to the given feature columns
    /// (e.g. after MIC filtering).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub(crate) fn select_features(&self, keep: &[usize]) -> Dataset {
        let feature_names = keep
            .iter()
            .map(|&c| self.feature_names[c].clone())
            .collect();
        let rows = self
            .rows
            .iter()
            .map(|r| keep.iter().map(|&c| r[c]).collect())
            .collect();
        Dataset {
            feature_names,
            rows,
            targets: self.targets.clone(),
        }
    }

    /// Indices, ascending, of the rows whose column `c` value lies in
    /// `[lo, hi)` — the sub-ranges of sub-model splitting (paper
    /// Sec. 3.7).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub(crate) fn rows_in_range(&self, c: usize, lo: f64, hi: f64) -> Vec<usize> {
        assert!(c < self.feature_names.len(), "column {c} out of range");
        (0..self.rows.len())
            .filter(|&i| self.rows[i][c] >= lo && self.rows[i][c] < hi)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut ds = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..6 {
            ds.push(vec![i as f64, (i * 2) as f64], i as f64 * 10.0)
                .unwrap();
        }
        ds
    }

    #[test]
    fn push_validates_arity() {
        let mut ds = Dataset::new(vec!["a".into()]);
        assert!(ds.push(vec![1.0, 2.0], 0.0).is_err());
        assert!(ds.push(vec![1.0], 0.0).is_ok());
        assert_eq!(ds.len(), 1);
        assert!(!ds.is_empty());
    }

    #[test]
    fn extend_rows_bulk_appends_and_validates() {
        let mut ds = sample();
        ds.extend_rows(vec![(vec![6.0, 12.0], 60.0), (vec![7.0, 14.0], 70.0)])
            .unwrap();
        assert_eq!(ds.len(), 8);
        assert_eq!(ds.targets()[7], 70.0);
        // A bad row anywhere in the batch rejects the whole batch.
        let before = ds.clone();
        assert!(ds
            .extend_rows(vec![(vec![8.0, 16.0], 80.0), (vec![9.0], 90.0)])
            .is_err());
        assert_eq!(ds, before);
    }

    #[test]
    fn push_refuses_non_finite_features_and_targets() {
        let mut ds = sample();
        let before = ds.clone();
        for (row, target) in [
            (vec![f64::NAN, 1.0], 1.0),
            (vec![1.0, f64::NEG_INFINITY], 1.0),
            (vec![1.0, 2.0], f64::INFINITY),
            (vec![1.0, 2.0], f64::NAN),
        ] {
            let err = ds.push(row, target).unwrap_err();
            assert!(matches!(err, MlError::InvalidTrainingData(_)), "{err}");
        }
        assert_eq!(ds, before);
    }

    #[test]
    fn extend_rows_refuses_non_finite_values_without_mutation() {
        let mut ds = sample();
        let before = ds.clone();
        let err = ds
            .extend_rows(vec![(vec![6.0, 12.0], 60.0), (vec![7.0, f64::NAN], 70.0)])
            .unwrap_err();
        assert!(matches!(err, MlError::InvalidTrainingData(_)), "{err}");
        let err = ds
            .extend_rows(vec![(vec![6.0, 12.0], f64::INFINITY)])
            .unwrap_err();
        assert!(matches!(err, MlError::InvalidTrainingData(_)), "{err}");
        assert_eq!(ds, before);
    }

    #[test]
    fn column_extraction() {
        let ds = sample();
        assert_eq!(ds.column(1), vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn select_features_projects_rows_and_names() {
        let ds = sample();
        let proj = ds.select_features(&[1]);
        assert_eq!(proj.feature_names(), &["b".to_string()]);
        assert_eq!(proj.rows()[2], vec![4.0]);
        assert_eq!(proj.targets(), ds.targets());
    }

    #[test]
    fn rows_in_range_selects_half_open_interval() {
        let ds = sample();
        assert_eq!(ds.rows_in_range(0, 2.0, 4.0), vec![2, 3]);
        assert_eq!(ds.rows_in_range(1, f64::NEG_INFINITY, 4.0), vec![0, 1]);
        assert!(ds.rows_in_range(0, 9.0, f64::INFINITY).is_empty());
    }
}
