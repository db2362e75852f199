//! Polynomial regression — OPPROX's model family (paper Sec. 3.6).

use crate::error::MlError;
use crate::features::{PolynomialFeatures, Standardizer};
use opprox_linalg::gram::GramSystem;
use opprox_linalg::Matrix;
use serde::{Deserialize, Serialize};

/// The default ridge strength used by [`PolynomialRegression::fit`] and
/// the cross-validation engine.
pub(crate) const DEFAULT_RIDGE: f64 = 1e-8;

/// Reusable scratch buffers for batched, allocation-free prediction.
///
/// One instance can be shared across models of different shapes; buffers
/// are cleared and regrown as needed and keep their capacity between
/// calls.
#[derive(Debug, Clone, Default)]
pub struct PredictScratch {
    /// The standardized batch in column-major (struct-of-arrays) layout:
    /// all rows' column 0 first, then column 1, …
    pub(crate) std_cols: Vec<f64>,
    /// One monomial evaluated across the whole batch.
    pub(crate) mono: Vec<f64>,
    /// Per-row dot-product accumulators.
    pub(crate) acc: Vec<f64>,
    /// Projected (feature-selected) rows, row-major.
    pub(crate) projected: Vec<f64>,
    /// Per-row sub-model routing indices.
    pub(crate) route: Vec<usize>,
    /// Gathered rows belonging to one sub-model, row-major.
    pub(crate) gathered: Vec<f64>,
    /// Predictions for the gathered rows.
    pub(crate) gathered_out: Vec<f64>,
}

/// A fitted polynomial-regression model.
///
/// Raw inputs are z-score standardized, expanded into all monomials up to
/// the chosen total degree, and fitted by (mildly ridge-regularized) least
/// squares. The paper reports degrees between 2 and 6 across its
/// applications.
///
/// The model is `serde`-serializable, mirroring the paper's storage of
/// trained models (as Python pickles) for the runtime optimizer.
///
/// # Example
///
/// ```
/// use opprox_ml::polyreg::PolynomialRegression;
///
/// let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.3]).collect();
/// let ys: Vec<f64> = xs.iter().map(|r| 1.0 + r[0] * r[0]).collect();
/// let m = PolynomialRegression::fit(&xs, &ys, 2).unwrap();
/// assert!((m.predict_one(&[2.0]).unwrap() - 5.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolynomialRegression {
    standardizer: Standardizer,
    features: PolynomialFeatures,
    coefficients: Vec<f64>,
    degree: usize,
}

impl PolynomialRegression {
    /// Fits a polynomial of the given total degree with the default ridge
    /// strength (`1e-8`).
    ///
    /// # Errors
    ///
    /// * [`MlError::InvalidTrainingData`] if `xs` is empty, ragged, or its
    ///   length differs from `ys`.
    /// * [`MlError::InvalidHyperparameter`] if `degree == 0` and there is
    ///   nothing to fit.
    /// * [`MlError::Numeric`] if the normal equations cannot be solved.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], degree: usize) -> Result<Self, MlError> {
        if xs.is_empty() {
            return Err(MlError::InvalidTrainingData("no rows".into()));
        }
        if xs.len() != ys.len() {
            return Err(MlError::InvalidTrainingData(format!(
                "{} feature rows vs {} targets",
                xs.len(),
                ys.len()
            )));
        }
        let standardizer = Standardizer::fit(xs)?;
        let features = PolynomialFeatures::new(xs[0].len(), degree);
        let design = expand_design(&standardizer, &features, xs)?;
        let coefficients = GramSystem::from_design(&design, ys)?.solve_ridge(DEFAULT_RIDGE)?;
        Ok(PolynomialRegression {
            standardizer,
            features,
            coefficients,
            degree,
        })
    }

    /// Assembles a model from already-computed parts; used by the
    /// expand-once cross-validation engine, which solves the full-data
    /// system as a by-product of scoring the folds.
    pub(crate) fn from_parts(
        standardizer: Standardizer,
        features: PolynomialFeatures,
        coefficients: Vec<f64>,
        degree: usize,
    ) -> Self {
        PolynomialRegression {
            standardizer,
            features,
            coefficients,
            degree,
        }
    }

    /// The total polynomial degree of the fitted model.
    pub(crate) fn degree(&self) -> usize {
        self.degree
    }

    /// Number of raw input features the model expects.
    pub(crate) fn num_inputs(&self) -> usize {
        self.features.num_inputs()
    }

    /// The fitted coefficient vector (constant term first).
    pub(crate) fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Predicts the target for one raw feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureMismatch`] on a wrong-length input.
    pub fn predict_one(&self, x: &[f64]) -> Result<f64, MlError> {
        let std_x = self.standardizer.transform_one(x)?;
        let expanded = self.features.transform_one(&std_x)?;
        Ok(expanded
            .iter()
            .zip(self.coefficients.iter())
            .map(|(f, c)| f * c)
            .sum())
    }

    /// Batched, allocation-free prediction over a flat row-major buffer of
    /// raw feature rows. Appends one prediction per row to `out`, reusing
    /// the buffers in `scratch`.
    ///
    /// Internally the batch is processed in a struct-of-arrays layout:
    /// the rows are standardized into column-major order once, each
    /// monomial is then built as a contiguous column pass (`mono[r] *=
    /// std_col[var][r]`, repeated per exponent), and folded into per-row
    /// accumulators (`acc[r] += mono[r] * coeff`). Every per-row value
    /// goes through exactly the operation sequence of the scalar path —
    /// same multiplication order per monomial, same left-to-right dot
    /// fold starting from `0.0` — so results stay bit-identical to
    /// [`predict_one`] while the inner loops run over contiguous memory
    /// and autovectorize.
    ///
    /// # Errors
    ///
    /// * [`MlError::FeatureMismatch`] if `row_len` differs from the model's
    ///   input arity.
    /// * [`MlError::InvalidTrainingData`] if `rows.len()` is not a multiple
    ///   of `row_len`.
    ///
    /// [`predict_one`]: PolynomialRegression::predict_one
    pub(crate) fn predict_flat_into(
        &self,
        rows: &[f64],
        row_len: usize,
        out: &mut Vec<f64>,
        scratch: &mut PredictScratch,
    ) -> Result<(), MlError> {
        if row_len != self.num_inputs() {
            return Err(MlError::FeatureMismatch {
                expected: self.num_inputs(),
                actual: row_len,
            });
        }
        if row_len == 0 {
            return Err(MlError::InvalidTrainingData(
                "zero-length prediction rows".into(),
            ));
        }
        if !rows.len().is_multiple_of(row_len) {
            return Err(MlError::InvalidTrainingData(format!(
                "flat buffer of {} values is not a multiple of row length {row_len}",
                rows.len()
            )));
        }
        let n = rows.len() / row_len;
        scratch.std_cols.clear();
        self.standardizer
            .transform_flat_transposed(rows, &mut scratch.std_cols)?;
        // Constant term: the scalar dot fold starts `0.0 + 1.0 * c0`, and
        // `0.0 + (-0.0)` is `+0.0`, so the explicit `0.0 +` must stay.
        let c0 = self.coefficients[0];
        scratch.acc.clear();
        scratch.acc.resize(n, 0.0 + 1.0 * c0);
        for (exps, &c) in self
            .features
            .exponents()
            .iter()
            .zip(self.coefficients.iter().skip(1))
        {
            scratch.mono.clear();
            scratch.mono.resize(n, 1.0);
            for (var, &e) in exps.iter().enumerate() {
                let col = &scratch.std_cols[var * n..(var + 1) * n];
                for _ in 0..e {
                    for (m, x) in scratch.mono.iter_mut().zip(col) {
                        *m *= x;
                    }
                }
            }
            for (a, m) in scratch.acc.iter_mut().zip(scratch.mono.iter()) {
                *a += m * c;
            }
        }
        out.extend_from_slice(&scratch.acc);
        Ok(())
    }
}

/// Standardizes and polynomial-expands the rows `xs` yields into one flat
/// design matrix, built without per-row intermediate vectors. Shared by
/// model fitting and the expand-once cross-validation engine, which
/// expands a row subset straight from the dataset.
pub(crate) fn expand_design<'a>(
    standardizer: &Standardizer,
    features: &PolynomialFeatures,
    xs: impl IntoIterator<Item = &'a Vec<f64>>,
) -> Result<Matrix, MlError> {
    let xs = xs.into_iter();
    let p = features.num_outputs();
    let mut flat = Vec::with_capacity(xs.size_hint().0 * p);
    let mut std_row = Vec::with_capacity(features.num_inputs());
    let mut rows = 0;
    for x in xs {
        std_row.clear();
        standardizer.transform_into(x, &mut std_row)?;
        features.transform_into(&std_row, &mut flat)?;
        rows += 1;
    }
    Matrix::from_vec(rows, p, flat).map_err(MlError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use opprox_linalg::stats::r2_score;

    fn predict_all(m: &PolynomialRegression, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| m.predict_one(x).unwrap()).collect()
    }

    fn grid2(n: usize) -> Vec<Vec<f64>> {
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                out.push(vec![i as f64, j as f64]);
            }
        }
        out
    }

    #[test]
    fn recovers_linear_function() {
        let xs = grid2(5);
        let ys: Vec<f64> = xs.iter().map(|r| 2.0 + 3.0 * r[0] - r[1]).collect();
        let m = PolynomialRegression::fit(&xs, &ys, 1).unwrap();
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert!((m.predict_one(x).unwrap() - y).abs() < 1e-6);
        }
    }

    #[test]
    fn recovers_quadratic_with_interaction() {
        let xs = grid2(6);
        let ys: Vec<f64> = xs
            .iter()
            .map(|r| 1.0 + r[0] * r[1] + 0.5 * r[1] * r[1])
            .collect();
        let m = PolynomialRegression::fit(&xs, &ys, 2).unwrap();
        let preds = predict_all(&m, &xs);
        assert!(r2_score(&ys, &preds) > 0.999999);
    }

    #[test]
    fn higher_degree_fits_cubic() {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 * 0.25]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| r[0].powi(3) - 2.0 * r[0]).collect();
        let m2 = PolynomialRegression::fit(&xs, &ys, 2).unwrap();
        let m3 = PolynomialRegression::fit(&xs, &ys, 3).unwrap();
        let r2_2 = r2_score(&ys, &predict_all(&m2, &xs));
        let r2_3 = r2_score(&ys, &predict_all(&m3, &xs));
        assert!(r2_3 > r2_2);
        assert!(r2_3 > 0.999999);
    }

    #[test]
    fn rejects_mismatched_lengths() {
        assert!(PolynomialRegression::fit(&[vec![1.0]], &[1.0, 2.0], 1).is_err());
        assert!(PolynomialRegression::fit(&[], &[], 1).is_err());
    }

    #[test]
    fn predict_checks_arity() {
        let m = PolynomialRegression::fit(&grid2(3), &[1.0; 9], 1).unwrap();
        assert!(m.predict_one(&[1.0]).is_err());
    }

    #[test]
    fn serializes_and_round_trips() {
        let xs = grid2(4);
        let ys: Vec<f64> = xs.iter().map(|r| r[0] + r[1]).collect();
        let m = PolynomialRegression::fit(&xs, &ys, 2).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: PolynomialRegression = serde_json::from_str(&json).unwrap();
        for x in &xs {
            let a = m.predict_one(x).unwrap();
            let b = back.predict_one(x).unwrap();
            // JSON float text round-trips can lose the last ULP.
            assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0));
        }
    }

    #[test]
    fn predict_flat_into_matches_predict_one_bitwise() {
        let xs = grid2(5);
        let ys: Vec<f64> = xs.iter().map(|r| 1.0 + r[0] * r[1] - 0.2 * r[1]).collect();
        let m = PolynomialRegression::fit(&xs, &ys, 3).unwrap();
        let flat: Vec<f64> = xs.iter().flat_map(|r| r.iter().copied()).collect();
        let mut out = vec![f64::NAN]; // pre-existing content must survive
        let mut scratch = PredictScratch::default();
        m.predict_flat_into(&flat, 2, &mut out, &mut scratch)
            .unwrap();
        assert_eq!(out.len(), xs.len() + 1);
        assert!(out[0].is_nan());
        for (x, batched) in xs.iter().zip(&out[1..]) {
            assert_eq!(m.predict_one(x).unwrap().to_bits(), batched.to_bits());
        }
        // Malformed inputs are rejected.
        assert!(m
            .predict_flat_into(&flat[..3], 2, &mut out, &mut scratch)
            .is_err());
        assert!(m
            .predict_flat_into(&flat, 3, &mut out, &mut scratch)
            .is_err());
    }

    #[test]
    fn constant_target_fits_constant() {
        let xs = grid2(3);
        let ys = vec![7.5; 9];
        let m = PolynomialRegression::fit(&xs, &ys, 2).unwrap();
        assert!((m.predict_one(&[1.0, 1.0]).unwrap() - 7.5).abs() < 1e-6);
    }
}
