//! k-fold cross-validation (paper Sec. 3.7).
//!
//! OPPROX escalates the polynomial degree until the model "finds a good R²
//! score with 10-fold cross validation". This module implements the
//! standard k-fold protocol with a deterministic, seeded shuffle so the
//! whole reproduction stays bit-reproducible.
//!
//! # Expand-once evaluation
//!
//! The naive protocol rebuilds the standardize → polynomial-expand → solve
//! pipeline once per fold, which for 10-fold CV costs ten full fits on 90%
//! of the data each. This module instead prepares each row subset once
//! (`CvData`: its seeded folds and its standardizer, shared by every
//! degree tried) and then, per degree, expands the design matrix *once*
//! straight from the subset's rows, accumulates the full Gram system
//! `(AᵀA, Aᵀy)`, and factors the ridge-regularized system once. Each
//! training fold is a rank-k *downdate* of that system, and one batched
//! triangular-solve pass serves every fold's Woodbury solve — see
//! [`opprox_linalg::gram::RidgeFactor::solve_holdouts`]. 10-fold CV thus
//! costs one expansion, one Gram accumulation, one Cholesky factorization
//! and one multi-right-hand-side solve instead of ten of each; every fold
//! value is bit-identical to solving its right-hand sides one at a time.
//!
//! Standardization statistics are computed on the whole subset rather
//! than per training fold, and the fold ridge is scaled by the full
//! Gram's diagonal; fold scores shift marginally but degree selection is
//! unaffected, and the full-data model returned alongside the scores is
//! bit-identical to [`PolynomialRegression::fit`] on the subset.

use crate::error::MlError;
use crate::features::{PolynomialFeatures, Standardizer};
use crate::polyreg::{expand_design, PolynomialRegression};
use opprox_linalg::gram::GramSystem;
use opprox_linalg::stats::r2_score;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Full output of the expand-once cross-validation engine for one degree:
/// the fold scores plus, for free, the model fitted on the complete
/// subset and its out-of-fold residuals.
#[derive(Debug, Clone)]
pub(crate) struct DegreeCv {
    /// Model fitted on all rows of the subset (bit-identical to
    /// [`PolynomialRegression::fit`] at the same ridge strength).
    pub model: PolynomialRegression,
    /// Raw per-fold R² values.
    pub fold_r2: Vec<f64>,
    /// Out-of-fold residuals `y − ŷ`, in fold iteration order.
    pub residuals: Vec<f64>,
    /// Number of linear-system solves performed (one per fold plus the
    /// full-data solve).
    pub solves: u64,
}

impl DegreeCv {
    /// Mean R² over folds with a finite score; `0.0` if no fold scored
    /// finite.
    pub(crate) fn mean_r2(&self) -> f64 {
        finite_mean(&self.fold_r2)
    }
}

/// Deterministically splits `n` indices into `k` folds after a seeded
/// shuffle. Every index appears in exactly one fold and fold sizes differ
/// by at most one.
///
/// # Errors
///
/// Returns [`MlError::InvalidHyperparameter`] if `k < 2` or `k > n`.
pub fn kfold_indices(n: usize, k: usize, seed: u64) -> Result<Vec<Vec<usize>>, MlError> {
    if k < 2 {
        return Err(MlError::InvalidHyperparameter(format!(
            "k-fold requires k >= 2, got {k}"
        )));
    }
    if k > n {
        return Err(MlError::InvalidHyperparameter(format!(
            "k-fold requires k <= n, got k={k}, n={n}"
        )));
    }
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    let mut folds = vec![Vec::new(); k];
    for (pos, i) in idx.into_iter().enumerate() {
        folds[pos % k].push(i);
    }
    Ok(folds)
}

/// Mean over the finite entries of `scores`; `0.0` when none are finite.
///
/// A fold whose test targets contain extreme values can produce a NaN or
/// infinite R² (overflowing sums of squares); averaging those in would
/// poison the model-selection score for every degree, so they are skipped.
fn finite_mean(scores: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for &s in scores {
        if s.is_finite() {
            sum += s;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// The fold-independent inputs of cross-validating one row subset of a
/// dataset: its targets, its seeded folds and its standardizer. They
/// depend only on the rows, the fold count and the seed, so they are
/// built once and reused for every degree tried.
#[derive(Debug)]
pub(crate) struct CvData<'a> {
    xs: &'a [Vec<f64>],
    rows: &'a [usize],
    ys: Vec<f64>,
    /// Folds of positions within `rows`.
    folds: Vec<Vec<usize>>,
    standardizer: Standardizer,
}

impl<'a> CvData<'a> {
    /// Prepares `k`-fold cross-validation over the rows of `xs`/`ys`
    /// listed in `rows`, in that order.
    ///
    /// # Errors
    ///
    /// * [`MlError::InvalidTrainingData`] if `rows` is empty, `xs` and
    ///   `ys` differ in length, or the rows are ragged.
    /// * Fold-construction errors from [`kfold_indices`].
    ///
    /// # Panics
    ///
    /// Panics if an entry of `rows` is out of range.
    pub(crate) fn new(
        xs: &'a [Vec<f64>],
        ys: &[f64],
        rows: &'a [usize],
        k: usize,
        seed: u64,
    ) -> Result<Self, MlError> {
        if rows.is_empty() {
            return Err(MlError::InvalidTrainingData("no rows".into()));
        }
        if xs.len() != ys.len() {
            return Err(MlError::InvalidTrainingData(format!(
                "{} feature rows vs {} targets",
                xs.len(),
                ys.len()
            )));
        }
        let folds = kfold_indices(rows.len(), k, seed)?;
        let standardizer = Standardizer::fit_rows(rows.iter().map(|&i| &xs[i]))?;
        Ok(CvData {
            xs,
            rows,
            ys: rows.iter().map(|&i| ys[i]).collect(),
            folds,
            standardizer,
        })
    }

    /// Expand-once cross-validation of one polynomial degree.
    ///
    /// Expands the subset's standardized design matrix once, factors its
    /// ridge-regularized Gram system once, and solves every fold's
    /// downdated system in one batched pass. Returns the fold scores
    /// together with the full-data model and its out-of-fold residuals.
    pub(crate) fn cross_validate(&self, degree: usize, lambda: f64) -> Result<DegreeCv, MlError> {
        let features = PolynomialFeatures::new(self.xs[self.rows[0]].len(), degree);
        let subset = self.rows.iter().map(|&i| &self.xs[i]);
        let design = expand_design(&self.standardizer, &features, subset)?;
        let factor = GramSystem::from_design(&design, &self.ys)?.factor_ridge(lambda)?;
        let coefficients = factor.solve_full();
        let betas = factor.solve_holdouts(&design, &self.ys, &self.folds)?;

        let mut fold_r2 = Vec::with_capacity(self.folds.len());
        let mut residuals = Vec::with_capacity(self.rows.len());
        for (test_fold, beta) in self.folds.iter().zip(&betas) {
            let mut test_y = Vec::with_capacity(test_fold.len());
            let mut preds = Vec::with_capacity(test_fold.len());
            for &i in test_fold {
                let pred: f64 = design
                    .row(i)
                    .iter()
                    .zip(beta.iter())
                    .map(|(f, c)| f * c)
                    .sum();
                test_y.push(self.ys[i]);
                preds.push(pred);
                residuals.push(self.ys[i] - pred);
            }
            fold_r2.push(r2_score(&test_y, &preds));
        }
        let standardizer = self.standardizer.clone();
        Ok(DegreeCv {
            model: PolynomialRegression::from_parts(standardizer, features, coefficients, degree),
            fold_r2,
            residuals,
            solves: 1 + self.folds.len() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polyreg::DEFAULT_RIDGE;
    use opprox_linalg::cholesky::{cholesky_decompose, cholesky_solve, cholesky_solve_factored};
    use opprox_linalg::Matrix;

    /// Cross-validates every row of `xs`/`ys`.
    fn cv_all(
        xs: &[Vec<f64>],
        ys: &[f64],
        degree: usize,
        k: usize,
        seed: u64,
    ) -> Result<DegreeCv, MlError> {
        let rows: Vec<usize> = (0..xs.len()).collect();
        CvData::new(xs, ys, &rows, k, seed)?.cross_validate(degree, DEFAULT_RIDGE)
    }

    /// Coefficients, per-fold R² and out-of-fold residuals.
    type CvBits = (Vec<f64>, Vec<f64>, Vec<f64>);

    /// The per-fold Woodbury path the batched engine replaced, kept as its
    /// oracle: Gram and `Aᵀy` by column dot products, then for every fold
    /// its own downdated right-hand side and one scalar triangular-solve
    /// pair per held-out row.
    fn per_fold_reference(
        xs: &[Vec<f64>],
        ys: &[f64],
        degree: usize,
        k: usize,
        seed: u64,
    ) -> Result<CvBits, MlError> {
        let folds = kfold_indices(xs.len(), k, seed)?;
        let standardizer = Standardizer::fit(xs)?;
        let features = PolynomialFeatures::new(xs[0].len(), degree);
        let design = expand_design(&standardizer, &features, xs)?;
        let (n, p) = (design.rows(), design.cols());
        let mut gram = Matrix::zeros(p, p);
        for i in 0..p {
            for j in i..p {
                let mut s = 0.0;
                for r in 0..n {
                    s += design.get(r, i) * design.get(r, j);
                }
                gram.set(i, j, s);
                gram.set(j, i, s);
            }
        }
        let mut rhs = vec![0.0; p];
        for (r, &yr) in ys.iter().enumerate() {
            for (c, o) in rhs.iter_mut().enumerate() {
                *o += design.get(r, c) * yr;
            }
        }
        let scale = (0..p)
            .map(|i| gram.get(i, i))
            .fold(0.0f64, f64::max)
            .max(1.0);
        for i in 0..p {
            gram.set(i, i, gram.get(i, i) + DEFAULT_RIDGE * scale);
        }
        let l = cholesky_decompose(&gram)?;
        let coefficients = cholesky_solve_factored(&l, &rhs);
        let mut fold_r2 = Vec::new();
        let mut residuals = Vec::new();
        for holdout in &folds {
            let mut bt = rhs.clone();
            for &i in holdout {
                for (c, &rc) in design.row(i).iter().enumerate() {
                    bt[c] -= ys[i] * rc;
                }
            }
            let z = cholesky_solve_factored(&l, &bt);
            let vs: Vec<Vec<f64>> = holdout
                .iter()
                .map(|&i| cholesky_solve_factored(&l, design.row(i)))
                .collect();
            let h = holdout.len();
            let mut cap = Matrix::zeros(h, h);
            let mut c = vec![0.0; h];
            for (j, &i) in holdout.iter().enumerate() {
                let row = design.row(i);
                for (kk, v) in vs.iter().enumerate() {
                    let dot: f64 = row.iter().zip(v).map(|(&r, &x)| r * x).sum();
                    cap.set(j, kk, if j == kk { 1.0 - dot } else { -dot });
                }
                c[j] = row.iter().zip(&z).map(|(&r, &x)| r * x).sum();
            }
            let w = cholesky_solve(&cap, &c)?;
            let mut beta = z;
            for (kk, v) in vs.iter().enumerate() {
                for (b, &x) in beta.iter_mut().zip(v) {
                    *b += w[kk] * x;
                }
            }
            let mut test_y = Vec::new();
            let mut preds = Vec::new();
            for &i in holdout {
                let pred: f64 = design
                    .row(i)
                    .iter()
                    .zip(beta.iter())
                    .map(|(f, c)| f * c)
                    .sum();
                test_y.push(ys[i]);
                preds.push(pred);
                residuals.push(ys[i] - pred);
            }
            fold_r2.push(r2_score(&test_y, &preds));
        }
        Ok((coefficients, fold_r2, residuals))
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts the engine over `rows` of `xs`/`ys` matches the per-fold
    /// reference on a copy of those rows, bit for bit (or both fail).
    fn assert_matches_reference(
        xs: &[Vec<f64>],
        ys: &[f64],
        rows: &[usize],
        degree: usize,
        k: usize,
        seed: u64,
    ) {
        let sub_x: Vec<Vec<f64>> = rows.iter().map(|&i| xs[i].clone()).collect();
        let sub_y: Vec<f64> = rows.iter().map(|&i| ys[i]).collect();
        let reference = per_fold_reference(&sub_x, &sub_y, degree, k, seed);
        let batched = CvData::new(xs, ys, rows, k, seed)
            .and_then(|cv| cv.cross_validate(degree, DEFAULT_RIDGE));
        match (batched, reference) {
            (Ok(cv), Ok((coefficients, fold_r2, residuals))) => {
                assert_eq!(bits(cv.model.coefficients()), bits(&coefficients));
                assert_eq!(bits(&cv.fold_r2), bits(&fold_r2));
                assert_eq!(bits(&cv.residuals), bits(&residuals));
                assert_eq!(cv.solves, k as u64 + 1);
            }
            (Err(_), Err(_)) => {}
            (b, r) => panic!("engine {:?} vs reference {:?}", b.err(), r.err()),
        }
    }

    /// `n` rows of three features and a noisy target.
    fn three_feature_rows(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64;
                vec![t * 0.3, (t * 0.17).sin(), ((i * 7) % 11) as f64]
            })
            .collect();
        let ys = xs
            .iter()
            .enumerate()
            .map(|(i, r)| r[0] * r[1] - 0.4 * r[2] + ((i * 2654435761) % 97) as f64 / 9.0)
            .collect();
        (xs, ys)
    }

    #[test]
    fn batched_cv_is_bit_identical_to_the_per_fold_path() {
        let (smooth, noisy) = three_feature_rows(48);
        let all: Vec<usize> = (0..smooth.len()).collect();
        for degree in 1..=4 {
            for k in [2, 5, 10] {
                assert_matches_reference(&smooth, &noisy, &all, degree, k, 0x0bb0c5);
            }
        }
        // A row subset, as the split search passes it: expanded straight
        // from the dataset, it must match a fit on a copy of those rows.
        let subset: Vec<usize> = (0..smooth.len()).filter(|i| i % 3 != 1).collect();
        for degree in 2..=4 {
            assert_matches_reference(&smooth, &noisy, &subset, degree, 10, 7);
        }
        // 150 rows: a wide batch (160 right-hand sides at 10 folds), and
        // 75-row folds at 2.
        let (wide, wide_y) = three_feature_rows(150);
        let all: Vec<usize> = (0..wide.len()).collect();
        for degree in 2..=3 {
            for k in [2, 10] {
                assert_matches_reference(&wide, &wide_y, &all, degree, k, 11);
            }
        }
    }

    #[test]
    fn batched_cv_matches_the_per_fold_path_on_clamped_and_degenerate_folds() {
        // Five rows with the fold count clamped to five: one row per fold.
        let xs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64, (i * i) as f64]).collect();
        let ys: Vec<f64> = (0..5).map(|i| 2.0 * i as f64 - 1.0).collect();
        let all: Vec<usize> = (0..5).collect();
        for degree in 1..=3 {
            assert_matches_reference(&xs, &ys, &all, degree, 5, 0x0bb0c5);
        }
        // One target extreme enough that a fold's R² is non-finite.
        let mut xs: Vec<Vec<f64>> = (0..24).map(|i| vec![i as f64]).collect();
        let mut ys: Vec<f64> = xs.iter().map(|r| 1.0 + r[0]).collect();
        xs.push(vec![24.0]);
        ys.push(1e300);
        let all: Vec<usize> = (0..xs.len()).collect();
        for degree in 1..=3 {
            assert_matches_reference(&xs, &ys, &all, degree, 5, 3);
        }
    }

    #[test]
    fn folds_partition_all_indices() {
        let folds = kfold_indices(17, 5, 42).unwrap();
        let mut seen: Vec<usize> = folds.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..17).collect::<Vec<_>>());
        // Sizes differ by at most one.
        let sizes: Vec<usize> = folds.iter().map(|f| f.len()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn folds_are_deterministic_per_seed() {
        assert_eq!(
            kfold_indices(10, 3, 7).unwrap(),
            kfold_indices(10, 3, 7).unwrap()
        );
        assert_ne!(
            kfold_indices(10, 3, 7).unwrap(),
            kfold_indices(10, 3, 8).unwrap()
        );
    }

    #[test]
    fn invalid_k_rejected() {
        assert!(kfold_indices(10, 1, 0).is_err());
        assert!(kfold_indices(3, 4, 0).is_err());
    }

    #[test]
    fn cv_scores_well_on_matching_degree() {
        let xs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 * 0.1]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| 1.0 + 2.0 * r[0] + r[0] * r[0]).collect();
        let score = cv_all(&xs, &ys, 2, 10, 1).unwrap();
        assert!(score.mean_r2() > 0.999, "mean R² was {}", score.mean_r2());
        assert_eq!(score.fold_r2.len(), 10);
    }

    #[test]
    fn cv_scores_poorly_on_underfit_degree() {
        // Strongly cubic data fit with a linear model.
        let xs: Vec<Vec<f64>> = (0..60).map(|i| vec![(i as f64 - 30.0) * 0.2]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| r[0].powi(3)).collect();
        let lin = cv_all(&xs, &ys, 1, 10, 1).unwrap();
        let cub = cv_all(&xs, &ys, 3, 10, 1).unwrap();
        assert!(cub.mean_r2() > lin.mean_r2());
        assert!(cub.mean_r2() > 0.999);
    }

    #[test]
    fn cv_rejects_length_mismatch() {
        assert!(cv_all(&[vec![1.0]], &[1.0, 2.0], 1, 2, 0).is_err());
        assert!(CvData::new(&[vec![1.0]], &[1.0], &[], 2, 0).is_err());
    }

    #[test]
    fn downdate_cv_matches_explicit_refit() {
        // The Gram-downdate fold scores must agree with explicitly
        // refitting on the same train/test split, up to the (documented)
        // change of standardizing on the full dataset.
        let xs: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64 * 0.3, (i as f64 * 0.17).sin()])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|r| 2.0 + r[0] - 0.4 * r[0] * r[1] + r[1] * r[1])
            .collect();
        let cv = cv_all(&xs, &ys, 2, 5, 9).unwrap();
        assert_eq!(cv.fold_r2.len(), 5);
        assert_eq!(cv.residuals.len(), xs.len());
        assert_eq!(cv.solves, 6);
        // Data is exactly representable by the degree-2 family, so every
        // protocol variant must score essentially perfectly.
        for r2 in &cv.fold_r2 {
            assert!(*r2 > 0.999, "fold R² was {r2}");
        }
    }

    #[test]
    fn full_data_model_is_bit_identical_to_direct_fit() {
        let xs: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![i as f64 * 0.5, (i % 7) as f64])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|r| r[0] * r[1] - r[0] + 3.0).collect();
        let cv = cv_all(&xs, &ys, 3, 10, 0x0bb0c5).unwrap();
        let direct = PolynomialRegression::fit(&xs, &ys, 3).unwrap();
        assert_eq!(cv.model.coefficients().len(), direct.coefficients().len());
        for (a, b) in cv
            .model
            .coefficients()
            .iter()
            .zip(direct.coefficients().iter())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn degenerate_folds_do_not_poison_the_mean() {
        // One target value is extreme enough that squared residuals and
        // squared deviations overflow to infinity, which historically made
        // mean_r2 NaN and broke degree selection for every candidate.
        let mut xs: Vec<Vec<f64>> = (0..24).map(|i| vec![i as f64]).collect();
        let mut ys: Vec<f64> = xs.iter().map(|r| 1.0 + r[0]).collect();
        xs.push(vec![24.0]);
        ys.push(1e300);
        let score = cv_all(&xs, &ys, 1, 5, 3).unwrap();
        assert!(
            score.mean_r2().is_finite(),
            "mean R² must stay finite, got {}",
            score.mean_r2()
        );
        assert!(
            score.fold_r2.iter().any(|r| !r.is_finite()),
            "test should actually exercise a degenerate fold: {:?}",
            score.fold_r2
        );
    }

    #[test]
    fn finite_mean_skips_non_finite_entries() {
        assert_eq!(finite_mean(&[0.9, f64::NAN, 0.7]), 0.8);
        assert_eq!(finite_mean(&[f64::NAN, f64::NEG_INFINITY]), 0.0);
        assert_eq!(finite_mean(&[]), 0.0);
    }
}
