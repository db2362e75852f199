//! Gram-system construction and batched holdout solves for expand-once
//! cross-validation.
//!
//! Fitting a ridge regression on `n − m` rows does not require rebuilding
//! the design matrix: with the full Gram system `G = AᵀA`, `b = Aᵀy` in
//! hand, the train-side system of any held-out row set `H` is
//!
//! ```text
//! G_train = G − Σ_{i∈H} aᵢ aᵢᵀ        b_train = b − Σ_{i∈H} yᵢ aᵢ
//! ```
//!
//! a rank-`|H|` *downdate* of one shared system. [`RidgeFactor`] factors
//! that system once and solves every holdout of a k-fold split through
//! the Woodbury identity in one batched pass, so k-fold cross-validation
//! costs one Gram accumulation, one Cholesky factorization and one
//! multi-right-hand-side solve instead of `k` full refits.

use crate::cholesky::{cholesky_decompose, cholesky_solve, cholesky_solve_factored_many};
use crate::error::LinalgError;
use crate::matrix::Matrix;

/// The normal-equations system `(AᵀA, Aᵀy)` of a design matrix, ready for
/// ridge solves and holdout solves.
///
/// # Example
///
/// ```
/// use opprox_linalg::{Matrix, gram::GramSystem};
///
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]).unwrap();
/// let y = [1.0, 3.0, 5.0, 7.0];
/// let factor = GramSystem::from_design(&a, &y).unwrap().factor_ridge(1e-12).unwrap();
/// assert!((factor.solve_full()[1] - 2.0).abs() < 1e-8);
/// // Drop each half of the rows in turn without touching the design again.
/// let betas = factor.solve_holdouts(&a, &y, &[vec![0, 1], vec![2, 3]]).unwrap();
/// assert!(betas.iter().all(|beta| (beta[1] - 2.0).abs() < 1e-6));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GramSystem {
    gram: Matrix,
    rhs: Vec<f64>,
}

impl GramSystem {
    /// Accumulates `AᵀA` and `Aᵀy` from a design matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidArgument`] if `a` has no columns.
    /// * [`LinalgError::DimensionMismatch`] if `y.len() != a.rows()`.
    pub fn from_design(a: &Matrix, y: &[f64]) -> Result<Self, LinalgError> {
        if a.cols() == 0 {
            return Err(LinalgError::InvalidArgument(
                "design matrix has no columns".into(),
            ));
        }
        check_rhs(a, y)?;
        Ok(GramSystem {
            gram: a.gram(),
            rhs: a.t_matvec(y)?,
        })
    }

    /// Number of unknowns (columns of the originating design matrix).
    pub fn dim(&self) -> usize {
        self.rhs.len()
    }

    /// Solves `(G + λ·s·I) β = b` where `s` scales the ridge term by the
    /// largest Gram diagonal (floored at 1). This is the solve behind
    /// [`crate::lstsq::ridge_least_squares`].
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidArgument`] if `lambda < 0`.
    /// * [`LinalgError::Singular`] if the regularized system is not
    ///   positive definite.
    pub fn solve_ridge(&self, lambda: f64) -> Result<Vec<f64>, LinalgError> {
        Ok(self.factor_ridge(lambda)?.solve_full())
    }

    /// Factors `G + λ·s·I` once (`s` as in [`GramSystem::solve_ridge`])
    /// for the full solve and the holdout solves of
    /// [`RidgeFactor::solve_holdouts`].
    ///
    /// # Errors
    ///
    /// Same as [`GramSystem::solve_ridge`].
    pub fn factor_ridge(&self, lambda: f64) -> Result<RidgeFactor, LinalgError> {
        if lambda < 0.0 {
            return Err(LinalgError::InvalidArgument(format!(
                "ridge parameter must be non-negative, got {lambda}"
            )));
        }
        let p = self.dim();
        let mut gram = self.gram.clone();
        let diag_scale = (0..p)
            .map(|i| gram.get(i, i))
            .fold(0.0f64, f64::max)
            .max(1.0);
        for i in 0..p {
            let v = gram.get(i, i);
            gram.set(i, i, v + lambda * diag_scale);
        }
        let l = cholesky_decompose(&gram)?;
        Ok(RidgeFactor {
            l,
            rhs: self.rhs.clone(),
        })
    }
}

/// Rejects a right-hand side whose length differs from the design's rows.
fn check_rhs(a: &Matrix, y: &[f64]) -> Result<(), LinalgError> {
    if y.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch(format!(
            "matrix has {} rows but rhs has length {}",
            a.rows(),
            y.len()
        )));
    }
    Ok(())
}

/// A Cholesky factorization of a ridge-regularized Gram system
/// `M = G + λ·s·I`, amortized across every holdout of a k-fold split.
///
/// Removing a row set `H` from the training data turns the system into
/// `(M − A_Hᵀ A_H) β = b − A_Hᵀ y_H`, a rank-`|H|` downdate. Instead of
/// re-factorizing per holdout (`O(p³)` each), the Woodbury identity
///
/// ```text
/// (M − UᵀU)⁻¹ = M⁻¹ + M⁻¹Uᵀ (I − U M⁻¹ Uᵀ)⁻¹ U M⁻¹
/// ```
///
/// reuses the single factorization. `M⁻¹aᵢ` does not depend on the fold,
/// so [`RidgeFactor::solve_holdouts`] solves for every held-out row and
/// every fold's downdated right-hand side in one multi-right-hand-side
/// pass; each fold then only builds and solves its `|H|×|H|`
/// capacitance system.
///
/// The ridge scale `s` is the *full* system's largest Gram diagonal, not
/// the holdout subset's — for the `λ ≈ 1e-8` ridges used in fitting the
/// difference is far below the noise of the fold scores themselves.
#[derive(Debug, Clone)]
pub struct RidgeFactor {
    l: Matrix,
    rhs: Vec<f64>,
}

impl RidgeFactor {
    /// Number of unknowns.
    pub fn dim(&self) -> usize {
        self.rhs.len()
    }

    /// Coefficients of the full (no holdout) system, bit-identical to
    /// [`crate::cholesky::cholesky_solve_factored`] on the factor.
    pub fn solve_full(&self) -> Vec<f64> {
        let mut x = self.rhs.clone();
        cholesky_solve_factored_many(&self.l, &mut x, 1);
        x
    }

    /// Coefficients of each system with one fold's rows of the
    /// originating design matrix removed, in fold order.
    ///
    /// One batched triangular-solve pass computes `M⁻¹aᵢ` for every
    /// held-out row and `z_H = M⁻¹(b − A_Hᵀ y_H)` for every fold. Fold
    /// `H` then solves its capacitance system `(I − A_H V) w = A_H z_H`,
    /// with `V = M⁻¹A_Hᵀ`, and returns `β = z_H + V w`. Every value is
    /// bit-identical to solving each right-hand side alone with
    /// [`crate::cholesky::cholesky_solve_factored`].
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `a`/`y` do not match the
    ///   system's dimension or each other.
    /// * [`LinalgError::InvalidArgument`] if a holdout index is out of
    ///   range.
    /// * [`LinalgError::Singular`] if a downdated system is not positive
    ///   definite (e.g. too few rows remain); the first such fold is
    ///   reported.
    pub fn solve_holdouts(
        &self,
        a: &Matrix,
        y: &[f64],
        folds: &[Vec<usize>],
    ) -> Result<Vec<Vec<f64>>, LinalgError> {
        let p = self.dim();
        if a.cols() != p {
            return Err(LinalgError::DimensionMismatch(format!(
                "design has {} columns but system has dimension {}",
                a.cols(),
                p
            )));
        }
        check_rhs(a, y)?;
        if let Some(&i) = folds.iter().flatten().find(|&&i| i >= a.rows()) {
            return Err(LinalgError::InvalidArgument(format!(
                "holdout row {i} out of range for {} rows",
                a.rows()
            )));
        }
        // Right-hand sides, unknown-major: first every held-out row aᵢ in
        // fold order, then each fold's downdated b − A_Hᵀ y_H.
        let held: usize = folds.iter().map(Vec::len).sum();
        let nrhs = held + folds.len();
        let mut batch = vec![0.0; p * nrhs];
        for (r, &i) in folds.iter().flatten().enumerate() {
            for (c, &v) in a.row(i).iter().enumerate() {
                batch[c * nrhs + r] = v;
            }
        }
        for (f, holdout) in folds.iter().enumerate() {
            let mut bt = self.rhs.clone();
            for &i in holdout {
                let yi = y[i];
                for (b, &rc) in bt.iter_mut().zip(a.row(i)) {
                    *b -= yi * rc;
                }
            }
            for (c, v) in bt.into_iter().enumerate() {
                batch[c * nrhs + held + f] = v;
            }
        }
        cholesky_solve_factored_many(&self.l, &mut batch, nrhs);
        let mut first = 0;
        let mut betas = Vec::with_capacity(folds.len());
        for (f, holdout) in folds.iter().enumerate() {
            betas.push(woodbury_correct(a, holdout, &batch, nrhs, first, held + f)?);
            first += holdout.len();
        }
        Ok(betas)
    }
}

/// `β = z + V w` for one fold, read from the solved unknown-major batch:
/// `z` is column `z_col`, and `V`'s columns `M⁻¹aᵢ` (one per held-out
/// row) are the `holdout.len()` columns from `v_first`. `w` solves the
/// capacitance system `C w = A_H z` with `C = I_h − A_H V`, symmetric
/// positive definite iff the downdated system is.
fn woodbury_correct(
    a: &Matrix,
    holdout: &[usize],
    solved: &[f64],
    nrhs: usize,
    v_first: usize,
    z_col: usize,
) -> Result<Vec<f64>, LinalgError> {
    let z: Vec<f64> = solved.iter().skip(z_col).step_by(nrhs).copied().collect();
    let h = holdout.len();
    if h == 0 {
        return Ok(z);
    }
    // Row c of V: unknown c of every held-out row's solution.
    let v_rows = || solved.chunks_exact(nrhs).map(|u| &u[v_first..v_first + h]);
    let mut cap = Matrix::zeros(h, h);
    let mut c = vec![0.0; h];
    let mut dots = vec![0.0; h];
    for (j, &i) in holdout.iter().enumerate() {
        let row = a.row(i);
        // dots[k] = aᵢ · v_k for every k at once, summed over the unknowns
        // in order from the start value of `Iterator::sum`, so each dot
        // is bit-identical to the scalar `.sum()` below.
        dots.fill(std::iter::empty::<f64>().sum());
        for (&r, v) in row.iter().zip(v_rows()) {
            for (d, &x) in dots.iter_mut().zip(v) {
                *d += r * x;
            }
        }
        for (k, &dot) in dots.iter().enumerate() {
            cap.set(j, k, if j == k { 1.0 - dot } else { -dot });
        }
        c[j] = row.iter().zip(&z).map(|(&r, &x)| r * x).sum();
    }
    let w = cholesky_solve(&cap, &c)?;
    let mut beta = z;
    for (b, v) in beta.iter_mut().zip(v_rows()) {
        for (&wk, &x) in w.iter().zip(v) {
            *b += wk * x;
        }
    }
    Ok(beta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstsq::ridge_least_squares;

    fn design() -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                let x = i as f64 * 0.5;
                vec![1.0, x, x * x]
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 2.0 - r[1] + 0.3 * r[2]).collect();
        (Matrix::from_row_vecs(&rows).unwrap(), y)
    }

    /// The explicit rank-k downdate: the system with the `holdout` rows'
    /// contributions subtracted, the oracle the Woodbury solves must
    /// reproduce.
    fn downdated(full: &GramSystem, a: &Matrix, y: &[f64], holdout: &[usize]) -> GramSystem {
        let mut out = full.clone();
        for &i in holdout {
            let row = a.row(i);
            for (c, &rc) in row.iter().enumerate() {
                for (c2, &rc2) in row.iter().enumerate() {
                    let v = out.gram.get(c, c2) - rc * rc2;
                    out.gram.set(c, c2, v);
                }
                out.rhs[c] -= y[i] * rc;
            }
        }
        out
    }

    #[test]
    fn downdate_equals_refit_on_remaining_rows() {
        let (a, y) = design();
        let full = GramSystem::from_design(&a, &y).unwrap();
        let holdout = [1usize, 4, 7];
        let beta = downdated(&full, &a, &y, &holdout)
            .solve_ridge(1e-8)
            .unwrap();

        let kept: Vec<usize> = (0..a.rows()).filter(|i| !holdout.contains(i)).collect();
        let rows: Vec<&[f64]> = kept.iter().map(|&i| a.row(i)).collect();
        let sub_a = Matrix::from_rows(&rows).unwrap();
        let sub_y: Vec<f64> = kept.iter().map(|&i| y[i]).collect();
        let direct = ridge_least_squares(&sub_a, &sub_y, 1e-8).unwrap();
        for (b1, b2) in beta.iter().zip(direct.iter()) {
            assert!((b1 - b2).abs() < 1e-8, "{b1} vs {b2}");
        }
    }

    #[test]
    fn dimension_mismatches_are_reported() {
        let (a, y) = design();
        assert!(GramSystem::from_design(&a, &y[..3]).is_err());
        assert!(GramSystem::from_design(&Matrix::zeros(3, 0), &[0.0; 3]).is_err());
    }

    #[test]
    fn negative_lambda_rejected() {
        let (a, y) = design();
        let full = GramSystem::from_design(&a, &y).unwrap();
        assert!(full.solve_ridge(-1.0).is_err());
        assert!(full.factor_ridge(-1.0).is_err());
    }

    #[test]
    fn factored_full_solve_is_bitwise_identical_to_scalar_solve() {
        let (a, y) = design();
        let full = GramSystem::from_design(&a, &y).unwrap();
        let factor = full.factor_ridge(1e-8).unwrap();
        let scalar = crate::cholesky::cholesky_solve_factored(&factor.l, &full.rhs);
        for (d, f) in scalar.iter().zip(factor.solve_full().iter()) {
            assert_eq!(d.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn woodbury_holdouts_match_explicit_downdates() {
        let (a, y) = design();
        let full = GramSystem::from_design(&a, &y).unwrap();
        let lambda = 1e-8;
        let factor = full.factor_ridge(lambda).unwrap();
        // The factor's ridge shift is λ · max(diag(G_full)); apply the
        // same absolute shift to the explicit sub-system so the
        // comparison isolates the Woodbury algebra from the (documented)
        // ridge-scale difference.
        let shift = lambda
            * (0..full.dim())
                .map(|i| full.gram.get(i, i))
                .fold(0.0f64, f64::max)
                .max(1.0);
        let folds = vec![vec![0usize], vec![1, 4, 7], vec![2, 3, 9, 11]];
        let betas = factor.solve_holdouts(&a, &y, &folds).unwrap();
        assert_eq!(betas.len(), folds.len());
        for (holdout, woodbury) in folds.iter().zip(&betas) {
            let sub = downdated(&full, &a, &y, holdout);
            let mut shifted = sub.gram.clone();
            for i in 0..sub.dim() {
                let v = shifted.get(i, i);
                shifted.set(i, i, v + shift);
            }
            let explicit = cholesky_solve(&shifted, &sub.rhs).unwrap();
            for (w, e) in woodbury.iter().zip(explicit.iter()) {
                assert!((w - e).abs() < 1e-7, "{w} vs {e} for {holdout:?}");
            }
        }
    }

    #[test]
    fn each_fold_is_independent_of_the_others_bitwise() {
        // Batching folds together must not change any fold's bits.
        let (a, y) = design();
        let factor = GramSystem::from_design(&a, &y)
            .unwrap()
            .factor_ridge(1e-8)
            .unwrap();
        let folds = vec![vec![5usize, 0], vec![], vec![1, 4, 7], vec![11]];
        let together = factor.solve_holdouts(&a, &y, &folds).unwrap();
        for (holdout, beta) in folds.iter().zip(&together) {
            let alone = factor
                .solve_holdouts(&a, &y, std::slice::from_ref(holdout))
                .unwrap();
            assert_eq!(alone[0], *beta);
        }
    }

    #[test]
    fn empty_holdout_equals_full_solve() {
        let (a, y) = design();
        let factor = GramSystem::from_design(&a, &y)
            .unwrap()
            .factor_ridge(1e-8)
            .unwrap();
        assert_eq!(
            factor.solve_holdouts(&a, &y, &[vec![]]).unwrap(),
            vec![factor.solve_full()]
        );
        assert!(factor.solve_holdouts(&a, &y, &[]).unwrap().is_empty());
    }

    #[test]
    fn holdout_solver_validates_inputs() {
        let (a, y) = design();
        let factor = GramSystem::from_design(&a, &y)
            .unwrap()
            .factor_ridge(1e-8)
            .unwrap();
        assert!(factor.solve_holdouts(&a, &y, &[vec![0], vec![99]]).is_err());
        assert!(factor
            .solve_holdouts(&Matrix::zeros(12, 2), &y, &[vec![0]])
            .is_err());
        assert!(factor.solve_holdouts(&a, &y[..3], &[vec![0]]).is_err());
    }

    #[test]
    fn holding_out_all_but_too_few_rows_goes_singular() {
        let (a, y) = design();
        // Remove all but one row: a 3-unknown system from one equation
        // cannot be positive definite at lambda = 0.
        let holdout: Vec<usize> = (1..a.rows()).collect();
        let full = GramSystem::from_design(&a, &y).unwrap();
        assert!(downdated(&full, &a, &y, &holdout).solve_ridge(0.0).is_err());
        let factor = full.factor_ridge(0.0).unwrap();
        assert!(matches!(
            factor.solve_holdouts(&a, &y, &[vec![0], holdout]),
            Err(LinalgError::Singular(_))
        ));
    }
}
