//! Least-squares drivers used by the regression layer.

use crate::error::LinalgError;
use crate::gram::GramSystem;
use crate::matrix::Matrix;
use crate::qr::qr_least_squares;

/// Solves `min ‖A x − y‖₂`, preferring a QR solve and falling back to a
/// mildly ridge-regularized normal-equations solve when `A` is rank
/// deficient.
///
/// The fallback mirrors what OPPROX needs in practice: training matrices of
/// polynomial features are occasionally collinear (e.g. a knob that never
/// varies within a phase), and a tiny ridge term keeps the fit well posed
/// without meaningfully biasing the coefficients.
///
/// # Errors
///
/// Returns an error only if both solvers fail, which requires a degenerate
/// input (empty matrix, dimension mismatch).
pub fn solve_least_squares(a: &Matrix, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
    match qr_least_squares(a, y) {
        Ok(x) => Ok(x),
        Err(LinalgError::Singular(_)) | Err(LinalgError::InvalidArgument(_)) => {
            ridge_least_squares(a, y, 1e-8)
        }
        Err(e) => Err(e),
    }
}

/// Solves the ridge-regularized least-squares problem
/// `min ‖A x − y‖₂² + λ·s ‖x‖₂²` via the normal equations
/// `(AᵀA + λ·s·I) x = Aᵀ y`, where `s` is the largest Gram diagonal
/// (floored at 1) so the regularization strength is unit free; see
/// [`GramSystem::solve_ridge`].
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if `y.len() != a.rows()`.
/// * [`LinalgError::InvalidArgument`] if `lambda < 0` or `a` has no columns.
/// * [`LinalgError::Singular`] if the regularized Gram matrix is still not
///   positive definite (only possible for `lambda == 0`).
pub fn ridge_least_squares(a: &Matrix, y: &[f64], lambda: f64) -> Result<Vec<f64>, LinalgError> {
    GramSystem::from_design(a, y)?.solve_ridge(lambda)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_posed_problem_uses_exact_solution() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]).unwrap();
        let y = [1.0, 3.0, 5.0];
        let x = solve_least_squares(&a, &y).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn rank_deficient_problem_falls_back_to_ridge() {
        // Columns are collinear; QR solve fails, ridge succeeds.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).unwrap();
        let y = [1.0, 2.0, 3.0];
        let x = solve_least_squares(&a, &y).unwrap();
        // Any solution must predict y well.
        let pred = a.matvec(&x).unwrap();
        for (p, t) in pred.iter().zip(y.iter()) {
            assert!((p - t).abs() < 1e-3, "{p} vs {t}");
        }
    }

    #[test]
    fn ridge_rejects_negative_lambda() {
        let a = Matrix::identity(2);
        assert!(ridge_least_squares(&a, &[1.0, 2.0], -1.0).is_err());
    }

    #[test]
    fn ridge_shrinks_towards_zero_with_huge_lambda() {
        let a = Matrix::from_rows(&[&[1.0], &[1.0]]).unwrap();
        let small = ridge_least_squares(&a, &[2.0, 2.0], 1e-9).unwrap();
        let big = ridge_least_squares(&a, &[2.0, 2.0], 1e6).unwrap();
        assert!(small[0] > 1.9);
        assert!(big[0].abs() < 0.1);
    }

    #[test]
    fn ridge_checks_dimensions() {
        let a = Matrix::identity(2);
        assert!(ridge_least_squares(&a, &[1.0], 0.1).is_err());
    }
}
