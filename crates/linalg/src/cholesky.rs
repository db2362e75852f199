//! Cholesky decomposition for symmetric positive-definite systems.

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// Computes the lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// The input must be square and symmetric positive definite; symmetry is
/// assumed (only the lower triangle is read).
///
/// # Errors
///
/// * [`LinalgError::InvalidArgument`] if `a` is not square.
/// * [`LinalgError::Singular`] if a non-positive pivot is encountered,
///   i.e. `a` is not positive definite to working precision.
///
/// # Example
///
/// ```
/// use opprox_linalg::{Matrix, cholesky::cholesky_decompose};
///
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
/// let l = cholesky_decompose(&a).unwrap();
/// let recon = l.matmul(&l.transpose()).unwrap();
/// assert!((recon.get(0, 1) - 2.0).abs() < 1e-12);
/// ```
pub fn cholesky_decompose(a: &Matrix) -> Result<Matrix, LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::InvalidArgument(format!(
            "Cholesky requires a square matrix, got {}x{}",
            a.rows(),
            a.cols()
        )));
    }
    let a = a.as_slice();
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            // s = a_ij − Σ_{k<j} l_ik · l_jk, k ascending.
            let s = l[i * n..i * n + j]
                .iter()
                .zip(&l[j * n..j * n + j])
                .fold(a[i * n + j], |s, (&lik, &ljk)| s - lik * ljk);
            l[i * n + j] = if i == j {
                if s <= 0.0 {
                    return Err(LinalgError::Singular(format!(
                        "non-positive pivot {s:e} at row {i}"
                    )));
                }
                s.sqrt()
            } else {
                s / l[j * n + j]
            };
        }
    }
    Matrix::from_vec(n, n, l)
}

/// Solves `A x = b` for symmetric positive-definite `A` via Cholesky.
///
/// # Errors
///
/// Propagates the errors of [`cholesky_decompose`], plus
/// [`LinalgError::DimensionMismatch`] when `b.len() != a.rows()`.
pub fn cholesky_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    if b.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch(format!(
            "matrix has {} rows but rhs has length {}",
            a.rows(),
            b.len()
        )));
    }
    let l = cholesky_decompose(a)?;
    Ok(cholesky_solve_factored(&l, b))
}

/// Solves `L Lᵀ x = b` given an already-computed lower-triangular factor
/// `L` (two triangular solves, no factorization). `b.len()` must equal
/// `l.rows()`; this is the caller's responsibility.
///
/// This is the scalar reference for [`cholesky_solve_factored_many`].
pub fn cholesky_solve_factored(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    let ld = l.as_slice();
    // Forward solve L z = b.
    let mut z = vec![0.0; n];
    for i in 0..n {
        let li = l.row(i);
        let s = li[..i]
            .iter()
            .zip(&z[..i])
            .fold(b[i], |s, (&lik, &zk)| s - lik * zk);
        z[i] = s / li[i];
    }
    // Back solve Lᵀ x = z, walking column i of L.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = z[i];
        for (k, &xk) in x.iter().enumerate().skip(i + 1) {
            s -= ld[k * n + i] * xk;
        }
        x[i] = s / ld[i * n + i];
    }
    x
}

/// Solves `L Lᵀ X = B` for `nrhs` right-hand sides at once, in place.
///
/// `b` is unknown-major: entry `(i, r)`, unknown `i` of right-hand side
/// `r`, lives at `b[i * nrhs + r]`, so every inner loop runs across the
/// right-hand sides over contiguous memory.
///
/// Each right-hand side sees exactly the operations of
/// [`cholesky_solve_factored`] in the same order: the same start value,
/// `k` ascending in both solves, and a division by the pivot. Every
/// solution is therefore bit-identical to solving it alone.
///
/// # Panics
///
/// Panics if `b.len() != l.rows() * nrhs`.
pub(crate) fn cholesky_solve_factored_many(l: &Matrix, b: &mut [f64], nrhs: usize) {
    let n = l.rows();
    assert_eq!(
        b.len(),
        n * nrhs,
        "right-hand sides do not match the factor"
    );
    if nrhs == 0 {
        return;
    }
    // Forward solve L Z = B: row i subtracts l_ik · z_k for k ascending.
    for i in 0..n {
        let (solved, rest) = b.split_at_mut(i * nrhs);
        let zi = &mut rest[..nrhs];
        let li = l.row(i);
        for (zk, &lik) in solved.chunks_exact(nrhs).zip(&li[..i]) {
            for (s, &z) in zi.iter_mut().zip(zk) {
                *s -= lik * z;
            }
        }
        let pivot = li[i];
        for s in zi.iter_mut() {
            *s /= pivot;
        }
    }
    // Back solve Lᵀ X = Z: row i subtracts l_ki · x_k for k ascending,
    // reading column i of L (one scalar per right-hand-side sweep).
    let ld = l.as_slice();
    for i in (0..n).rev() {
        let (head, solved) = b.split_at_mut((i + 1) * nrhs);
        let xi = &mut head[i * nrhs..];
        for (xk, lk) in solved
            .chunks_exact(nrhs)
            .zip(ld[(i + 1) * n..].chunks_exact(n))
        {
            let lki = lk[i];
            for (s, &x) in xi.iter_mut().zip(xk) {
                *s -= lki * x;
            }
        }
        let pivot = ld[i * n + i];
        for s in xi.iter_mut() {
            *s /= pivot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn decompose_known_matrix() {
        // A = [[4, 12, -16], [12, 37, -43], [-16, -43, 98]] has the classic
        // factor L = [[2,0,0],[6,1,0],[-8,5,3]].
        let a = Matrix::from_rows(&[
            &[4.0, 12.0, -16.0],
            &[12.0, 37.0, -43.0],
            &[-16.0, -43.0, 98.0],
        ])
        .unwrap();
        let l = cholesky_decompose(&a).unwrap();
        let expect = [[2.0, 0.0, 0.0], [6.0, 1.0, 0.0], [-8.0, 5.0, 3.0]];
        for (i, row) in expect.iter().enumerate() {
            for (j, &e) in row.iter().enumerate() {
                assert!((l.get(i, j) - e).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn solve_matches_direct_inverse() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let x = cholesky_solve(&a, &[10.0, 8.0]).unwrap();
        // Verify A x = b.
        let b = a.matvec(&x).unwrap();
        assert!((b[0] - 10.0).abs() < 1e-10);
        assert!((b[1] - 8.0).abs() < 1e-10);
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(cholesky_decompose(&a).is_err());
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            cholesky_decompose(&a),
            Err(LinalgError::Singular(_))
        ));
    }

    #[test]
    fn rhs_length_checked() {
        let a = Matrix::identity(3);
        assert!(cholesky_solve(&a, &[1.0]).is_err());
    }

    /// A random symmetric positive-definite `p × p` matrix `BᵀB + I`.
    fn random_spd(p: usize, rng: &mut StdRng) -> Matrix {
        let b = Matrix::from_vec(
            p + 2,
            p,
            (0..(p + 2) * p)
                .map(|_| rng.gen::<f64>() * 4.0 - 2.0)
                .collect(),
        )
        .unwrap();
        let mut g = b.gram();
        for i in 0..p {
            g.set(i, i, g.get(i, i) + 1.0);
        }
        g
    }

    #[test]
    fn slice_indexed_decompose_equals_get_set_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        for p in [1, 2, 7, 35, 70] {
            let a = random_spd(p, &mut rng);
            let mut reference = Matrix::zeros(p, p);
            for i in 0..p {
                for j in 0..=i {
                    let mut s = a.get(i, j);
                    for k in 0..j {
                        s -= reference.get(i, k) * reference.get(j, k);
                    }
                    let v = if i == j {
                        s.sqrt()
                    } else {
                        s / reference.get(j, j)
                    };
                    reference.set(i, j, v);
                }
            }
            let l = cholesky_decompose(&a).unwrap();
            for (x, y) in l.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "p = {p}");
            }
        }
    }

    #[test]
    fn slice_indexed_solve_equals_get_set_reference_bitwise() {
        // `cholesky_solve_factored` is the reference of every batched
        // bit-identity test, so pin it to the plain `get` formulation.
        let mut rng = StdRng::seed_from_u64(6);
        for p in [1, 2, 7, 35, 70] {
            let l = cholesky_decompose(&random_spd(p, &mut rng)).unwrap();
            let b: Vec<f64> = (0..p).map(|_| rng.gen::<f64>() * 200.0 - 100.0).collect();
            let mut z = vec![0.0; p];
            for i in 0..p {
                let mut s = b[i];
                for (k, &zk) in z.iter().enumerate().take(i) {
                    s -= l.get(i, k) * zk;
                }
                z[i] = s / l.get(i, i);
            }
            let mut reference = vec![0.0; p];
            for i in (0..p).rev() {
                let mut s = z[i];
                for (k, &xk) in reference.iter().enumerate().skip(i + 1) {
                    s -= l.get(k, i) * xk;
                }
                reference[i] = s / l.get(i, i);
            }
            let x = cholesky_solve_factored(&l, &b);
            for (x, y) in x.iter().zip(&reference) {
                assert_eq!(x.to_bits(), y.to_bits(), "p = {p}");
            }
        }
    }

    proptest! {
        #[test]
        fn batched_solve_equals_per_rhs_solve_bitwise(
            p in 1usize..=70,
            nrhs in 1usize..=80,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let l = cholesky_decompose(&random_spd(p, &mut rng)).unwrap();
            let rhs: Vec<Vec<f64>> = (0..nrhs)
                .map(|_| (0..p).map(|_| rng.gen::<f64>() * 200.0 - 100.0).collect())
                .collect();
            let mut batch = vec![0.0; p * nrhs];
            for (r, b) in rhs.iter().enumerate() {
                for (i, &v) in b.iter().enumerate() {
                    batch[i * nrhs + r] = v;
                }
            }
            cholesky_solve_factored_many(&l, &mut batch, nrhs);
            for (r, b) in rhs.iter().enumerate() {
                let alone = cholesky_solve_factored(&l, b);
                for (i, x) in alone.iter().enumerate() {
                    prop_assert_eq!(x.to_bits(), batch[i * nrhs + r].to_bits());
                }
            }
        }
    }

    #[test]
    fn identity_solve_is_identity() {
        let a = Matrix::identity(4);
        let b = [1.0, -2.0, 3.5, 0.25];
        let x = cholesky_solve(&a, &b).unwrap();
        assert_eq!(x, b.to_vec());
    }
}
