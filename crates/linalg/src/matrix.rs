//! Row-major dense matrix of `f64`.

use crate::error::LinalgError;
use serde::{Deserialize, Serialize};

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the workhorse container for the regression and
/// decomposition routines in this crate. It stores its elements in a
/// single contiguous `Vec<f64>` in row-major order.
///
/// # Example
///
/// ```
/// use opprox_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.transpose().get(0, 1), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "buffer of length {} cannot form a {}x{} matrix",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `rows` is empty and
    /// [`LinalgError::DimensionMismatch`] if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Err(LinalgError::InvalidArgument(
                "cannot build a matrix from zero rows".into(),
            ));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch(format!(
                    "row {} has length {}, expected {}",
                    i,
                    r.len(),
                    cols
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the element at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Returns row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns column `c` as a freshly allocated vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column {c} out of bounds");
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Returns the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Matrix–matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the inner dimensions
    /// disagree.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch(format!(
                "{}x{} * {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += aik * other.get(k, j);
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "{}x{} matrix times vector of length {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        Ok((0..self.rows)
            .map(|r| {
                self.row(r)
                    .iter()
                    .zip(x.iter())
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
            })
            .collect())
    }

    /// Computes `Aᵀ A` (the Gram matrix), which is symmetric positive
    /// semi-definite.
    ///
    /// Streams the rows once: row `aᵣ` adds `aᵣᵢ · aᵣ[i..]` into row `i`
    /// of the upper triangle, so every entry sums its products in row
    /// order starting from `0.0`, exactly like a per-entry dot product
    /// down two columns. The lower triangle is mirrored at the end.
    pub fn gram(&self) -> Matrix {
        let p = self.cols;
        let mut out = Matrix::zeros(p, p);
        for r in 0..self.rows {
            let row = self.row(r);
            for (i, &ai) in row.iter().enumerate() {
                let upper = &mut out.data[i * p + i..(i + 1) * p];
                for (g, &aj) in upper.iter_mut().zip(&row[i..]) {
                    *g += ai * aj;
                }
            }
        }
        for i in 0..p {
            for j in 0..i {
                out.data[i * p + j] = out.data[j * p + i];
            }
        }
        out
    }

    /// Computes `Aᵀ y`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `y.len() != rows`.
    pub fn t_matvec(&self, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if y.len() != self.rows {
            return Err(LinalgError::DimensionMismatch(format!(
                "transpose of {}x{} matrix times vector of length {}",
                self.rows,
                self.cols,
                y.len()
            )));
        }
        let mut out = vec![0.0; self.cols];
        for (r, &yr) in y.iter().enumerate() {
            for (o, &a) in out.iter_mut().zip(self.row(r)) {
                *o += a * yr;
            }
        }
        Ok(out)
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Appends a row to the bottom of the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the row length does
    /// not match the column count.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), LinalgError> {
        if row.len() != self.cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "row of length {} pushed onto matrix with {} columns",
                row.len(),
                self.cols
            )));
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Builds a matrix by stacking owned rows; convenience over
    /// [`Matrix::from_rows`] for `Vec<Vec<f64>>` data.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Matrix::from_rows`].
    pub fn from_row_vecs(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        let borrowed: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Matrix::from_rows(&borrowed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap()
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(1, 2), 0.0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged_and_empty() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
    }

    #[test]
    fn get_set_row_col() {
        let mut m = m22();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
        m.set(0, 1, 9.0);
        assert_eq!(m.get(0, 1), 9.0);
    }

    #[test]
    fn transpose_round_trips() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_against_hand_computation() {
        let a = m22();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = m22();
        let b = Matrix::zeros(3, 2);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_and_t_matvec() {
        let a = m22();
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert_eq!(a.t_matvec(&[1.0, 1.0]).unwrap(), vec![4.0, 6.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.t_matvec(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn gram_is_ata() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let g = a.gram();
        let expect = a.transpose().matmul(&a).unwrap();
        assert_eq!(g, expect);
    }

    #[test]
    fn row_streamed_gram_equals_naive_triple_loop_bitwise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for (rows, cols) in [(1, 1), (3, 5), (48, 35), (17, 84), (0, 4)] {
            let data: Vec<f64> = (0..rows * cols)
                .map(|i| match i % 7 {
                    // Signed zeros and exact cancellations exercise the
                    // start value and the summation order.
                    0 => -0.0,
                    1 => 0.0,
                    _ => rng.gen::<f64>() * 200.0 - 100.0,
                })
                .collect();
            let a = Matrix::from_vec(rows, cols, data).unwrap();
            let g = a.gram();
            for i in 0..cols {
                for j in 0..cols {
                    let (lo, hi) = (i.min(j), i.max(j));
                    let mut s = 0.0;
                    for r in 0..rows {
                        s += a.get(r, lo) * a.get(r, hi);
                    }
                    assert_eq!(
                        g.get(i, j).to_bits(),
                        s.to_bits(),
                        "({i},{j}) of {rows}x{cols}"
                    );
                }
            }
        }
    }

    #[test]
    fn push_row_grows_matrix() {
        let mut m = m22();
        m.push_row(&[5.0, 6.0]).unwrap();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.row(2), &[5.0, 6.0]);
        assert!(m.push_row(&[1.0]).is_err());
    }

    #[test]
    fn frobenius_norm_matches_hand_value() {
        let m = m22();
        let expect = (1.0f64 + 4.0 + 9.0 + 16.0).sqrt();
        assert!((m.frobenius_norm() - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn get_out_of_bounds_panics() {
        m22().get(2, 0);
    }
}
