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
/// assert_eq!(m.row(1), &[3.0, 4.0]);
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

    /// Returns the underlying row-major buffer.
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Computes `Aᵀ A` (the Gram matrix), which is symmetric positive
    /// semi-definite.
    ///
    /// Streams the rows once: row `aᵣ` adds `aᵣᵢ · aᵣ[i..]` into row `i`
    /// of the upper triangle, so every entry sums its products in row
    /// order starting from `0.0`, exactly like a per-entry dot product
    /// down two columns. The lower triangle is mirrored at the end.
    pub(crate) fn gram(&self) -> Matrix {
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
    pub(crate) fn t_matvec(&self, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
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
    fn zeros_has_shape_and_no_entries() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
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
    fn get_set_row() {
        let mut m = m22();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        m.set(0, 1, 9.0);
        assert_eq!(m.get(0, 1), 9.0);
    }

    #[test]
    fn t_matvec_against_hand_computation() {
        let a = m22();
        assert_eq!(a.t_matvec(&[1.0, 1.0]).unwrap(), vec![4.0, 6.0]);
        assert!(a.t_matvec(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn gram_is_ata() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        // AᵀA by hand: [[1+9+25, 2+12+30], [2+12+30, 4+16+36]].
        let expect = Matrix::from_rows(&[&[35.0, 44.0], &[44.0, 56.0]]).unwrap();
        assert_eq!(a.gram(), expect);
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
    #[should_panic]
    fn get_out_of_bounds_panics() {
        m22().get(2, 0);
    }
}
