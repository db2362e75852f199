//! Polynomial feature expansion and standardization.

use crate::error::MlError;
use serde::{Deserialize, Serialize};

/// Expands raw feature vectors into all monomials up to a total degree.
///
/// For input variables `x₁ … x_k` and degree `d`, the expansion contains
/// the constant term `1` followed by every monomial
/// `x₁^{e₁} · … · x_k^{e_k}` with `1 ≤ e₁+…+e_k ≤ d`, in a deterministic
/// order. This matches the model family the paper uses, e.g. the degree-2
/// expansion of two locals `s₁, s₂` is `1, s₁, s₂, s₁², s₁s₂, s₂²` (the
/// paper's `c₀ + c₁s₁ + c₂s₂ + c₃s₁s₂ + c₄s₁² + c₅s₂²`).
///
/// # Example
///
/// ```
/// use opprox_ml::features::PolynomialFeatures;
///
/// let pf = PolynomialFeatures::new(2, 2);
/// let row = pf.transform_one(&[2.0, 3.0]).unwrap();
/// // 1, x1, x2, x1^2, x1*x2, x2^2
/// assert_eq!(row, vec![1.0, 2.0, 3.0, 4.0, 6.0, 9.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolynomialFeatures {
    num_inputs: usize,
    degree: usize,
    /// Exponent vectors, one per output feature (excluding the constant).
    exponents: Vec<Vec<usize>>,
}

impl PolynomialFeatures {
    /// Creates an expansion for `num_inputs` variables up to total degree
    /// `degree`. A degree of `0` produces only the constant term.
    pub fn new(num_inputs: usize, degree: usize) -> Self {
        let mut exponents = Vec::new();
        for total in 1..=degree {
            append_exponents(num_inputs, total, &mut exponents);
        }
        PolynomialFeatures {
            num_inputs,
            degree,
            exponents,
        }
    }

    /// Number of raw input variables.
    pub(crate) fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of output features, including the constant term.
    pub fn num_outputs(&self) -> usize {
        self.exponents.len() + 1
    }

    /// Expands one raw feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureMismatch`] if `x.len() != num_inputs`.
    pub fn transform_one(&self, x: &[f64]) -> Result<Vec<f64>, MlError> {
        if x.len() != self.num_inputs {
            return Err(MlError::FeatureMismatch {
                expected: self.num_inputs,
                actual: x.len(),
            });
        }
        let mut out = Vec::with_capacity(self.num_outputs());
        out.push(1.0);
        for exps in &self.exponents {
            let mut v = 1.0;
            for (xi, &e) in x.iter().zip(exps.iter()) {
                for _ in 0..e {
                    v *= xi;
                }
            }
            out.push(v);
        }
        Ok(out)
    }

    /// Expands one raw feature vector into a caller-provided buffer,
    /// appending `num_outputs` values. The arithmetic matches
    /// [`PolynomialFeatures::transform_one`] exactly, so batched paths
    /// built on this method stay bit-identical to the per-row path.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureMismatch`] if `x.len() != num_inputs`.
    pub(crate) fn transform_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<(), MlError> {
        if x.len() != self.num_inputs {
            return Err(MlError::FeatureMismatch {
                expected: self.num_inputs,
                actual: x.len(),
            });
        }
        out.reserve(self.num_outputs());
        out.push(1.0);
        for exps in &self.exponents {
            let mut v = 1.0;
            for (xi, &e) in x.iter().zip(exps.iter()) {
                for _ in 0..e {
                    v *= xi;
                }
            }
            out.push(v);
        }
        Ok(())
    }

    /// Exponent vectors of the non-constant output features, in output
    /// order. Each inner slice has one exponent per input variable; the
    /// struct-of-arrays prediction path walks these to rebuild every
    /// monomial with exactly the multiplication sequence of
    /// [`PolynomialFeatures::transform_one`].
    pub(crate) fn exponents(&self) -> &[Vec<usize>] {
        &self.exponents
    }
}

/// Appends all exponent vectors of `num_vars` variables summing to
/// exactly `total`, in lexicographic order.
fn append_exponents(num_vars: usize, total: usize, out: &mut Vec<Vec<usize>>) {
    fn rec(
        prefix: &mut Vec<usize>,
        remaining_vars: usize,
        remaining_total: usize,
        out: &mut Vec<Vec<usize>>,
    ) {
        if remaining_vars == 1 {
            prefix.push(remaining_total);
            out.push(prefix.clone());
            prefix.pop();
            return;
        }
        for e in (0..=remaining_total).rev() {
            prefix.push(e);
            rec(prefix, remaining_vars - 1, remaining_total - e, out);
            prefix.pop();
        }
    }
    if num_vars == 0 {
        return;
    }
    rec(&mut Vec::new(), num_vars, total, out);
}

/// Z-score standardizer fitted on training data and reused at prediction
/// time.
///
/// Columns with zero variance are passed through unscaled (centred only),
/// which keeps constant knobs from blowing up the transform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fits means and standard deviations per column.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidTrainingData`] if `xs` is empty or ragged.
    pub fn fit(xs: &[Vec<f64>]) -> Result<Self, MlError> {
        Self::fit_rows(xs.iter())
    }

    /// Like [`Standardizer::fit`] over the rows an iterator yields, in
    /// that order (the iterator is cloned and walked several times). The
    /// cross-validation engine fits a row subset this way without copying
    /// it.
    pub(crate) fn fit_rows<'a, I>(xs: I) -> Result<Self, MlError>
    where
        I: Iterator<Item = &'a Vec<f64>> + Clone,
    {
        let dim = xs
            .clone()
            .next()
            .ok_or_else(|| MlError::InvalidTrainingData("no rows".into()))?
            .len();
        if xs.clone().any(|r| r.len() != dim) {
            return Err(MlError::InvalidTrainingData("ragged rows".into()));
        }
        let n = xs.clone().count() as f64;
        let mut means = vec![0.0; dim];
        for r in xs.clone() {
            for (m, v) in means.iter_mut().zip(r.iter()) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0; dim];
        for r in xs {
            for ((s, v), m) in stds.iter_mut().zip(r.iter()).zip(means.iter()) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt();
            if *s == 0.0 {
                *s = 1.0;
            }
        }
        Ok(Standardizer { means, stds })
    }

    /// Standardizes one row in place semantics (returns a new vector).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureMismatch`] on a wrong-length row.
    pub(crate) fn transform_one(&self, x: &[f64]) -> Result<Vec<f64>, MlError> {
        if x.len() != self.means.len() {
            return Err(MlError::FeatureMismatch {
                expected: self.means.len(),
                actual: x.len(),
            });
        }
        Ok(x.iter()
            .zip(self.means.iter().zip(self.stds.iter()))
            .map(|(v, (m, s))| (v - m) / s)
            .collect())
    }

    /// Standardizes one row into a caller-provided buffer, appending one
    /// value per column. Arithmetic matches
    /// [`Standardizer::transform_one`] exactly.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureMismatch`] on a wrong-length row.
    pub(crate) fn transform_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<(), MlError> {
        if x.len() != self.means.len() {
            return Err(MlError::FeatureMismatch {
                expected: self.means.len(),
                actual: x.len(),
            });
        }
        out.extend(
            x.iter()
                .zip(self.means.iter().zip(self.stds.iter()))
                .map(|(v, (m, s))| (v - m) / s),
        );
        Ok(())
    }

    /// Standardizes a batch of rows.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureMismatch`] on the first malformed row.
    pub fn transform(&self, xs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, MlError> {
        xs.iter().map(|x| self.transform_one(x)).collect()
    }

    /// Standardizes a flat row-major batch into a *column-major* buffer:
    /// appends all of column 0, then all of column 1, and so on. Each
    /// value is produced by exactly the `(v - mean) / std` expression of
    /// [`Standardizer::transform_one`], so the transposed layout stays
    /// bit-identical per value; only the memory order changes, which is
    /// what lets the struct-of-arrays prediction path stream contiguous
    /// columns.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureMismatch`] if `rows.len()` is not a
    /// multiple of the fitted column count.
    pub(crate) fn transform_flat_transposed(
        &self,
        rows: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), MlError> {
        let dim = self.means.len();
        if dim == 0 || !rows.len().is_multiple_of(dim) {
            return Err(MlError::FeatureMismatch {
                expected: dim,
                actual: rows.len() % dim.max(1),
            });
        }
        out.reserve(rows.len());
        for ((c, m), s) in (0..dim).zip(self.means.iter()).zip(self.stds.iter()) {
            out.extend(rows.iter().skip(c).step_by(dim).map(|v| (v - m) / s));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_zero_is_constant_only() {
        let pf = PolynomialFeatures::new(3, 0);
        assert_eq!(pf.num_outputs(), 1);
        assert_eq!(pf.transform_one(&[1.0, 2.0, 3.0]).unwrap(), vec![1.0]);
    }

    #[test]
    fn degree_one_is_affine() {
        let pf = PolynomialFeatures::new(2, 1);
        assert_eq!(pf.transform_one(&[5.0, 7.0]).unwrap(), vec![1.0, 5.0, 7.0]);
    }

    #[test]
    fn degree_two_matches_paper_example() {
        let pf = PolynomialFeatures::new(2, 2);
        // The paper's degree-2 model over (s1, s2) has 6 terms.
        assert_eq!(pf.num_outputs(), 6);
        let row = pf.transform_one(&[2.0, 3.0]).unwrap();
        assert_eq!(row, vec![1.0, 2.0, 3.0, 4.0, 6.0, 9.0]);
    }

    #[test]
    fn output_count_matches_binomial_formula() {
        // #outputs = C(k + d, d) for k variables, degree d.
        fn binom(n: usize, k: usize) -> usize {
            let mut r = 1usize;
            for i in 0..k {
                r = r * (n - i) / (i + 1);
            }
            r
        }
        for k in 1..4 {
            for d in 0..5 {
                let pf = PolynomialFeatures::new(k, d);
                assert_eq!(pf.num_outputs(), binom(k + d, d), "k={k} d={d}");
            }
        }
    }

    #[test]
    fn transform_checks_arity() {
        let pf = PolynomialFeatures::new(2, 2);
        assert!(pf.transform_one(&[1.0]).is_err());
    }

    #[test]
    fn standardizer_zero_mean_unit_var() {
        let xs = vec![vec![1.0, 10.0], vec![3.0, 20.0], vec![5.0, 30.0]];
        let s = Standardizer::fit(&xs).unwrap();
        let t = s.transform(&xs).unwrap();
        for c in 0..2 {
            let col: Vec<f64> = t.iter().map(|r| r[c]).collect();
            let m: f64 = col.iter().sum::<f64>() / col.len() as f64;
            let v: f64 = col.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / col.len() as f64;
            assert!(m.abs() < 1e-12);
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn standardizer_constant_column_is_centred_not_scaled() {
        let xs = vec![vec![4.0], vec![4.0], vec![4.0]];
        let s = Standardizer::fit(&xs).unwrap();
        assert_eq!(s.transform_one(&[4.0]).unwrap(), vec![0.0]);
        assert_eq!(s.transform_one(&[5.0]).unwrap(), vec![1.0]);
    }

    #[test]
    fn transform_into_matches_transform_one_bitwise() {
        let pf = PolynomialFeatures::new(3, 4);
        let s = Standardizer::fit(&[vec![1.0, 5.0, -2.0], vec![3.0, 9.0, 4.0]]).unwrap();
        let raw = [2.5, 7.25, 0.125];
        let std_owned = s.transform_one(&raw).unwrap();
        let mut std_buf = Vec::new();
        s.transform_into(&raw, &mut std_buf).unwrap();
        assert_eq!(std_owned, std_buf);
        let expanded = pf.transform_one(&std_owned).unwrap();
        let mut buf = vec![9.9]; // pre-existing content must be preserved
        pf.transform_into(&std_buf, &mut buf).unwrap();
        assert_eq!(buf[0], 9.9);
        for (a, b) in expanded.iter().zip(&buf[1..]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(pf.transform_into(&[1.0], &mut buf).is_err());
        assert!(s.transform_into(&[1.0], &mut buf).is_err());
    }

    #[test]
    fn standardizer_rejects_bad_input() {
        assert!(Standardizer::fit(&[]).is_err());
        assert!(Standardizer::fit(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        let s = Standardizer::fit(&[vec![1.0, 2.0]]).unwrap();
        assert!(s.transform_one(&[1.0]).is_err());
    }
}
