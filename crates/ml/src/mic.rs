//! Maximal Information Coefficient (MIC) feature filtering
//! (paper Sec. 3.7; Reshef et al., *Science* 2011).
//!
//! OPPROX uses MIC to decide whether an input feature (an application
//! input parameter or an approximation level) has *any* association with a
//! modeling target (iteration count, QoS degradation, or speedup), and
//! drops features without an association before fitting the polynomial
//! regression.
//!
//! This module implements a grid-search MIC in the spirit of ApproxMaxMI:
//! for every grid shape `(a, b)` with `a · b ≤ n^0.6`, both axes are
//! partitioned into equal-frequency bins, the mutual information of the
//! induced joint distribution is computed and normalized by
//! `log(min(a, b))`, and the maximum over all admissible shapes is
//! returned. The full dynamic-programming optimization over x-partitions
//! is replaced by equal-frequency partitions, which is a standard,
//! well-behaved approximation that preserves the property the paper relies
//! on: MIC ≈ 0 for independent variables and MIC → 1 for noiseless
//! functional relationships.

use crate::error::MlError;

/// Default grid-size exponent `α` from Reshef et al.: grids are limited to
/// `a · b ≤ n^α`.
pub(crate) const DEFAULT_ALPHA: f64 = 0.6;

/// Computes the Maximal Information Coefficient between `xs` and `ys`.
///
/// Returns a value in `[0, 1]`; larger values mean stronger association.
///
/// # Errors
///
/// * [`MlError::InvalidTrainingData`] if the slices differ in length or
///   contain fewer than four points (no admissible grid exists).
///
/// # Example
///
/// ```
/// use opprox_ml::mic::mic;
///
/// let xs: Vec<f64> = (0..64).map(|i| i as f64).collect();
/// let linear: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
/// assert!(mic(&xs, &linear).unwrap() > 0.9);
/// ```
pub fn mic(xs: &[f64], ys: &[f64]) -> Result<f64, MlError> {
    mic_with_alpha(xs, ys, DEFAULT_ALPHA)
}

/// Computes MIC with an explicit grid-size exponent `alpha`.
///
/// # Errors
///
/// Same as [`mic`], plus [`MlError::InvalidHyperparameter`] for
/// non-positive `alpha`.
pub(crate) fn mic_with_alpha(xs: &[f64], ys: &[f64], alpha: f64) -> Result<f64, MlError> {
    let budget = grid_budget(xs, ys, alpha)?;
    Ok(mic_of_bins(
        &equal_frequency_bins(xs, budget),
        &equal_frequency_bins(ys, budget),
        budget,
    ))
}

/// Validates a MIC input pair and returns its grid budget `⌊n^α⌋`.
fn grid_budget(xs: &[f64], ys: &[f64], alpha: f64) -> Result<usize, MlError> {
    if alpha <= 0.0 {
        return Err(MlError::InvalidHyperparameter(format!(
            "alpha must be positive, got {alpha}"
        )));
    }
    if xs.len() != ys.len() {
        return Err(MlError::InvalidTrainingData(format!(
            "{} x values vs {} y values",
            xs.len(),
            ys.len()
        )));
    }
    let n = xs.len();
    if n < 4 {
        return Err(MlError::InvalidTrainingData(format!(
            "MIC needs at least 4 points, got {n}"
        )));
    }
    Ok((n as f64).powf(alpha).floor() as usize)
}

/// MIC over every admissible grid shape `(a, b)`, where `x_bins[a − 2]`
/// and `y_bins[b − 2]` are the columns binned into `a` and `b` bins.
fn mic_of_bins(x_bins: &[Vec<usize>], y_bins: &[Vec<usize>], budget: usize) -> f64 {
    let mut best = 0.0f64;
    for (a, xa) in (2..).zip(x_bins) {
        let max_b = (budget / a).max(2);
        for b in 2..=max_b {
            if a * b > budget && (a, b) != (2, 2) {
                continue;
            }
            let mi = mutual_information(xa, a, &y_bins[b - 2], b);
            let norm = (a.min(b) as f64).ln();
            if norm > 0.0 {
                best = best.max(mi / norm);
            }
        }
    }
    best.min(1.0)
}

/// Equal-frequency bin assignments of `vals` for every bin count in
/// `2..=max(budget / 2, 2)`, the counts a grid under `budget` uses on
/// either axis; entry `bins − 2` assigns each value to one of `bins`
/// bins. The column is sorted once for all of them.
fn equal_frequency_bins(vals: &[f64], budget: usize) -> Vec<Vec<usize>> {
    let n = vals.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        vals[i]
            .partial_cmp(&vals[j])
            .expect("NaN in MIC input")
            .then(i.cmp(&j))
    });
    (2..=(budget / 2).max(2))
        .map(|bins| {
            let mut assign = vec![0usize; n];
            for (rank, &i) in order.iter().enumerate() {
                assign[i] = (rank * bins / n).min(bins - 1);
            }
            // Ties in value must land in the same bin to avoid phantom
            // information; merge equal values into the bin of their first
            // occurrence.
            for w in order.windows(2) {
                if vals[w[0]] == vals[w[1]] {
                    assign[w[1]] = assign[w[0]];
                }
            }
            assign
        })
        .collect()
}

/// Mutual information (nats) of a discrete joint distribution given bin
/// assignments.
fn mutual_information(xb: &[usize], a: usize, yb: &[usize], b: usize) -> f64 {
    let n = xb.len() as f64;
    let mut joint = vec![0.0f64; a * b];
    let mut px = vec![0.0f64; a];
    let mut py = vec![0.0f64; b];
    for (&x, &y) in xb.iter().zip(yb.iter()) {
        joint[x * b + y] += 1.0;
        px[x] += 1.0;
        py[y] += 1.0;
    }
    let mut mi = 0.0;
    for x in 0..a {
        for y in 0..b {
            let pxy = joint[x * b + y] / n;
            if pxy > 0.0 {
                mi += pxy * (pxy / (px[x] / n * py[y] / n)).ln();
            }
        }
    }
    mi.max(0.0)
}

/// Filters feature columns by their MIC against the target.
///
/// Returns the indices of features whose MIC with `ys` is at least
/// `threshold`. This is exactly the paper's pre-modeling step: "features
/// not having an association are filtered out".
///
/// # Errors
///
/// Propagates [`mic`] errors; rows must be non-ragged.
pub(crate) fn filter_features_by_mic(
    xs: &[Vec<f64>],
    ys: &[f64],
    threshold: f64,
) -> Result<Vec<usize>, MlError> {
    if xs.is_empty() {
        return Err(MlError::InvalidTrainingData("no rows".into()));
    }
    let dim = xs[0].len();
    if xs.iter().any(|r| r.len() != dim) {
        return Err(MlError::InvalidTrainingData("ragged rows".into()));
    }
    // The target is ranked and binned once, on the first column that
    // needs it, and shared by every column.
    let mut y_bins = None;
    let mut keep = Vec::new();
    for c in 0..dim {
        let col: Vec<f64> = xs.iter().map(|r| r[c]).collect();
        // A constant column carries no information; skip it outright.
        if col.iter().all(|&v| v == col[0]) {
            continue;
        }
        let budget = grid_budget(&col, ys, DEFAULT_ALPHA)?;
        let y_bins = y_bins.get_or_insert_with(|| equal_frequency_bins(ys, budget));
        if mic_of_bins(&equal_frequency_bins(&col, budget), y_bins, budget) >= threshold {
            keep.push(c);
        }
    }
    Ok(keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn linear_relationship_scores_high() {
        let xs: Vec<f64> = (0..128).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 1.0).collect();
        assert!(mic(&xs, &ys).unwrap() > 0.9);
    }

    #[test]
    fn nonmonotone_functional_relationship_scores_high() {
        let xs: Vec<f64> = (0..200).map(|i| i as f64 / 10.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x).sin()).collect();
        assert!(mic(&xs, &ys).unwrap() > 0.5);
    }

    #[test]
    fn independent_noise_scores_low() {
        let mut rng = StdRng::seed_from_u64(9);
        let xs: Vec<f64> = (0..256).map(|_| rng.gen::<f64>()).collect();
        let ys: Vec<f64> = (0..256).map(|_| rng.gen::<f64>()).collect();
        let v = mic(&xs, &ys).unwrap();
        assert!(v < 0.35, "independent MIC was {v}");
    }

    #[test]
    fn mic_is_symmetric_enough() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x * x).collect();
        let a = mic(&xs, &ys).unwrap();
        let b = mic(&ys, &xs).unwrap();
        assert!((a - b).abs() < 0.2);
        assert!(a > 0.8);
    }

    #[test]
    fn rejects_short_and_mismatched_inputs() {
        assert!(mic(&[1.0, 2.0], &[1.0, 2.0]).is_err());
        assert!(mic(&[1.0, 2.0, 3.0, 4.0], &[1.0]).is_err());
        assert!(mic_with_alpha(&[1.0; 8], &[1.0; 8], 0.0).is_err());
    }

    #[test]
    fn filter_keeps_informative_and_drops_noise() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200;
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let x0 = i as f64 / 10.0;
            let noise: f64 = rng.gen();
            xs.push(vec![x0, noise, 5.0]);
            ys.push(x0 * 2.0 + 1.0);
        }
        let keep = filter_features_by_mic(&xs, &ys, 0.4).unwrap();
        assert!(keep.contains(&0), "informative feature dropped: {keep:?}");
        assert!(!keep.contains(&1), "noise feature kept: {keep:?}");
        assert!(!keep.contains(&2), "constant feature kept: {keep:?}");
    }

    /// MIC as computed before columns were sorted once: both columns
    /// re-sorted and re-binned for every grid shape.
    fn per_shape_reference(xs: &[f64], ys: &[f64], alpha: f64) -> f64 {
        fn assign(vals: &[f64], bins: usize) -> Vec<usize> {
            let n = vals.len();
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&i, &j| vals[i].partial_cmp(&vals[j]).unwrap().then(i.cmp(&j)));
            let mut assign = vec![0usize; n];
            for (rank, &i) in order.iter().enumerate() {
                assign[i] = (rank * bins / n).min(bins - 1);
            }
            for w in 1..n {
                let (i_prev, i_cur) = (order[w - 1], order[w]);
                if vals[i_prev] == vals[i_cur] {
                    assign[i_cur] = assign[i_prev];
                }
            }
            assign
        }
        let budget = (xs.len() as f64).powf(alpha).floor() as usize;
        let mut best = 0.0f64;
        for a in 2..=(budget / 2).max(2) {
            for b in 2..=(budget / a).max(2) {
                if a * b > budget && (a, b) != (2, 2) {
                    continue;
                }
                let mi = mutual_information(&assign(xs, a), a, &assign(ys, b), b);
                let norm = (a.min(b) as f64).ln();
                if norm > 0.0 {
                    best = best.max(mi / norm);
                }
            }
        }
        best.min(1.0)
    }

    #[test]
    fn one_sort_per_column_equals_per_shape_recompute_bitwise() {
        let mut rng = StdRng::seed_from_u64(17);
        for n in [4, 5, 9, 48, 130, 400] {
            let xs: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
            // Heavy ties on one side exercise the tie merge.
            let ties: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
            let smooth: Vec<f64> = xs.iter().map(|x| (x * 9.0).sin()).collect();
            for (a, b) in [(&xs, &smooth), (&ties, &xs), (&smooth, &ties)] {
                for alpha in [0.4, DEFAULT_ALPHA, 0.8] {
                    let fast = mic_with_alpha(a, b, alpha).unwrap();
                    assert_eq!(
                        fast.to_bits(),
                        per_shape_reference(a, b, alpha).to_bits(),
                        "n = {n}, alpha = {alpha}"
                    );
                }
            }
            let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![xs[i], ties[i]]).collect();
            let kept = filter_features_by_mic(&rows, &smooth, 0.3).unwrap();
            let expect: Vec<usize> = [&xs, &ties]
                .iter()
                .enumerate()
                .filter(|(_, col)| per_shape_reference(col, &smooth, DEFAULT_ALPHA) >= 0.3)
                .map(|(c, _)| c)
                .collect();
            assert_eq!(kept, expect, "n = {n}");
        }
    }

    #[test]
    fn ties_do_not_create_phantom_information() {
        // x constant except for ties => assignments collapse to one bin.
        let xs = vec![1.0; 64];
        let ys: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let v = mic(&xs, &ys).unwrap();
        assert!(v < 1e-9, "constant x should carry no information, got {v}");
    }
}
