//! Summary statistics used across the OPPROX modeling pipeline.

/// Arithmetic mean of a slice. Returns `0.0` for an empty slice.
///
/// # Example
///
/// ```
/// assert_eq!(opprox_linalg::stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance of a slice. Returns `0.0` for slices with fewer than
/// two elements.
pub(crate) fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation of a slice.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Empirical quantile with linear interpolation between order statistics.
///
/// `q` is clamped to `[0, 1]`. Returns `None` for an empty slice.
///
/// # Example
///
/// ```
/// use opprox_linalg::stats::quantile;
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(quantile(&xs, 0.0), Some(1.0));
/// assert_eq!(quantile(&xs, 1.0), Some(4.0));
/// assert_eq!(quantile(&xs, 0.5), Some(2.5));
/// ```
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Coefficient of determination R² of predictions against truth.
///
/// `R² = 1 − SS_res / SS_tot`. When the truth has zero variance, returns
/// `1.0` if every prediction matches exactly and `0.0` otherwise.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn r2_score(truth: &[f64], pred: &[f64]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "r2 inputs must have equal length");
    if truth.is_empty() {
        return 0.0;
    }
    let m = mean(truth);
    let ss_tot: f64 = truth.iter().map(|t| (t - m) * (t - m)).sum();
    let ss_res: f64 = truth
        .iter()
        .zip(pred.iter())
        .map(|(t, p)| (t - p) * (t - p))
        .sum();
    if ss_tot == 0.0 {
        return if ss_res == 0.0 { 1.0 } else { 0.0 };
    }
    1.0 - ss_res / ss_tot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_handles_empty_and_values() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0]), 2.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn variance_and_std_dev() {
        assert_eq!(variance(&[5.0]), 0.0);
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_endpoints_and_interp() {
        let xs = [10.0, 20.0, 30.0];
        assert_eq!(quantile(&xs, 0.0), Some(10.0));
        assert_eq!(quantile(&xs, 0.5), Some(20.0));
        assert_eq!(quantile(&xs, 1.0), Some(30.0));
        assert_eq!(quantile(&xs, 0.25), Some(15.0));
        assert_eq!(quantile(&[], 0.5), None);
        // Out-of-range q is clamped.
        assert_eq!(quantile(&xs, 2.0), Some(30.0));
    }

    #[test]
    fn r2_perfect_prediction_is_one() {
        let t = [1.0, 2.0, 3.0];
        assert_eq!(r2_score(&t, &t), 1.0);
    }

    #[test]
    fn r2_mean_prediction_is_zero() {
        let t = [1.0, 2.0, 3.0];
        let p = [2.0, 2.0, 2.0];
        assert!(r2_score(&t, &p).abs() < 1e-12);
    }

    #[test]
    fn r2_constant_truth_cases() {
        assert_eq!(r2_score(&[2.0, 2.0], &[2.0, 2.0]), 1.0);
        assert_eq!(r2_score(&[2.0, 2.0], &[2.0, 3.0]), 0.0);
    }
}
