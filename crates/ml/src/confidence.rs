//! Empirical confidence intervals for model predictions
//! (paper Sec. 3.6, "Confidence Analysis of Models"; adapts Mitra et al.,
//! PACT 2015).
//!
//! OPPROX wraps every regression model in an empirical error band: if `p`
//! fraction of validation-time modeling errors stay within `e`, then a
//! prediction `Q` is interpreted as the interval `[Q − e, Q + e]`. To stay
//! conservative the optimizer uses the *upper* limit for QoS degradation
//! and the *lower* limit for speedup.

use crate::error::MlError;
use opprox_linalg::stats::quantile;
use serde::{Deserialize, Serialize};

/// An empirical confidence band derived from held-out residuals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceBand {
    half_width: f64,
    p: f64,
}

impl ConfidenceBand {
    /// Builds a band such that `p` fraction of the given absolute
    /// residuals fall within the half-width.
    ///
    /// # Errors
    ///
    /// * [`MlError::InvalidTrainingData`] if `residuals` is empty.
    /// * [`MlError::InvalidHyperparameter`] if `p` is outside `(0, 1]`.
    pub(crate) fn from_residuals(residuals: &[f64], p: f64) -> Result<Self, MlError> {
        if residuals.is_empty() {
            return Err(MlError::InvalidTrainingData(
                "cannot build a confidence band from zero residuals".into(),
            ));
        }
        if !(0.0..=1.0).contains(&p) || p == 0.0 {
            return Err(MlError::InvalidHyperparameter(format!(
                "confidence level must be in (0, 1], got {p}"
            )));
        }
        let abs: Vec<f64> = residuals.iter().map(|r| r.abs()).collect();
        let half_width = quantile(&abs, p).expect("non-empty");
        Ok(ConfidenceBand { half_width, p })
    }

    /// The half-width `e` of the band.
    pub fn half_width(&self) -> f64 {
        self.half_width
    }

    /// The confidence level `p` the band was built for.
    pub fn level(&self) -> f64 {
        self.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_covers_p_fraction_of_residuals() {
        let residuals: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let band = ConfidenceBand::from_residuals(&residuals, 0.9).unwrap();
        let covered = residuals
            .iter()
            .filter(|r| r.abs() <= band.half_width())
            .count();
        assert!(covered >= 90, "covered {covered}");
    }

    #[test]
    fn p99_band_is_wider_than_p50() {
        let residuals: Vec<f64> = (0..200).map(|i| (i as f64 - 100.0) / 50.0).collect();
        let b50 = ConfidenceBand::from_residuals(&residuals, 0.5).unwrap();
        let b99 = ConfidenceBand::from_residuals(&residuals, 0.99).unwrap();
        assert!(b99.half_width() > b50.half_width());
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(ConfidenceBand::from_residuals(&[], 0.9).is_err());
        assert!(ConfidenceBand::from_residuals(&[1.0], 0.0).is_err());
        assert!(ConfidenceBand::from_residuals(&[1.0], 1.5).is_err());
    }

    #[test]
    fn zero_residuals_give_zero_width() {
        let band = ConfidenceBand::from_residuals(&[0.0, 0.0, 0.0], 0.99).unwrap();
        assert_eq!(band.half_width(), 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let band = ConfidenceBand::from_residuals(&[0.5, -0.25, 0.1], 0.9).unwrap();
        let json = serde_json::to_string(&band).unwrap();
        let back: ConfidenceBand = serde_json::from_str(&json).unwrap();
        assert_eq!(band, back);
    }
}
