//! Error type for the ML substrate.

use opprox_linalg::LinalgError;
use std::fmt;

/// Errors produced by model fitting and prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// The training set was empty or had inconsistent shapes.
    InvalidTrainingData(String),
    /// A prediction was requested with the wrong number of features.
    FeatureMismatch {
        /// Features the model was trained with.
        expected: usize,
        /// Features supplied at prediction time.
        actual: usize,
    },
    /// A hyperparameter was out of its valid range.
    InvalidHyperparameter(String),
    /// The underlying linear-algebra routine failed.
    Numeric(String),
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::InvalidTrainingData(msg) => write!(f, "invalid training data: {msg}"),
            MlError::FeatureMismatch { expected, actual } => write!(
                f,
                "feature count mismatch: model expects {expected}, got {actual}"
            ),
            MlError::InvalidHyperparameter(msg) => write!(f, "invalid hyperparameter: {msg}"),
            MlError::Numeric(msg) => write!(f, "numeric failure: {msg}"),
        }
    }
}

impl std::error::Error for MlError {}

impl From<LinalgError> for MlError {
    fn from(e: LinalgError) -> Self {
        MlError::Numeric(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        assert!(MlError::InvalidTrainingData("empty".into())
            .to_string()
            .contains("empty"));
        assert!(MlError::FeatureMismatch {
            expected: 3,
            actual: 2
        }
        .to_string()
        .contains("expects 3"));
    }

    #[test]
    fn converts_from_linalg_error() {
        let e: MlError = LinalgError::Singular("pivot".into()).into();
        assert!(matches!(e, MlError::Numeric(_)));
    }
}
