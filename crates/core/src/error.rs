//! Error type for the OPPROX core.

use crate::fault::FailureKind;
use opprox_approx_rt::RuntimeError;
use opprox_ml::MlError;
use std::fmt;

/// Errors produced by the OPPROX training and optimization pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum OpproxError {
    /// The driven application rejected an input or schedule.
    Runtime(RuntimeError),
    /// A model could not be fitted or queried.
    Model(MlError),
    /// Not enough training data was collected for a modeling step.
    InsufficientData(String),
    /// The accuracy specification was malformed.
    InvalidSpec(String),
    /// Serialization of a trained system failed.
    Serialization(String),
    /// A trained model set failed its integrity check (non-finite
    /// coefficients, invalid confidence bands, or shape mismatches); see
    /// [`crate::modeling::AppModels::integrity_issues`].
    InvalidModel(String),
    /// An evaluation exhausted every recovery attempt; see
    /// [`crate::fault::RecoveryPolicy`].
    EvaluationFailed {
        /// The terminal failure kind of the last attempt.
        kind: FailureKind,
        /// Attempts performed before giving up.
        attempts: u32,
        /// Human-readable context (app, fault details).
        context: String,
    },
    /// The (input, schedule) key was quarantined by an earlier failed
    /// evaluation and the request was refused outright.
    Quarantined {
        /// Human-readable context identifying the key.
        context: String,
    },
    /// A wire frame was malformed: invalid JSON, a missing or mistyped
    /// field, or a truncated line (wire code `bad_request`).
    BadRequest(String),
    /// A wire frame declared a protocol version this build does not
    /// speak (wire code `unsupported_version`).
    UnsupportedVersion {
        /// The version the frame declared.
        got: u64,
    },
    /// The named application is not registered / not loaded (wire code
    /// `unknown_app`). Shared by the CLI's app lookup and the server's
    /// model-store lookup so both report through one variant.
    UnknownApp {
        /// The name that failed to resolve.
        given: String,
        /// The names that would have resolved, comma-separated.
        available: String,
    },
    /// Admission control refused the request: the server's bounded queue
    /// was full (wire code `overloaded`). Load-shed responses carry this.
    Overloaded {
        /// Queue depth observed at admission.
        depth: usize,
        /// The configured admission bound.
        limit: usize,
    },
    /// The service cannot answer right now — no artifact is loaded for
    /// the app, or the server is shutting down (wire code `unavailable`).
    Unavailable(String),
    /// A measured quantity that must be finite (a speedup, a QoS
    /// degradation) came back NaN or infinite (wire code
    /// `non_finite_measurement`). Replaces the old panic paths in the
    /// validated-optimization sort.
    NonFiniteMeasurement(String),
}

impl fmt::Display for OpproxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpproxError::Runtime(e) => write!(f, "application runtime error: {e}"),
            OpproxError::Model(e) => write!(f, "modeling error: {e}"),
            OpproxError::InsufficientData(msg) => write!(f, "insufficient training data: {msg}"),
            OpproxError::InvalidSpec(msg) => write!(f, "invalid accuracy specification: {msg}"),
            OpproxError::Serialization(msg) => write!(f, "serialization error: {msg}"),
            OpproxError::InvalidModel(msg) => write!(f, "invalid trained model set: {msg}"),
            OpproxError::EvaluationFailed {
                kind,
                attempts,
                context,
            } => write!(
                f,
                "evaluation failed after {attempts} attempts ({kind}): {context}"
            ),
            OpproxError::Quarantined { context } => {
                write!(f, "evaluation refused, key quarantined: {context}")
            }
            OpproxError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            OpproxError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported protocol version {got} (this build speaks v{})",
                    crate::api::API_VERSION
                )
            }
            OpproxError::UnknownApp { given, available } => {
                write!(f, "unknown app `{given}`; available: {available}")
            }
            OpproxError::Overloaded { depth, limit } => {
                write!(
                    f,
                    "overloaded: admission queue at {depth}/{limit}, request shed"
                )
            }
            OpproxError::Unavailable(msg) => write!(f, "service unavailable: {msg}"),
            OpproxError::NonFiniteMeasurement(msg) => {
                write!(f, "non-finite measurement: {msg}")
            }
        }
    }
}

/// A per-request knob out of range, refused before anything runs. The
/// wire answers it with `bad_request`; the CLI names the flag that set it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnobError {
    /// The knob's wire key, e.g. `eval_timeout_ms`.
    pub knob: &'static str,
    /// What the knob must be.
    pub expected: &'static str,
}

impl KnobError {
    pub(crate) const fn new(knob: &'static str, expected: &'static str) -> Self {
        KnobError { knob, expected }
    }
}

impl From<KnobError> for OpproxError {
    fn from(e: KnobError) -> Self {
        OpproxError::BadRequest(format!("`{}` must be {}", e.knob, e.expected))
    }
}

impl std::error::Error for OpproxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OpproxError::Runtime(e) => Some(e),
            OpproxError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RuntimeError> for OpproxError {
    fn from(e: RuntimeError) -> Self {
        OpproxError::Runtime(e)
    }
}

impl From<MlError> for OpproxError {
    fn from(e: MlError) -> Self {
        OpproxError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: OpproxError = RuntimeError::InvalidInput("x".into()).into();
        assert!(e.to_string().contains("application runtime error"));
        let e: OpproxError = MlError::InvalidTrainingData("y".into()).into();
        assert!(e.to_string().contains("modeling error"));
    }

    #[test]
    fn source_chains_to_inner_error() {
        use std::error::Error;
        let e: OpproxError = RuntimeError::InvalidInput("x".into()).into();
        assert!(e.source().is_some());
        assert!(OpproxError::InvalidSpec("z".into()).source().is_none());
    }
}
