//! Small dense linear-algebra and statistics substrate for the OPPROX
//! reproduction.
//!
//! The machine-learning layer of OPPROX (polynomial regression, decision
//! trees, MIC feature filtering) needs a handful of numerical primitives:
//! dense matrices, a stable least-squares solver, and summary statistics.
//! This crate implements them from scratch with no external numerical
//! dependencies so the whole reproduction is self-contained.
//!
//! # Overview
//!
//! * [`Matrix`] — a row-major dense matrix of `f64` with the usual
//!   arithmetic, slicing, and transposition operations.
//! * [`qr`] — Householder QR decomposition and QR-based least squares.
//! * [`cholesky`] — Cholesky decomposition for symmetric positive-definite
//!   systems (used for ridge-regularized normal equations).
//! * [`lstsq`] — a least-squares driver that prefers QR and falls back to a
//!   ridge-regularized solve when the design matrix is rank deficient.
//! * [`gram`] — Gram-system construction and batched Woodbury holdout
//!   solves, the engine behind expand-once cross-validation.
//! * [`stats`] — means, variances, quantiles, Pearson correlation, and the
//!   coefficient of determination (R²).
//!
//! # Example
//!
//! ```
//! use opprox_linalg::{Matrix, lstsq::solve_least_squares};
//!
//! // Fit y = 1 + 2x by least squares.
//! let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]).unwrap();
//! let y = [1.0, 3.0, 5.0];
//! let beta = solve_least_squares(&a, &y).unwrap();
//! assert!((beta[0] - 1.0).abs() < 1e-10);
//! assert!((beta[1] - 2.0).abs() < 1e-10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cholesky;
pub mod error;
pub mod gram;
pub mod lstsq;
pub mod matrix;
pub mod qr;
pub mod stats;

pub use error::LinalgError;
pub use matrix::Matrix;
