//! Small dense linear-algebra and statistics substrate for the OPPROX
//! reproduction.
//!
//! The machine-learning layer of OPPROX (polynomial regression, decision
//! trees, MIC feature filtering) needs a handful of numerical primitives:
//! dense matrices, one ridge-regularized least-squares solver, and summary
//! statistics. This crate implements them from scratch with no external
//! numerical dependencies so the whole reproduction is self-contained.
//!
//! # Overview
//!
//! * [`Matrix`] — a row-major dense matrix of `f64` with the Gram products
//!   the normal equations need.
//! * [`cholesky`] — Cholesky decomposition for symmetric positive-definite
//!   systems (the ridge-regularized normal equations).
//! * [`gram`] — Gram-system construction, ridge solves and batched
//!   Woodbury holdout solves: every regression fit and every
//!   cross-validation fold goes through it.
//! * [`stats`] — means, variances, quantiles and the coefficient of
//!   determination (R²).
//!
//! # Example
//!
//! ```
//! use opprox_linalg::{gram::GramSystem, Matrix};
//!
//! // Fit y = 1 + 2x by (barely) ridge-regularized least squares.
//! let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]).unwrap();
//! let y = [1.0, 3.0, 5.0];
//! let beta = GramSystem::from_design(&a, &y).unwrap().solve_ridge(1e-12).unwrap();
//! assert!((beta[0] - 1.0).abs() < 1e-8);
//! assert!((beta[1] - 2.0).abs() < 1e-8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cholesky;
pub mod error;
pub mod gram;
pub mod matrix;
pub mod stats;

pub use error::LinalgError;
pub use matrix::Matrix;
