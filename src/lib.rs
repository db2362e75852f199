//! OPPROX — phase-aware optimization in approximate computing.
//!
//! Facade crate for the workspace reproducing Mitra et al., *Phase-Aware
//! Optimization in Approximate Computing* (CGO 2017). Re-exports every
//! workspace crate under one roof so downstream users can depend on a
//! single package:
//!
//! * [`core`] — the OPPROX system: training, modeling, optimization.
//! * [`analyze`] — semantic lints over serialized OPPROX artifacts.
//! * [`approx_rt`] — the approximation runtime applications link against.
//! * [`apps`] — the five benchmark application ports.
//! * [`ml`] — the from-scratch ML substrate.
//! * [`linalg`] — the numerical substrate.
//!
//! # Example
//!
//! ```
//! use opprox::approx_rt::InputParams;
//! use opprox::core::pipeline::{Opprox, TrainingOptions};
//! use opprox::core::sampling::SamplingPlan;
//! use opprox::core::AccuracySpec;
//! use opprox_apps::Pso;
//!
//! let app = Pso::new();
//! let opts = TrainingOptions {
//!     num_phases: Some(2),
//!     sampling: SamplingPlan { num_phases: 2, sparse_samples: 8, seed: 7 },
//!     ..TrainingOptions::default()
//! };
//! let trained = Opprox::train(&app, &opts).unwrap();
//! let outcome = opprox::core::request::OptimizeRequest::new(
//!     InputParams::new(vec![16.0, 3.0]),
//!     AccuracySpec::new(10.0),
//! )
//! .run(&trained)
//! .unwrap();
//! assert_eq!(outcome.plan.schedule.num_phases(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use opprox_analyze as analyze;
pub use opprox_approx_rt as approx_rt;
pub use opprox_apps as apps;
pub use opprox_core as core;
pub use opprox_linalg as linalg;
pub use opprox_ml as ml;
