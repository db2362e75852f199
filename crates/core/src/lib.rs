//! OPPROX — phase-aware optimization of approximate programs.
//!
//! This crate is the paper's primary contribution (Mitra et al., CGO
//! 2017): given an application with tunable approximable blocks and a
//! user-provided accuracy specification, OPPROX
//!
//! 1. identifies the computation phases ([`phases`]),
//! 2. collects training data by profiling the application under sampled
//!    approximation settings ([`sampling`]),
//! 3. classifies input-parameter-dependent control flows ([`control_flow`])
//!    and fits per-phase speedup, QoS-degradation, and iteration-count
//!    models ([`modeling`]),
//! 4. splits the error budget across phases in proportion to their return
//!    on investment and solves a per-phase numerical optimization problem
//!    ([`optimizer`]).
//!
//! The phase-agnostic exhaustive-search oracle that prior work used as an
//! idealized baseline lives in [`oracle`]. The end-to-end system — train
//! once, optimize for any budget — is [`pipeline::Opprox`]. Every real
//! execution of an application routes through the shared
//! [`evaluator::EvalEngine`] — a work-stealing pool with an execution
//! cache and per-stage metrics — and optimization requests are expressed
//! with the [`request::OptimizeRequest`] builder.
//!
//! # Example
//!
//! ```no_run
//! use opprox_core::pipeline::{Opprox, TrainingOptions};
//! use opprox_core::request::OptimizeRequest;
//! use opprox_core::spec::AccuracySpec;
//! use opprox_apps::Pso;
//! use opprox_approx_rt::InputParams;
//!
//! let app = Pso::new();
//! let spec = AccuracySpec::new(10.0); // 10% QoS-degradation budget
//! let trained = Opprox::train(&app, &TrainingOptions::default()).unwrap();
//! let outcome = OptimizeRequest::new(InputParams::new(vec![20.0, 4.0]), spec)
//!     .validate_on(&app)
//!     .run(&trained)
//!     .unwrap();
//! println!("predicted speedup {:.2}", outcome.plan.predicted_speedup);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod control;
pub mod control_flow;
pub mod error;
pub mod evaluator;
pub mod fault;
pub mod modeling;
pub mod optimizer;
pub mod oracle;
pub mod phases;
pub mod pipeline;
pub mod pool;
pub mod report;
pub mod request;
pub mod sampling;
pub mod serve;
pub mod spec;
pub(crate) mod sync;
pub mod telemetry;

pub use api::{ApiRequest, ApiResponse, WireCode, API_VERSION};
pub use control::{ControlOptions, ControlOutcome, DriftInjection};
pub use error::OpproxError;
pub use evaluator::{EvalEngine, EvalMetrics};
pub use fault::{FailureKind, FaultPlan, RecoveryPolicy, RobustnessReport};
pub use pipeline::Opprox;
pub use request::{OptimizePath, OptimizeRequest};
pub use serve::{ServeOptions, ServeState, Server};
pub use spec::AccuracySpec;
pub use telemetry::{Clock, ManualClock, Telemetry, TelemetryReport};
