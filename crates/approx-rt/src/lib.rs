//! Approximation runtime for the OPPROX reproduction.
//!
//! The paper assumes applications expose *approximable blocks* (ABs) whose
//! *approximation levels* (ALs) can be set per execution phase through
//! environment variables. This crate is the Rust equivalent of that
//! contract: a small runtime that applications link against to
//!
//! * describe their ABs ([`block`]),
//! * implement the four approximation techniques the paper evaluates —
//!   loop perforation, loop truncation, memoization, and parameter tuning
//!   ([`technique`]),
//! * receive a per-phase level assignment ([`schedule`], [`config`]),
//! * account for the work they perform in abstract instruction-like units
//!   ([`counter`]),
//! * log the call contexts of their blocks ([`log`]),
//! * measure output quality ([`qos`]), and
//! * run their outer loop on one driver that can checkpoint and resume
//!   it ([`driver`]).
//!
//! Applications implement the [`app::ApproxApp`] trait on top of these
//! pieces; the OPPROX core drives them through it.
//!
//! # Example
//!
//! ```
//! use opprox_approx_rt::technique::perforated_indices;
//!
//! // Level 0 visits every element; level 2 visits every third one.
//! let full: Vec<usize> = perforated_indices(9, 0).collect();
//! assert_eq!(full.len(), 9);
//! let sparse: Vec<usize> = perforated_indices(9, 2).collect();
//! assert_eq!(sparse, vec![0, 3, 6]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod block;
pub mod config;
pub mod counter;
pub mod driver;
pub mod error;
pub mod log;
pub mod qos;
pub mod schedule;
pub mod technique;

pub use app::{run_with_timeout, ApproxApp, InputParams, RunResult};
pub use block::{BlockDescriptor, BlockId};
pub use config::{LevelConfig, LevelViolation};
pub use counter::WorkCounter;
pub use driver::{Checkpoint, OuterLoop};
pub use error::RuntimeError;
pub use schedule::PhaseSchedule;
