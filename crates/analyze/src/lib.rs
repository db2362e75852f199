//! Static analysis of OPPROX artifacts.
//!
//! A compiler-style diagnostics framework over the things the OPPROX
//! pipeline serializes: block descriptor lists, [`PhaseSchedule`]s,
//! [`AccuracySpec`]s, trained model sets, and training data. Rules have
//! stable codes (`A0xx` semantic lints, `C0xx` concurrency rules
//! discharged by loom/Miri/TSan in CI — see [`rules`]),
//! severities, and artifact locations such as
//! `schedule.phase[3].block[AB2]`; reports render as text or as a
//! stable JSON schema.
//!
//! The Error-severity model-integrity subset (A004/A007/A012) is the
//! same check [`opprox_core::pipeline::TrainedOpprox::load`] and the
//! optimizer entry path apply, so `opprox analyze` and the runtime
//! boundary cannot drift apart.
//!
//! # Example
//!
//! ```
//! use opprox_analyze::{analyze, Artifact, ArtifactSet};
//!
//! // A 2-phase schedule whose second phase approximates a block harder
//! // than the descriptors allow.
//! let blocks = r#"[{"name":"k","technique":"LoopPerforation","max_level":3}]"#;
//! let schedule = r#"{"configs":[{"levels":[0]},{"levels":[9]}],"expected_iters":100}"#;
//! let mut set = ArtifactSet::default();
//! set.add(Artifact::from_json(blocks).unwrap());
//! set.add(Artifact::from_json(schedule).unwrap());
//!
//! let report = analyze(&set);
//! assert_eq!(report.errors(), 1);
//! let d = &report.diagnostics()[0];
//! assert_eq!(d.code, "A001");
//! assert_eq!(d.location, "schedule.phase[1].block[AB0]");
//! ```
//!
//! Beyond the single-artifact lints, [`audit`] runs the `X0xx`
//! *cross-artifact* rules (see [`cross`]) over a whole session — a
//! trained model set, schedules, a telemetry trace, and a robustness
//! report from one run — and statically verifies that the artifacts
//! agree with each other: budgets conserve, counters telescope, spans
//! nest, realized speedups sit inside the model's band.
//!
//! [`PhaseSchedule`]: opprox_approx_rt::PhaseSchedule
//! [`AccuracySpec`]: opprox_core::AccuracySpec

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod cross;
pub mod diag;
pub mod rules;
pub mod session;

pub use artifact::{Artifact, ArtifactSet};
pub use cross::DEFAULT_DRIFT_TOLERANCE;
pub use diag::{Diagnostic, Report, Severity};
pub use rules::rule;
pub use session::Session;

/// Runs every semantic lint over the artifact set and returns the
/// sorted report.
pub fn analyze(set: &ArtifactSet) -> Report {
    let mut report = Report::new();
    rules::run_all(set, &mut report);
    report
}

/// Runs every cross-artifact audit rule over the session's artifacts
/// and returns the sorted report. `tolerance` is the X001 drift band
/// widening ([`DEFAULT_DRIFT_TOLERANCE`] when unconfigured).
pub fn audit(artifacts: impl IntoIterator<Item = Artifact>, tolerance: f64) -> Report {
    audit_session(&Session::from_artifacts(artifacts), tolerance)
}

/// [`audit`] over an already-assembled [`Session`].
pub fn audit_session(session: &Session, tolerance: f64) -> Report {
    let mut report = Report::new();
    cross::run_audit(session, tolerance, &mut report);
    report.sort();
    report
}
