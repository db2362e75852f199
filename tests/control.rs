//! Deterministic closed-loop controller suite (ManualClock-driven).
//!
//! Pins the adaptive-control contract end-to-end on the shared trained
//! PSO fixture:
//!
//! * a session with zero drift never re-plans, and its final phase-plan
//!   sequence is bitwise identical to the offline Algorithm 2 solve;
//! * a seeded drift injection re-plans exactly at the drifted phase,
//!   recovers at least the leftover budget the offline plan strands, and
//!   keeps the predicted QoS within the user budget;
//! * a block-targeted injection on an accurately executed phase moves
//!   the BBV signature and re-segments before re-optimizing;
//! * the `control.step` ledger balances (Σ reclaimed = Σ redistributed,
//!   the analyze X009 invariant);
//! * the exported control trace is byte-identical across worker thread
//!   counts and same-seed reruns (proptest).

use opprox::analyze::{audit, Artifact, DEFAULT_DRIFT_TOLERANCE};
use opprox::core::control::{run_adaptive, ControlOptions, ControlOutcome, DriftInjection};
use opprox::core::request::{OptimizePath, OptimizeRequest};
use opprox::core::{AccuracySpec, OpproxError};
use opprox_apps::Pso;
use opprox_testutil::fixtures::{prod_input, trained_pso};
use opprox_testutil::trace::TraceCapture;
use proptest::prelude::*;

const BUDGET: f64 = 10.0;

fn adaptive(options: &ControlOptions, threads: usize) -> ControlOutcome {
    let (trained, _) = trained_pso();
    let capture = TraceCapture::new();
    let engine = capture.engine(threads);
    run_adaptive(
        trained,
        &Pso::new(),
        &engine,
        &prod_input("PSO"),
        &AccuracySpec::new(BUDGET),
        options,
    )
    .expect("adaptive session")
}

/// Σ reclaimed must equal Σ redistributed step-ledger-wide — the same
/// conservation fact analyze rule X009 audits on the exported trace.
fn assert_ledger_balances(outcome: &ControlOutcome) {
    let reclaimed: f64 = outcome.steps.iter().map(|s| s.budget_reclaimed).sum();
    let redistributed: f64 = outcome.steps.iter().map(|s| s.budget_redistributed).sum();
    assert!(
        (reclaimed - redistributed).abs() <= 1e-9 * reclaimed.abs().max(1.0),
        "ledger leaks budget: reclaimed {reclaimed} vs redistributed {redistributed}"
    );
    assert!((reclaimed - outcome.budget_reclaimed).abs() <= 1e-9);
    assert!((redistributed - outcome.budget_redistributed).abs() <= 1e-9);
}

#[test]
fn no_drift_session_never_replans_and_matches_offline_algorithm2() {
    let outcome = adaptive(&ControlOptions::default(), 2);
    assert_eq!(outcome.replans, 0, "clean session must not re-plan");
    assert!(!outcome.resegmented);
    assert!(!outcome.degraded);
    for step in &outcome.steps {
        assert!(!step.drifted, "phase {} drifted on a clean run", step.phase);
        assert!(!step.replanned);
        assert!(!step.resegmented);
        assert_eq!(step.budget_reclaimed, 0.0);
        assert_eq!(step.budget_redistributed, 0.0);
    }
    // Bitwise identity with the offline solve: the adaptive plan is the
    // untouched Algorithm 2 output, down to the serialized bytes.
    let adaptive_bytes = serde_json::to_string(&outcome.plan.phases).unwrap();
    let offline_bytes = serde_json::to_string(&outcome.offline.phases).unwrap();
    assert_eq!(adaptive_bytes, offline_bytes);
    assert_eq!(outcome.plan.phases, outcome.offline.phases);
    assert!(outcome.measured.is_some());
    assert_ledger_balances(&outcome);
}

#[test]
fn seeded_drift_replans_exactly_at_the_drifted_phase() {
    let options = ControlOptions {
        inject: Some(DriftInjection {
            phase: 0,
            factor: 6.0,
            block: None,
        }),
        ..ControlOptions::default()
    };
    let outcome = adaptive(&options, 2);
    assert_eq!(outcome.replans, 1, "exactly one re-plan");
    assert!(outcome.steps[0].drifted);
    assert!(
        outcome.steps[0].replanned,
        "re-plan fires at the drifted phase"
    );
    for step in &outcome.steps[1..] {
        assert!(
            !step.replanned,
            "phase {} re-planned spuriously",
            step.phase
        );
    }

    // The re-planned schedule still honors the QoS constraint ...
    assert!(
        outcome.plan.predicted_qos <= BUDGET + 1e-9,
        "re-planned predicted QoS {} exceeds budget",
        outcome.plan.predicted_qos
    );
    // ... while recovering at least the leftover budget the offline
    // one-shot pass strands (its unspent remainder).
    let stranded = BUDGET - outcome.offline.predicted_qos;
    assert!(
        outcome.budget_redistributed >= stranded - 1e-9,
        "recovered {} < stranded {}",
        outcome.budget_redistributed,
        stranded
    );
    assert_ledger_balances(&outcome);
}

/// The re-plan runs the offline solve's Algorithm 2 but must not leak its
/// `optimize.*` events or `optimize/phase[p]` spans into the trace (X002
/// and X004 would flag them): the seeded-drift session's trace audits
/// clean.
#[test]
fn replanned_trace_audits_clean() {
    let (trained, _) = trained_pso();
    let capture = TraceCapture::new();
    let engine = capture.engine(2);
    let options = ControlOptions {
        inject: Some(DriftInjection {
            phase: 0,
            factor: 6.0,
            block: None,
        }),
        ..ControlOptions::default()
    };
    let outcome = run_adaptive(
        trained,
        &Pso::new(),
        &engine,
        &prod_input("PSO"),
        &AccuracySpec::new(BUDGET),
        &options,
    )
    .expect("adaptive session");
    assert_eq!(outcome.replans, 1, "exactly one re-plan");
    let trace = engine.telemetry_report();
    assert_eq!(trace.events_named("optimize.start").len(), 1);
    for step in outcome.steps.iter().filter(|s| s.replanned) {
        for p in step.phase + 1..trained.num_phases() {
            let span = format!("control/replan[{p}]");
            assert!(trace.span(&span).is_some(), "no {span} span");
        }
    }

    let report = audit(
        [Artifact::Telemetry(Box::new(trace))],
        DEFAULT_DRIFT_TOLERANCE,
    );
    assert_eq!(report.errors(), 0, "{}", report.render_text());
    assert_eq!(report.warnings(), 0, "{}", report.render_text());
}

#[test]
fn block_targeted_drift_resegments_before_replanning() {
    let outcome = adaptive(&ControlOptions::default(), 1);
    // Precondition of the scenario: the fixture's offline plan keeps
    // phase 0 accurate, so its BBV signature is comparable to golden.
    assert!(
        outcome.offline.phases[0].config.is_accurate(),
        "fixture drifted: phase 0 is no longer accurate"
    );

    let options = ControlOptions {
        inject: Some(DriftInjection {
            phase: 0,
            factor: 8.0,
            block: Some(0),
        }),
        ..ControlOptions::default()
    };
    let outcome = adaptive(&options, 2);
    assert!(
        outcome.steps[0].resegmented,
        "block-skewed signature must re-segment at phase 0"
    );
    assert!(outcome.steps[0].replanned);
    assert!(outcome.resegmented);
    assert_ledger_balances(&outcome);
}

#[test]
fn disabling_resegmentation_leaves_block_skew_to_the_drift_metric() {
    let options = ControlOptions {
        resegment: false,
        inject: Some(DriftInjection {
            phase: 0,
            factor: 8.0,
            block: Some(0),
        }),
        ..ControlOptions::default()
    };
    let outcome = adaptive(&options, 2);
    assert!(!outcome.resegmented);
    assert!(outcome.steps.iter().all(|s| !s.resegmented));
    assert_ledger_balances(&outcome);
}

#[test]
fn adaptive_request_mode_reports_path_and_ledger() {
    let (trained, _) = trained_pso();
    let capture = TraceCapture::new();
    let engine = capture.engine(2);
    let app = Pso::new();
    let outcome = OptimizeRequest::new(prod_input("PSO"), AccuracySpec::new(BUDGET))
        .validate_on(&app)
        .engine(&engine)
        .adaptive(ControlOptions::default())
        .run(trained)
        .expect("adaptive request");
    assert_eq!(outcome.path, OptimizePath::Adaptive);
    let control = outcome
        .control
        .expect("adaptive outcome carries its ledger");
    assert_eq!(control.replans, 0);
    assert_eq!(control.steps.len(), trained.num_phases());
    assert!(outcome.measured.is_some());
    // The trace carries both ledgers: the offline solve's and the
    // controller's.
    assert!(!outcome.telemetry.events_named("optimize.phase").is_empty());
    assert_eq!(
        outcome.telemetry.events_named("control.step").len(),
        trained.num_phases()
    );
}

#[test]
fn adaptive_request_without_an_app_is_rejected() {
    let (trained, _) = trained_pso();
    let err = OptimizeRequest::new(prod_input("PSO"), AccuracySpec::new(BUDGET))
        .adaptive(ControlOptions::default())
        .run(trained)
        .unwrap_err();
    assert!(
        matches!(err, OpproxError::InvalidSpec(_)),
        "expected InvalidSpec, got {err}"
    );
}

/// One full adaptive session against a fresh manual-clock engine,
/// exported as JSON trace bytes.
fn control_trace_json(factor_millis: u64, threads: usize) -> String {
    let (trained, _) = trained_pso();
    let capture = TraceCapture::new();
    let engine = capture.engine(threads);
    let options = ControlOptions {
        inject: Some(DriftInjection {
            phase: 0,
            factor: 1.0 + factor_millis as f64 / 1000.0,
            block: None,
        }),
        ..ControlOptions::default()
    };
    run_adaptive(
        trained,
        &Pso::new(),
        &engine,
        &prod_input("PSO"),
        &AccuracySpec::new(BUDGET),
        &options,
    )
    .expect("adaptive session");
    engine.telemetry_report().to_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The controller emits its ledger only from the orchestrating
    /// thread on the injected clock, so the exported `control` trace is
    /// byte-identical across `--threads 1` vs N and across reruns —
    /// whether or not the injected factor is large enough to re-plan.
    #[test]
    fn control_trace_is_byte_identical_across_threads_and_reruns(
        factor_millis in 0u64..9000,
        threads in 2usize..5,
    ) {
        let single = control_trace_json(factor_millis, 1);
        let multi = control_trace_json(factor_millis, threads);
        prop_assert_eq!(&single, &multi, "threads=1 vs threads={} diverged", threads);
        let again = control_trace_json(factor_millis, threads);
        prop_assert_eq!(&multi, &again, "same-seed rerun diverged");
    }
}
