//! The corrupted-session suite: every cross-artifact audit rule
//! (X001–X009) has at least one positive test (a seeded inconsistency
//! it must detect) and one negative test (a healthy session it must
//! stay silent on). The adaptive-controller thrashing lint (A020)
//! rides along because it reads the same `control.*` ledger.
//!
//! The healthy fixture is a *real* session: one engine profiles PSO,
//! the models are fit from that data, and the optimizer solves against
//! them with its telemetry going to the same registry — so the trace,
//! the trained set, the schedule, and the robustness report genuinely
//! come from one run. Corruptions then edit one artifact (the
//! `TelemetryReport`'s fields are public precisely so tests can seed
//! trace defects) and the audit must name the disagreement.
//!
//! A golden-file test pins the rendered text of a fixed synthetic
//! session, and a property test pins the determinism contract: audit
//! JSON is byte-identical across reruns and across engine thread
//! counts.

use std::sync::OnceLock;

use opprox_analyze::{
    audit_session, Artifact, ArtifactSet, Session, Severity, DEFAULT_DRIFT_TOLERANCE,
};
use opprox_approx_rt::{ApproxApp, LevelConfig, PhaseSchedule};
use opprox_apps::pso::Pso;
use opprox_core::modeling::ModelingOptions;
use opprox_core::optimizer::{optimize_traced, Conservatism};
use opprox_core::pipeline::{Opprox, TrainedOpprox};
use opprox_core::sampling::collect_training_data_with;
use opprox_core::telemetry::{CounterStat, SpanRecord, SpanStat};
use opprox_core::{AccuracySpec, RobustnessReport, Telemetry, TelemetryReport};
use opprox_testutil::fixtures::{fast_sampling_plan, prod_input};
use opprox_testutil::trace::TraceCapture;
use proptest::prelude::*;

struct SessionFixture {
    trained: TrainedOpprox,
    telemetry: TelemetryReport,
    robustness: RobustnessReport,
    schedule: PhaseSchedule,
}

/// One real end-to-end session (profile → train → optimize on a shared
/// engine), built once per process and corrupted on clones.
fn run_session(threads: usize) -> SessionFixture {
    let cap = TraceCapture::new();
    let engine = cap.engine(threads);
    let app = Pso::new();
    let plan = fast_sampling_plan(2, 5);
    let data = collect_training_data_with(&engine, &app, &app.representative_inputs(), &plan)
        .expect("fixture profiling succeeds");
    let trained = Opprox::train_from_data_traced(&app, &data, 2, &ModelingOptions::default(), None)
        .expect("fixture training succeeds");
    let opt = optimize_traced(
        trained.models(),
        trained.blocks(),
        &prod_input("PSO"),
        &AccuracySpec::new(10.0),
        100,
        Conservatism::Band,
        Some(engine.telemetry()),
    )
    .expect("fixture optimization succeeds");
    SessionFixture {
        telemetry: engine.telemetry_report(),
        robustness: engine.robustness_report(),
        schedule: opt.schedule,
        trained,
    }
}

fn fixture() -> &'static SessionFixture {
    static CELL: OnceLock<SessionFixture> = OnceLock::new();
    CELL.get_or_init(|| run_session(2))
}

/// The healthy full session as audit input.
fn full_session() -> Session {
    let f = fixture();
    Session {
        trained: Some(f.trained.clone()),
        blocks: None,
        schedules: vec![f.schedule.clone()],
        telemetry: Some(f.telemetry.clone()),
        robustness: Some(f.robustness.clone()),
    }
}

fn codes(session: &Session) -> Vec<&'static str> {
    audit_session(session, DEFAULT_DRIFT_TOLERANCE)
        .diagnostics()
        .iter()
        .map(|d| d.code)
        .collect()
}

fn find<'r>(report: &'r opprox_analyze::Report, code: &str) -> &'r opprox_analyze::Diagnostic {
    report
        .diagnostics()
        .iter()
        .find(|d| d.code == code)
        .unwrap_or_else(|| panic!("{code} fires:\n{}", report.render_text()))
}

/// The blanket negative test: the real session audits completely clean —
/// no errors, no warnings, and (because every artifact is present) no
/// X008 coverage notes either.
#[test]
fn healthy_full_session_audits_clean() {
    let report = audit_session(&full_session(), DEFAULT_DRIFT_TOLERANCE);
    assert_eq!(
        report.diagnostics().len(),
        0,
        "healthy session must audit clean:\n{}",
        report.render_text()
    );
}

// ---- X001: model/trace drift --------------------------------------------

#[test]
fn x001_detects_realized_speedup_outside_the_model_band() {
    let mut session = full_session();
    let tele = session.telemetry.as_mut().unwrap();
    let gauge = tele
        .gauges
        .iter_mut()
        .find(|g| g.name.starts_with("profile.phase[0]"))
        .expect("profiling published a phase-0 ceiling");
    gauge.max *= 10.0;
    let report = audit_session(&session, DEFAULT_DRIFT_TOLERANCE);
    let d = find(&report, "X001");
    assert_eq!(d.severity, Severity::Warn);
    assert!(d.location.contains("profile.phase[0]"), "{}", d.location);
    assert!(d.message.contains("outside"), "{}", d.message);
}

#[test]
fn x001_respects_a_widened_tolerance() {
    let mut session = full_session();
    let tele = session.telemetry.as_mut().unwrap();
    let gauge = tele
        .gauges
        .iter_mut()
        .find(|g| g.name.starts_with("profile.phase[0]"))
        .unwrap();
    gauge.max *= 1.5;
    // 1.5× drift: outside the default 0.25 band, inside a 2.0 band.
    assert!(codes(&session).contains(&"X001"));
    let relaxed = audit_session(&session, 2.0);
    assert!(
        !relaxed.diagnostics().iter().any(|d| d.code == "X001"),
        "{}",
        relaxed.render_text()
    );
}

#[test]
fn x001_detects_a_profiled_phase_the_model_does_not_have() {
    let mut session = full_session();
    let tele = session.telemetry.as_mut().unwrap();
    let mut rogue = tele.gauges[0].clone();
    rogue.name = "profile.phase[7].max_speedup".into();
    rogue.max = 1.5;
    tele.gauges.push(rogue);
    let report = audit_session(&session, DEFAULT_DRIFT_TOLERANCE);
    let d = find(&report, "X001");
    assert!(d.message.contains("only"), "{}", d.message);
}

// ---- X002: budget conservation ------------------------------------------

#[test]
fn x002_detects_a_leaked_allocation() {
    let mut session = full_session();
    let tele = session.telemetry.as_mut().unwrap();
    let event = tele
        .events
        .iter_mut()
        .find(|e| e.name == "optimize.phase")
        .expect("the solve left a phase ledger");
    let alloc = event
        .fields
        .iter_mut()
        .find(|f| f.key == "allocated")
        .unwrap();
    alloc.value += 1.0;
    let report = audit_session(&session, DEFAULT_DRIFT_TOLERANCE);
    let d = find(&report, "X002");
    assert_eq!(d.severity, Severity::Error);
    assert!(
        d.location.starts_with("trace.event[optimize."),
        "{}",
        d.location
    );
}

#[test]
fn x002_detects_a_phase_visited_twice() {
    let mut session = full_session();
    let tele = session.telemetry.as_mut().unwrap();
    let mut phase_events = tele
        .events
        .iter_mut()
        .filter(|e| e.name == "optimize.phase");
    let first_phase = phase_events
        .next()
        .expect("the solve left a phase ledger")
        .field("phase")
        .unwrap();
    let second = phase_events
        .next()
        .expect("two-phase solve has two ledger events");
    // Repeat the first visit's phase: one phase visited twice, one never.
    second
        .fields
        .iter_mut()
        .find(|f| f.key == "phase")
        .unwrap()
        .value = first_phase;
    let report = audit_session(&session, DEFAULT_DRIFT_TOLERANCE);
    let d = find(&report, "X002");
    assert!(d.message.contains("visits phase"), "{}", d.message);
}

// ---- X003: counter-ledger consistency -----------------------------------

#[test]
fn x003_detects_a_total_that_does_not_telescope() {
    let mut session = full_session();
    let tele = session.telemetry.as_mut().unwrap();
    let counter = tele
        .counters
        .iter_mut()
        .find(|c| c.name == "eval.exec")
        .expect("the engine executed evaluations");
    counter.value += 1;
    let report = audit_session(&session, DEFAULT_DRIFT_TOLERANCE);
    let d = find(&report, "X003");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.location, "trace.counter[eval.exec]");
    assert!(d.message.contains("per-key ledger"), "{}", d.message);
}

#[test]
fn x003_detects_a_key_with_both_a_cache_hit_and_a_quarantine_hit() {
    let mut session = full_session();
    let tele = session.telemetry.as_mut().unwrap();
    let key = "0x00000000000000ab";
    for (total, per_key) in [
        ("eval.cache.hit", format!("eval.hit[{key}]")),
        ("eval.quarantine.hit", format!("eval.quarantine[{key}]")),
    ] {
        tele.counters.push(CounterStat {
            name: per_key,
            value: 1,
        });
        match tele.counters.iter_mut().find(|c| c.name == total) {
            Some(c) => c.value += 1,
            None => tele.counters.push(CounterStat {
                name: total.to_string(),
                value: 1,
            }),
        }
    }
    let report = audit_session(&session, DEFAULT_DRIFT_TOLERANCE);
    let d = find(&report, "X003");
    assert!(d.location.contains("eval.quarantine[0x"), "{}", d.location);
    assert!(d.message.contains("never memoized"), "{}", d.message);
}

// ---- X004: span-tree well-formedness ------------------------------------

#[test]
fn x004_detects_an_aggregate_that_disagrees_with_the_timeline() {
    let mut session = full_session();
    let tele = session.telemetry.as_mut().unwrap();
    tele.spans[0].count += 1;
    let report = audit_session(&session, DEFAULT_DRIFT_TOLERANCE);
    let d = find(&report, "X004");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("occurrences"), "{}", d.message);
}

#[test]
fn x004_detects_partially_overlapping_spans() {
    let mut session = full_session();
    let tele = session.telemetry.as_mut().unwrap();
    let base = tele
        .timeline
        .last()
        .map(|r| r.start_micros + r.duration_micros)
        .unwrap_or(0);
    // Two spans that overlap without nesting — impossible for scoped
    // guards on one call stack. Keep the aggregates consistent so only
    // the overlap fires.
    for (path, start, dur) in [("ghost/a", base + 10, 20), ("ghost/b", base + 20, 20)] {
        tele.timeline.push(SpanRecord {
            path: path.into(),
            start_micros: start,
            duration_micros: dur,
        });
        tele.spans.push(SpanStat {
            path: path.into(),
            count: 1,
            total_micros: dur,
        });
    }
    let report = audit_session(&session, DEFAULT_DRIFT_TOLERANCE);
    let d = find(&report, "X004");
    assert!(d.message.contains("partially overlaps"), "{}", d.message);
}

#[test]
fn x004_detects_a_golden_run_executed_twice() {
    let mut session = full_session();
    let tele = session.telemetry.as_mut().unwrap();
    let per_key = tele
        .counters
        .iter_mut()
        .find(|c| c.name.starts_with("eval.golden.exec["))
        .expect("the profiling run executed goldens");
    per_key.value = 2;
    // Keep X003's telescoping satisfied so only the golden-once
    // invariant fires.
    tele.counters
        .iter_mut()
        .find(|c| c.name == "eval.golden.exec")
        .unwrap()
        .value += 1;
    let report = audit_session(&session, DEFAULT_DRIFT_TOLERANCE);
    let d = find(&report, "X004");
    assert!(d.message.contains("executed 2 times"), "{}", d.message);
    assert!(
        !report.diagnostics().iter().any(|d| d.code == "X003"),
        "telescoping was kept consistent:\n{}",
        report.render_text()
    );
}

#[test]
fn x004_detects_phase_spans_missing_for_ledger_events() {
    let mut session = full_session();
    let tele = session.telemetry.as_mut().unwrap();
    let before = tele.spans.len();
    tele.spans
        .retain(|s| !s.path.starts_with("optimize/phase["));
    assert!(tele.spans.len() < before, "fixture has phase spans");
    tele.timeline
        .retain(|r| !r.path.starts_with("optimize/phase["));
    let report = audit_session(&session, DEFAULT_DRIFT_TOLERANCE);
    let d = find(&report, "X004");
    assert!(d.location.contains("optimize/phase["), "{}", d.location);
    assert!(d.message.contains("ledger events"), "{}", d.message);
}

// ---- X005: robustness ↔ trace agreement ---------------------------------

#[test]
fn x005_detects_a_report_that_disagrees_with_the_trace() {
    let mut session = full_session();
    session.robustness.as_mut().unwrap().total_samples += 10;
    let report = audit_session(&session, DEFAULT_DRIFT_TOLERANCE);
    let d = find(&report, "X005");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.location, "robustness.total_samples");
    assert!(d.message.contains("sampling.requested"), "{}", d.message);
}

#[test]
fn x005_detects_phantom_quarantines() {
    let mut session = full_session();
    session.robustness.as_mut().unwrap().quarantined_keys += 2;
    let report = audit_session(&session, DEFAULT_DRIFT_TOLERANCE);
    let d = find(&report, "X005");
    assert!(d.message.contains("eval.quarantined"), "{}", d.message);
}

// ---- X006: schedule ↔ model coverage ------------------------------------

#[test]
fn x006_detects_a_schedule_the_blocks_cannot_execute() {
    let mut session = full_session();
    session.schedules.push(
        PhaseSchedule::new(
            vec![LevelConfig::new(vec![9, 0, 0]), LevelConfig::accurate(3)],
            100,
        )
        .unwrap(),
    );
    let report = audit_session(&session, DEFAULT_DRIFT_TOLERANCE);
    let d = find(&report, "X006");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.location, "schedule[1].phase[0].block[0]");
    assert!(d.message.contains("level 9"), "{}", d.message);
}

#[test]
fn x006_detects_a_phase_count_mismatch_against_the_model() {
    let mut session = full_session();
    session
        .schedules
        .push(PhaseSchedule::new(vec![LevelConfig::accurate(3); 3], 100).unwrap());
    let report = audit_session(&session, DEFAULT_DRIFT_TOLERANCE);
    let d = find(&report, "X006");
    assert!(d.message.contains("3 phases"), "{}", d.message);
}

// ---- X007: plan composition ---------------------------------------------

#[test]
fn x007_detects_a_plan_that_does_not_follow_from_its_parts() {
    let mut session = full_session();
    let tele = session.telemetry.as_mut().unwrap();
    let plan = tele
        .events
        .iter_mut()
        .find(|e| e.name == "optimize.plan")
        .expect("the solve emitted a closing plan event");
    let speedup = plan
        .fields
        .iter_mut()
        .find(|f| f.key == "predicted_speedup")
        .unwrap();
    speedup.value *= 2.0;
    let report = audit_session(&session, DEFAULT_DRIFT_TOLERANCE);
    let d = find(&report, "X007");
    assert_eq!(d.severity, Severity::Warn);
    assert!(d.message.contains("composing"), "{}", d.message);
}

// ---- X008: coverage notes -----------------------------------------------

#[test]
fn x008_reports_every_rule_skipped_for_missing_artifacts() {
    let f = fixture();
    let session = Session {
        trained: Some(f.trained.clone()),
        ..Session::default()
    };
    let report = audit_session(&session, DEFAULT_DRIFT_TOLERANCE);
    // No trace, no robustness, no schedule: X001–X005, X007, and X009
    // all skip; X006 skips for want of a schedule.
    assert_eq!((report.errors(), report.warnings()), (0, 0));
    let notes: Vec<&str> = report
        .diagnostics()
        .iter()
        .map(|d| {
            assert_eq!(d.code, "X008");
            assert_eq!(d.severity, Severity::Info);
            d.message.split(' ').next().unwrap()
        })
        .collect();
    assert_eq!(
        notes,
        ["X001", "X002", "X003", "X004", "X005", "X006", "X007", "X009"]
    );
}

#[test]
fn x008_stays_silent_when_every_rule_could_run() {
    assert!(!codes(&full_session()).contains(&"X008"));
}

// ---- X009: controller budget conservation --------------------------------

/// A synthetic adaptive-controller ledger: `phases` declared, one
/// `control.step` per `(reclaimed, redistributed)` entry, and a closing
/// `control.plan` whose `(replans, reclaimed, redistributed)` either
/// follow from the steps (`None`) or are overridden to seed a
/// disagreement.
fn control_session(phases: f64, steps: &[(f64, f64)], plan: Option<(f64, f64, f64)>) -> Session {
    let t = Telemetry::new();
    t.event(
        "control.start",
        &[
            ("session", 0.0),
            ("budget", 10.0),
            ("phases", phases),
            ("tolerance", 0.25),
        ],
    );
    for (i, &(reclaimed, redistributed)) in steps.iter().enumerate() {
        let replanned = if reclaimed != 0.0 || redistributed != 0.0 {
            1.0
        } else {
            0.0
        };
        t.event(
            "control.step",
            &[
                ("session", 0.0),
                ("step", i as f64),
                ("phase", i as f64),
                ("observed_speedup", 1.2),
                ("predicted_speedup", 1.2),
                ("band_lo", 1.0),
                ("band_hi", 1.44),
                ("drift", 0.0),
                ("drifted", replanned),
                ("resegmented", 0.0),
                ("replanned", replanned),
                ("reclaimed", reclaimed),
                ("redistributed", redistributed),
                ("remaining", 10.0 - (i as f64 + 1.0)),
            ],
        );
    }
    let (replans, reclaimed, redistributed) = plan.unwrap_or_else(|| {
        (
            steps.iter().filter(|s| s.0 != 0.0 || s.1 != 0.0).count() as f64,
            steps.iter().map(|s| s.0).sum(),
            steps.iter().map(|s| s.1).sum(),
        )
    });
    t.event(
        "control.plan",
        &[
            ("session", 0.0),
            ("replans", replans),
            ("reclaimed", reclaimed),
            ("redistributed", redistributed),
            ("predicted_speedup", 1.2),
            ("predicted_qos", 5.0),
            ("degraded", 0.0),
        ],
    );
    Session {
        telemetry: Some(t.report()),
        ..Session::default()
    }
}

#[test]
fn x009_detects_a_step_ledger_that_leaks_budget() {
    let session = control_session(3.0, &[(0.0, 0.0), (2.0, 1.0), (0.0, 0.0)], None);
    let report = audit_session(&session, DEFAULT_DRIFT_TOLERANCE);
    let d = find(&report, "X009");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.location, "trace.event[control.start session=0]");
    assert!(d.message.contains("leaks budget"), "{}", d.message);
}

#[test]
fn x009_detects_plan_totals_that_disagree_with_the_steps() {
    let session = control_session(
        3.0,
        &[(0.0, 0.0), (1.5, 1.5), (0.0, 0.0)],
        Some((1.0, 9.0, 9.0)),
    );
    let report = audit_session(&session, DEFAULT_DRIFT_TOLERANCE);
    let d = find(&report, "X009");
    assert_eq!(d.location, "trace.event[control.plan session=0]");
    assert!(d.message.contains("disagree"), "{}", d.message);
}

#[test]
fn x009_detects_more_steps_than_declared_phases() {
    let session = control_session(1.0, &[(0.0, 0.0), (0.0, 0.0)], None);
    let report = audit_session(&session, DEFAULT_DRIFT_TOLERANCE);
    let d = find(&report, "X009");
    assert!(d.message.contains("at most one"), "{}", d.message);
}

#[test]
fn x009_stays_silent_on_a_balanced_ledger() {
    let session = control_session(3.0, &[(0.0, 0.0), (1.5, 1.5), (0.0, 0.0)], None);
    let report = audit_session(&session, DEFAULT_DRIFT_TOLERANCE);
    assert!(
        !report.diagnostics().iter().any(|d| d.code == "X009"),
        "{}",
        report.render_text()
    );
    // Only X008 coverage notes for the absent artifacts, nothing louder.
    assert_eq!((report.errors(), report.warnings()), (0, 0));
}

// ---- A020: controller thrashing lint -------------------------------------

/// A020 runs on the single-artifact path (`opprox analyze`), so it is
/// exercised through [`opprox_analyze::analyze`] over an `ArtifactSet`
/// holding the same synthetic trace the X009 tests use.
fn lint_codes(session: &Session) -> Vec<&'static str> {
    let set = ArtifactSet {
        telemetry: session.telemetry.clone(),
        ..ArtifactSet::default()
    };
    opprox_analyze::analyze(&set)
        .diagnostics()
        .iter()
        .map(|d| d.code)
        .collect()
}

#[test]
fn a020_detects_a_summary_claiming_more_replans_than_phases() {
    // The steps look sane but the closing summary claims 3 re-plans
    // across 2 phases — thrashing, caught from the summary half alone.
    let session = control_session(2.0, &[(0.0, 0.0), (0.0, 0.0)], Some((3.0, 0.0, 0.0)));
    let set = ArtifactSet {
        telemetry: session.telemetry.clone(),
        ..ArtifactSet::default()
    };
    let report = opprox_analyze::analyze(&set);
    let d = find(&report, "A020");
    assert_eq!(d.severity, Severity::Warn);
    assert_eq!(d.location, "telemetry.event[control.start session=0]");
    assert!(d.message.contains("thrashing"), "{}", d.message);
}

#[test]
fn a020_counts_replan_flags_on_the_steps_themselves() {
    // Declared one phase, but two steps each claim a re-plan.
    let session = control_session(1.0, &[(1.0, 1.0), (1.0, 1.0)], None);
    assert!(lint_codes(&session).contains(&"A020"));
}

#[test]
fn a020_stays_silent_when_replans_fit_the_phase_count() {
    let session = control_session(3.0, &[(0.0, 0.0), (1.5, 1.5), (0.0, 0.0)], None);
    assert_eq!(lint_codes(&session), Vec::<&str>::new());
}

// ---- Artifact-set round trip --------------------------------------------

/// `Session::from_artifacts` is what `opprox audit` builds from files:
/// serializing the fixture artifacts and reloading them through the
/// classifier must reproduce the clean audit.
#[test]
fn audit_via_serialized_artifacts_matches_in_memory_session() {
    let f = fixture();
    let artifacts = vec![
        Artifact::from_json(&f.trained.to_json().unwrap()).unwrap(),
        Artifact::from_json(&f.telemetry.to_json()).unwrap(),
        Artifact::from_json(&serde_json::to_string(&f.robustness).unwrap()).unwrap(),
        Artifact::from_json(&serde_json::to_string(&f.schedule).unwrap()).unwrap(),
    ];
    let report = opprox_analyze::audit(artifacts, DEFAULT_DRIFT_TOLERANCE);
    let in_memory = audit_session(&full_session(), DEFAULT_DRIFT_TOLERANCE);
    assert_eq!(report.render_json(), in_memory.render_json());
}

// ---- Determinism ---------------------------------------------------------

/// The determinism contract: the audit of one session renders
/// byte-identical output on every rerun, and a session produced by a
/// 1-thread engine audits to the same bytes as the 2-thread fixture
/// (the traces differ in timing, the verdicts may not).
#[test]
fn audit_is_byte_identical_across_thread_counts_and_reruns() {
    let two = audit_session(&full_session(), DEFAULT_DRIFT_TOLERANCE);
    let again = audit_session(&full_session(), DEFAULT_DRIFT_TOLERANCE);
    assert_eq!(two.render_json(), again.render_json());
    assert_eq!(two.render_text(), again.render_text());
    assert_eq!(two.render_sarif(), again.render_sarif());

    let one = run_session(1);
    let session = Session {
        trained: Some(one.trained),
        blocks: None,
        schedules: vec![one.schedule],
        telemetry: Some(one.telemetry),
        robustness: Some(one.robustness),
    };
    let single = audit_session(&session, DEFAULT_DRIFT_TOLERANCE);
    assert_eq!(single.render_json(), two.render_json());
}

/// A synthetic solve ledger parameterized by the property inputs. The
/// corruption (if any) is deterministic in the inputs, so two builds
/// audit to the same bytes.
fn synthetic_session(budget: f64, qos0: f64, leak: bool) -> Session {
    let t = Telemetry::new();
    t.event(
        "optimize.start",
        &[("solve", 0.0), ("budget", budget), ("phases", 1.0)],
    );
    let allocated = if leak { budget + 1.0 } else { budget };
    let leftover = (allocated - qos0).max(0.0);
    t.event(
        "optimize.phase",
        &[
            ("solve", 0.0),
            ("step", 0.0),
            ("phase", 0.0),
            ("roi", 1.0),
            ("allocated", allocated),
            ("leftover_in", 0.0),
            ("leftover_out", leftover),
            ("predicted_qos", qos0),
            ("predicted_speedup", 1.5),
        ],
    );
    t.span("optimize/phase[0]", || ());
    Session {
        telemetry: Some(t.report()),
        ..Session::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Rebuilding the same session twice and auditing each yields
    /// byte-identical JSON, whether or not the ledger is corrupt — and
    /// the corrupt variants are detected every time.
    #[test]
    fn audit_json_is_a_pure_function_of_the_session(
        budget in 1.0f64..50.0,
        qos0 in 0.0f64..60.0,
        leak_bit in 0u8..2,
    ) {
        let leak = leak_bit == 1;
        let a = audit_session(&synthetic_session(budget, qos0, leak), DEFAULT_DRIFT_TOLERANCE);
        let b = audit_session(&synthetic_session(budget, qos0, leak), DEFAULT_DRIFT_TOLERANCE);
        prop_assert_eq!(a.render_json(), b.render_json());
        prop_assert_eq!(a.render_sarif(), b.render_sarif());
        let fired = a.diagnostics().iter().any(|d| d.code == "X002");
        prop_assert_eq!(fired, leak, "budget leak detection is exact: {}", a.render_text());
    }
}
