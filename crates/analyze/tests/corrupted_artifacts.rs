//! The corrupted-artifact suite: every semantic lint (A001–A015) has at
//! least one positive test (a seeded defect it must detect) and one
//! negative test (a healthy artifact it must stay silent on).
//!
//! Defects that survive JSON text (ragged configs, negative budgets) are
//! seeded as handcrafted documents; defects that do not (NaN renders as
//! `null`) are seeded by mutating the serialized `Value` tree of a real
//! trained model set in memory and deserializing with
//! [`serde::Deserialize::from_value`].

use opprox_analyze::{analyze, Artifact, ArtifactSet, Severity};
use opprox_approx_rt::{InputParams, LevelConfig, PhaseSchedule};
use opprox_core::fault::DroppedSample;
use opprox_core::pipeline::TrainedOpprox;
use opprox_core::request::OptimizeRequest;
use opprox_core::{AccuracySpec, FailureKind, OpproxError, RobustnessReport};
use opprox_testutil::fixtures::{
    pso_blocks, trained_pso as fixture, trained_pso_from as trained_from,
    trained_pso_value as trained_value,
};
use opprox_testutil::json::{mutate_first_key, mutate_keys, path_mut};
use serde::value::{Number, Value};

fn set_of(artifacts: Vec<Artifact>) -> ArtifactSet {
    let mut set = ArtifactSet::default();
    for a in artifacts {
        set.add(a);
    }
    set
}

fn codes(set: &ArtifactSet) -> Vec<&'static str> {
    analyze(set).diagnostics().iter().map(|d| d.code).collect()
}

/// The blanket negative test: a full, healthy artifact set — real
/// trained models, their training data, an in-range schedule, and a
/// generous spec — produces no errors and no warnings.
#[test]
fn healthy_full_set_is_clean() {
    let (trained, data) = fixture();
    let schedule = PhaseSchedule::new(
        vec![LevelConfig::accurate(3), LevelConfig::new(vec![1, 1, 1])],
        200,
    )
    .unwrap();
    let set = set_of(vec![
        Artifact::Blocks(pso_blocks()),
        Artifact::Schedule(schedule),
        Artifact::Spec(AccuracySpec::new(1000.0)),
        Artifact::Trained(Box::new(trained.clone())),
        Artifact::Training(Box::new(data.clone())),
    ]);
    let report = analyze(&set);
    assert_eq!(
        (report.errors(), report.warnings()),
        (0, 0),
        "healthy artifacts must lint clean:\n{}",
        report.render_text()
    );
}

// ---- A001: level out of bounds ------------------------------------------

#[test]
fn a001_detects_level_above_block_maximum() {
    // Pso's blocks all have max_level 5; the constructor does not check.
    let schedule = PhaseSchedule::new(
        vec![LevelConfig::accurate(3), LevelConfig::new(vec![9, 0, 0])],
        100,
    )
    .unwrap();
    let set = set_of(vec![
        Artifact::Blocks(pso_blocks()),
        Artifact::Schedule(schedule),
    ]);
    let report = analyze(&set);
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "A001")
        .expect("A001 fires");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.location, "schedule.phase[1].block[AB0]");
    assert!(d.message.contains("level 9"), "{}", d.message);
}

#[test]
fn a001_accepts_levels_at_the_maximum() {
    let schedule = PhaseSchedule::new(vec![LevelConfig::new(vec![5, 5, 5])], 100).unwrap();
    let set = set_of(vec![
        Artifact::Blocks(pso_blocks()),
        Artifact::Schedule(schedule),
    ]);
    assert!(!codes(&set).contains(&"A001"));
}

// ---- A002: cross-phase block-count mismatch -----------------------------

#[test]
fn a002_detects_ragged_phase_configs() {
    // The constructor rejects ragged configs, so this can only arrive via
    // a corrupt serialized file — which must load (leniently) and lint.
    let json = r#"{"configs":[{"levels":[0,0,0]},{"levels":[1]}],"expected_iters":100}"#;
    let set = set_of(vec![Artifact::from_json(json).unwrap()]);
    let report = analyze(&set);
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "A002")
        .expect("A002 fires");
    assert_eq!(d.location, "schedule.phase[1]");
    assert!(
        d.message.contains("covers 1 blocks but phase 0 covers 3"),
        "{}",
        d.message
    );
}

#[test]
fn a002_detects_schedule_narrower_than_declared_blocks() {
    let schedule = PhaseSchedule::new(vec![LevelConfig::accurate(2)], 100).unwrap();
    let set = set_of(vec![
        Artifact::Blocks(pso_blocks()), // 3 blocks declared
        Artifact::Schedule(schedule),   // 2 covered
    ]);
    let report = analyze(&set);
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "A002")
        .expect("A002 fires");
    assert_eq!(d.location, "schedule.phase[0]");
}

#[test]
fn a002_accepts_consistent_block_counts() {
    let schedule = PhaseSchedule::new(vec![LevelConfig::accurate(3); 2], 100).unwrap();
    let set = set_of(vec![
        Artifact::Blocks(pso_blocks()),
        Artifact::Schedule(schedule),
    ]);
    assert!(!codes(&set).contains(&"A002"));
}

// ---- A003: zero / absurd expected iterations ----------------------------

#[test]
fn a003_detects_zero_expected_iters_as_error() {
    let json = r#"{"configs":[{"levels":[0,0,0]}],"expected_iters":0}"#;
    let set = set_of(vec![Artifact::from_json(json).unwrap()]);
    let report = analyze(&set);
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "A003")
        .expect("A003 fires");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.location, "schedule.expected_iters");
}

#[test]
fn a003_detects_absurd_expected_iters_as_warning() {
    let schedule = PhaseSchedule::new(vec![LevelConfig::accurate(3)], 2_000_000_000_000).unwrap();
    let set = set_of(vec![Artifact::Schedule(schedule)]);
    let report = analyze(&set);
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "A003")
        .expect("A003 fires");
    assert_eq!(d.severity, Severity::Warn);
    assert!(d.message.contains("unit error"), "{}", d.message);
}

#[test]
fn a003_accepts_plausible_expected_iters() {
    let schedule = PhaseSchedule::new(vec![LevelConfig::accurate(3)], 100).unwrap();
    let set = set_of(vec![Artifact::Schedule(schedule)]);
    assert!(!codes(&set).contains(&"A003"));
}

// ---- A004: non-finite model coefficients --------------------------------

#[test]
fn a004_detects_nan_coefficient() {
    // NaN cannot survive a JSON text round-trip (it renders as `null`),
    // so the corruption is seeded on the value tree in memory.
    let mut v = trained_value();
    mutate_first_key(&mut v, "coefficients", |c| {
        let Value::Array(items) = c else {
            panic!("coefficients is an array")
        };
        items[0] = Value::Number(Number::F64(f64::NAN));
    });
    let set = set_of(vec![Artifact::Trained(Box::new(trained_from(&v)))]);
    let report = analyze(&set);
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "A004")
        .expect("A004 fires");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.location.starts_with("models.class[0]"), "{}", d.location);
    assert!(d.message.contains("NaN"), "{}", d.message);
}

#[test]
fn a004_accepts_finite_coefficients() {
    let set = set_of(vec![Artifact::Trained(Box::new(fixture().0.clone()))]);
    assert!(!codes(&set).contains(&"A004"));
}

// ---- A005: speedup model miscalibrated at the accurate config -----------

#[test]
fn a005_detects_accurate_speedup_below_one() {
    // Clamp every phase's speedup range below 1.0: predictions then top
    // out at 0.3x for the *accurate* configuration, which is the baseline.
    let mut v = trained_value();
    mutate_keys(&mut v, "speedup_range", &mut |r| {
        *r = Value::Array(vec![
            Value::Number(Number::F64(0.1)),
            Value::Number(Number::F64(0.3)),
        ]);
    });
    let set = set_of(vec![Artifact::Trained(Box::new(trained_from(&v)))]);
    let report = analyze(&set);
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "A005")
        .expect("A005 fires");
    assert_eq!(d.severity, Severity::Warn);
    assert!(d.location.contains("speedup"), "{}", d.location);
}

#[test]
fn a005_accepts_calibrated_speedup_model() {
    let set = set_of(vec![Artifact::Trained(Box::new(fixture().0.clone()))]);
    assert!(!codes(&set).contains(&"A005"));
}

// ---- A006: non-positive phase ROI ---------------------------------------

#[test]
fn a006_detects_negative_roi() {
    let mut v = trained_value();
    mutate_keys(&mut v, "roi", &mut |r| {
        *r = Value::Number(Number::F64(-1.0));
    });
    let set = set_of(vec![Artifact::Trained(Box::new(trained_from(&v)))]);
    let report = analyze(&set);
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "A006")
        .expect("A006 fires");
    assert_eq!(d.severity, Severity::Warn);
    assert_eq!(d.location, "models.class[0].phase[0].roi");
    assert!(d.message.contains("budget split"), "{}", d.message);
}

#[test]
fn a006_accepts_positive_roi() {
    let set = set_of(vec![Artifact::Trained(Box::new(fixture().0.clone()))]);
    assert!(!codes(&set).contains(&"A006"));
}

// ---- A007: inverted confidence band -------------------------------------

#[test]
fn a007_detects_negative_half_width() {
    let mut v = trained_value();
    mutate_first_key(&mut v, "half_width", |h| {
        *h = Value::Number(Number::F64(-1.0));
    });
    let set = set_of(vec![Artifact::Trained(Box::new(trained_from(&v)))]);
    let report = analyze(&set);
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "A007")
        .expect("A007 fires");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("half-width"), "{}", d.message);
}

#[test]
fn a007_accepts_valid_bands() {
    let set = set_of(vec![Artifact::Trained(Box::new(fixture().0.clone()))]);
    assert!(!codes(&set).contains(&"A007"));
}

// ---- A008: statically infeasible schedule -------------------------------

#[test]
fn a008_detects_schedule_over_budget() {
    // Max approximation everywhere against a zero error budget: the
    // trained QoS model predicts strictly positive degradation.
    let schedule = PhaseSchedule::new(vec![LevelConfig::new(vec![5, 5, 5]); 2], 200).unwrap();
    let set = set_of(vec![
        Artifact::Schedule(schedule),
        Artifact::Spec(AccuracySpec::new(0.0)),
        Artifact::Trained(Box::new(fixture().0.clone())),
        Artifact::Training(Box::new(fixture().1.clone())),
    ]);
    let report = analyze(&set);
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "A008")
        .expect("A008 fires");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.location, "schedule");
    assert!(d.message.contains("infeasible"), "{}", d.message);
}

#[test]
fn a008_accepts_schedule_within_budget() {
    // Fully accurate schedule: zero predicted degradation, any budget fits.
    let schedule = PhaseSchedule::new(vec![LevelConfig::accurate(3); 2], 200).unwrap();
    let set = set_of(vec![
        Artifact::Schedule(schedule),
        Artifact::Spec(AccuracySpec::new(10.0)),
        Artifact::Trained(Box::new(fixture().0.clone())),
        Artifact::Training(Box::new(fixture().1.clone())),
    ]);
    assert!(!codes(&set).contains(&"A008"));
}

// ---- A009: training coverage gaps ---------------------------------------

#[test]
fn a009_detects_levels_no_sample_covers() {
    // Inflate one block's declared max_level beyond what was sampled.
    let mut blocks = pso_blocks();
    blocks[0].max_level = 7;
    let set = set_of(vec![
        Artifact::Blocks(blocks),
        Artifact::Training(Box::new(fixture().1.clone())),
    ]);
    let report = analyze(&set);
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "A009")
        .expect("A009 fires");
    assert_eq!(d.severity, Severity::Warn);
    assert_eq!(d.location, "training.block[AB0]");
    assert!(d.message.contains("[6, 7]"), "{}", d.message);
}

#[test]
fn a009_accepts_exhaustively_swept_levels() {
    // The collector's per-block local sweeps cover every level 1..=max.
    let set = set_of(vec![
        Artifact::Blocks(pso_blocks()),
        Artifact::Training(Box::new(fixture().1.clone())),
    ]);
    assert!(!codes(&set).contains(&"A009"));
}

// ---- A010: unreachable control-flow class -------------------------------

#[test]
fn a010_detects_class_no_leaf_predicts() {
    // Append a phantom control-flow class (and duplicate its per-phase
    // models so the shapes still agree): no decision-tree leaf can ever
    // select it.
    let mut v = trained_value();
    let cf_classes = path_mut(&mut v, &["models", "control_flow", "classes"]);
    let phantom_class = {
        let Value::Array(sigs) = cf_classes else {
            panic!("control-flow classes is an array")
        };
        let phantom = sigs.len();
        sigs.push(Value::Array(vec![Value::Number(Number::U64(999))]));
        phantom
    };
    let model_classes = path_mut(&mut v, &["models", "classes"]);
    {
        let Value::Array(models) = model_classes else {
            panic!("model classes is an array")
        };
        let clone = models[0].clone();
        models.push(clone);
    }
    let set = set_of(vec![Artifact::Trained(Box::new(trained_from(&v)))]);
    let report = analyze(&set);
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "A010")
        .expect("A010 fires");
    assert_eq!(d.severity, Severity::Warn);
    assert_eq!(
        d.location,
        format!("models.control_flow.class[{phantom_class}]")
    );
    assert_eq!(report.errors(), 0, "shapes agree, so no A012 noise");
}

#[test]
fn a010_accepts_fully_reachable_classes() {
    let set = set_of(vec![Artifact::Trained(Box::new(fixture().0.clone()))]);
    assert!(!codes(&set).contains(&"A010"));
}

// ---- A011: invalid accuracy spec ----------------------------------------

#[test]
fn a011_detects_negative_error_budget() {
    // AccuracySpec::new panics on this, so only a serialized spec can
    // carry it: the artifact loads leniently and the lint reports it.
    let set = set_of(vec![
        Artifact::from_json(r#"{"error_budget":-3.0}"#).unwrap()
    ]);
    let report = analyze(&set);
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "A011")
        .expect("A011 fires");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.location, "spec.error_budget");
}

#[test]
fn a011_accepts_valid_error_budget() {
    let set = set_of(vec![Artifact::Spec(AccuracySpec::new(12.5))]);
    let report = analyze(&set);
    assert_eq!((report.errors(), report.warnings()), (0, 0));
}

// ---- A012: declared dimensions contradict the model shapes --------------

#[test]
fn a012_detects_dimension_mismatch() {
    let mut v = trained_value();
    *path_mut(&mut v, &["models", "num_phases"]) = Value::Number(Number::U64(5));
    let set = set_of(vec![Artifact::Trained(Box::new(trained_from(&v)))]);
    let report = analyze(&set);
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "A012")
        .expect("A012 fires");
    assert_eq!(d.severity, Severity::Error);
}

#[test]
fn a012_accepts_consistent_dimensions() {
    let set = set_of(vec![Artifact::Trained(Box::new(fixture().0.clone()))]);
    assert!(!codes(&set).contains(&"A012"));
}

// ---- A013: predictive lints skipped for lack of inputs ------------------

#[test]
fn a013_reports_predictive_skip_without_inputs() {
    // Unknown app, no training data: A005 cannot draw any input.
    let mut v = trained_value();
    *path_mut(&mut v, &["app_name"]) = Value::String("no-such-app".into());
    let set = set_of(vec![Artifact::Trained(Box::new(trained_from(&v)))]);
    let report = analyze(&set);
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "A013")
        .expect("A013 fires");
    assert_eq!(d.severity, Severity::Info);
    assert_eq!(report.errors(), 0);
}

#[test]
fn a013_silent_when_inputs_available() {
    // The app is registered, so representative inputs exist.
    let set = set_of(vec![Artifact::Trained(Box::new(fixture().0.clone()))]);
    assert!(!codes(&set).contains(&"A013"));
}

// ---- A014/A015: robustness reports --------------------------------------

/// One dropped sample per `count`, shaped like a real per-phase sweep
/// loss under injected timeouts.
fn drops(count: usize) -> Vec<DroppedSample> {
    (0..count)
        .map(|i| DroppedSample {
            phase: Some(i % 2),
            levels: vec![1, 0, 0],
            golden: false,
            kind: FailureKind::Timeout,
        })
        .collect()
}

#[test]
fn a014_detects_excessive_drop_rate() {
    let report = RobustnessReport {
        fault_seed: Some(7),
        injected_faults: 20,
        timeouts: 20,
        failed_evaluations: 12,
        quarantined_keys: 12,
        total_samples: 100,
        dropped_samples: drops(12), // 12% > the 10% threshold
        ..RobustnessReport::default()
    };
    let set = set_of(vec![Artifact::Robustness(Box::new(report))]);
    let report = analyze(&set);
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "A014")
        .expect("A014 fires");
    assert_eq!(d.severity, Severity::Warn);
    assert_eq!(d.location, "robustness.drop_rate");
    assert!(d.message.contains("12/100"), "{}", d.message);
    assert_eq!(report.errors(), 0, "a high drop rate is a warning");
}

#[test]
fn a014_detects_dropped_inputs() {
    let report = RobustnessReport {
        fault_seed: Some(7),
        injected_faults: 3,
        dropped_inputs: 1,
        total_samples: 50,
        ..RobustnessReport::default()
    };
    let set = set_of(vec![Artifact::Robustness(Box::new(report))]);
    let d_codes = codes(&set);
    assert!(d_codes.contains(&"A014"), "{d_codes:?}");
}

#[test]
fn a014_accepts_mild_degradation() {
    // 5% drop rate, no whole-input losses: within tolerance.
    let report = RobustnessReport {
        fault_seed: Some(7),
        injected_faults: 9,
        timeouts: 9,
        retries: 6,
        backoff_ms_accounted: 60,
        failed_evaluations: 5,
        quarantined_keys: 5,
        total_samples: 100,
        dropped_samples: drops(5),
        ..RobustnessReport::default()
    };
    let set = set_of(vec![Artifact::Robustness(Box::new(report))]);
    assert!(!codes(&set).contains(&"A014"));
}

#[test]
fn a015_detects_impossible_counter_relations() {
    // More samples dropped than were ever requested.
    let report = RobustnessReport {
        fault_seed: Some(7),
        total_samples: 3,
        dropped_samples: drops(5),
        ..RobustnessReport::default()
    };
    let set = set_of(vec![Artifact::Robustness(Box::new(report))]);
    let report = analyze(&set);
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "A015")
        .expect("A015 fires");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.location, "robustness.dropped_samples");

    // Quarantine hits against zero quarantined keys.
    let report = RobustnessReport {
        quarantine_hits: 2,
        ..RobustnessReport::default()
    };
    let set = set_of(vec![Artifact::Robustness(Box::new(report))]);
    assert!(codes(&set).contains(&"A015"));

    // Injected faults without a configured plan.
    let report = RobustnessReport {
        fault_seed: None,
        injected_faults: 4,
        ..RobustnessReport::default()
    };
    let set = set_of(vec![Artifact::Robustness(Box::new(report))]);
    assert!(codes(&set).contains(&"A015"));
}

#[test]
fn a015_accepts_a_real_engines_report() {
    // A report produced by the recovery layer itself (not handcrafted)
    // must satisfy its own invariants — and round-trip through the
    // `analyze` classifier as JSON.
    use opprox_core::evaluator::EvalEngine;
    use opprox_core::{FaultPlan, RecoveryPolicy};

    let engine = EvalEngine::with_faults(
        1,
        FaultPlan::seeded(3).timeouts(0.5),
        RecoveryPolicy::default(),
    );
    let app = opprox_apps::Pso::new();
    for i in 0..6 {
        let _ = engine.run(
            &app,
            &InputParams::new(vec![8.0 + f64::from(i), 2.0]),
            &PhaseSchedule::accurate(3),
        );
    }
    let report = engine.robustness_report();
    assert!(report.has_activity(), "the plan must actually fire");
    let json = serde_json::to_string(&report).unwrap();
    let artifact = Artifact::from_json(&json).expect("classified");
    assert_eq!(artifact.kind(), "robustness report");
    let set = set_of(vec![artifact]);
    assert!(!codes(&set).contains(&"A015"), "{:?}", codes(&set));
}

// ---- Boundary enforcement: load + optimizer reject Error-severity corruption

#[test]
fn trained_load_rejects_corrupt_file() {
    // A negative half-width survives JSON text, so it can reach disk.
    let mut v = trained_value();
    mutate_first_key(&mut v, "half_width", |h| {
        *h = Value::Number(Number::F64(-2.5));
    });
    let dir = std::env::temp_dir().join(format!("opprox-analyze-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corrupt.json");
    std::fs::write(&path, v.render_compact()).unwrap();
    let err = TrainedOpprox::load(&path).unwrap_err();
    assert!(
        matches!(err, OpproxError::InvalidModel(_)),
        "load must reject at the boundary: {err}"
    );
    let healthy = dir.join("healthy.json");
    std::fs::write(&healthy, fixture().0.to_json().unwrap()).unwrap();
    assert!(TrainedOpprox::load(&healthy).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn optimizer_rejects_corrupt_model_set() {
    let mut v = trained_value();
    mutate_first_key(&mut v, "coefficients", |c| {
        let Value::Array(items) = c else {
            panic!("coefficients is an array")
        };
        items[0] = Value::Number(Number::F64(f64::INFINITY));
    });
    let corrupt = trained_from(&v);
    let err = OptimizeRequest::new(InputParams::new(vec![20.0, 3.0]), AccuracySpec::new(10.0))
        .run(&corrupt)
        .unwrap_err();
    assert!(
        matches!(err, OpproxError::InvalidModel(_)),
        "the optimizer entry path must reject corrupt models: {err}"
    );
}

#[test]
fn optimizer_rejects_non_finite_roi() {
    // `"roi": null` decodes as NaN, and the load-time integrity check
    // does not look at ROIs, so the file loads; Algorithm 2 must then
    // refuse it instead of panicking on the ROI ranking.
    let mut v = trained_value();
    mutate_first_key(&mut v, "roi", |r| *r = Value::Null);
    let dir = std::env::temp_dir().join(format!("opprox-analyze-roi-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("null-roi.json");
    std::fs::write(&path, v.render_compact()).unwrap();
    let trained = TrainedOpprox::load(&path).expect("the integrity check ignores ROIs");
    std::fs::remove_dir_all(&dir).ok();
    let err = OptimizeRequest::new(InputParams::new(vec![20.0, 3.0]), AccuracySpec::new(10.0))
        .run(&trained)
        .unwrap_err();
    assert!(
        matches!(err, OpproxError::InvalidModel(_)),
        "a non-finite ROI must be refused as an invalid model: {err}"
    );
}
