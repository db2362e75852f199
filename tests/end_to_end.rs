//! End-to-end integration tests: train → optimize → evaluate across the
//! full application suite, with small training plans so the suite stays
//! fast.

use opprox::approx_rt::InputParams;
use opprox::core::evaluator::EvalEngine;
use opprox::core::pipeline::Opprox;
use opprox::core::request::OptimizeRequest;
use opprox::core::AccuracySpec;
use opprox_apps::registry::all_apps;
use opprox_testutil::fixtures::{fast_training_options as fast_options, prod_input};

#[test]
fn validated_optimization_respects_budget_for_every_app() {
    for app in all_apps() {
        let name = app.meta().name.clone();
        let trained = Opprox::train(app.as_ref(), &fast_options(2))
            .unwrap_or_else(|e| panic!("{name}: training failed: {e}"));
        let input = prod_input(&name);
        let budget = if name == "FFmpeg" { 40.0 } else { 15.0 };
        let spec = AccuracySpec::new(budget);
        let result = OptimizeRequest::new(input, spec)
            .validate_on(app.as_ref())
            .run(&trained)
            .unwrap_or_else(|e| panic!("{name}: optimization failed: {e}"));
        let outcome = result.measured.expect("validated requests measure");
        assert!(
            outcome.qos <= budget,
            "{name}: measured QoS {} exceeds budget {budget}",
            outcome.qos
        );
        assert!(outcome.speedup >= 1.0, "{name}: plan slowed the app down");
        assert_eq!(
            result.plan.schedule.num_phases(),
            2,
            "{name}: wrong phase count"
        );
    }
}

/// An input so far outside the training range that the models overflow
/// to NaN gets an error, not a plan built on a zero-degradation bound.
#[test]
fn nan_predictions_refuse_the_plan() {
    let trained = &opprox_testutil::fixtures::trained_pso().0;
    let request = |input: Vec<f64>| {
        OptimizeRequest::new(InputParams::new(input), AccuracySpec::new(10.0)).run(trained)
    };
    assert!(request(vec![16.0, 3.0]).is_ok());
    let err = request(vec![1e200, 3.0]).expect_err("a NaN prediction must not plan");
    assert!(
        matches!(err, opprox::core::OpproxError::Model(_)),
        "unexpected error: {err}"
    );
}

#[test]
fn zero_budget_always_yields_accurate_execution() {
    let app = opprox_apps::Pso::new();
    let trained = Opprox::train(&app, &fast_options(2)).expect("training");
    let input = prod_input("PSO");
    let result = OptimizeRequest::new(input, AccuracySpec::new(0.0))
        .validate_on(&app)
        .run(&trained)
        .expect("optimization");
    let outcome = result.measured.expect("validated requests measure");
    assert!(result.plan.schedule.is_accurate());
    assert_eq!(
        result.path,
        opprox::core::request::OptimizePath::AccurateFallback
    );
    assert_eq!(outcome.speedup, 1.0);
    assert_eq!(outcome.qos, 0.0);
}

/// The suite long asserted speedups but never evaluation counts: a
/// cache regression that re-executed every repeated configuration would
/// have passed unnoticed. The telemetry counters close that gap.
#[test]
fn pipeline_reuses_the_cache_instead_of_reexecuting() {
    let app = opprox_apps::Pso::new();
    let engine = EvalEngine::new(2);
    let trained = Opprox::train_with(&engine, &app, &fast_options(2)).expect("training");
    OptimizeRequest::new(prod_input("PSO"), AccuracySpec::new(10.0))
        .validate_on(&app)
        .engine(&engine)
        .run(&trained)
        .expect("validated optimization");

    let report = engine.telemetry_report();
    let metrics = engine.metrics();
    // The self-check re-requests and validation replays actually hit...
    assert!(metrics.cache_hits > 0, "whole pipeline produced no hits");
    // ...and no configuration was ever executed twice: the sum of the
    // per-key counters accounts for every execution, each exactly once.
    let per_key = opprox_testutil::trace::per_key_counters(&report, "eval.exec[");
    assert_eq!(per_key.len() as u64, metrics.executions);
    for (key, count) in per_key {
        assert_eq!(count, 1, "{key} executed {count} times");
    }
}

#[test]
fn training_is_deterministic() {
    let app = opprox_apps::Pso::new();
    let input = prod_input("PSO");
    let spec = AccuracySpec::new(10.0);
    let a = OptimizeRequest::new(input.clone(), spec)
        .run(&Opprox::train(&app, &fast_options(2)).unwrap())
        .unwrap();
    let b = OptimizeRequest::new(input, spec)
        .run(&Opprox::train(&app, &fast_options(2)).unwrap())
        .unwrap();
    assert_eq!(a.plan.schedule, b.plan.schedule);
}

#[test]
fn four_phase_training_works_on_the_heavier_apps() {
    for name in ["LULESH", "CoMD"] {
        let app = opprox_apps::registry::by_name(name).expect("registered");
        let trained = Opprox::train(app.as_ref(), &fast_options(4)).expect("4-phase training");
        assert_eq!(trained.num_phases(), 4);
        let outcome = OptimizeRequest::new(prod_input(name), AccuracySpec::new(10.0))
            .run(&trained)
            .expect("optimize");
        assert_eq!(outcome.plan.schedule.num_phases(), 4);
    }
}

#[test]
fn golden_iteration_estimator_tracks_inputs() {
    let app = opprox_apps::CoMd::new();
    let trained = Opprox::train(&app, &fast_options(2)).expect("training");
    // CoMD's iteration count equals its timesteps parameter; the
    // estimator must follow it across inputs.
    let short = trained
        .estimate_golden_iters(&InputParams::new(vec![3.0, 1.2, 120.0]))
        .expect("estimate");
    let long = trained
        .estimate_golden_iters(&InputParams::new(vec![3.0, 1.2, 180.0]))
        .expect("estimate");
    assert!(long > short, "estimates: short {short}, long {long}");
}

#[test]
fn canary_validation_optimizes_for_production_but_validates_cheaply() {
    let app = opprox_apps::CoMd::new();
    let trained = Opprox::train(&app, &fast_options(2)).expect("training");
    // Production input: 180 timesteps; canary: 60 timesteps (same physics,
    // a third of the cost).
    let production = InputParams::new(vec![3.0, 1.2, 180.0]);
    let canary = InputParams::new(vec![3.0, 1.2, 60.0]);
    let budget = 15.0;
    let result = OptimizeRequest::new(production.clone(), AccuracySpec::new(budget))
        .validate_on(&app)
        .canary(canary)
        .run(&trained)
        .expect("canary optimization");
    let canary_outcome = result.measured.expect("validated requests measure");
    assert!(canary_outcome.qos <= budget);
    // The plan must still be runnable on the production input.
    let production_outcome = trained
        .evaluate(&app, &production, &result.plan)
        .expect("production evaluation");
    assert!(production_outcome.speedup > 0.0);
    assert!(production_outcome.qos.is_finite());
}
