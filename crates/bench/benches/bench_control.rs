//! Closed-loop controller benchmark: the cost of an adaptive session
//! (`core::control`, DESIGN.md §16) against the offline validated path
//! it wraps, with and without an injected drift that forces a mid-run
//! re-plan. Committed baselines live in `BENCH_control.json` at the
//! workspace root.
//!
//! With `BENCH_SMOKE=1` the binary skips criterion entirely and runs
//! the controller smoke check instead (CI leg `bench-smoke`): a
//! zero-drift session must deliver the offline Algorithm 2 plan
//! untouched, and a seeded drift must re-plan within the QoS budget
//! while recovering at least the leftover budget the offline plan
//! strands — with the reclaim/redistribute ledger balanced, the X009
//! audit invariant.

use criterion::{criterion_group, Criterion};
use opprox_approx_rt::InputParams;
use opprox_apps::Pso;
use opprox_core::control::{run_adaptive, ControlOptions, DriftInjection};
use opprox_core::evaluator::EvalEngine;
use opprox_core::pipeline::{Opprox, TrainedOpprox, TrainingOptions};
use opprox_core::request::OptimizeRequest;
use opprox_core::sampling::SamplingPlan;
use opprox_core::AccuracySpec;

const BUDGET: f64 = 10.0;

fn train_pso() -> TrainedOpprox {
    let options = TrainingOptions {
        num_phases: Some(2),
        sampling: SamplingPlan {
            num_phases: 2,
            sparse_samples: 8,
            seed: 5,
        },
        ..TrainingOptions::default()
    };
    Opprox::train(&Pso::new(), &options).expect("train PSO")
}

fn input() -> InputParams {
    InputParams::new(vec![16.0, 3.0])
}

fn drift(factor: f64) -> ControlOptions {
    ControlOptions {
        inject: Some(DriftInjection {
            phase: 0,
            factor,
            block: None,
        }),
        ..ControlOptions::default()
    }
}

fn bench_control(c: &mut Criterion) {
    let trained = train_pso();
    let app = Pso::new();
    let mut group = c.benchmark_group("control");
    group.sample_size(20);
    // The baseline an adaptive session should be compared against: one
    // offline solve plus one validating execution of the whole plan.
    group.bench_function("offline_validated", |b| {
        b.iter(|| {
            let engine = EvalEngine::new(1);
            OptimizeRequest::new(input(), AccuracySpec::new(BUDGET))
                .validate_on(&app)
                .engine(&engine)
                .run(&trained)
                .unwrap()
        })
    });
    // Same work through the controller with nothing drifting: the delta
    // over `offline_validated` is the pure closed-loop overhead
    // (per-phase execution, band checks, signature comparison, ledger).
    group.bench_function("adaptive_no_drift", |b| {
        b.iter(|| {
            let engine = EvalEngine::new(1);
            run_adaptive(
                &trained,
                &app,
                &engine,
                &input(),
                &AccuracySpec::new(BUDGET),
                &ControlOptions::default(),
            )
            .unwrap()
        })
    });
    // A drift injection large enough to re-plan: adds one Algorithm 2
    // solve over the remaining phases mid-session.
    group.bench_function("adaptive_seeded_drift", |b| {
        b.iter(|| {
            let engine = EvalEngine::new(1);
            run_adaptive(
                &trained,
                &app,
                &engine,
                &input(),
                &AccuracySpec::new(BUDGET),
                &drift(6.0),
            )
            .unwrap()
        })
    });
    group.finish();
}

/// The `bench-smoke` CI gate for the controller: the acceptance facts
/// `tests/control.rs` pins in-process, re-checked on the release build
/// the benchmarks measure.
fn control_smoke() {
    let trained = train_pso();
    let app = Pso::new();
    let spec = AccuracySpec::new(BUDGET);

    // Zero drift: the adaptive plan is the offline plan, untouched.
    let engine = EvalEngine::new(1);
    let clean = run_adaptive(
        &trained,
        &app,
        &engine,
        &input(),
        &spec,
        &ControlOptions::default(),
    )
    .expect("clean adaptive session");
    assert_eq!(clean.replans, 0, "zero-drift session re-planned");
    assert_eq!(
        clean.plan.phases, clean.offline.phases,
        "zero-drift adaptive plan diverged from the offline solve"
    );

    // Seeded drift: exactly the re-plan contract.
    let engine = EvalEngine::new(1);
    let drifted = run_adaptive(&trained, &app, &engine, &input(), &spec, &drift(6.0))
        .expect("drifted adaptive session");
    assert!(drifted.replans >= 1, "a 6x drift injection must re-plan");
    assert!(
        drifted.plan.predicted_qos <= BUDGET + 1e-9,
        "re-planned QoS {} exceeds the budget",
        drifted.plan.predicted_qos
    );
    let stranded = BUDGET - drifted.offline.predicted_qos;
    assert!(
        drifted.budget_redistributed >= stranded - 1e-9,
        "re-plan recovered {} < the {} the offline plan strands",
        drifted.budget_redistributed,
        stranded
    );
    let reclaimed: f64 = drifted.steps.iter().map(|s| s.budget_reclaimed).sum();
    let redistributed: f64 = drifted.steps.iter().map(|s| s.budget_redistributed).sum();
    assert!(
        (reclaimed - redistributed).abs() <= 1e-9 * reclaimed.abs().max(1.0),
        "controller ledger leaks budget: {reclaimed} vs {redistributed}"
    );
    println!(
        "bench-smoke: controller contract holds ({} steps, {} re-plans, {:.3} budget recovered)",
        drifted.steps.len(),
        drifted.replans,
        drifted.budget_redistributed
    );
}

criterion_group!(benches, bench_control);

fn main() {
    if std::env::var_os("BENCH_SMOKE").is_some() {
        control_smoke();
        return;
    }
    benches();
}
