//! Criterion benchmarks of the optimize hot path: end-to-end Algorithm 2
//! solves over the reference PSO workload (4 phases, 216-configuration
//! per-phase space) in both conservatism modes, a budget sweep, and the
//! batched prediction pass the per-phase search is built on. Committed
//! baselines live in `BENCH_optimize.json` at the workspace root.
//!
//! With `BENCH_SMOKE=1` the binary skips criterion entirely and runs the
//! pruning smoke check instead: the pruned search must not expand more
//! nodes than the exhaustive enumeration would evaluate on the reference
//! workload (CI leg `bench-smoke`).

use criterion::{criterion_group, Criterion};
use opprox_approx_rt::config::enumerate_configs;
use opprox_approx_rt::{ApproxApp, InputParams, LevelConfig};
use opprox_apps::Pso;
use opprox_core::modeling::{AppModels, ModelingOptions};
use opprox_core::optimizer::{optimize_traced, Conservatism};
use opprox_core::sampling::{collect_training_data, SamplingPlan};
use opprox_core::telemetry::Telemetry;
use opprox_core::AccuracySpec;

const NUM_PHASES: usize = 4;

/// The reference PSO workload: same training setup as `bench_modeling`,
/// so the two benchmark families share one model shape.
fn reference() -> (Pso, AppModels, u64) {
    let app = Pso::new();
    let inputs = vec![
        InputParams::new(vec![16.0, 3.0]),
        InputParams::new(vec![24.0, 4.0]),
    ];
    let plan = SamplingPlan {
        num_phases: NUM_PHASES,
        sparse_samples: 24,
        whole_run_samples: 0,
        seed: 7,
    };
    let data = collect_training_data(&app, &inputs, &plan).expect("training data");
    let iters = data.goldens[0].outer_iters;
    let models = AppModels::fit(&data, NUM_PHASES, &ModelingOptions::default()).expect("fit");
    (app, models, iters)
}

fn bench_optimize(c: &mut Criterion) {
    let (app, models, iters) = reference();
    let blocks = &app.meta().blocks;
    let input = InputParams::new(vec![16.0, 3.0]);
    let mut group = c.benchmark_group("optimize");
    group.sample_size(30);
    group.bench_function("e2e_band", |b| {
        b.iter(|| {
            optimize_traced(
                &models,
                blocks,
                &input,
                &AccuracySpec::new(10.0),
                iters,
                Conservatism::Band,
                None,
            )
            .unwrap()
        })
    });
    group.bench_function("e2e_point", |b| {
        b.iter(|| {
            optimize_traced(
                &models,
                blocks,
                &input,
                &AccuracySpec::new(10.0),
                iters,
                Conservatism::Point,
                None,
            )
            .unwrap()
        })
    });
    group.bench_function("budget_sweep", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for budget in [2.0, 5.0, 10.0, 20.0, 40.0] {
                let plan = optimize_traced(
                    &models,
                    blocks,
                    &input,
                    &AccuracySpec::new(budget),
                    iters,
                    Conservatism::Band,
                    None,
                )
                .unwrap();
                acc += plan.predicted_speedup;
            }
            acc
        })
    });
    group.finish();
}

fn bench_predict(c: &mut Criterion) {
    let (app, models, _) = reference();
    let input = InputParams::new(vec![16.0, 3.0]);
    let configs: Vec<LevelConfig> = enumerate_configs(&app.meta().blocks)
        .filter(|c| !c.is_accurate())
        .collect();
    let mut group = c.benchmark_group("optimize_predict");
    group.sample_size(40);
    // The per-phase search's model pass: point + conservative predictions
    // over the full non-accurate space. Pins the struct-of-arrays batched
    // expansion throughput.
    group.bench_function("phase_space_pass", |b| {
        b.iter(|| {
            let pairs = models.predict_pair_batch(&input, 0, &configs).unwrap();
            pairs.iter().map(|(p, c)| p.speedup + c.qos).sum::<f64>()
        })
    });
    group.finish();
}

/// The `bench-smoke` CI gate: on the reference workload the pruned search
/// must do no more per-phase work than exhaustive enumeration — i.e. the
/// bound-pruned search never *expands* more nodes than the exhaustive
/// count of non-accurate configurations, and its pruning ledger balances
/// (`visited == expanded + pruned`, the invariant analyze rule A019
/// lints in traces).
fn pruning_smoke() {
    let (app, models, iters) = reference();
    let blocks = &app.meta().blocks;
    let input = InputParams::new(vec![16.0, 3.0]);
    let exhaustive_count = enumerate_configs(blocks)
        .filter(|c| !c.is_accurate())
        .count() as f64;
    let mut checked = 0usize;
    for budget in [2.0, 10.0, 40.0] {
        let t = Telemetry::new();
        optimize_traced(
            &models,
            blocks,
            &input,
            &AccuracySpec::new(budget),
            iters,
            Conservatism::Band,
            Some(&t),
        )
        .expect("optimize");
        let report = t.report();
        for event in report.events_named("optimize.phase") {
            let space = event.field("space").expect("space field");
            let visited = event.field("visited").expect("visited field");
            let expanded = event.field("expanded").expect("expanded field");
            let pruned = event.field("pruned").expect("pruned field");
            let evaluated = event.field("evaluated").expect("evaluated field");
            assert_eq!(space, exhaustive_count + 1.0, "space counts every config");
            assert_eq!(
                visited,
                expanded + pruned,
                "pruning ledger must balance (budget {budget})"
            );
            assert!(
                evaluated <= exhaustive_count,
                "pruned search evaluated {evaluated} leaves, exhaustive \
                 enumeration scores only {exhaustive_count} (budget {budget})"
            );
            checked += 1;
        }
    }
    assert_eq!(
        checked,
        NUM_PHASES * 3,
        "every phase of every solve checked"
    );
    println!("bench-smoke: pruning ledger balanced across {checked} phase solves");
}

criterion_group!(benches, bench_optimize, bench_predict);

fn main() {
    if std::env::var_os("BENCH_SMOKE").is_some() {
        pruning_smoke();
        return;
    }
    benches();
}
