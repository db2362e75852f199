//! Criterion benchmarks of the modeling engine: full `AppModels::fit`
//! (the train-models stage) and optimizer-style prediction over an
//! exhaustive per-phase configuration space. Committed baselines live in
//! `BENCH_modeling.json` at the workspace root.

use criterion::{criterion_group, criterion_main, Criterion};
use opprox_approx_rt::config::enumerate_configs;
use opprox_approx_rt::{ApproxApp, InputParams, LevelConfig};
use opprox_apps::Pso;
use opprox_core::modeling::{AppModels, ModelingOptions};
use opprox_core::sampling::{collect_training_data, SamplingPlan, TrainingData};

const NUM_PHASES: usize = 4;

fn training_data() -> TrainingData {
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
    collect_training_data(&app, &inputs, &plan).expect("training data")
}

fn bench_train(c: &mut Criterion) {
    let data = training_data();
    let mut group = c.benchmark_group("train_models");
    group.sample_size(10);
    group.bench_function("pso", |b| {
        b.iter(|| AppModels::fit(&data, NUM_PHASES, &ModelingOptions::default()).unwrap())
    });
    group.finish();
}

fn bench_predict(c: &mut Criterion) {
    let data = training_data();
    let models = AppModels::fit(&data, NUM_PHASES, &ModelingOptions::default()).unwrap();
    let input = InputParams::new(vec![16.0, 3.0]);
    let configs: Vec<LevelConfig> = enumerate_configs(&Pso::new().meta().blocks)
        .filter(|c| !c.is_accurate())
        .collect();
    let mut group = c.benchmark_group("predict_phase");
    group.sample_size(20);
    group.bench_function("per_row", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for config in &configs {
                let (point, cons) = models.predict_pair(&input, 0, config).unwrap();
                acc += point.speedup + cons.qos;
            }
            acc
        })
    });
    group.bench_function("batched", |b| {
        b.iter(|| {
            let pairs = models.predict_pair_batch(&input, 0, &configs).unwrap();
            pairs.iter().map(|(p, c)| p.speedup + c.qos).sum::<f64>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_train, bench_predict);
criterion_main!(benches);
