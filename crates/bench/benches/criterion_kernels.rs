//! Criterion micro-benchmarks of the core kernels: the ML substrate
//! (polynomial regression, MIC, decision tree) and one simulation step of
//! each benchmark application. These complement the figure/table benches
//! by tracking the cost of OPPROX's own machinery.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use opprox_approx_rt::{InputParams, PhaseSchedule};
use opprox_ml::dtree::DecisionTree;
use opprox_ml::mic::mic;
use opprox_ml::model_select::{AutoFitConfig, TargetModel};
use opprox_ml::polyreg::PolynomialRegression;
use opprox_ml::Dataset;

fn regression_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|i| vec![(i % 17) as f64, (i % 5) as f64, (i % 3) as f64])
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|r| 1.0 + r[0] * 0.5 + r[1] * r[2] + r[0] * r[0] * 0.1)
        .collect();
    (xs, ys)
}

/// 48 rows over a 4 × 4 × 3 grid of three features with a target no
/// degree-2 polynomial explains: the mean cross-validation shape of
/// model fitting in training, where degree escalation and the sub-model
/// split search both run.
fn fit_shape_dataset() -> Dataset {
    let mut ds = Dataset::new(vec!["a".into(), "b".into(), "c".into()]);
    for i in 0..48usize {
        let row = vec![(i % 4) as f64, (i / 4 % 4) as f64, (i / 16) as f64];
        let wiggle = ((i * 2654435761) % 97) as f64 / 97.0;
        let y = 1.0 + row[0] * row[1] - 0.5 * row[2] * row[2] + 3.0 * wiggle;
        ds.push(row, y).unwrap();
    }
    ds
}

fn bench_ml(c: &mut Criterion) {
    let (xs, ys) = regression_data(200);
    c.bench_function("polyreg_fit_degree3_200x3", |b| {
        b.iter(|| PolynomialRegression::fit(&xs, &ys, 3).unwrap())
    });
    let model = PolynomialRegression::fit(&xs, &ys, 3).unwrap();
    c.bench_function("polyreg_predict_one", |b| {
        b.iter(|| model.predict_one(&[3.0, 2.0, 1.0]).unwrap())
    });

    let fit_shape = fit_shape_dataset();
    let fit_config = AutoFitConfig {
        max_degree: 4,
        mic_threshold: None,
        ..AutoFitConfig::default()
    };
    c.bench_function("target_model_fit_48x3_deg4", |b| {
        b.iter(|| TargetModel::fit(&fit_shape, &fit_config).unwrap())
    });

    let a: Vec<f64> = (0..256).map(|i| i as f64).collect();
    let bvals: Vec<f64> = a.iter().map(|x| (x * 0.1).sin()).collect();
    c.bench_function("mic_256_points", |b| b.iter(|| mic(&a, &bvals).unwrap()));

    let labels: Vec<usize> = (0..200).map(|i| usize::from(i % 17 > 8)).collect();
    c.bench_function("dtree_fit_200x3", |b| {
        b.iter_batched(
            || (xs.clone(), labels.clone()),
            |(x, y)| DecisionTree::fit(&x, &y).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_apps(c: &mut Criterion) {
    let mut group = c.benchmark_group("golden_runs");
    group.sample_size(10);
    let cases: Vec<(&str, Vec<f64>)> = vec![
        ("LULESH", vec![48.0, 2.0]),
        ("CoMD", vec![3.0, 1.2, 60.0]),
        ("FFmpeg", vec![12.0, 3.0, 600.0, 0.0]),
        ("Bodytrack", vec![3.0, 120.0, 12.0]),
        ("PSO", vec![16.0, 3.0]),
    ];
    for (name, params) in cases {
        let app = opprox_apps::registry::by_name(name).unwrap();
        let input = InputParams::new(params);
        let schedule = PhaseSchedule::accurate(app.meta().num_blocks());
        group.bench_function(name, |b| b.iter(|| app.run(&input, &schedule).unwrap()));
    }
    group.finish();
}

criterion_group!(benches, bench_ml, bench_apps);
criterion_main!(benches);
