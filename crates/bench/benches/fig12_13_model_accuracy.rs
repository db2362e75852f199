//! Figures 12 and 13: prediction accuracy of the QoS-degradation
//! (Fig. 12) and speedup (Fig. 13) models.
//!
//! Following the paper's protocol, the profiled samples are randomly
//! partitioned into two equal-sized non-overlapping parts; the first is
//! used for training and the second for testing. The diagonal-scatter
//! plots of the paper are summarized here as R² scores plus a sample of
//! (actual, predicted) pairs per application.

use opprox_apps::registry::all_apps;
use opprox_bench::TextTable;
use opprox_core::modeling::{AppModels, ModelingOptions};
use opprox_core::sampling::{collect_training_data, SamplingPlan, TrainingData};
use opprox_linalg::stats::r2_score;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    println!("Figures 12 & 13 — prediction accuracy of the QoS and speedup models");
    println!("(50/50 random train/test split of the profiled samples)\n");

    let mut summary = TextTable::new(vec![
        "app".into(),
        "test samples".into(),
        "qos R² (log space)".into(),
        "speedup R² (log space)".into(),
    ]);

    for app in all_apps() {
        let name = app.meta().name.clone();
        let plan = SamplingPlan {
            num_phases: 4,
            sparse_samples: 36,
            whole_run_samples: 0,
            seed: 0xF12,
        };
        let data = collect_training_data(app.as_ref(), &app.representative_inputs(), &plan)
            .expect("training data");

        // Random 50/50 split, deterministic per app.
        let mut indices: Vec<usize> = (0..data.records.len()).collect();
        let mut rng = StdRng::seed_from_u64(0xF12F13);
        indices.shuffle(&mut rng);
        let half = indices.len() / 2;
        let train_set: std::collections::HashSet<usize> = indices[..half].iter().copied().collect();
        let mut train = TrainingData {
            goldens: data.goldens.clone(),
            records: Vec::new(),
        };
        let mut test = Vec::new();
        for (i, r) in data.records.iter().enumerate() {
            if train_set.contains(&i) {
                train.records.push(r.clone());
            } else {
                test.push(r.clone());
            }
        }

        let models = AppModels::fit(&train, 4, &ModelingOptions::default()).expect("fit");

        // Compare in log space, where the models operate and where the
        // paper-style diagonal plot is meaningful for heavy-tailed QoS.
        let mut qos_actual = Vec::new();
        let mut qos_pred = Vec::new();
        let mut sp_actual = Vec::new();
        let mut sp_pred = Vec::new();
        for r in &test {
            let Some(phase) = r.phase else { continue };
            let (p, _) = models
                .predict_pair(&r.input, phase, &r.config)
                .expect("prediction");
            qos_actual.push(r.qos.max(0.0).ln_1p());
            qos_pred.push(p.qos.max(0.0).ln_1p());
            sp_actual.push(r.speedup.max(1e-6).ln());
            sp_pred.push(p.speedup.max(1e-6).ln());
        }
        let qos_r2 = r2_score(&qos_actual, &qos_pred);
        let sp_r2 = r2_score(&sp_actual, &sp_pred);
        summary.add_row(vec![
            name.clone(),
            qos_actual.len().to_string(),
            format!("{qos_r2:.3}"),
            format!("{sp_r2:.3}"),
        ]);

        // A few scatter points (original units) for eyeballing.
        let mut scatter = TextTable::new(vec![
            "actual qos %".into(),
            "predicted qos %".into(),
            "actual speedup".into(),
            "predicted speedup".into(),
        ]);
        for r in test.iter().step_by((test.len() / 8).max(1)).take(8) {
            let Some(phase) = r.phase else { continue };
            let (p, _) = models
                .predict_pair(&r.input, phase, &r.config)
                .expect("prediction");
            scatter.add_row(vec![
                format!("{:.2}", r.qos),
                format!("{:.2}", p.qos),
                format!("{:.3}", r.speedup),
                format!("{:.3}", p.speedup),
            ]);
        }
        println!("--- {name} ---");
        println!("{}", scatter.render());
    }

    println!("{}", summary.render());
    println!(
        "Expected shape (paper): speedup models are accurate for every\n\
         application; QoS models are accurate for FFmpeg and PSO and show\n\
         higher (but still usable) error for LULESH, Bodytrack and CoMD."
    );
}
