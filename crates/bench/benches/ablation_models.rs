//! Ablation: OPPROX's polynomial-regression pipeline (MIC filtering,
//! degree escalation, sub-model splitting) versus an M5-style model tree
//! — the model family used by Capri, the paper's closest related system.
//!
//! Both model families are fitted on the same per-app training half and
//! scored on the held-out half, for the QoS-degradation target in log
//! space (where both operate best on heavy-tailed data).

use opprox_apps::registry::all_apps;
use opprox_bench::TextTable;
use opprox_core::sampling::{collect_training_data, SamplingPlan};
use opprox_linalg::stats::r2_score;
use opprox_ml::m5::ModelTree;
use opprox_ml::model_select::{AutoFitConfig, TargetModel};
use opprox_ml::Dataset;

fn main() {
    println!("Ablation — polynomial pipeline vs M5 model tree (QoS target)\n");
    let mut table = TextTable::new(vec![
        "app".into(),
        "test rows".into(),
        "poly R²".into(),
        "m5 R²".into(),
        "m5 leaves".into(),
    ]);

    for app in all_apps() {
        let name = app.meta().name.clone();
        let plan = SamplingPlan {
            num_phases: 4,
            sparse_samples: 30,
            seed: 0xAB1,
        };
        let data = collect_training_data(app.as_ref(), &app.representative_inputs(), &plan)
            .expect("training data");

        // Feature row: input params + levels + phase index; target:
        // ln(1 + qos). Alternate rows into train/test halves.
        let mut train_x = Vec::new();
        let mut train_y = Vec::new();
        let mut test_x = Vec::new();
        let mut test_y = Vec::new();
        for (i, r) in data.records.iter().enumerate() {
            let Some(phase) = r.phase else { continue };
            let mut row = r.input.values().to_vec();
            row.extend(r.config.levels().iter().map(|&l| l as f64));
            row.push(phase as f64);
            let y = r.qos.max(0.0).ln_1p();
            if i % 2 == 0 {
                train_x.push(row);
                train_y.push(y);
            } else {
                test_x.push(row);
                test_y.push(y);
            }
        }

        // Polynomial pipeline.
        let names: Vec<String> = (0..train_x[0].len()).map(|i| format!("f{i}")).collect();
        let mut ds = Dataset::new(names);
        for (row, &y) in train_x.iter().zip(train_y.iter()) {
            ds.push(row.clone(), y).expect("push");
        }
        let poly = TargetModel::fit(
            &ds,
            &AutoFitConfig {
                max_degree: 4,
                ..AutoFitConfig::default()
            },
        )
        .expect("poly fit");
        let poly_preds: Vec<f64> = test_x
            .iter()
            .map(|row| poly.predict(row).expect("poly predict"))
            .collect();

        // M5 model tree.
        let m5 = ModelTree::fit(&train_x, &train_y).expect("m5 fit");
        let m5_preds = m5.predict(&test_x).expect("m5 predict");

        table.add_row(vec![
            name,
            test_y.len().to_string(),
            format!("{:.3}", r2_score(&test_y, &poly_preds)),
            format!("{:.3}", r2_score(&test_y, &m5_preds)),
            m5.num_leaves().to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Interpretation: neither family dominates — trees win where the\n\
         response is regime-like (Bodytrack, CoMD, PSO), polynomials win\n\
         where it is smooth (FFmpeg), and both struggle on LULESH's\n\
         stability cliff. Both are fitted here as single global models\n\
         over (params, levels, phase); OPPROX's per-phase two-step\n\
         pipeline — its actual contribution — is orthogonal to the model\n\
         family, as the paper argues in comparison with Capri."
    );
}
