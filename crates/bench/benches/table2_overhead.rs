//! Table 2: OPPROX's training and optimization times as the phase
//! granularity varies over 1, 2, 4, and 8 phases.
//!
//! Training (profiling + model fitting) is offline and done once;
//! optimization happens before scheduling each production job. Finer
//! granularity costs more in both, which is the trade-off Algorithm 1
//! balances.

use opprox_approx_rt::InputParams;
use opprox_bench::TextTable;
use opprox_core::pipeline::{Opprox, TrainingOptions};
use opprox_core::request::OptimizeRequest;
use opprox_core::sampling::SamplingPlan;
use opprox_core::AccuracySpec;
use std::time::Instant;

fn main() {
    println!("Table 2 — training and optimization time vs phase granularity\n");

    let prod_inputs: Vec<(&str, Vec<f64>)> = vec![
        ("LULESH", vec![64.0, 2.0]),
        ("FFmpeg", vec![16.0, 5.0, 600.0, 0.0]),
        ("Bodytrack", vec![3.0, 150.0, 30.0]),
        ("PSO", vec![20.0, 4.0]),
        ("CoMD", vec![3.0, 1.2, 150.0]),
        ("PageRank", vec![64.0, 4.0, 100.0]),
        ("StreamAgg", vec![96.0, 50.0]),
        ("Stencil", vec![20.0, 50.0]),
    ];

    let mut table = TextTable::new(vec![
        "app".into(),
        "train 1p (s)".into(),
        "train 2p (s)".into(),
        "train 4p (s)".into(),
        "train 8p (s)".into(),
        "opt 1p (ms)".into(),
        "opt 2p (ms)".into(),
        "opt 4p (ms)".into(),
        "opt 8p (ms)".into(),
    ]);

    for app in opprox_apps::registry::all_apps() {
        let name = app.meta().name.clone();
        let input = InputParams::new(
            prod_inputs
                .iter()
                .find(|(n, _)| *n == name)
                .expect("production input")
                .1
                .clone(),
        );
        let mut train_cells = Vec::new();
        let mut opt_cells = Vec::new();
        for phases in [1usize, 2, 4, 8] {
            let opts = TrainingOptions {
                num_phases: Some(phases),
                sampling: SamplingPlan {
                    num_phases: phases,
                    sparse_samples: 24,
                    seed: 0x7AB2,
                },
                ..TrainingOptions::default()
            };
            let t0 = Instant::now();
            let trained = Opprox::train(app.as_ref(), &opts).expect("training");
            train_cells.push(format!("{:.2}", t0.elapsed().as_secs_f64()));
            let t0 = Instant::now();
            let _ = OptimizeRequest::new(input.clone(), AccuracySpec::new(10.0))
                .run(&trained)
                .expect("optimization");
            opt_cells.push(format!("{:.1}", t0.elapsed().as_secs_f64() * 1e3));
        }
        let mut row = vec![name];
        row.extend(train_cells);
        row.extend(opt_cells);
        table.add_row(row);
    }
    println!("{}", table.render());
    println!(
        "Expected shape (paper Table 2): training time grows steeply with\n\
         the phase count (more per-phase profiling and models) and the\n\
         optimization time grows roughly linearly in the phase count;\n\
         both are negligible next to long production runs."
    );
}
