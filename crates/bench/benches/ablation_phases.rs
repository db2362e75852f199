//! Ablation: how much does phase granularity buy? OPPROX's validated
//! optimization at 1, 2, 4, and 8 phases, at a 10% budget.
//!
//! One phase is the "phase-agnostic but modeled" configuration — the
//! fairest modeled baseline — so the delta from 1 → 4 phases isolates
//! the paper's core contribution.

use opprox_approx_rt::InputParams;
use opprox_bench::TextTable;
use opprox_core::pipeline::{Opprox, TrainingOptions};
use opprox_core::report::percent_less_work;
use opprox_core::request::OptimizeRequest;
use opprox_core::sampling::SamplingPlan;
use opprox_core::AccuracySpec;

fn main() {
    println!("Ablation — benefit vs phase granularity (10% budget)\n");

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
        "1 phase %".into(),
        "2 phases %".into(),
        "4 phases %".into(),
        "8 phases %".into(),
    ]);

    for app in opprox_apps::registry::all_apps() {
        let name = app.meta().name.clone();
        let input = InputParams::new(
            prod_inputs
                .iter()
                .find(|(n, _)| *n == name)
                .expect("input")
                .1
                .clone(),
        );
        let budget = if name == "FFmpeg" { 40.0 } else { 10.0 };
        let mut cells = vec![name.clone()];
        for phases in [1usize, 2, 4, 8] {
            let opts = TrainingOptions {
                num_phases: Some(phases),
                sampling: SamplingPlan {
                    num_phases: phases,
                    sparse_samples: 30,
                    seed: 0xAB2,
                },
                ..TrainingOptions::default()
            };
            let trained = Opprox::train(app.as_ref(), &opts).expect("training");
            let outcome = OptimizeRequest::new(input.clone(), AccuracySpec::new(budget))
                .validate_on(app.as_ref())
                .run(&trained)
                .expect("optimization")
                .measured
                .expect("validated requests measure");
            assert!(
                outcome.qos <= budget,
                "{name} over budget at {phases} phases"
            );
            cells.push(format!("{:.1}", percent_less_work(outcome.speedup)));
        }
        table.add_row(cells);
    }
    println!("{}", table.render());
    println!(
        "Interpretation: moving from 1 phase (phase-agnostic, modeled) to\n\
         2–4 phases unlocks the cheap late-phase approximations; beyond the\n\
         application's natural granularity the benefit flattens while the\n\
         training cost keeps growing (Table 2)."
    );
}
