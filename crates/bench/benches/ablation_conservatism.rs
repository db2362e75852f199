//! Ablation: the three optimizer modes.
//!
//! * **Band** — Algorithm 2 constrained on the conservative (upper-band)
//!   QoS predictions, the paper's default.
//! * **Point** — the same search constrained on point predictions.
//! * **Validated** — the bounded candidate-set search with real-execution
//!   vetting that the pipeline uses by default.
//!
//! The measured speedup AND whether the measured QoS stayed within budget
//! are reported for each — showing why validation is required when model
//! error is non-negligible.

use opprox_approx_rt::InputParams;
use opprox_bench::TextTable;
use opprox_core::optimizer::{optimize_traced, Conservatism};
use opprox_core::pipeline::{Opprox, TrainingOptions};
use opprox_core::report::percent_less_work;
use opprox_core::request::OptimizeRequest;
use opprox_core::sampling::SamplingPlan;
use opprox_core::AccuracySpec;

fn main() {
    println!("Ablation — optimizer conservatism modes (10% budget)\n");

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
        "band % (in budget?)".into(),
        "point % (in budget?)".into(),
        "validated % (in budget?)".into(),
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
        let spec = AccuracySpec::new(budget);
        let opts = TrainingOptions {
            num_phases: Some(4),
            sampling: SamplingPlan {
                num_phases: 4,
                sparse_samples: 30,
                whole_run_samples: 0,
                seed: 0xAB3,
            },
            ..TrainingOptions::default()
        };
        let trained = Opprox::train(app.as_ref(), &opts).expect("training");
        let expected = trained.estimate_golden_iters(&input).expect("estimate");

        let mut cells = vec![name.clone()];
        for mode in [Conservatism::Band, Conservatism::Point] {
            let plan = optimize_traced(
                trained.models(),
                &app.meta().blocks,
                &input,
                &spec,
                expected,
                mode,
                None,
            )
            .expect("optimize");
            let outcome = trained
                .evaluate(app.as_ref(), &input, &plan)
                .expect("evaluate");
            cells.push(format!(
                "{:+.1} ({})",
                percent_less_work(outcome.speedup),
                if outcome.qos <= budget { "yes" } else { "NO" }
            ));
        }
        let outcome = OptimizeRequest::new(input.clone(), spec)
            .validate_on(app.as_ref())
            .run(&trained)
            .expect("validated")
            .measured
            .expect("validated requests measure");
        cells.push(format!(
            "{:+.1} ({})",
            percent_less_work(outcome.speedup),
            if outcome.qos <= budget { "yes" } else { "NO" }
        ));
        table.add_row(cells);
    }
    println!("{}", table.render());
    println!(
        "Interpretation: band-constrained search is safe but often finds\n\
         nothing; point-constrained search finds more but can bust the\n\
         budget (or even slow the app down) where model error is large;\n\
         validation keeps the aggression while restoring the guarantee."
    );
}
