//! Figure 14 — the headline result: OPPROX versus the phase-agnostic
//! exhaustive-search oracle of prior work, at three QoS budgets.
//!
//! For every application the oracle exhaustively executes each
//! whole-run configuration and keeps the fastest one within the budget.
//! OPPROX trains its phase-aware models once and then solves Algorithm 2
//! with bounded empirical validation. Budgets are 5 %, 10 %, and 20 % QoS
//! degradation; FFmpeg uses PSNR targets 30/20/10 dB like the paper.

use opprox_approx_rt::qos::PSNR_CAP;
use opprox_approx_rt::InputParams;
use opprox_bench::TextTable;
use opprox_core::oracle::phase_agnostic_oracle;
use opprox_core::pipeline::{Opprox, TrainingOptions};
use opprox_core::report::{percent_less_work, ComparisonRow};
use opprox_core::request::OptimizeRequest;
use opprox_core::sampling::SamplingPlan;
use opprox_core::AccuracySpec;

fn main() {
    println!("Figure 14 — OPPROX vs phase-agnostic exhaustive oracle");
    println!("(budgets: small = 5%, medium = 10%, large = 20% QoS degradation;");
    println!(" FFmpeg budgets are PSNR targets 30/20/10 dB)\n");

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

    let mut rows: Vec<ComparisonRow> = Vec::new();
    for app in opprox_apps::registry::all_apps() {
        let name = app.meta().name.clone();
        let opts = TrainingOptions {
            num_phases: Some(4),
            sampling: SamplingPlan {
                num_phases: 4,
                sparse_samples: 36,
                seed: 11,
            },
            ..TrainingOptions::default()
        };
        let trained = Opprox::train(app.as_ref(), &opts).expect("training");
        let input = InputParams::new(
            prod_inputs
                .iter()
                .find(|(n, _)| *n == name)
                .expect("production input")
                .1
                .clone(),
        );
        for nominal in [5.0, 10.0, 20.0] {
            // FFmpeg: PSNR targets 30/20/10 dB ⇔ degradation budgets.
            let budget = if name == "FFmpeg" {
                let target_psnr = match nominal as u32 {
                    5 => 30.0,
                    10 => 20.0,
                    _ => 10.0,
                };
                PSNR_CAP - target_psnr
            } else {
                nominal
            };
            let spec = AccuracySpec::new(budget);
            let outcome = OptimizeRequest::new(input.clone(), spec)
                .validate_on(app.as_ref())
                .run(&trained)
                .expect("validated optimization")
                .measured
                .expect("validated requests measure");
            let oracle = phase_agnostic_oracle(app.as_ref(), &input, &spec).expect("oracle");
            rows.push(ComparisonRow {
                app: name.clone(),
                budget: nominal,
                opprox_speedup: outcome.speedup,
                opprox_qos: outcome.qos,
                oracle_speedup: oracle.speedup,
                oracle_qos: oracle.qos,
            });
        }
    }

    let mut table = TextTable::new(vec![
        "app".into(),
        "budget".into(),
        "OPPROX % less work".into(),
        "OPPROX qos".into(),
        "oracle % less work".into(),
        "oracle qos".into(),
    ]);
    for r in &rows {
        table.add_row(vec![
            r.app.clone(),
            format!("{:.0}%", r.budget),
            format!("{:.1}", r.opprox_percent()),
            format!("{:.2}", r.opprox_qos),
            format!("{:.1}", r.oracle_percent()),
            format!("{:.2}", r.oracle_qos),
        ]);
    }
    println!("{}", table.render());

    let mut avg = TextTable::new(vec![
        "budget".into(),
        "OPPROX avg % less work".into(),
        "oracle avg % less work".into(),
    ]);
    for budget in [5.0, 10.0, 20.0] {
        let sel: Vec<&ComparisonRow> = rows.iter().filter(|r| r.budget == budget).collect();
        let o: f64 = sel
            .iter()
            .map(|r| percent_less_work(r.opprox_speedup))
            .sum::<f64>()
            / sel.len() as f64;
        let b: f64 = sel
            .iter()
            .map(|r| percent_less_work(r.oracle_speedup))
            .sum::<f64>()
            / sel.len() as f64;
        avg.add_row(vec![
            format!("{budget:.0}%"),
            format!("{o:.1}"),
            format!("{b:.1}"),
        ]);
    }
    println!("{}", avg.render());
    println!(
        "Expected shape (paper): OPPROX beats the phase-agnostic oracle on\n\
         average at the small budget (paper: 14% vs 2%) because it can place\n\
         approximation in cheap late phases; at the large budget the two\n\
         are comparable (paper: 42% vs 37%), with the oracle ahead on some\n\
         applications (FFmpeg/Bodytrack in the paper)."
    );
}
