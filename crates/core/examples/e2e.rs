use opprox_approx_rt::InputParams;
use opprox_apps::registry::all_apps;
use opprox_core::oracle::phase_agnostic_oracle;
use opprox_core::pipeline::{Opprox, TrainingOptions};
use opprox_core::report::percent_less_work;
use opprox_core::request::OptimizeRequest;
use opprox_core::sampling::SamplingPlan;
use opprox_core::AccuracySpec;

fn main() {
    let prod_inputs: Vec<(&str, Vec<f64>)> = vec![
        ("LULESH", vec![64.0, 2.0]),
        ("FFmpeg", vec![16.0, 5.0, 600.0, 0.0]),
        ("Bodytrack", vec![3.0, 150.0, 30.0]),
        ("PSO", vec![20.0, 4.0]),
        ("CoMD", vec![3.0, 1.2, 150.0]),
    ];
    for app in all_apps() {
        let name = app.meta().name.clone();
        let t0 = std::time::Instant::now();
        let opts = TrainingOptions {
            num_phases: Some(4),
            sampling: SamplingPlan {
                num_phases: 4,
                sparse_samples: 36,
                seed: 11,
            },
            ..TrainingOptions::default()
        };
        let trained = match Opprox::train(app.as_ref(), &opts) {
            Ok(t) => t,
            Err(e) => {
                println!("{name}: TRAIN FAILED: {e}");
                continue;
            }
        };
        let train_time = t0.elapsed();
        let input = InputParams::new(
            prod_inputs
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap()
                .1
                .clone(),
        );
        for budget in [5.0, 10.0, 20.0] {
            // FFmpeg budgets are PSNR-degradation: psnr targets 30/20/10 -> deg 30/40/50
            let b = if name == "FFmpeg" {
                match budget as u32 {
                    5 => 30.0,
                    10 => 40.0,
                    _ => 50.0,
                }
            } else {
                budget
            };
            let spec = AccuracySpec::new(b);
            let result = OptimizeRequest::new(input.clone(), spec)
                .validate_on(app.as_ref())
                .run(&trained)
                .unwrap();
            let (plan, outcome) = (result.plan, result.measured.unwrap());
            let orc = phase_agnostic_oracle(app.as_ref(), &input, &spec).unwrap();
            println!("{name:10} budget {b:5.1}: OPPROX {:6.1}% less work (qos {:7.2}, pred qos {:6.2}) | oracle {:6.1}% (qos {:7.2})",
                percent_less_work(outcome.speedup), outcome.qos, plan.predicted_qos,
                percent_less_work(orc.speedup), orc.qos);
        }
        println!("  ({name} train {train_time:?})");
    }
}
