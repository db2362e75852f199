//! Bringing your own application: implement [`ApproxApp`] for a custom
//! iterative computation and let OPPROX tune it.
//!
//! The example application is a Jacobi solver for a 1D Poisson problem —
//! an iterative numerical kernel with the classic outer-loop pattern.
//! Its single approximable block perforates the sweep over grid points.
//!
//! ```bash
//! cargo run --release --example custom_app
//! ```

use opprox::approx_rt::app::AppMeta;
use opprox::approx_rt::block::{BlockDescriptor, TechniqueKind};
use opprox::approx_rt::log::CallContextLog;
use opprox::approx_rt::technique::perforated_indices_offset;
use opprox::approx_rt::{ApproxApp, InputParams, PhaseSchedule, RunResult, RuntimeError};
use opprox::core::pipeline::{Opprox, TrainingOptions};
use opprox::core::report::percent_less_work;
use opprox::core::request::OptimizeRequest;
use opprox::core::sampling::SamplingPlan;
use opprox::core::AccuracySpec;

/// A Jacobi solver for `−u'' = f` on a 1D grid with zero boundaries.
struct JacobiSolver {
    meta: AppMeta,
}

impl JacobiSolver {
    fn new() -> Self {
        JacobiSolver {
            meta: AppMeta {
                name: "Jacobi".into(),
                input_param_names: vec!["grid_points".into(), "sweeps".into()],
                blocks: vec![BlockDescriptor::new(
                    "jacobi_sweep",
                    TechniqueKind::LoopPerforation,
                    4,
                )],
            },
        }
    }
}

impl ApproxApp for JacobiSolver {
    fn meta(&self) -> &AppMeta {
        &self.meta
    }

    fn run(
        &self,
        input: &InputParams,
        schedule: &PhaseSchedule,
    ) -> Result<RunResult, RuntimeError> {
        self.meta.validate_input(input)?;
        self.meta.validate_schedule(schedule)?;
        let n = input.get(0) as usize;
        let sweeps = input.get(1) as u64;
        if !(8..=4096).contains(&n) || !(1..=10_000).contains(&sweeps) {
            return Err(RuntimeError::InvalidInput(
                "grid_points must be 8..=4096 and sweeps 1..=10000".into(),
            ));
        }

        // Right-hand side: a couple of point sources.
        let h2 = 1.0 / ((n + 1) as f64 * (n + 1) as f64);
        let mut f = vec![1.0; n];
        f[n / 3] = 50.0;
        f[2 * n / 3] = -30.0;

        let mut u = vec![0.0f64; n];
        let mut next = vec![0.0f64; n];
        let mut log = CallContextLog::new();
        let mut work = 0u64;

        for iter in 0..sweeps {
            let level = schedule.level_at(iter, 0);
            let mut w = 0u64;
            next.copy_from_slice(&u);
            for i in perforated_indices_offset(n, level, iter as usize) {
                let left = if i == 0 { 0.0 } else { u[i - 1] };
                let right = if i + 1 == n { 0.0 } else { u[i + 1] };
                next[i] = 0.5 * (left + right + h2 * f[i]);
                w += 5;
            }
            std::mem::swap(&mut u, &mut next);
            work += w + 1;
            log.record(iter, 0, w);
        }

        Ok(RunResult {
            output: u,
            work,
            outer_iters: sweeps,
            log,
        })
    }

    fn representative_inputs(&self) -> Vec<InputParams> {
        vec![
            InputParams::new(vec![96.0, 300.0]),
            InputParams::new(vec![128.0, 300.0]),
            InputParams::new(vec![96.0, 450.0]),
        ]
    }
}

fn main() {
    let app = JacobiSolver::new();
    println!("training OPPROX on a custom Jacobi solver …");
    let opts = TrainingOptions {
        num_phases: Some(4),
        sampling: SamplingPlan {
            num_phases: 4,
            sparse_samples: 12,
            seed: 0xCAFE,
        },
        ..TrainingOptions::default()
    };
    let trained = Opprox::train(&app, &opts).expect("training");

    let input = InputParams::new(vec![112.0, 350.0]);
    for budget in [1.0, 5.0] {
        let spec = AccuracySpec::new(budget);
        let result = OptimizeRequest::new(input.clone(), spec)
            .validate_on(&app)
            .run(&trained)
            .expect("optimization");
        let outcome = result.measured.expect("validated requests measure");
        println!(
            "budget {budget:>4.1}%: {:.1}% less work at {:.2}% QoS degradation — levels {:?}",
            percent_less_work(outcome.speedup),
            outcome.qos,
            result
                .plan
                .schedule
                .configs()
                .iter()
                .map(|c| c.levels().to_vec())
                .collect::<Vec<_>>()
        );
        assert!(outcome.qos <= budget);
    }
    println!(
        "\nJacobi is self-correcting: early perforated sweeps are repaired\n\
         by later accurate ones, so OPPROX concentrates approximation in\n\
         the *early* phases here — phase-awareness adapts per application."
    );
}
