//! The application contract the OPPROX core drives.

use crate::block::BlockDescriptor;
use crate::driver::Checkpoint;
use crate::error::RuntimeError;
use crate::log::CallContextLog;
use crate::qos::relative_distortion;
use crate::schedule::PhaseSchedule;
use serde::{Deserialize, Serialize};

/// A concrete setting of an application's input parameters, in the order
/// declared by [`AppMeta::input_param_names`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InputParams {
    values: Vec<f64>,
}

impl InputParams {
    /// Creates input parameters from raw values.
    pub fn new(values: Vec<f64>) -> Self {
        InputParams { values }
    }

    /// The raw parameter values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The value of parameter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the parameter list is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl From<Vec<f64>> for InputParams {
    fn from(values: Vec<f64>) -> Self {
        InputParams::new(values)
    }
}

/// Static metadata of an approximable application.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppMeta {
    /// Application name (e.g. `LULESH`).
    pub name: String,
    /// Names of the input parameters, in [`InputParams`] order.
    pub input_param_names: Vec<String>,
    /// The approximable blocks, in [`crate::config::LevelConfig`] order.
    pub blocks: Vec<BlockDescriptor>,
}

impl AppMeta {
    /// Number of approximable blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Validates that `input` matches the declared parameter count.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidInput`] on a count mismatch.
    pub fn validate_input(&self, input: &InputParams) -> Result<(), RuntimeError> {
        if input.len() != self.input_param_names.len() {
            return Err(RuntimeError::InvalidInput(format!(
                "{} expects {} parameters ({:?}), got {}",
                self.name,
                self.input_param_names.len(),
                self.input_param_names,
                input.len()
            )));
        }
        Ok(())
    }

    /// Validates a schedule's block arity and levels against this app.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::config::LevelConfig::validate`] errors for each phase config.
    pub fn validate_schedule(&self, schedule: &PhaseSchedule) -> Result<(), RuntimeError> {
        for cfg in schedule.configs() {
            cfg.validate(&self.blocks)?;
        }
        Ok(())
    }
}

/// The result of one (exact or approximate) application execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// The application's output vector (domain specific: final energies,
    /// particle positions, pixel values, …).
    pub output: Vec<f64>,
    /// Total abstract work units executed.
    pub work: u64,
    /// Number of outer-loop iterations performed.
    pub outer_iters: u64,
    /// The call-context log collected during the run.
    pub log: CallContextLog,
}

impl RunResult {
    /// Speedup of this run relative to `self` being the accurate run:
    /// `self.work / approx.work`.
    pub fn speedup_over(&self, approx: &RunResult) -> f64 {
        crate::counter::speedup(self.work, approx.work)
    }
}

/// An application with tunable approximable blocks — the unit OPPROX
/// optimizes.
///
/// Implementations must be **deterministic**: the same input and schedule
/// must produce the same output, work count, and log. All five benchmark
/// ports in `opprox-apps` satisfy this by seeding their internal RNGs from
/// the input parameters.
///
/// The `Sync` bound allows the training sampler to profile several
/// representative inputs in parallel; since `run` takes `&self`,
/// implementations are naturally stateless between runs.
pub trait ApproxApp: Sync {
    /// Static metadata: name, parameters, blocks.
    fn meta(&self) -> &AppMeta;

    /// Executes the application under the given schedule.
    ///
    /// # Errors
    ///
    /// Implementations reject malformed inputs and schedules with
    /// [`RuntimeError`].
    fn run(&self, input: &InputParams, schedule: &PhaseSchedule)
        -> Result<RunResult, RuntimeError>;

    /// QoS degradation (lower is better, 0 = perfect) of an approximate
    /// run against the exact run. The default is the paper's relative
    /// distortion; applications with a domain metric override this.
    fn qos_degradation(&self, exact: &RunResult, approx: &RunResult) -> f64 {
        relative_distortion(&exact.output, &approx.output)
    }

    /// Representative training inputs (paper Sec. 3.1, accuracy
    /// specification item 1).
    fn representative_inputs(&self) -> Vec<InputParams>;

    /// Convenience: runs the fully accurate execution.
    ///
    /// # Errors
    ///
    /// Propagates [`ApproxApp::run`] errors.
    fn golden(&self, input: &InputParams) -> Result<RunResult, RuntimeError> {
        let schedule = PhaseSchedule::accurate(self.meta().num_blocks());
        self.run(input, &schedule)
    }

    /// Runs the accurate execution of `input` far enough to checkpoint it
    /// after every iteration count in `at` it reaches, in ascending order
    /// (see [`crate::driver`]). Ports on the outer-loop driver forward to
    /// [`crate::driver::checkpoints`]; the default takes none, so every
    /// run of such an app starts from scratch.
    ///
    /// # Errors
    ///
    /// Rejects a malformed input with [`RuntimeError`].
    fn checkpoints(
        &self,
        input: &InputParams,
        at: &[u64],
    ) -> Result<Vec<Checkpoint>, RuntimeError> {
        let _ = (input, at);
        Ok(Vec::new())
    }

    /// Runs `schedule` on the checkpoint's input, resuming at the
    /// checkpoint where the schedule is accurate up to it. The result
    /// must equal `self.run(from.input(), schedule)` bit for bit,
    /// call-context log included. The default runs from scratch.
    ///
    /// # Errors
    ///
    /// Propagates [`ApproxApp::run`] errors.
    fn resume(
        &self,
        from: &Checkpoint,
        schedule: &PhaseSchedule,
    ) -> Result<RunResult, RuntimeError> {
        self.run(from.input(), schedule)
    }
}

/// Runs `execute` (one application execution, from scratch or resumed)
/// under a wall-clock budget, timing it and rejecting a result that
/// arrives late.
///
/// Applications run in-process and cooperatively, so the check is
/// post-hoc: the run is not interrupted mid-flight, but a slow execution
/// is discarded and reported as [`RuntimeError::Timeout`] instead of
/// being treated as a valid observation. The OPPROX evaluation engine and
/// the benchmark probe runner both route timed executions through here.
///
/// # Errors
///
/// [`RuntimeError::Timeout`] when the run exceeds `budget_ms`; otherwise
/// propagates the errors of `execute`.
pub fn run_with_timeout(
    budget_ms: u64,
    execute: impl FnOnce() -> Result<RunResult, RuntimeError>,
) -> Result<RunResult, RuntimeError> {
    let start = std::time::Instant::now();
    let result = execute()?;
    let elapsed_ms = start.elapsed().as_millis() as u64;
    if elapsed_ms > budget_ms {
        return Err(RuntimeError::Timeout {
            elapsed_ms,
            budget_ms,
        });
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::TechniqueKind;
    use crate::config::LevelConfig;

    fn meta() -> AppMeta {
        AppMeta {
            name: "toy".into(),
            input_param_names: vec!["n".into()],
            blocks: vec![BlockDescriptor::new(
                "kernel",
                TechniqueKind::LoopPerforation,
                3,
            )],
        }
    }

    /// A minimal app: sums 0..n with a perforable loop.
    struct Toy {
        meta: AppMeta,
    }

    impl ApproxApp for Toy {
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
            let mut log = CallContextLog::new();
            let mut sum = 0.0;
            let mut work = 0u64;
            for it in 0..4u64 {
                let level = schedule.level_at(it, 0);
                let mut w = 0u64;
                for i in crate::technique::perforated_indices(n, level) {
                    sum += i as f64;
                    w += 1;
                }
                work += w;
                log.record(it, 0, w);
            }
            Ok(RunResult {
                output: vec![sum],
                work,
                outer_iters: 4,
                log,
            })
        }

        fn representative_inputs(&self) -> Vec<InputParams> {
            vec![InputParams::new(vec![16.0])]
        }
    }

    #[test]
    fn golden_runs_accurately() {
        let app = Toy { meta: meta() };
        let input = InputParams::new(vec![10.0]);
        let g = app.golden(&input).unwrap();
        assert_eq!(g.output[0], 4.0 * 45.0);
        assert_eq!(g.work, 40);
        assert_eq!(g.log.outer_iterations(), 4);
    }

    #[test]
    fn approximation_reduces_work_and_degrades_qos() {
        let app = Toy { meta: meta() };
        let input = InputParams::new(vec![10.0]);
        let exact = app.golden(&input).unwrap();
        let approx = app
            .run(&input, &PhaseSchedule::constant(LevelConfig::new(vec![3])))
            .unwrap();
        assert!(approx.work < exact.work);
        assert!(exact.speedup_over(&approx) > 1.0);
        assert!(app.qos_degradation(&exact, &approx) > 0.0);
    }

    #[test]
    fn input_validation_rejects_wrong_arity() {
        let app = Toy { meta: meta() };
        let bad = InputParams::new(vec![1.0, 2.0]);
        assert!(app.golden(&bad).is_err());
    }

    #[test]
    fn schedule_validation_rejects_out_of_range_levels() {
        let app = Toy { meta: meta() };
        let input = InputParams::new(vec![10.0]);
        let bad = PhaseSchedule::constant(LevelConfig::new(vec![9]));
        assert!(app.run(&input, &bad).is_err());
    }

    #[test]
    fn run_with_timeout_passes_fast_runs_and_cuts_slow_ones() {
        let app = Toy { meta: meta() };
        let input = InputParams::new(vec![10.0]);
        let schedule = PhaseSchedule::accurate(1);
        // A generous budget passes the result through untouched.
        let ok = run_with_timeout(60_000, || app.run(&input, &schedule)).unwrap();
        assert_eq!(ok.output[0], 4.0 * 45.0);

        /// Wraps Toy with an artificial stall to trip the budget.
        struct Slow {
            inner: Toy,
        }
        impl ApproxApp for Slow {
            fn meta(&self) -> &AppMeta {
                self.inner.meta()
            }
            fn run(
                &self,
                input: &InputParams,
                schedule: &PhaseSchedule,
            ) -> Result<RunResult, RuntimeError> {
                std::thread::sleep(std::time::Duration::from_millis(25));
                self.inner.run(input, schedule)
            }
            fn representative_inputs(&self) -> Vec<InputParams> {
                self.inner.representative_inputs()
            }
        }
        let slow = Slow {
            inner: Toy { meta: meta() },
        };
        match run_with_timeout(1, || slow.run(&input, &schedule)) {
            Err(RuntimeError::Timeout {
                elapsed_ms,
                budget_ms,
            }) => {
                assert!(elapsed_ms >= budget_ms);
                assert_eq!(budget_ms, 1);
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
    }

    #[test]
    fn input_params_accessors() {
        let p = InputParams::from(vec![1.0, 2.0]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.get(1), 2.0);
        assert_eq!(p.values(), &[1.0, 2.0]);
    }
}
