//! Training-data collection (paper Sec. 3.3).
//!
//! OPPROX profiles the instrumented application with different level
//! combinations and representative inputs. Per phase it collects
//!
//! * **local sweeps** — for each approximable block, every nonzero level
//!   with all other blocks accurate (exhaustive per-block coverage for
//!   the local models), and
//! * **random sparse samples** — level combinations drawn over all blocks
//!   simultaneously, capturing interactions.
//!
//! Every run is reduced to a [`SampleRecord`] holding the configuration,
//! the phase it was applied in, and the measured speedup, QoS
//! degradation, and outer-loop iteration count.

use crate::error::OpproxError;
use crate::evaluator::EvalEngine;
use crate::fault::{degradable_kind, DroppedSample};
use opprox_approx_rt::config::{local_sweep, sample_configs};
use opprox_approx_rt::{ApproxApp, InputParams, LevelConfig, PhaseSchedule};
use serde::{Deserialize, Serialize};

/// One profiled execution, reduced to its modeling-relevant outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleRecord {
    /// The input parameters of the run.
    pub input: InputParams,
    /// The phase the approximation was applied to (`None` for a
    /// whole-run, phase-agnostic sample).
    pub phase: Option<usize>,
    /// Number of phases the execution was divided into.
    pub num_phases: usize,
    /// The level configuration applied in the approximated phase(s).
    pub config: LevelConfig,
    /// Measured speedup over the accurate run (work ratio).
    pub speedup: f64,
    /// Measured QoS degradation (application metric; lower is better).
    pub qos: f64,
    /// Measured outer-loop iteration count.
    pub outer_iters: u64,
    /// Control-flow class signature of the run.
    pub control_flow: Vec<usize>,
}

/// Golden (accurate) run facts for one input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenRecord {
    /// The input parameters.
    pub input: InputParams,
    /// Work units of the accurate run.
    pub work: u64,
    /// Outer-loop iterations of the accurate run.
    pub outer_iters: u64,
    /// Control-flow signature of the accurate run.
    pub control_flow: Vec<usize>,
}

/// The full training set for one application.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainingData {
    /// Per-input golden facts.
    pub goldens: Vec<GoldenRecord>,
    /// All profiled samples.
    pub records: Vec<SampleRecord>,
}

impl TrainingData {
    /// Records for a specific phase (across inputs).
    pub fn phase_records(&self, phase: usize) -> Vec<&SampleRecord> {
        self.records
            .iter()
            .filter(|r| r.phase == Some(phase))
            .collect()
    }

    /// The golden record for an input, if profiled.
    pub fn golden_for(&self, input: &InputParams) -> Option<&GoldenRecord> {
        self.goldens.iter().find(|g| &g.input == input)
    }

    /// All distinct control-flow signatures seen, in first-seen order.
    pub fn control_flow_classes(&self) -> Vec<Vec<usize>> {
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for g in &self.goldens {
            if !classes.contains(&g.control_flow) {
                classes.push(g.control_flow.clone());
            }
        }
        classes
    }
}

/// How much training data to collect.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplingPlan {
    /// Number of execution phases.
    pub num_phases: usize,
    /// Random sparse multi-block samples per (input, phase).
    pub sparse_samples: usize,
    /// Whether to also collect whole-run (phase-agnostic) samples, used
    /// by Fig. 9/10's "All" column and by baseline comparisons.
    pub whole_run_samples: usize,
    /// RNG seed for the sparse sampling.
    pub seed: u64,
}

impl Default for SamplingPlan {
    fn default() -> Self {
        SamplingPlan {
            num_phases: 4,
            sparse_samples: 36,
            whole_run_samples: 0,
            seed: 0xC60,
        }
    }
}

/// Profiles `app` on the given inputs according to the plan.
///
/// # Errors
///
/// Propagates application runtime errors; returns
/// [`OpproxError::InsufficientData`] when `inputs` is empty.
pub fn collect_training_data(
    app: &dyn ApproxApp,
    inputs: &[InputParams],
    plan: &SamplingPlan,
) -> Result<TrainingData, OpproxError> {
    collect_training_data_with(&EvalEngine::default(), app, inputs, plan)
}

/// [`collect_training_data`] on a shared [`EvalEngine`].
///
/// All profiling runs — goldens, per-phase sweeps, sparse samples, and
/// whole-run samples — are submitted as engine batches and execute on the
/// work-stealing pool (the analogue of the paper's cluster-parallel
/// profiling jobs). Results are assembled in submission order, so the
/// training data is **bit-identical** to a sequential collection for any
/// thread count.
///
/// # Errors
///
/// Propagates application runtime errors; returns
/// [`OpproxError::InsufficientData`] when `inputs` is empty or when
/// degraded-mode collection dropped every sample.
///
/// # Degraded mode
///
/// Evaluation failures (exhausted retries, quarantined keys — see
/// [`crate::fault`]) do not abort the collection. A failed golden drops
/// that input wholesale (every QoS label depends on it); a failed sample
/// drops only that row. Every drop is recorded in the engine's
/// [`crate::fault::RobustnessReport`], and the models are simply fitted
/// on the surviving rows. Fatal errors (rejected inputs or schedules)
/// still abort.
pub fn collect_training_data_with(
    engine: &EvalEngine,
    app: &dyn ApproxApp,
    inputs: &[InputParams],
    plan: &SamplingPlan,
) -> Result<TrainingData, OpproxError> {
    if inputs.is_empty() {
        return Err(OpproxError::InsufficientData(
            "no representative inputs provided".into(),
        ));
    }
    engine.stage("profiling", || {
        let blocks = &app.meta().blocks;

        // Golden runs for every input, as one parallel batch. A failed
        // golden drops the whole input.
        let accurate = PhaseSchedule::accurate(blocks.len());
        let golden_jobs: Vec<(InputParams, PhaseSchedule)> = inputs
            .iter()
            .map(|input| (input.clone(), accurate.clone()))
            .collect();
        let mut live_inputs: Vec<&InputParams> = Vec::with_capacity(inputs.len());
        let mut goldens = Vec::with_capacity(inputs.len());
        let golden_outcomes = engine.telemetry().span("profiling/goldens", || {
            engine.run_batch_resilient(app, &golden_jobs)
        });
        for (input, outcome) in inputs.iter().zip(golden_outcomes) {
            match outcome {
                Ok(golden) => {
                    live_inputs.push(input);
                    goldens.push(golden);
                }
                Err(e) => match degradable_kind(&e) {
                    Some(kind) => engine.faults().record_drop(DroppedSample {
                        phase: None,
                        levels: vec![0; blocks.len()],
                        golden: true,
                        kind,
                    }),
                    None => return Err(e),
                },
            }
        }
        if live_inputs.is_empty() {
            return Err(OpproxError::InsufficientData(
                "every representative input's golden run failed".into(),
            ));
        }

        // Per-phase: exhaustive local sweeps + sparse multi-block samples.
        let mut configs: Vec<LevelConfig> = Vec::new();
        for b in 0..blocks.len() {
            configs.extend(local_sweep(blocks, b));
        }
        configs.extend(sample_configs(blocks, plan.sparse_samples, plan.seed));
        let whole = sample_configs(blocks, plan.whole_run_samples, plan.seed ^ 0xA11);

        // One flat batch covering every (input, phase, config) sample plus
        // the whole-run samples, in the order the records are emitted.
        let mut jobs: Vec<(InputParams, PhaseSchedule)> = Vec::new();
        // The sample each job produces: (live input index, phase, config).
        let mut labels: Vec<(usize, Option<usize>, LevelConfig)> = Vec::new();
        for (ii, input) in live_inputs.iter().enumerate() {
            let golden_iters = goldens[ii].outer_iters;
            for phase in 0..plan.num_phases {
                engine.telemetry().event(
                    "profiling.sweep",
                    &[
                        ("input", ii as f64),
                        ("phase", phase as f64),
                        ("jobs", configs.len() as f64),
                    ],
                );
                for config in &configs {
                    let schedule = PhaseSchedule::single_phase(
                        config.clone(),
                        phase,
                        plan.num_phases,
                        golden_iters,
                    )?;
                    jobs.push(((*input).clone(), schedule));
                    labels.push((ii, Some(phase), config.clone()));
                }
            }
            for config in &whole {
                jobs.push(((*input).clone(), PhaseSchedule::constant(config.clone())));
                labels.push((ii, None, config.clone()));
            }
        }
        engine
            .telemetry()
            .add("sampling.requested", labels.len() as u64);
        let results = engine.telemetry().span("profiling/samples", || {
            engine.run_batch_resilient(app, &jobs)
        });

        let mut data = TrainingData::default();
        for (input, golden) in live_inputs.iter().zip(goldens.iter()) {
            data.goldens.push(GoldenRecord {
                input: (*input).clone(),
                work: golden.work,
                outer_iters: golden.outer_iters,
                control_flow: golden.log.control_flow_signature(),
            });
        }
        for ((ii, phase, config), outcome) in labels.into_iter().zip(results) {
            let golden = &goldens[ii];
            let result = match outcome {
                Ok(result) => result,
                Err(e) => match degradable_kind(&e) {
                    // Degraded mode: drop the row, keep collecting.
                    Some(kind) => {
                        engine.faults().record_drop(DroppedSample {
                            phase,
                            levels: config.levels().to_vec(),
                            golden: false,
                            kind,
                        });
                        continue;
                    }
                    None => return Err(e),
                },
            };
            data.records.push(SampleRecord {
                input: live_inputs[ii].clone(),
                phase,
                num_phases: if phase.is_some() { plan.num_phases } else { 1 },
                config,
                speedup: golden.speedup_over(&result),
                qos: app.qos_degradation(golden, &result),
                outer_iters: result.outer_iters,
                control_flow: result.log.control_flow_signature(),
            });
        }
        if data.records.is_empty() {
            return Err(OpproxError::InsufficientData(
                "every training sample was dropped by degraded-mode collection".into(),
            ));
        }
        // Per-phase measured speedup ceilings: an order-independent fact
        // the A016 lint compares against the optimizer's predictions.
        for phase in 0..plan.num_phases {
            let max_speedup = data
                .records
                .iter()
                .filter(|r| r.phase == Some(phase))
                .map(|r| r.speedup)
                .fold(0.0, f64::max);
            if max_speedup > 0.0 {
                engine
                    .telemetry()
                    .set_gauge(&format!("profile.phase[{phase}].max_speedup"), max_speedup);
            }
        }
        Ok(data)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use opprox_apps::Pso;

    fn small_plan() -> SamplingPlan {
        SamplingPlan {
            num_phases: 2,
            sparse_samples: 3,
            whole_run_samples: 2,
            seed: 1,
        }
    }

    #[test]
    fn collects_goldens_locals_sparse_and_whole_run() {
        let app = Pso::new();
        let inputs = vec![InputParams::new(vec![16.0, 3.0])];
        let data = collect_training_data(&app, &inputs, &small_plan()).unwrap();
        assert_eq!(data.goldens.len(), 1);
        // PSO: 3 blocks × 5 nonzero levels = 15 locals + 3 sparse = 18 per
        // phase, × 2 phases + 2 whole-run.
        assert_eq!(data.records.len(), 18 * 2 + 2);
        assert_eq!(data.phase_records(0).len(), 18);
        assert_eq!(data.phase_records(1).len(), 18);
        assert_eq!(data.records.iter().filter(|r| r.phase.is_none()).count(), 2);
    }

    #[test]
    fn samples_have_sane_measurements() {
        let app = Pso::new();
        let inputs = vec![InputParams::new(vec![16.0, 3.0])];
        let data = collect_training_data(&app, &inputs, &small_plan()).unwrap();
        for r in &data.records {
            assert!(r.speedup.is_finite() && r.speedup > 0.0);
            assert!(r.qos.is_finite() && r.qos >= 0.0);
            assert!(r.outer_iters > 0);
            assert!(!r.config.is_accurate());
        }
    }

    #[test]
    fn golden_lookup_and_classes() {
        let app = Pso::new();
        let input = InputParams::new(vec![16.0, 3.0]);
        let data =
            collect_training_data(&app, std::slice::from_ref(&input), &small_plan()).unwrap();
        assert!(data.golden_for(&input).is_some());
        assert!(data
            .golden_for(&InputParams::new(vec![99.0, 3.0]))
            .is_none());
        assert_eq!(data.control_flow_classes().len(), 1);
    }

    #[test]
    fn empty_inputs_rejected() {
        let app = Pso::new();
        assert!(collect_training_data(&app, &[], &small_plan()).is_err());
    }

    #[test]
    fn training_data_is_deterministic() {
        let app = Pso::new();
        let inputs = vec![InputParams::new(vec![16.0, 3.0])];
        let a = collect_training_data(&app, &inputs, &small_plan()).unwrap();
        let b = collect_training_data(&app, &inputs, &small_plan()).unwrap();
        assert_eq!(a, b);
    }
}
