//! The end-to-end OPPROX system (paper Fig. 6).
//!
//! Offline: profile the application on representative inputs, identify
//! the phase granularity (Algorithm 1), and fit the control-flow,
//! iteration-count, speedup, and QoS models. Online: for a production
//! input and QoS budget, solve Algorithm 2 and hand back a
//! [`PhaseSchedule`] — the equivalent of the paper's per-phase
//! environment-variable settings passed to the SLURM job.

use crate::error::OpproxError;
use crate::evaluator::EvalEngine;
use crate::modeling::{AppModels, ModelingOptions};
use crate::optimizer::OptimizationPlan;
use crate::phases::{find_phase_granularity_with, PhaseSearchOptions};
use crate::sampling::{collect_training_data_with, SamplingPlan, TrainingData};
use opprox_approx_rt::block::BlockDescriptor;
use opprox_approx_rt::{ApproxApp, InputParams, LevelConfig, PhaseSchedule};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Options controlling offline training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingOptions {
    /// Fixed phase count; `None` runs Algorithm 1 to find it.
    pub num_phases: Option<usize>,
    /// Options for the phase-granularity search.
    pub phase_search: PhaseSearchOptions,
    /// Sampling plan (its `num_phases` field is overridden by the chosen
    /// granularity).
    pub sampling: SamplingPlan,
    /// Model-fitting options.
    pub modeling: ModelingOptions,
}

impl Default for TrainingOptions {
    fn default() -> Self {
        TrainingOptions {
            num_phases: Some(4),
            phase_search: PhaseSearchOptions::default(),
            sampling: SamplingPlan::default(),
            modeling: ModelingOptions::default(),
        }
    }
}

/// Namespace for the training entry point.
#[derive(Debug, Clone, Copy)]
pub struct Opprox;

/// A trained OPPROX system for one application, ready to optimize any
/// production input. Serializable — the paper stores the equivalent as
/// pickled models loaded by the runtime scheduler script.
#[derive(Debug, Clone)]
pub struct TrainedOpprox {
    app_name: String,
    blocks: Vec<BlockDescriptor>,
    num_phases: usize,
    models: AppModels,
    /// Mean relative error of the golden-iteration estimator over the
    /// training inputs, measured by the post-fit self-check.
    golden_iter_rel_error: f64,
    /// The [`TrainedOpprox::validate_integrity`] verdict, computed on the
    /// first call. Nothing mutates a trained system after construction,
    /// so the verdict is a fixed fact of the instance. Not serialized.
    integrity: OnceLock<Result<(), String>>,
}

// The vendored serde derive has no `#[serde(skip)]`, so these are the
// derive expansion minus the `integrity` field.
impl Serialize for TrainedOpprox {
    fn to_value(&self) -> serde::value::Value {
        serde::value::Value::Object(vec![
            ("app_name".to_string(), self.app_name.to_value()),
            ("blocks".to_string(), self.blocks.to_value()),
            ("num_phases".to_string(), self.num_phases.to_value()),
            ("models".to_string(), self.models.to_value()),
            (
                "golden_iter_rel_error".to_string(),
                self.golden_iter_rel_error.to_value(),
            ),
        ])
    }
}

impl Deserialize for TrainedOpprox {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::DeError> {
        let entries = serde::__private::as_object(v, "TrainedOpprox")?;
        Ok(TrainedOpprox {
            app_name: serde::__private::field(entries, "app_name", "TrainedOpprox")?,
            blocks: serde::__private::field(entries, "blocks", "TrainedOpprox")?,
            num_phases: serde::__private::field(entries, "num_phases", "TrainedOpprox")?,
            models: serde::__private::field(entries, "models", "TrainedOpprox")?,
            golden_iter_rel_error: serde::__private::field(
                entries,
                "golden_iter_rel_error",
                "TrainedOpprox",
            )?,
            integrity: OnceLock::new(),
        })
    }
}

/// The measured outcome of running a plan for real.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasuredOutcome {
    /// Measured work-ratio speedup over the accurate run.
    pub speedup: f64,
    /// Measured QoS degradation.
    pub qos: f64,
    /// Outer-loop iterations of the approximate run.
    pub outer_iters: u64,
}

impl Opprox {
    /// Trains OPPROX on an application using its representative inputs.
    ///
    /// # Errors
    ///
    /// Propagates sampling and fitting errors.
    pub fn train(
        app: &dyn ApproxApp,
        options: &TrainingOptions,
    ) -> Result<TrainedOpprox, OpproxError> {
        Self::train_with(&EvalEngine::default(), app, options)
    }

    /// [`Opprox::train`] on a shared [`EvalEngine`]: phase-granularity
    /// probes, profiling runs, and the post-fit self-check all route
    /// through the engine's pool and execution cache. The self-check
    /// re-requests each training input's golden run — a guaranteed cache
    /// hit against the profiling batch — and records the
    /// golden-iteration estimator's mean relative error on
    /// [`TrainedOpprox::golden_iter_rel_error`].
    ///
    /// # Errors
    ///
    /// Propagates sampling and fitting errors.
    pub fn train_with(
        engine: &EvalEngine,
        app: &dyn ApproxApp,
        options: &TrainingOptions,
    ) -> Result<TrainedOpprox, OpproxError> {
        let inputs = app.representative_inputs();
        if inputs.is_empty() {
            return Err(OpproxError::InsufficientData(
                "application declares no representative inputs".into(),
            ));
        }
        let num_phases = match options.num_phases {
            Some(n) => n.max(1),
            None => find_phase_granularity_with(engine, app, &inputs[0], &options.phase_search)?,
        };
        let plan = SamplingPlan {
            num_phases,
            ..options.sampling
        };
        let data = collect_training_data_with(engine, app, &inputs, &plan)?;
        let mut trained = Self::train_from_data_traced(
            app,
            &data,
            num_phases,
            &options.modeling,
            Some(engine.telemetry()),
        )?;
        trained.golden_iter_rel_error = engine.stage("self-check", || {
            let mut total = 0.0f64;
            let mut checked = 0usize;
            for input in &inputs {
                // An input whose golden was dropped by degraded-mode
                // collection stays dropped here: skip it instead of
                // aborting a training run that already survived it.
                let golden = match engine.golden(app, input) {
                    Ok(g) => g,
                    Err(e) if crate::fault::degradable_kind(&e).is_some() => continue,
                    Err(e) => return Err(e),
                };
                let est = trained.estimate_golden_iters(input)?;
                let real = golden.outer_iters.max(1) as f64;
                total += (est as f64 - real).abs() / real;
                checked += 1;
            }
            Ok::<f64, OpproxError>(if checked == 0 {
                0.0
            } else {
                total / checked as f64
            })
        })?;
        Ok(trained)
    }

    /// Trains from already-collected data, so one profiling pass can
    /// serve several fits. `telemetry`, when given, receives the model
    /// fit's counters and spans.
    ///
    /// # Errors
    ///
    /// Propagates fitting errors.
    pub fn train_from_data_traced(
        app: &dyn ApproxApp,
        data: &TrainingData,
        num_phases: usize,
        modeling: &ModelingOptions,
        telemetry: Option<&crate::telemetry::Telemetry>,
    ) -> Result<TrainedOpprox, OpproxError> {
        let models = AppModels::fit_traced(data, num_phases, modeling, telemetry)?;
        let mut trained = TrainedOpprox {
            app_name: app.meta().name.clone(),
            blocks: app.meta().blocks.clone(),
            num_phases,
            models,
            golden_iter_rel_error: 0.0,
            integrity: OnceLock::new(),
        };
        // Self-check against the recorded goldens (no extra executions):
        // how far off is the iteration estimator on the training inputs?
        if !data.goldens.is_empty() {
            let mut total = 0.0f64;
            for g in &data.goldens {
                let est = trained.estimate_golden_iters(&g.input)?;
                let real = g.outer_iters.max(1) as f64;
                total += (est as f64 - real).abs() / real;
            }
            trained.golden_iter_rel_error = total / data.goldens.len() as f64;
        }
        Ok(trained)
    }
}

impl TrainedOpprox {
    /// The application the system was trained for.
    pub fn app_name(&self) -> &str {
        &self.app_name
    }

    /// The number of phases used.
    pub fn num_phases(&self) -> usize {
        self.num_phases
    }

    /// The fitted model set.
    pub fn models(&self) -> &AppModels {
        &self.models
    }

    /// Statistics of the training run that fitted the models (counters
    /// and per-stage wall times; see [`crate::modeling::ModelingMetrics`]).
    /// Zeroed on systems restored from JSON — the metrics describe a
    /// training run, not the models, and are not serialized.
    pub fn modeling_metrics(&self) -> &crate::modeling::ModelingMetrics {
        self.models.metrics()
    }

    /// The approximable blocks the system was trained over.
    pub fn blocks(&self) -> &[BlockDescriptor] {
        &self.blocks
    }

    /// Mean relative error of the golden-iteration estimator over the
    /// training inputs, from the post-fit self-check (0.0 is perfect).
    pub fn golden_iter_rel_error(&self) -> f64 {
        self.golden_iter_rel_error
    }

    /// Estimates the accurate-run outer-loop iteration count for an input
    /// (the control-flow model family of the paper's Fig. 6). Predicted on
    /// the input's first call and then read from the models' per-input
    /// memo.
    ///
    /// # Errors
    ///
    /// Propagates control-flow and model prediction errors; neither is
    /// memoized, so a refused input is refused again on every call.
    pub fn estimate_golden_iters(&self, input: &InputParams) -> Result<u64, OpproxError> {
        let facts = self.models.facts(input)?;
        self.models.golden_iters(&facts, self.blocks.len())
    }

    /// Heuristic phase-structured candidates: uniform levels confined to
    /// the final phase or final half, and per-block probes. All are
    /// subject to the same empirical validation as the model-driven
    /// plans.
    pub(crate) fn heuristic_candidates(
        &self,
        expected_iters: u64,
    ) -> Result<Vec<OptimizationPlan>, OpproxError> {
        let n = self.num_phases;
        let nb = self.blocks.len();
        let mut schedules: Vec<Vec<LevelConfig>> = Vec::new();

        let uniform = |level: u8| -> LevelConfig {
            LevelConfig::new(self.blocks.iter().map(|b| level.min(b.max_level)).collect())
        };
        // Final phase only, escalating uniform levels.
        for level in [1u8, 2, 3, 5] {
            let mut v = vec![LevelConfig::accurate(nb); n];
            v[n - 1] = uniform(level);
            schedules.push(v);
        }
        // Final half, gentle uniform levels.
        for level in [1u8, 2] {
            let mut v = vec![LevelConfig::accurate(nb); n];
            for slot in v.iter_mut().take(n).skip(n / 2) {
                *slot = uniform(level);
            }
            schedules.push(v);
        }
        // Per-block probes: one block at a moderate and at its maximum
        // level, (a) in the final half and (b) across the whole run.
        for b in 0..nb {
            for level in [2u8.min(self.blocks[b].max_level), self.blocks[b].max_level] {
                if level == 0 {
                    continue;
                }
                let cfg = LevelConfig::accurate(nb).with_level(b, level);
                let mut v = vec![LevelConfig::accurate(nb); n];
                for slot in v.iter_mut().take(n).skip(n / 2) {
                    *slot = cfg.clone();
                }
                schedules.push(v);
                schedules.push(vec![cfg; n]);
            }
        }

        let mut out = Vec::new();
        for v in schedules {
            let schedule = PhaseSchedule::new(v, expected_iters.max(1))?;
            if schedule.is_accurate() {
                continue;
            }
            out.push(OptimizationPlan {
                phases: Vec::new(),
                schedule,
                predicted_speedup: 1.0,
                predicted_qos: 0.0,
            });
        }
        Ok(out)
    }

    /// Structural variants of a plan used during validated optimization:
    /// halved levels, last-phase-only, and last-half-only schedules.
    pub(crate) fn plan_variants(
        &self,
        plan: &OptimizationPlan,
        expected_iters: u64,
    ) -> Result<Vec<OptimizationPlan>, OpproxError> {
        if plan.schedule.is_accurate() {
            return Ok(Vec::new());
        }
        let configs = plan.schedule.configs();
        let n = configs.len();
        let mut variants: Vec<Vec<LevelConfig>> = Vec::new();
        // Levels halved everywhere.
        variants.push(
            configs
                .iter()
                .map(|c| LevelConfig::new(c.levels().iter().map(|&l| l / 2).collect()))
                .collect(),
        );
        // Only the final phase keeps its configuration.
        if n > 1 {
            let mut v: Vec<LevelConfig> = vec![LevelConfig::accurate(self.blocks.len()); n];
            v[n - 1] = configs[n - 1].clone();
            variants.push(v);
            // Only the later half keeps its configuration.
            if n > 2 {
                let mut v: Vec<LevelConfig> = vec![LevelConfig::accurate(self.blocks.len()); n];
                for (p, slot) in v.iter_mut().enumerate().take(n).skip(n / 2) {
                    *slot = configs[p].clone();
                }
                variants.push(v);
            }
        }
        let mut out = Vec::new();
        for v in variants {
            let schedule = PhaseSchedule::new(v, expected_iters.max(1))?;
            if schedule.is_accurate() || schedule == plan.schedule {
                continue;
            }
            out.push(OptimizationPlan {
                phases: Vec::new(),
                schedule,
                predicted_speedup: plan.predicted_speedup,
                predicted_qos: plan.predicted_qos,
            });
        }
        Ok(out)
    }

    /// Runs the plan for real and measures the outcome.
    ///
    /// # Errors
    ///
    /// Propagates application runtime errors.
    pub fn evaluate(
        &self,
        app: &dyn ApproxApp,
        input: &InputParams,
        plan: &OptimizationPlan,
    ) -> Result<MeasuredOutcome, OpproxError> {
        self.evaluate_with(&EvalEngine::default(), app, input, plan)
    }

    /// [`TrainedOpprox::evaluate`] on a shared [`EvalEngine`]: both the
    /// golden run and the plan execution hit the engine's cache when the
    /// same configuration was measured before.
    ///
    /// # Errors
    ///
    /// Propagates application runtime errors.
    pub fn evaluate_with(
        &self,
        engine: &EvalEngine,
        app: &dyn ApproxApp,
        input: &InputParams,
        plan: &OptimizationPlan,
    ) -> Result<MeasuredOutcome, OpproxError> {
        let golden = engine.golden(app, input)?;
        // Re-anchor the schedule on the real golden iteration count.
        let schedule =
            PhaseSchedule::new(plan.schedule.configs().to_vec(), golden.outer_iters.max(1))?;
        let result = engine.run(app, input, &schedule)?;
        Ok(MeasuredOutcome {
            speedup: golden.speedup_over(&result),
            qos: app.qos_degradation(&golden, &result),
            outer_iters: result.outer_iters,
        })
    }

    /// Serializes the trained system to JSON.
    ///
    /// # Errors
    ///
    /// Returns [`OpproxError::Serialization`] on encoder failure.
    pub fn to_json(&self) -> Result<String, OpproxError> {
        serde_json::to_string(self).map_err(|e| OpproxError::Serialization(e.to_string()))
    }

    /// Restores a trained system from JSON.
    ///
    /// Deliberately lenient: structurally valid JSON deserializes even
    /// when the model set is corrupt, so `opprox analyze` can lint broken
    /// artifacts and report *what* is wrong. Paths that go on to use the
    /// models should prefer [`TrainedOpprox::load`] or call
    /// [`TrainedOpprox::validate_integrity`] themselves.
    ///
    /// # Errors
    ///
    /// Returns [`OpproxError::Serialization`] on decoder failure.
    pub fn from_json(json: &str) -> Result<Self, OpproxError> {
        serde_json::from_str(json).map_err(|e| OpproxError::Serialization(e.to_string()))
    }

    /// Every corruption the Error-severity integrity audit finds in this
    /// trained system (A004 non-finite coefficients, A007 invalid
    /// confidence bands, A012 shape mismatches, including the
    /// descriptor/model block-count check). Each issue's
    /// [`IssueKind::rule_code`](crate::modeling::IssueKind::rule_code)
    /// names the `opprox analyze` rule it maps to; boundary enforcers
    /// like the serve reload audit use that to say *why* an artifact was
    /// rejected.
    pub fn integrity_issues(&self) -> Vec<crate::modeling::IntegrityIssue> {
        let mut issues = self.models.integrity_issues();
        if self.blocks.len() != self.models.num_blocks() {
            issues.insert(
                0,
                crate::modeling::IntegrityIssue {
                    kind: crate::modeling::IssueKind::ShapeMismatch,
                    location: "blocks".into(),
                    message: format!(
                        "{} block descriptors for models trained over {} blocks",
                        self.blocks.len(),
                        self.models.num_blocks()
                    ),
                },
            );
        }
        issues
    }

    /// Checks the trained system for corruption that would poison every
    /// downstream prediction: the Error-severity subset of the `opprox
    /// analyze` rules (A004 non-finite coefficients, A007 invalid
    /// confidence bands, A012 shape mismatches). The audit runs on the
    /// first call; later calls return the same verdict without re-running
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`OpproxError::InvalidModel`] naming the first defects.
    pub fn validate_integrity(&self) -> Result<(), OpproxError> {
        self.integrity
            .get_or_init(|| {
                let issues = self.integrity_issues();
                if issues.is_empty() {
                    return Ok(());
                }
                let shown = issues
                    .iter()
                    .take(3)
                    .map(|i| format!("{}: {}", i.location, i.message))
                    .collect::<Vec<_>>()
                    .join("; ");
                let suffix = if issues.len() > 3 {
                    format!(" (and {} more)", issues.len() - 3)
                } else {
                    String::new()
                };
                Err(format!("{shown}{suffix}"))
            })
            .clone()
            .map_err(OpproxError::InvalidModel)
    }

    /// Loads a trained system from a JSON file and rejects corrupt model
    /// sets at the boundary (see [`TrainedOpprox::validate_integrity`]).
    ///
    /// # Errors
    ///
    /// Returns [`OpproxError::Serialization`] when the file is unreadable
    /// or not valid JSON, and [`OpproxError::InvalidModel`] when the
    /// deserialized model set fails the integrity check.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, OpproxError> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path)
            .map_err(|e| OpproxError::Serialization(format!("reading {}: {e}", path.display())))?;
        let trained = Self::from_json(&json)?;
        trained.validate_integrity()?;
        Ok(trained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::OptimizeRequest;
    use crate::spec::AccuracySpec;
    use opprox_apps::Pso;

    fn fast_options() -> TrainingOptions {
        TrainingOptions {
            num_phases: Some(2),
            sampling: SamplingPlan {
                num_phases: 2,
                sparse_samples: 10,
                seed: 5,
            },
            ..TrainingOptions::default()
        }
    }

    #[test]
    fn train_optimize_evaluate_round_trip() {
        let app = Pso::new();
        let trained = Opprox::train(&app, &fast_options()).unwrap();
        assert_eq!(trained.app_name(), "PSO");
        assert_eq!(trained.num_phases(), 2);
        let input = InputParams::new(vec![20.0, 3.0]);
        let spec = AccuracySpec::new(20.0);
        let plan = OptimizeRequest::new(input.clone(), spec)
            .run(&trained)
            .unwrap()
            .plan;
        let outcome = trained.evaluate(&app, &input, &plan).unwrap();
        assert!(outcome.speedup > 0.0);
        assert!(outcome.qos.is_finite());
        assert!(trained.golden_iter_rel_error() >= 0.0);
        assert!(trained.golden_iter_rel_error().is_finite());
    }

    #[test]
    fn golden_iteration_estimate_is_sane() {
        let app = Pso::new();
        let trained = Opprox::train(&app, &fast_options()).unwrap();
        let input = InputParams::new(vec![16.0, 3.0]);
        let est = trained.estimate_golden_iters(&input).unwrap();
        let real = opprox_approx_rt::ApproxApp::golden(&app, &input)
            .unwrap()
            .outer_iters;
        // Convergence loops terminate on plateaus, so the estimator only
        // needs to be in the right ballpark (the optimizer re-anchors the
        // schedule on the real golden run before execution anyway).
        let rel = (est as f64 - real as f64).abs() / real as f64;
        assert!(rel < 0.5, "estimate {est} vs real {real}");
    }

    #[test]
    fn serde_round_trip_preserves_plans() {
        let app = Pso::new();
        let trained = Opprox::train(&app, &fast_options()).unwrap();
        let json = trained.to_json().unwrap();
        let back = TrainedOpprox::from_json(&json).unwrap();
        let input = InputParams::new(vec![16.0, 3.0]);
        let spec = AccuracySpec::new(10.0);
        let a = OptimizeRequest::new(input.clone(), spec)
            .run(&trained)
            .unwrap();
        let b = OptimizeRequest::new(input, spec).run(&back).unwrap();
        assert_eq!(a.plan.phases, b.plan.phases);
        assert_eq!(
            trained.golden_iter_rel_error().to_bits(),
            back.golden_iter_rel_error().to_bits()
        );
    }

    #[test]
    fn integrity_verdict_is_repeated_on_every_call() {
        let trained = Opprox::train(&Pso::new(), &fast_options()).unwrap();
        assert!(trained.validate_integrity().is_ok());
        assert!(trained.validate_integrity().is_ok());
        let json = trained.to_json().unwrap().replacen(
            "\"num_phases\":2,\"num_blocks\"",
            "\"num_phases\":9,\"num_blocks\"",
            1,
        );
        let corrupt = TrainedOpprox::from_json(&json).unwrap();
        let refuse = || match corrupt.validate_integrity() {
            Err(OpproxError::InvalidModel(message)) => message,
            other => panic!("expected an invalid_model refusal, got {other:?}"),
        };
        let first = refuse();
        assert!(first.contains("phase model sets for 9 phases"), "{first}");
        assert_eq!(refuse(), first);
    }

    #[test]
    fn bad_json_is_reported() {
        assert!(matches!(
            TrainedOpprox::from_json("{not json"),
            Err(OpproxError::Serialization(_))
        ));
    }
}
