//! The unified optimization entry point.
//!
//! [`OptimizeRequest`] replaces the old trio of
//! `TrainedOpprox::optimize` / `optimize_validated` /
//! `optimize_validated_on` with one builder: every knob — conservatism,
//! empirical validation, validation budget, canary input, shared
//! evaluation engine — is an explicit, optional setting, and the result
//! ([`OptimizeOutcome`]) records which path actually produced the plan.
//!
//! # Example
//!
//! ```
//! use opprox_core::pipeline::{Opprox, TrainingOptions};
//! use opprox_core::request::{OptimizeRequest, OptimizePath};
//! use opprox_core::sampling::SamplingPlan;
//! use opprox_core::spec::AccuracySpec;
//! use opprox_apps::Pso;
//! use opprox_approx_rt::InputParams;
//!
//! let app = Pso::new();
//! let options = TrainingOptions {
//!     num_phases: Some(2),
//!     sampling: SamplingPlan { num_phases: 2, sparse_samples: 8, ..SamplingPlan::default() },
//!     ..TrainingOptions::default()
//! };
//! let trained = Opprox::train(&app, &options).unwrap();
//! let input = InputParams::new(vec![16.0, 3.0]);
//!
//! // Model-only: no real executions, plan straight from the models.
//! let outcome = OptimizeRequest::new(input.clone(), AccuracySpec::new(10.0))
//!     .run(&trained)
//!     .unwrap();
//! assert_eq!(outcome.path, OptimizePath::ModelOnly);
//! assert!(outcome.measured.is_none());
//!
//! // Validated: vet candidates with real executions before committing.
//! let outcome = OptimizeRequest::new(input, AccuracySpec::new(10.0))
//!     .validate_on(&app)
//!     .validation_budget(8)
//!     .run(&trained)
//!     .unwrap();
//! assert!(outcome.candidates_tried > 0);
//! assert!(outcome.measured.is_some());
//! ```

use crate::control::{self, ControlOptions, ControlSummary};
use crate::error::OpproxError;
use crate::evaluator::EvalEngine;
use crate::fault::{degradable_kind, RobustnessReport};
use crate::optimizer::{optimize_traced, optimize_with, Conservatism, OptimizationPlan};
use crate::pipeline::{MeasuredOutcome, TrainedOpprox};
use crate::spec::AccuracySpec;
use crate::telemetry::{Telemetry, TelemetryReport};
use opprox_approx_rt::{ApproxApp, InputParams, LevelConfig, PhaseSchedule};
use serde::{Deserialize, Serialize};

/// Default cap on validation executions per optimization — orders of
/// magnitude below the exhaustive oracle's sweep.
pub(crate) const DEFAULT_VALIDATION_BUDGET: usize = 32;

/// Which path of the optimization pipeline produced the returned plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OptimizePath {
    /// Pure Algorithm-2 solve; no real executions were performed.
    ModelOnly,
    /// A candidate plan passed empirical validation.
    Validated,
    /// No candidate passed validation; the fully accurate schedule was
    /// returned instead.
    AccurateFallback,
    /// The closed-loop adaptive controller produced the plan: the
    /// offline solve was executed phase-by-phase and re-planned on
    /// drift (see [`crate::control`]).
    Adaptive,
}

/// The result of an [`OptimizeRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizeOutcome {
    /// The chosen plan.
    pub plan: OptimizationPlan,
    /// Which pipeline path produced it.
    pub path: OptimizePath,
    /// The measured outcome of the chosen plan on the validation input
    /// (`None` for the model-only path).
    pub measured: Option<MeasuredOutcome>,
    /// How many candidate plans were empirically validated (0 for the
    /// model-only path).
    pub candidates_tried: usize,
    /// The fault-injection and recovery ledger of the validation engine,
    /// when fault injection was configured or any recovery event (retry,
    /// quarantine, drop) occurred. `None` for a clean model-only solve.
    pub robustness: Option<RobustnessReport>,
    /// The telemetry snapshot of the request: optimizer budget-division
    /// events for every solve, plus — on the validated path — the
    /// engine's execution/cache counters and stage spans. For a fixed
    /// seed and an injected manual clock the JSON export is
    /// byte-identical across thread counts.
    pub telemetry: TelemetryReport,
    /// The adaptive controller's session ledger (`None` unless the
    /// request ran with [`OptimizeRequest::adaptive`]).
    pub control: Option<ControlSummary>,
}

impl OptimizeOutcome {
    /// The outcome of a model-only solve: no executions, no measurement.
    fn model_only(plan: OptimizationPlan, telemetry: TelemetryReport) -> Self {
        OptimizeOutcome {
            plan,
            path: OptimizePath::ModelOnly,
            measured: None,
            candidates_tried: 0,
            robustness: None,
            telemetry,
            control: None,
        }
    }
}

/// Builder describing one optimization request against a trained system.
///
/// Construct with [`OptimizeRequest::new`], chain the optional settings,
/// and call [`OptimizeRequest::run`]. Without [`validate_on`] the request
/// is a pure model solve; with it, candidates are vetted with real
/// executions (optionally on a cheaper canary input) before the fastest
/// measured-within-budget plan is returned.
///
/// [`validate_on`]: OptimizeRequest::validate_on
#[derive(Clone)]
pub struct OptimizeRequest<'a> {
    input: InputParams,
    spec: AccuracySpec,
    conservatism: Conservatism,
    validation_app: Option<&'a dyn ApproxApp>,
    validation_budget: usize,
    canary: Option<InputParams>,
    engine: Option<&'a EvalEngine>,
    adaptive: Option<ControlOptions>,
}

impl<'a> OptimizeRequest<'a> {
    /// A request to optimize `input` under the accuracy budget `spec`.
    pub fn new(input: InputParams, spec: AccuracySpec) -> Self {
        OptimizeRequest {
            input,
            spec,
            conservatism: Conservatism::Band,
            validation_app: None,
            validation_budget: DEFAULT_VALIDATION_BUDGET,
            canary: None,
            engine: None,
            adaptive: None,
        }
    }

    /// Conservatism mode for the model-only solve (default:
    /// [`Conservatism::Band`], the paper's default). The validated path
    /// explores both modes regardless.
    #[must_use]
    pub(crate) fn conservatism(mut self, mode: Conservatism) -> Self {
        self.conservatism = mode;
        self
    }

    /// Enables empirical validation: candidate plans are vetted with real
    /// executions of `app` and the fastest measured-within-budget plan
    /// wins.
    #[must_use]
    pub fn validate_on(mut self, app: &'a dyn ApproxApp) -> Self {
        self.validation_app = Some(app);
        self
    }

    /// Caps the number of candidate plans validated with real executions
    /// (default 32). Ignored without
    /// [`OptimizeRequest::validate_on`].
    #[must_use]
    pub fn validation_budget(mut self, budget: usize) -> Self {
        self.validation_budget = budget.max(1);
        self
    }

    /// Uses a separate *canary* input for the validation executions.
    ///
    /// The paper's related-work discussion points to canary inputs
    /// (Laurenzano et al., PLDI 2016) — scaled-down inputs that exercise
    /// the same behaviour at a fraction of the cost — as complementary to
    /// OPPROX. The request still optimizes *for* the production input;
    /// only the vetting runs use the canary, and the reported
    /// [`OptimizeOutcome::measured`] is the canary's measurement.
    #[must_use]
    pub fn canary(mut self, canary: InputParams) -> Self {
        self.canary = Some(canary);
        self
    }

    /// Runs the request through the closed-loop adaptive controller
    /// ([`crate::control::run_adaptive`]): the offline solve is executed
    /// phase-by-phase, realized per-phase work is checked against the
    /// model's confidence bands, and the remaining phases are re-planned
    /// with the remaining budget when reality drifts. Requires
    /// [`OptimizeRequest::validate_on`] (the controller executes the
    /// application for real).
    #[must_use]
    pub fn adaptive(mut self, options: ControlOptions) -> Self {
        self.adaptive = Some(options);
        self
    }

    /// Routes all validation executions through a shared [`EvalEngine`]
    /// so repeated configurations (across budgets, or against a prior
    /// training/oracle pass) come out of the execution cache. Without
    /// this a private engine is used.
    #[must_use]
    pub fn engine(mut self, engine: &'a EvalEngine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Executes the request against a trained system.
    ///
    /// # Errors
    ///
    /// Propagates model-prediction and (when validating) application
    /// runtime errors.
    pub fn run(&self, trained: &TrainedOpprox) -> Result<OptimizeOutcome, OpproxError> {
        // Reject corrupt model sets before any prediction runs on them:
        // a NaN coefficient or inverted band would silently poison every
        // Algorithm-2 solve below (`opprox analyze` rules A004/A007/A012).
        trained.validate_integrity()?;
        let Some(app) = self.validation_app else {
            if self.adaptive.is_some() {
                return Err(OpproxError::InvalidSpec(
                    "adaptive mode executes the application: call validate_on(app) as well".into(),
                ));
            }
            // A model-only solve still traces its budget division: into the
            // shared engine's registry when one was attached, otherwise into
            // a private registry that becomes the outcome's report.
            return Ok(match self.engine {
                Some(e) => {
                    let plan = self.solve(trained, Some(e.telemetry()))?;
                    OptimizeOutcome::model_only(plan, e.telemetry_report())
                }
                None => {
                    let local = Telemetry::new();
                    let plan = self.solve(trained, Some(&local))?;
                    OptimizeOutcome::model_only(plan, local.into_report())
                }
            });
        };
        let private_engine;
        let engine = match self.engine {
            Some(e) => e,
            None => {
                private_engine = EvalEngine::default();
                &private_engine
            }
        };
        let mut outcome = match &self.adaptive {
            Some(options) => {
                let session = engine.stage("control", || {
                    control::run_adaptive(trained, app, engine, &self.input, &self.spec, options)
                })?;
                OptimizeOutcome {
                    plan: session.plan.clone(),
                    path: OptimizePath::Adaptive,
                    measured: session.measured,
                    candidates_tried: 0,
                    robustness: None,
                    telemetry: TelemetryReport::default(),
                    control: Some(session.summary()),
                }
            }
            None => {
                let expected = trained.estimate_golden_iters(&self.input)?;
                engine.stage("validation", || {
                    self.run_validated(engine, app, trained, expected)
                })?
            }
        };
        outcome.robustness = engine.robustness_ledger();
        outcome.telemetry = engine.telemetry_report();
        Ok(outcome)
    }

    /// The model-only outcome of [`OptimizeRequest::run`] for a caller
    /// that never reads [`OptimizeOutcome::telemetry`]: the solve records
    /// no span or event, and the report stays empty. Validation and the
    /// shared engine are not consulted.
    pub(crate) fn run_untraced(
        &self,
        trained: &TrainedOpprox,
    ) -> Result<OptimizeOutcome, OpproxError> {
        trained.validate_integrity()?;
        let plan = self.solve(trained, None)?;
        Ok(OptimizeOutcome::model_only(
            plan,
            TelemetryReport::default(),
        ))
    }

    /// The model-only Algorithm-2 solve on integrity-checked models. The
    /// input's memo entry answers the iteration estimate and every
    /// phase's staircase, so a repeated input predicts nothing.
    fn solve(
        &self,
        trained: &TrainedOpprox,
        telemetry: Option<&Telemetry>,
    ) -> Result<OptimizationPlan, OpproxError> {
        let models = trained.models();
        let facts = models.facts(&self.input)?;
        let expected = models.golden_iters(&facts, trained.blocks().len())?;
        optimize_with(
            models,
            &facts,
            trained.blocks(),
            &self.spec,
            expected,
            self.conservatism,
            telemetry,
        )
    }

    /// The validated path: generate a bounded candidate set, vet every
    /// distinct candidate with one real execution (batched on the
    /// engine's pool), greedily merge the best passing plans, and return
    /// the fastest plan whose *measured* QoS stays within budget.
    fn run_validated(
        &self,
        engine: &EvalEngine,
        app: &dyn ApproxApp,
        trained: &TrainedOpprox,
        expected: u64,
    ) -> Result<OptimizeOutcome, OpproxError> {
        let budget = self.spec.error_budget();
        let canary = self.canary.as_ref().unwrap_or(&self.input);

        // Step 1: candidate plans from geometrically scaled model-driven
        // solves, plus structural variants of each (levels halved,
        // last-phase-only, last-half-only) that hedge against cross-phase
        // interactions the per-phase models cannot see, plus
        // phase-structured heuristic probes for the regimes where model
        // resolution bottoms out.
        let mut candidates: Vec<OptimizationPlan> = Vec::new();
        let push = |plan: OptimizationPlan, candidates: &mut Vec<OptimizationPlan>| {
            if !plan.schedule.is_accurate()
                && !candidates.iter().any(|c| c.schedule == plan.schedule)
            {
                candidates.push(plan);
            }
        };
        for scale in [1.0, 0.5, 2.0, 0.25, 4.0, 8.0] {
            let scaled = AccuracySpec::try_new(budget * scale)?;
            for mode in [Conservatism::Band, Conservatism::Point] {
                let plan = optimize_traced(
                    trained.models(),
                    trained.blocks(),
                    &self.input,
                    &scaled,
                    expected,
                    mode,
                    Some(engine.telemetry()),
                )?;
                for v in trained.plan_variants(&plan, expected)? {
                    push(v, &mut candidates);
                }
                push(plan, &mut candidates);
            }
        }
        for plan in trained.heuristic_candidates(expected)? {
            push(plan, &mut candidates);
        }
        candidates.truncate(self.validation_budget);

        // Step 2: validate each candidate once, as one engine batch. If
        // the canary's golden run itself fails past recovery, no
        // candidate can be vetted — degrade to the model-only plan
        // rather than aborting the whole request.
        let golden = match engine.golden(app, canary) {
            Ok(g) => g,
            Err(e) if degradable_kind(&e).is_some() => {
                let plan = optimize_traced(
                    trained.models(),
                    trained.blocks(),
                    &self.input,
                    &self.spec,
                    expected,
                    self.conservatism,
                    Some(engine.telemetry()),
                )?;
                return Ok(OptimizeOutcome::model_only(
                    plan,
                    TelemetryReport::default(),
                ));
            }
            Err(e) => return Err(e),
        };
        let outcomes = validate_batch(engine, app, canary, &golden, &candidates)?;
        let mut candidates_tried = candidates.len();
        // A candidate whose validation run failed past recovery is simply
        // dropped from consideration (degraded validation).
        let mut passing: Vec<(OptimizationPlan, MeasuredOutcome)> = candidates
            .into_iter()
            .zip(outcomes)
            .filter_map(|(c, o)| o.map(|o| (c, o)))
            .filter(|(_, o)| o.qos <= budget && o.speedup > 1.0)
            .collect();
        check_finite_speedups(&passing)?;
        passing.sort_by(|a, b| b.1.speedup.total_cmp(&a.1.speedup));

        // Step 3: greedy composition — merge the best passing plans
        // pairwise (levelwise max per phase) to compound independent
        // savings, validating each merge.
        let mut merged: Vec<OptimizationPlan> = Vec::new();
        for i in 0..passing.len().min(3) {
            for j in (i + 1)..passing.len().min(3) {
                let a = passing[i].0.schedule.configs();
                let b = passing[j].0.schedule.configs();
                if a.len() != b.len() {
                    continue;
                }
                let configs: Vec<LevelConfig> = a
                    .iter()
                    .zip(b.iter())
                    .map(|(ca, cb)| {
                        LevelConfig::new(
                            ca.levels()
                                .iter()
                                .zip(cb.levels().iter())
                                .map(|(&x, &y)| x.max(y))
                                .collect(),
                        )
                    })
                    .collect();
                let schedule = PhaseSchedule::new(configs, expected.max(1))?;
                if passing.iter().any(|(p, _)| p.schedule == schedule)
                    || merged.iter().any(|p| p.schedule == schedule)
                {
                    continue;
                }
                merged.push(OptimizationPlan {
                    phases: Vec::new(),
                    schedule,
                    predicted_speedup: passing[i].0.predicted_speedup,
                    predicted_qos: passing[i].0.predicted_qos + passing[j].0.predicted_qos,
                });
            }
        }
        let outcomes = validate_batch(engine, app, canary, &golden, &merged)?;
        candidates_tried += merged.len();
        passing.extend(
            merged
                .into_iter()
                .zip(outcomes)
                .filter_map(|(c, o)| o.map(|o| (c, o)))
                .filter(|(_, o)| o.qos <= budget && o.speedup > 1.0),
        );

        check_finite_speedups(&passing)?;
        let best = passing
            .into_iter()
            .max_by(|a, b| a.1.speedup.total_cmp(&b.1.speedup));

        match best {
            Some((plan, measured)) => Ok(OptimizeOutcome {
                plan,
                path: OptimizePath::Validated,
                measured: Some(measured),
                candidates_tried,
                robustness: None,
                telemetry: TelemetryReport::default(),
                control: None,
            }),
            None => {
                // Fall back to the fully accurate schedule.
                let accurate = LevelConfig::accurate(trained.blocks().len());
                let schedule = PhaseSchedule::new(vec![accurate; trained.num_phases()], expected)?;
                Ok(OptimizeOutcome {
                    plan: OptimizationPlan {
                        phases: Vec::new(),
                        schedule,
                        predicted_speedup: 1.0,
                        predicted_qos: 0.0,
                    },
                    path: OptimizePath::AccurateFallback,
                    measured: Some(MeasuredOutcome {
                        speedup: 1.0,
                        qos: 0.0,
                        outer_iters: expected,
                    }),
                    candidates_tried,
                    robustness: None,
                    telemetry: TelemetryReport::default(),
                    control: None,
                })
            }
        }
    }
}

impl std::fmt::Debug for OptimizeRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OptimizeRequest")
            .field("input", &self.input)
            .field("spec", &self.spec)
            .field("conservatism", &self.conservatism)
            .field("validated", &self.validation_app.is_some())
            .field("validation_budget", &self.validation_budget)
            .field("canary", &self.canary)
            .field("shared_engine", &self.engine.is_some())
            .finish()
    }
}

/// A measured speedup must be finite before it can rank candidates; a
/// NaN or infinite value means the golden run or the approximate run
/// reported a nonsensical work count, and silently ordering by it would
/// pick an arbitrary winner. Reported as
/// [`OpproxError::NonFiniteMeasurement`] (wire code
/// `non_finite_measurement`) instead of the panic this used to be.
fn check_finite_speedups(
    passing: &[(OptimizationPlan, MeasuredOutcome)],
) -> Result<(), OpproxError> {
    for (plan, measured) in passing {
        if !measured.speedup.is_finite() {
            return Err(OpproxError::NonFiniteMeasurement(format!(
                "validated candidate {:?} measured speedup {}",
                plan.schedule.configs(),
                measured.speedup
            )));
        }
    }
    Ok(())
}

/// Measures each plan once on `input`, re-anchored on the golden
/// iteration count, as one engine batch in submission order. A plan whose
/// validation run failed past recovery yields `None` (it is dropped from
/// consideration); fatal errors abort.
fn validate_batch(
    engine: &EvalEngine,
    app: &dyn ApproxApp,
    input: &InputParams,
    golden: &opprox_approx_rt::RunResult,
    plans: &[OptimizationPlan],
) -> Result<Vec<Option<MeasuredOutcome>>, OpproxError> {
    let jobs: Vec<(InputParams, PhaseSchedule)> = plans
        .iter()
        .map(|p| {
            Ok((
                input.clone(),
                PhaseSchedule::new(p.schedule.configs().to_vec(), golden.outer_iters.max(1))?,
            ))
        })
        .collect::<Result<_, OpproxError>>()?;
    engine
        .run_batch_resilient(app, &jobs)
        .into_iter()
        .map(|outcome| match outcome {
            Ok(r) => Ok(Some(MeasuredOutcome {
                speedup: golden.speedup_over(&r),
                qos: app.qos_degradation(golden, &r),
                outer_iters: r.outer_iters,
            })),
            Err(e) if degradable_kind(&e).is_some() => Ok(None),
            Err(e) => Err(e),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Opprox, TrainingOptions};
    use crate::sampling::SamplingPlan;
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
    fn model_only_request_performs_no_executions() {
        let app = Pso::new();
        let trained = Opprox::train(&app, &fast_options()).unwrap();
        let engine = EvalEngine::default();
        let outcome =
            OptimizeRequest::new(InputParams::new(vec![16.0, 3.0]), AccuracySpec::new(10.0))
                .engine(&engine)
                .run(&trained)
                .unwrap();
        assert_eq!(outcome.path, OptimizePath::ModelOnly);
        assert!(outcome.measured.is_none());
        assert_eq!(outcome.candidates_tried, 0);
        assert_eq!(engine.metrics().executions, 0);
    }

    #[test]
    fn untraced_model_only_run_differs_from_run_only_in_its_report() {
        let trained = Opprox::train(&Pso::new(), &fast_options()).unwrap();
        for mode in [Conservatism::Band, Conservatism::Point] {
            let req =
                OptimizeRequest::new(InputParams::new(vec![16.0, 3.0]), AccuracySpec::new(10.0))
                    .conservatism(mode);
            let traced = req.run(&trained).unwrap();
            let untraced = req.run_untraced(&trained).unwrap();
            assert!(!traced.telemetry.is_empty());
            assert!(untraced.telemetry.is_empty());
            let traced = OptimizeOutcome {
                telemetry: TelemetryReport::default(),
                ..traced
            };
            assert_eq!(untraced, traced, "{mode:?}");
        }
    }

    #[test]
    fn validated_request_measures_within_budget() {
        let app = Pso::new();
        let trained = Opprox::train(&app, &fast_options()).unwrap();
        let outcome =
            OptimizeRequest::new(InputParams::new(vec![20.0, 3.0]), AccuracySpec::new(20.0))
                .validate_on(&app)
                .run(&trained)
                .unwrap();
        assert!(outcome.candidates_tried > 0);
        let measured = outcome.measured.expect("validated path measures");
        match outcome.path {
            OptimizePath::Validated => {
                assert!(measured.qos <= 20.0);
                assert!(measured.speedup > 1.0);
            }
            OptimizePath::AccurateFallback => {
                assert_eq!(measured.speedup, 1.0);
                assert!(outcome.plan.schedule.is_accurate());
            }
            OptimizePath::ModelOnly | OptimizePath::Adaptive => {
                panic!("validation was requested")
            }
        }
    }

    #[test]
    fn validation_budget_caps_candidates() {
        let app = Pso::new();
        let trained = Opprox::train(&app, &fast_options()).unwrap();
        let outcome =
            OptimizeRequest::new(InputParams::new(vec![16.0, 3.0]), AccuracySpec::new(20.0))
                .validate_on(&app)
                .validation_budget(3)
                .run(&trained)
                .unwrap();
        // The cap bounds step-2 candidates; merges add at most 3 more.
        assert!(outcome.candidates_tried <= 3 + 3);
    }

    #[test]
    fn canary_runs_use_the_canary_input() {
        let app = Pso::new();
        let trained = Opprox::train(&app, &fast_options()).unwrap();
        let engine = EvalEngine::default();
        let canary = InputParams::new(vec![12.0, 3.0]);
        let production = InputParams::new(vec![24.0, 3.0]);
        OptimizeRequest::new(production.clone(), AccuracySpec::new(20.0))
            .validate_on(&app)
            .canary(canary.clone())
            .engine(&engine)
            .run(&trained)
            .unwrap();
        // The canary's golden run is in the cache (hit); the production
        // input was never executed (its golden is a miss).
        let before = engine.metrics();
        assert!(before.executions > 0);
        engine.golden(&app, &canary).unwrap();
        let mid = engine.metrics();
        assert_eq!(mid.cache_hits, before.cache_hits + 1);
        assert_eq!(mid.executions, before.executions);
        engine.golden(&app, &production).unwrap();
        let after = engine.metrics();
        assert_eq!(after.executions, mid.executions + 1);
    }
}
