//! The optimization framework (paper Sec. 3.8, Algorithm 2).
//!
//! Given a total QoS-degradation budget, OPPROX
//!
//! 1. computes each phase's *return on investment* (Eq. 1) from the
//!    training data,
//! 2. allocates the budget across phases in proportion to their
//!    normalized ROI,
//! 3. visits phases in decreasing ROI order, solving for each the
//!    constrained maximization
//!    `max S(A)  s.t.  δQoS(A) ≤ phase budget`
//!    over the discrete level space, using the conservative model
//!    predictions, and
//! 4. rolls any unused sub-budget over to the remaining phases.
//!
//! The per-phase problem is solved by [`optimize_phase`], a streamed scan
//! of the whole level space: configurations are predicted in
//! [`LEAF_BATCH`]-sized chunks through one fused batched model pass each,
//! and the first feasible configuration with the greatest point speedup
//! wins. Spaces above [`EXHAUSTIVE_LIMIT`] are refused with a typed error
//! instead of being searched.

use crate::error::OpproxError;
use crate::modeling::AppModels;
use crate::spec::AccuracySpec;
use crate::telemetry::Telemetry;
use opprox_approx_rt::block::BlockDescriptor;
use opprox_approx_rt::config::{config_space_size, enumerate_configs};
use opprox_approx_rt::{InputParams, LevelConfig, PhaseSchedule};
use serde::{Deserialize, Serialize};

/// The largest per-phase configuration space [`optimize_phase`] scans.
/// Larger spaces are refused with [`OpproxError::InvalidModel`]: the
/// largest shipped space (LULESH) has 1296 configurations per phase.
pub const EXHAUSTIVE_LIMIT: u64 = 20_000;

/// The "worth it" gate (Algorithm 2): a configuration must predict at
/// least this point speedup to be preferred over staying accurate.
/// Slightly above 1.0 so model noise around break-even never flips a
/// phase into approximation for a ~0% win.
pub const WORTH_IT_SPEEDUP: f64 = 1.005;

/// [`optimize_phase`] predicts the level space this many configurations
/// at a time, so its memory stays bounded whatever the space size.
pub const LEAF_BATCH: usize = 512;

/// The plan chosen for one phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhasePlan {
    /// The phase index.
    pub phase: usize,
    /// The chosen level configuration.
    pub config: LevelConfig,
    /// The sub-budget that was allocated to the phase.
    pub allocated_budget: f64,
    /// The (conservative) QoS degradation the chosen config is predicted
    /// to consume.
    pub predicted_qos: f64,
    /// The (conservative) whole-run speedup predicted for approximating
    /// only this phase.
    pub predicted_speedup: f64,
}

/// The complete optimization outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizationPlan {
    /// Per-phase choices, in phase order.
    pub phases: Vec<PhasePlan>,
    /// The schedule to run the application with.
    pub schedule: PhaseSchedule,
    /// Combined predicted speedup across phases.
    pub predicted_speedup: f64,
    /// Combined predicted QoS degradation across phases.
    pub predicted_qos: f64,
}

/// How the per-phase scan treats the models' uncertainty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Conservatism {
    /// Constrain on the upper confidence band of the QoS prediction —
    /// the paper's default, which guarantees the *predicted* QoS stays
    /// within budget even under model error.
    Band,
    /// Constrain on the point prediction. More aggressive; used by the
    /// validated optimizer to generate candidate plans that a real
    /// execution then vets.
    Point,
}

impl PhasePlan {
    /// The accurate fallback for a phase whose sub-budget nothing fits:
    /// every block at level 0, no predicted QoS cost, no speedup.
    pub(crate) fn accurate(phase: usize, num_blocks: usize, allocated_budget: f64) -> Self {
        PhasePlan {
            phase,
            config: LevelConfig::accurate(num_blocks),
            allocated_budget,
            predicted_qos: 0.0,
            predicted_speedup: 1.0,
        }
    }
}

/// A phase plan's `(predicted_speedup, predicted_qos)` pair, the input
/// [`compose`] takes.
impl From<&PhasePlan> for (f64, f64) {
    fn from(p: &PhasePlan) -> Self {
        (p.predicted_speedup, p.predicted_qos)
    }
}

/// Composes per-phase `(predicted_speedup, predicted_qos)` pairs, given
/// in phase order, into the whole-plan `(speedup, qos)`: speedups compose
/// via saved time fractions (each per-phase speedup is a whole-run
/// speedup with only that phase approximated), QoS degradations compose
/// additively.
pub fn compose<P: Into<(f64, f64)>>(phases: impl IntoIterator<Item = P>) -> (f64, f64) {
    let mut saved_fraction = 0.0;
    let mut predicted_qos = 0.0;
    for (speedup, qos) in phases.into_iter().map(Into::into) {
        saved_fraction += 1.0 - 1.0 / speedup.max(0.01);
        predicted_qos += qos;
    }
    let predicted_speedup = 1.0 / (1.0 - saved_fraction).clamp(0.05, 1.0);
    (predicted_speedup, predicted_qos)
}

/// The schedule that runs `phases`' configurations (in phase order) over
/// `iters` expected outer iterations.
///
/// # Errors
///
/// Returns [`OpproxError::Runtime`] when the configurations do not form
/// a well-formed schedule.
pub(crate) fn schedule_of(phases: &[PhasePlan], iters: u64) -> Result<PhaseSchedule, OpproxError> {
    let configs = phases.iter().map(|p| p.config.clone()).collect();
    PhaseSchedule::new(configs, iters).map_err(OpproxError::from)
}

/// One phase visit of [`divide_budget`]: the phase's ROI (Eq. 1), the
/// unused budget rolled in from earlier visits and on to later ones, the
/// chosen plan (whose `allocated_budget` is the visit's sub-budget), and
/// how many configurations the phase's scan predicted.
#[derive(Debug, Clone)]
pub(crate) struct PhaseVisit {
    pub roi: f64,
    pub leftover_in: f64,
    pub leftover_out: f64,
    pub plan: PhasePlan,
    pub evaluated: u64,
}

/// Algorithm 2's budget division over `phases`: splits `budget` in
/// proportion to the phases' ROIs (evenly when they sum to zero), visits
/// them in decreasing-ROI order (ties by phase index), solves each with
/// its share plus the leftover rolled over from earlier visits, and
/// falls back to the accurate plan when nothing fits. Returns one record
/// per visit, in visit order. With `trace = Some((t, prefix))` each
/// phase scan runs under span `{prefix}[{phase}]` in `t`.
///
/// # Errors
///
/// Propagates ROI and model prediction errors, and [`optimize_phase`]'s
/// refusal of an oversized level space.
pub(crate) fn divide_budget(
    models: &AppModels,
    blocks: &[BlockDescriptor],
    input: &InputParams,
    phases: &[usize],
    budget: f64,
    conservatism: Conservatism,
    trace: Option<(&Telemetry, &str)>,
) -> Result<Vec<PhaseVisit>, OpproxError> {
    let rois = models.rois(input)?;
    let roi_sum: f64 = phases.iter().map(|&p| rois[p]).sum();
    let mut order = phases.to_vec();
    order.sort_by(|&a, &b| {
        rois[b]
            .partial_cmp(&rois[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let mut leftover = 0.0f64;
    let mut visits = Vec::with_capacity(order.len());
    for phase in order {
        let share = if roi_sum > 0.0 {
            rois[phase] / roi_sum
        } else {
            1.0 / phases.len() as f64
        };
        let leftover_in = leftover;
        let allocated = budget * share + leftover_in;
        let scan = || optimize_phase(models, blocks, input, phase, allocated, conservatism);
        let (best, evaluated) = match trace {
            Some((t, prefix)) => t.span(&format!("{prefix}[{phase}]"), scan),
            None => scan(),
        }?;
        let plan = match best {
            Some(found) => {
                leftover = (allocated - found.predicted_qos).max(0.0);
                PhasePlan {
                    allocated_budget: allocated,
                    ..found
                }
            }
            None => {
                // Nothing fits: the whole sub-budget rolls over.
                leftover = allocated;
                PhasePlan::accurate(phase, blocks.len(), allocated)
            }
        };
        visits.push(PhaseVisit {
            roi: rois[phase],
            leftover_in,
            leftover_out: leftover,
            plan,
            evaluated,
        });
    }
    Ok(visits)
}

/// Solves Algorithm 2 for one input and budget.
///
/// `expected_iters` is the accurate-run iteration count used to lay out
/// the phase boundaries (the paper derives it from the golden run of the
/// production input's control-flow class). `conservatism` picks the QoS
/// estimate the per-phase scans constrain on.
///
/// With a telemetry registry, each phase scan runs under span
/// `optimize/phase[p]`, every phase visit emits an `optimize.phase` event
/// (solve id, visit step, ROI, allocated sub-budget, leftover roll-over,
/// predicted QoS/speedup, space size and configurations predicted) and
/// each solve closes with an
/// `optimize.plan` event. Events are emitted in visit order — decreasing
/// ROI — so traces make Algorithm 2's budget redistribution an assertable
/// fact.
///
/// # Errors
///
/// Propagates ROI and model prediction errors, and refuses level spaces
/// above [`EXHAUSTIVE_LIMIT`] (see [`optimize_phase`]). An empty result is
/// never an error: if no configuration fits a phase's budget, that phase
/// stays accurate.
pub fn optimize_traced(
    models: &AppModels,
    blocks: &[BlockDescriptor],
    input: &InputParams,
    spec: &AccuracySpec,
    expected_iters: u64,
    conservatism: Conservatism,
    telemetry: Option<&Telemetry>,
) -> Result<OptimizationPlan, OpproxError> {
    let num_phases = models.num_phases();
    let all: Vec<usize> = (0..num_phases).collect();
    let total_budget = spec.error_budget();
    let visits = divide_budget(
        models,
        blocks,
        input,
        &all,
        total_budget,
        conservatism,
        telemetry.map(|t| (t, "optimize/phase")),
    )?;

    let mut phases: Vec<PhasePlan> = visits.iter().map(|v| v.plan.clone()).collect();
    phases.sort_by_key(|p| p.phase);
    let (predicted_speedup, predicted_qos) = compose(&phases);
    let schedule = schedule_of(&phases, expected_iters.max(1))?;

    if let Some(t) = telemetry {
        // A per-registry solve id keeps events from the many candidate
        // solves a validated request performs distinguishable in one
        // trace. The root `optimize.start` event carries the total
        // budget, so the per-phase allocations in the `optimize.phase`
        // ledger telescope to an amount a cross-artifact audit can check
        // (rule X002).
        t.incr("optimize.solves");
        let solve = (t.counter_value("optimize.solves") - 1) as f64;
        t.event(
            "optimize.start",
            &[
                ("solve", solve),
                ("budget", total_budget),
                ("phases", num_phases as f64),
            ],
        );
        for (step, v) in visits.iter().enumerate() {
            t.event(
                "optimize.phase",
                &[
                    ("solve", solve),
                    ("step", step as f64),
                    ("phase", v.plan.phase as f64),
                    ("roi", v.roi),
                    ("allocated", v.plan.allocated_budget),
                    ("leftover_in", v.leftover_in),
                    ("leftover_out", v.leftover_out),
                    ("predicted_qos", v.plan.predicted_qos),
                    ("predicted_speedup", v.plan.predicted_speedup),
                    ("space", config_space_size(blocks) as f64),
                    ("evaluated", v.evaluated as f64),
                ],
            );
        }
        t.event(
            "optimize.plan",
            &[
                ("solve", solve),
                ("predicted_speedup", predicted_speedup),
                ("predicted_qos", predicted_qos),
            ],
        );
    }

    Ok(OptimizationPlan {
        phases,
        schedule,
        predicted_speedup,
        predicted_qos,
    })
}

/// Solves the per-phase constrained maximization (`optimizePhase` in
/// Algorithm 2) by scanning the whole level space: configurations are
/// enumerated in [`enumerate_configs`] order, [`LEAF_BATCH`] at a time,
/// and each chunk is predicted in one fused `AppModels::predict_pair_batch`
/// pass. A configuration is feasible when its constrained QoS (the
/// upper-band estimate under [`Conservatism::Band`], the point estimate
/// under [`Conservatism::Point`]) fits `budget` and its point speedup
/// clears [`WORTH_IT_SPEEDUP`]; the feasible one with the strictly
/// greatest point speedup wins, so ties go to the first in enumeration
/// order. (The band is a per-phase constant in log space and would shift
/// every candidate's speedup identically, so ranking uses the point.)
///
/// Returns the winner (`None` when no non-accurate configuration fits)
/// and the number of configurations predicted.
///
/// # Errors
///
/// Returns [`OpproxError::InvalidModel`] naming the space size, before
/// predicting anything, when `blocks` span more than [`EXHAUSTIVE_LIMIT`]
/// configurations. Propagates model prediction errors.
pub fn optimize_phase(
    models: &AppModels,
    blocks: &[BlockDescriptor],
    input: &InputParams,
    phase: usize,
    budget: f64,
    conservatism: Conservatism,
) -> Result<(Option<PhasePlan>, u64), OpproxError> {
    let space = config_space_size(blocks);
    if space > EXHAUSTIVE_LIMIT {
        return Err(OpproxError::InvalidModel(format!(
            "phase {phase}'s level space has {space} configurations, over the \
             {EXHAUSTIVE_LIMIT}-configuration limit of the per-phase scan"
        )));
    }
    if budget <= 0.0 {
        return Ok((None, 0));
    }
    // The first configuration enumerated is the accurate one: never a
    // candidate.
    let mut configs = enumerate_configs(blocks).skip(1);
    let mut chunk: Vec<LevelConfig> = Vec::with_capacity(LEAF_BATCH);
    let mut evaluated = 0u64;
    let mut best: Option<PhasePlan> = None;
    loop {
        chunk.clear();
        chunk.extend(configs.by_ref().take(LEAF_BATCH));
        if chunk.is_empty() {
            break;
        }
        let pairs = models.predict_pair_batch(input, phase, &chunk)?;
        evaluated += chunk.len() as u64;
        for (config, (point, conservative)) in chunk.iter().zip(&pairs) {
            let constrained_qos = match conservatism {
                Conservatism::Band => conservative.qos,
                Conservatism::Point => point.qos,
            };
            if constrained_qos > budget || point.speedup <= WORTH_IT_SPEEDUP {
                continue;
            }
            if best
                .as_ref()
                .is_none_or(|b| point.speedup > b.predicted_speedup)
            {
                best = Some(PhasePlan {
                    phase,
                    config: config.clone(),
                    allocated_budget: budget,
                    predicted_qos: constrained_qos,
                    predicted_speedup: point.speedup,
                });
            }
        }
    }
    Ok((best, evaluated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modeling::ModelingOptions;
    use crate::sampling::{collect_training_data, SamplingPlan};
    use opprox_approx_rt::ApproxApp;
    use opprox_apps::Pso;

    fn setup() -> (Pso, AppModels, u64) {
        let app = Pso::new();
        let inputs = vec![
            InputParams::new(vec![16.0, 3.0]),
            InputParams::new(vec![24.0, 4.0]),
        ];
        let plan = SamplingPlan {
            num_phases: 2,
            sparse_samples: 10,
            seed: 5,
        };
        let data = collect_training_data(&app, &inputs, &plan).unwrap();
        let iters = data.goldens[0].outer_iters;
        let models = AppModels::fit(&data, 2, &ModelingOptions::default()).unwrap();
        (app, models, iters)
    }

    #[test]
    fn plan_respects_budget_in_prediction() {
        let (app, models, iters) = setup();
        let input = InputParams::new(vec![16.0, 3.0]);
        let spec = AccuracySpec::new(15.0);
        let plan = optimize_traced(
            &models,
            &app.meta().blocks,
            &input,
            &spec,
            iters,
            Conservatism::Band,
            None,
        )
        .unwrap();
        assert_eq!(plan.phases.len(), 2);
        assert!(
            plan.predicted_qos <= spec.error_budget() + 1e-6,
            "predicted qos {} over budget",
            plan.predicted_qos
        );
        assert!(plan.predicted_speedup >= 1.0);
    }

    #[test]
    fn zero_budget_yields_accurate_schedule() {
        let (app, models, iters) = setup();
        let input = InputParams::new(vec![16.0, 3.0]);
        let spec = AccuracySpec::new(0.0);
        let plan = optimize_traced(
            &models,
            &app.meta().blocks,
            &input,
            &spec,
            iters,
            Conservatism::Band,
            None,
        )
        .unwrap();
        assert!(plan.schedule.is_accurate());
        assert_eq!(plan.predicted_qos, 0.0);
    }

    #[test]
    fn larger_budget_never_predicts_less_speedup() {
        let (app, models, iters) = setup();
        let input = InputParams::new(vec![16.0, 3.0]);
        let small = optimize_traced(
            &models,
            &app.meta().blocks,
            &input,
            &AccuracySpec::new(5.0),
            iters,
            Conservatism::Band,
            None,
        )
        .unwrap();
        let large = optimize_traced(
            &models,
            &app.meta().blocks,
            &input,
            &AccuracySpec::new(40.0),
            iters,
            Conservatism::Band,
            None,
        )
        .unwrap();
        assert!(large.predicted_speedup >= small.predicted_speedup - 1e-9);
    }

    #[test]
    fn late_phase_gets_the_aggressive_config() {
        let (app, models, iters) = setup();
        let input = InputParams::new(vec![16.0, 3.0]);
        let spec = AccuracySpec::new(10.0);
        let plan = optimize_traced(
            &models,
            &app.meta().blocks,
            &input,
            &spec,
            iters,
            Conservatism::Band,
            None,
        )
        .unwrap();
        // With PSO's phase profile, the late phase carries the bulk of the
        // approximation.
        let early_sum: u32 = plan.phases[0]
            .config
            .levels()
            .iter()
            .map(|&l| l as u32)
            .sum();
        let late_sum: u32 = plan.phases[1]
            .config
            .levels()
            .iter()
            .map(|&l| l as u32)
            .sum();
        assert!(
            late_sum >= early_sum,
            "expected aggressive late phase, got early {early_sum} late {late_sum}"
        );
    }

    #[test]
    fn schedule_matches_chosen_configs() {
        let (app, models, iters) = setup();
        let input = InputParams::new(vec![16.0, 3.0]);
        let plan = optimize_traced(
            &models,
            &app.meta().blocks,
            &input,
            &AccuracySpec::new(20.0),
            iters,
            Conservatism::Band,
            None,
        )
        .unwrap();
        assert_eq!(plan.schedule.num_phases(), 2);
        for p in &plan.phases {
            assert_eq!(plan.schedule.configs()[p.phase], p.config);
        }
    }

    #[test]
    fn compose_matches_the_offline_formula() {
        let phases = vec![
            PhasePlan {
                phase: 0,
                config: LevelConfig::accurate(1),
                allocated_budget: 5.0,
                predicted_qos: 2.0,
                predicted_speedup: 1.25,
            },
            PhasePlan {
                phase: 1,
                config: LevelConfig::accurate(1),
                allocated_budget: 5.0,
                predicted_qos: 1.0,
                predicted_speedup: 1.1,
            },
        ];
        let (speedup, qos) = compose(&phases);
        assert!((qos - 3.0).abs() < 1e-12);
        let saved = (1.0 - 1.0 / 1.25) + (1.0 - 1.0 / 1.1);
        assert!((speedup - 1.0 / (1.0 - saved)).abs() < 1e-12);
    }
}
