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
//! The per-phase problem is solved by [`optimize_phase`]. The models
//! predict from `(input, phase, configuration)` alone and the budget only
//! gates the result, so the whole level space is scanned once per
//! `(input, level space, phase, conservatism)`: configurations are
//! predicted in [`LEAF_BATCH`]-sized chunks through one fused batched
//! model pass each, and the scan is reduced to a short *QoS staircase*
//! (candidates by falling point speedup, kept only where the constrained
//! QoS strictly falls). The staircase is memoized on the [`AppModels`],
//! and every budget is then answered by one binary search on it. Spaces
//! above [`EXHAUSTIVE_LIMIT`] are refused with a typed error instead of
//! being scanned.

use crate::error::OpproxError;
use crate::modeling::{AppModels, InputFacts};
use crate::spec::AccuracySpec;
use crate::telemetry::Telemetry;
use opprox_approx_rt::block::BlockDescriptor;
use opprox_approx_rt::config::{config_space_size, enumerate_configs};
use opprox_approx_rt::{InputParams, LevelConfig, PhaseSchedule};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

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
    /// The QoS degradation the chosen config is predicted to consume, as
    /// constrained by the solve: the upper band edge under
    /// [`Conservatism::Band`], the point estimate under
    /// [`Conservatism::Point`].
    pub predicted_qos: f64,
    /// The point whole-run speedup predicted for approximating only this
    /// phase (the band is not applied to the speedup; see
    /// [`optimize_phase`]).
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
/// unused budget rolled in from earlier visits and on to later ones, and
/// the chosen plan (whose `allocated_budget` is the visit's sub-budget).
#[derive(Debug, Clone)]
pub(crate) struct PhaseVisit {
    pub roi: f64,
    pub leftover_in: f64,
    pub leftover_out: f64,
    pub plan: PhasePlan,
}

/// Algorithm 2's budget division over `phases` of `facts`' input: splits
/// `budget` in proportion to the phases' ROIs (evenly when they sum to
/// zero), visits them in decreasing-ROI order (ties by phase index),
/// solves each with its share plus the leftover rolled over from earlier
/// visits, and falls back to the accurate plan when nothing fits. Returns one record
/// per visit, in visit order. With `trace = Some((t, prefix))` each
/// phase scan runs under span `{prefix}[{phase}]` in `t`.
///
/// # Errors
///
/// Propagates ROI and model prediction errors, and [`optimize_phase`]'s
/// refusal of an oversized level space.
pub(crate) fn divide_budget(
    models: &AppModels,
    facts: &InputFacts,
    blocks: &[BlockDescriptor],
    phases: &[usize],
    budget: f64,
    conservatism: Conservatism,
    trace: Option<(&Telemetry, &str)>,
) -> Result<Vec<PhaseVisit>, OpproxError> {
    let rois = models.rois(facts.class())?;
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
        let scan = || solve_phase(models, blocks, phase, allocated, conservatism, || Ok(facts));
        let best = match trace {
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
/// With a telemetry registry, each phase solve runs under span
/// `optimize/phase[p]`, every phase visit emits an `optimize.phase` event
/// (solve id, visit step, ROI, allocated sub-budget, leftover roll-over,
/// predicted QoS/speedup, space size, and the configurations the phase's
/// staircase is built from: the space minus the accurate configuration,
/// or 0 at a non-positive sub-budget; see [`optimize_phase`]) and each
/// solve closes with an
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
    let facts = models.facts(input)?;
    optimize_with(
        models,
        &facts,
        blocks,
        spec,
        expected_iters,
        conservatism,
        telemetry,
    )
}

/// [`optimize_traced`] for an input whose memo entry the caller holds.
pub(crate) fn optimize_with(
    models: &AppModels,
    facts: &InputFacts,
    blocks: &[BlockDescriptor],
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
        facts,
        blocks,
        &all,
        total_budget,
        conservatism,
        telemetry.map(|t| (t, "optimize/phase")),
    )?;

    // Events first, from the visits, so the plans can then be moved out.
    let traced = telemetry.map(|t| {
        // A per-registry solve id keeps events from the many candidate
        // solves a validated request performs distinguishable in one
        // trace.
        t.incr("optimize.solves");
        let solve = (t.counter_value("optimize.solves") - 1) as f64;
        // The root `optimize.start` event carries the total budget, so
        // the per-phase allocations in the `optimize.phase` ledger
        // telescope to an amount a cross-artifact audit can check (rule
        // X002).
        t.event(
            "optimize.start",
            &[
                ("solve", solve),
                ("budget", total_budget),
                ("phases", num_phases as f64),
            ],
        );
        let space = config_space_size(blocks);
        for (step, v) in visits.iter().enumerate() {
            // What `optimize_phase` scans: never the accurate
            // configuration, and nothing at a non-positive budget.
            let evaluated = if v.plan.allocated_budget <= 0.0 {
                0
            } else {
                space - 1
            };
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
                    ("space", space as f64),
                    ("evaluated", evaluated as f64),
                ],
            );
        }
        (t, solve)
    });

    let mut phases: Vec<PhasePlan> = visits.into_iter().map(|v| v.plan).collect();
    phases.sort_by_key(|p| p.phase);
    let (predicted_speedup, predicted_qos) = compose(&phases);
    let schedule = schedule_of(&phases, expected_iters.max(1))?;
    if let Some((t, solve)) = traced {
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
/// Algorithm 2): among the non-accurate configurations whose constrained
/// QoS (the upper-band estimate under [`Conservatism::Band`], the point
/// estimate under [`Conservatism::Point`]) fits `budget` and whose point
/// speedup clears [`WORTH_IT_SPEEDUP`], the one with the strictly
/// greatest point speedup wins, so ties go to the first in
/// [`enumerate_configs`] order. (The band is a per-phase constant in log
/// space and would shift every candidate's speedup identically, so
/// ranking uses the point.)
///
/// The answer is read off the phase's QoS staircase for `(input, level
/// space, phase, conservatism)`: the candidates clearing the worth-it gate
/// in (point speedup descending, enumeration order), keeping each one
/// whose constrained QoS is strictly below that of every earlier one. The
/// winner at any budget is the first kept candidate that fits it, found by
/// binary search. The first solve of a key builds the staircase with one
/// scan of the whole level space, [`LEAF_BATCH`] configurations per fused
/// `AppModels::predict_pair_batch` pass, and memoizes it with the input on
/// `models` (see `AppModels::facts`); later solves of the key predict
/// nothing. A non-positive budget answers `None` without classifying or
/// building anything.
///
/// Returns the winner, `None` when no non-accurate configuration fits.
///
/// # Errors
///
/// Returns [`OpproxError::InvalidModel`] naming the space size, before
/// predicting anything, when `blocks` span more than [`EXHAUSTIVE_LIMIT`]
/// configurations. Propagates model prediction errors; a failed build is
/// not memoized.
pub fn optimize_phase(
    models: &AppModels,
    blocks: &[BlockDescriptor],
    input: &InputParams,
    phase: usize,
    budget: f64,
    conservatism: Conservatism,
) -> Result<Option<PhasePlan>, OpproxError> {
    solve_phase(models, blocks, phase, budget, conservatism, || {
        models.facts(input)
    })
}

/// [`optimize_phase`] for the input of the memo entry `facts` yields,
/// asked for only once the space is admitted and the budget positive.
fn solve_phase<F: Borrow<InputFacts>>(
    models: &AppModels,
    blocks: &[BlockDescriptor],
    phase: usize,
    budget: f64,
    conservatism: Conservatism,
    facts: impl FnOnce() -> Result<F, OpproxError>,
) -> Result<Option<PhasePlan>, OpproxError> {
    let space = config_space_size(blocks);
    if space > EXHAUSTIVE_LIMIT {
        return Err(OpproxError::InvalidModel(format!(
            "phase {phase}'s level space has {space} configurations, over the \
             {EXHAUSTIVE_LIMIT}-configuration limit of the per-phase scan"
        )));
    }
    if budget <= 0.0 {
        return Ok(None);
    }
    let facts = facts()?;
    let facts = facts.borrow();
    let staircase = models
        .memo()
        .staircase(facts, blocks, phase, conservatism, || {
            build_staircase(models, blocks, facts, phase, conservatism)
        })?;
    Ok(staircase
        .get(staircase.partition_point(|s| s.qos > budget))
        .map(|s| PhasePlan {
            phase,
            config: s.config.clone(),
            allocated_budget: budget,
            predicted_qos: s.qos,
            predicted_speedup: s.speedup,
        }))
}

/// One step of a phase's QoS staircase: a candidate configuration with its
/// constrained QoS and point speedup.
pub(crate) struct Step {
    config: LevelConfig,
    qos: f64,
    speedup: f64,
}

/// Scans the whole level space of `phase` once and reduces it to the
/// staircase [`optimize_phase`] searches: worth-it candidates stably
/// sorted by point speedup, highest first, then only those whose
/// constrained QoS is strictly below every earlier kept one. The first
/// candidate is always kept, so even an infinite QoS is answered at an
/// infinite budget. Kept QoS values strictly fall, which is what makes
/// `partition_point(|s| s.qos > budget)` find the first fitting step.
fn build_staircase(
    models: &AppModels,
    blocks: &[BlockDescriptor],
    facts: &InputFacts,
    phase: usize,
    conservatism: Conservatism,
) -> Result<Vec<Step>, OpproxError> {
    // The first configuration enumerated is the accurate one: never a
    // candidate.
    let mut configs = enumerate_configs(blocks).skip(1);
    let mut chunk: Vec<LevelConfig> = Vec::with_capacity(LEAF_BATCH);
    let mut candidates: Vec<Step> = Vec::new();
    loop {
        chunk.extend(configs.by_ref().take(LEAF_BATCH));
        if chunk.is_empty() {
            break;
        }
        let pairs = models.predict_pair_batch(facts.class(), facts.input(), phase, &chunk)?;
        for (config, (point, conservative)) in chunk.drain(..).zip(pairs) {
            if point.speedup <= WORTH_IT_SPEEDUP {
                continue;
            }
            let qos = match conservatism {
                Conservatism::Band => conservative.qos,
                Conservatism::Point => point.qos,
            };
            candidates.push(Step {
                config,
                qos,
                speedup: point.speedup,
            });
        }
    }
    // Stable: equal speedups keep enumeration order, as the scan's
    // strict `>` did.
    candidates.sort_by(|a, b| b.speedup.total_cmp(&a.speedup));
    let mut steps: Vec<Step> = Vec::new();
    for c in candidates {
        if steps.last().is_none_or(|s| c.qos < s.qos) {
            steps.push(c);
        }
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modeling::{ModelingOptions, INPUT_MEMO_CAP};
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

    /// The optimizer's events and counters for one request, from a
    /// registry of its own.
    fn traced_solve(models: &AppModels, blocks: &[BlockDescriptor], iters: u64) -> Telemetry {
        let t = Telemetry::new();
        optimize_traced(
            models,
            blocks,
            &InputParams::new(vec![16.0, 3.0]),
            &AccuracySpec::new(10.0),
            iters,
            Conservatism::Band,
            Some(&t),
        )
        .unwrap();
        t
    }

    #[test]
    fn warm_solves_emit_the_cold_solves_events() {
        let (app, models, iters) = setup();
        let blocks = &app.meta().blocks;
        let built = || models.memo().sizes().1;
        assert_eq!(built(), 0);
        let cold = traced_solve(&models, blocks, iters).report();
        let cold_built = built();
        assert!(cold_built > 0);
        let warm = traced_solve(&models, blocks, iters).report();
        assert_eq!(built(), cold_built, "a warm solve built more");
        assert_eq!(cold.events, warm.events);
        assert_eq!(cold.counters, warm.counters);
        for e in cold.events_named("optimize.phase") {
            assert_eq!(e.field("evaluated"), e.field("space").map(|s| s - 1.0));
        }
    }

    #[test]
    fn memo_never_grows_past_its_cap() {
        let (app, models, _) = setup();
        // A four-configuration space keeps each of the many builds cheap.
        let mut blocks = app.meta().blocks.clone();
        for (b, m) in blocks.iter_mut().zip([1u8, 1, 0]) {
            b.max_level = m;
        }
        let held = || {
            let (inputs, staircases) = models.memo().sizes();
            inputs + staircases
        };
        for i in 0..INPUT_MEMO_CAP + 3 {
            let input = InputParams::new(vec![16.0 + i as f64 * 1e-3, 3.0]);
            optimize_phase(&models, &blocks, &input, 1, 10.0, Conservatism::Band).unwrap();
            assert!(held() <= INPUT_MEMO_CAP);
        }
        assert!(held() > 0);
    }

    #[test]
    fn concurrent_solves_of_one_input_agree() {
        let (app, models, _) = setup();
        let blocks = &app.meta().blocks;
        let input = InputParams::new(vec![20.0, 4.0]);
        let solve_all = |m: &AppModels| {
            let mut out = Vec::new();
            for phase in 0..2 {
                for cons in [Conservatism::Band, Conservatism::Point] {
                    for budget in [0.5, 5.0, 50.0] {
                        out.push(optimize_phase(m, blocks, &input, phase, budget, cons).unwrap());
                    }
                }
            }
            out
        };
        let sequential = solve_all(&models.clone());
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| solve_all(&models));
            let b = s.spawn(|| solve_all(&models));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, b);
        assert_eq!(a, sequential);
    }

    #[test]
    fn nan_refusals_are_repeated_not_memoized() {
        let (app, models, _) = setup();
        let blocks = &app.meta().blocks;
        let input = InputParams::new(vec![1e200, 3.0]);
        let refuse = || {
            optimize_phase(&models, blocks, &input, 1, 10.0, Conservatism::Band)
                .expect_err("a NaN prediction is refused")
                .to_string()
        };
        let first = refuse();
        assert_eq!(refuse(), first);
        // The input classified, so its entry stays; the failed scan does not.
        assert_eq!(models.memo().sizes(), (1, 0));
    }

    #[test]
    fn non_positive_budgets_build_nothing() {
        let (app, models, iters) = setup();
        let blocks = &app.meta().blocks;
        let input = InputParams::new(vec![16.0, 3.0]);
        for budget in [0.0, -1.0, f64::NEG_INFINITY] {
            for cons in [Conservatism::Band, Conservatism::Point] {
                let solved = optimize_phase(&models, blocks, &input, 0, budget, cons).unwrap();
                assert_eq!(solved, None);
            }
        }
        assert_eq!(models.memo().sizes(), (0, 0), "nothing was classified");
        let spec = AccuracySpec::new(0.0);
        let t = Telemetry::new();
        optimize_traced(
            &models,
            blocks,
            &input,
            &spec,
            iters,
            Conservatism::Band,
            Some(&t),
        )
        .unwrap();
        assert_eq!(models.memo().sizes(), (1, 0));
        let report = t.report();
        let visits = report.events_named("optimize.phase");
        assert_eq!(visits.len(), 2);
        for e in visits {
            assert_eq!(e.field("evaluated"), Some(0.0), "nothing is scanned");
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
