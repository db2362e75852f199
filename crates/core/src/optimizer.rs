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
//! The per-phase problem is solved by a best-first branch-and-bound
//! search over partial level assignments: subtrees are cut when an
//! admissible per-block speedup upper bound cannot beat the incumbent,
//! when a conservative QoS lower bound already exceeds the sub-budget,
//! or when the upper bound cannot clear the worth-it gate (see
//! [`PhaseBounds`](crate::modeling::PhaseBounds)). The pruning rules are
//! chosen so the search returns the *identical* plan the exhaustive scan
//! would (ties broken by enumeration index), which the exhaustive oracle
//! [`exhaustive_phase_oracle`] pins under property test. Spaces above
//! [`EXHAUSTIVE_LIMIT`] additionally cap the number of leaf evaluations,
//! turning the search into an any-time heuristic there.

use crate::error::OpproxError;
use crate::modeling::{AppModels, PhaseBounds};
use crate::spec::AccuracySpec;
use crate::telemetry::Telemetry;
use opprox_approx_rt::block::BlockDescriptor;
use opprox_approx_rt::config::{config_space_size, enumerate_configs};
use opprox_approx_rt::{InputParams, LevelConfig, PhaseSchedule};
use serde::{Deserialize, Serialize};

/// Above this per-phase configuration-space size the pruned search caps
/// its number of leaf evaluations at this many configurations (capped
/// subtrees are reported as pruned in the search stats), trading
/// exhaustive optimality for bounded latency. At or below the limit the
/// search is exact: it returns the configuration the exhaustive scan
/// would.
pub const EXHAUSTIVE_LIMIT: u64 = 20_000;

/// The "worth it" gate (Algorithm 2): a configuration must predict at
/// least this point speedup to be preferred over staying accurate.
/// Slightly above 1.0 so model noise around break-even never flips a
/// phase into approximation for a ~0% win.
pub const WORTH_IT_SPEEDUP: f64 = 1.005;

/// Subtrees with at most this many leaf configurations are evaluated
/// directly (batched) instead of bounded further: a bound costs three
/// interval predictions — on the order of tens of batched row
/// evaluations — so below this size just evaluating the leaves is
/// cheaper, and in the worst (unprunable) case the search degrades to
/// the exhaustive scan plus only a handful of bound calls.
const DIRECT_EVAL_LEAVES: u64 = 48;

/// Flush the buffered-leaf batch to the models once it reaches this many
/// rows, so the incumbent tightens while the search is still running.
const LEAF_BATCH: usize = 512;

/// Minimum buffered rows worth flushing early just to tighten the
/// incumbent between sibling subtrees.
const LEAF_FLUSH_MIN: usize = 36;

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

/// How the per-phase search treats the models' uncertainty.
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
    pub fn accurate(phase: usize, num_blocks: usize, allocated_budget: f64) -> Self {
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
pub fn schedule_of(phases: &[PhasePlan], iters: u64) -> Result<PhaseSchedule, OpproxError> {
    let configs = phases.iter().map(|p| p.config.clone()).collect();
    PhaseSchedule::new(configs, iters).map_err(OpproxError::from)
}

/// One phase visit of [`divide_budget`]: the phase's ROI (Eq. 1), the
/// unused budget rolled in from earlier visits and on to later ones, the
/// chosen plan (whose `allocated_budget` is the visit's sub-budget), and
/// the search counters.
#[derive(Debug, Clone)]
pub(crate) struct PhaseVisit {
    pub roi: f64,
    pub leftover_in: f64,
    pub leftover_out: f64,
    pub plan: PhasePlan,
    pub stats: SearchStats,
}

/// Algorithm 2's budget division over `phases`: splits `budget` in
/// proportion to the phases' ROIs (evenly when they sum to zero), visits
/// them in decreasing-ROI order (ties by phase index), solves each with
/// its share plus the leftover rolled over from earlier visits, and
/// falls back to the accurate plan when nothing fits. Returns one record
/// per visit, in visit order. With `trace = Some((t, prefix))` each
/// phase search runs under span `{prefix}[{phase}]` in `t`.
///
/// # Errors
///
/// Propagates ROI and model prediction errors.
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
        let search = || optimize_phase(models, blocks, input, phase, allocated, conservatism);
        let (best, stats) = match trace {
            Some((t, prefix)) => t.span(&format!("{prefix}[{phase}]"), search),
            None => search(),
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
            stats,
        });
    }
    Ok(visits)
}

/// Solves Algorithm 2 for one input and budget.
///
/// `expected_iters` is the accurate-run iteration count used to lay out
/// the phase boundaries (the paper derives it from the golden run of the
/// production input's control-flow class). `conservatism` picks the QoS
/// estimate the per-phase searches constrain on.
///
/// With a telemetry registry, each phase search runs under span
/// `optimize/phase[p]`, every phase visit emits an `optimize.phase` event
/// (solve id, visit step, ROI, allocated sub-budget, leftover roll-over,
/// predicted QoS/speedup, search counters) and each solve closes with an
/// `optimize.plan` event. Events are emitted in visit order — decreasing
/// ROI — so traces make Algorithm 2's budget redistribution an assertable
/// fact.
///
/// # Errors
///
/// Propagates ROI and model prediction errors. An empty result is never
/// an error: if no configuration fits a phase's budget, that phase stays
/// accurate.
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
                    ("visited", v.stats.visited as f64),
                    ("expanded", v.stats.expanded as f64),
                    ("pruned", v.stats.pruned as f64),
                    ("evaluated", v.stats.evaluated as f64),
                    ("bound_quality", v.stats.bound_quality()),
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

/// Counters describing one per-phase search, surfaced as fields on the
/// `optimize.phase` telemetry event. A considered interior node is either
/// pruned or expanded, so `visited == pruned + expanded` always holds —
/// the `analyze` A019 rule lints traces that violate it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchStats {
    /// Interior nodes whose bounds were computed.
    pub visited: u64,
    /// Visited nodes whose subtree was searched further.
    pub expanded: u64,
    /// Visited nodes whose subtree was cut (infeasible, gated, dominated
    /// by the incumbent, or dropped by the evaluation cap).
    pub pruned: u64,
    /// Leaf configurations batch-evaluated through the models.
    pub evaluated: u64,
}

impl SearchStats {
    /// Fraction of considered nodes the bounds managed to cut — a cheap
    /// proxy for how tight the bounds were on this space.
    pub fn bound_quality(&self) -> f64 {
        self.pruned as f64 / self.visited.max(1) as f64
    }
}

/// Solves the per-phase constrained maximization (`optimizePhase` in
/// Algorithm 2) by bound-pruned search. Returns `None` when no
/// non-accurate configuration fits, along with the search counters.
///
/// On spaces at or below [`EXHAUSTIVE_LIMIT`] the result is bitwise
/// identical to [`exhaustive_phase_oracle`]'s.
///
/// # Errors
///
/// Propagates model prediction errors.
pub fn optimize_phase(
    models: &AppModels,
    blocks: &[BlockDescriptor],
    input: &InputParams,
    phase: usize,
    budget: f64,
    conservatism: Conservatism,
) -> Result<(Option<PhasePlan>, SearchStats), OpproxError> {
    if budget <= 0.0 {
        return Ok((None, SearchStats::default()));
    }
    let cap = (config_space_size(blocks) > EXHAUSTIVE_LIMIT).then_some(EXHAUSTIVE_LIMIT);
    let bounds = models.phase_bounds(input, phase, blocks)?;
    let mut radix_prefix = Vec::with_capacity(blocks.len() + 1);
    radix_prefix.push(1u64);
    for block in blocks {
        let last = *radix_prefix.last().expect("non-empty");
        radix_prefix.push(last.saturating_mul(block.num_levels() as u64));
    }
    let mut search = PhaseSearch {
        models,
        input,
        phase,
        budget,
        conservatism,
        bounds,
        radix_prefix,
        cap,
        capped: false,
        stats: SearchStats::default(),
        buf: Vec::new(),
        buf_idx: Vec::new(),
        incumbent: None,
    };
    let mut levels = vec![0u8; blocks.len()];
    search.stats.visited += 1;
    let root = search.bounds.bound_suffix(&[], search.band());
    if root.qos_lb > budget || root.speedup_ub <= WORTH_IT_SPEEDUP {
        search.stats.pruned += 1;
    } else {
        search.stats.expanded += 1;
        search.visit(blocks.len(), &mut levels)?;
        search.flush()?;
    }
    let plan = search.incumbent.take().map(|inc| PhasePlan {
        phase,
        config: inc.config,
        allocated_budget: budget,
        predicted_qos: inc.qos,
        predicted_speedup: inc.speedup,
    });
    Ok((plan, search.stats))
}

/// The best feasible leaf seen so far. `idx` is the configuration's
/// mixed-radix enumeration index (block 0 least significant), which is
/// exactly its position in [`enumerate_configs`] order — the tie-break
/// that keeps the pruned search plan-identical to the exhaustive scan.
struct Incumbent {
    speedup: f64,
    qos: f64,
    idx: u64,
    config: LevelConfig,
}

/// One in-flight per-phase branch-and-bound search.
///
/// A node fixes the levels of a trailing run of blocks (`levels[split..]`)
/// and leaves the rest free; expanding it pins block `split - 1` to each
/// of its levels. Fixing from the most significant block down makes every
/// subtree a *contiguous* range of enumeration indices, and the pruning
/// rules preserve exhaustive-scan identity:
///
/// * `qos_lb > budget` — no leaf in the subtree is feasible;
/// * `speedup_ub <= WORTH_IT_SPEEDUP` — no leaf clears the gate;
/// * `speedup_ub < incumbent.speedup` (strictly) — no leaf can beat the
///   incumbent, and a leaf that merely *ties* it can still never win,
///   because ties go to the lower enumeration index and an equal-speedup
///   subtree is only cut when its bound is strictly below (never happens
///   for a tie, as bounds are admissible).
///
/// Children are expanded best-bound-first so strong incumbents appear
/// early and dominate more of the remaining siblings.
struct PhaseSearch<'a> {
    models: &'a AppModels,
    input: &'a InputParams,
    phase: usize,
    budget: f64,
    conservatism: Conservatism,
    bounds: PhaseBounds<'a>,
    /// `radix_prefix[i]` = number of level combinations of blocks `..i`
    /// (saturating); doubles as the enumeration-index weight of block `i`.
    radix_prefix: Vec<u64>,
    cap: Option<u64>,
    capped: bool,
    stats: SearchStats,
    buf: Vec<LevelConfig>,
    buf_idx: Vec<u64>,
    incumbent: Option<Incumbent>,
}

impl PhaseSearch<'_> {
    fn band(&self) -> bool {
        matches!(self.conservatism, Conservatism::Band)
    }

    fn index_of(&self, levels: &[u8]) -> u64 {
        levels
            .iter()
            .zip(&self.radix_prefix)
            .map(|(&l, &w)| (l as u64).saturating_mul(w))
            .fold(0u64, u64::saturating_add)
    }

    /// Searches the subtree where `levels[split..]` is fixed.
    fn visit(&mut self, split: usize, levels: &mut [u8]) -> Result<(), OpproxError> {
        if self.radix_prefix[split] <= DIRECT_EVAL_LEAVES {
            return self.buffer_subtree(split, levels);
        }
        let b = split - 1;
        let band = self.band();

        // Bound every child once; feasibility and the worth-it gate do
        // not depend on the incumbent, so those cuts are final.
        let mut survivors: Vec<(u8, f64)> = Vec::new();
        for level in 0..=self.bounds.max_level(b) {
            levels[b] = level;
            self.stats.visited += 1;
            let nb = self.bounds.bound_suffix(&levels[b..], band);
            if nb.qos_lb > self.budget || nb.speedup_ub <= WORTH_IT_SPEEDUP {
                self.stats.pruned += 1;
            } else {
                survivors.push((level, nb.speedup_ub));
            }
        }

        // Best bound first (ties by level, though the order of ties
        // cannot change the result thanks to the index tie-break).
        survivors.sort_by(|x, y| {
            y.1.partial_cmp(&x.1)
                .expect("bounds are never NaN")
                .then(x.0.cmp(&y.0))
        });
        for (level, ub) in survivors {
            // Let the incumbent catch up with recently buffered leaves
            // before judging the next sibling.
            if self.buf.len() >= LEAF_FLUSH_MIN {
                self.flush()?;
            }
            let dominated = self.incumbent.as_ref().is_some_and(|inc| ub < inc.speedup);
            if self.capped || dominated {
                self.stats.pruned += 1;
                continue;
            }
            self.stats.expanded += 1;
            levels[b] = level;
            self.visit(b, levels)?;
        }
        levels[b] = 0;
        Ok(())
    }

    /// Buffers every leaf of the subtree (all level combinations of
    /// blocks `..split`) for batched evaluation, in enumeration order.
    fn buffer_subtree(&mut self, split: usize, levels: &mut [u8]) -> Result<(), OpproxError> {
        for l in &mut levels[..split] {
            *l = 0;
        }
        'leaves: loop {
            if levels.iter().any(|&l| l > 0) {
                // (The all-zero leaf is the accurate config — never a
                // candidate.)
                if let Some(cap) = self.cap {
                    if self.stats.evaluated + self.buf.len() as u64 >= cap {
                        self.capped = true;
                        break 'leaves;
                    }
                }
                self.buf.push(LevelConfig::new(levels.to_vec()));
                self.buf_idx.push(self.index_of(levels));
            }
            let mut b = 0;
            loop {
                if b == split {
                    break 'leaves;
                }
                if levels[b] < self.bounds.max_level(b) {
                    levels[b] += 1;
                    break;
                }
                levels[b] = 0;
                b += 1;
            }
        }
        for l in &mut levels[..split] {
            *l = 0;
        }
        if self.buf.len() >= LEAF_BATCH {
            self.flush()?;
        }
        Ok(())
    }

    /// Evaluates the buffered leaves in one fused batched model pass
    /// (the same pass the exhaustive scan uses, so the values are bit
    /// identical) and folds the feasible ones into the incumbent.
    /// Feasibility uses the conservative (upper-band) QoS estimate; the
    /// worth-it gate and the ranking use the point speedup estimate,
    /// since the band is a per-phase constant in log space and would
    /// shift every candidate identically.
    fn flush(&mut self) -> Result<(), OpproxError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let pairs = self
            .models
            .predict_pair_batch(self.input, self.phase, &self.buf)?;
        self.stats.evaluated += self.buf.len() as u64;
        for (i, (point, conservative)) in pairs.iter().enumerate() {
            let constrained_qos = match self.conservatism {
                Conservatism::Band => conservative.qos,
                Conservatism::Point => point.qos,
            };
            if constrained_qos > self.budget || point.speedup <= WORTH_IT_SPEEDUP {
                continue;
            }
            let idx = self.buf_idx[i];
            let better = self.incumbent.as_ref().is_none_or(|inc| {
                point.speedup > inc.speedup || (point.speedup == inc.speedup && idx < inc.idx)
            });
            if better {
                self.incumbent = Some(Incumbent {
                    speedup: point.speedup,
                    qos: constrained_qos,
                    idx,
                    config: self.buf[i].clone(),
                });
            }
        }
        self.buf.clear();
        self.buf_idx.clear();
        Ok(())
    }
}

/// The exhaustive per-phase scan, kept as the oracle the pruned search is
/// checked against: property tests assert the branch-and-bound plan is
/// bitwise identical on every space at or below [`EXHAUSTIVE_LIMIT`].
///
/// Enumerates the level space once and predicts it in one fused batched
/// model pass (point + conservative together), then applies the
/// feasibility gate and strictly-greater ranking in enumeration order.
///
/// # Errors
///
/// Propagates model prediction errors.
pub fn exhaustive_phase_oracle(
    models: &AppModels,
    blocks: &[BlockDescriptor],
    input: &InputParams,
    phase: usize,
    budget: f64,
    conservatism: Conservatism,
) -> Result<Option<PhasePlan>, OpproxError> {
    if budget <= 0.0 {
        return Ok(None);
    }
    let configs: Vec<LevelConfig> = enumerate_configs(blocks)
        .filter(|c| !c.is_accurate())
        .collect();
    let pairs = models.predict_pair_batch(input, phase, &configs)?;
    let mut best: Option<PhasePlan> = None;
    for (config, (point, conservative)) in configs.iter().zip(&pairs) {
        let constrained_qos = match conservatism {
            Conservatism::Band => conservative.qos,
            Conservatism::Point => point.qos,
        };
        if constrained_qos > budget || point.speedup <= WORTH_IT_SPEEDUP {
            continue;
        }
        let better = best
            .as_ref()
            .is_none_or(|b| point.speedup > b.predicted_speedup);
        if better {
            best = Some(PhasePlan {
                phase,
                config: config.clone(),
                allocated_budget: budget,
                predicted_qos: constrained_qos,
                predicted_speedup: point.speedup,
            });
        }
    }
    Ok(best)
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
            whole_run_samples: 0,
            seed: 5,
        };
        let data = collect_training_data(&app, &inputs, &plan).unwrap();
        let iters = data.goldens[0].outer_iters;
        let models = AppModels::fit(&data, 2, &ModelingOptions::default()).unwrap();
        (app, models, iters)
    }

    #[test]
    fn pruned_search_prunes_and_ledger_balances() {
        let (app, models, _) = setup();
        let input = InputParams::new(vec![16.0, 3.0]);
        let mut total = SearchStats::default();
        for budget in [2.0, 10.0, 40.0] {
            for cons in [Conservatism::Band, Conservatism::Point] {
                for phase in 0..2 {
                    let (_, s) =
                        optimize_phase(&models, &app.meta().blocks, &input, phase, budget, cons)
                            .unwrap();
                    println!("budget {budget} {cons:?} phase {phase}: {s:?}");
                    assert_eq!(s.visited, s.expanded + s.pruned);
                    total.visited += s.visited;
                    total.pruned += s.pruned;
                    total.evaluated += s.evaluated;
                }
            }
        }
        // Individual solves may degenerate to a full scan (a flat phase
        // under a huge budget gives the bounds nothing to cut), but the
        // reference workload as a whole must show substantial pruning.
        assert!(total.pruned > 0, "no pruning on the reference workload");
        assert!(
            total.evaluated < 12 * 215 * 3 / 4,
            "bounds cut less than a quarter of the total leaf work: {total:?}"
        );
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
