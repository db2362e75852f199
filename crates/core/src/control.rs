//! Online adaptive control: closed-loop mid-run re-optimization.
//!
//! OPPROX's Algorithm 2 is a one-shot offline pass: it divides the QoS
//! budget across phases before execution and trusts the trained
//! confidence bands to hold. Capri reframes approximation as a control
//! system, and the phase-classification literature shows phase
//! boundaries themselves drift at runtime. This module closes the loop:
//! [`run_adaptive`] executes a [`PhaseSchedule`] phase-by-phase through
//! the [`EvalEngine`], compares the realized per-phase work savings
//! against the model's predicted confidence band after each phase, and
//! when the observation leaves the tolerance-widened band it re-runs the
//! per-phase scan over the *remaining* phases with the *remaining*
//! budget — leftover-budget redistribution as feedback rather than a
//! single rollover pass.
//!
//! Re-segmentation runs before re-optimization: per-phase BBV-style
//! signatures (normalized per-block work vectors from the execution's
//! call-context counters) are compared against the golden run's, and a
//! signature that moved past its threshold re-anchors the phase
//! boundaries to the observed iteration count before the suffix is
//! re-planned.
//!
//! Determinism contract: the controller emits spans and `control.step`
//! ledger events only from the orchestrating thread, on the engine's
//! injectable [`Clock`](crate::telemetry::Clock); applications are
//! deterministic and the engine's batch assembly is thread-count
//! invariant, so the exported trace is byte-identical across `--threads`
//! settings and reruns. The `control.step` ledger is audited by analyze
//! rules X009 (budget conservation: Σ reclaimed = Σ redistributed) and
//! A020 (re-plan count bounded by the phase count).

use opprox_approx_rt::log::CallContextLog;
use opprox_approx_rt::{ApproxApp, InputParams, PhaseSchedule, RunResult};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

use crate::error::OpproxError;
use crate::evaluator::EvalEngine;
use crate::fault::degradable_kind;
use crate::optimizer::{
    compose, divide_budget, optimize_traced, schedule_of, Conservatism, OptimizationPlan, PhasePlan,
};
use crate::pipeline::{MeasuredOutcome, TrainedOpprox};
use crate::spec::AccuracySpec;

/// Default relative drift tolerance: how far the observed per-phase
/// speedup may sit outside the model's confidence band before the
/// controller re-plans. Mirrors the audit layer's X001 drift tolerance.
pub const DEFAULT_DRIFT_TOLERANCE: f64 = 0.25;

/// Default threshold on the Manhattan distance between normalized
/// per-block work signatures (range 0..2) past which a phase boundary is
/// considered to have moved and the schedule is re-segmented.
pub(crate) const DEFAULT_RESEGMENT_THRESHOLD: f64 = 0.25;

/// Deterministic drift injection for tests and the CI smoke run: scales
/// the *observed* work attributed to one phase (optionally one block
/// within it), simulating an execution whose behavior moved away from
/// the training distribution without touching the application itself.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftInjection {
    /// The phase whose observed work is perturbed.
    pub phase: usize,
    /// Multiplier applied to the observed work units.
    pub factor: f64,
    /// When set, only this block's work is scaled — which distorts the
    /// phase's BBV signature and so also exercises re-segmentation.
    pub block: Option<usize>,
}

impl DriftInjection {
    /// Parses a `key=value` spec like `phase=1,factor=4.0` or
    /// `phase=0,factor=3.0,block=2` (same shape as `--fault-plan`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on unknown keys, missing
    /// `phase`/`factor`, or unparsable values.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut phase: Option<usize> = None;
        let mut factor: Option<f64> = None;
        let mut block: Option<usize> = None;
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{part}`"))?;
            match key.trim() {
                "phase" => {
                    phase = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| format!("invalid phase `{value}`"))?,
                    );
                }
                "factor" => {
                    let f: f64 = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("invalid factor `{value}`"))?;
                    if !f.is_finite() || f <= 0.0 {
                        return Err(format!("factor must be finite and positive, got `{value}`"));
                    }
                    factor = Some(f);
                }
                "block" => {
                    block = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| format!("invalid block `{value}`"))?,
                    );
                }
                other => return Err(format!("unknown drift key `{other}`")),
            }
        }
        Ok(Self {
            phase: phase.ok_or("drift spec needs phase=N")?,
            factor: factor.ok_or("drift spec needs factor=F")?,
            block,
        })
    }
}

/// Tunables of the adaptive controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlOptions {
    /// Relative tolerance outside the per-phase confidence band before a
    /// re-plan triggers.
    pub drift_tolerance: f64,
    /// Whether online re-segmentation runs before re-optimization (at a
    /// relative threshold of `0.25`).
    pub resegment: bool,
    /// Optional deterministic drift injection.
    pub inject: Option<DriftInjection>,
}

impl Default for ControlOptions {
    fn default() -> Self {
        Self {
            drift_tolerance: DEFAULT_DRIFT_TOLERANCE,
            resegment: true,
            inject: None,
        }
    }
}

/// One entry of the controller's per-phase ledger — the in-memory twin
/// of the `control.step` telemetry event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlStepRecord {
    /// Walk step (phases are visited in execution order, so this equals
    /// the phase index).
    pub step: usize,
    /// The phase observed.
    pub phase: usize,
    /// Realized whole-run-equivalent speedup attributed to this phase.
    pub observed_speedup: f64,
    /// The model's point prediction for the executed configuration.
    pub predicted_speedup: f64,
    /// Lower edge of the confidence band (conservative prediction).
    pub band_lo: f64,
    /// Upper edge of the confidence band (log-symmetric reflection of
    /// the conservative edge around the point prediction).
    pub band_hi: f64,
    /// Relative distance of the observation outside the band (0 inside).
    pub drift: f64,
    /// Whether the drift exceeded the tolerance.
    pub drifted: bool,
    /// Whether the phase boundaries were re-segmented at this step.
    pub resegmented: bool,
    /// Whether the remaining phases were re-planned at this step.
    pub replanned: bool,
    /// Budget pulled back into the pool at this step.
    pub budget_reclaimed: f64,
    /// Budget re-allocated across the remaining phases at this step.
    pub budget_redistributed: f64,
    /// Budget still unspent after this step's phase committed.
    pub remaining_budget: f64,
}

/// The result of one closed-loop adaptive session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlOutcome {
    /// The plan as finally executed (offline plan with any re-planned
    /// suffixes applied).
    pub plan: OptimizationPlan,
    /// The untouched offline Algorithm 2 plan, for drift-free identity
    /// checks and overhead accounting.
    pub offline: OptimizationPlan,
    /// The per-phase ledger, in execution order.
    pub steps: Vec<ControlStepRecord>,
    /// Number of suffix re-plans performed.
    pub replans: usize,
    /// Whether any step re-segmented the phase boundaries.
    pub resegmented: bool,
    /// Total budget reclaimed across the session.
    pub budget_reclaimed: f64,
    /// Total budget redistributed across the session.
    pub budget_redistributed: f64,
    /// Measured outcome of the final schedule (`None` only when every
    /// execution path degraded away).
    pub measured: Option<MeasuredOutcome>,
    /// Whether a degradable fault forced the controller off its planned
    /// schedule (degrade-not-abort).
    pub degraded: bool,
}

/// The controller facts an [`crate::request::OptimizeOutcome`] carries
/// alongside the chosen plan: the per-phase ledger plus session totals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlSummary {
    /// Number of suffix re-plans performed.
    pub replans: usize,
    /// Whether any step re-segmented the phase boundaries.
    pub resegmented: bool,
    /// Total budget reclaimed across the session.
    pub budget_reclaimed: f64,
    /// Total budget redistributed across the session.
    pub budget_redistributed: f64,
    /// Whether a degradable fault forced the controller off its planned
    /// schedule.
    pub degraded: bool,
    /// The per-phase ledger, in execution order.
    pub steps: Vec<ControlStepRecord>,
}

impl ControlOutcome {
    /// The session facts without the (duplicated) plan payloads.
    pub(crate) fn summary(&self) -> ControlSummary {
        ControlSummary {
            replans: self.replans,
            resegmented: self.resegmented,
            budget_reclaimed: self.budget_reclaimed,
            budget_redistributed: self.budget_redistributed,
            degraded: self.degraded,
            steps: self.steps.clone(),
        }
    }
}

/// Iteration window `[lo, hi)` a phase covers under the schedule's
/// uniform partition; the final phase absorbs the remainder and any
/// overshoot (mirrors [`PhaseSchedule::phase_of`]).
fn phase_window(schedule: &PhaseSchedule, phase: usize) -> (u64, u64) {
    let n = schedule.num_phases() as u64;
    let base = (schedule.expected_iters() / n).max(1);
    let lo = phase as u64 * base;
    let hi = if phase as u64 + 1 == n {
        u64::MAX
    } else {
        lo + base
    };
    (lo, hi)
}

/// Per-block work inside an iteration window — the raw material of both
/// the drift metric and the BBV signature.
fn block_work_in_window(log: &CallContextLog, lo: u64, hi: u64, num_blocks: usize) -> Vec<f64> {
    let mut work = vec![0.0; num_blocks];
    for r in log.records() {
        if r.iteration >= lo && r.iteration < hi && r.block < num_blocks {
            work[r.block] += r.work as f64;
        }
    }
    work
}

/// Normalizes a work vector into a BBV-style signature (sums to 1).
fn signature(work: &[f64]) -> Vec<f64> {
    let total: f64 = work.iter().sum();
    if total <= 0.0 {
        return vec![0.0; work.len()];
    }
    work.iter().map(|w| w / total).collect()
}

/// Manhattan distance between two signatures (range 0..2).
fn signature_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Executes `schedule`, degrading rather than aborting on recoverable
/// faults: a quarantined or terminally failed evaluation returns
/// `Ok(None)`; everything else propagates.
fn run_degradable(
    engine: &EvalEngine,
    app: &dyn ApproxApp,
    input: &InputParams,
    schedule: &PhaseSchedule,
) -> Result<Option<Arc<RunResult>>, OpproxError> {
    match engine.run(app, input, schedule) {
        Ok(result) => Ok(Some(result)),
        Err(e) if degradable_kind(&e).is_some() => Ok(None),
        Err(e) => Err(e),
    }
}

/// Runs one closed-loop adaptive optimization session.
///
/// The offline Algorithm 2 solve seeds the plan (emitting its usual
/// `optimize.*` ledger); the controller then executes it through the
/// engine, walks the realized per-phase work attribution against the
/// model's confidence bands, and re-plans the remaining phases with the
/// remaining budget whenever the observation drifts outside the
/// tolerance-widened band (re-segmenting the boundaries first when the
/// BBV signature moved). With zero drift the returned
/// [`ControlOutcome::plan`] phase sequence is bitwise identical to the
/// offline plan's. A degradable fault (quarantined input, exhausted
/// retries) never aborts the session: the controller reclaims the
/// unspent budget, falls back toward the accurate schedule, and reports
/// `degraded = true` if even that cannot be measured.
///
/// # Errors
///
/// Propagates model-integrity, prediction, and non-degradable runtime
/// errors.
pub fn run_adaptive(
    trained: &TrainedOpprox,
    app: &dyn ApproxApp,
    engine: &EvalEngine,
    input: &InputParams,
    spec: &AccuracySpec,
    options: &ControlOptions,
) -> Result<ControlOutcome, OpproxError> {
    trained.validate_integrity()?;
    let models = trained.models();
    let blocks = trained.blocks();
    let num_blocks = blocks.len();
    let expected = trained.estimate_golden_iters(input)?;
    let tele = engine.telemetry();
    let total_budget = spec.error_budget();

    // The offline pass: one complete Algorithm 2 solve, with its full
    // optimize.* ledger in the same trace as the control ledger.
    let offline = optimize_traced(
        models,
        blocks,
        input,
        spec,
        expected,
        Conservatism::Band,
        Some(tele),
    )?;

    tele.incr("control.sessions");
    let session = (tele.counter_value("control.sessions") - 1) as f64;

    let golden = engine.golden(app, input)?;
    let golden_total = (golden.log.total_work() as f64).max(1.0);
    let mut expected_iters = golden.outer_iters.max(1);

    let mut plan_phases = offline.phases.clone();
    let num_phases = plan_phases.len();
    let mut schedule = schedule_of(&plan_phases, expected_iters)?;

    tele.event(
        "control.start",
        &[
            ("session", session),
            ("budget", total_budget),
            ("phases", num_phases as f64),
            ("tolerance", options.drift_tolerance),
        ],
    );

    let mut steps: Vec<ControlStepRecord> = Vec::with_capacity(num_phases);
    let mut replans = 0usize;
    let mut resegmented_any = false;
    let mut total_reclaimed = 0.0f64;
    let mut total_redistributed = 0.0f64;
    let mut degraded = false;
    // A fault-degrade freezes further re-planning: the schedule is
    // already the safest one we can run, so drift observations are still
    // ledgered but act on nothing.
    let mut frozen = false;
    // Reclaim/redistribute amounts waiting to be stamped onto the next
    // emitted step (used when a fault-degrade re-plan happens before the
    // walk reaches its phase).
    let mut pending_reclaimed = 0.0f64;
    let mut pending_redistributed = 0.0f64;

    // Launch the planned schedule; on a degradable fault reclaim the
    // whole budget and degrade to the accurate schedule outright.
    let mut result = run_degradable(engine, app, input, &schedule)?;
    if result.is_none() {
        let pool = total_budget.max(0.0);
        for plan in &mut plan_phases {
            *plan = PhasePlan::accurate(plan.phase, num_blocks, plan.allocated_budget);
        }
        schedule = schedule_of(&plan_phases, expected_iters)?;
        replans += 1;
        total_reclaimed += pool;
        total_redistributed += pool;
        pending_reclaimed += pool;
        pending_redistributed += pool;
        frozen = true;
        result = run_degradable(engine, app, input, &schedule)?;
        if result.is_none() {
            degraded = true;
        }
    }

    let mut committed_qos = 0.0f64;
    let mut final_run: Option<Arc<RunResult>> = result.clone();
    if let Some(first) = result.as_ref() {
        let mut current = Arc::clone(first);
        for phase in 0..num_phases {
            let (lo, hi) = phase_window(&schedule, phase);
            let golden_work = block_work_in_window(&golden.log, lo, hi, num_blocks);
            let mut observed_work = block_work_in_window(&current.log, lo, hi, num_blocks);
            if let Some(inj) = &options.inject {
                if inj.phase == phase {
                    match inj.block {
                        Some(b) if b < num_blocks => observed_work[b] *= inj.factor,
                        Some(_) => {}
                        None => observed_work.iter_mut().for_each(|w| *w *= inj.factor),
                    }
                }
            }
            let saved: f64 = golden_work.iter().sum::<f64>() - observed_work.iter().sum::<f64>();
            let denom = (golden_total - saved).max(golden_total * 1e-6);
            let observed_speedup = golden_total / denom;

            let config = &plan_phases[phase].config;
            let (point, cons) = models.predict_pair(input, phase, config)?;
            let (point, cons) = (point.speedup.max(1e-9), cons.speedup.max(1e-9));
            let band_lo = cons.min(point);
            // The conservative prediction is the band's lower edge;
            // reflect it around the point estimate in log space for the
            // upper edge.
            let band_hi = point * (point / band_lo);
            let drift = if observed_speedup < band_lo {
                (band_lo - observed_speedup) / band_lo
            } else if observed_speedup > band_hi {
                (observed_speedup - band_hi) / band_hi
            } else {
                0.0
            };
            let mut drifted = drift > options.drift_tolerance;

            // Re-segmentation first: a moved BBV signature means the
            // boundary itself drifted, so re-anchor the partition to the
            // observed iteration count before trusting any suffix plan.
            // The comparison is only meaningful on phases that executed
            // accurately — approximating a phase distorts its block mix
            // by design, which is the drift metric's business, not the
            // boundary detector's.
            let mut resegmented = false;
            if options.resegment && !frozen && plan_phases[phase].config.is_accurate() {
                let dist = signature_distance(&signature(&golden_work), &signature(&observed_work));
                if dist > DEFAULT_RESEGMENT_THRESHOLD {
                    resegmented = true;
                    resegmented_any = true;
                    drifted = true;
                    expected_iters = current.outer_iters.max(1);
                }
            }

            committed_qos += plan_phases[phase].predicted_qos;
            let mut replanned = false;
            let mut reclaimed = std::mem::take(&mut pending_reclaimed);
            let mut redistributed = std::mem::take(&mut pending_redistributed);

            if drifted && !frozen && phase + 1 < num_phases {
                let remaining: Vec<usize> = (phase + 1..num_phases).collect();
                let pool = (total_budget - committed_qos).max(0.0);
                // The offline solve's Algorithm 2 over the suffix, under
                // `control/replan[p]` spans so the re-plan never collides
                // with the `optimize/phase[p]` ledger (audited by
                // X002/X004).
                let visits = divide_budget(
                    models,
                    blocks,
                    input,
                    &remaining,
                    pool,
                    Conservatism::Band,
                    Some((tele, "control/replan")),
                )?;
                for visit in visits {
                    let p = visit.plan.phase;
                    plan_phases[p] = visit.plan;
                }
                let next = schedule_of(&plan_phases, expected_iters)?;
                replanned = true;
                replans += 1;
                reclaimed += pool;
                redistributed += pool;
                total_reclaimed += pool;
                total_redistributed += pool;
                match run_degradable(engine, app, input, &next)? {
                    Some(run) => {
                        schedule = next;
                        current = Arc::clone(&run);
                        final_run = Some(run);
                    }
                    None => {
                        // The re-planned suffix is unrunnable (its key is
                        // quarantined): degrade the suffix to accurate
                        // and freeze. Keeps the executed prefix intact.
                        for &q in &remaining {
                            plan_phases[q] =
                                PhasePlan::accurate(q, num_blocks, plan_phases[q].allocated_budget);
                        }
                        let safe = schedule_of(&plan_phases, expected_iters)?;
                        frozen = true;
                        match run_degradable(engine, app, input, &safe)? {
                            Some(run) => {
                                schedule = safe;
                                current = Arc::clone(&run);
                                final_run = Some(run);
                            }
                            None => {
                                degraded = true;
                            }
                        }
                    }
                }
            }

            let remaining_budget = (total_budget - committed_qos).max(0.0);
            let record = ControlStepRecord {
                step: phase,
                phase,
                observed_speedup,
                predicted_speedup: point,
                band_lo,
                band_hi,
                drift,
                drifted,
                resegmented,
                replanned,
                budget_reclaimed: reclaimed,
                budget_redistributed: redistributed,
                remaining_budget,
            };
            tele.event(
                "control.step",
                &[
                    ("session", session),
                    ("step", record.step as f64),
                    ("phase", record.phase as f64),
                    ("observed_speedup", record.observed_speedup),
                    ("predicted_speedup", record.predicted_speedup),
                    ("band_lo", record.band_lo),
                    ("band_hi", record.band_hi),
                    ("drift", record.drift),
                    ("drifted", f64::from(u8::from(record.drifted))),
                    ("resegmented", f64::from(u8::from(record.resegmented))),
                    ("replanned", f64::from(u8::from(record.replanned))),
                    ("reclaimed", record.budget_reclaimed),
                    ("redistributed", record.budget_redistributed),
                    ("remaining", record.remaining_budget),
                ],
            );
            steps.push(record);
            if degraded {
                break;
            }
        }
    }

    let (predicted_speedup, predicted_qos) = compose(&plan_phases);
    // The measurement describes the schedule as finally executed (the
    // last successful run, which always matches `schedule`).
    let measured = final_run.map(|run| MeasuredOutcome {
        speedup: golden.speedup_over(&run),
        qos: app.qos_degradation(&golden, &run),
        outer_iters: run.outer_iters,
    });

    tele.event(
        "control.plan",
        &[
            ("session", session),
            ("replans", replans as f64),
            ("reclaimed", total_reclaimed),
            ("redistributed", total_redistributed),
            ("predicted_speedup", predicted_speedup),
            ("predicted_qos", predicted_qos),
            ("degraded", f64::from(u8::from(degraded))),
        ],
    );

    let plan = OptimizationPlan {
        phases: plan_phases,
        schedule,
        predicted_speedup,
        predicted_qos,
    };
    Ok(ControlOutcome {
        plan,
        offline,
        steps,
        replans,
        resegmented: resegmented_any,
        budget_reclaimed: total_reclaimed,
        budget_redistributed: total_redistributed,
        measured,
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use opprox_approx_rt::LevelConfig;

    #[test]
    fn drift_spec_parses_and_rejects() {
        let d = DriftInjection::parse("phase=1,factor=4.0").unwrap();
        assert_eq!(d.phase, 1);
        assert_eq!(d.factor, 4.0);
        assert_eq!(d.block, None);
        let d = DriftInjection::parse("phase=0,factor=2.5,block=2").unwrap();
        assert_eq!(d.block, Some(2));
        assert!(DriftInjection::parse("factor=2.0").is_err());
        assert!(DriftInjection::parse("phase=1").is_err());
        assert!(DriftInjection::parse("phase=1,factor=0").is_err());
        assert!(DriftInjection::parse("phase=1,factor=nan").is_err());
        assert!(DriftInjection::parse("phase=1,factor=2,bogus=3").is_err());
    }

    #[test]
    fn phase_windows_partition_and_absorb_overshoot() {
        let schedule = PhaseSchedule::new(vec![LevelConfig::accurate(2); 4], 100).unwrap();
        assert_eq!(phase_window(&schedule, 0), (0, 25));
        assert_eq!(phase_window(&schedule, 1), (25, 50));
        assert_eq!(phase_window(&schedule, 3), (75, u64::MAX));
        for iter in [0, 24, 25, 99, 150] {
            let phase = schedule.phase_of(iter);
            let (lo, hi) = phase_window(&schedule, phase);
            assert!(iter >= lo && iter < hi, "iter {iter} outside its window");
        }
    }

    #[test]
    fn signatures_normalize_and_distance_is_manhattan() {
        let sig = signature(&[2.0, 6.0]);
        assert_eq!(sig, vec![0.25, 0.75]);
        assert_eq!(signature(&[0.0, 0.0]), vec![0.0, 0.0]);
        let d = signature_distance(&[0.25, 0.75], &[0.75, 0.25]);
        assert!((d - 1.0).abs() < 1e-12);
    }
}
