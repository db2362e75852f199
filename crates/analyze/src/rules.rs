//! The rule registry and the semantic lint implementations.
//!
//! Every rule has a stable code: `A0xx` rules are semantic lints run by
//! [`crate::analyze`]; `C0xx` rules are concurrency-correctness rules
//! discharged outside this crate (loom model checks, Miri, TSan — see
//! [`RuleKind`]). Each lint states which artifacts it needs and silently
//! passes when the set lacks them; rule `A013` reports when the
//! predictive lints were skipped for lack of inputs.

use crate::artifact::ArtifactSet;
use crate::diag::{Diagnostic, Report, Severity};
use crate::session::SessionModel;
use opprox_approx_rt::block::BlockId;
use opprox_approx_rt::LevelViolation;
use opprox_core::AccuracySpec;

/// How a rule is discharged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    /// A semantic lint executed by [`crate::analyze`].
    Lint,
    /// An exhaustive loom model check (`crates/core/tests/loom.rs`,
    /// run under `RUSTFLAGS="--cfg loom"` in CI).
    ModelCheck,
    /// A CI job (Miri or ThreadSanitizer) over the pool/evaluator test
    /// subset.
    CiJob,
    /// A cross-artifact audit rule executed by [`crate::audit`]: it
    /// needs two or more linked artifacts of one session, so it cannot
    /// run as a single-artifact lint.
    Audit,
}

/// One registry entry: the stable code, its severity when it fires, and
/// what it checks.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule code (`A001`, ..., `C005`).
    pub code: &'static str,
    /// Severity of the diagnostics the rule emits.
    pub severity: Severity,
    /// How the rule is discharged.
    pub kind: RuleKind,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every rule, in code order. The `C0xx` entries document the
/// concurrency rules so `opprox analyze` output, DESIGN.md, and CI stay
/// in sync; they emit no diagnostics here.
pub(crate) const RULES: &[RuleInfo] = &[
    RuleInfo {
        code: "A001",
        severity: Severity::Error,
        kind: RuleKind::Lint,
        summary: "schedule assigns an approximation level above a block's maximum",
    },
    RuleInfo {
        code: "A002",
        severity: Severity::Error,
        kind: RuleKind::Lint,
        summary: "phase configurations disagree on the block count",
    },
    RuleInfo {
        code: "A003",
        severity: Severity::Error,
        kind: RuleKind::Lint,
        summary: "expected iteration count is zero (or absurdly large: warning)",
    },
    RuleInfo {
        code: "A004",
        severity: Severity::Error,
        kind: RuleKind::Lint,
        summary: "a model coefficient is NaN or infinite",
    },
    RuleInfo {
        code: "A005",
        severity: Severity::Warn,
        kind: RuleKind::Lint,
        summary: "speedup model predicts < 1.0 for the fully accurate configuration",
    },
    RuleInfo {
        code: "A006",
        severity: Severity::Warn,
        kind: RuleKind::Lint,
        summary: "a phase has a non-positive or non-finite ROI (breaks the Alg. 2 budget split)",
    },
    RuleInfo {
        code: "A007",
        severity: Severity::Error,
        kind: RuleKind::Lint,
        summary: "a confidence band is inverted (negative half-width) or has an invalid level",
    },
    RuleInfo {
        code: "A008",
        severity: Severity::Error,
        kind: RuleKind::Lint,
        summary: "schedule is statically infeasible under the spec's budget per the error model",
    },
    RuleInfo {
        code: "A009",
        severity: Severity::Warn,
        kind: RuleKind::Lint,
        summary: "an approximation level is never covered by any training sample",
    },
    RuleInfo {
        code: "A010",
        severity: Severity::Warn,
        kind: RuleKind::Lint,
        summary: "a control-flow class is unreachable through the decision tree",
    },
    RuleInfo {
        code: "A011",
        severity: Severity::Error,
        kind: RuleKind::Lint,
        summary: "accuracy spec's error budget is negative or non-finite",
    },
    RuleInfo {
        code: "A012",
        severity: Severity::Error,
        kind: RuleKind::Lint,
        summary: "model-set shape contradicts its declared dimensions",
    },
    RuleInfo {
        code: "A013",
        severity: Severity::Info,
        kind: RuleKind::Lint,
        summary: "predictive lints (A005/A008) skipped: no inputs available",
    },
    RuleInfo {
        code: "A014",
        severity: Severity::Warn,
        kind: RuleKind::Lint,
        summary: "degraded training dropped too many samples to trust the fitted models",
    },
    RuleInfo {
        code: "A015",
        severity: Severity::Error,
        kind: RuleKind::Lint,
        summary: "robustness report is internally inconsistent (impossible counter relation)",
    },
    RuleInfo {
        code: "A016",
        severity: Severity::Warn,
        kind: RuleKind::Lint,
        summary: "a phase's planned speedup is wildly inconsistent with its profiled ceiling",
    },
    RuleInfo {
        code: "A017",
        severity: Severity::Warn,
        kind: RuleKind::Lint,
        summary: "execution cache hit rate is zero across a non-trivial run",
    },
    RuleInfo {
        code: "A018",
        severity: Severity::Warn,
        kind: RuleKind::Lint,
        summary: "server trace records admission-control events but zero shed responses",
    },
    RuleInfo {
        code: "A020",
        severity: Severity::Warn,
        kind: RuleKind::Lint,
        summary: "adaptive controller re-planned more often than it has phases (thrashing)",
    },
    RuleInfo {
        code: "C001",
        severity: Severity::Error,
        kind: RuleKind::ModelCheck,
        summary: "WorkPool submit/steal/shutdown is exactly-once on every interleaving",
    },
    RuleInfo {
        code: "C002",
        severity: Severity::Error,
        kind: RuleKind::ModelCheck,
        summary: "EvalEngine cache insert/hit races lose no results and converge",
    },
    RuleInfo {
        code: "C003",
        severity: Severity::Error,
        kind: RuleKind::CiJob,
        summary: "Miri finds no undefined behaviour in the pool/evaluator test subset",
    },
    RuleInfo {
        code: "C004",
        severity: Severity::Error,
        kind: RuleKind::CiJob,
        summary: "ThreadSanitizer finds no data races in the pool/evaluator test subset",
    },
    RuleInfo {
        code: "C005",
        severity: Severity::Error,
        kind: RuleKind::ModelCheck,
        summary: "a failed evaluation is never memoized or served from the cache",
    },
    RuleInfo {
        code: "C006",
        severity: Severity::Error,
        kind: RuleKind::ModelCheck,
        summary: "sharded execution cache loses no entries under per-shard locking",
    },
    RuleInfo {
        code: "X001",
        severity: Severity::Warn,
        kind: RuleKind::Audit,
        summary: "realized per-phase speedup stays inside the model's observed band",
    },
    RuleInfo {
        code: "X002",
        severity: Severity::Error,
        kind: RuleKind::Audit,
        summary: "optimize.phase ledger conserves the declared QoS budget",
    },
    RuleInfo {
        code: "X003",
        severity: Severity::Error,
        kind: RuleKind::Audit,
        summary: "per-key evaluation counters telescope to their totals",
    },
    RuleInfo {
        code: "X004",
        severity: Severity::Error,
        kind: RuleKind::Audit,
        summary: "span timeline is a well-formed tree matching its aggregates",
    },
    RuleInfo {
        code: "X005",
        severity: Severity::Error,
        kind: RuleKind::Audit,
        summary: "robustness report agrees with the trace it summarizes",
    },
    RuleInfo {
        code: "X006",
        severity: Severity::Error,
        kind: RuleKind::Audit,
        summary: "every schedule is executable against the session's block set",
    },
    RuleInfo {
        code: "X007",
        severity: Severity::Warn,
        kind: RuleKind::Audit,
        summary: "composed plan prediction follows from its per-phase parts",
    },
    RuleInfo {
        code: "X008",
        severity: Severity::Info,
        kind: RuleKind::Audit,
        summary: "audit coverage: reports rules skipped for missing artifacts",
    },
    RuleInfo {
        code: "X009",
        severity: Severity::Error,
        kind: RuleKind::Audit,
        summary: "control.step ledger conserves budget (Σ reclaimed = Σ redistributed)",
    },
];

/// Registry lookup by code.
pub fn rule(code: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.code == code)
}

/// Threshold above which an expected iteration count is reported as
/// absurd (A003 warning): no modeled application runs 10¹² outer
/// iterations; such a value is a unit error or corruption.
pub(crate) const ABSURD_ITERS: u64 = 1_000_000_000_000;

/// Accurate-configuration speedup below this triggers A005 (when no
/// known input predicts above it): the accurate run *is* the speedup
/// baseline, so a healthy model predicts ≈ 1.0 there; the margin absorbs
/// regression noise and band clamping at the range edge.
pub(crate) const ACCURATE_SPEEDUP_FLOOR: f64 = 0.9;

/// Runs every semantic lint over the set and appends the findings.
pub(crate) fn run_all(set: &ArtifactSet, report: &mut Report) {
    lint_schedule_levels(set, report);
    lint_block_count_mismatch(set, report);
    lint_expected_iters(set, report);
    lint_model_integrity(set, report);
    lint_accurate_speedup(set, report);
    lint_phase_roi(set, report);
    lint_schedule_feasibility(set, report);
    lint_training_coverage(set, report);
    lint_unreachable_classes(set, report);
    lint_spec_budget(set, report);
    lint_drop_rate(set, report);
    lint_robustness_consistency(set, report);
    lint_cache_hit_rate(set, report);
    lint_admission_control_ledger(set, report);
    if let Some(tele) = &set.telemetry {
        let trace = SessionModel::from_trace(tele);
        lint_phase_speedup_consistency(&trace, report);
        lint_controller_thrashing(&trace, report);
    }
    report.sort();
}

pub(crate) fn diag(report: &mut Report, code: &'static str, location: String, message: String) {
    let info = rule(code).expect("registered rule code");
    report.push(Diagnostic {
        code,
        severity: info.severity,
        location,
        message,
    });
}

/// A001 — every phase's levels within each block's `0..=max_level`.
/// Needs a schedule and block descriptors.
fn lint_schedule_levels(set: &ArtifactSet, report: &mut Report) {
    let (Some(schedule), Some(blocks)) = (&set.schedule, set.effective_blocks()) else {
        return;
    };
    for (p, cfg) in schedule.configs().iter().enumerate() {
        for violation in cfg.violations(blocks) {
            // Ragged configs are A002's finding.
            let LevelViolation::Level { block, level, max } = violation else {
                continue;
            };
            let d = &blocks[block];
            diag(
                report,
                "A001",
                format!("schedule.phase[{p}].block[{}]", BlockId(block)),
                format!(
                    "level {level} exceeds max level {max} of block `{}` ({})",
                    d.name, d.technique
                ),
            );
        }
    }
}

/// A002 — all phases cover the same blocks, and as many as the
/// descriptors (or trained model set) declare. Needs a schedule.
fn lint_block_count_mismatch(set: &ArtifactSet, report: &mut Report) {
    let Some(schedule) = &set.schedule else {
        return;
    };
    let configs = schedule.configs();
    let Some(first) = configs.first() else {
        diag(
            report,
            "A002",
            "schedule".into(),
            "schedule has no phases".into(),
        );
        return;
    };
    for (p, cfg) in configs.iter().enumerate().skip(1) {
        if cfg.num_blocks() != first.num_blocks() {
            diag(
                report,
                "A002",
                format!("schedule.phase[{p}]"),
                format!(
                    "covers {} blocks but phase 0 covers {}",
                    cfg.num_blocks(),
                    first.num_blocks()
                ),
            );
        }
    }
    if let Some(blocks) = set.effective_blocks() {
        if first.num_blocks() != blocks.len() {
            diag(
                report,
                "A002",
                "schedule.phase[0]".into(),
                format!(
                    "covers {} blocks but {} blocks are declared",
                    first.num_blocks(),
                    blocks.len()
                ),
            );
        }
    }
}

/// A003 — expected iteration count is positive and plausible. Needs a
/// schedule.
fn lint_expected_iters(set: &ArtifactSet, report: &mut Report) {
    let Some(schedule) = &set.schedule else {
        return;
    };
    let iters = schedule.expected_iters();
    if iters == 0 {
        diag(
            report,
            "A003",
            "schedule.expected_iters".into(),
            "expected iteration count is zero; every iteration would fall into \
             a degenerate phase map"
                .into(),
        );
    } else if iters > ABSURD_ITERS {
        // Same rule, lower severity: a huge count is suspicious, not fatal.
        report.push(Diagnostic {
            code: "A003",
            severity: Severity::Warn,
            location: "schedule.expected_iters".into(),
            message: format!(
                "expected iteration count {iters} exceeds {ABSURD_ITERS}; \
                 likely a unit error or corruption"
            ),
        });
    }
}

/// A004 / A007 / A012 — non-finite coefficients, invalid confidence
/// bands, and shape mismatches, straight from
/// [`opprox_core::pipeline::TrainedOpprox::integrity_issues`]. Needs a
/// trained model set.
fn lint_model_integrity(set: &ArtifactSet, report: &mut Report) {
    let Some(trained) = &set.trained else {
        return;
    };
    for issue in trained.integrity_issues() {
        diag(
            report,
            issue.kind.rule_code(),
            issue.location,
            issue.message,
        );
    }
}

/// A005 — the speedup model must predict ≈ 1.0 for the fully accurate
/// configuration (the accurate run is the baseline). A noisy model can
/// dip below on individual inputs, so the rule fires per phase only when
/// *every* known input predicts below [`ACCURATE_SPEEDUP_FLOOR`]. Needs
/// a trained model set and at least one input ([`ArtifactSet::inputs`]);
/// A013 reports the skip otherwise.
fn lint_accurate_speedup(set: &ArtifactSet, report: &mut Report) {
    let Some(trained) = &set.trained else {
        return;
    };
    if !trained.models().integrity_issues().is_empty() {
        return; // Predictions on corrupt models would be noise.
    }
    let inputs = set.inputs();
    if inputs.is_empty() {
        diag(
            report,
            "A013",
            "models".into(),
            "predictive lint A005 skipped: no training data or registered \
             application to draw inputs from"
                .into(),
        );
        return;
    }
    let accurate = opprox_approx_rt::LevelConfig::accurate(trained.models().num_blocks());
    for phase in 0..trained.models().num_phases() {
        let mut best: Option<f64> = None;
        for input in &inputs {
            let Ok((pred, _)) = trained.models().predict_pair(input, phase, &accurate) else {
                continue; // Arity errors surface through A012.
            };
            best = Some(best.map_or(pred.speedup, |b: f64| b.max(pred.speedup)));
        }
        if let Some(best) = best {
            if best < ACCURATE_SPEEDUP_FLOOR {
                diag(
                    report,
                    "A005",
                    format!("models.phase[{phase}].speedup"),
                    format!(
                        "predicts at most {best:.3}x for the fully accurate \
                         configuration across all {} known inputs (expected \
                         ≈ 1.0): the model is miscalibrated",
                        inputs.len()
                    ),
                );
            }
        }
    }
}

/// A006 — every phase ROI positive and finite; Algorithm 2 splits the
/// budget proportionally to ROI, so a bad value poisons the split.
/// Needs a trained model set.
fn lint_phase_roi(set: &ArtifactSet, report: &mut Report) {
    let Some(trained) = &set.trained else {
        return;
    };
    for (c, class) in trained.models().classes().iter().enumerate() {
        for (p, phase) in class.phases.iter().enumerate() {
            if !(phase.roi.is_finite() && phase.roi > 0.0) {
                diag(
                    report,
                    "A006",
                    format!("models.class[{c}].phase[{p}].roi"),
                    format!(
                        "ROI {} is not a positive finite number; the Alg. 2 \
                         ROI-proportional budget split is undefined",
                        phase.roi
                    ),
                );
            }
        }
    }
}

/// A008 — the schedule's summed conservative QoS prediction must fit
/// the spec's budget for at least one known input. Needs a schedule, a
/// spec, a trained model set, and inputs (A013 reports the skip).
fn lint_schedule_feasibility(set: &ArtifactSet, report: &mut Report) {
    let (Some(schedule), Some(spec), Some(trained)) = (&set.schedule, &set.spec, &set.trained)
    else {
        return;
    };
    if !trained.models().integrity_issues().is_empty() {
        return;
    }
    if AccuracySpec::try_new(spec.error_budget()).is_err() {
        return; // A011's finding; a bad budget makes feasibility moot.
    }
    if schedule.num_phases() != trained.models().num_phases()
        || schedule.num_blocks() != trained.models().num_blocks()
        || schedule
            .configs()
            .iter()
            .any(|c| c.num_blocks() != schedule.num_blocks())
    {
        return; // Shape mismatches are A002/A012 findings.
    }
    let inputs = set.inputs();
    if inputs.is_empty() {
        diag(
            report,
            "A013",
            "schedule".into(),
            "predictive lint A008 skipped: no training data or registered \
             application to draw inputs from"
                .into(),
        );
        return;
    }
    let mut best: Option<f64> = None;
    for input in &inputs {
        let mut total = 0.0f64;
        let mut ok = true;
        for (p, cfg) in schedule.configs().iter().enumerate() {
            if cfg.is_accurate() {
                continue;
            }
            match trained.models().predict_pair(input, p, cfg) {
                Ok((_, pred)) => total += pred.qos,
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            best = Some(best.map_or(total, |b: f64| b.min(total)));
        }
    }
    if let Some(best) = best {
        if best > spec.error_budget() {
            diag(
                report,
                "A008",
                "schedule".into(),
                format!(
                    "statically infeasible: the trained error model predicts at \
                     least {best:.2} QoS degradation for every known input, over \
                     the spec's budget {:.2}",
                    spec.error_budget()
                ),
            );
        }
    }
}

/// A009 — every approximation level of every block appears in at least
/// one training sample; the local models extrapolate blindly at
/// uncovered levels. Needs training data and block descriptors.
fn lint_training_coverage(set: &ArtifactSet, report: &mut Report) {
    let (Some(training), Some(blocks)) = (&set.training, set.effective_blocks()) else {
        return;
    };
    if training.records.is_empty() {
        return; // Nothing sampled at all is InsufficientData, not a gap.
    }
    for (b, block) in blocks.iter().enumerate() {
        let missing: Vec<u8> = (1..=block.max_level)
            .filter(|&l| {
                !training
                    .records
                    .iter()
                    .any(|r| b < r.config.num_blocks() && r.config.level(b) == l)
            })
            .collect();
        if !missing.is_empty() {
            diag(
                report,
                "A009",
                format!("training.block[{}]", BlockId(b)),
                format!(
                    "levels {missing:?} of block `{}` appear in no training \
                     sample; the local model extrapolates there",
                    block.name
                ),
            );
        }
    }
}

/// A010 — every control-flow class reachable through the decision
/// tree's leaves. Needs a trained model set.
fn lint_unreachable_classes(set: &ArtifactSet, report: &mut Report) {
    let Some(trained) = &set.trained else {
        return;
    };
    let cf = trained.models().control_flow();
    let reachable = cf.reachable_classes();
    for class in 0..cf.num_classes() {
        if !reachable.contains(&class) {
            diag(
                report,
                "A010",
                format!("models.control_flow.class[{class}]"),
                format!(
                    "class {class} (signature {:?}) is predicted by no decision-tree \
                     leaf; its per-phase models can never be selected",
                    cf.signature(class)
                ),
            );
        }
    }
}

/// A011 — the spec's budget through [`AccuracySpec::try_new`], the
/// same validation the pipeline applies. Needs a spec.
fn lint_spec_budget(set: &ArtifactSet, report: &mut Report) {
    let Some(spec) = &set.spec else {
        return;
    };
    if let Err(e) = AccuracySpec::try_new(spec.error_budget()) {
        diag(report, "A011", "spec.error_budget".into(), e.to_string());
    }
}

/// Drop rate above this triggers A014: the paper's modeling claim
/// (cross-validated R² ≥ 0.9) is fitted on the full sampling plan;
/// losing more than a tenth of it leaves the models under-determined in
/// the dropped regions.
pub(crate) const MAX_TRUSTED_DROP_RATE: f64 = 0.10;

/// A014 — degraded training must not have dropped so many samples that
/// the fitted models stop being trustworthy. Needs a robustness report
/// that covers training samples.
fn lint_drop_rate(set: &ArtifactSet, report: &mut Report) {
    let Some(rob) = &set.robustness else {
        return;
    };
    if rob.total_samples == 0 {
        return; // No training run covered by this report.
    }
    let rate = rob.drop_rate();
    if rate > MAX_TRUSTED_DROP_RATE {
        diag(
            report,
            "A014",
            "robustness.drop_rate".into(),
            format!(
                "training dropped {}/{} samples ({:.1}% > {:.0}% threshold); \
                 models fitted on the survivors cannot support the R² ≥ 0.9 \
                 modeling claim — retrain or raise the retry budget",
                rob.dropped_samples.len(),
                rob.total_samples,
                100.0 * rate,
                100.0 * MAX_TRUSTED_DROP_RATE,
            ),
        );
    }
    if rob.dropped_inputs > 0 {
        diag(
            report,
            "A014",
            "robustness.dropped_inputs".into(),
            format!(
                "{} input(s) dropped wholesale (their golden runs failed); \
                 the models never saw those regions of the input space",
                rob.dropped_inputs
            ),
        );
    }
}

/// A015 — the report's counters must satisfy the invariants the
/// recovery layer maintains by construction; a violation means the
/// report was corrupted or hand-edited. Needs a robustness report.
fn lint_robustness_consistency(set: &ArtifactSet, report: &mut Report) {
    let Some(rob) = &set.robustness else {
        return;
    };
    if rob.dropped_samples.len() as u64 > rob.total_samples {
        diag(
            report,
            "A015",
            "robustness.dropped_samples".into(),
            format!(
                "{} samples dropped out of only {} requested",
                rob.dropped_samples.len(),
                rob.total_samples
            ),
        );
    }
    if rob.quarantine_hits > 0 && rob.quarantined_keys == 0 {
        diag(
            report,
            "A015",
            "robustness.quarantine_hits".into(),
            format!(
                "{} quarantine hits with zero quarantined keys",
                rob.quarantine_hits
            ),
        );
    }
    if rob.fault_seed.is_none() && rob.injected_faults > 0 {
        diag(
            report,
            "A015",
            "robustness.injected_faults".into(),
            format!(
                "{} faults injected but no fault plan was configured",
                rob.injected_faults
            ),
        );
    }
}

/// A phase's planned speedup may exceed its profiled ceiling by at most
/// this factor before A016 fires: the optimizer interpolates between
/// profiled configurations, so a plan an order of magnitude beyond
/// anything profiling ever measured is model runaway, not interpolation.
pub(crate) const A016_SLACK: f64 = 10.0;

/// A016 — every solve step's predicted speedup must be consistent with
/// the profiled per-phase ceiling (`profile.phase[p].max_speedup`):
/// positive, finite, and within [`A016_SLACK`] of the ceiling. Reads the
/// trace's decoded [`Solve`](crate::session::Solve) steps and profiled
/// ceilings; a step whose phase has no ceiling — e.g. in a model-only
/// `optimize` trace with no profiling — only gets the finiteness check.
fn lint_phase_speedup_consistency(trace: &SessionModel, report: &mut Report) {
    for step in trace.solves.iter().flat_map(|solve| &solve.steps) {
        let (phase, pred) = (step.phase, step.predicted_speedup);
        let location = format!("telemetry.event[{}].optimize.phase[{phase}]", step.seq);
        if !(pred.is_finite() && pred > 0.0) {
            diag(
                report,
                "A016",
                location,
                format!("planned speedup {pred} is not a positive finite number"),
            );
            continue;
        }
        let Some(&ceiling) = trace.profiled_max_speedup.get(&phase) else {
            continue; // No profiling in this trace: nothing to compare.
        };
        if ceiling > 0.0 && pred > ceiling * A016_SLACK {
            diag(
                report,
                "A016",
                location,
                format!(
                    "planned speedup {pred:.2}x is over {A016_SLACK:.0}× the \
                     {ceiling:.2}x ceiling profiling ever measured for phase {phase}; \
                     the phase's model has run away from its training data"
                ),
            );
        }
    }
}

/// Below this many executions a zero hit rate is unremarkable (A017
/// stays silent): tiny runs can legitimately never repeat a
/// configuration.
pub(crate) const A017_MIN_EXECUTIONS: u64 = 20;

/// A017 — a non-trivial run with *zero* cache hits means the execution
/// cache is not deduplicating anything: cache keys are misconfigured
/// (e.g. an unstable input digest) or the sweep re-seeds every request.
/// Healthy training runs always hit (the golden self-check re-requests
/// every golden run). Needs a telemetry report.
fn lint_cache_hit_rate(set: &ArtifactSet, report: &mut Report) {
    let Some(tele) = &set.telemetry else {
        return;
    };
    let execs = tele.counter("eval.exec");
    let hits = tele.counter("eval.cache.hit");
    if execs >= A017_MIN_EXECUTIONS && hits == 0 {
        diag(
            report,
            "A017",
            "telemetry.counter[eval.cache.hit]".into(),
            format!(
                "{execs} executions with zero cache hits; every repeated \
                 configuration re-executed — check the cache-key digest \
                 (unstable hashing defeats deduplication entirely)"
            ),
        );
    }
}

/// A018 — `opprox serve` writes one `serve.admission` event per
/// admission-ledger tick in which load was shed, carrying the shed
/// count, and bumps the `serve.shed` counter once per shed response.
/// Events with a zero counter mean the two halves of the admission ledger disagree: shed
/// responses were recorded as events but never sent (or the counter
/// wiring broke), so clients saw timeouts instead of `overloaded`
/// frames. Needs a telemetry report; non-server traces have no
/// `serve.admission` events and silently pass.
fn lint_admission_control_ledger(set: &ArtifactSet, report: &mut Report) {
    let Some(tele) = &set.telemetry else {
        return;
    };
    let events = tele.events_named("serve.admission");
    if events.is_empty() {
        return;
    }
    let event_shed: f64 = events.iter().map(|e| e.field("shed").unwrap_or(0.0)).sum();
    let counter_shed = tele.counter("serve.shed");
    if event_shed > 0.0 && counter_shed == 0 {
        diag(
            report,
            "A018",
            "telemetry.counter[serve.shed]".into(),
            format!(
                "{} admission-control event(s) record {event_shed:.0} shed \
                 request(s) but the serve.shed counter is zero; the \
                 admission ledger's two halves disagree — shed responses \
                 were never delivered or the counter wiring broke",
                events.len()
            ),
        );
    }
}

/// A020 — the adaptive controller walks each phase once and can re-plan
/// at most once per phase visited, so a session whose re-plan count
/// exceeds its declared phase count is thrashing: every drift check
/// fires, each re-plan immediately drifts again, and the controller is
/// churning the optimizer instead of converging on a schedule. The
/// count is taken from both halves of the ledger — `replanned` flags on
/// `control.step` events and the closing `control.plan` summary — so a
/// corrupted summary is caught even when the steps look sane. Reads the
/// trace's decoded [`ControlSession`](crate::session::ControlSession)s;
/// sessions without a declared phase count silently pass.
fn lint_controller_thrashing(trace: &SessionModel, report: &mut Report) {
    for control in &trace.controls {
        let Some(phases) = control.declared_phases else {
            continue;
        };
        let step_replans = control.steps.iter().filter(|s| s.replanned).count() as f64;
        let replans = step_replans.max(control.replans.unwrap_or(0.0));
        if replans > phases as f64 {
            diag(
                report,
                "A020",
                format!("telemetry.event[control.start session={}]", control.id),
                format!(
                    "controller re-planned {replans:.0} times across {phases} \
                     declared phases; the walk re-plans at most once per phase, \
                     so more re-plans than phases means the drift check fires on \
                     every step and the controller is thrashing instead of \
                     converging"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_codes_are_unique_and_ordered() {
        let codes: Vec<&str> = RULES.iter().map(|r| r.code).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes, sorted, "codes unique and in order");
        assert!(rule("A001").is_some());
        assert!(rule("C005").is_some());
        assert!(rule("X001").is_some());
        assert!(rule("Z999").is_none());
    }

    #[test]
    fn every_registered_code_is_catalogued_in_design_md() {
        let design = include_str!("../../../DESIGN.md");
        for r in RULES {
            assert!(
                design.contains(&format!("| {} ", r.code)),
                "{} has no catalog row in DESIGN.md",
                r.code
            );
        }
    }

    #[test]
    fn audit_rules_are_audits_and_only_they_are() {
        for r in RULES {
            assert_eq!(
                r.code.starts_with('X'),
                r.kind == RuleKind::Audit,
                "{}: the X prefix and the Audit kind must coincide",
                r.code
            );
        }
    }

    #[test]
    fn concurrency_rules_are_not_lints() {
        for r in RULES.iter().filter(|r| r.code.starts_with('C')) {
            assert_ne!(
                r.kind,
                RuleKind::Lint,
                "{} is discharged externally",
                r.code
            );
        }
        for r in RULES.iter().filter(|r| r.code.starts_with('A')) {
            assert_eq!(r.kind, RuleKind::Lint, "{} is a lint", r.code);
        }
    }

    #[test]
    fn telemetry_lints_fire_on_seeded_defects_and_pass_healthy_traces() {
        use opprox_core::Telemetry;

        // Healthy: plan within the profiled ceiling, cache hits present.
        let t = Telemetry::new();
        t.set_gauge("profile.phase[0].max_speedup", 1.8);
        t.event(
            "optimize.phase",
            &[("solve", 0.0), ("phase", 0.0), ("predicted_speedup", 1.5)],
        );
        for _ in 0..30 {
            t.incr("eval.exec");
        }
        t.incr("eval.cache.hit");
        let set = ArtifactSet {
            telemetry: Some(t.report()),
            ..ArtifactSet::default()
        };
        let mut report = crate::Report::new();
        run_all(&set, &mut report);
        assert_eq!(report.diagnostics().len(), 0, "{:?}", report.diagnostics());

        // Broken: runaway plan (50x vs 1.2x profiled) and zero hits.
        let t = Telemetry::new();
        t.set_gauge("profile.phase[0].max_speedup", 1.2);
        t.event(
            "optimize.phase",
            &[("solve", 0.0), ("phase", 0.0), ("predicted_speedup", 50.0)],
        );
        t.event(
            "optimize.phase",
            &[
                ("solve", 0.0),
                ("phase", 1.0),
                ("predicted_speedup", f64::NAN),
            ],
        );
        for _ in 0..A017_MIN_EXECUTIONS {
            t.incr("eval.exec");
        }
        let set = ArtifactSet {
            telemetry: Some(t.report()),
            ..ArtifactSet::default()
        };
        let mut report = crate::Report::new();
        run_all(&set, &mut report);
        let codes: Vec<&str> = report.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            ["A016", "A016", "A017"],
            "{:?}",
            report.diagnostics()
        );
        assert_eq!(report.warnings(), 3);

        // Below the execution floor, a zero hit rate stays silent, and a
        // plan event with no profiled ceiling has nothing to compare.
        let t = Telemetry::new();
        t.incr("eval.exec");
        t.event(
            "optimize.phase",
            &[("solve", 0.0), ("phase", 3.0), ("predicted_speedup", 99.0)],
        );
        let set = ArtifactSet {
            telemetry: Some(t.report()),
            ..ArtifactSet::default()
        };
        let mut report = crate::Report::new();
        run_all(&set, &mut report);
        assert_eq!(report.diagnostics().len(), 0, "{:?}", report.diagnostics());
    }

    #[test]
    fn admission_ledger_lint_fires_only_on_disagreement() {
        use opprox_core::Telemetry;

        // Consistent server trace: shed events with a matching counter.
        let t = Telemetry::new();
        t.event(
            "serve.admission",
            &[("shed", 2.0), ("queue_limit", 4.0), ("queue_depth", 4.0)],
        );
        t.incr("serve.shed");
        t.incr("serve.shed");
        let set = ArtifactSet {
            telemetry: Some(t.report()),
            ..ArtifactSet::default()
        };
        let mut report = crate::Report::new();
        run_all(&set, &mut report);
        assert_eq!(report.diagnostics().len(), 0, "{:?}", report.diagnostics());

        // Broken: events claim sheds, counter never moved.
        let t = Telemetry::new();
        t.event(
            "serve.admission",
            &[("shed", 3.0), ("queue_limit", 4.0), ("queue_depth", 4.0)],
        );
        let set = ArtifactSet {
            telemetry: Some(t.report()),
            ..ArtifactSet::default()
        };
        let mut report = crate::Report::new();
        run_all(&set, &mut report);
        let codes: Vec<&str> = report.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(codes, ["A018"], "{:?}", report.diagnostics());

        // A non-server trace has no admission events: silent.
        let t = Telemetry::new();
        t.incr("eval.exec");
        let set = ArtifactSet {
            telemetry: Some(t.report()),
            ..ArtifactSet::default()
        };
        let mut report = crate::Report::new();
        run_all(&set, &mut report);
        assert_eq!(report.diagnostics().len(), 0, "{:?}", report.diagnostics());
    }
}
