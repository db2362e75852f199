//! Cross-artifact audit rules (`X001`+).
//!
//! Where the `A`-series lints judge one artifact in isolation, the
//! `X`-series checks that *pairs* of artifacts from the same run agree:
//! a trace's realized per-phase speedups must sit inside the trained
//! model's observed band (X001), the `optimize.phase` event ledger must
//! conserve the declared budget (X002), the per-key evaluation counters
//! must telescope to their totals (X003), the span timeline must be a
//! well-formed tree that matches its aggregates (X004), a robustness
//! report must agree with the trace it summarizes (X005), a schedule
//! must be executable against the model's block set (X006), and the
//! composed plan prediction must follow from its per-phase parts
//! (X007). X008 reports which of these could not run because the
//! session lacks an artifact, and the adaptive controller's
//! `control.step` budget ledger must conserve what it reclaims (X009).
//!
//! All iteration is over `Vec`s and `BTreeMap`s in deterministic order
//! and the report is sorted before rendering, so audit output is
//! byte-identical across thread counts and reruns of the same session.

use crate::diag::Report;
use crate::rules::diag;
use crate::session::{Session, SessionModel, Solve};
use opprox_approx_rt::LevelViolation;
use opprox_core::optimizer::compose;

/// Default relative tolerance for rule `X001` drift: a realized
/// per-phase speedup may exceed the model's observed band by this
/// fraction before the audit flags it.
pub const DEFAULT_DRIFT_TOLERANCE: f64 = 0.25;

/// Relative slack for exact-by-construction floating-point identities
/// (budget telescoping, plan composition). Values are recomputed from
/// the same f64 inputs, so only rounding noise is tolerated.
const EPS: f64 = 1e-6;

fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS * a.abs().max(b.abs()).max(1.0)
}

/// Runs every applicable cross-artifact rule over the session.
pub(crate) fn run_audit(session: &Session, tolerance: f64, report: &mut Report) {
    let model = session.resolve();
    let has_trace = session.telemetry.is_some();

    let trace = "a telemetry trace";
    let trained = "a trained model set";
    if session.trained.is_some() && has_trace {
        check_x001(session, &model, tolerance, report);
    } else {
        let mut needs = Vec::new();
        if session.trained.is_none() {
            needs.push(trained);
        }
        if !has_trace {
            needs.push(trace);
        }
        skipped(report, "X001", &needs.join(" and "));
    }
    if has_trace {
        check_x002(&model, report);
        check_x003(session, &model, report);
        check_x004(session, &model, report);
    } else {
        for code in ["X002", "X003", "X004"] {
            skipped(report, code, trace);
        }
    }
    if session.robustness.is_some() && has_trace {
        check_x005(session, &model, report);
    } else {
        let mut needs = Vec::new();
        if session.robustness.is_none() {
            needs.push("a robustness report");
        }
        if !has_trace {
            needs.push(trace);
        }
        skipped(report, "X005", &needs.join(" and "));
    }
    if !session.schedules.is_empty() && session.effective_blocks().is_some() {
        check_x006(session, report);
    } else {
        let mut needs = Vec::new();
        if session.schedules.is_empty() {
            needs.push("a phase schedule");
        }
        if session.effective_blocks().is_none() {
            needs.push("a block set (or trained model)");
        }
        skipped(report, "X006", &needs.join(" and "));
    }
    if has_trace {
        check_x007(&model, report);
        check_x009(&model, report);
    } else {
        skipped(report, "X007", trace);
        skipped(report, "X009", trace);
    }
}

fn skipped(report: &mut Report, code: &str, needs: &str) {
    diag(
        report,
        "X008",
        "session".to_string(),
        format!("{code} skipped: the session lacks {needs}"),
    );
}

/// X001: realized per-phase speedup vs. the model's observed band.
///
/// The profiler publishes `profile.phase[p].max_speedup` gauges; the
/// trained model records the observed `(min, max)` speedup of every
/// class-phase bucket. The realized maximum must fall inside the union
/// band over classes, widened by `tolerance` on each side — outside it,
/// the deployment has drifted from the conditions the model was fit
/// under and its predictions are extrapolations.
fn check_x001(session: &Session, model: &SessionModel, tolerance: f64, report: &mut Report) {
    let trained = session.trained.as_ref().expect("gated by caller");
    let num_phases = trained.num_phases();
    for (&phase, &realized) in &model.profiled_max_speedup {
        let location = format!("trace.gauge[profile.phase[{phase}].max_speedup]");
        if phase >= num_phases {
            diag(
                report,
                "X001",
                location,
                format!(
                    "trace profiles phase {phase} but the trained model \
                     has only {num_phases} phases"
                ),
            );
            continue;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for class in trained.models().classes() {
            if let Some(pm) = class.phases.get(phase) {
                lo = lo.min(pm.speedup_range.0);
                hi = hi.max(pm.speedup_range.1);
            }
        }
        if !(lo.is_finite() && hi.is_finite()) {
            continue;
        }
        let band_lo = lo * (1.0 - tolerance);
        let band_hi = hi * (1.0 + tolerance);
        if realized > band_hi || realized < band_lo {
            diag(
                report,
                "X001",
                location,
                format!(
                    "realized max speedup {realized:.4} for phase {phase} is outside \
                     the model's observed band [{lo:.4}, {hi:.4}] widened by \
                     tolerance {tolerance} to [{band_lo:.4}, {band_hi:.4}]"
                ),
            );
        }
    }
}

/// X002: budget conservation across the `optimize.phase` ledger.
fn check_x002(model: &SessionModel, report: &mut Report) {
    for solve in &model.solves {
        if solve.steps.is_empty() {
            continue;
        }
        let at =
            |step: usize| format!("trace.event[optimize.phase solve={} step={step}]", solve.id);
        for (i, step) in solve.steps.iter().enumerate() {
            if step.step != i {
                diag(
                    report,
                    "X002",
                    at(i),
                    format!(
                        "step fields are not contiguous: event {i} of solve {} \
                         carries step={}",
                        solve.id, step.step
                    ),
                );
            }
        }
        check_x002_phase_cover(solve, report);
        for (i, step) in solve.steps.iter().enumerate() {
            let expect_in = if i == 0 {
                0.0
            } else {
                solve.steps[i - 1].leftover_out
            };
            if !approx_eq(step.leftover_in, expect_in) {
                diag(
                    report,
                    "X002",
                    at(i),
                    format!(
                        "leftover_in {} does not match the {} ({expect_in})",
                        step.leftover_in,
                        if i == 0 {
                            "zero a solve starts with"
                        } else {
                            "previous step's leftover_out"
                        }
                    ),
                );
            }
            let expect_out = (step.allocated - step.predicted_qos).max(0.0);
            if !approx_eq(step.leftover_out, expect_out) {
                diag(
                    report,
                    "X002",
                    at(i),
                    format!(
                        "leftover_out {} does not equal max(0, allocated - predicted_qos) \
                         = {expect_out}",
                        step.leftover_out
                    ),
                );
            }
            if i > 0 && step.roi > solve.steps[i - 1].roi * (1.0 + EPS) {
                diag(
                    report,
                    "X002",
                    at(i),
                    format!(
                        "roi {} exceeds the previous step's {} — the ledger is not \
                         in decreasing-ROI visit order",
                        step.roi,
                        solve.steps[i - 1].roi
                    ),
                );
            }
        }
        if let Some(budget) = solve.budget {
            let spent: f64 = solve
                .steps
                .iter()
                .map(|s| s.allocated - s.leftover_in)
                .sum();
            if !approx_eq(spent, budget) {
                diag(
                    report,
                    "X002",
                    format!("trace.event[optimize.start solve={}]", solve.id),
                    format!(
                        "per-phase allocations minus rolled-over leftovers sum to \
                         {spent} but the solve declared a budget of {budget}"
                    ),
                );
            }
        }
    }
}

fn check_x002_phase_cover(solve: &Solve, report: &mut Report) {
    let Some(declared) = solve.declared_phases else {
        return;
    };
    let location = format!("trace.event[optimize.start solve={}]", solve.id);
    if solve.steps.len() != declared {
        diag(
            report,
            "X002",
            location,
            format!(
                "solve declared {declared} phases but the ledger has {} \
                 optimize.phase events",
                solve.steps.len()
            ),
        );
        return;
    }
    let mut seen = vec![0usize; declared];
    for step in &solve.steps {
        match seen.get_mut(step.phase) {
            Some(n) => *n += 1,
            None => diag(
                report,
                "X002",
                location.clone(),
                format!(
                    "ledger visits phase {} which is outside the declared \
                     range 0..{declared}",
                    step.phase
                ),
            ),
        }
    }
    for (phase, &n) in seen.iter().enumerate() {
        if n != 1 {
            diag(
                report,
                "X002",
                location.clone(),
                format!("ledger visits phase {phase} {n} times; each phase is visited once"),
            );
        }
    }
}

/// X003: cache-counter and per-phase scan-count consistency.
fn check_x003(session: &Session, model: &SessionModel, report: &mut Report) {
    let tele = session.telemetry.as_ref().expect("gated by caller");
    for (total_name, keys) in [
        ("eval.exec", &model.exec_keys),
        ("eval.cache.hit", &model.hit_keys),
        ("eval.golden.exec", &model.golden_keys),
        ("eval.quarantine.hit", &model.quarantine_keys),
    ] {
        let total = tele.counter(total_name);
        let sum: u64 = keys.values().sum();
        if total != sum {
            diag(
                report,
                "X003",
                format!("trace.counter[{total_name}]"),
                format!(
                    "total counter {total_name}={total} but its per-key ledger \
                     sums to {sum} over {} keys",
                    keys.len()
                ),
            );
        }
    }
    for (&digest, &hits) in &model.quarantine_keys {
        if hits > 0 && model.hit_keys.get(&digest).copied().unwrap_or(0) > 0 {
            diag(
                report,
                "X003",
                format!("trace.counter[eval.quarantine[{digest:#018x}]]"),
                format!(
                    "key {digest:#018x} has both quarantine hits and cache hits; \
                     failed evaluations are never memoized, so a quarantined key \
                     cannot also have served a cached success"
                ),
            );
        }
    }
    for solve in &model.solves {
        for step in &solve.steps {
            if let (Some(evaluated), Some(space)) = (step.evaluated, step.space) {
                if evaluated > space {
                    diag(
                        report,
                        "X003",
                        format!(
                            "trace.event[optimize.phase solve={} step={}]",
                            solve.id, step.step
                        ),
                        format!(
                            "search reports {evaluated} evaluated leaf configurations \
                             in a space of {space}"
                        ),
                    );
                }
            }
        }
    }
}

/// X004: span-tree well-formedness, aggregate agreement, and
/// golden-once-per-key.
fn check_x004(session: &Session, model: &SessionModel, report: &mut Report) {
    let tele = session.telemetry.as_ref().expect("gated by caller");

    // Completion order: the timeline appends when a span *ends*, so end
    // timestamps are non-decreasing.
    let mut prev_end = 0u64;
    for (i, rec) in tele.timeline.iter().enumerate() {
        let end = rec.start_micros + rec.duration_micros;
        if end < prev_end {
            diag(
                report,
                "X004",
                format!("trace.timeline[{i}]"),
                format!(
                    "span {} ends at {end}us, before the previously completed \
                     span's {prev_end}us — the timeline is not in completion order",
                    rec.path
                ),
            );
        }
        prev_end = prev_end.max(end);
    }

    // Nest-or-disjoint: spans come from scoped guards on call stacks, so
    // two spans either nest or do not overlap. Sort by (start, -end) and
    // sweep with a stack of open intervals.
    let mut intervals: Vec<(u64, u64, &str)> = tele
        .timeline
        .iter()
        .map(|r| {
            (
                r.start_micros,
                r.start_micros + r.duration_micros,
                r.path.as_str(),
            )
        })
        .collect();
    intervals.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    let mut open: Vec<(u64, u64, &str)> = Vec::new();
    for (start, end, path) in intervals {
        while open.last().is_some_and(|&(_, top_end, _)| top_end <= start) {
            open.pop();
        }
        if let Some(&(top_start, top_end, top_path)) = open.last() {
            if end > top_end {
                diag(
                    report,
                    "X004",
                    format!("trace.span[{path}]"),
                    format!(
                        "span [{start}us, {end}us] partially overlaps {top_path} \
                         [{top_start}us, {top_end}us]; spans must nest or be disjoint"
                    ),
                );
            }
        }
        open.push((start, end, path));
    }

    // Aggregates are derived from the same occurrences the timeline
    // records, so per-path counts and totals must match exactly.
    let mut derived: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for rec in &tele.timeline {
        let e = derived.entry(rec.path.as_str()).or_default();
        e.0 += 1;
        e.1 += rec.duration_micros;
    }
    for stat in &tele.spans {
        let (count, total) = derived.remove(stat.path.as_str()).unwrap_or((0, 0));
        if stat.count != count || stat.total_micros != total {
            diag(
                report,
                "X004",
                format!("trace.span[{}]", stat.path),
                format!(
                    "aggregate records count={} total={}us but the timeline has \
                     {count} occurrences totalling {total}us",
                    stat.count, stat.total_micros
                ),
            );
        }
    }
    for (path, (count, _)) in derived {
        diag(
            report,
            "X004",
            format!("trace.span[{path}]"),
            format!("timeline has {count} occurrences of a span missing from the aggregates"),
        );
    }

    // Golden runs are memoized: a key's accurate-schedule evaluation
    // executes exactly once; repeats mean the cache was bypassed.
    for (&digest, &count) in &model.golden_keys {
        if count != 1 {
            diag(
                report,
                "X004",
                format!("trace.counter[eval.golden.exec[{digest:#018x}]]"),
                format!("golden evaluation for key {digest:#018x} executed {count} times"),
            );
        }
    }

    // Phase spans ↔ phase events: optimize_traced wraps each phase visit
    // in an `optimize/phase[p]` span and emits one `optimize.phase` event
    // for it, so the counts agree per phase id.
    let mut event_phases: std::collections::BTreeMap<usize, u64> = Default::default();
    for solve in &model.solves {
        for step in &solve.steps {
            *event_phases.entry(step.phase).or_default() += 1;
        }
    }
    let phase_ids: std::collections::BTreeSet<usize> = model
        .phase_spans
        .keys()
        .chain(event_phases.keys())
        .copied()
        .collect();
    for phase in phase_ids {
        let spans = model.phase_spans.get(&phase).copied().unwrap_or(0);
        let events = event_phases.get(&phase).copied().unwrap_or(0);
        if spans != events {
            diag(
                report,
                "X004",
                format!("trace.span[optimize/phase[{phase}]]"),
                format!(
                    "phase {phase} has {spans} optimize/phase spans but {events} \
                     optimize.phase ledger events"
                ),
            );
        }
    }
}

/// X005: robustness report ↔ trace agreement.
fn check_x005(session: &Session, model: &SessionModel, report: &mut Report) {
    let tele = session.telemetry.as_ref().expect("gated by caller");
    let rob = session.robustness.as_ref().expect("gated by caller");
    if tele.counters_with_prefix("eval.").is_empty() && tele.counter("sampling.requested") == 0 {
        skipped(report, "X005", "evaluation counters in the trace");
        return;
    }
    let checks = [
        ("eval.quarantined", "quarantined_keys", rob.quarantined_keys),
        (
            "eval.quarantine.hit",
            "quarantine_hits",
            rob.quarantine_hits,
        ),
    ];
    for (counter, field, value) in checks {
        let traced = tele.counter(counter);
        if traced != value {
            diag(
                report,
                "X005",
                format!("robustness.{field}"),
                format!(
                    "robustness report records {field}={value} but the trace \
                     counter {counter}={traced}"
                ),
            );
        }
    }
    let distinct = model.quarantine_keys.len() as u64;
    if distinct > rob.quarantined_keys {
        diag(
            report,
            "X005",
            "robustness.quarantined_keys".to_string(),
            format!(
                "trace has quarantine hits on {distinct} distinct keys but the \
                 robustness report quarantined only {}",
                rob.quarantined_keys
            ),
        );
    }
    let requested = tele.counter("sampling.requested");
    if (requested > 0 || rob.total_samples > 0) && requested != rob.total_samples {
        diag(
            report,
            "X005",
            "robustness.total_samples".to_string(),
            format!(
                "robustness report's drop-rate denominator total_samples={} \
                 disagrees with the trace counter sampling.requested={requested}",
                rob.total_samples
            ),
        );
    }
}

/// X006: schedule ↔ model/block coverage.
fn check_x006(session: &Session, report: &mut Report) {
    let blocks = session.effective_blocks().expect("gated by caller");
    for (i, schedule) in session.schedules.iter().enumerate() {
        if let Some(trained) = &session.trained {
            if schedule.num_phases() != trained.num_phases() {
                diag(
                    report,
                    "X006",
                    format!("schedule[{i}]"),
                    format!(
                        "schedule has {} phases but the trained model has {}",
                        schedule.num_phases(),
                        trained.num_phases()
                    ),
                );
            }
        }
        for (phase, config) in schedule.configs().iter().enumerate() {
            for violation in config.violations(blocks) {
                match violation {
                    LevelViolation::BlockCount { expected, actual } => {
                        diag(
                            report,
                            "X006",
                            format!("schedule[{i}].phase[{phase}]"),
                            format!(
                                "config sets {actual} block levels but the block set has {expected}"
                            ),
                        );
                        break;
                    }
                    LevelViolation::Level { block, level, max } => diag(
                        report,
                        "X006",
                        format!("schedule[{i}].phase[{phase}].block[{block}]"),
                        format!(
                            "level {level} exceeds block '{}' max_level {max}",
                            blocks[block].name
                        ),
                    ),
                }
            }
        }
    }
}

/// X009: the adaptive controller's `control.step` ledger conserves
/// budget. At every re-plan step the controller reclaims the unspent
/// remainder and immediately redistributes all of it across the
/// remaining phases, so per step and over the whole session
/// Σ reclaimed = Σ redistributed holds exactly by construction — a
/// mismatch means budget leaked out of (or was conjured into) the
/// feedback loop and the re-planned schedule's QoS constraint is
/// untrustworthy. The closing `control.plan` totals must agree with the
/// step sums for the same reason. Traces without controller events
/// silently pass.
fn check_x009(model: &SessionModel, report: &mut Report) {
    for control in &model.controls {
        if control.steps.is_empty() {
            continue;
        }
        let reclaimed: f64 = control.steps.iter().map(|s| s.reclaimed).sum();
        let redistributed: f64 = control.steps.iter().map(|s| s.redistributed).sum();
        let location = format!("trace.event[control.start session={}]", control.id);
        if !approx_eq(reclaimed, redistributed) {
            diag(
                report,
                "X009",
                location.clone(),
                format!(
                    "controller ledger leaks budget: the control.step events \
                     reclaim {reclaimed} but redistribute {redistributed}; the \
                     loop redistributes exactly what it reclaims, so the trace \
                     is corrupt or the feedback loop dropped budget"
                ),
            );
        }
        if let Some((plan_reclaimed, plan_redistributed)) = control.totals {
            if !approx_eq(plan_reclaimed, reclaimed)
                || !approx_eq(plan_redistributed, redistributed)
            {
                diag(
                    report,
                    "X009",
                    format!("trace.event[control.plan session={}]", control.id),
                    format!(
                        "control.plan totals (reclaimed {plan_reclaimed}, \
                         redistributed {plan_redistributed}) disagree with the \
                         step ledger sums ({reclaimed}, {redistributed})"
                    ),
                );
            }
        }
        if let Some(declared) = control.declared_phases {
            if control.steps.len() > declared {
                diag(
                    report,
                    "X009",
                    location,
                    format!(
                        "session declared {declared} phases but the ledger has \
                         {} control.step events; the walk emits at most one \
                         step per phase",
                        control.steps.len()
                    ),
                );
            }
        }
    }
}

/// X007: the composed plan prediction follows from its per-phase parts,
/// recomposed in phase order with [`compose`].
fn check_x007(model: &SessionModel, report: &mut Report) {
    for solve in &model.solves {
        let Some((plan_speedup, plan_qos)) = solve.plan else {
            continue;
        };
        if solve.steps.is_empty() {
            continue;
        }
        let mut by_phase = solve.steps.clone();
        by_phase.sort_by_key(|s| s.phase);
        let pairs = by_phase
            .iter()
            .map(|s| (s.predicted_speedup, s.predicted_qos));
        let (speedup, qos) = compose(pairs);
        let location = format!("trace.event[optimize.plan solve={}]", solve.id);
        if !approx_eq(speedup, plan_speedup) {
            diag(
                report,
                "X007",
                location.clone(),
                format!(
                    "plan predicts speedup {plan_speedup} but composing the \
                     per-phase ledger gives {speedup}"
                ),
            );
        }
        if !approx_eq(qos, plan_qos) {
            diag(
                report,
                "X007",
                location,
                format!(
                    "plan predicts QoS degradation {plan_qos} but the per-phase \
                     ledger sums to {qos}"
                ),
            );
        }
    }
}
