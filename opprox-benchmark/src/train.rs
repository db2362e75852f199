//! The `train_profile` and `train_fit` workloads, and the training steps
//! the other workloads set up with.

use crate::plan::{self, PlanLayers, RequestGen};
use crate::report::Outcome;
use crate::stats::{self, fnv1a, FNV_BASIS};
use crate::trace::Spans;
use crate::Ctx;
use opprox_approx_rt::ApproxApp;
use opprox_core::evaluator::EvalEngine;
use opprox_core::pipeline::{Opprox, TrainedOpprox, TrainingOptions};
use opprox_core::sampling::{collect_training_data_with, SamplingPlan};
use opprox_core::OpproxError;
use opprox_testutil::rng::SplitMix64;
use std::time::Instant;

/// Train reps an untraced run makes at least, however long they take.
const MIN_REPS: usize = 3;

/// Set-up repetitions whose median is `setup_s`: building the apps takes
/// microseconds, so many, for a median that holds still.
const SETUP_REPS: usize = 500;

/// The applications a workload trains, built fresh.
pub fn build_apps(names: &[&str]) -> Vec<Box<dyn ApproxApp>> {
    names
        .iter()
        .map(|name| opprox_apps::registry::by_name(name).expect("a built-in application"))
        .collect()
}

/// Sparse samples per (input, phase) under `--smoke`.
const SMOKE_SPARSE_SAMPLES: usize = 4;

/// The default training options, with the sparse-sampling seed replaced
/// when one is given; `--smoke` cuts the sparse samples.
pub fn options(ctx: &Ctx, sampling_seed: Option<u64>) -> TrainingOptions {
    let mut options = TrainingOptions::default();
    if let Some(seed) = sampling_seed {
        options.sampling.seed = seed;
    }
    if ctx.smoke {
        options.sampling.sparse_samples = SMOKE_SPARSE_SAMPLES;
    }
    options
}

/// Traced training passes a traced run makes at least. Each is paired
/// with an untraced pass, and single pairs differ by the machine's noise
/// rather than by what the decomposition leaves out.
pub const TRACE_PAIRS: usize = 3;

/// The span names that partition a traced training pass.
const TRAIN_SPANS: [&str; 3] = ["sampling", "modeling", "selfcheck"];

/// Counts from the layer-by-layer training passes; their times are the
/// `sampling`, `modeling` and `selfcheck` spans.
#[derive(Debug, Default, Clone)]
pub struct TrainLayers {
    passes: usize,
    base_fit_s: f64,
    combined_fit_s: f64,
    cv_solves: u64,
    executions: u64,
    cache_hits: u64,
    work_units: u64,
    /// Wall time of the traced passes.
    traced_s: f64,
    /// Wall time of the same passes made with one `train_with` call each.
    untraced_s: f64,
    /// Per pair, the untraced pass's time minus its traced twin's spans.
    unattributed_s: Vec<f64>,
}

impl TrainLayers {
    /// Reports per-pass means as the training-layer metrics, and the
    /// trace overhead when `overhead` is set.
    pub fn report(&self, spans: &Spans, out: &mut Outcome, overhead: bool) {
        let n = self.passes.max(1) as f64;
        let (sampling, modeling, selfcheck) = (
            spans.total("sampling"),
            spans.total("modeling"),
            spans.total("selfcheck"),
        );
        out.set("sampling.wall_s", sampling / n);
        out.set(
            "sampling.us_per_exec",
            sampling * 1e6 / self.executions.max(1) as f64,
        );
        out.set("evaluator.executions", self.executions as f64 / n);
        out.set(
            "evaluator.cache_hit_ratio",
            self.cache_hits as f64 / (self.executions + self.cache_hits).max(1) as f64,
        );
        out.set("evaluator.work_units", self.work_units as f64 / n);
        out.set("modeling.wall_s", modeling / n);
        out.set("modeling.base_fit_s", self.base_fit_s / n);
        out.set("modeling.combined_fit_s", self.combined_fit_s / n);
        out.set("modeling.cv_solves", self.cv_solves as f64 / n);
        out.set(
            "modeling.us_per_cv_solve",
            modeling * 1e6 / self.cv_solves.max(1) as f64,
        );
        out.set("selfcheck.wall_s", selfcheck / n);
        let unattributed = stats::median(&self.unattributed_s);
        out.set("train.unattributed_s", unattributed);
        out.note(format!(
            "train pass: {:.3}s untraced, median {:.3}s unattributed ({:.1}%) over {} pairs",
            self.untraced_s / n,
            unattributed,
            100.0 * unattributed * n / self.untraced_s,
            self.passes
        ));
        if overhead {
            out.set(
                "trace.overhead_ratio",
                self.traced_s / self.untraced_s - 1.0,
            );
        }
    }
}

/// `Opprox::train_with` on a fresh engine: the call a user makes.
fn train(
    nproc: usize,
    app: &dyn ApproxApp,
    options: &TrainingOptions,
) -> Result<TrainedOpprox, OpproxError> {
    Opprox::train_with(&EvalEngine::new(nproc), app, options)
}

/// The same training as [`train`], called layer by layer: sampling,
/// model fitting, then the golden-iteration self-check.
fn train_traced(
    spans: &mut Spans,
    layers: &mut TrainLayers,
    nproc: usize,
    app: &dyn ApproxApp,
    options: &TrainingOptions,
) -> Result<TrainedOpprox, OpproxError> {
    let engine = EvalEngine::new(nproc);
    let inputs = app.representative_inputs();
    let num_phases = options
        .num_phases
        .expect("the benchmark trains with a fixed phase count");
    let sampling = SamplingPlan {
        num_phases,
        ..options.sampling
    };
    spans.next_op();
    let trained = spans.span("train", |spans| -> Result<TrainedOpprox, OpproxError> {
        let data = spans.span("sampling", |_| {
            collect_training_data_with(&engine, app, &inputs, &sampling)
        })?;
        let trained = spans.span("modeling", |_| {
            Opprox::train_from_data_traced(
                app,
                &data,
                num_phases,
                &options.modeling,
                Some(engine.telemetry()),
            )
        })?;
        spans.span("selfcheck", |_| -> Result<(), OpproxError> {
            for input in &inputs {
                engine.golden(app, input)?;
                trained.estimate_golden_iters(input)?;
            }
            Ok(())
        })?;
        Ok(trained)
    })?;
    let m = trained.modeling_metrics();
    layers.base_fit_s += m.base_fit_wall_ms * 1e-3;
    layers.combined_fit_s += m.combined_fit_wall_ms * 1e-3;
    layers.cv_solves += m.cv_solves;
    let evals = engine.metrics();
    layers.executions += evals.executions;
    layers.cache_hits += evals.cache_hits;
    layers.work_units += evals.total_work_units;
    Ok(trained)
}

/// One training pass over every app, timed.
pub struct Pass {
    pub models: Vec<TrainedOpprox>,
    pub wall_s: f64,
    pub failed: u64,
}

/// Trains every app once with `train_with`.
pub fn train_all(nproc: usize, apps: &[Box<dyn ApproxApp>], options: &TrainingOptions) -> Pass {
    pass(apps, |app| train(nproc, app, options))
}

/// Trains every app once untraced and once layer by layer, checks that
/// both give the same models, and returns the untraced pass. The first
/// call makes an extra untraced pass, so neither side pays the process's
/// cold start, and the order of the pair alternates between calls.
fn train_all_traced(
    ctx: &mut Ctx,
    out: &mut Outcome,
    layers: &mut TrainLayers,
    apps: &[Box<dyn ApproxApp>],
    options: &TrainingOptions,
) -> Pass {
    let nproc = ctx.nproc;
    if layers.passes == 0 && !ctx.smoke {
        let warmup = train_all(nproc, apps, options);
        out.ops(apps.len() as u64, warmup.failed);
    }
    let traced_first = layers.passes % 2 == 1;
    let spans = ctx.spans.as_mut().expect("a traced run");
    let in_spans = |spans: &Spans| TRAIN_SPANS.iter().map(|s| spans.total(s)).sum::<f64>();
    let before = in_spans(spans);
    let mut traced = || pass(apps, |app| train_traced(spans, layers, nproc, app, options));
    let (untraced, traced) = if traced_first {
        let traced = traced();
        (train_all(nproc, apps, options), traced)
    } else {
        let untraced = train_all(nproc, apps, options);
        (untraced, traced())
    };
    let spans = ctx.spans.as_ref().expect("a traced run");
    layers
        .unattributed_s
        .push(untraced.wall_s - (in_spans(spans) - before));
    out.ops(2 * apps.len() as u64, untraced.failed + traced.failed);
    out.check(to_json(&traced.models) == to_json(&untraced.models), || {
        "the layer-by-layer training produced different models".into()
    });
    layers.passes += 1;
    layers.traced_s += traced.wall_s;
    layers.untraced_s += untraced.wall_s;
    untraced
}

/// [`train_all_traced`] `TRACE_PAIRS` times; returns the last untraced
/// pass.
pub fn train_all_pairs(
    ctx: &mut Ctx,
    out: &mut Outcome,
    layers: &mut TrainLayers,
    apps: &[Box<dyn ApproxApp>],
    options: &TrainingOptions,
) -> Pass {
    let mut pass = train_all_traced(ctx, out, layers, apps, options);
    for _ in 1..ctx.reps(TRACE_PAIRS) {
        pass = train_all_traced(ctx, out, layers, apps, options);
    }
    pass
}

fn pass(
    apps: &[Box<dyn ApproxApp>],
    mut train_one: impl FnMut(&dyn ApproxApp) -> Result<TrainedOpprox, OpproxError>,
) -> Pass {
    let start = Instant::now();
    let mut models = Vec::with_capacity(apps.len());
    let mut failed = 0;
    for app in apps {
        match train_one(app.as_ref()) {
            Ok(t) => models.push(t),
            Err(e) => {
                failed += 1;
                eprintln!("training {} failed: {e}", app.meta().name);
            }
        }
    }
    Pass {
        models,
        wall_s: start.elapsed().as_secs_f64(),
        failed,
    }
}

/// Serialized models, one JSON string per app.
pub fn to_json(models: &[TrainedOpprox]) -> Vec<String> {
    models
        .iter()
        .map(|m| m.to_json().expect("a trained model serializes"))
        .collect()
}

/// Integrity, JSON round trip and digest of a trained model set.
pub fn check_models(out: &mut Outcome, models: &[TrainedOpprox]) -> u64 {
    let mut digest = FNV_BASIS;
    for m in models {
        out.check(m.validate_integrity().is_ok(), || {
            format!("{} fails validate_integrity", m.app_name())
        });
        let json = m.to_json().expect("a trained model serializes");
        let again = TrainedOpprox::from_json(&json).and_then(|back| back.to_json());
        out.check(again.as_deref() == Ok(json.as_str()), || {
            format!(
                "{} does not round-trip through JSON byte-identically",
                m.app_name()
            )
        });
        digest = fnv1a(digest, json.as_bytes());
    }
    digest
}

/// Mean over apps of the per-phase mean of speedup and QoS R².
pub fn model_r2(models: &[TrainedOpprox]) -> f64 {
    let per_app: Vec<f64> = models
        .iter()
        .map(|m| {
            let rows = m.models().accuracy_summary();
            stats::mean(
                &rows
                    .iter()
                    .map(|&(_, s, q)| (s + q) / 2.0)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    stats::mean(&per_app)
}

/// The `train_profile` and `train_fit` workloads: repeated training of
/// `names`, each rep on a fresh engine with its own sampling seed drawn
/// from the workload seed. Training cost depends on the sampled
/// configurations, so a run spreads its reps over many sampling seeds
/// rather than timing one seed's cost over and over.
pub fn run(ctx: &mut Ctx, names: &[&str]) -> Outcome {
    let mut out = Outcome::default();
    let mut times = Vec::new();
    let mut apps = Vec::new();
    for _ in 0..ctx.reps(SETUP_REPS) {
        let start = Instant::now();
        apps = build_apps(names);
        times.push(start.elapsed().as_secs_f64());
    }
    out.set("setup_s", stats::median(&times));
    let min_reps = ctx.reps(if ctx.spans.is_some() {
        TRACE_PAIRS
    } else {
        MIN_REPS
    });

    let mut seeds = SplitMix64::new(ctx.seed);
    let mut samples = Vec::new();
    let mut layers = TrainLayers::default();
    // The first reps' models, whose count does not depend on speed, feed
    // the quality metrics.
    let mut kept: Vec<Vec<TrainedOpprox>> = Vec::new();
    let start = Instant::now();
    while samples.len() < min_reps || start.elapsed().as_secs_f64() < ctx.seconds {
        let options = options(ctx, Some(seeds.next_u64()));
        let pass = if ctx.spans.is_some() {
            train_all_traced(ctx, &mut out, &mut layers, &apps, &options)
        } else {
            let pass = train_all(ctx.nproc, &apps, &options);
            out.ops(apps.len() as u64, pass.failed);
            pass
        };
        samples.push((start.elapsed().as_secs_f64(), pass.wall_s));
        if kept.len() < min_reps {
            kept.push(pass.models);
        }
    }
    out.timings("train reps", &stats::Windowed::of(&mut samples));

    let models: Vec<TrainedOpprox> = kept.into_iter().flatten().collect();
    let model_digest = check_models(&mut out, &models);
    out.set("model_r2", model_r2(&models));

    // Quality plans spread over every kept rep's models.
    let trained: Vec<(&dyn ApproxApp, &TrainedOpprox)> = apps
        .iter()
        .map(|a| a.as_ref())
        .cycle()
        .zip(models.iter())
        .collect();
    let mut gen = RequestGen::new(ctx.seed, trained.iter().map(|(a, _)| *a));
    let mut plan_layers = ctx.spans.is_some().then(PlanLayers::default);
    let plan_digest = plan::quality(
        ctx,
        &mut out,
        &trained,
        &mut gen,
        plan::QUALITY_PLANS,
        plan_layers.as_mut(),
    );
    out.note(format!(
        "digest models={model_digest:#018x} plans={plan_digest:#018x}"
    ));

    if let (Some(spans), Some(plan_layers)) = (&ctx.spans, &plan_layers) {
        layers.report(spans, &mut out, true);
        plan_layers.report(ctx, &mut out, false);
        plan::report_load(ctx, &mut out, &models);
    }
    out.record_peak_rss();
    out
}
