//! The `plan` workload, the seeded request generator, the layer-by-layer
//! plan decomposition, and the plan-quality check every workload runs.

use crate::report::Outcome;
use crate::stats::{self, fnv1a, FNV_BASIS};
use crate::trace::Spans;
use crate::train::{self, TrainLayers};
use crate::Ctx;
use opprox_approx_rt::{ApproxApp, InputParams};
use opprox_core::evaluator::EvalEngine;
use opprox_core::optimizer::{optimize_traced, Conservatism, OptimizationPlan};
use opprox_core::pipeline::TrainedOpprox;
use opprox_core::request::OptimizeRequest;
use opprox_core::spec::AccuracySpec;
use opprox_core::telemetry::Telemetry;
use opprox_core::OpproxError;
use opprox_testutil::rng::SplitMix64;
use std::collections::BTreeMap;
use std::time::Instant;

/// Apps the plan workload trains in set-up. LULESH's 1296-config space
/// sets the latency tail; the other three solve in well under a
/// millisecond.
const PLAN_APPS: [&str; 4] = ["PSO", "LULESH", "StreamAgg", "PageRank"];

/// Budget range of generated requests; drawn log-uniformly, so tight
/// budgets (whole phases pruned at the root) are as common as loose ones
/// (deep search).
pub const BUDGET_RANGE: (f64, f64) = (1.0, 40.0);

/// Plans executed after the timed loop to measure delivered speedup;
/// enough that the share meeting the budget moves by under 3% between
/// seeds.
pub const QUALITY_PLANS: usize = 256;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;

/// Loads of each artifact timed for `pipeline.load_ms`.
const LOAD_REPS: usize = 5;

/// One optimize request: an app (index into the workload's app list), one
/// of its representative inputs, and a QoS budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub app: usize,
    pub input: InputParams,
    pub budget: f64,
}

/// The seeded request sequence.
pub struct RequestGen {
    rng: SplitMix64,
    inputs: Vec<Vec<InputParams>>,
}

impl RequestGen {
    /// Requests over `apps`; a request's `app` indexes this sequence.
    pub fn new<'a>(seed: u64, apps: impl IntoIterator<Item = &'a dyn ApproxApp>) -> Self {
        RequestGen {
            rng: SplitMix64::new(seed ^ 0x5EED_0F9A_7500),
            inputs: apps
                .into_iter()
                .map(|a| a.representative_inputs())
                .collect(),
        }
    }

    /// A budget drawn log-uniformly from [`BUDGET_RANGE`].
    pub fn budget(rng: &mut SplitMix64) -> f64 {
        let (lo, hi) = BUDGET_RANGE;
        lo * (hi / lo).powf(rng.next_f64())
    }

    /// A request for a random app.
    pub fn next_request(&mut self) -> Request {
        let app = self.rng.next_below(self.inputs.len() as u64) as usize;
        self.next_request_for(app)
    }

    /// A request for `app`, with a random input and budget.
    pub fn next_request_for(&mut self, app: usize) -> Request {
        let inputs = &self.inputs[app];
        let input = inputs[self.rng.next_below(inputs.len() as u64) as usize].clone();
        Request {
            app,
            input,
            budget: Self::budget(&mut self.rng),
        }
    }
}

/// Runs one request the way a user does.
pub fn solve(model: &TrainedOpprox, req: &Request) -> Result<OptimizationPlan, OpproxError> {
    let spec = AccuracySpec::try_new(req.budget)?;
    Ok(OptimizeRequest::new(req.input.clone(), spec)
        .run(model)?
        .plan)
}

/// Counts from the layer-by-layer solves; their times are the
/// `request.*` and `optimizer.solve` spans.
#[derive(Debug, Default)]
pub struct PlanLayers {
    solves: u64,
    visited: f64,
    evaluated: f64,
    pruned: f64,
    space: f64,
    /// Wall time of each untraced `OptimizeRequest::run`.
    untraced_s: Vec<f64>,
    /// Wall time of each layer-by-layer solve.
    traced_s: Vec<f64>,
    /// Solve seconds per app name.
    by_app: BTreeMap<String, Vec<f64>>,
}

impl PlanLayers {
    /// Solves `req` untraced and layer by layer, in alternating order,
    /// checks that both give the same plan, and returns the untraced plan.
    pub fn solve(
        &mut self,
        ctx: &mut Ctx,
        out: &mut Outcome,
        model: &TrainedOpprox,
        req: &Request,
    ) -> Result<OptimizationPlan, OpproxError> {
        let spans = ctx.spans.as_mut().expect("a traced run");
        let (plan, traced) = if self.solves.is_multiple_of(2) {
            let plan = self.untraced(model, req);
            (plan, self.traced(spans, model, req))
        } else {
            let traced = self.traced(spans, model, req);
            (self.untraced(model, req), traced)
        };
        self.solves += 1;
        let plan = plan?;
        out.check(traced.as_ref() == Ok(&plan), || {
            format!("the layer-by-layer solve of {req:?} differs from OptimizeRequest::run")
        });
        Ok(plan)
    }

    fn untraced(
        &mut self,
        model: &TrainedOpprox,
        req: &Request,
    ) -> Result<OptimizationPlan, OpproxError> {
        let start = Instant::now();
        let plan = solve(model, req);
        self.untraced_s.push(start.elapsed().as_secs_f64());
        plan
    }

    /// `OptimizeRequest::run`'s model-only path, one layer per span.
    fn traced(
        &mut self,
        spans: &mut Spans,
        model: &TrainedOpprox,
        req: &Request,
    ) -> Result<OptimizationPlan, OpproxError> {
        spans.next_op();
        let start = Instant::now();
        let traced = spans.span("plan", |spans| -> Result<OptimizationPlan, OpproxError> {
            spans.span("request.integrity", |_| model.validate_integrity())?;
            let expected =
                spans.span("request.iters", |_| model.estimate_golden_iters(&req.input))?;
            let spec = AccuracySpec::try_new(req.budget)?;
            let tele = Telemetry::new();
            let plan = spans.span("optimizer.solve", |_| {
                optimize_traced(
                    model.models(),
                    model.blocks(),
                    &req.input,
                    &spec,
                    expected,
                    Conservatism::Band,
                    Some(&tele),
                )
            })?;
            for event in tele.report().events_named("optimize.phase") {
                let field = |k: &str| event.field(k).unwrap_or(0.0);
                self.visited += field("visited");
                self.evaluated += field("evaluated");
                self.pruned += field("pruned");
                self.space += field("space");
            }
            Ok(plan)
        });
        self.traced_s.push(start.elapsed().as_secs_f64());
        if let Some(solve_s) = spans.last("optimizer.solve") {
            self.by_app
                .entry(model.app_name().to_string())
                .or_default()
                .push(solve_s);
        }
        traced
    }

    /// Reports the plan-layer metrics, and the trace overhead when
    /// `overhead` is set.
    pub fn report(&self, ctx: &Ctx, out: &mut Outcome, overhead: bool) {
        let spans = ctx.spans.as_ref().expect("a traced run");
        let us = |name: &str| stats::mean(&spans.seconds(name)) * 1e6;
        let (integrity, iters, solve) = (
            us("request.integrity"),
            us("request.iters"),
            us("optimizer.solve"),
        );
        out.set("request.integrity_us", integrity);
        out.set("request.iters_us", iters);
        out.set("optimizer.solve_us", solve);
        let solves = spans.seconds("optimizer.solve");
        let (tail_pct, tail) = stats::tail(&solves);
        out.set("optimizer.solve_tail_us", tail * 1e6);
        let n = self.solves.max(1) as f64;
        out.set("optimizer.visited", self.visited / n);
        out.set("optimizer.evaluated", self.evaluated / n);
        out.set("optimizer.prune_ratio", self.pruned / self.visited.max(1.0));
        out.set("optimizer.eval_ratio", self.evaluated / self.space.max(1.0));
        let run_us = stats::mean(&self.untraced_s) * 1e6;
        let unattributed = run_us - integrity - iters - solve;
        out.set("plan.unattributed_us", unattributed);
        out.note(format!(
            "plan request: {run_us:.1}us untraced, {unattributed:.1}us unattributed ({:.1}%), \
             solve tail p{}={:.1}us over n={}",
            100.0 * unattributed / run_us,
            tail_pct,
            tail * 1e6,
            solves.len()
        ));
        for (app, secs) in &self.by_app {
            out.note(format!(
                "  solve {app}: mean {:.1}us over n={}",
                stats::mean(secs) * 1e6,
                secs.len()
            ));
        }
        if overhead {
            let traced: f64 = self.traced_s.iter().sum();
            let untraced: f64 = self.untraced_s.iter().sum();
            out.set("trace.overhead_ratio", traced / untraced - 1.0);
        }
    }
}

/// The plan-quality check: solves the next `count` seeded requests,
/// checks every Band plan's predicted QoS against its budget, executes
/// each plan against its golden run, and reports the geometric-mean
/// measured speedup and the share of plans whose measured QoS met the
/// budget. Given `layers`, the solves also go layer by layer. Returns the
/// digest of the plans' levels.
pub fn quality(
    ctx: &mut Ctx,
    out: &mut Outcome,
    trained: &[(&dyn ApproxApp, &TrainedOpprox)],
    gen: &mut RequestGen,
    count: usize,
    mut layers: Option<&mut PlanLayers>,
) -> u64 {
    let engine = EvalEngine::new(ctx.nproc);
    let mut speedups = Vec::new();
    let mut met = 0usize;
    let mut digest = FNV_BASIS;
    for _ in 0..ctx.reps(count) {
        let req = gen.next_request();
        let (app, model) = trained[req.app];
        let plan = match layers.as_deref_mut() {
            Some(layers) => layers.solve(ctx, out, model, &req),
            None => solve(model, &req),
        };
        let measured = plan.and_then(|plan| {
            check_band(out, &req, &plan);
            digest = digest_levels(digest, &plan);
            model.evaluate_with(&engine, app, &req.input, &plan)
        });
        match measured {
            Ok(m) => {
                out.check(m.speedup.is_finite() && m.speedup > 0.0, || {
                    format!("plan for {req:?} measured speedup {}", m.speedup)
                });
                speedups.push(m.speedup.max(f64::MIN_POSITIVE));
                met += usize::from(m.qos <= req.budget);
                out.ops(1, 0);
            }
            Err(e) => {
                eprintln!("plan check for {req:?} failed: {e}");
                out.ops(1, 1);
            }
        }
    }
    if !speedups.is_empty() {
        out.set("plan_speedup", stats::geomean(&speedups));
        out.set("plan_qos_met", met as f64 / speedups.len() as f64);
    }
    out.note(format!(
        "plan quality: {} plans, {met} met their budget, {} executions",
        speedups.len(),
        engine.metrics().executions
    ));
    digest
}

/// A Band plan never predicts more QoS loss than its budget.
pub fn check_band(out: &mut Outcome, req: &Request, plan: &OptimizationPlan) {
    out.check(plan.predicted_qos <= req.budget, || {
        format!(
            "plan for {req:?} predicts QoS {} over its budget",
            plan.predicted_qos
        )
    });
}

/// Folds a plan's per-phase levels into a digest.
pub fn digest_levels(digest: u64, plan: &OptimizationPlan) -> u64 {
    plan.schedule
        .configs()
        .iter()
        .fold(fnv1a(digest, b"|"), |d, c| fnv1a(d, c.levels()))
}

/// Writes each model as an artifact file and times `TrainedOpprox::load`
/// on it: read, parse and integrity check.
pub fn report_load(ctx: &Ctx, out: &mut Outcome, models: &[TrainedOpprox]) {
    let mut times = Vec::new();
    for model in models {
        let path = ctx
            .scratch
            .join(format!("{}.json", model.app_name().to_ascii_lowercase()));
        let json = model.to_json().expect("a trained model serializes");
        std::fs::write(&path, &json).expect("the scratch directory is writable");
        for _ in 0..LOAD_REPS {
            let start = Instant::now();
            let loaded = TrainedOpprox::load(&path);
            times.push(start.elapsed().as_secs_f64());
            out.check(
                loaded.and_then(|m| m.to_json()).as_deref() == Ok(json.as_str()),
                || format!("{} does not load back from its artifact", model.app_name()),
            );
        }
    }
    out.set("pipeline.load_ms", stats::mean(&times) * 1e3);
}

/// Trains the plan workload's apps: its set-up.
fn setup(
    ctx: &mut Ctx,
    out: &mut Outcome,
    layers: Option<&mut TrainLayers>,
) -> (Vec<Box<dyn ApproxApp>>, train::Pass) {
    let options = train::options(ctx, None);
    let apps = train::build_apps(&PLAN_APPS);
    let pass = match layers {
        Some(layers) => train::train_all_pairs(ctx, out, layers, &apps, &options),
        None => {
            let pass = train::train_all(ctx.nproc, &apps, &options);
            out.ops(apps.len() as u64, pass.failed);
            pass
        }
    };
    (apps, pass)
}

/// The `plan` workload: sequential model-only solves of seeded requests
/// against four trained apps, on one thread.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut train_layers = TrainLayers::default();
    let traced = ctx.spans.is_some();
    let start = Instant::now();
    let (apps, pass) = setup(ctx, &mut out, traced.then_some(&mut train_layers));
    let mut setup_s = vec![start.elapsed().as_secs_f64()];
    let models = pass.models;
    let model_digest = train::check_models(&mut out, &models);
    out.set("model_r2", train::model_r2(&models));
    let trained: Vec<(&dyn ApproxApp, &TrainedOpprox)> =
        apps.iter().map(|a| a.as_ref()).zip(models.iter()).collect();

    let mut gen = RequestGen::new(ctx.seed, apps.iter().map(|a| a.as_ref()));
    let mut samples = Vec::new();
    let mut layers = PlanLayers::default();
    let mut failed = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let req = gen.next_request();
        let model = &models[req.app];
        let plan = if ctx.spans.is_some() {
            layers.solve(ctx, &mut out, model, &req)
        } else {
            let t = Instant::now();
            let plan = solve(model, &req);
            samples.push((start.elapsed().as_secs_f64(), t.elapsed().as_secs_f64()));
            plan
        };
        match plan {
            Ok(plan) => check_band(&mut out, &req, &plan),
            Err(e) => {
                failed += 1;
                eprintln!("solve of {req:?} failed: {e}");
            }
        }
    }
    out.ops(samples.len().max(layers.solves as usize) as u64, failed);
    if !samples.is_empty() {
        out.timings("plan solves", &stats::Windowed::of(&mut samples));
    }

    // The quality plans are the first requests of the timed sequence.
    let mut gen = RequestGen::new(ctx.seed, apps.iter().map(|a| a.as_ref()));
    let plan_digest = quality(ctx, &mut out, &trained, &mut gen, QUALITY_PLANS, None);
    out.note(format!(
        "digest models={model_digest:#018x} plans={plan_digest:#018x}"
    ));
    if let Some(spans) = &ctx.spans {
        train_layers.report(spans, &mut out, false);
        layers.report(ctx, &mut out, true);
        report_load(ctx, &mut out, &models);
        return out;
    }

    // Set up again only once the memory peak is read: every repeat
    // leaves the allocator holding a different amount of freed memory.
    out.record_peak_rss();
    for _ in 1..ctx.reps(SETUP_REPS) {
        let start = Instant::now();
        let (_, again) = setup(ctx, &mut out, None);
        setup_s.push(start.elapsed().as_secs_f64());
        let digest = train::check_models(&mut out, &again.models);
        out.check(digest == model_digest, || {
            "set-up trained different models".into()
        });
    }
    out.set("setup_s", stats::median(&setup_s));
    out
}
