//! Performance and error models (paper Sec. 3.6–3.7).
//!
//! For every control-flow class and every phase, OPPROX fits three
//! polynomial-regression models:
//!
//! 1. an **iteration-count estimator** over the input parameters and the
//!    approximation levels (the number of outer-loop iterations can
//!    depend on internal approximations, as in LULESH);
//! 2. a **speedup model** and
//! 3. a **QoS-degradation model**, each built in two steps: *local*
//!    models per approximable block (level + input parameters → target,
//!    trained on the exhaustive per-block sweeps), then a *combined*
//!    model over the local predictions plus the estimated iteration
//!    count, trained on the sparse multi-block samples.
//!
//! Every model goes through the [`opprox_ml::model_select`] pipeline:
//! MIC feature filtering, degree escalation under 10-fold
//! cross-validation, optional sub-model splitting, and an empirical
//! confidence band. Predictions used by the optimizer are conservative:
//! the upper band limit for QoS degradation and the lower limit for
//! speedup.

use crate::control_flow::ControlFlowModel;
use crate::error::OpproxError;
use crate::pool::WorkPool;
use crate::sampling::{GoldenRecord, SampleRecord, TrainingData};
use crate::telemetry::Telemetry;
use opprox_approx_rt::{InputParams, LevelConfig};
use opprox_ml::fitmetrics::{FitCounters, MAX_TRACKED_DEGREE};
use opprox_ml::model_select::{AutoFitConfig, TargetModel};
use opprox_ml::polyreg::PredictScratch;
use opprox_ml::{Dataset, MlError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Floor applied to QoS degradations when computing ROI ratios, so
/// near-zero-error samples do not produce unbounded ROI.
pub(crate) const ROI_QOS_FLOOR: f64 = 1.0;

/// One half of the `(point, conservative)` pair predicted for one
/// (phase, input, configuration) by [`AppModels::predict_pair`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Speedup estimate; the lower band edge in the conservative half.
    pub speedup: f64,
    /// QoS-degradation estimate, clamped ≥ 0; the upper band edge in the
    /// conservative half.
    pub qos: f64,
    /// Estimated outer-loop iteration count.
    pub iters: f64,
}

/// The target transform a two-step model is fitted under.
///
/// QoS degradations span several orders of magnitude (a mild perforation
/// may cost 0.1%, a destabilized run 10⁵%), and speedups are ratios;
/// both are modeled in log space, where polynomials fit well and the
/// empirical confidence bands stay meaningful. The transforms are
/// monotone, so band bounds map through the inverse directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum TargetTransform {
    /// `y ↦ ln(1 + y)` — for non-negative, heavy-tailed QoS values.
    Log1p,
    /// `y ↦ ln(max(y, 1e-6))` — for strictly positive ratios (speedup).
    Ln,
}

impl TargetTransform {
    fn forward(self, y: f64) -> f64 {
        match self {
            TargetTransform::Log1p => y.max(0.0).ln_1p(),
            TargetTransform::Ln => y.max(1e-6).ln(),
        }
    }

    fn inverse(self, t: f64) -> f64 {
        match self {
            TargetTransform::Log1p => t.exp_m1().max(0.0),
            TargetTransform::Ln => t.exp(),
        }
    }
}

/// The paper's two-step model: per-block local models feeding a combined
/// model (together with the estimated iteration count), fitted under a
/// target transform (identity or log).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TwoStepModel {
    locals: Vec<TargetModel>,
    combined: TargetModel,
    transform: TargetTransform,
    /// Observed target range in transformed space; point predictions are
    /// clamped into it before the confidence band is applied, so corner
    /// extrapolations of the polynomial cannot claim impossible values.
    range_t: (f64, f64),
}

impl TwoStepModel {
    /// Point-and-band prediction in original units, one configuration at
    /// a time: the scalar reference for [`Self::predict_full_batch`].
    /// Returns `(point, lower, upper)`.
    fn predict_full(
        &self,
        input: &InputParams,
        config: &LevelConfig,
        est_iters_ln: f64,
    ) -> Result<(f64, f64, f64), OpproxError> {
        let local_row = |b: usize| {
            let mut row = input.values().to_vec();
            row.push(config.level(b) as f64);
            row
        };
        let (raw, half) = match self.sole_block(config) {
            Some(b) => self.locals[b].predict_with_half(&local_row(b))?,
            None => {
                let mut features = (0..self.locals.len())
                    .map(|b| self.locals[b].predict(&local_row(b)))
                    .collect::<Result<Vec<f64>, _>>()?;
                features.push(est_iters_ln);
                self.combined.predict_with_half(&features)?
            }
        };
        Ok(self.band_triple(raw, half))
    }

    /// Batched [`Self::predict_full`]: one `(point, lower, upper)` triple
    /// per configuration, computed with one flat prediction pass per
    /// underlying model. Bit-identical to the per-row path.
    fn predict_full_batch(
        &self,
        input: &InputParams,
        configs: &[LevelConfig],
        iters_ln: &[f64],
        scratch: &mut PredictScratch,
    ) -> Result<Vec<(f64, f64, f64)>, OpproxError> {
        let n = configs.len();
        let num_blocks = self.locals.len();
        let row_len = input.len() + 1;
        let mut flat = Vec::with_capacity(n * row_len);
        let mut local_preds: Vec<Vec<f64>> = Vec::with_capacity(num_blocks);
        let mut local_halves: Vec<Vec<f64>> = Vec::with_capacity(num_blocks);
        for (b, local) in self.locals.iter().enumerate() {
            flat.clear();
            for c in configs {
                flat.extend_from_slice(input.values());
                flat.push(c.level(b) as f64);
            }
            let mut out = Vec::with_capacity(n);
            let mut halves = Vec::with_capacity(n);
            local.predict_batch_into(&flat, row_len, &mut out, Some(&mut halves), scratch)?;
            local_preds.push(out);
            local_halves.push(halves);
        }

        flat.clear();
        for i in 0..n {
            for preds in &local_preds {
                flat.push(preds[i]);
            }
            flat.push(iters_ln[i]);
        }
        let mut combined = Vec::with_capacity(n);
        let mut combined_halves = Vec::with_capacity(n);
        self.combined.predict_batch_into(
            &flat,
            num_blocks + 1,
            &mut combined,
            Some(&mut combined_halves),
            scratch,
        )?;

        Ok(configs
            .iter()
            .enumerate()
            .map(|(i, c)| match self.sole_block(c) {
                Some(b) => self.band_triple(local_preds[b][i], local_halves[b][i]),
                None => self.band_triple(combined[i], combined_halves[i]),
            })
            .collect())
    }

    /// The one block `config` approximates, if it approximates exactly
    /// one. Such a configuration is exactly what the local models were
    /// trained on (the exhaustive per-block sweeps); their prediction is
    /// strictly more faithful than the combined model's re-fit, so both
    /// prediction paths use it directly.
    fn sole_block(&self, config: &LevelConfig) -> Option<usize> {
        let mut nonzero = (0..self.locals.len()).filter(|&b| config.level(b) > 0);
        match (nonzero.next(), nonzero.next()) {
            (Some(b), None) => Some(b),
            _ => None,
        }
    }

    /// Turns a transformed-space prediction `raw` and its band half-width
    /// into `(point, lower, upper)` in original units. The point is
    /// clamped into the observed range before the band is applied; the
    /// half is re-derived as `(raw + half) - raw`, the rounding both
    /// paths share. A NaN `raw` comes back as NaN in all three (the
    /// `Log1p` inverse would floor it to 0) so the caller can refuse it.
    fn band_triple(&self, raw: f64, half_width: f64) -> (f64, f64, f64) {
        if raw.is_nan() {
            return (raw, raw, raw);
        }
        let half = ((raw + half_width) - raw).max(0.0);
        let point = clamp_to(raw, self.range_t.0, self.range_t.1);
        (
            self.transform.inverse(point),
            self.transform.inverse(point - half),
            self.transform.inverse(point + half),
        )
    }

    /// Cross-validated R² of the combined model (in transformed space).
    pub(crate) fn combined_r2(&self) -> f64 {
        self.combined.cv_r2()
    }
}

/// All models for one phase of one control-flow class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseModels {
    /// Iteration-count estimator (features: params + levels).
    pub iters: TargetModel,
    /// Two-step speedup model.
    pub speedup: TwoStepModel,
    /// Two-step QoS-degradation model.
    pub qos: TwoStepModel,
    /// Return on investment of this phase (mean speedup per unit QoS
    /// degradation over the training samples, Eq. 1).
    pub roi: f64,
    /// Observed `(min, max)` speedup in this phase's training samples;
    /// predictions are clamped into it to keep polynomial extrapolation
    /// honest.
    pub speedup_range: (f64, f64),
    /// Observed `(min, max)` QoS degradation in this phase's samples.
    pub qos_range: (f64, f64),
}

impl PhaseModels {
    /// Clamps a speedup into the observed range, widened to include the
    /// accurate run's 1.0.
    fn clamp_speedup(&self, speedup: f64) -> f64 {
        clamp_to(speedup, self.speedup_range.0.min(1.0), self.speedup_range.1)
    }

    /// Clamps a QoS degradation into `[0, observed max]`.
    fn clamp_qos(&self, qos: f64) -> f64 {
        clamp_to(qos, 0.0, self.qos_range.1).max(0.0)
    }

    /// The one projection from model outputs to the `(point,
    /// conservative)` prediction pair, shared by the scalar and batched
    /// paths. It applies the paper's band rule: the conservative speedup
    /// is the lower band edge and the conservative QoS the upper one, so
    /// the optimizer never overstates benefit or understates error. Both
    /// are clamped to the observed range.
    ///
    /// # Errors
    ///
    /// Returns [`OpproxError::Model`] with [`MlError::Numeric`] naming
    /// `phase` when any output is NaN (a polynomial that overflowed far
    /// outside the training range): clamping would silently turn it into
    /// a zero-degradation bound.
    fn project(
        &self,
        phase: usize,
        speedup: (f64, f64, f64),
        qos: (f64, f64, f64),
        iters_ln: f64,
    ) -> Result<(Prediction, Prediction), OpproxError> {
        let (s, q) = (speedup, qos);
        let outputs = [s.0, s.1, s.2, q.0, q.1, q.2, iters_ln];
        if outputs.iter().any(|v| v.is_nan()) {
            return Err(OpproxError::Model(MlError::Numeric(format!(
                "phase {phase} models predict NaN (input far outside the training range?)"
            ))));
        }
        let iters = iters_ln.exp().max(1.0);
        let point = Prediction {
            speedup: self.clamp_speedup(s.0),
            qos: self.clamp_qos(q.0),
            iters,
        };
        let conservative = Prediction {
            speedup: self.clamp_speedup(s.1).max(0.01),
            qos: self.clamp_qos(q.2),
            iters,
        };
        Ok((point, conservative))
    }
}

/// All models for one control-flow class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassModels {
    /// Per-phase models, indexed by phase.
    pub phases: Vec<PhaseModels>,
}

/// The complete trained model set for an application.
#[derive(Debug, Clone)]
pub struct AppModels {
    control_flow: ControlFlowModel,
    classes: Vec<ClassModels>,
    num_phases: usize,
    num_blocks: usize,
    num_params: usize,
    /// Training-run statistics. Wall times are machine-dependent, so the
    /// field is excluded from serialization (see the hand-written impls
    /// below): serialized model sets stay bit-reproducible across machines
    /// and thread counts.
    metrics: ModelingMetrics,
}

// The vendored serde derive has no `#[serde(skip)]`, so these are the
// derive expansion minus the `metrics` field.
impl Serialize for AppModels {
    fn to_value(&self) -> serde::value::Value {
        serde::value::Value::Object(vec![
            ("control_flow".to_string(), self.control_flow.to_value()),
            ("classes".to_string(), self.classes.to_value()),
            ("num_phases".to_string(), self.num_phases.to_value()),
            ("num_blocks".to_string(), self.num_blocks.to_value()),
            ("num_params".to_string(), self.num_params.to_value()),
        ])
    }
}

impl Deserialize for AppModels {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::DeError> {
        let entries = serde::__private::as_object(v, "AppModels")?;
        Ok(AppModels {
            control_flow: serde::__private::field(entries, "control_flow", "AppModels")?,
            classes: serde::__private::field(entries, "classes", "AppModels")?,
            num_phases: serde::__private::field(entries, "num_phases", "AppModels")?,
            num_blocks: serde::__private::field(entries, "num_blocks", "AppModels")?,
            num_params: serde::__private::field(entries, "num_params", "AppModels")?,
            metrics: ModelingMetrics::default(),
        })
    }
}

/// Options for model fitting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelingOptions {
    /// Auto-fit configuration shared by all models.
    pub autofit: AutoFitConfig,
    /// Worker-thread bound for the parallel fit fan-out; `None` uses the
    /// machine's available parallelism. The fitted models are identical
    /// for every thread count.
    pub threads: Option<usize>,
}

impl Default for ModelingOptions {
    fn default() -> Self {
        ModelingOptions {
            autofit: AutoFitConfig {
                // Degrees 2..4 keep training fast; the paper saw 2..6.
                max_degree: 4,
                // The paper uses p = 0.99; our simulated applications have
                // heavier-tailed QoS noise (hard stability cliffs), where
                // the p99 residual is one catastrophic outlier and would
                // veto every configuration. p = 0.9 keeps the band
                // conservative without being degenerate.
                confidence_level: 0.9,
                ..AutoFitConfig::default()
            },
            threads: None,
        }
    }
}

/// Statistics of one model-training run, printed by the CLI next to the
/// evaluation-engine metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ModelingMetrics {
    /// `TargetModel` fits attempted across all stages (including sub-model
    /// splitting attempts).
    pub fits_attempted: u64,
    /// Cross-validation linear-system solves performed.
    pub cv_solves: u64,
    /// Polynomial degrees evaluated during escalation.
    pub degrees_tried: u64,
    /// Worker threads used for the fit fan-out.
    pub threads: usize,
    /// Wall time of the iteration-estimator and local-model stage.
    pub base_fit_wall_ms: f64,
    /// Wall time of the combined-model stage.
    pub combined_fit_wall_ms: f64,
    /// Total wall time of [`AppModels::fit`].
    pub total_wall_ms: f64,
}

impl ModelingMetrics {
    /// The registry readings a view is computed from: the `ml.*`
    /// counters, then the `fit/base`, `fit/combined` and `fit` span
    /// totals in microseconds.
    fn ledger(tele: &Telemetry) -> [u64; 6] {
        [
            tele.counter_value("ml.fits_attempted"),
            tele.counter_value("ml.cv_solves"),
            tele.counter_value("ml.degrees_tried"),
            tele.span_micros("fit/base"),
            tele.span_micros("fit/combined"),
            tele.span_micros("fit"),
        ]
    }

    /// The view of one fit: the change in the ledger since `before`,
    /// plus the `ml.threads` gauge.
    fn since(tele: &Telemetry, before: [u64; 6]) -> Self {
        let after = Self::ledger(tele);
        let delta = |i: usize| after[i] - before[i];
        let ms = |i: usize| delta(i) as f64 / 1e3;
        ModelingMetrics {
            fits_attempted: delta(0),
            cv_solves: delta(1),
            degrees_tried: delta(2),
            threads: tele.gauge_last("ml.threads").map_or(0, |t| t as usize),
            base_fit_wall_ms: ms(3),
            combined_fit_wall_ms: ms(4),
            total_wall_ms: ms(5),
        }
    }
}

impl fmt::Display for ModelingMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "modeling: {} fits, {} CV solves, {} degrees tried, {} threads",
            self.fits_attempted, self.cv_solves, self.degrees_tried, self.threads
        )?;
        writeln!(
            f,
            "  stage {:<12} {:>10.1} ms",
            "base-fit", self.base_fit_wall_ms
        )?;
        writeln!(
            f,
            "  stage {:<12} {:>10.1} ms",
            "combined-fit", self.combined_fit_wall_ms
        )?;
        writeln!(f, "  stage {:<12} {:>10.1} ms", "total", self.total_wall_ms)
    }
}

impl AppModels {
    /// Fits the full model set from training data.
    ///
    /// # Errors
    ///
    /// Returns [`OpproxError::InsufficientData`] when a (class, phase)
    /// bucket has too few samples, and propagates fitting errors.
    pub fn fit(
        data: &TrainingData,
        num_phases: usize,
        options: &ModelingOptions,
    ) -> Result<Self, OpproxError> {
        Self::fit_traced(data, num_phases, options, None)
    }

    /// [`AppModels::fit`] recording into a telemetry registry (a private
    /// one when `telemetry` is `None`): the whole fit and its two fan-out
    /// stages become spans (`fit`, `fit/base`, `fit/combined`), the fit
    /// counters land in `ml.fits_attempted`, `ml.cv_solves`,
    /// `ml.degrees_tried` and `ml.folds_clamped`, the pool width in the `ml.threads` gauge, and
    /// the per-degree CV-solve counts feed the fixed-bucket
    /// `ml.cv_solves_per_degree` histogram. [`AppModels::metrics`] is
    /// read back from the registry as the change over this fit.
    ///
    /// # Errors
    ///
    /// Same as [`AppModels::fit`].
    pub(crate) fn fit_traced(
        data: &TrainingData,
        num_phases: usize,
        options: &ModelingOptions,
        telemetry: Option<&Telemetry>,
    ) -> Result<Self, OpproxError> {
        let private = Telemetry::new();
        let tele = telemetry.unwrap_or(&private);
        let before = ModelingMetrics::ledger(tele);
        let mut models = tele.span("fit", || Self::fit_into(data, num_phases, options, tele))?;
        models.metrics = ModelingMetrics::since(tele, before);
        Ok(models)
    }

    /// The body of [`AppModels::fit_traced`], recording into `tele`.
    fn fit_into(
        data: &TrainingData,
        num_phases: usize,
        options: &ModelingOptions,
        tele: &Telemetry,
    ) -> Result<Self, OpproxError> {
        let control_flow = ControlFlowModel::learn(data)?;
        let first = data
            .records
            .first()
            .ok_or_else(|| OpproxError::InsufficientData("no samples collected".into()))?;
        let num_blocks = first.config.num_blocks();
        let num_params = first.input.len();
        let param_names: Vec<String> = (0..num_params).map(|i| format!("param{i}")).collect();

        // Assign each record to the control-flow class of its input's
        // golden run.
        let class_of_input = |input: &InputParams| -> usize {
            data.golden_for(input)
                .and_then(|g| control_flow.class_of_signature(&g.control_flow))
                .unwrap_or(0)
        };

        // Bucket the samples per (class, phase) up front so every fit job
        // below is independent of the others.
        struct Bucket<'a> {
            records: Vec<&'a SampleRecord>,
            goldens: Vec<&'a GoldenRecord>,
        }
        let num_classes = control_flow.num_classes();
        let mut buckets: Vec<Bucket> = Vec::with_capacity(num_classes * num_phases);
        for class in 0..num_classes {
            let goldens: Vec<&GoldenRecord> = data
                .goldens
                .iter()
                .filter(|g| class_of_input(&g.input) == class)
                .collect();
            for phase in 0..num_phases {
                let records: Vec<&SampleRecord> = data
                    .records
                    .iter()
                    .filter(|r| r.phase == Some(phase) && class_of_input(&r.input) == class)
                    .collect();
                if records.len() < 8 {
                    return Err(OpproxError::InsufficientData(format!(
                        "class {class} phase {phase} has only {} samples",
                        records.len()
                    )));
                }
                buckets.push(Bucket {
                    records,
                    goldens: goldens.clone(),
                });
            }
        }

        let threads = options
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let pool = WorkPool::new(threads);
        let counters = FitCounters::new();
        // MIC filtering stays off for local and combined models: their
        // features are already curated, and no block's level may silently
        // vanish.
        let local_autofit = AutoFitConfig {
            mic_threshold: None,
            ..options.autofit
        };

        // Stage 1: the iteration estimator and the per-block local models
        // of every (class, phase) bucket are mutually independent — fan
        // them out across the pool. Results come back in submission order,
        // so the assembled model set is identical to a sequential fit.
        let jobs_per_bucket = 1 + TARGETS.len() * num_blocks;
        let stage1 = tele.span("fit/base", || {
            pool.run(buckets.len() * jobs_per_bucket, |i| {
                let bucket = &buckets[i / jobs_per_bucket];
                match i % jobs_per_bucket {
                    0 => {
                        let ds = iters_dataset(
                            &bucket.records,
                            &bucket.goldens,
                            num_blocks,
                            &param_names,
                        )?;
                        TargetModel::fit_with_counters(&ds, &options.autofit, &counters)
                            .map_err(OpproxError::from)
                    }
                    j => {
                        let (t, b) = ((j - 1) / num_blocks, (j - 1) % num_blocks);
                        let (transform, raw) = TARGETS[t];
                        let ds = local_dataset(&bucket.records, b, &param_names, transform, raw)?;
                        TargetModel::fit_with_counters(&ds, &local_autofit, &counters)
                            .map_err(OpproxError::from)
                    }
                }
            })
        });

        // Deterministic assembly; the earliest-submitted error wins.
        let mut stage1 = stage1.into_iter();
        let mut iters_models: Vec<TargetModel> = Vec::with_capacity(buckets.len());
        let mut locals: Vec<Vec<Vec<TargetModel>>> = Vec::with_capacity(buckets.len());
        for _ in &buckets {
            iters_models.push(stage1.next().expect("stage-1 job count")?);
            let mut per_target = Vec::with_capacity(TARGETS.len());
            for _ in TARGETS {
                let mut per_block = Vec::with_capacity(num_blocks);
                for _ in 0..num_blocks {
                    per_block.push(stage1.next().expect("stage-1 job count")?);
                }
                per_target.push(per_block);
            }
            locals.push(per_target);
        }

        // Stage 2: combined models — each depends on one bucket's local
        // models and iteration estimator, but not on any other combined
        // fit, so they fan out the same way.
        let stage2 = tele.span("fit/combined", || {
            pool.run(buckets.len() * TARGETS.len(), |i| {
                let (bi, t) = (i / TARGETS.len(), i % TARGETS.len());
                let (transform, raw) = TARGETS[t];
                let ds = combined_dataset(
                    &buckets[bi].records,
                    &locals[bi][t],
                    &iters_models[bi],
                    num_blocks,
                    transform,
                    raw,
                )?;
                TargetModel::fit_with_counters(&ds, &local_autofit, &counters)
                    .map_err(OpproxError::from)
            })
        });

        // Final assembly: cheap sequential scans for ROI and ranges.
        let mut stage2 = stage2.into_iter();
        let mut iters_models = iters_models.into_iter();
        let mut locals = locals.into_iter();
        let mut bucket_iter = buckets.iter();
        let mut classes = Vec::with_capacity(num_classes);
        for _ in 0..num_classes {
            let mut phases = Vec::with_capacity(num_phases);
            for _ in 0..num_phases {
                let bucket = bucket_iter.next().expect("bucket count");
                let iters = iters_models.next().expect("bucket count");
                let mut per_target = locals.next().expect("bucket count").into_iter();
                let mut two_step = |transform: TargetTransform,
                                    raw: fn(&SampleRecord) -> f64|
                 -> Result<TwoStepModel, OpproxError> {
                    Ok(TwoStepModel {
                        locals: per_target.next().expect("target count"),
                        combined: stage2.next().expect("stage-2 job count")?,
                        transform,
                        range_t: target_range(&bucket.records, transform, raw),
                    })
                };
                let speedup = two_step(TARGETS[0].0, TARGETS[0].1)?;
                let qos = two_step(TARGETS[1].0, TARGETS[1].1)?;
                // ROI (Eq. 1): mean speedup per unit QoS degradation.
                let roi = bucket
                    .records
                    .iter()
                    .map(|r| r.speedup / r.qos.max(ROI_QOS_FLOOR))
                    .sum::<f64>()
                    / bucket.records.len() as f64;
                phases.push(PhaseModels {
                    iters,
                    speedup,
                    qos,
                    roi,
                    speedup_range: observed_range(&bucket.records, TARGETS[0].1),
                    qos_range: observed_range(&bucket.records, TARGETS[1].1),
                });
            }
            classes.push(ClassModels { phases });
        }

        // Absorb the fit counters into the telemetry registry. The
        // histogram buckets are fixed (one per polynomial degree up to
        // MAX_TRACKED_DEGREE, plus overflow), so the counts are invariant
        // under fit-job scheduling order and thread count.
        tele.add("ml.fits_attempted", counters.fits());
        tele.add("ml.cv_solves", counters.cv_solves());
        tele.add("ml.degrees_tried", counters.degrees_tried());
        tele.add("ml.folds_clamped", counters.folds_clamped());
        tele.set_gauge("ml.threads", pool.threads() as f64);
        let bounds: Vec<f64> = (0..=MAX_TRACKED_DEGREE).map(|d| d as f64 + 0.5).collect();
        for (degree, &n) in counters.cv_solves_by_degree().iter().enumerate() {
            if n > 0 {
                tele.observe_n("ml.cv_solves_per_degree", &bounds, degree as f64, n);
            }
        }

        Ok(AppModels {
            control_flow,
            classes,
            num_phases,
            num_blocks,
            num_params,
            metrics: ModelingMetrics::default(),
        })
    }

    /// Statistics of the training run that produced this model set.
    pub(crate) fn metrics(&self) -> &ModelingMetrics {
        &self.metrics
    }

    /// Number of phases the models were trained for.
    pub fn num_phases(&self) -> usize {
        self.num_phases
    }

    /// Number of approximable blocks.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// The control-flow classifier.
    pub fn control_flow(&self) -> &ControlFlowModel {
        &self.control_flow
    }

    /// The per-phase ROI values for the class predicted for `input`.
    ///
    /// # Errors
    ///
    /// Propagates control-flow prediction errors, and returns
    /// [`OpproxError::InvalidModel`] naming the class and phase when an
    /// ROI is not finite: Algorithm 2 can neither rank nor split on it.
    pub(crate) fn rois(&self, input: &InputParams) -> Result<Vec<f64>, OpproxError> {
        let class = self.control_flow.predict(input)?;
        let phases = &self.classes[class].phases;
        if let Some(p) = phases.iter().position(|p| !p.roi.is_finite()) {
            return Err(OpproxError::InvalidModel(format!(
                "models.class[{class}].phase[{p}].roi is {}, not a finite ROI",
                phases[p].roi
            )));
        }
        Ok(phases.iter().map(|p| p.roi).collect())
    }

    /// Point and conservative predictions for approximating phase `phase`
    /// of the execution of `input` with `config` (all other phases
    /// accurate), one configuration at a time: the scalar reference for
    /// the batched scan of [`crate::optimizer::optimize_phase`]. The pair
    /// is `(point, conservative)`; see [`Prediction`].
    ///
    /// # Errors
    ///
    /// Propagates model prediction errors, and refuses NaN model outputs
    /// with [`OpproxError::Model`]; `phase` must be in range.
    pub fn predict_pair(
        &self,
        input: &InputParams,
        phase: usize,
        config: &LevelConfig,
    ) -> Result<(Prediction, Prediction), OpproxError> {
        let models = self.phase_models(input, phase)?;
        let mut iters_row = input.values().to_vec();
        iters_row.extend(config.levels().iter().map(|&l| l as f64));
        let iters_ln = models.iters.predict(&iters_row)?;
        let speedup = models.speedup.predict_full(input, config, iters_ln)?;
        let qos = models.qos.predict_full(input, config, iters_ln)?;
        models.project(phase, speedup, qos, iters_ln)
    }

    /// Batched [`Self::predict_pair`] over many configurations of one
    /// phase, bit-identical to it per configuration.
    ///
    /// One flat prediction pass per underlying model replaces the per-row
    /// scalar pipeline (standardize, expand, dot-product, band), with all
    /// intermediates living in reusable scratch buffers.
    ///
    /// # Errors
    ///
    /// Same as [`Self::predict_pair`].
    pub(crate) fn predict_pair_batch(
        &self,
        input: &InputParams,
        phase: usize,
        configs: &[LevelConfig],
    ) -> Result<Vec<(Prediction, Prediction)>, OpproxError> {
        let models = self.phase_models(input, phase)?;
        let mut scratch = PredictScratch::default();

        let row_len = self.num_params + self.num_blocks;
        let mut flat = Vec::with_capacity(configs.len() * row_len);
        for c in configs {
            flat.extend_from_slice(input.values());
            flat.extend(c.levels().iter().map(|&l| l as f64));
        }
        let mut iters_ln = Vec::with_capacity(configs.len());
        models
            .iters
            .predict_batch_into(&flat, row_len, &mut iters_ln, None, &mut scratch)?;

        let speedup = models
            .speedup
            .predict_full_batch(input, configs, &iters_ln, &mut scratch)?;
        let qos = models
            .qos
            .predict_full_batch(input, configs, &iters_ln, &mut scratch)?;
        (0..configs.len())
            .map(|i| models.project(phase, speedup[i], qos[i], iters_ln[i]))
            .collect()
    }

    /// The models of `phase` for the control-flow class of `input`.
    fn phase_models(&self, input: &InputParams, phase: usize) -> Result<&PhaseModels, OpproxError> {
        assert!(phase < self.num_phases, "phase {phase} out of range");
        let class = self.control_flow.predict(input)?;
        Ok(&self.classes[class].phases[phase])
    }

    /// Summary of combined-model cross-validation scores, one `(phase,
    /// speedup R², qos R²)` triple per phase of the first class.
    pub fn accuracy_summary(&self) -> Vec<(usize, f64, f64)> {
        self.classes[0]
            .phases
            .iter()
            .enumerate()
            .map(|(p, m)| (p, m.speedup.combined_r2(), m.qos.combined_r2()))
            .collect()
    }

    /// The per-class model sets, indexed by control-flow class.
    pub fn classes(&self) -> &[ClassModels] {
        &self.classes
    }

    /// Checks the model set for corruption that would make every
    /// prediction meaningless: non-finite regression coefficients,
    /// invalid confidence bands, and shape mismatches between the
    /// class/phase/block structure and the declared dimensions.
    ///
    /// This is the Error-severity subset of the `opprox analyze` rules
    /// (A004, A007, A012); [`crate::pipeline::TrainedOpprox::load`] and
    /// the optimizer entry path reject model sets that fail it, and the
    /// `opprox-analyze` lints delegate here so the two cannot drift.
    pub fn integrity_issues(&self) -> Vec<IntegrityIssue> {
        let mut issues = Vec::new();
        if self.classes.len() != self.control_flow.num_classes() {
            issues.push(IntegrityIssue {
                kind: IssueKind::ShapeMismatch,
                location: "models.classes".into(),
                message: format!(
                    "{} class model sets for {} control-flow classes",
                    self.classes.len(),
                    self.control_flow.num_classes()
                ),
            });
        }
        for (c, class) in self.classes.iter().enumerate() {
            if class.phases.len() != self.num_phases {
                issues.push(IntegrityIssue {
                    kind: IssueKind::ShapeMismatch,
                    location: format!("models.class[{c}]"),
                    message: format!(
                        "{} phase model sets for {} phases",
                        class.phases.len(),
                        self.num_phases
                    ),
                });
            }
            for (p, phase) in class.phases.iter().enumerate() {
                let at = |part: &str| format!("models.class[{c}].phase[{p}].{part}");
                check_target_model(&phase.iters, &at("iters"), &mut issues);
                for (name, model) in [("speedup", &phase.speedup), ("qos", &phase.qos)] {
                    if model.locals.len() != self.num_blocks {
                        issues.push(IntegrityIssue {
                            kind: IssueKind::ShapeMismatch,
                            location: at(name),
                            message: format!(
                                "{} local models for {} blocks",
                                model.locals.len(),
                                self.num_blocks
                            ),
                        });
                    }
                    for (b, local) in model.locals.iter().enumerate() {
                        check_target_model(local, &at(&format!("{name}.local[{b}]")), &mut issues);
                    }
                    check_target_model(
                        &model.combined,
                        &at(&format!("{name}.combined")),
                        &mut issues,
                    );
                }
            }
        }
        issues
    }
}

/// One corruption found by [`AppModels::integrity_issues`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityIssue {
    /// What kind of corruption this is.
    pub kind: IssueKind,
    /// Dotted path into the model set, e.g.
    /// `models.class[0].phase[1].qos.local[2]`.
    pub location: String,
    /// Human-readable description of the defect.
    pub message: String,
}

/// The corruption classes [`AppModels::integrity_issues`] detects. Each
/// maps to one Error-severity `opprox analyze` rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueKind {
    /// A regression coefficient is NaN or infinite (rule A004).
    NonFiniteCoefficient,
    /// A confidence band has a negative/non-finite half-width or a
    /// confidence level outside `(0, 1]` (rule A007).
    InvalidBand,
    /// The class/phase/block structure contradicts the declared
    /// dimensions (rule A012).
    ShapeMismatch,
}

impl IssueKind {
    /// The stable `opprox analyze` rule code this corruption maps to.
    /// Boundary enforcers (model load, the serve reload audit) use it to
    /// name the rule that rejected an artifact.
    pub fn rule_code(self) -> &'static str {
        match self {
            IssueKind::NonFiniteCoefficient => "A004",
            IssueKind::InvalidBand => "A007",
            IssueKind::ShapeMismatch => "A012",
        }
    }
}

/// Checks one fitted model's submodels for non-finite coefficients and
/// invalid confidence bands.
fn check_target_model(model: &TargetModel, location: &str, issues: &mut Vec<IntegrityIssue>) {
    for (s, sub) in model.submodels().iter().enumerate() {
        let at = if model.is_split() {
            format!("{location}.submodel[{s}]")
        } else {
            location.to_string()
        };
        if let Some(j) = sub.coefficients().iter().position(|c| !c.is_finite()) {
            issues.push(IntegrityIssue {
                kind: IssueKind::NonFiniteCoefficient,
                location: at.clone(),
                message: format!(
                    "coefficient {j} is {} (degree-{} fit)",
                    sub.coefficients()[j],
                    sub.degree()
                ),
            });
        }
        let band = sub.band();
        if !band.half_width().is_finite() || band.half_width() < 0.0 {
            issues.push(IntegrityIssue {
                kind: IssueKind::InvalidBand,
                location: at.clone(),
                message: format!(
                    "confidence band half-width {} is invalid",
                    band.half_width()
                ),
            });
        }
        if !(band.level() > 0.0 && band.level() <= 1.0) {
            issues.push(IntegrityIssue {
                kind: IssueKind::InvalidBand,
                location: at,
                message: format!("confidence level {} outside (0, 1]", band.level()),
            });
        }
    }
}

/// Clamp that tolerates inverted bounds from degenerate training sets.
fn clamp_to(v: f64, lo: f64, hi: f64) -> f64 {
    if lo > hi {
        return v;
    }
    v.clamp(lo, hi)
}

/// Whether a configuration touches exactly one block (a "local" sample).
fn is_local_sample(config: &LevelConfig, block: usize) -> bool {
    config
        .levels()
        .iter()
        .enumerate()
        .all(|(b, &l)| if b == block { l > 0 } else { l == 0 })
}

fn speedup_of(r: &SampleRecord) -> f64 {
    r.speedup
}

fn qos_of(r: &SampleRecord) -> f64 {
    r.qos
}

/// Extracts one modeled target value from a profiling record.
type TargetFn = fn(&SampleRecord) -> f64;

/// The two modeled targets and their transforms, in fitting order.
const TARGETS: [(TargetTransform, TargetFn); 2] = [
    (TargetTransform::Ln, speedup_of),
    (TargetTransform::Log1p, qos_of),
];

/// Builds the iteration-count dataset over params + all levels. The
/// golden runs anchor the all-accurate corner of the level space, which
/// the approximated samples never visit; they are repeated so the fit
/// cannot trade their residual away against the bulk of the samples.
fn iters_dataset(
    records: &[&SampleRecord],
    goldens: &[&GoldenRecord],
    num_blocks: usize,
    param_names: &[String],
) -> Result<Dataset, OpproxError> {
    let mut names = param_names.to_vec();
    names.extend((0..num_blocks).map(|b| format!("level{b}")));
    let mut ds = Dataset::new(names);
    let golden_weight = (records.len() / goldens.len().max(1)).clamp(1, 8);
    let mut rows = Vec::with_capacity(records.len() + goldens.len() * golden_weight);
    for r in records {
        let mut row = r.input.values().to_vec();
        row.extend(r.config.levels().iter().map(|&l| l as f64));
        rows.push((row, (r.outer_iters as f64).max(1.0).ln()));
    }
    for g in goldens {
        let mut row = g.input.values().to_vec();
        row.extend(std::iter::repeat_n(0.0, num_blocks));
        let target = (g.outer_iters as f64).max(1.0).ln();
        for _ in 0..golden_weight {
            rows.push((row.clone(), target));
        }
    }
    ds.extend_rows(rows).map_err(OpproxError::from)?;
    Ok(ds)
}

/// Builds one block's local dataset: that block's exhaustive sweep
/// (falling back to all records if the block has no local samples, e.g.
/// after aggressive sub-sampling), targets in transformed space.
fn local_dataset(
    records: &[&SampleRecord],
    block: usize,
    param_names: &[String],
    transform: TargetTransform,
    raw_target: fn(&SampleRecord) -> f64,
) -> Result<Dataset, OpproxError> {
    let mut names = param_names.to_vec();
    names.push(format!("level{block}"));
    let mut ds = Dataset::new(names);
    let local: Vec<&SampleRecord> = records
        .iter()
        .copied()
        .filter(|r| is_local_sample(&r.config, block))
        .collect();
    let pool: &[&SampleRecord] = if local.len() >= 4 { &local } else { records };
    let rows: Vec<(Vec<f64>, f64)> = pool
        .iter()
        .map(|r| {
            let mut row = r.input.values().to_vec();
            row.push(r.config.level(block) as f64);
            (row, transform.forward(raw_target(r)))
        })
        .collect();
    ds.extend_rows(rows).map_err(OpproxError::from)?;
    Ok(ds)
}

/// Builds the combined dataset — local predictions per block plus the
/// estimated iteration count — using one batched prediction pass per
/// model instead of a per-record, per-block scalar loop.
fn combined_dataset(
    records: &[&SampleRecord],
    locals: &[TargetModel],
    iters_model: &TargetModel,
    num_blocks: usize,
    transform: TargetTransform,
    raw_target: fn(&SampleRecord) -> f64,
) -> Result<Dataset, OpproxError> {
    let n = records.len();
    let num_params = records.first().map_or(0, |r| r.input.len());
    let mut names: Vec<String> = (0..num_blocks).map(|b| format!("local{b}")).collect();
    names.push("est_iters".into());
    let mut ds = Dataset::new(names);
    let mut scratch = PredictScratch::default();

    let local_row_len = num_params + 1;
    let mut flat = Vec::with_capacity(n * local_row_len);
    let mut local_preds: Vec<Vec<f64>> = Vec::with_capacity(num_blocks);
    for (b, local) in locals.iter().enumerate() {
        flat.clear();
        for r in records {
            flat.extend_from_slice(r.input.values());
            flat.push(r.config.level(b) as f64);
        }
        let mut out = Vec::with_capacity(n);
        local.predict_batch_into(&flat, local_row_len, &mut out, None, &mut scratch)?;
        local_preds.push(out);
    }

    // The iteration estimator already works in ln space; its raw
    // prediction is the feature.
    let iters_row_len = num_params + num_blocks;
    flat.clear();
    for r in records {
        flat.extend_from_slice(r.input.values());
        flat.extend(r.config.levels().iter().map(|&l| l as f64));
    }
    let mut iters_pred = Vec::with_capacity(n);
    iters_model.predict_batch_into(&flat, iters_row_len, &mut iters_pred, None, &mut scratch)?;

    let mut rows = Vec::with_capacity(n);
    for (i, r) in records.iter().enumerate() {
        let mut row = Vec::with_capacity(num_blocks + 1);
        for preds in &local_preds {
            row.push(preds[i]);
        }
        row.push(iters_pred[i]);
        rows.push((row, transform.forward(raw_target(r))));
    }
    ds.extend_rows(rows).map_err(OpproxError::from)?;
    Ok(ds)
}

/// Observed `(min, max)` of a raw target over the bucket's records.
fn observed_range(records: &[&SampleRecord], f: fn(&SampleRecord) -> f64) -> (f64, f64) {
    records
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), r| {
            (lo.min(f(r)), hi.max(f(r)))
        })
}

/// Observed `(min, max)` of a target in transformed space.
fn target_range(
    records: &[&SampleRecord],
    transform: TargetTransform,
    raw_target: fn(&SampleRecord) -> f64,
) -> (f64, f64) {
    records
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), r| {
            let t = transform.forward(raw_target(r));
            (lo.min(t), hi.max(t))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::{collect_training_data, SamplingPlan};
    use opprox_apps::Pso;

    fn trained() -> (Pso, AppModels, TrainingData) {
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
        let models = AppModels::fit(&data, 2, &ModelingOptions::default()).unwrap();
        (app, models, data)
    }

    #[test]
    fn fits_and_predicts_finite_values() {
        let (_, models, _) = trained();
        assert_eq!(models.num_phases(), 2);
        assert_eq!(models.num_blocks(), 3);
        let input = InputParams::new(vec![20.0, 3.0]);
        let cfg = LevelConfig::new(vec![2, 1, 0]);
        for phase in 0..2 {
            let (_, p) = models.predict_pair(&input, phase, &cfg).unwrap();
            assert!(p.speedup.is_finite() && p.speedup > 0.0);
            assert!(p.qos.is_finite() && p.qos >= 0.0);
            assert!(p.iters >= 1.0);
        }
    }

    #[test]
    fn conservative_bounds_bracket_point_predictions() {
        let (_, models, _) = trained();
        let input = InputParams::new(vec![16.0, 3.0]);
        let cfg = LevelConfig::new(vec![1, 1, 1]);
        let (point, cons) = models.predict_pair(&input, 0, &cfg).unwrap();
        assert!(cons.qos >= point.qos.max(0.0) - 1e-9);
        assert!(cons.speedup <= point.speedup + 1e-9);
    }

    #[test]
    fn early_phase_predicted_worse_than_late_phase() {
        let (_, models, _) = trained();
        let input = InputParams::new(vec![16.0, 3.0]);
        let cfg = LevelConfig::new(vec![4, 3, 3]);
        let early = models.predict_pair(&input, 0, &cfg).unwrap().0;
        let late = models.predict_pair(&input, 1, &cfg).unwrap().0;
        assert!(
            early.qos > late.qos,
            "models should reproduce phase sensitivity: early {} vs late {}",
            early.qos,
            late.qos
        );
    }

    #[test]
    fn rois_are_positive_and_finite() {
        // With only two phases on a convergence loop the ROI ordering is
        // not guaranteed (the "late" half still contains convergence-
        // critical iterations); the invariant is that every phase has a
        // positive, finite ROI so the budget split is well defined.
        let (_, models, _) = trained();
        let rois = models.rois(&InputParams::new(vec![16.0, 3.0])).unwrap();
        assert_eq!(rois.len(), 2);
        for r in &rois {
            assert!(r.is_finite() && *r > 0.0, "bad ROI set {rois:?}");
        }
    }

    /// Pearson correlation coefficient of two equally long samples.
    fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
        use opprox_linalg::stats::mean;
        let (mx, my) = (mean(xs), mean(ys));
        let (mut cov, mut vx, mut vy) = (0.0, 0.0, 0.0);
        for (x, y) in xs.iter().zip(ys) {
            cov += (x - mx) * (y - my);
            vx += (x - mx) * (x - mx);
            vy += (y - my) * (y - my);
        }
        cov / (vx.sqrt() * vy.sqrt())
    }

    #[test]
    fn models_predict_training_records_reasonably() {
        let (_, models, data) = trained();
        // Combined speedup model should rank-order the training data:
        // compute correlation between predicted and actual speedups.
        let recs: Vec<&SampleRecord> = data.records.iter().filter(|r| r.phase == Some(1)).collect();
        let actual: Vec<f64> = recs.iter().map(|r| r.speedup).collect();
        let mut predicted = Vec::new();
        for r in &recs {
            predicted.push(
                models
                    .predict_pair(&r.input, 1, &r.config)
                    .unwrap()
                    .0
                    .speedup,
            );
        }
        let corr = pearson(&actual, &predicted);
        assert!(corr > 0.7, "speedup prediction correlation {corr}");
    }

    #[test]
    fn insufficient_data_is_reported() {
        let data = TrainingData::default();
        assert!(matches!(
            AppModels::fit(&data, 2, &ModelingOptions::default()),
            Err(OpproxError::InsufficientData(_))
        ));
    }

    #[test]
    fn predict_pair_batch_is_bit_identical_to_predict_pair() {
        let (_, models, _) = trained();
        let input = InputParams::new(vec![20.0, 3.0]);
        // An enumeration-style sweep: every configuration over a level
        // grid, covering all-accurate, single-block, and multi-block rows.
        let mut configs = Vec::new();
        for a in 0..4u8 {
            for b in 0..4u8 {
                for c in 0..4u8 {
                    configs.push(LevelConfig::new(vec![a, b, c]));
                }
            }
        }
        let bits = |p: &Prediction| [p.speedup.to_bits(), p.qos.to_bits(), p.iters.to_bits()];
        for phase in 0..2 {
            let batch = models.predict_pair_batch(&input, phase, &configs).unwrap();
            assert_eq!(batch.len(), configs.len());
            for (cfg, (point, cons)) in configs.iter().zip(&batch) {
                let (want_point, want_cons) = models.predict_pair(&input, phase, cfg).unwrap();
                assert_eq!(bits(&want_point), bits(point), "point {cfg:?}");
                assert_eq!(bits(&want_cons), bits(cons), "conservative {cfg:?}");
            }
        }
        assert!(models
            .predict_pair_batch(&input, 0, &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn nan_predictions_are_refused_not_clamped() {
        // Far outside the training range the polynomials overflow to NaN;
        // clamping used to turn that into a zero-degradation QoS bound.
        let (_, models, _) = trained();
        let input = InputParams::new(vec![1e200, 3.0]);
        let cfg = LevelConfig::new(vec![2, 1, 2]);
        let refused = |r: Result<(), OpproxError>| match r {
            Err(OpproxError::Model(MlError::Numeric(m))) => m.contains("phase 1"),
            _ => false,
        };
        assert!(refused(models.predict_pair(&input, 1, &cfg).map(|_| ())));
        let batch = models.predict_pair_batch(&input, 1, std::slice::from_ref(&cfg));
        assert!(refused(batch.map(|_| ())));
        // An input inside the range still predicts.
        let inside = InputParams::new(vec![20.0, 3.0]);
        assert!(models.predict_pair(&inside, 1, &cfg).is_ok());
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_sequential() {
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
        let fit_with = |threads: usize| {
            let options = ModelingOptions {
                threads: Some(threads),
                ..ModelingOptions::default()
            };
            let models = AppModels::fit(&data, 2, &options).unwrap();
            serde_json::to_string(&models).unwrap()
        };
        let sequential = fit_with(1);
        let parallel = fit_with(4);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn metrics_are_populated_but_not_serialized() {
        let (_, models, _) = trained();
        let m = models.metrics();
        assert!(m.fits_attempted > 0);
        assert!(m.cv_solves > 0);
        assert!(m.degrees_tried > 0);
        assert!(m.threads >= 1);
        assert!(m.total_wall_ms > 0.0);
        let json = serde_json::to_string(&models).unwrap();
        assert!(!json.contains("total_wall_ms"));
        let back: AppModels = serde_json::from_str(&json).unwrap();
        assert_eq!(back.metrics(), &ModelingMetrics::default());
        assert_eq!(back.num_phases(), models.num_phases());
    }

    #[test]
    fn metrics_read_back_as_the_change_over_each_fit() {
        let (_, _, data) = trained();
        let tele = Telemetry::new();
        let options = ModelingOptions::default();
        let first = AppModels::fit_traced(&data, 2, &options, Some(&tele)).unwrap();
        let second = AppModels::fit_traced(&data, 2, &options, Some(&tele)).unwrap();
        let (a, b) = (first.metrics(), second.metrics());
        assert_eq!(
            (a.fits_attempted, a.cv_solves, a.degrees_tried),
            (b.fits_attempted, b.cv_solves, b.degrees_tried),
            "the second fit reads only its own share of the registry"
        );
        assert_eq!(
            tele.counter_value("ml.cv_solves"),
            a.cv_solves + b.cv_solves
        );
        // Split sub-models have fewer rows than the requested folds: every
        // clamp is counted in the registry (the same number per fit), not
        // printed.
        let clamped = tele.counter_value("ml.folds_clamped");
        assert!(clamped > 0 && clamped.is_multiple_of(2), "{clamped} clamps");
        assert!(b.total_wall_ms + 1e-9 >= b.base_fit_wall_ms + b.combined_fit_wall_ms);
    }
}
