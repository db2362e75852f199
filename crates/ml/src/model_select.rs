//! Automatic model selection: MIC filtering, degree escalation, and
//! sub-model splitting (paper Sec. 3.7, "Improving Modeling Accuracy").
//!
//! The paper's recipe, reproduced here:
//!
//! 1. Filter input features with no MIC association to the target.
//! 2. Gradually increase the polynomial degree until 10-fold
//!    cross-validation reaches a good R² (the paper uses > 0.9 and found
//!    degrees 2–6 sufficient across its applications).
//! 3. If no single model reaches the target, split the value range of a
//!    feature into `k` magnitude-ordered subsets and learn one sub-model
//!    per subset. Every (feature, k) candidate is tried in order, and the
//!    first with the highest row-weighted CV R² wins if it beats the
//!    single model. The search is an exact branch and bound: a candidate
//!    is dropped as soon as an upper bound on its score (its sub-models
//!    not yet fitted counted at R² = 1) cannot beat the best so far, so
//!    it returns the model the full search would.
//! 4. Wrap the final model in an empirical confidence band (p = 0.99) so
//!    the optimizer can use conservative bounds.

use crate::confidence::ConfidenceBand;
use crate::crossval::CvData;
use crate::dataset::Dataset;
use crate::error::MlError;
use crate::fitmetrics::FitCounters;
use crate::mic::filter_features_by_mic;
use crate::polyreg::{PolynomialRegression, PredictScratch, DEFAULT_RIDGE};
use serde::{Deserialize, Serialize};

/// Configuration for [`TargetModel::fit`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoFitConfig {
    /// Smallest polynomial degree to try (paper starts at 2).
    pub min_degree: usize,
    /// Largest polynomial degree to try (paper observed up to 6).
    pub max_degree: usize,
    /// Cross-validated R² considered "good" (paper: > 0.9).
    pub target_r2: f64,
    /// Number of cross-validation folds (paper: 10).
    pub folds: usize,
    /// Confidence level for the empirical error band (paper: 0.99).
    pub confidence_level: f64,
    /// Maximum number of sub-models when splitting a feature's range.
    pub max_submodels: usize,
    /// MIC threshold below which a feature is dropped; `None` disables
    /// MIC filtering.
    pub mic_threshold: Option<f64>,
    /// Seed for the deterministic fold shuffle.
    pub seed: u64,
}

impl Default for AutoFitConfig {
    fn default() -> Self {
        AutoFitConfig {
            min_degree: 2,
            max_degree: 6,
            target_r2: 0.9,
            folds: 10,
            confidence_level: 0.99,
            max_submodels: 4,
            mic_threshold: Some(0.15),
            seed: 0x0bb0c5,
        }
    }
}

/// One fitted polynomial model with its cross-validated score and
/// confidence band.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SingleModel {
    regression: PolynomialRegression,
    band: ConfidenceBand,
    cv_r2: f64,
}

impl SingleModel {
    /// Point prediction for a (feature-selected) row.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureMismatch`] on a wrong-length row.
    pub(crate) fn predict(&self, row: &[f64]) -> Result<f64, MlError> {
        self.regression.predict_one(row)
    }

    /// The model's confidence band.
    pub fn band(&self) -> &ConfidenceBand {
        &self.band
    }

    /// Degree of the underlying polynomial.
    pub fn degree(&self) -> usize {
        self.regression.degree()
    }

    /// The fitted regression coefficients (integrity checks inspect these
    /// for non-finite values after deserializing untrusted artifacts).
    pub fn coefficients(&self) -> &[f64] {
        self.regression.coefficients()
    }
}

/// The fitted structure: either one global model or range-split
/// sub-models over a single feature.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Structure {
    Single(SingleModel),
    Split {
        /// Index (within the *selected* features) of the split feature.
        feature: usize,
        /// Ascending boundaries; row goes to sub-model `i` when its value
        /// is below `boundaries[i]`, and to the last sub-model otherwise.
        boundaries: Vec<f64>,
        models: Vec<SingleModel>,
    },
}

/// A complete, self-describing model for one target (speedup, QoS
/// degradation, or iteration count) over the full feature row.
///
/// `TargetModel` remembers which original columns survived MIC filtering,
/// so prediction always takes a *full* feature row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TargetModel {
    kept_features: Vec<usize>,
    feature_names: Vec<String>,
    structure: Structure,
    overall_cv_r2: f64,
    reached_target: bool,
}

impl TargetModel {
    /// Fits a model per the paper's recipe (see module docs). Never fails
    /// on merely noisy data: when the target R² is unreachable, the best
    /// model found is returned with its serialized `reached_target` flag
    /// set to `false`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidTrainingData`] when the dataset has fewer
    /// than four rows or degenerate shapes.
    pub fn fit(dataset: &Dataset, config: &AutoFitConfig) -> Result<Self, MlError> {
        Self::fit_with_counters(dataset, config, &FitCounters::new())
    }

    /// Like [`TargetModel::fit`], accumulating fitting statistics into the
    /// given shared counters (see [`FitCounters`]).
    ///
    /// # Errors
    ///
    /// Same as [`TargetModel::fit`].
    pub fn fit_with_counters(
        dataset: &Dataset,
        config: &AutoFitConfig,
        counters: &FitCounters,
    ) -> Result<Self, MlError> {
        Self::fit_searching(dataset, config, counters, try_split)
    }

    /// The body of [`TargetModel::fit_with_counters`], with the split
    /// search passed in so tests can run the unpruned oracle through the
    /// same recipe.
    fn fit_searching(
        dataset: &Dataset,
        config: &AutoFitConfig,
        counters: &FitCounters,
        split_search: SplitSearch,
    ) -> Result<Self, MlError> {
        if dataset.len() < 4 {
            return Err(MlError::InvalidTrainingData(format!(
                "need at least 4 rows to fit a model, got {}",
                dataset.len()
            )));
        }
        counters.record_fit();
        // Step 1: MIC feature filtering.
        let dim = dataset.feature_names().len();
        let kept = match config.mic_threshold {
            Some(t) => {
                let keep = filter_features_by_mic(dataset.rows(), dataset.targets(), t)?;
                if keep.is_empty() {
                    (0..dim).collect()
                } else {
                    keep
                }
            }
            None => (0..dim).collect::<Vec<usize>>(),
        };
        // Projecting is a deep copy of every row; skip it when the filter
        // kept every column in order (the common case for small rows).
        let selected_owned;
        let selected: &Dataset =
            if kept.len() == dim && kept.iter().enumerate().all(|(i, &c)| i == c) {
                dataset
            } else {
                selected_owned = dataset.select_features(&kept);
                &selected_owned
            };
        let feature_names = selected.feature_names().to_vec();

        // Step 2: degree escalation on a single global model.
        let all_rows: Vec<usize> = (0..selected.len()).collect();
        let (best_single, best_r2) = fit_best_degree(selected, &all_rows, config, counters)?;
        if best_r2 >= config.target_r2 {
            return Ok(TargetModel {
                kept_features: kept,
                feature_names,
                structure: Structure::Single(best_single),
                overall_cv_r2: best_r2,
                reached_target: true,
            });
        }

        // Step 3: sub-model splitting, trying every feature; only a split
        // that beats the single model can win.
        if let Some((structure, split_r2)) = split_search(selected, config, best_r2, counters)? {
            if split_r2 > best_r2 {
                return Ok(TargetModel {
                    kept_features: kept,
                    feature_names,
                    structure,
                    overall_cv_r2: split_r2,
                    reached_target: split_r2 >= config.target_r2,
                });
            }
        }

        Ok(TargetModel {
            kept_features: kept,
            feature_names,
            structure: Structure::Single(best_single),
            overall_cv_r2: best_r2,
            reached_target: false,
        })
    }

    /// Point prediction for a full feature row.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureMismatch`] if the row is shorter than the
    /// highest kept feature index.
    pub fn predict(&self, full_row: &[f64]) -> Result<f64, MlError> {
        Ok(self.predict_with_half(full_row)?.0)
    }

    /// Point prediction for a full feature row together with the
    /// confidence-band half-width of the sub-model the row routes to. The
    /// conservative bounds are `point ± half`: the upper one for QoS
    /// degradation, the lower one for speedup.
    ///
    /// # Errors
    ///
    /// Same as [`TargetModel::predict`].
    pub fn predict_with_half(&self, full_row: &[f64]) -> Result<(f64, f64), MlError> {
        let row = self.project(full_row)?;
        let m = match &self.structure {
            Structure::Single(m) => m,
            Structure::Split {
                feature,
                boundaries,
                models,
            } => &models[route_of(boundaries, models.len(), row[*feature])],
        };
        Ok((m.predict(&row)?, m.band.half_width()))
    }

    /// The cross-validated R² of the final structure.
    pub fn cv_r2(&self) -> f64 {
        self.overall_cv_r2
    }

    /// Whether the fitted structure uses range-split sub-models.
    pub fn is_split(&self) -> bool {
        matches!(self.structure, Structure::Split { .. })
    }

    /// Every fitted [`SingleModel`] in this target model — the single
    /// global model, or each range-split sub-model. Integrity checks walk
    /// these to vet coefficients and confidence bands without depending on
    /// the (private) structure layout.
    pub fn submodels(&self) -> Vec<&SingleModel> {
        match &self.structure {
            Structure::Single(m) => vec![m],
            Structure::Split { models, .. } => models.iter().collect(),
        }
    }

    /// Batched, allocation-free point predictions over a flat row-major
    /// buffer of full feature rows. Appends one prediction per row to
    /// `out` and, when `halves` is given, each row's confidence-band
    /// half-width to it, reusing the buffers in `scratch`.
    ///
    /// Bit-identical to calling [`TargetModel::predict_with_half`] per row.
    ///
    /// # Errors
    ///
    /// * [`MlError::FeatureMismatch`] if `row_len` does not cover the
    ///   highest kept feature index.
    /// * [`MlError::InvalidTrainingData`] if `rows.len()` is not a
    ///   multiple of `row_len`.
    pub fn predict_batch_into(
        &self,
        rows: &[f64],
        row_len: usize,
        out: &mut Vec<f64>,
        halves: Option<&mut Vec<f64>>,
        scratch: &mut PredictScratch,
    ) -> Result<(), MlError> {
        self.check_row_len(row_len)?;
        if !rows.len().is_multiple_of(row_len) {
            return Err(MlError::InvalidTrainingData(format!(
                "flat buffer of {} values is not a multiple of row length {row_len}",
                rows.len()
            )));
        }
        let n = rows.len() / row_len;
        if n == 0 {
            return Ok(());
        }
        let kw = self.kept_features.len();
        let mut projected = std::mem::take(&mut scratch.projected);
        projected.clear();
        projected.reserve(n * kw);
        for raw in rows.chunks_exact(row_len) {
            for &c in &self.kept_features {
                projected.push(raw[c]);
            }
        }
        let result = match &self.structure {
            Structure::Single(m) => m.regression.predict_flat_into(&projected, kw, out, scratch),
            Structure::Split {
                feature,
                boundaries,
                models,
            } => {
                let mut route = std::mem::take(&mut scratch.route);
                route.clear();
                route.extend(
                    (0..n)
                        .map(|i| route_of(boundaries, models.len(), projected[i * kw + *feature])),
                );
                let base = out.len();
                out.resize(base + n, 0.0);
                let mut result = Ok(());
                for (m_idx, m) in models.iter().enumerate() {
                    let mut gathered = std::mem::take(&mut scratch.gathered);
                    gathered.clear();
                    for (i, &r) in route.iter().enumerate() {
                        if r == m_idx {
                            gathered.extend_from_slice(&projected[i * kw..(i + 1) * kw]);
                        }
                    }
                    if gathered.is_empty() {
                        scratch.gathered = gathered;
                        continue;
                    }
                    let mut gout = std::mem::take(&mut scratch.gathered_out);
                    gout.clear();
                    result = m
                        .regression
                        .predict_flat_into(&gathered, kw, &mut gout, scratch);
                    if result.is_err() {
                        scratch.gathered = gathered;
                        scratch.gathered_out = gout;
                        break;
                    }
                    let mut cursor = 0usize;
                    for (i, &r) in route.iter().enumerate() {
                        if r == m_idx {
                            out[base + i] = gout[cursor];
                            cursor += 1;
                        }
                    }
                    scratch.gathered = gathered;
                    scratch.gathered_out = gout;
                }
                scratch.route = route;
                result
            }
        };
        scratch.projected = projected;
        result?;
        if let Some(h) = halves {
            match &self.structure {
                Structure::Single(m) => h.extend(std::iter::repeat_n(m.band.half_width(), n)),
                Structure::Split { models, .. } => {
                    h.extend(scratch.route.iter().map(|&r| models[r].band.half_width()))
                }
            }
        }
        Ok(())
    }

    fn project(&self, full_row: &[f64]) -> Result<Vec<f64>, MlError> {
        self.check_row_len(full_row.len())?;
        Ok(self.kept_features.iter().map(|&c| full_row[c]).collect())
    }

    /// Rejects full rows too short to hold the highest kept feature.
    fn check_row_len(&self, len: usize) -> Result<(), MlError> {
        let max = self.kept_features.iter().copied().max().unwrap_or(0);
        if len <= max {
            return Err(MlError::FeatureMismatch {
                expected: max + 1,
                actual: len,
            });
        }
        Ok(())
    }
}

/// The sub-model a value of the split feature routes to: the first whose
/// boundary lies above it, or the last.
fn route_of(boundaries: &[f64], num_models: usize, v: f64) -> usize {
    boundaries
        .iter()
        .filter(|&&b| v >= b)
        .count()
        .min(num_models - 1)
}

/// Clamps a requested fold count to what `n` rows can support.
///
/// [`crate::crossval::kfold_indices`] hard-errors when `k > n`; small
/// sub-model subsets routinely have fewer rows than the configured fold
/// count, so the call site clamps instead of failing the fit, and counts
/// every clamp in `counters` (the split search clamps thousands of times
/// per training run).
fn effective_folds(requested: usize, n: usize, counters: &FitCounters) -> usize {
    let k = requested.clamp(2, n.max(2));
    if k != requested {
        counters.record_folds_clamped();
    }
    k
}

/// Escalates the degree over the `rows` of `dataset` and returns the best
/// single model with its CV R².
///
/// The folds and the standardizer are prepared once ([`CvData`]); each
/// candidate degree then costs one expand-once cross-validation pass,
/// which also yields the full-data model and its out-of-fold residuals —
/// no separate refit.
fn fit_best_degree(
    dataset: &Dataset,
    rows: &[usize],
    config: &AutoFitConfig,
    counters: &FitCounters,
) -> Result<(SingleModel, f64), MlError> {
    let folds = effective_folds(config.folds, rows.len(), counters);
    let data = CvData::new(dataset.rows(), dataset.targets(), rows, folds, config.seed)?;
    let mut best: Option<(SingleModel, f64)> = None;
    for degree in config.min_degree..=config.max_degree {
        counters.record_degree_tried();
        let cv = data.cross_validate(degree, DEFAULT_RIDGE)?;
        counters.record_cv_solves_at(degree, cv.solves);
        let cv_r2 = cv.mean_r2();
        let improved = best.as_ref().is_none_or(|(_, r)| cv_r2 > *r);
        if improved {
            let band = ConfidenceBand::from_residuals(&cv.residuals, config.confidence_level)?;
            best = Some((
                SingleModel {
                    regression: cv.model,
                    band,
                    cv_r2,
                },
                cv_r2,
            ));
        }
        if cv_r2 >= config.target_r2 {
            break;
        }
    }
    best.ok_or_else(|| MlError::InvalidTrainingData("no degree could be fitted".into()))
}

/// A split search: given the selected dataset, the configuration and the
/// single model's CV R² as a floor, the best split structure that beats
/// the floor, with its weighted CV R².
type SplitSearch =
    fn(&Dataset, &AutoFitConfig, f64, &FitCounters) -> Result<Option<(Structure, f64)>, MlError>;

/// The `k` row subsets of splitting `feature` at `boundaries` (ascending,
/// `k - 1` of them), each as ascending row indices.
fn split_subsets(dataset: &Dataset, feature: usize, boundaries: &[f64]) -> Vec<Vec<usize>> {
    let k = boundaries.len() + 1;
    (0..k)
        .map(|sub| {
            let lo = if sub == 0 {
                f64::NEG_INFINITY
            } else {
                boundaries[sub - 1]
            };
            let hi = if sub == k - 1 {
                f64::INFINITY
            } else {
                boundaries[sub]
            };
            dataset.rows_in_range(feature, lo, hi)
        })
        .collect()
}

/// The (feature, k) split candidates in search order, each with its
/// magnitude-ordered equal-count boundaries over the feature's distinct
/// values.
fn split_candidates(dataset: &Dataset, max_submodels: usize) -> Vec<(usize, Vec<f64>)> {
    let mut candidates = Vec::new();
    for feature in 0..dataset.feature_names().len() {
        let mut vals = dataset.column(feature);
        vals.sort_by(|a, b| a.partial_cmp(b).expect("NaN feature"));
        vals.dedup();
        for k in 2..=max_submodels.min(vals.len()) {
            let boundaries = (1..k)
                .map(|i| {
                    let pos = i * vals.len() / k;
                    vals[pos.min(vals.len() - 1)]
                })
                .collect();
            candidates.push((feature, boundaries));
        }
    }
    candidates
}

/// Range-splits each feature into 2..=max_submodels subsets and returns
/// the first split, in candidate order, whose weighted CV R² is the
/// highest and beats `floor`. Each subset is passed to the CV engine as
/// row indices, not copied.
///
/// The search is an exact branch and bound. A candidate with a subset
/// under 4 rows is skipped before any fit. Otherwise, before each sub-fit
/// and after the last, the candidate's score is bounded from above by
/// counting every sub not yet fitted at R² = 1: every sub R² is at most
/// 1, and the bound is summed in the score's own order, so rounding keeps
/// it at or above the score. A candidate whose bound is no higher than
/// the best of `floor` and the scores so far cannot win and is dropped.
/// The first candidate that strictly beats them all is never dropped, so
/// the result is the unpruned search's.
fn try_split(
    dataset: &Dataset,
    config: &AutoFitConfig,
    floor: f64,
    counters: &FitCounters,
) -> Result<Option<(Structure, f64)>, MlError> {
    let mut best: Option<(Structure, f64)> = None;
    for (feature, boundaries) in split_candidates(dataset, config.max_submodels) {
        counters.record_split_candidate();
        let subsets = split_subsets(dataset, feature, &boundaries);
        if subsets.iter().any(|rows| rows.len() < 4) {
            counters.record_split_pruned();
            continue;
        }
        let total = subsets.iter().map(Vec::len).sum::<usize>() as f64;
        // A kept score beat the bar of its time, so it is above `floor`.
        let bar = best.as_ref().map_or(floor, |(_, r)| *r);
        let mut models = Vec::with_capacity(subsets.len());
        let mut weighted_r2 = 0.0;
        let score = loop {
            let fitted = models.len();
            let bound = subsets[fitted..]
                .iter()
                .fold(weighted_r2, |acc, rows| acc + rows.len() as f64)
                / total;
            if bound <= bar {
                break None;
            }
            // Every sub fitted: the bound is the score.
            let Some(rows) = subsets.get(fitted) else {
                break Some(bound);
            };
            let (m, r2) = fit_best_degree(dataset, rows, config, counters)?;
            weighted_r2 += r2 * rows.len() as f64;
            models.push(m);
        };
        match score {
            Some(score) => {
                best = Some((
                    Structure::Split {
                        feature,
                        boundaries,
                        models,
                    },
                    score,
                ))
            }
            // Bounded out before its last sub-model was fitted.
            None if models.len() < subsets.len() => counters.record_split_pruned(),
            // Fully fitted, and no better than the best so far.
            None => {}
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The split search without bounds: every feasible candidate's
    /// sub-models are all fitted, and the first candidate with the highest
    /// score is returned whatever the floor. [`try_split`] must return
    /// what this returns whenever it beats the floor.
    fn try_split_unpruned(
        dataset: &Dataset,
        config: &AutoFitConfig,
        _floor: f64,
        counters: &FitCounters,
    ) -> Result<Option<(Structure, f64)>, MlError> {
        let dim = dataset.feature_names().len();
        let mut best: Option<(Structure, f64)> = None;
        for feature in 0..dim {
            let mut vals = dataset.column(feature);
            vals.sort_by(|a, b| a.partial_cmp(b).expect("NaN feature"));
            vals.dedup();
            if vals.len() < 2 {
                continue;
            }
            for k in 2..=config.max_submodels {
                if vals.len() < k {
                    break;
                }
                let boundaries: Vec<f64> = (1..k)
                    .map(|i| {
                        let pos = i * vals.len() / k;
                        vals[pos.min(vals.len() - 1)]
                    })
                    .collect();
                let mut models = Vec::with_capacity(k);
                let mut weighted_r2 = 0.0;
                let mut total = 0usize;
                let mut feasible = true;
                for sub in 0..k {
                    let lo = if sub == 0 {
                        f64::NEG_INFINITY
                    } else {
                        boundaries[sub - 1]
                    };
                    let hi = if sub == k - 1 {
                        f64::INFINITY
                    } else {
                        boundaries[sub]
                    };
                    let rows = dataset.rows_in_range(feature, lo, hi);
                    if rows.len() < 4 {
                        feasible = false;
                        break;
                    }
                    let (m, r2) = fit_best_degree(dataset, &rows, config, counters)?;
                    weighted_r2 += r2 * rows.len() as f64;
                    total += rows.len();
                    models.push(m);
                }
                if !feasible || total == 0 {
                    continue;
                }
                let score = weighted_r2 / total as f64;
                if best.as_ref().is_none_or(|(_, r)| score > *r) {
                    best = Some((
                        Structure::Split {
                            feature,
                            boundaries,
                            models,
                        },
                        score,
                    ));
                }
            }
        }
        Ok(best)
    }

    /// [`TargetModel::fit_with_counters`] through the unpruned oracle.
    fn fit_unpruned(
        dataset: &Dataset,
        config: &AutoFitConfig,
        counters: &FitCounters,
    ) -> Result<TargetModel, MlError> {
        TargetModel::fit_searching(dataset, config, counters, try_split_unpruned)
    }

    /// Fits `dataset` with the pruned search and the oracle, asserts the
    /// serialized models are byte-identical and returns the counters of
    /// both, pruned first.
    fn fit_both(
        dataset: &Dataset,
        config: &AutoFitConfig,
    ) -> (TargetModel, FitCounters, FitCounters) {
        let (pruned, oracle) = (FitCounters::new(), FitCounters::new());
        let model = TargetModel::fit_with_counters(dataset, config, &pruned).unwrap();
        let reference = fit_unpruned(dataset, config, &oracle).unwrap();
        assert_eq!(
            serde_json::to_string(&model).unwrap(),
            serde_json::to_string(&reference).unwrap()
        );
        (model, pruned, oracle)
    }

    fn quadratic_dataset(n: usize) -> Dataset {
        let mut ds = Dataset::new(vec!["x".into(), "noise".into()]);
        for i in 0..n {
            let x = i as f64 * 0.2;
            // A deterministic pseudo-noise column that MIC should drop.
            let noise = ((i * 2654435761) % 97) as f64 / 97.0;
            ds.push(vec![x, noise], 1.0 + 2.0 * x + 0.5 * x * x)
                .unwrap();
        }
        ds
    }

    #[test]
    fn fits_quadratic_and_reaches_target() {
        let ds = quadratic_dataset(80);
        let model = TargetModel::fit(&ds, &AutoFitConfig::default()).unwrap();
        assert!(model.reached_target);
        assert!(model.cv_r2() > 0.9);
        let p = model.predict(&[3.0, 0.5]).unwrap();
        let truth = 1.0 + 6.0 + 4.5;
        assert!((p - truth).abs() < 0.5, "{p} vs {truth}");
    }

    #[test]
    fn mic_filter_drops_noise_feature() {
        let ds = quadratic_dataset(80);
        let model = TargetModel::fit(&ds, &AutoFitConfig::default()).unwrap();
        assert_eq!(model.kept_features, [0]);
        assert_eq!(model.feature_names, ["x".to_string()]);
    }

    #[test]
    fn conservative_bounds_bracket_prediction() {
        let ds = quadratic_dataset(60);
        let model = TargetModel::fit(&ds, &AutoFitConfig::default()).unwrap();
        let row = [2.0, 0.1];
        let (p, half) = model.predict_with_half(&row).unwrap();
        assert_eq!(p, model.predict(&row).unwrap());
        assert!(half >= 0.0);
        assert!(p - half <= p && p <= p + half);
    }

    #[test]
    fn degree_escalation_stops_at_first_good_degree() {
        let ds = quadratic_dataset(60);
        let cfg = AutoFitConfig {
            mic_threshold: None,
            ..AutoFitConfig::default()
        };
        let model = TargetModel::fit(&ds, &cfg).unwrap();
        // A quadratic target should not need degree > 2.
        match &model.structure {
            Structure::Single(m) => assert_eq!(m.degree(), 2),
            _ => panic!("expected single model"),
        }
    }

    #[test]
    fn piecewise_target_triggers_split_or_best_effort() {
        // Discontinuous target: very hard for one low-degree polynomial.
        let mut ds = Dataset::new(vec!["x".into()]);
        for i in 0..120 {
            let x = i as f64 * 0.1;
            let y = if x < 6.0 { x } else { 100.0 + x * x };
            ds.push(vec![x], y).unwrap();
        }
        let cfg = AutoFitConfig {
            max_degree: 3,
            mic_threshold: None,
            ..AutoFitConfig::default()
        };
        let model = TargetModel::fit(&ds, &cfg).unwrap();
        // Either the split reached the target or we got a best-effort fit;
        // in both cases prediction should roughly track the two regimes.
        let low = model.predict(&[2.0]).unwrap();
        let high = model.predict(&[10.0]).unwrap();
        assert!(high > low + 50.0, "low={low} high={high}");
    }

    #[test]
    fn rejects_tiny_dataset() {
        let mut ds = Dataset::new(vec!["x".into()]);
        ds.push(vec![1.0], 1.0).unwrap();
        assert!(TargetModel::fit(&ds, &AutoFitConfig::default()).is_err());
    }

    #[test]
    fn predict_checks_row_length() {
        let ds = quadratic_dataset(40);
        let model = TargetModel::fit(&ds, &AutoFitConfig::default()).unwrap();
        assert!(model.predict(&[]).is_err());
    }

    #[test]
    fn predict_batch_matches_per_row_bitwise_single() {
        let ds = quadratic_dataset(60);
        let model = TargetModel::fit(&ds, &AutoFitConfig::default()).unwrap();
        assert!(!model.is_split());
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64 * 0.37, (i % 5) as f64 / 5.0])
            .collect();
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let mut flat_out = Vec::new();
        let mut halves = Vec::new();
        let mut scratch = PredictScratch::default();
        model
            .predict_batch_into(&flat, 2, &mut flat_out, Some(&mut halves), &mut scratch)
            .unwrap();
        let mut points_only = Vec::new();
        model
            .predict_batch_into(&flat, 2, &mut points_only, None, &mut scratch)
            .unwrap();
        for (i, row) in rows.iter().enumerate() {
            let (single, half) = model.predict_with_half(row).unwrap();
            assert_eq!(single.to_bits(), flat_out[i].to_bits());
            assert_eq!(single.to_bits(), points_only[i].to_bits());
            assert_eq!(half.to_bits(), halves[i].to_bits());
        }
    }

    #[test]
    fn predict_batch_matches_per_row_bitwise_split() {
        // Discontinuous target that forces the split structure.
        let mut ds = Dataset::new(vec!["x".into()]);
        for i in 0..120 {
            let x = i as f64 * 0.1;
            let y = if x < 6.0 { x } else { 1000.0 + x * x };
            ds.push(vec![x], y).unwrap();
        }
        let cfg = AutoFitConfig {
            max_degree: 2,
            mic_threshold: None,
            ..AutoFitConfig::default()
        };
        let model = TargetModel::fit(&ds, &cfg).unwrap();
        assert!(model.is_split(), "test needs the split structure");
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 * 0.31]).collect();
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let mut flat_out = Vec::new();
        let mut halves = Vec::new();
        let mut scratch = PredictScratch::default();
        model
            .predict_batch_into(&flat, 1, &mut flat_out, Some(&mut halves), &mut scratch)
            .unwrap();
        for (i, row) in rows.iter().enumerate() {
            let (single, half) = model.predict_with_half(row).unwrap();
            assert_eq!(single.to_bits(), flat_out[i].to_bits());
            assert_eq!(half.to_bits(), halves[i].to_bits());
        }
    }

    #[test]
    fn predict_batch_validates_inputs() {
        let ds = quadratic_dataset(40);
        let model = TargetModel::fit(&ds, &AutoFitConfig::default()).unwrap();
        let mut out = Vec::new();
        let mut scratch = PredictScratch::default();
        // Empty input is fine and appends nothing.
        model
            .predict_batch_into(&[], 2, &mut out, None, &mut scratch)
            .unwrap();
        assert!(out.is_empty());
        // Too-short rows and ragged buffers are rejected.
        assert!(model
            .predict_batch_into(&[1.0, 2.0, 3.0], 2, &mut out, None, &mut scratch)
            .is_err());
        assert!(model
            .predict_batch_into(&[], 0, &mut out, None, &mut scratch)
            .is_err());
    }

    #[test]
    fn fold_clamp_warns_but_fits_small_datasets() {
        // 5 rows with 10 requested folds: must clamp instead of erroring.
        let mut ds = Dataset::new(vec!["x".into()]);
        for i in 0..5 {
            ds.push(vec![i as f64], 2.0 * i as f64).unwrap();
        }
        let cfg = AutoFitConfig {
            min_degree: 1,
            max_degree: 1,
            mic_threshold: None,
            ..AutoFitConfig::default()
        };
        let counters = FitCounters::new();
        let model = TargetModel::fit_with_counters(&ds, &cfg, &counters).unwrap();
        assert!((model.predict(&[3.0]).unwrap() - 6.0).abs() < 1e-6);
        assert_eq!(
            counters.folds_clamped(),
            1,
            "the fit clamped its folds once"
        );
        let counters = FitCounters::new();
        assert_eq!(effective_folds(10, 5, &counters), 5);
        assert_eq!(effective_folds(10, 20, &counters), 10);
        assert_eq!(effective_folds(0, 20, &counters), 2);
        assert_eq!(counters.folds_clamped(), 2);
    }

    #[test]
    fn fit_counters_accumulate_during_fit() {
        let ds = quadratic_dataset(60);
        let counters = FitCounters::new();
        TargetModel::fit_with_counters(&ds, &AutoFitConfig::default(), &counters).unwrap();
        assert!(counters.fits() >= 1);
        assert!(counters.degrees_tried() >= 1);
        // 10-fold CV: at least 11 solves (10 folds + the full system).
        assert!(counters.cv_solves() >= 11);
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let ds = quadratic_dataset(50);
        let model = TargetModel::fit(&ds, &AutoFitConfig::default()).unwrap();
        let json = serde_json::to_string(&model).unwrap();
        let back: TargetModel = serde_json::from_str(&json).unwrap();
        let row = [1.5, 0.3];
        assert_eq!(model.predict(&row).unwrap(), back.predict(&row).unwrap());
    }

    #[test]
    fn tied_candidates_keep_the_earlier_one() {
        // Two identical columns: each k scores the same on both, so the
        // first feature must keep every tie.
        let mut ds = Dataset::new(vec!["x".into(), "twin".into()]);
        for i in 0..120 {
            let x = i as f64 * 0.1;
            let y = if x < 6.0 { x } else { 1000.0 + x * x };
            ds.push(vec![x, x], y).unwrap();
        }
        let cfg = AutoFitConfig {
            max_degree: 2,
            mic_threshold: None,
            ..AutoFitConfig::default()
        };
        let (model, pruned, _) = fit_both(&ds, &cfg);
        match &model.structure {
            Structure::Split { feature, .. } => assert_eq!(*feature, 0),
            Structure::Single(_) => panic!("the jump needs a split"),
        }
        assert_eq!(pruned.split_candidates(), 6);
    }

    #[test]
    fn candidates_bounded_below_the_single_model_return_it() {
        // A smooth trend under small wiggles: the single model explains
        // most of it, and any sub-range has less trend to explain, so
        // every split's bound falls under the single model's score.
        let mut ds = Dataset::new(vec!["x".into()]);
        for i in 0..80 {
            let x = i as f64 * 0.25;
            let wiggle = ((i * 2654435761usize) % 97) as f64 / 97.0;
            ds.push(vec![x], 2.0 * x + 3.0 * wiggle).unwrap();
        }
        let cfg = AutoFitConfig {
            max_degree: 2,
            target_r2: 0.999,
            mic_threshold: None,
            ..AutoFitConfig::default()
        };
        let (model, pruned, oracle) = fit_both(&ds, &cfg);
        assert!(!model.is_split());
        assert!(!model.reached_target);
        assert_eq!(pruned.split_candidates(), 3);
        assert_eq!(pruned.split_pruned(), pruned.split_candidates());
        assert!(pruned.cv_solves() < oracle.cv_solves());
    }

    #[test]
    fn infeasible_candidates_fit_no_sub_model() {
        // Distinct values 0..=3 split at 2 into subsets of 5 and 2 rows:
        // the second is too small, which the search sees before it fits
        // the first.
        let mut ds = Dataset::new(vec!["x".into()]);
        for (i, x) in [0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0].into_iter().enumerate() {
            ds.push(vec![x], x + (i % 2) as f64).unwrap();
        }
        let cfg = AutoFitConfig {
            min_degree: 1,
            max_degree: 2,
            target_r2: 2.0,
            max_submodels: 2,
            mic_threshold: None,
            ..AutoFitConfig::default()
        };
        let (model, pruned, oracle) = fit_both(&ds, &cfg);
        assert!(!model.is_split());
        assert_eq!((pruned.split_candidates(), pruned.split_pruned()), (1, 1));
        // Only the single model's two degrees were tried; the oracle also
        // fitted the feasible first subset.
        assert_eq!(pruned.degrees_tried(), 2);
        assert_eq!(oracle.degrees_tried(), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On step, two-step and sawtooth targets over 1–3 features,
        /// some with only 2–6 distinct values, the pruned search returns
        /// the oracle's model byte for byte, with no more CV solves.
        #[test]
        fn pruned_split_search_returns_the_unpruned_model(
            rows in 12usize..72,
            dims in 1usize..=3,
            max_submodels in 2usize..=4,
            max_degree in 1usize..=3,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let shape = rng.gen_range(0..3usize);
            let mic = rng.gen_range(0..2usize);
            // 0 and 1 draw a continuous column, 2..=6 that many values.
            let levels: Vec<usize> = (0..dims).map(|_| rng.gen_range(0..7usize)).collect();
            let names = (0..dims).map(|c| format!("f{c}")).collect();
            let mut ds = Dataset::new(names);
            for _ in 0..rows {
                let row: Vec<f64> = levels
                    .iter()
                    .map(|&l| {
                        if l < 2 {
                            rng.gen::<f64>() * 10.0
                        } else {
                            rng.gen_range(0..l) as f64 * 2.5
                        }
                    })
                    .collect();
                let x = row[0];
                let y = match shape {
                    0 => if x < 5.0 { 1.0 } else { 40.0 },
                    1 => if x < 3.0 { 0.0 } else if x < 7.0 { 25.0 } else { -10.0 },
                    _ => (x * 1.7).fract() * 30.0,
                } + row.iter().skip(1).sum::<f64>() * 0.5
                    + rng.gen::<f64>();
                ds.push(row, y).unwrap();
            }
            let cfg = AutoFitConfig {
                min_degree: 1,
                max_degree,
                max_submodels,
                mic_threshold: if mic == 0 { None } else { Some(0.15) },
                ..AutoFitConfig::default()
            };
            let (pruned, oracle) = (FitCounters::new(), FitCounters::new());
            let reference = fit_unpruned(&ds, &cfg, &oracle);
            let model = TargetModel::fit_with_counters(&ds, &cfg, &pruned);
            // A fit the oracle finishes, the pruned search finishes the
            // same; the pruned search runs a subset of its sub-fits.
            if let Ok(reference) = reference {
                prop_assert_eq!(
                    serde_json::to_string(&model.unwrap()).unwrap(),
                    serde_json::to_string(&reference).unwrap()
                );
                prop_assert!(pruned.cv_solves() <= oracle.cv_solves());
            }
        }
    }
}
