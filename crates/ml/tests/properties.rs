//! Property-based tests for the ML substrate.

use opprox_ml::crossval::kfold_indices;
use opprox_ml::dtree::DecisionTree;
use opprox_ml::features::{PolynomialFeatures, Standardizer};
use opprox_ml::m5::ModelTree;
use opprox_ml::mic::mic;
use opprox_ml::model_select::{AutoFitConfig, TargetModel};
use opprox_ml::polyreg::{PolynomialRegression, PredictScratch};
use opprox_ml::Dataset;
use proptest::prelude::*;

fn small_f64() -> impl Strategy<Value = f64> {
    (-50.0f64..50.0).prop_filter("finite", |v| v.is_finite())
}

/// A range-split model over the first column (a discontinuous target no
/// single quadratic fits), fitted once for every property case.
fn split_model() -> &'static TargetModel {
    static MODEL: std::sync::OnceLock<TargetModel> = std::sync::OnceLock::new();
    MODEL.get_or_init(|| {
        let mut ds = Dataset::new(vec!["x".into()]);
        for i in 0..120 {
            let x = i as f64 * 0.1;
            ds.push(vec![x], if x < 6.0 { x } else { 1000.0 + x * x })
                .unwrap();
        }
        let cfg = AutoFitConfig {
            max_degree: 2,
            mic_threshold: None,
            ..AutoFitConfig::default()
        };
        let model = TargetModel::fit(&ds, &cfg).unwrap();
        assert!(model.is_split(), "the fixture needs the split structure");
        model
    })
}

proptest! {
    /// The polynomial expansion of any input always starts with the
    /// constant 1 and has the advertised length.
    #[test]
    fn polynomial_features_shape(
        x in proptest::collection::vec(small_f64(), 1..4),
        degree in 0usize..4,
    ) {
        let pf = PolynomialFeatures::new(x.len(), degree);
        let row = pf.transform_one(&x).unwrap();
        prop_assert_eq!(row.len(), pf.num_outputs());
        prop_assert_eq!(row[0], 1.0);
        // Degree-1 part echoes the raw inputs.
        if degree >= 1 {
            for (i, &xi) in x.iter().enumerate() {
                prop_assert_eq!(row[1 + i], xi);
            }
        }
    }

    /// Standardize-then-fit equals fit on raw data for prediction
    /// purposes: the regression already standardizes internally, so
    /// pre-scaling inputs by a positive constant must not change
    /// training-point predictions.
    #[test]
    fn regression_is_input_scale_equivariant(scale in 0.5f64..20.0) {
        let xs: Vec<Vec<f64>> = (0..25).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| 2.0 * r[0] + 1.0).collect();
        let scaled: Vec<Vec<f64>> = xs.iter().map(|r| vec![r[0] * scale]).collect();
        let m_raw = PolynomialRegression::fit(&xs, &ys, 2).unwrap();
        let m_scaled = PolynomialRegression::fit(&scaled, &ys, 2).unwrap();
        for (a, b) in xs.iter().zip(scaled.iter()) {
            let pa = m_raw.predict_one(a).unwrap();
            let pb = m_scaled.predict_one(b).unwrap();
            prop_assert!((pa - pb).abs() < 1e-6, "{pa} vs {pb}");
        }
    }

    /// The standardizer's transform has mean ~0 per column on its own
    /// training data.
    #[test]
    fn standardizer_centres_training_data(
        rows in proptest::collection::vec(
            proptest::collection::vec(small_f64(), 2),
            2..20
        ),
    ) {
        let s = Standardizer::fit(&rows).unwrap();
        let t = s.transform(&rows).unwrap();
        for c in 0..2 {
            let m: f64 = t.iter().map(|r| r[c]).sum::<f64>() / t.len() as f64;
            prop_assert!(m.abs() < 1e-9, "column {c} mean {m}");
        }
    }

    /// k-fold indices always partition 0..n exactly.
    #[test]
    fn kfold_partitions(n in 4usize..40, seed in 0u64..100) {
        let k = 2 + seed as usize % 3;
        prop_assume!(k <= n);
        let folds = kfold_indices(n, k, seed).unwrap();
        let mut all: Vec<usize> = folds.into_iter().flatten().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    /// A decision tree always reaches 100% accuracy on linearly separable
    /// one-dimensional labels.
    #[test]
    fn dtree_separates_threshold_labels(cut in 2usize..18) {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<usize> = (0..20).map(|i| usize::from(i >= cut)).collect();
        let t = DecisionTree::fit(&xs, &ys).unwrap();
        prop_assert_eq!(t.accuracy(&xs, &ys).unwrap(), 1.0);
    }

    /// MIC is bounded in [0, 1] for arbitrary paired data.
    #[test]
    fn mic_is_bounded(
        xs in proptest::collection::vec(small_f64(), 8..64),
        seed in 0u64..50,
    ) {
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| x * ((seed + i as u64) % 3) as f64 + i as f64)
            .collect();
        let v = mic(&xs, &ys).unwrap();
        prop_assert!((0.0..=1.0).contains(&v), "mic {v}");
    }

    /// Batched prediction is bit-identical to per-row prediction on both
    /// the raw regression and the full TargetModel (Single and Split
    /// structures), point and band half-width, for arbitrary query points.
    #[test]
    fn batched_prediction_is_bit_identical(
        queries in proptest::collection::vec(
            proptest::collection::vec(small_f64(), 2),
            1..24
        ),
        a in -3.0f64..3.0,
        b in -3.0f64..3.0,
    ) {
        let mut ds = Dataset::new(vec!["x".into(), "z".into()]);
        for i in 0..40 {
            let x = i as f64 * 0.25;
            let z = ((i * 7) % 11) as f64 / 11.0;
            ds.push(vec![x, z], a * x * x + b * z + 1.0).unwrap();
        }
        let cfg = AutoFitConfig { mic_threshold: None, ..AutoFitConfig::default() };
        let model = TargetModel::fit(&ds, &cfg).unwrap();
        prop_assert!(!model.is_split());
        let flat: Vec<f64> = queries.iter().flatten().copied().collect();
        for model in [&model, split_model()] {
            let mut out = Vec::new();
            let mut halves = Vec::new();
            let mut scratch = PredictScratch::default();
            model
                .predict_batch_into(&flat, 2, &mut out, Some(&mut halves), &mut scratch)
                .unwrap();
            prop_assert_eq!(out.len(), queries.len());
            prop_assert_eq!(halves.len(), queries.len());
            for (i, q) in queries.iter().enumerate() {
                let (point, half) = model.predict_with_half(q).unwrap();
                prop_assert_eq!(point.to_bits(), out[i].to_bits());
                prop_assert_eq!(half.to_bits(), halves[i].to_bits());
            }
        }
    }

    /// Model-tree predictions on training points never stray far outside
    /// the training target range (leaves are local linear fits).
    #[test]
    fn model_tree_predictions_stay_near_target_range(slope in -5.0f64..5.0) {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| slope * r[0]).collect();
        let t = ModelTree::fit(&xs, &ys).unwrap();
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let span = (hi - lo).max(1.0);
        for (x, _) in xs.iter().zip(ys.iter()) {
            let p = t.predict_one(x).unwrap();
            prop_assert!(p >= lo - 0.5 * span && p <= hi + 0.5 * span, "{p}");
        }
    }
}
