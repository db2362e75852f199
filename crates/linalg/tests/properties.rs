//! Property-based tests for the linear-algebra substrate.

use opprox_linalg::gram::GramSystem;
use opprox_linalg::stats::{mean, quantile, r2_score};
use opprox_linalg::Matrix;
use proptest::prelude::*;

fn finite_f64() -> impl Strategy<Value = f64> {
    (-100.0f64..100.0).prop_filter("finite", |v| v.is_finite())
}

fn matrix_strategy(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_cols)
        .prop_flat_map(move |cols| {
            (cols..=max_rows.max(cols)).prop_flat_map(move |rows| {
                proptest::collection::vec(finite_f64(), rows * cols)
                    .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
            })
        })
        .boxed()
}

proptest! {
    #[test]
    fn ridge_residual_is_bounded_by_zero_vector_residual(
        a in matrix_strategy(6, 3),
        seed in 0u64..1000,
    ) {
        // The ridge solution must fit at least as well as predicting from
        // the zero coefficient vector once lambda is tiny.
        let y: Vec<f64> = (0..a.rows()).map(|i| ((i as u64 + seed) % 7) as f64 - 3.0).collect();
        if let Ok(x) = GramSystem::from_design(&a, &y).and_then(|g| g.solve_ridge(1e-8)) {
            let resid: f64 = (0..a.rows())
                .map(|r| {
                    let p: f64 = a.row(r).iter().zip(&x).map(|(a, b)| a * b).sum();
                    (p - y[r]) * (p - y[r])
                })
                .sum();
            let zero_resid: f64 = y.iter().map(|t| t * t).sum();
            prop_assert!(resid <= zero_resid + 1e-6 * zero_resid.max(1.0));
        }
    }

    #[test]
    fn quantile_is_monotone_in_q(xs in proptest::collection::vec(finite_f64(), 1..20)) {
        let q25 = quantile(&xs, 0.25).unwrap();
        let q50 = quantile(&xs, 0.50).unwrap();
        let q75 = quantile(&xs, 0.75).unwrap();
        prop_assert!(q25 <= q50 + 1e-12);
        prop_assert!(q50 <= q75 + 1e-12);
    }

    #[test]
    fn quantile_within_data_range(xs in proptest::collection::vec(finite_f64(), 1..20), q in 0.0f64..1.0) {
        let v = quantile(&xs, q).unwrap();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    #[test]
    fn mean_is_translation_equivariant(xs in proptest::collection::vec(finite_f64(), 1..20), shift in finite_f64()) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((mean(&shifted) - (mean(&xs) + shift)).abs() < 1e-9);
    }

    #[test]
    fn r2_of_truth_is_one(xs in proptest::collection::vec(finite_f64(), 2..20)) {
        prop_assert!((r2_score(&xs, &xs) - 1.0).abs() < 1e-12);
    }
}
