//! M5-style model trees (Quinlan 1992) — regression trees with linear
//! models in the leaves.
//!
//! The paper's closest related system, Capri (Sui et al., ASPLOS 2016),
//! models performance and accuracy with the M5 estimation algorithm; this
//! module provides that model family so the benchmark harness can ablate
//! OPPROX's polynomial-regression choice against it (see the
//! `ablation_models` bench).
//!
//! The implementation is the classic recipe: split greedily on the
//! feature/threshold with the largest standard-deviation reduction (SDR),
//! stop at a depth/size limit or when the leaf is near-constant, and fit
//! a ridge-regularized linear model per leaf (falling back to the leaf
//! mean when the leaf is too small to support one).

use crate::error::MlError;
use opprox_linalg::gram::GramSystem;
use opprox_linalg::stats::{mean, std_dev};
use opprox_linalg::Matrix;
use serde::{Deserialize, Serialize};

/// Maximum tree depth (root = 0).
const MAX_DEPTH: usize = 6;
/// Minimum samples required to attempt a split.
const MIN_SPLIT: usize = 8;
/// Stop splitting when a node's target standard deviation falls below
/// this fraction of the root's.
const SD_FRACTION: f64 = 0.05;

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf {
        /// Linear coefficients (intercept first); `None` means constant.
        coeffs: Option<Vec<f64>>,
        /// Leaf mean, the constant fallback.
        mean: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted M5-style model tree.
///
/// # Example
///
/// ```
/// use opprox_ml::m5::ModelTree;
///
/// // A piecewise-linear target: y = x for x < 5, y = 20 - x otherwise.
/// let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 4.0]).collect();
/// let ys: Vec<f64> = xs.iter().map(|r| if r[0] < 5.0 { r[0] } else { 20.0 - r[0] }).collect();
/// let tree = ModelTree::fit(&xs, &ys).unwrap();
/// assert!((tree.predict_one(&[2.0]).unwrap() - 2.0).abs() < 0.5);
/// assert!((tree.predict_one(&[8.0]).unwrap() - 12.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelTree {
    root: Node,
    num_features: usize,
}

impl ModelTree {
    /// Fits a model tree.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidTrainingData`] for empty, ragged, or
    /// mismatched inputs.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64]) -> Result<Self, MlError> {
        if xs.is_empty() {
            return Err(MlError::InvalidTrainingData("no rows".into()));
        }
        if xs.len() != ys.len() {
            return Err(MlError::InvalidTrainingData(format!(
                "{} feature rows vs {} targets",
                xs.len(),
                ys.len()
            )));
        }
        let dim = xs[0].len();
        if xs.iter().any(|r| r.len() != dim) {
            return Err(MlError::InvalidTrainingData("ragged rows".into()));
        }
        let idx: Vec<usize> = (0..xs.len()).collect();
        let root_sd = std_dev(ys);
        let root = build(xs, ys, &idx, root_sd, 0)?;
        Ok(ModelTree {
            root,
            num_features: dim,
        })
    }

    /// Number of leaves in the fitted tree.
    pub fn num_leaves(&self) -> usize {
        fn rec(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => rec(left) + rec(right),
            }
        }
        rec(&self.root)
    }

    /// Predicts the target for one feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureMismatch`] on a wrong-length input.
    pub fn predict_one(&self, x: &[f64]) -> Result<f64, MlError> {
        if x.len() != self.num_features {
            return Err(MlError::FeatureMismatch {
                expected: self.num_features,
                actual: x.len(),
            });
        }
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { coeffs, mean } => {
                    return Ok(match coeffs {
                        None => *mean,
                        Some(c) => {
                            c[0] + c[1..].iter().zip(x.iter()).map(|(a, b)| a * b).sum::<f64>()
                        }
                    })
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Predicts targets for a batch.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureMismatch`] on the first malformed row.
    pub fn predict(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>, MlError> {
        xs.iter().map(|x| self.predict_one(x)).collect()
    }
}

fn leaf(xs: &[Vec<f64>], ys: &[f64], idx: &[usize]) -> Result<Node, MlError> {
    let targets: Vec<f64> = idx.iter().map(|&i| ys[i]).collect();
    let leaf_mean = mean(&targets);
    let dim = xs[0].len();
    // A linear model needs comfortably more samples than coefficients.
    if idx.len() < dim + 3 {
        return Ok(Node::Leaf {
            coeffs: None,
            mean: leaf_mean,
        });
    }
    let rows: Vec<Vec<f64>> = idx
        .iter()
        .map(|&i| {
            let mut r = Vec::with_capacity(dim + 1);
            r.push(1.0);
            r.extend_from_slice(&xs[i]);
            r
        })
        .collect();
    let design = Matrix::from_row_vecs(&rows).map_err(MlError::from)?;
    match GramSystem::from_design(&design, &targets).and_then(|g| g.solve_ridge(1e-6)) {
        Ok(coeffs) => Ok(Node::Leaf {
            coeffs: Some(coeffs),
            mean: leaf_mean,
        }),
        Err(_) => Ok(Node::Leaf {
            coeffs: None,
            mean: leaf_mean,
        }),
    }
}

fn build(
    xs: &[Vec<f64>],
    ys: &[f64],
    idx: &[usize],
    root_sd: f64,
    depth: usize,
) -> Result<Node, MlError> {
    let targets: Vec<f64> = idx.iter().map(|&i| ys[i]).collect();
    let sd = std_dev(&targets);
    if depth >= MAX_DEPTH || idx.len() < MIN_SPLIT || sd <= SD_FRACTION * root_sd {
        return leaf(xs, ys, idx);
    }

    // Greedy SDR split search.
    let dim = xs[0].len();
    // Features address columns of the row-major sample matrix.
    let mut best: Option<(f64, usize, f64)> = None; // (sdr, feature, threshold)
    #[allow(clippy::needless_range_loop)]
    for f in 0..dim {
        let mut vals: Vec<f64> = idx.iter().map(|&i| xs[i][f]).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("NaN feature"));
        vals.dedup();
        for w in vals.windows(2) {
            let threshold = (w[0] + w[1]) / 2.0;
            let left: Vec<f64> = idx
                .iter()
                .filter(|&&i| xs[i][f] <= threshold)
                .map(|&i| ys[i])
                .collect();
            let right: Vec<f64> = idx
                .iter()
                .filter(|&&i| xs[i][f] > threshold)
                .map(|&i| ys[i])
                .collect();
            if left.is_empty() || right.is_empty() {
                continue;
            }
            let n = idx.len() as f64;
            let sdr = sd
                - (left.len() as f64 / n) * std_dev(&left)
                - (right.len() as f64 / n) * std_dev(&right);
            if best.is_none_or(|(s, _, _)| sdr > s + 1e-15) {
                best = Some((sdr, f, threshold));
            }
        }
    }

    match best {
        Some((sdr, feature, threshold)) if sdr > 1e-12 => {
            let left_idx: Vec<usize> = idx
                .iter()
                .copied()
                .filter(|&i| xs[i][feature] <= threshold)
                .collect();
            let right_idx: Vec<usize> = idx
                .iter()
                .copied()
                .filter(|&i| xs[i][feature] > threshold)
                .collect();
            Ok(Node::Split {
                feature,
                threshold,
                left: Box::new(build(xs, ys, &left_idx, root_sd, depth + 1)?),
                right: Box::new(build(xs, ys, &right_idx, root_sd, depth + 1)?),
            })
        }
        _ => leaf(xs, ys, idx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opprox_linalg::stats::r2_score;

    #[test]
    fn fits_linear_function_accurately() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| 3.0 + r[0] - 0.5 * r[1]).collect();
        let t = ModelTree::fit(&xs, &ys).unwrap();
        let preds = t.predict(&xs).unwrap();
        // The tree may still split (any split reduces SD on a sloped
        // target), but the leaf models must track the function closely.
        assert!(
            r2_score(&ys, &preds) > 0.999,
            "r2 {}",
            r2_score(&ys, &preds)
        );
    }

    #[test]
    fn splits_on_discontinuity() {
        let xs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 6.0]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|r| if r[0] < 5.0 { 1.0 } else { 100.0 })
            .collect();
        let t = ModelTree::fit(&xs, &ys).unwrap();
        assert!(t.num_leaves() >= 2);
        assert!((t.predict_one(&[2.0]).unwrap() - 1.0).abs() < 1.0);
        assert!((t.predict_one(&[8.0]).unwrap() - 100.0).abs() < 1.0);
    }

    #[test]
    fn outperforms_mean_on_piecewise_linear_target() {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 10.0]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|r| {
                if r[0] < 5.0 {
                    2.0 * r[0]
                } else {
                    30.0 - 4.0 * r[0]
                }
            })
            .collect();
        let t = ModelTree::fit(&xs, &ys).unwrap();
        let preds = t.predict(&xs).unwrap();
        assert!(r2_score(&ys, &preds) > 0.95);
    }

    #[test]
    fn tiny_leaves_fall_back_to_means() {
        let xs = vec![vec![1.0], vec![2.0], vec![3.0]];
        let ys = vec![1.0, 2.0, 9.0];
        // Three samples are fewer than `MIN_SPLIT`: the root is the leaf.
        let t = ModelTree::fit(&xs, &ys).unwrap();
        assert_eq!(t.num_leaves(), 1);
        assert!((t.predict_one(&[2.0]).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(ModelTree::fit(&[], &[]).is_err());
        assert!(ModelTree::fit(&[vec![1.0]], &[1.0, 2.0]).is_err());
        let t = ModelTree::fit(&[vec![1.0], vec![2.0]], &[1.0, 2.0]).unwrap();
        assert!(t.predict_one(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| r[0] * 2.0).collect();
        let t = ModelTree::fit(&xs, &ys).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: ModelTree = serde_json::from_str(&json).unwrap();
        assert_eq!(
            t.predict_one(&[7.0]).unwrap(),
            back.predict_one(&[7.0]).unwrap()
        );
    }
}
