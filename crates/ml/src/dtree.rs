//! Decision-tree classifier (paper Sec. 3.4; Quinlan 1986).
//!
//! OPPROX trains a decision tree on call-context logs to predict which
//! control-flow class the application will take for a given combination of
//! input parameters, and then keeps separate speedup/QoS models per class.
//!
//! This is a CART-style binary tree over numeric features with Gini
//! impurity, midpoint thresholds, and a depth limit.

use crate::error::MlError;
use serde::{Deserialize, Serialize};

/// Maximum depth of a fitted tree (the root has depth 0).
const MAX_DEPTH: usize = 12;

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf {
        label: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted CART-style decision-tree classifier with integer class labels.
///
/// # Example
///
/// ```
/// use opprox_ml::dtree::DecisionTree;
///
/// // Class is 1 iff the first feature exceeds 5.
/// let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
/// let ys: Vec<usize> = (0..10).map(|i| usize::from(i > 5)).collect();
/// let tree = DecisionTree::fit(&xs, &ys).unwrap();
/// assert_eq!(tree.predict_one(&[2.0]).unwrap(), 0);
/// assert_eq!(tree.predict_one(&[9.0]).unwrap(), 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTree {
    root: Node,
    num_features: usize,
    num_classes: usize,
}

impl DecisionTree {
    /// Fits a tree on numeric features and integer class labels.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidTrainingData`] for empty, ragged, or
    /// mismatched inputs.
    pub fn fit(xs: &[Vec<f64>], ys: &[usize]) -> Result<Self, MlError> {
        if xs.is_empty() {
            return Err(MlError::InvalidTrainingData("no rows".into()));
        }
        if xs.len() != ys.len() {
            return Err(MlError::InvalidTrainingData(format!(
                "{} feature rows vs {} labels",
                xs.len(),
                ys.len()
            )));
        }
        let dim = xs[0].len();
        if xs.iter().any(|r| r.len() != dim) {
            return Err(MlError::InvalidTrainingData("ragged rows".into()));
        }
        let num_classes = ys.iter().copied().max().unwrap_or(0) + 1;
        let idx: Vec<usize> = (0..xs.len()).collect();
        let root = build_node(xs, ys, &idx, num_classes, MAX_DEPTH, 0);
        Ok(DecisionTree {
            root,
            num_features: dim,
            num_classes,
        })
    }

    /// The sorted, de-duplicated set of class labels that appear on some
    /// leaf — i.e. the classes this tree can actually predict. A label in
    /// `0..num_classes` that is absent here is unreachable control flow
    /// (lint `A010` in `opprox-analyze`).
    pub fn leaf_labels(&self) -> Vec<usize> {
        fn rec(n: &Node, out: &mut Vec<usize>) {
            match n {
                Node::Leaf { label } => out.push(*label),
                Node::Split { left, right, .. } => {
                    rec(left, out);
                    rec(right, out);
                }
            }
        }
        let mut labels = Vec::new();
        rec(&self.root, &mut labels);
        labels.sort_unstable();
        labels.dedup();
        labels
    }

    /// Predicts the class of one feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureMismatch`] on a wrong-length input.
    pub fn predict_one(&self, x: &[f64]) -> Result<usize, MlError> {
        if x.len() != self.num_features {
            return Err(MlError::FeatureMismatch {
                expected: self.num_features,
                actual: x.len(),
            });
        }
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { label } => return Ok(*label),
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

    /// Predicts classes for a batch of feature vectors.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureMismatch`] on the first malformed row.
    pub(crate) fn predict(&self, xs: &[Vec<f64>]) -> Result<Vec<usize>, MlError> {
        xs.iter().map(|x| self.predict_one(x)).collect()
    }

    /// Fraction of correctly classified rows.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidTrainingData`] on a length mismatch and
    /// propagates prediction errors.
    pub fn accuracy(&self, xs: &[Vec<f64>], ys: &[usize]) -> Result<f64, MlError> {
        if xs.len() != ys.len() {
            return Err(MlError::InvalidTrainingData(format!(
                "{} feature rows vs {} labels",
                xs.len(),
                ys.len()
            )));
        }
        if xs.is_empty() {
            return Ok(1.0);
        }
        let preds = self.predict(xs)?;
        let correct = preds.iter().zip(ys.iter()).filter(|(p, y)| p == y).count();
        Ok(correct as f64 / xs.len() as f64)
    }
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / t;
            p * p
        })
        .sum::<f64>()
}

fn majority_label(ys: &[usize], idx: &[usize], num_classes: usize) -> usize {
    let mut counts = vec![0usize; num_classes];
    for &i in idx {
        counts[ys[i]] += 1;
    }
    counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(l, _)| l)
        .unwrap_or(0)
}

fn build_node(
    xs: &[Vec<f64>],
    ys: &[usize],
    idx: &[usize],
    num_classes: usize,
    max_depth: usize,
    depth: usize,
) -> Node {
    let mut counts = vec![0usize; num_classes];
    for &i in idx {
        counts[ys[i]] += 1;
    }
    let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
    // A node of one sample is pure, so purity and depth are the only
    // stopping rules.
    if pure || depth >= max_depth {
        return Node::Leaf {
            label: majority_label(ys, idx, num_classes),
        };
    }

    let parent_gini = gini(&counts, idx.len());
    let dim = xs[0].len();
    let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)

    // Features address columns of the row-major sample matrix.
    #[allow(clippy::needless_range_loop)]
    for f in 0..dim {
        let mut vals: Vec<f64> = idx.iter().map(|&i| xs[i][f]).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("NaN feature"));
        vals.dedup();
        for w in vals.windows(2) {
            let threshold = (w[0] + w[1]) / 2.0;
            let mut lc = vec![0usize; num_classes];
            let mut rc = vec![0usize; num_classes];
            let mut ln = 0usize;
            let mut rn = 0usize;
            for &i in idx {
                if xs[i][f] <= threshold {
                    lc[ys[i]] += 1;
                    ln += 1;
                } else {
                    rc[ys[i]] += 1;
                    rn += 1;
                }
            }
            if ln == 0 || rn == 0 {
                continue;
            }
            let weighted =
                (ln as f64 * gini(&lc, ln) + rn as f64 * gini(&rc, rn)) / idx.len() as f64;
            let gain = parent_gini - weighted;
            if best.is_none_or(|(g, _, _)| gain > g + 1e-15) {
                best = Some((gain, f, threshold));
            }
        }
    }

    // A zero-gain split is still worth taking when the node is impure
    // (e.g. the root of XOR data): the children are strictly smaller, so
    // deeper splits get a chance to separate the classes.
    match best {
        Some((gain, feature, threshold)) if gain > 1e-12 || !pure => {
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
            Node::Split {
                feature,
                threshold,
                left: Box::new(build_node(
                    xs,
                    ys,
                    &left_idx,
                    num_classes,
                    max_depth,
                    depth + 1,
                )),
                right: Box::new(build_node(
                    xs,
                    ys,
                    &right_idx,
                    num_classes,
                    max_depth,
                    depth + 1,
                )),
            }
        }
        _ => Node::Leaf {
            label: majority_label(ys, idx, num_classes),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Depth of a fitted tree (a lone leaf has depth 0).
    fn depth(t: &DecisionTree) -> usize {
        fn rec(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + rec(left).max(rec(right)),
            }
        }
        rec(&t.root)
    }

    /// A tree fitted under a smaller depth limit than [`MAX_DEPTH`].
    fn fit_to_depth(xs: &[Vec<f64>], ys: &[usize], max_depth: usize) -> DecisionTree {
        let num_classes = ys.iter().copied().max().unwrap_or(0) + 1;
        let idx: Vec<usize> = (0..xs.len()).collect();
        DecisionTree {
            root: build_node(xs, ys, &idx, num_classes, max_depth, 0),
            num_features: xs[0].len(),
            num_classes,
        }
    }

    fn xor_data() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for a in 0..2 {
            for b in 0..2 {
                for _ in 0..5 {
                    xs.push(vec![a as f64, b as f64]);
                    ys.push((a ^ b) as usize);
                }
            }
        }
        (xs, ys)
    }

    #[test]
    fn fits_axis_aligned_boundary() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 0.0]).collect();
        let ys: Vec<usize> = (0..20).map(|i| usize::from(i >= 10)).collect();
        let t = DecisionTree::fit(&xs, &ys).unwrap();
        assert_eq!(t.accuracy(&xs, &ys).unwrap(), 1.0);
        assert_eq!(depth(&t), 1);
    }

    #[test]
    fn fits_xor_with_depth_two() {
        let (xs, ys) = xor_data();
        let t = DecisionTree::fit(&xs, &ys).unwrap();
        assert_eq!(t.accuracy(&xs, &ys).unwrap(), 1.0);
        assert_eq!(depth(&t), 2);
    }

    #[test]
    fn depth_limit_is_respected() {
        let (xs, ys) = xor_data();
        let t = fit_to_depth(&xs, &ys, 1);
        assert!(depth(&t) <= 1);
        // Depth-1 cannot separate XOR perfectly.
        assert!(t.accuracy(&xs, &ys).unwrap() < 1.0);
    }

    #[test]
    fn multiclass_labels_work() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let ys: Vec<usize> = (0..30).map(|i| i / 10).collect();
        let t = DecisionTree::fit(&xs, &ys).unwrap();
        assert_eq!(t.num_classes, 3);
        assert_eq!(t.predict_one(&[5.0]).unwrap(), 0);
        assert_eq!(t.predict_one(&[15.0]).unwrap(), 1);
        assert_eq!(t.predict_one(&[25.0]).unwrap(), 2);
    }

    #[test]
    fn pure_input_yields_single_leaf() {
        let xs = vec![vec![1.0], vec![2.0], vec![3.0]];
        let ys = vec![4, 4, 4];
        let t = DecisionTree::fit(&xs, &ys).unwrap();
        assert_eq!(depth(&t), 0);
        assert_eq!(t.predict_one(&[100.0]).unwrap(), 4);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(DecisionTree::fit(&[], &[]).is_err());
        assert!(DecisionTree::fit(&[vec![1.0]], &[0, 1]).is_err());
        assert!(DecisionTree::fit(&[vec![1.0], vec![1.0, 2.0]], &[0, 1]).is_err());
        let t = DecisionTree::fit(&[vec![1.0], vec![2.0]], &[0, 1]).unwrap();
        assert!(t.predict_one(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn leaf_labels_cover_reachable_classes_only() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let ys: Vec<usize> = (0..30).map(|i| i / 10).collect();
        let t = DecisionTree::fit(&xs, &ys).unwrap();
        assert_eq!(t.leaf_labels(), vec![0, 1, 2]);

        // A depth-0 tree over multi-label data reaches only the majority
        // label; the other classes are unreachable.
        let stump = fit_to_depth(&xs, &ys, 0);
        assert_eq!(stump.num_classes, 3);
        assert_eq!(stump.leaf_labels().len(), 1);
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let (xs, ys) = xor_data();
        let t = DecisionTree::fit(&xs, &ys).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: DecisionTree = serde_json::from_str(&json).unwrap();
        for x in &xs {
            assert_eq!(t.predict_one(x).unwrap(), back.predict_one(x).unwrap());
        }
    }
}
