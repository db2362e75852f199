//! Control-flow prediction (paper Sec. 3.4).
//!
//! An application's control flow — the sequence of approximable blocks it
//! executes — can change with its input parameters (the paper's FFmpeg
//! example: swapping the deflate and edge-detection filters changes both
//! the block order and the QoS behaviour, Fig. 7/8). OPPROX therefore
//! trains a decision-tree classifier from input parameters to
//! control-flow class, and keeps separate speedup/QoS models per class.

use crate::error::OpproxError;
use crate::sampling::TrainingData;
use opprox_approx_rt::InputParams;
use opprox_ml::dtree::DecisionTree;
use serde::{Deserialize, Serialize};

/// A trained mapping from input parameters to control-flow class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ControlFlowModel {
    /// The distinct call-context signatures, indexed by class id.
    classes: Vec<Vec<usize>>,
    /// Classifier over input parameters; `None` when only one class was
    /// observed (the common case for fixed-pipeline applications).
    tree: Option<DecisionTree>,
}

impl ControlFlowModel {
    /// Learns the model from collected training data.
    ///
    /// # Errors
    ///
    /// Returns [`OpproxError::InsufficientData`] if the data has no golden
    /// runs, and propagates classifier-fitting errors.
    pub fn learn(data: &TrainingData) -> Result<Self, OpproxError> {
        let classes = data.control_flow_classes();
        if classes.is_empty() {
            return Err(OpproxError::InsufficientData(
                "no golden runs to derive control-flow classes from".into(),
            ));
        }
        if classes.len() == 1 {
            return Ok(ControlFlowModel {
                classes,
                tree: None,
            });
        }
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<usize> = Vec::new();
        for g in &data.goldens {
            let class = classes
                .iter()
                .position(|c| *c == g.control_flow)
                .expect("class list derived from the same goldens");
            xs.push(g.input.values().to_vec());
            ys.push(class);
        }
        let tree = DecisionTree::fit(&xs, &ys)?;
        Ok(ControlFlowModel {
            classes,
            tree: Some(tree),
        })
    }

    /// Number of distinct control-flow classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// The signature of a class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn signature(&self, class: usize) -> &[usize] {
        &self.classes[class]
    }

    /// Predicts the control-flow class for an input.
    ///
    /// # Errors
    ///
    /// Propagates classifier prediction errors (wrong feature arity).
    pub fn predict(&self, input: &InputParams) -> Result<usize, OpproxError> {
        match &self.tree {
            None => Ok(0),
            Some(tree) => Ok(tree.predict_one(input.values())?),
        }
    }

    /// Classifies an observed signature, if it matches a known class.
    pub fn class_of_signature(&self, signature: &[usize]) -> Option<usize> {
        self.classes.iter().position(|c| c == signature)
    }

    /// The class ids the classifier can actually emit: every decision-tree
    /// leaf label, or just class 0 when no tree was trained. A class in
    /// `0..num_classes` missing from this set is unreachable control flow
    /// (lint `A010` in `opprox-analyze`).
    pub fn reachable_classes(&self) -> Vec<usize> {
        match &self.tree {
            None => vec![0],
            Some(tree) => tree.leaf_labels(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::{collect_training_data, SamplingPlan};
    use opprox_approx_rt::ApproxApp;
    use opprox_apps::{Pso, VideoPipeline};

    fn plan() -> SamplingPlan {
        SamplingPlan {
            num_phases: 2,
            sparse_samples: 2,
            seed: 3,
        }
    }

    #[test]
    fn single_class_app_predicts_class_zero() {
        let app = Pso::new();
        let inputs = vec![
            InputParams::new(vec![16.0, 3.0]),
            InputParams::new(vec![24.0, 4.0]),
        ];
        let data = collect_training_data(&app, &inputs, &plan()).unwrap();
        let model = ControlFlowModel::learn(&data).unwrap();
        assert_eq!(model.num_classes(), 1);
        assert_eq!(
            model.predict(&InputParams::new(vec![20.0, 5.0])).unwrap(),
            0
        );
    }

    #[test]
    fn video_filter_order_creates_two_classes() {
        let app = VideoPipeline::new();
        let inputs = vec![
            InputParams::new(vec![12.0, 4.0, 600.0, 0.0]),
            InputParams::new(vec![12.0, 4.0, 600.0, 1.0]),
            InputParams::new(vec![20.0, 4.0, 600.0, 0.0]),
            InputParams::new(vec![20.0, 4.0, 600.0, 1.0]),
        ];
        let data = collect_training_data(&app, &inputs, &plan()).unwrap();
        let model = ControlFlowModel::learn(&data).unwrap();
        assert_eq!(model.num_classes(), 2);
        // The tree keys on the filter_order parameter.
        let c0 = model
            .predict(&InputParams::new(vec![16.0, 5.0, 600.0, 0.0]))
            .unwrap();
        let c1 = model
            .predict(&InputParams::new(vec![16.0, 5.0, 600.0, 1.0]))
            .unwrap();
        assert_ne!(c0, c1);
        // Predictions agree with the observed signatures.
        let g = app
            .golden(&InputParams::new(vec![16.0, 5.0, 600.0, 1.0]))
            .unwrap();
        assert_eq!(
            model.class_of_signature(&g.log.control_flow_signature()),
            Some(c1)
        );
    }

    #[test]
    fn empty_data_rejected() {
        let data = TrainingData::default();
        assert!(ControlFlowModel::learn(&data).is_err());
    }
}
