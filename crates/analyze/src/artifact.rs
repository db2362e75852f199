//! Loading and classifying OPPROX artifacts.
//!
//! `opprox analyze` accepts any mix of serialized artifacts and lints
//! whatever combination it is given. Files are classified by their
//! top-level JSON shape (no filename conventions):
//!
//! * object with `app_name` + `models`        → a [`TrainedOpprox`] model set
//! * object with `configs` + `expected_iters` → a [`PhaseSchedule`]
//! * object with `error_budget`               → an [`AccuracySpec`]
//! * object with `goldens` + `records`        → [`TrainingData`]
//! * object with `injected_faults` + `dropped_samples` → a [`RobustnessReport`]
//! * object with `spans` + `counters`         → a [`TelemetryReport`]
//! * array of objects with `technique`        → a `Vec<BlockDescriptor>`
//!
//! Deserialization is deliberately lenient (it mirrors
//! [`TrainedOpprox::from_json`]): a structurally valid but semantically
//! corrupt artifact *loads*, so the lints can say what is wrong with it,
//! instead of failing with an opaque decode error.

use opprox_approx_rt::block::BlockDescriptor;
use opprox_approx_rt::{InputParams, PhaseSchedule};
use opprox_core::pipeline::TrainedOpprox;
use opprox_core::sampling::TrainingData;
use opprox_core::{AccuracySpec, RobustnessReport, TelemetryReport};
use serde::value::Value;
use serde::Deserialize;

/// One classified artifact.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// Approximable-block descriptors.
    Blocks(Vec<BlockDescriptor>),
    /// A phase schedule.
    Schedule(PhaseSchedule),
    /// An accuracy specification.
    Spec(AccuracySpec),
    /// A trained model set.
    Trained(Box<TrainedOpprox>),
    /// Collected training data.
    Training(Box<TrainingData>),
    /// A robustness report from a fault-injected (or degraded) run.
    Robustness(Box<RobustnessReport>),
    /// A telemetry trace captured with `--trace-out` (json format).
    Telemetry(Box<TelemetryReport>),
}

impl Artifact {
    /// The noun used in messages (`blocks`, `schedule`, ...).
    pub fn kind(&self) -> &'static str {
        match self {
            Artifact::Blocks(_) => "blocks",
            Artifact::Schedule(_) => "schedule",
            Artifact::Spec(_) => "spec",
            Artifact::Trained(_) => "trained model set",
            Artifact::Training(_) => "training data",
            Artifact::Robustness(_) => "robustness report",
            Artifact::Telemetry(_) => "telemetry report",
        }
    }

    /// Classifies and deserializes one JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not valid JSON, its shape
    /// matches no known artifact, or field-level decoding fails.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let value = serde_json::parse_value(json).map_err(|e| format!("not valid JSON: {e}"))?;
        Self::from_value(&value)
    }

    /// [`Artifact::from_json`] over an already-parsed value tree.
    ///
    /// # Errors
    ///
    /// Returns a message when the shape matches no known artifact or
    /// field-level decoding fails.
    pub(crate) fn from_value(value: &Value) -> Result<Self, String> {
        let decode_err = |kind: &str, e: serde::DeError| format!("malformed {kind}: {e}");
        if let Some(entries) = value.as_object() {
            let has = |key: &str| entries.iter().any(|(k, _)| k == key);
            if has("app_name") && has("models") {
                return Ok(Artifact::Trained(Box::new(
                    Deserialize::from_value(value)
                        .map_err(|e| decode_err("trained model set", e))?,
                )));
            }
            if has("configs") && has("expected_iters") {
                return Ok(Artifact::Schedule(
                    Deserialize::from_value(value).map_err(|e| decode_err("schedule", e))?,
                ));
            }
            if has("error_budget") {
                return Ok(Artifact::Spec(
                    Deserialize::from_value(value).map_err(|e| decode_err("spec", e))?,
                ));
            }
            if has("goldens") && has("records") {
                return Ok(Artifact::Training(Box::new(
                    Deserialize::from_value(value).map_err(|e| decode_err("training data", e))?,
                )));
            }
            if has("injected_faults") && has("dropped_samples") {
                return Ok(Artifact::Robustness(Box::new(
                    Deserialize::from_value(value)
                        .map_err(|e| decode_err("robustness report", e))?,
                )));
            }
            if has("spans") && has("counters") {
                return Ok(Artifact::Telemetry(Box::new(
                    Deserialize::from_value(value)
                        .map_err(|e| decode_err("telemetry report", e))?,
                )));
            }
            return Err(
                "unrecognized artifact: an object, but not a trained model set \
                 (app_name/models), schedule (configs/expected_iters), spec \
                 (error_budget), training data (goldens/records), robustness \
                 report (injected_faults/dropped_samples), or telemetry report \
                 (spans/counters)"
                    .into(),
            );
        }
        if matches!(value, Value::Array(_)) {
            return Ok(Artifact::Blocks(
                Deserialize::from_value(value).map_err(|e| decode_err("block list", e))?,
            ));
        }
        Err(format!(
            "unrecognized artifact: expected a JSON object or array, got {}",
            value.kind()
        ))
    }
}

/// The combination of artifacts one `analyze` run lints.
///
/// Every slot is optional; each rule states its needs and silently
/// passes when they are not met (an [`crate::rules`] Info diagnostic
/// reports skipped predictive rules).
#[derive(Debug, Clone, Default)]
pub struct ArtifactSet {
    /// Block descriptors, when given explicitly.
    pub blocks: Option<Vec<BlockDescriptor>>,
    /// A phase schedule to lint.
    pub schedule: Option<PhaseSchedule>,
    /// An accuracy specification to lint.
    pub spec: Option<AccuracySpec>,
    /// A trained model set to lint.
    pub trained: Option<TrainedOpprox>,
    /// Training data, used for coverage lints and as the input source
    /// for predictive lints.
    pub training: Option<TrainingData>,
    /// A robustness report to lint (A014/A015).
    pub robustness: Option<RobustnessReport>,
    /// A telemetry report to lint (A016/A017).
    pub telemetry: Option<TelemetryReport>,
}

impl ArtifactSet {
    /// Files one artifact into its slot. A later artifact of the same
    /// kind replaces the earlier one; the replaced kind is returned so
    /// callers can warn.
    pub fn add(&mut self, artifact: Artifact) -> Option<&'static str> {
        let kind = artifact.kind();
        let replaced = match &artifact {
            Artifact::Blocks(_) => self.blocks.is_some(),
            Artifact::Schedule(_) => self.schedule.is_some(),
            Artifact::Spec(_) => self.spec.is_some(),
            Artifact::Trained(_) => self.trained.is_some(),
            Artifact::Training(_) => self.training.is_some(),
            Artifact::Robustness(_) => self.robustness.is_some(),
            Artifact::Telemetry(_) => self.telemetry.is_some(),
        };
        match artifact {
            Artifact::Blocks(b) => self.blocks = Some(b),
            Artifact::Schedule(s) => self.schedule = Some(s),
            Artifact::Spec(s) => self.spec = Some(s),
            Artifact::Trained(t) => self.trained = Some(*t),
            Artifact::Training(t) => self.training = Some(*t),
            Artifact::Robustness(r) => self.robustness = Some(*r),
            Artifact::Telemetry(t) => self.telemetry = Some(*t),
        }
        replaced.then_some(kind)
    }

    /// The block descriptors in force: explicit ones win, else the
    /// trained system's.
    pub(crate) fn effective_blocks(&self) -> Option<&[BlockDescriptor]> {
        match (&self.blocks, &self.trained) {
            (Some(b), _) => Some(b),
            (None, Some(t)) => Some(t.blocks()),
            (None, None) => None,
        }
    }

    /// Inputs for the predictive lints, most faithful source first:
    /// the training data's golden-run inputs, else the registered
    /// application's representative inputs, else empty (the predictive
    /// lints emit an Info skip).
    pub(crate) fn inputs(&self) -> Vec<InputParams> {
        if let Some(training) = &self.training {
            if !training.goldens.is_empty() {
                return training.goldens.iter().map(|g| g.input.clone()).collect();
            }
        }
        if let Some(trained) = &self.trained {
            if let Some(app) = opprox_apps::registry::by_name(trained.app_name()) {
                return app.representative_inputs();
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opprox_approx_rt::block::TechniqueKind;
    use opprox_approx_rt::LevelConfig;

    #[test]
    fn classifies_each_artifact_shape() {
        let schedule = PhaseSchedule::new(vec![LevelConfig::accurate(2); 3], 60).unwrap();
        let json = serde_json::to_string(&schedule).unwrap();
        assert!(matches!(
            Artifact::from_json(&json).unwrap(),
            Artifact::Schedule(s) if s == schedule
        ));

        let spec = AccuracySpec::new(12.5);
        let json = serde_json::to_string(&spec).unwrap();
        assert!(matches!(
            Artifact::from_json(&json).unwrap(),
            Artifact::Spec(s) if s.error_budget() == 12.5
        ));

        let blocks = vec![BlockDescriptor::new("k", TechniqueKind::LoopPerforation, 3)];
        let json = serde_json::to_string(&blocks).unwrap();
        assert!(matches!(
            Artifact::from_json(&json).unwrap(),
            Artifact::Blocks(b) if b == blocks
        ));

        let json = serde_json::to_string(&TrainingData::default()).unwrap();
        assert!(matches!(
            Artifact::from_json(&json).unwrap(),
            Artifact::Training(_)
        ));
    }

    #[test]
    fn rejects_unclassifiable_documents() {
        assert!(Artifact::from_json("{not json").is_err());
        assert!(Artifact::from_json("42").is_err());
        let err = Artifact::from_json(r#"{"surprise": true}"#).unwrap_err();
        assert!(err.contains("unrecognized artifact"), "{err}");
    }

    #[test]
    fn corrupt_schedule_still_loads_for_linting() {
        // Field-level corruption (zero expected iterations, ragged block
        // counts) must deserialize: the lints, not the loader, report it.
        let json = r#"{"configs":[{"levels":[0,0]},{"levels":[1]}],"expected_iters":0}"#;
        let Artifact::Schedule(s) = Artifact::from_json(json).unwrap() else {
            panic!("classified as a schedule");
        };
        assert_eq!(s.expected_iters(), 0);
    }

    #[test]
    fn set_replaces_duplicates_and_reports_it() {
        let mut set = ArtifactSet::default();
        assert_eq!(set.add(Artifact::Spec(AccuracySpec::new(1.0))), None);
        assert_eq!(
            set.add(Artifact::Spec(AccuracySpec::new(2.0))),
            Some("spec")
        );
        assert_eq!(set.spec.unwrap().error_budget(), 2.0);
    }

    #[test]
    fn effective_blocks_prefer_explicit_over_trained() {
        let mut set = ArtifactSet::default();
        assert!(set.effective_blocks().is_none());
        set.blocks = Some(vec![BlockDescriptor::new(
            "x",
            TechniqueKind::Memoization,
            1,
        )]);
        assert_eq!(set.effective_blocks().unwrap().len(), 1);
        assert!(set.inputs().is_empty());
    }
}
