//! Canonical fixtures shared by the workspace's test suites.
//!
//! Two families live here: cheap *builders* (blocks, schedules, training
//! options, per-app production inputs) and the one genuinely expensive
//! fixture — a real PSO system trained on the seed-5 sampling plan —
//! which is trained once per process behind a [`OnceLock`] and shared by
//! every suite that needs a trained model or its training data.

use opprox_approx_rt::block::{BlockDescriptor, TechniqueKind};
use opprox_approx_rt::{ApproxApp, InputParams};
use opprox_apps::{Pso, StreamAgg};
use opprox_core::modeling::ModelingOptions;
use opprox_core::pipeline::{Opprox, TrainedOpprox, TrainingOptions};
use opprox_core::sampling::{collect_training_data, SamplingPlan, TrainingData};
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The sampling seed the end-to-end suites train with.
pub(crate) const E2E_SEED: u64 = 0xE2E;

/// A small sampling plan that keeps suites fast: 10 sparse samples.
pub fn fast_sampling_plan(num_phases: usize, seed: u64) -> SamplingPlan {
    SamplingPlan {
        num_phases,
        sparse_samples: 10,
        seed,
    }
}

/// Training options for end-to-end tests: a fixed phase count and the
/// fast sampling plan under the fixed seed `E2E_SEED`.
pub fn fast_training_options(num_phases: usize) -> TrainingOptions {
    TrainingOptions {
        num_phases: Some(num_phases),
        sampling: fast_sampling_plan(num_phases, E2E_SEED),
        ..TrainingOptions::default()
    }
}

/// A cheap-but-representative production input for each registered app.
///
/// # Panics
///
/// Panics on an unknown app name, so a typo fails the test loudly.
pub fn prod_input(name: &str) -> InputParams {
    InputParams::new(match name {
        "LULESH" => vec![48.0, 2.0],
        "FFmpeg" => vec![12.0, 4.0, 600.0, 0.0],
        "Bodytrack" => vec![3.0, 120.0, 20.0],
        "PSO" => vec![16.0, 3.0],
        "CoMD" => vec![3.0, 1.2, 100.0],
        "PageRank" => vec![64.0, 4.0, 100.0],
        "StreamAgg" => vec![96.0, 50.0],
        "Stencil" => vec![20.0, 50.0],
        other => panic!("unknown app {other}"),
    })
}

/// One loop-perforation block per entry of `max_levels`, named
/// `b0..b{n-1}`, each with its own maximum level.
pub fn blocks_with_levels(max_levels: &[u8]) -> Vec<BlockDescriptor> {
    max_levels
        .iter()
        .enumerate()
        .map(|(i, &l)| BlockDescriptor::new(format!("b{i}"), TechniqueKind::LoopPerforation, l))
        .collect()
}

/// PSO's real block descriptors (the fixture apps' most common shape).
pub fn pso_blocks() -> Vec<BlockDescriptor> {
    Pso::new().meta().blocks.clone()
}

/// One real trained PSO system plus its training data, shared by every
/// suite in the process (training is the expensive part; corruption and
/// optimization happen on clones).
///
/// Trained with the seed-5 / 10-sparse-sample / 2-phase plan — the exact
/// fixture the analyze corruption suite was built around, so diagnostics
/// expectations keyed to it stay valid.
pub fn trained_pso() -> &'static (TrainedOpprox, TrainingData) {
    static CELL: OnceLock<(TrainedOpprox, TrainingData)> = OnceLock::new();
    CELL.get_or_init(|| {
        let app = Pso::new();
        let plan = fast_sampling_plan(2, 5);
        let data = collect_training_data(&app, &app.representative_inputs(), &plan)
            .expect("fixture training data collects");
        let trained =
            Opprox::train_from_data_traced(&app, &data, 2, &ModelingOptions::default(), None)
                .expect("fixture system trains");
        (trained, data)
    })
}

/// One real trained StreamAgg system, shared by every suite in the
/// process. The second trained fixture exists so serve and chaos suites
/// can exercise genuinely heterogeneous multi-app traffic: StreamAgg has
/// a different block count, techniques (task skipping, precision
/// scaling, memoization), and input arity than PSO.
pub(crate) fn trained_streamagg() -> &'static TrainedOpprox {
    static CELL: OnceLock<TrainedOpprox> = OnceLock::new();
    CELL.get_or_init(|| {
        let app = StreamAgg::new();
        let plan = fast_sampling_plan(2, 5);
        let data = collect_training_data(&app, &app.representative_inputs(), &plan)
            .expect("fixture training data collects");
        Opprox::train_from_data_traced(&app, &data, 2, &ModelingOptions::default(), None)
            .expect("fixture system trains")
    })
}

/// The shared trained PSO system as a serialized `Value` tree, ready for
/// [`crate::json`] mutation.
pub fn trained_pso_value() -> Value {
    Serialize::to_value(&trained_pso().0)
}

/// Deserializes a (possibly mutated) value tree back into a trained
/// system.
///
/// # Panics
///
/// Panics when the tree no longer deserializes — corruption fixtures are
/// meant to survive deserialization and fail *semantic* checks instead.
pub fn trained_pso_from(value: &Value) -> TrainedOpprox {
    Deserialize::from_value(value).expect("corrupted model set still deserializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_consistent_shapes() {
        let bs = blocks_with_levels(&[4, 2, 7]);
        assert_eq!(bs.len(), 3);
        assert_eq!(bs[2].name, "b2");
        assert_eq!(
            bs.iter().map(|b| b.max_level).collect::<Vec<_>>(),
            [4, 2, 7]
        );
    }

    #[test]
    fn prod_inputs_cover_every_registered_app() {
        for app in opprox_apps::registry::all_apps() {
            let name = app.meta().name.clone();
            let input = prod_input(&name);
            assert_eq!(
                input.len(),
                app.meta().input_param_names.len(),
                "{name}: fixture input arity drifted from the app"
            );
        }
    }

    #[test]
    fn trained_fixture_round_trips_through_value_tree() {
        let v = trained_pso_value();
        let back = trained_pso_from(&v);
        assert_eq!(back.app_name(), "PSO");
        assert_eq!(back.num_phases(), 2);
    }
}
