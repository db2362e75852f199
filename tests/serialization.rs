//! Integration tests for model persistence: the paper stores trained
//! models on disk (Python pickles) and loads them at job-submission
//! time; our equivalent is JSON via serde.

use opprox::approx_rt::{InputParams, LevelConfig, PhaseSchedule};
use opprox::core::pipeline::{Opprox, TrainedOpprox, TrainingOptions};
use opprox::core::request::OptimizeRequest;
use opprox::core::sampling::SamplingPlan;
use opprox::core::AccuracySpec;
use opprox_apps::Pso;

fn trained() -> TrainedOpprox {
    let app = Pso::new();
    let opts = TrainingOptions {
        num_phases: Some(2),
        sampling: SamplingPlan {
            num_phases: 2,
            sparse_samples: 10,
            seed: 0x5ED0,
        },
        ..TrainingOptions::default()
    };
    Opprox::train(&app, &opts).expect("training")
}

#[test]
fn trained_system_round_trips_through_json() {
    let system = trained();
    let json = system.to_json().expect("serialize");
    let restored = TrainedOpprox::from_json(&json).expect("deserialize");
    assert_eq!(system.app_name(), restored.app_name());
    assert_eq!(system.num_phases(), restored.num_phases());
    // Decisions must be identical after the round trip.
    let input = InputParams::new(vec![20.0, 3.0]);
    for budget in [5.0, 15.0, 40.0] {
        let a = OptimizeRequest::new(input.clone(), AccuracySpec::new(budget))
            .run(&system)
            .unwrap();
        let b = OptimizeRequest::new(input.clone(), AccuracySpec::new(budget))
            .run(&restored)
            .unwrap();
        assert_eq!(a.plan.schedule, b.plan.schedule, "budget {budget}");
    }
}

#[test]
fn schedules_round_trip_through_json() {
    let schedule = PhaseSchedule::new(
        vec![
            LevelConfig::new(vec![0, 1, 2]),
            LevelConfig::new(vec![3, 0, 1]),
        ],
        120,
    )
    .unwrap();
    let json = serde_json::to_string(&schedule).unwrap();
    let back: PhaseSchedule = serde_json::from_str(&json).unwrap();
    assert_eq!(schedule, back);
}

#[test]
fn corrupt_json_is_rejected_gracefully() {
    assert!(TrainedOpprox::from_json("").is_err());
    assert!(TrainedOpprox::from_json("{\"app_name\": 3}").is_err());
}
