//! Cross-crate tests for the shared evaluation engine: parallel
//! determinism of training data and execution-cache reuse across
//! pipeline entry points.

use opprox::approx_rt::InputParams;
use opprox::core::evaluator::EvalEngine;
use opprox::core::oracle::phase_agnostic_oracle_with;
use opprox::core::sampling::{collect_training_data_with, SamplingPlan};
use opprox::core::AccuracySpec;
use opprox_apps::{CoMd, Pso};
use opprox_testutil::fixtures::prod_input;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Training data collected on the parallel engine is bit-identical
    /// to a single-thread collection, for any thread count and sampling
    /// seed: results are assembled in submission order, so worker
    /// scheduling never leaks into the profile.
    #[test]
    fn parallel_training_data_is_bit_identical_to_sequential(
        threads in 2usize..5,
        seed in 0u64..1_000,
    ) {
        let app = Pso::new();
        let inputs = vec![InputParams::new(vec![12.0, 3.0]), prod_input("PSO")];
        let plan = SamplingPlan {
            num_phases: 2,
            sparse_samples: 6,
            seed,
        };
        let sequential =
            collect_training_data_with(&EvalEngine::new(1), &app, &inputs, &plan).unwrap();
        let parallel =
            collect_training_data_with(&EvalEngine::new(threads), &app, &inputs, &plan).unwrap();
        // Compare the serialized form: float bits, record order, and
        // control-flow signatures must all match exactly — not just
        // approximately equal measurements.
        prop_assert_eq!(
            serde_json::to_string(&sequential).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
    }
}

/// CoMD's single-phase probes resume from golden-run checkpoints taken
/// by prefix passes on the pool; which worker runs which pass or probe
/// never reaches the training data, byte for byte, at 1, 2 and 4
/// threads.
#[test]
fn resumed_training_data_is_byte_identical_across_thread_counts() {
    let app = CoMd::new();
    let inputs = vec![
        InputParams::new(vec![2.0, 1.1, 40.0]),
        InputParams::new(vec![3.0, 1.2, 30.0]),
        InputParams::new(vec![2.0, 1.3, 25.0]),
    ];
    let plan = SamplingPlan {
        num_phases: 4,
        sparse_samples: 5,
        seed: 0xE7,
    };
    let collect = |threads: usize| {
        let engine = EvalEngine::new(threads);
        let data = collect_training_data_with(&engine, &app, &inputs, &plan).unwrap();
        assert!(
            engine
                .telemetry()
                .counter_value("eval.prefix.iters_skipped")
                > 0
        );
        serde_json::to_string(&data).unwrap()
    };
    let single = collect(1);
    for threads in [2, 4] {
        assert_eq!(single, collect(threads), "1 vs {threads} threads");
    }
}

/// Re-running the oracle at a different budget on the same engine costs
/// zero new executions: the sweep's configuration space is already in
/// the execution cache, only the winner filter changes.
#[test]
fn shared_engine_makes_repeat_oracle_sweeps_free() {
    let app = Pso::new();
    let input = prod_input("PSO");
    let engine = EvalEngine::default();

    let tight = phase_agnostic_oracle_with(&engine, &app, &input, &AccuracySpec::new(2.0))
        .expect("tight-budget oracle");
    let after_first = engine.metrics();
    assert!(after_first.executions > 0);

    let loose = phase_agnostic_oracle_with(&engine, &app, &input, &AccuracySpec::new(20.0))
        .expect("loose-budget oracle");
    let after_second = engine.metrics();

    assert_eq!(
        after_second.executions, after_first.executions,
        "second sweep re-executed configurations instead of hitting the cache"
    );
    assert!(
        after_second.cache_hits > after_first.cache_hits,
        "second sweep reported no cache hits"
    );
    // A looser budget admits every plan the tight one did.
    assert!(loose.speedup >= tight.speedup);
}

/// A cold engine pays for the full sweep; the execution count a fresh
/// engine reports for the same budget matches what the shared engine
/// paid only once.
#[test]
fn fresh_engine_repays_the_full_sweep() {
    let app = Pso::new();
    let input = prod_input("PSO");
    let spec = AccuracySpec::new(20.0);

    let shared = EvalEngine::default();
    phase_agnostic_oracle_with(&shared, &app, &input, &AccuracySpec::new(2.0)).expect("warm-up");
    let warm_before = shared.metrics().executions;
    phase_agnostic_oracle_with(&shared, &app, &input, &spec).expect("warm oracle");
    let warm_cost = shared.metrics().executions - warm_before;

    let cold = EvalEngine::default();
    phase_agnostic_oracle_with(&cold, &app, &input, &spec).expect("cold oracle");
    let cold_cost = cold.metrics().executions;

    assert_eq!(
        warm_cost, 0,
        "warm engine should serve the sweep from cache"
    );
    assert!(cold_cost > 0, "cold engine must actually execute the sweep");
}
