//! Cross-crate property tests on the runtime/optimizer invariants.

use opprox::approx_rt::block::BlockDescriptor;
use opprox::approx_rt::config::{config_space_size, enumerate_configs, sample_configs};
use opprox::approx_rt::{ApproxApp, InputParams, LevelConfig, PhaseSchedule};
use opprox::core::modeling::{AppModels, ModelingOptions};
use opprox::core::optimizer::{
    optimize_phase, Conservatism, PhasePlan, EXHAUSTIVE_LIMIT, LEAF_BATCH, WORTH_IT_SPEEDUP,
};
use opprox::core::sampling::{collect_training_data, SamplingPlan};
use opprox_apps::Pso;
use opprox_testutil::fixtures::{blocks_with_levels, pso_blocks};
use opprox_testutil::rng::SplitMix64;
use proptest::prelude::*;
use std::sync::OnceLock;

/// PSO models fitted once and shared across property cases (fitting is
/// far more expensive than the searches under test).
fn pso_models() -> &'static AppModels {
    static MODELS: OnceLock<AppModels> = OnceLock::new();
    MODELS.get_or_init(|| {
        let app = Pso::new();
        let inputs = vec![
            InputParams::new(vec![16.0, 3.0]),
            InputParams::new(vec![24.0, 4.0]),
        ];
        let plan = SamplingPlan {
            num_phases: 2,
            sparse_samples: 10,
            seed: 5,
        };
        let data = collect_training_data(&app, &inputs, &plan).unwrap();
        AppModels::fit(&data, 2, &ModelingOptions::default()).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every iteration belongs to exactly one phase and phases are
    /// contiguous and non-decreasing.
    #[test]
    fn phase_assignment_is_monotone_partition(
        num_phases in 1usize..8,
        expected in 1u64..500,
    ) {
        let configs = vec![LevelConfig::accurate(2); num_phases];
        let s = PhaseSchedule::new(configs, expected).unwrap();
        let mut prev = 0usize;
        for it in 0..expected {
            let ph = s.phase_of(it);
            prop_assert!(ph < num_phases);
            prop_assert!(ph >= prev, "phase regressed at iteration {it}");
            prop_assert!(ph <= prev + 1, "phase skipped at iteration {it}");
            prev = ph;
        }
        // Iterations beyond the expected end stay in the final phase.
        prop_assert_eq!(s.phase_of(expected * 3 + 1), num_phases - 1);
    }

    /// The enumerated configuration space has exactly the advertised size
    /// and contains no duplicates.
    #[test]
    fn config_enumeration_matches_size(levels in proptest::collection::vec(0u8..4, 1..4)) {
        let blocks = blocks_with_levels(&levels);
        let all: Vec<_> = enumerate_configs(&blocks).collect();
        prop_assert_eq!(all.len() as u64, config_space_size(&blocks));
        let set: std::collections::HashSet<_> = all.iter().collect();
        prop_assert_eq!(set.len(), all.len());
    }

    /// Sampled configurations are always valid and never accurate.
    #[test]
    fn sampled_configs_are_valid(seed in 0u64..1000, count in 1usize..12) {
        let blocks = pso_blocks();
        for c in sample_configs(&blocks, count, seed) {
            prop_assert!(c.validate(&blocks).is_ok());
            prop_assert!(!c.is_accurate());
        }
    }

    /// PSO is a pure function of (input, schedule): work, iterations and
    /// output never vary between repeated runs.
    #[test]
    fn pso_runs_are_reproducible(swarm in 8u32..24, dim in 2u32..5, seed in 0u64..50) {
        let app = Pso::new();
        let input = InputParams::new(vec![swarm as f64, dim as f64]);
        let cfg = sample_configs(&app.meta().blocks, 1, seed).remove(0);
        let schedule = PhaseSchedule::constant(cfg);
        let a = app.run(&input, &schedule).unwrap();
        let b = app.run(&input, &schedule).unwrap();
        prop_assert_eq!(a.work, b.work);
        prop_assert_eq!(a.outer_iters, b.outer_iters);
        prop_assert_eq!(a.output, b.output);
    }

    /// QoS degradation of a run against itself is always zero, and
    /// speedup against itself is exactly 1.
    #[test]
    fn self_comparison_is_neutral(swarm in 8u32..20, dim in 2u32..4) {
        let app = Pso::new();
        let input = InputParams::new(vec![swarm as f64, dim as f64]);
        let g = app.golden(&input).unwrap();
        prop_assert_eq!(app.qos_degradation(&g, &g), 0.0);
        prop_assert_eq!(g.speedup_over(&g), 1.0);
    }

    /// The memoized per-phase solve returns the *bitwise identical* plan
    /// to a per-row reference, in both conservatism modes, across
    /// randomized sub- and super-spaces of the trained block space (up to
    /// 1000 configurations, so some cross a `LEAF_BATCH` chunk boundary),
    /// cold on a fresh clone of the models and warm on a repeat call, and
    /// predicts nothing at a non-positive budget.
    #[test]
    fn phase_scan_matches_per_row_reference(
        maxes in proptest::collection::vec(1u8..10, 3),
        budget in -5.0f64..40.0,
        phase in 0usize..2,
        swarm in 12u32..28,
    ) {
        let mut blocks = pso_blocks();
        for (b, &m) in blocks.iter_mut().zip(&maxes) {
            b.max_level = m;
        }
        let input = InputParams::new(vec![swarm as f64, 3.0]);
        let cold = pso_models().clone();
        for cons in [Conservatism::Band, Conservatism::Point] {
            let reference = reference_predictions(&blocks, &input, phase, cons);
            check_solve(&cold, &blocks, &input, phase, budget, cons, &reference);
            check_solve(&cold, &blocks, &input, phase, budget, cons, &reference);
        }
    }
}

/// One configuration's constrained QoS and point speedup, as the
/// reference sees them.
type Predicted = (LevelConfig, f64, f64);

/// Every non-accurate configuration of `blocks`, in enumeration order,
/// predicted one row at a time with [`AppModels::predict_pair`]: the
/// prediction half of the per-phase solve written the plain way.
fn reference_predictions(
    blocks: &[BlockDescriptor],
    input: &InputParams,
    phase: usize,
    cons: Conservatism,
) -> Vec<Predicted> {
    enumerate_configs(blocks)
        .filter(|c| !c.is_accurate())
        .map(|config| {
            let (point, conservative) = pso_models()
                .predict_pair(input, phase, &config)
                .expect("reference predicts");
            let qos = match cons {
                Conservatism::Band => conservative.qos,
                Conservatism::Point => point.qos,
            };
            (config, qos, point.speedup)
        })
        .collect()
}

/// The per-phase scan as it was before staircases: at a positive budget,
/// keep the first configuration with the greatest point speedup among
/// those whose constrained QoS fits `budget` and whose point speedup
/// clears the worth-it gate.
fn per_row_reference(predicted: &[Predicted], phase: usize, budget: f64) -> Option<PhasePlan> {
    if budget <= 0.0 {
        return None;
    }
    let mut best: Option<PhasePlan> = None;
    for (config, qos, speedup) in predicted {
        if *qos > budget || *speedup <= WORTH_IT_SPEEDUP {
            continue;
        }
        if best.as_ref().is_none_or(|b| *speedup > b.predicted_speedup) {
            best = Some(PhasePlan {
                phase,
                config: config.clone(),
                allocated_budget: budget,
                predicted_qos: *qos,
                predicted_speedup: *speedup,
            });
        }
    }
    best
}

/// Asserts that [`optimize_phase`] on `models` agrees with
/// [`per_row_reference`] bit for bit (config, predicted QoS and speedup).
fn check_solve(
    models: &AppModels,
    blocks: &[BlockDescriptor],
    input: &InputParams,
    phase: usize,
    budget: f64,
    cons: Conservatism,
    reference: &[Predicted],
) {
    let space = config_space_size(blocks);
    assert!(space <= EXHAUSTIVE_LIMIT);
    let plan = optimize_phase(models, blocks, input, phase, budget, cons).expect("phase solves");
    let expected = per_row_reference(reference, phase, budget);
    let bits = |p: &Option<PhasePlan>| {
        p.as_ref().map(|p| {
            (
                p.config.clone(),
                p.predicted_qos.to_bits(),
                p.predicted_speedup.to_bits(),
            )
        })
    };
    assert_eq!(bits(&plan), bits(&expected), "{cons:?} budget {budget}");
    assert_eq!(plan, expected, "{cons:?} budget {budget}");
    assert!(budget > 0.0 || plan.is_none());
}

/// About 200 budgets for one `(input, phase, mode)`: the edges (zero,
/// negative, `f64::MAX`), the exact QoS of up to 40 reference candidates
/// spread over their range and the float just below each (where
/// `≤ budget` flips), and seeded log-uniform draws over [1e-3, 1e4].
fn budgets(reference: &[Predicted], seed: u64) -> Vec<f64> {
    let mut out = vec![0.0, -0.0, -1.0, -1e300, f64::MAX, f64::INFINITY];
    let mut qos: Vec<f64> = reference
        .iter()
        .map(|r| r.1)
        .filter(|q| q.is_finite())
        .collect();
    qos.sort_by(f64::total_cmp);
    qos.dedup();
    let stride = qos.len().div_ceil(40).max(1);
    for &q in qos.iter().step_by(stride) {
        out.extend([q, f64::from_bits(q.to_bits().saturating_sub(1))]);
    }
    let mut rng = SplitMix64::new(seed);
    while out.len() < 200 {
        out.push(10f64.powf(-3.0 + 7.0 * rng.next_f64()));
    }
    out
}

/// The staircase answers every budget exactly as the per-row reference
/// scan does, for several inputs, both phases and both modes: the first
/// solve of each key is cold (a fresh clone of the models has an empty
/// memo), the rest are warm.
#[test]
fn staircase_answers_every_budget_like_the_reference() {
    let blocks = pso_blocks();
    let models = pso_models().clone();
    let inputs = [[16.0, 3.0], [24.0, 4.0], [20.0, 4.0], [12.0, 2.0]];
    for (i, values) in inputs.into_iter().enumerate() {
        let input = InputParams::new(values.to_vec());
        for phase in 0..2 {
            for cons in [Conservatism::Band, Conservatism::Point] {
                let reference = reference_predictions(&blocks, &input, phase, cons);
                let seed = (i * 4 + phase * 2) as u64 + u64::from(cons == Conservatism::Point);
                let budgets = budgets(&reference, seed);
                for &budget in budgets.iter().chain(budgets.first()) {
                    check_solve(&models, &blocks, &input, phase, budget, cons, &reference);
                }
            }
        }
    }
}

/// Spaces of two and three `LEAF_BATCH` chunks give the per-row
/// reference's plan, at budgets from nothing-fits to everything-fits.
/// They are solved on the shared models right after the trained space
/// at the same input, so a memo keyed without the level space would
/// answer them with the trained space's staircase.
#[test]
fn phase_scan_crosses_chunk_boundaries_like_the_reference() {
    let input = InputParams::new(vec![16.0, 3.0]);
    let trained = pso_blocks();
    let mut spaces = vec![trained.clone()];
    for maxes in [[7u8, 7, 8], [10, 10, 10]] {
        let mut blocks = trained.clone();
        for (b, m) in blocks.iter_mut().zip(maxes) {
            b.max_level = m;
        }
        assert!(config_space_size(&blocks) > LEAF_BATCH as u64 + 1);
        spaces.push(blocks);
    }
    for blocks in &spaces {
        for phase in 0..2 {
            for cons in [Conservatism::Band, Conservatism::Point] {
                let reference = reference_predictions(blocks, &input, phase, cons);
                for budget in [0.0, 0.5, 3.0, 12.0, 40.0] {
                    check_solve(
                        pso_models(),
                        blocks,
                        &input,
                        phase,
                        budget,
                        cons,
                        &reference,
                    );
                }
            }
        }
    }
}

/// The validated optimizer's outcome must not depend on how many worker
/// threads the evaluation engine runs: the pruned search is sequential
/// and the engine's batch results are order-stable, so one thread and
/// eight must produce byte-identical schedules.
#[test]
fn schedule_is_identical_across_engine_thread_counts() {
    use opprox::core::evaluator::EvalEngine;
    use opprox::core::pipeline::{Opprox, TrainingOptions};
    use opprox::core::request::OptimizeRequest;
    use opprox::core::AccuracySpec;

    let app = Pso::new();
    let opts = TrainingOptions {
        num_phases: Some(2),
        sampling: SamplingPlan {
            num_phases: 2,
            sparse_samples: 8,
            seed: 7,
        },
        ..TrainingOptions::default()
    };
    let trained = Opprox::train(&app, &opts).unwrap();
    let input = InputParams::new(vec![16.0, 3.0]);

    let schedule_with = |threads: usize| {
        let engine = EvalEngine::new(threads);
        let outcome = OptimizeRequest::new(input.clone(), AccuracySpec::new(12.0))
            .validate_on(&app)
            .engine(&engine)
            .run(&trained)
            .unwrap();
        serde_json::to_string(&outcome.plan.schedule).unwrap()
    };

    let single = schedule_with(1);
    let eight = schedule_with(8);
    assert_eq!(single, eight, "schedule artifact varies with thread count");
}
