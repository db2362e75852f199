//! Registry-driven [`ApproxApp`] contract suite.
//!
//! Every application listed in [`opprox_apps::registry`] must hold
//! the contracts the OPPROX pipeline silently assumes: a level-0
//! schedule reproduces the golden run bitwise, QoS degradation is finite
//! and non-negative everywhere, per-iteration block work never increases
//! with the approximation level, results are byte-identical across
//! engine thread counts and reruns, every declared block actually
//! executes on the reference input, and a run resumed from a golden-run
//! checkpoint equals the run from scratch. The checks take `&dyn ApproxApp`, so
//! a test over `all_apps()` covers any future port for free — a new app
//! is conformant the moment it is listed, or the suite names the exact
//! contract it breaks.
//!
//! # Example
//!
//! ```
//! use opprox_testutil::conformance::assert_level_zero_reproduces_golden;
//!
//! let app = opprox_apps::registry::by_name("pso").unwrap();
//! assert_level_zero_reproduces_golden(app.as_ref());
//! ```

use opprox_approx_rt::block::TechniqueKind;
use opprox_approx_rt::config::{local_sweep, sample_configs};
use opprox_approx_rt::{ApproxApp, InputParams, LevelConfig, PhaseSchedule, RunResult};
use opprox_core::EvalEngine;

/// Seed for the sampled-configuration probes, distinct from the
/// behavioural suite's so the two suites exercise different corners.
const CONFORMANCE_SEED: u64 = 0xC04F;

/// Sampled configurations per check.
const NUM_SAMPLES: usize = 5;

/// Relative slack on the per-iteration work monotonicity check, to
/// absorb convergence-length feedback in apps whose iteration count
/// reacts to approximation.
const WORK_SLACK: f64 = 1.02;

/// The reference input of an app: the first representative input, which
/// every port must provide.
fn reference_input(app: &dyn ApproxApp) -> InputParams {
    app.representative_inputs()
        .into_iter()
        .next()
        .unwrap_or_else(|| panic!("{}: no representative inputs", app.meta().name))
}

/// Phases of the split the checkpoint check probes.
const RESUME_PHASES: usize = 4;

/// Bitwise equality of two runs: every output `f64` compared by bit
/// pattern (so `-0.0` vs `0.0` or NaN payload drift is caught), plus
/// work, iteration counts and the call-context log, which feeds the
/// control-flow signatures and iteration counts training records.
fn bitwise_equal(a: &RunResult, b: &RunResult) -> bool {
    a.work == b.work
        && a.outer_iters == b.outer_iters
        && a.log == b.log
        && a.output.len() == b.output.len()
        && a.output
            .iter()
            .zip(b.output.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A schedule at the accurate configuration must reproduce the golden
/// run bitwise — level 0 is "no approximation", not "a little".
pub fn assert_level_zero_reproduces_golden(app: &dyn ApproxApp) {
    let name = &app.meta().name;
    let input = reference_input(app);
    let golden = app.golden(&input).expect("golden run");
    let accurate = app
        .run(
            &input,
            &PhaseSchedule::constant(LevelConfig::accurate(app.meta().num_blocks())),
        )
        .expect("accurate run");
    assert!(
        bitwise_equal(&golden, &accurate),
        "{name}: an all-zero schedule does not reproduce the golden run"
    );
    assert_eq!(
        app.qos_degradation(&golden, &accurate),
        0.0,
        "{name}: accurate run has nonzero QoS degradation"
    );
}

/// QoS degradation must be finite and non-negative at every sampled
/// configuration and at the all-max extreme.
pub fn assert_qos_finite_and_nonnegative(app: &dyn ApproxApp) {
    let meta = app.meta();
    let name = meta.name.clone();
    let input = reference_input(app);
    let golden = app.golden(&input).expect("golden run");
    let mut configs = sample_configs(&meta.blocks, NUM_SAMPLES, CONFORMANCE_SEED);
    configs.push(LevelConfig::new(
        meta.blocks.iter().map(|b| b.max_level).collect(),
    ));
    for cfg in configs {
        let run = app
            .run(&input, &PhaseSchedule::constant(cfg.clone()))
            .expect("approximate run");
        let qos = app.qos_degradation(&golden, &run);
        assert!(
            qos.is_finite(),
            "{name}: non-finite QoS {qos} at {:?}",
            cfg.levels()
        );
        assert!(
            qos >= 0.0,
            "{name}: negative QoS {qos} at {:?}",
            cfg.levels()
        );
    }
}

/// Per-iteration work of each block must not increase with that block's
/// approximation level (local sweeps, all other blocks accurate).
///
/// Parameter-tuning blocks are exempt: tuning an accuracy parameter
/// moves work *between* blocks (fewer solver iterations, looser
/// tolerances) rather than thinning the block's own per-call cost, so
/// per-iteration monotonicity is not part of that technique's contract.
pub fn assert_block_work_monotone(app: &dyn ApproxApp) {
    let meta = app.meta();
    let name = meta.name.clone();
    let input = reference_input(app);
    for (b, desc) in meta.blocks.iter().enumerate() {
        if desc.technique == TechniqueKind::ParameterTuning {
            continue;
        }
        let golden = app.golden(&input).expect("golden run");
        let mut prev = golden.log.work_of_block(b) as f64 / golden.outer_iters as f64;
        for cfg in local_sweep(&meta.blocks, b) {
            let lvl = cfg.level(b);
            let run = app
                .run(&input, &PhaseSchedule::constant(cfg))
                .expect("sweep run");
            let per_iter = run.log.work_of_block(b) as f64 / run.outer_iters as f64;
            assert!(
                per_iter <= prev * WORK_SLACK,
                "{name}: block `{}` per-iteration work rose from {prev} to {per_iter} at level {lvl}",
                desc.name
            );
            prev = per_iter;
        }
    }
}

/// `(qos, work)` must be byte-identical whether the evaluation engine
/// runs on one thread or several, and across engine instances.
pub fn assert_thread_count_invariance(app: &dyn ApproxApp) {
    let meta = app.meta();
    let name = meta.name.clone();
    let input = reference_input(app);
    let mut jobs: Vec<(InputParams, PhaseSchedule)> = vec![(
        input.clone(),
        PhaseSchedule::constant(LevelConfig::accurate(meta.num_blocks())),
    )];
    for cfg in sample_configs(&meta.blocks, NUM_SAMPLES, CONFORMANCE_SEED ^ 0x7) {
        jobs.push((input.clone(), PhaseSchedule::constant(cfg)));
    }
    let serial = EvalEngine::new(1)
        .run_batch(app, &jobs)
        .expect("serial batch");
    for threads in [4usize, 8] {
        let parallel = EvalEngine::new(threads)
            .run_batch(app, &jobs)
            .expect("parallel batch");
        for (i, (s, p)) in serial.iter().zip(parallel.iter()).enumerate() {
            assert!(
                bitwise_equal(s, p),
                "{name}: job {i} differs between 1 and {threads} threads"
            );
        }
    }
    let rerun = EvalEngine::new(1)
        .run_batch(app, &jobs)
        .expect("rerun batch");
    for (i, (s, r)) in serial.iter().zip(rerun.iter()).enumerate() {
        assert!(
            bitwise_equal(s, r),
            "{name}: job {i} differs between engine instances"
        );
    }
}

/// Every block the app declares must actually execute (record nonzero
/// work) on the reference input's golden run — a declared-but-dead
/// block would train a model on pure noise.
///
/// Parameter-tuning blocks are exempt here too: they are knobs whose
/// effect lands in *other* blocks' work, not call sites of their own,
/// so instead this check asserts their tuning has an observable effect
/// on total work.
pub fn assert_declared_blocks_execute(app: &dyn ApproxApp) {
    let meta = app.meta();
    let name = meta.name.clone();
    let input = reference_input(app);
    let golden = app.golden(&input).expect("golden run");
    assert_eq!(
        golden.log.outer_iterations(),
        golden.outer_iters,
        "{name}: call-context log disagrees with outer_iters"
    );
    for (b, desc) in meta.blocks.iter().enumerate() {
        if desc.technique == TechniqueKind::ParameterTuning {
            let tuned = app
                .run(
                    &input,
                    &PhaseSchedule::constant(
                        LevelConfig::accurate(meta.num_blocks()).with_level(b, desc.max_level),
                    ),
                )
                .expect("tuned run");
            assert!(
                tuned.work < golden.work,
                "{name}: tuning block `{}` to level {} changed nothing",
                desc.name,
                desc.max_level
            );
            continue;
        }
        assert!(
            golden.log.work_of_block(b) > 0,
            "{name}: declared block `{}` recorded no work on the reference input",
            desc.name
        );
    }
}

/// A run resumed from a golden-run checkpoint must equal the run from
/// scratch bitwise, call-context log included: for each phase of a
/// 4-phase split, the local-sweep and sampled configurations applied in
/// that phase resume from the checkpoint at the phase's first iteration.
/// An app that takes no checkpoints passes trivially; its runs always
/// start from scratch.
pub fn assert_resume_matches_scratch(app: &dyn ApproxApp) {
    let meta = app.meta();
    let name = meta.name.clone();
    let input = reference_input(app);
    let golden = app.golden(&input).expect("golden run");
    let split = PhaseSchedule::new(
        vec![LevelConfig::accurate(meta.num_blocks()); RESUME_PHASES],
        golden.outer_iters,
    )
    .expect("phase split");
    let starts: Vec<u64> = (0..RESUME_PHASES).map(|p| split.phase_start(p)).collect();
    let checkpoints = app.checkpoints(&input, &starts).expect("checkpoints");
    let mut configs: Vec<LevelConfig> = (0..meta.num_blocks())
        .flat_map(|b| local_sweep(&meta.blocks, b))
        .collect();
    configs.extend(sample_configs(
        &meta.blocks,
        NUM_SAMPLES,
        CONFORMANCE_SEED ^ 0x6,
    ));
    for checkpoint in &checkpoints {
        let phase = starts
            .iter()
            .position(|&s| s == checkpoint.iter())
            .unwrap_or_else(|| {
                panic!(
                    "{name}: checkpoint at iteration {} matches no phase start",
                    checkpoint.iter()
                )
            });
        for config in &configs {
            let schedule = PhaseSchedule::single_phase(
                config.clone(),
                phase,
                RESUME_PHASES,
                golden.outer_iters,
            )
            .expect("probe schedule");
            let resumed = app.resume(checkpoint, &schedule).expect("resumed run");
            let scratch = app.run(&input, &schedule).expect("run from scratch");
            assert!(
                bitwise_equal(&resumed, &scratch),
                "{name}: resuming at iteration {} (phase {phase}) differs from a run \
                 from scratch at {:?}",
                checkpoint.iter(),
                config.levels()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opprox_approx_rt::app::AppMeta;
    use opprox_approx_rt::block::BlockDescriptor;
    use opprox_approx_rt::log::CallContextLog;
    use opprox_approx_rt::technique::perforated_len;
    use opprox_approx_rt::{OuterLoop, RunResult, RuntimeError, WorkCounter};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A deliberately broken app: declares two blocks but only runs one.
    struct DeadBlock {
        meta: AppMeta,
    }

    impl DeadBlock {
        fn new() -> Self {
            DeadBlock {
                meta: AppMeta {
                    name: "DeadBlock".into(),
                    input_param_names: vec!["n".into()],
                    blocks: vec![
                        BlockDescriptor::new("live", TechniqueKind::LoopPerforation, 2),
                        BlockDescriptor::new("dead", TechniqueKind::Memoization, 2),
                    ],
                },
            }
        }
    }

    impl ApproxApp for DeadBlock {
        fn meta(&self) -> &AppMeta {
            &self.meta
        }
        fn run(
            &self,
            input: &InputParams,
            schedule: &PhaseSchedule,
        ) -> Result<RunResult, RuntimeError> {
            self.meta.validate_input(input)?;
            self.meta.validate_schedule(schedule)?;
            let mut log = CallContextLog::new();
            let mut counter = WorkCounter::new();
            for iter in 0..4u64 {
                log.record(iter, 0, 10);
                counter.add(10);
            }
            Ok(RunResult {
                output: vec![1.0; 4],
                work: counter.total(),
                outer_iters: 4,
                log,
            })
        }
        fn representative_inputs(&self) -> Vec<InputParams> {
            vec![InputParams::new(vec![4.0])]
        }
    }

    /// A deliberately broken port: its step counter is an accumulator kept
    /// in the app instead of the loop state, so a resumed run counts on
    /// from wherever the previous run stopped.
    struct LeakyAccumulator {
        meta: AppMeta,
        steps: AtomicU64,
    }

    impl LeakyAccumulator {
        fn new() -> Self {
            LeakyAccumulator {
                meta: AppMeta {
                    name: "LeakyAccumulator".into(),
                    input_param_names: vec!["n".into()],
                    blocks: vec![BlockDescriptor::new(
                        "sum",
                        TechniqueKind::LoopPerforation,
                        2,
                    )],
                },
                steps: AtomicU64::new(0),
            }
        }
    }

    impl OuterLoop for LeakyAccumulator {
        type Setup = ();
        type State = f64;

        fn setup(&self, _: &InputParams) -> Result<(), RuntimeError> {
            Ok(())
        }
        fn init(&self, _: &()) -> (f64, u64) {
            self.steps.store(0, Ordering::Relaxed);
            (0.0, 0)
        }
        fn done(&self, _: &(), _: &f64, iter: u64) -> bool {
            iter >= 8
        }
        fn step(
            &self,
            _: &(),
            sum: &mut f64,
            iter: u64,
            config: &LevelConfig,
            log: &mut CallContextLog,
        ) -> u64 {
            let steps = self.steps.fetch_add(1, Ordering::Relaxed) + 1;
            let w = perforated_len(8, config.level(0)) as u64;
            *sum += (steps * w) as f64;
            log.record(iter, 0, w);
            w
        }
        fn finish(&self, _: &(), sum: f64, _: u64) -> Vec<f64> {
            vec![sum]
        }
    }

    impl ApproxApp for LeakyAccumulator {
        fn meta(&self) -> &AppMeta {
            &self.meta
        }
        opprox_approx_rt::forward_to_driver!();
        fn representative_inputs(&self) -> Vec<InputParams> {
            vec![InputParams::new(vec![8.0])]
        }
    }

    #[test]
    #[should_panic(expected = "differs from a run from scratch")]
    fn state_missing_an_accumulator_is_caught() {
        assert_resume_matches_scratch(&LeakyAccumulator::new());
    }

    #[test]
    fn leaky_accumulator_passes_the_from_scratch_checks() {
        // Sequential runs from scratch re-initialize the accumulator, so
        // only the checkpoint contract can see the leak.
        let app = LeakyAccumulator::new();
        assert_level_zero_reproduces_golden(&app);
        assert_qos_finite_and_nonnegative(&app);
    }

    #[test]
    fn conformant_app_passes_every_check() {
        let app = opprox_apps::Pso::new();
        assert_level_zero_reproduces_golden(&app);
        assert_qos_finite_and_nonnegative(&app);
        assert_block_work_monotone(&app);
        assert_thread_count_invariance(&app);
        assert_declared_blocks_execute(&app);
        assert_resume_matches_scratch(&app);
    }

    #[test]
    #[should_panic(expected = "recorded no work")]
    fn dead_block_is_caught() {
        assert_declared_blocks_execute(&DeadBlock::new());
    }

    #[test]
    fn dead_block_still_passes_unrelated_checks() {
        // The checks are independent: the broken app fails exactly the
        // coverage contract, not the determinism ones.
        let app = DeadBlock::new();
        assert_level_zero_reproduces_golden(&app);
        assert_thread_count_invariance(&app);
    }
}
