//! Property-based tests for the approximation runtime.

use opprox_approx_rt::app::AppMeta;
use opprox_approx_rt::block::{BlockDescriptor, TechniqueKind};
use opprox_approx_rt::log::CallContextLog;
use opprox_approx_rt::qos::{psnr, relative_distortion, PSNR_CAP, QOS_SATURATION};
use opprox_approx_rt::technique::{
    perforated_indices, perforated_indices_offset, perforated_len, precision_cost,
    quantization_step, quantized, should_skip, truncated_len, Memoizer,
};
use opprox_approx_rt::{
    ApproxApp, InputParams, LevelConfig, PhaseSchedule, RunResult, RuntimeError, WorkCounter,
};
use proptest::prelude::*;

/// A synthetic two-block fixture exercising the survey techniques:
/// block 0 precision-scales a deterministic value stream, block 1
/// task-skips low-significance values. The blocks write disjoint output
/// ranges, so per-element error — and therefore the relative-distortion
/// QoS — is provably monotone in each level: floor quantization onto a
/// doubling grid nests (each coarser grid is a sub-grid of the finer
/// one), and the skipped set only grows with the level.
struct SyntheticSurvey {
    meta: AppMeta,
}

impl SyntheticSurvey {
    fn new() -> Self {
        SyntheticSurvey {
            meta: AppMeta {
                name: "SyntheticSurvey".into(),
                input_param_names: vec!["tasks".into()],
                blocks: vec![
                    BlockDescriptor::new("quantize", TechniqueKind::PrecisionScaling, 5),
                    BlockDescriptor::new("skip", TechniqueKind::TaskSkipping, 5),
                ],
            },
        }
    }
}

impl ApproxApp for SyntheticSurvey {
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
        let tasks = input.get(0) as usize;
        if !(1..=4096).contains(&tasks) {
            return Err(RuntimeError::InvalidInput(format!(
                "tasks must be in 1..=4096, got {tasks}"
            )));
        }
        let mut log = CallContextLog::new();
        let mut counter = WorkCounter::new();
        let mut output = Vec::with_capacity(2 * 4 * tasks);
        for iter in 0..4u64 {
            let cfg = schedule.config_at(iter);
            // A deterministic value stream in [-5, 5.1).
            let value = |k: usize| ((iter as usize * 17 + k * 29) % 101) as f64 / 10.0 - 5.0;

            let lvl_p = cfg.level(0);
            let cost = precision_cost(4, lvl_p);
            let mut w = 0u64;
            for k in 0..tasks {
                output.push(quantized(value(k), lvl_p, 0.1));
                w += cost;
            }
            counter.add(w);
            log.record(iter, 0, w);

            let lvl_s = cfg.level(1);
            let mut w = 0u64;
            for k in 0..tasks {
                let v = value(k);
                let significance = v.abs() / 5.1;
                if should_skip(significance, lvl_s, 0.15) {
                    output.push(0.0);
                    w += 1;
                } else {
                    output.push(v);
                    w += 5;
                }
            }
            counter.add(w);
            log.record(iter, 1, w);
        }
        Ok(RunResult {
            output,
            work: counter.total(),
            outer_iters: 4,
            log,
        })
    }

    fn representative_inputs(&self) -> Vec<InputParams> {
        vec![InputParams::new(vec![64.0])]
    }
}

proptest! {
    /// Perforation visits a subset of the index space, in order, starting
    /// at 0, and the count matches the closed form.
    #[test]
    fn perforation_visits_ordered_subset(n in 0usize..200, level in 0u8..8) {
        let idx: Vec<usize> = perforated_indices(n, level).collect();
        prop_assert_eq!(idx.len(), perforated_len(n, level));
        prop_assert!(idx.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(idx.iter().all(|&i| i < n));
        if n > 0 {
            prop_assert_eq!(idx[0], 0);
        }
    }

    /// Rotating-offset perforation covers EVERY index within one full
    /// stride cycle of outer iterations.
    #[test]
    fn offset_perforation_covers_everything_per_cycle(n in 1usize..100, level in 0u8..6) {
        let stride = level as usize + 1;
        let mut seen = vec![false; n];
        for offset in 0..stride {
            for i in perforated_indices_offset(n, level, offset) {
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "uncovered indices at level {level}");
    }

    /// Truncation never yields more iterations than the original loop and
    /// is monotone non-increasing in the level.
    #[test]
    fn truncation_is_monotone(n in 1usize..300, drop in 1usize..50, min_len in 0usize..20) {
        let mut prev = usize::MAX;
        for level in 0u8..8 {
            let len = truncated_len(n, level, drop, min_len);
            prop_assert!(len <= n);
            prop_assert!(len <= prev);
            prev = len;
        }
    }

    /// Memoization at level `l` computes exactly ceil(n / (l+1)) times
    /// over n sequential iterations starting from an empty cache.
    #[test]
    fn memoizer_compute_count_matches_stride(n in 1usize..100, level in 0u8..6) {
        let mut memo: Memoizer<usize> = Memoizer::new();
        let mut computes = 0usize;
        for i in 0..n {
            memo.get_or_compute(i, level, || { computes += 1; i });
        }
        prop_assert_eq!(computes, n.div_ceil(level as usize + 1));
    }

    /// Relative distortion is zero iff outputs match, non-negative, and
    /// saturated at the crash plateau.
    #[test]
    fn distortion_properties(
        exact in proptest::collection::vec(-100.0f64..100.0, 1..30),
        noise in proptest::collection::vec(-1.0f64..1.0, 30),
    ) {
        prop_assert_eq!(relative_distortion(&exact, &exact), 0.0);
        let approx: Vec<f64> = exact.iter().zip(noise.iter()).map(|(e, d)| e + d).collect();
        let q = relative_distortion(&exact, &approx);
        prop_assert!(q >= 0.0);
        prop_assert!(q <= QOS_SATURATION);
    }

    /// PSNR is symmetric and capped.
    #[test]
    fn psnr_properties(
        a in proptest::collection::vec(0.0f64..255.0, 4..40),
        b in proptest::collection::vec(0.0f64..255.0, 40),
    ) {
        let b = &b[..a.len()];
        let ab = psnr(&a, b, 255.0);
        let ba = psnr(b, &a, 255.0);
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert!(ab <= PSNR_CAP);
        prop_assert!(ab > 0.0);
    }

    /// A single-phase probe schedule is accurate everywhere except its
    /// designated phase.
    #[test]
    fn single_phase_probe_is_isolated(
        phase in 0usize..4,
        expected in 4u64..200,
        levels in proptest::collection::vec(0u8..4, 2..4),
    ) {
        prop_assume!(levels.iter().any(|&l| l > 0));
        let cfg = LevelConfig::new(levels);
        let s = PhaseSchedule::single_phase(cfg.clone(), phase, 4, expected).unwrap();
        for it in 0..expected {
            if s.phase_of(it) == phase {
                prop_assert_eq!(s.config_at(it), &cfg);
            } else {
                prop_assert!(s.config_at(it).is_accurate());
            }
        }
    }

    /// `phase_start` is the one place a phase's first iteration is found:
    /// `phase_of(i) >= p` holds exactly when `i >= phase_start(p)`, for
    /// expected iteration counts below, equal to and above the phase count
    /// (with and without a remainder), for iterations past the expected
    /// end, and for the phase past the last, which never starts. A
    /// single-phase probe's accurate prefix ends where its phase starts.
    #[test]
    fn phase_start_is_the_first_iteration_of_its_phase(
        case in (1usize..9).prop_flat_map(|n| (Just(n), 1u64..(6 * n as u64 + 6))),
    ) {
        let (phases, expected) = case;
        let s = PhaseSchedule::new(vec![LevelConfig::accurate(1); phases], expected).unwrap();
        let last = expected + 3 * phases as u64;
        for p in 0..=phases {
            let start = s.phase_start(p);
            for i in (0..last).chain([u64::MAX - 1]) {
                prop_assert_eq!(s.phase_of(i) >= p, i >= start, "phase {} iteration {}", p, i);
            }
            if p < phases {
                let probe = PhaseSchedule::single_phase(
                    LevelConfig::new(vec![1]), p, phases, expected,
                ).unwrap();
                prop_assert_eq!(probe.accurate_prefix(), start);
            }
        }
        prop_assert_eq!(s.phase_start(0), 0);
        prop_assert_eq!(s.phase_start(phases), u64::MAX);
        prop_assert_eq!(s.accurate_prefix(), u64::MAX);
    }

    /// Floor quantization is exact at level 0 and its error never
    /// decreases as the grid coarsens — each doubled step is a sub-grid
    /// of the previous one.
    #[test]
    fn quantization_error_is_monotone_in_level(
        v in -1e4f64..1e4,
        base in 1e-3f64..10.0,
    ) {
        prop_assert_eq!(quantized(v, 0, base), v);
        prop_assert_eq!(quantization_step(0, base), 0.0);
        let mut prev_err = 0.0;
        for level in 1u8..9 {
            let q = quantized(v, level, base);
            let err = (v - q).abs();
            prop_assert!(q <= v, "floor quantization rounds down");
            prop_assert!(err < quantization_step(level, base));
            prop_assert!(err + 1e-12 >= prev_err, "error shrank from {prev_err} to {err} at level {level}");
            prev_err = err;
        }
    }

    /// Precision cost is non-increasing in the level, equals the full
    /// cost at level 0, and never reaches zero — approximate hardware
    /// still executes the instruction.
    #[test]
    fn precision_cost_is_monotone_and_positive(full in 1u64..100_000) {
        prop_assert_eq!(precision_cost(full, 0), full);
        let mut prev = full;
        for level in 1u8..12 {
            let c = precision_cost(full, level);
            prop_assert!(c >= 1);
            prop_assert!(c <= prev);
            prev = c;
        }
    }

    /// The skipped set grows with the level: a task skipped at level `l`
    /// is skipped at every higher level, and level 0 skips nothing.
    #[test]
    fn skipped_set_grows_with_level(
        significance in 0.0f64..2.0,
        step in 1e-3f64..1.0,
    ) {
        prop_assert!(!should_skip(significance, 0, step));
        for level in 0u8..8 {
            if should_skip(significance, level, step) {
                prop_assert!(
                    should_skip(significance, level + 1, step),
                    "task un-skipped when the level rose from {level}"
                );
            }
        }
    }

    /// The synthetic survey app accepts every in-range configuration
    /// without panicking and rejects out-of-range levels with a typed
    /// error — never an unwind.
    #[test]
    fn synthetic_survey_never_panics(
        levels in proptest::collection::vec(0u8..10, 2),
        tasks in 1u64..200,
    ) {
        let app = SyntheticSurvey::new();
        let input = InputParams::new(vec![tasks as f64]);
        let schedule = PhaseSchedule::constant(LevelConfig::new(levels.clone()));
        match app.run(&input, &schedule) {
            Ok(run) => {
                prop_assert!(levels.iter().all(|&l| l <= 5));
                prop_assert!(run.output.iter().all(|v| v.is_finite()));
                prop_assert!(run.work > 0);
            }
            Err(e) => {
                prop_assert!(levels.iter().any(|&l| l > 5), "in-range config refused: {e}");
            }
        }
    }

    /// QoS degradation is monotone under the pointwise order on
    /// configurations: raising any level never improves quality.
    #[test]
    fn synthetic_survey_qos_is_monotone_in_levels(
        lo in proptest::collection::vec(0u8..6, 2),
        bump in proptest::collection::vec(0u8..6, 2),
        tasks in 8u64..128,
    ) {
        let app = SyntheticSurvey::new();
        let input = InputParams::new(vec![tasks as f64]);
        let hi: Vec<u8> = lo.iter().zip(bump.iter()).map(|(&a, &d)| (a + d).min(5)).collect();
        let golden = app.golden(&input).unwrap();
        let q_lo = app.qos_degradation(
            &golden,
            &app.run(&input, &PhaseSchedule::constant(LevelConfig::new(lo))).unwrap(),
        );
        let q_hi = app.qos_degradation(
            &golden,
            &app.run(&input, &PhaseSchedule::constant(LevelConfig::new(hi))).unwrap(),
        );
        prop_assert!(
            q_lo <= q_hi + 1e-12,
            "raising levels improved QoS: {q_lo} -> {q_hi}"
        );
    }

    /// Validation accepts exactly the configurations whose levels are all
    /// within their block maxima.
    #[test]
    fn config_validation_matches_levels(levels in proptest::collection::vec(0u8..8, 3)) {
        let blocks = vec![
            BlockDescriptor::new("a", TechniqueKind::LoopPerforation, 5),
            BlockDescriptor::new("b", TechniqueKind::Memoization, 3),
            BlockDescriptor::new("c", TechniqueKind::LoopTruncation, 6),
        ];
        let cfg = LevelConfig::new(levels.clone());
        let ok = levels[0] <= 5 && levels[1] <= 3 && levels[2] <= 6;
        prop_assert_eq!(cfg.validate(&blocks).is_ok(), ok);
    }
}
