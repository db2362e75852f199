//! StreamAgg port: streaming filter/aggregation pipeline.
//!
//! A windowed sensor-stream pipeline: every outer iteration ingests one
//! window of a deterministic synthetic signal (drift + seasonality +
//! noise + spikes), filters it through an exponential moving average,
//! and maintains running aggregates. The outer loop is a fixed
//! enumerator over windows, like the FFmpeg port, but the techniques are
//! the survey's streaming ones: insignificant events are *skipped*
//! (their value is predicted by the filter state), the filter arithmetic
//! is *precision scaled*, and the per-window robust statistic is
//! *memoized* across windows.
//!
//! Approximable blocks:
//!
//! | Block | Technique | Effect of approximation |
//! |---|---|---|
//! | `event_filter` | task skipping | events deviating little from the EMA prediction are not processed |
//! | `ema_update` | precision scaling | the filter state is kept on a coarser quantization grid |
//! | `window_stats` | memoization | the sorted-window median is recomputed only every level+1-th window |
//!
//! QoS: relative distortion over the per-window report triple, where
//! each report is a *running* aggregate (cumulative event mean, running
//! mean of the EMA state, running mean of the window medians) — the
//! summary a monitoring dashboard republishes after every window. The
//! running aggregates make the pipeline phase-sensitive: an error in an
//! early window biases *every* later report, while a late error only
//! touches the tail of the output vector.

use crate::util::seed_from;
use opprox_approx_rt::block::{BlockDescriptor, TechniqueKind};
use opprox_approx_rt::log::CallContextLog;
use opprox_approx_rt::technique::{precision_cost, quantized, should_skip, Memoizer};
use opprox_approx_rt::{ApproxApp, InputParams, LevelConfig, OuterLoop, RuntimeError, WorkCounter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Index of the `event_filter` block.
pub const BLOCK_FILTER: usize = 0;
/// Index of the `ema_update` block.
pub const BLOCK_EMA: usize = 1;
/// Index of the `window_stats` block.
pub const BLOCK_STATS: usize = 2;

/// EMA smoothing factor.
const ALPHA: f64 = 0.08;
/// Base quantization step for the precision-scaled filter state.
const QUANT_STEP: f64 = 5e-3;
/// Base deviation threshold for event skipping, in signal units.
const SKIP_STEP: f64 = 0.15;

/// The streaming filter/aggregation application.
///
/// Input parameters: `window` (events per window) and `windows`
/// (outer-loop iteration count).
#[derive(Debug, Clone)]
pub struct StreamAgg {
    meta: opprox_approx_rt::app::AppMeta,
}

impl Default for StreamAgg {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamAgg {
    /// Creates the application with its three approximable blocks.
    pub fn new() -> Self {
        StreamAgg {
            meta: opprox_approx_rt::app::AppMeta {
                name: "StreamAgg".into(),
                input_param_names: vec!["window".into(), "windows".into()],
                blocks: vec![
                    BlockDescriptor::new("event_filter", TechniqueKind::TaskSkipping, 5),
                    BlockDescriptor::new("ema_update", TechniqueKind::PrecisionScaling, 5),
                    BlockDescriptor::new("window_stats", TechniqueKind::Memoization, 5),
                ],
            },
        }
    }
}

/// Stream dimensions of one StreamAgg run.
pub struct Setup {
    window: usize,
    /// Windows: one outer-loop iteration each.
    windows: u64,
    /// Seed of the synthetic sensor signal.
    seed: u64,
}

/// The signal generator, the filter and the running aggregates.
#[derive(Clone)]
pub struct State {
    rng: StdRng,
    ema: f64,
    cum_sum: f64,
    cum_count: u64,
    ema_sum: f64,
    med_sum: f64,
    stats_memo: Memoizer<f64>,
    buffer: Vec<f64>,
    output: Vec<f64>,
}

impl OuterLoop for StreamAgg {
    type Setup = Setup;
    type State = State;

    fn setup(&self, input: &InputParams) -> Result<Setup, RuntimeError> {
        let window = input.get(0) as usize;
        if !(8..=1024).contains(&window) {
            return Err(RuntimeError::InvalidInput(format!(
                "window must be in 8..=1024, got {window}"
            )));
        }
        let windows = input.get(1) as u64;
        if !(1..=5000).contains(&windows) {
            return Err(RuntimeError::InvalidInput(format!(
                "windows must be in 1..=5000, got {windows}"
            )));
        }
        Ok(Setup {
            window,
            windows,
            seed: seed_from(input, 0x5A),
        })
    }

    fn init(&self, setup: &Setup) -> (State, u64) {
        let state = State {
            rng: StdRng::seed_from_u64(setup.seed),
            ema: 0.0,
            cum_sum: 0.0,
            cum_count: 0,
            ema_sum: 0.0,
            med_sum: 0.0,
            stats_memo: Memoizer::new(),
            buffer: vec![0.0; setup.window],
            output: Vec::with_capacity(3 * setup.windows as usize),
        };
        (state, 0)
    }

    fn done(&self, setup: &Setup, _: &State, iter: u64) -> bool {
        iter >= setup.windows
    }

    fn step(
        &self,
        setup: &Setup,
        s: &mut State,
        iter: u64,
        cfg: &LevelConfig,
        log: &mut CallContextLog,
    ) -> u64 {
        let window = setup.window;
        let mut counter = WorkCounter::new();
        let t0 = (iter as usize * window) as f64;

        // --- Block 0: event_filter (task skipping) ----------------------
        // Generating an event is free (it models the sensor); the work is
        // *processing* it. A skipped event is replaced by the filter's
        // prediction — the EMA state — before aggregation.
        let lvl_s = cfg.level(BLOCK_FILTER);
        let mut w: u64 = 0;
        for (k, slot) in s.buffer.iter_mut().enumerate() {
            let t = t0 + k as f64;
            // Drift + two seasonal harmonics + noise + rare spikes.
            let mut x = 2.0
                + 1.5e-4 * t
                + 0.8 * (t * 0.021).sin()
                + 0.3 * (t * 0.0043).cos()
                + (s.rng.gen::<f64>() - 0.5) * 0.2;
            if s.rng.gen::<f64>() < 0.01 {
                x += s.rng.gen::<f64>() * 3.0;
            }
            let deviation = (x - s.ema).abs();
            if should_skip(deviation, lvl_s, SKIP_STEP) {
                *slot = s.ema; // predicted, not processed
                w += 1;
            } else {
                *slot = x;
                w += 6; // full ingest: parse, validate, route
            }
        }
        counter.add(w);
        log.record(iter, BLOCK_FILTER, w);

        // --- Block 1: ema_update (precision scaling) --------------------
        let lvl_p = cfg.level(BLOCK_EMA);
        let cost_p = precision_cost(4, lvl_p);
        let mut w: u64 = 0;
        for &x in s.buffer.iter() {
            s.ema += ALPHA * (x - s.ema);
            s.ema = quantized(s.ema, lvl_p, QUANT_STEP);
            s.cum_sum += x;
            w += cost_p;
        }
        s.cum_count += window as u64;
        counter.add(w);
        log.record(iter, BLOCK_EMA, w);

        // --- Block 2: window_stats (memoization) ------------------------
        let lvl_m = cfg.level(BLOCK_STATS);
        let mut w: u64 = 0;
        let buffer = &s.buffer;
        let median = s.stats_memo.get_or_compute(iter as usize, lvl_m, || {
            let mut sorted = buffer.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("signal values are finite"));
            w = 4 * window as u64; // the sort is the expensive part
            0.5 * (sorted[window / 2] + sorted[(window - 1) / 2])
        });
        w += 1;
        counter.add(w);
        log.record(iter, BLOCK_STATS, w);

        s.ema_sum += s.ema;
        s.med_sum += median;
        let reports = (iter + 1) as f64;
        s.output.push(s.cum_sum / s.cum_count as f64);
        s.output.push(s.ema_sum / reports);
        s.output.push(s.med_sum / reports);
        counter.add(3);
        counter.total()
    }

    fn finish(&self, _: &Setup, s: State, _: u64) -> Vec<f64> {
        s.output
    }
}

impl ApproxApp for StreamAgg {
    fn meta(&self) -> &opprox_approx_rt::app::AppMeta {
        &self.meta
    }

    opprox_approx_rt::forward_to_driver!();

    fn representative_inputs(&self) -> Vec<InputParams> {
        vec![
            InputParams::new(vec![64.0, 40.0]),
            InputParams::new(vec![96.0, 30.0]),
            InputParams::new(vec![64.0, 60.0]),
            InputParams::new(vec![128.0, 40.0]),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opprox_approx_rt::PhaseSchedule;

    fn input() -> InputParams {
        InputParams::new(vec![64.0, 40.0])
    }

    #[test]
    fn golden_run_is_deterministic() {
        let app = StreamAgg::new();
        let a = app.golden(&input()).unwrap();
        let b = app.golden(&input()).unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(a.work, b.work);
    }

    #[test]
    fn output_has_three_values_per_window() {
        let app = StreamAgg::new();
        let g = app.golden(&input()).unwrap();
        assert_eq!(g.outer_iters, 40);
        assert_eq!(g.output.len(), 3 * 40);
        assert!(g.output.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn every_technique_reduces_work() {
        let app = StreamAgg::new();
        let g = app.golden(&input()).unwrap();
        for (block, levels) in [(0usize, [5u8, 0, 0]), (1, [0, 5, 0]), (2, [0, 0, 5])] {
            let a = app
                .run(
                    &input(),
                    &PhaseSchedule::constant(LevelConfig::new(levels.to_vec())),
                )
                .unwrap();
            assert!(
                a.log.work_of_block(block) < g.log.work_of_block(block),
                "block {block} saved no work"
            );
        }
    }

    #[test]
    fn skipping_perturbs_aggregates() {
        let app = StreamAgg::new();
        let g = app.golden(&input()).unwrap();
        let a = app
            .run(
                &input(),
                &PhaseSchedule::constant(LevelConfig::new(vec![5, 0, 0])),
            )
            .unwrap();
        assert!(app.qos_degradation(&g, &a) > 0.0);
    }

    #[test]
    fn early_phase_error_exceeds_late_phase_error() {
        let app = StreamAgg::new();
        let g = app.golden(&input()).unwrap();
        let cfg = LevelConfig::new(vec![4, 3, 2]);
        let early = app
            .run(
                &input(),
                &PhaseSchedule::single_phase(cfg.clone(), 0, 4, g.outer_iters).unwrap(),
            )
            .unwrap();
        let late = app
            .run(
                &input(),
                &PhaseSchedule::single_phase(cfg, 3, 4, g.outer_iters).unwrap(),
            )
            .unwrap();
        assert!(
            app.qos_degradation(&g, &late) <= app.qos_degradation(&g, &early),
            "late {} vs early {}",
            app.qos_degradation(&g, &late),
            app.qos_degradation(&g, &early)
        );
    }

    #[test]
    fn input_validation() {
        let app = StreamAgg::new();
        assert!(app.golden(&InputParams::new(vec![4.0, 40.0])).is_err());
        assert!(app.golden(&InputParams::new(vec![64.0, 0.0])).is_err());
        assert!(app.golden(&InputParams::new(vec![64.0])).is_err());
    }
}
