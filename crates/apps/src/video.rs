//! FFmpeg port: a streaming video filter-and-encode pipeline.
//!
//! FFmpeg's computation pattern in the paper: an outer loop enumerates
//! decoded frames, applies a chain of filters to each, then re-encodes.
//! The iteration count equals the number of frames — an input parameter —
//! and is independent of the approximation levels. Two properties matter
//! for OPPROX and are preserved here:
//!
//! 1. **Inter-frame error propagation**: the encoder is delta-based and
//!    rate limited, so an error introduced in an early frame contaminates
//!    the following frames until the residual budget catches up
//!    (the paper: "any error introduced in the first few frames propagated
//!    throughout the remaining frames"). Hence approximating phase 1
//!    degrades PSNR far more than phase 4.
//! 2. **Filter-order-dependent control flow** (paper Fig. 7): swapping the
//!    deflate and edge-detection filters changes both the call-context
//!    signature and the output quality, which is what the decision-tree
//!    control-flow classifier keys on.
//!
//! Approximable blocks:
//!
//! | Block | Technique | Effect |
//! |---|---|---|
//! | `edge_detect` | loop perforation | skipped rows copy the previous computed row |
//! | `deflate` | memoization | reuse the cached filtered frame from an earlier frame |
//! | `color_balance` | loop perforation | skipped pixels pass through unbalanced |
//!
//! QoS: PSNR of the re-encoded video versus the accurately processed one;
//! [`ApproxApp::qos_degradation`] reports `PSNR_CAP − PSNR` so that lower
//! is better like every other application.

use opprox_approx_rt::block::{BlockDescriptor, TechniqueKind};
use opprox_approx_rt::log::CallContextLog;
use opprox_approx_rt::qos::{psnr, psnr_degradation};
use opprox_approx_rt::technique::{perforated_indices, Memoizer};
use opprox_approx_rt::{ApproxApp, InputParams, LevelConfig, OuterLoop, RunResult, RuntimeError};

/// Index of the `edge_detect` block.
pub const BLOCK_EDGE: usize = 0;
/// Index of the `deflate` block.
pub const BLOCK_DEFLATE: usize = 1;
/// Index of the `color_balance` block.
pub const BLOCK_COLOR: usize = 2;

/// Frame width in pixels.
pub const WIDTH: usize = 24;
/// Frame height in pixels.
pub const HEIGHT: usize = 16;

/// The FFmpeg-style video-processing application.
///
/// Input parameters: `fps`, `duration_s` (frames = `fps · duration_s`),
/// `bitrate` (encoder residual budget and quantizer), and `filter_order`
/// (0 = edge→deflate→color, 1 = deflate→edge→color; selects the
/// control-flow class).
#[derive(Debug, Clone)]
pub struct VideoPipeline {
    meta: opprox_approx_rt::app::AppMeta,
}

impl Default for VideoPipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl VideoPipeline {
    /// Creates the application with its three approximable blocks.
    pub fn new() -> Self {
        VideoPipeline {
            meta: opprox_approx_rt::app::AppMeta {
                name: "FFmpeg".into(),
                input_param_names: vec![
                    "fps".into(),
                    "duration_s".into(),
                    "bitrate".into(),
                    "filter_order".into(),
                ],
                blocks: vec![
                    BlockDescriptor::new("edge_detect", TechniqueKind::LoopPerforation, 5),
                    BlockDescriptor::new("deflate", TechniqueKind::Memoization, 5),
                    BlockDescriptor::new("color_balance", TechniqueKind::LoopPerforation, 3),
                ],
            },
        }
    }
}

type Frame = Vec<f64>; // WIDTH * HEIGHT grayscale, 0..255

/// Deterministic synthetic content: a gradient background with a bright
/// disc sweeping across the image.
fn source_frame(t: usize) -> Frame {
    let mut f = vec![0.0; WIDTH * HEIGHT];
    // Constant-velocity motion keeps the approximation-error magnitude
    // uniform across execution phases; what differs between phases is how
    // far errors propagate, not how large they start.
    // The disc starts fully inside the frame and never wraps within a
    // typical clip, so every phase sees the same amount of motion.
    let cx = (5.0 + t as f64 * 0.35) % WIDTH as f64;
    let cy = HEIGHT as f64 / 2.0;
    for y in 0..HEIGHT {
        for x in 0..WIDTH {
            let bg = 40.0 + x as f64 * 3.0 + 0.55 * (y as f64) * (y as f64 / 2.0);
            let dx = x as f64 - cx;
            let dy = y as f64 - cy;
            let disc = if dx * dx + dy * dy < 9.0 { 160.0 } else { 0.0 };
            f[y * WIDTH + x] = (bg + disc).clamp(0.0, 255.0);
        }
    }
    f
}

/// Edge detection with row perforation: skipped rows copy the last
/// computed row's output.
fn edge_detect(input: &Frame, level: u8, work: &mut u64) -> Frame {
    let mut out = vec![0.0; WIDTH * HEIGHT];
    let computed: Vec<usize> = perforated_indices(HEIGHT, level).collect();
    let mut last_computed: Option<usize> = None;
    let mut next = 0usize;
    for y in 0..HEIGHT {
        if next < computed.len() && computed[next] == y {
            for x in 0..WIDTH {
                let v = input[y * WIDTH + x];
                let right = if x + 1 < WIDTH {
                    input[y * WIDTH + x + 1]
                } else {
                    v
                };
                let below = if y + 1 < HEIGHT {
                    input[(y + 1) * WIDTH + x]
                } else {
                    v
                };
                let grad = (right - v).abs() + (below - v).abs();
                out[y * WIDTH + x] = (0.3 * v + 2.0 * grad).clamp(0.0, 255.0);
                *work += 6;
            }
            last_computed = Some(y);
            next += 1;
        } else if let Some(src) = last_computed {
            out.copy_within(src * WIDTH..(src + 1) * WIDTH, y * WIDTH);
            *work += 1;
        }
    }
    out
}

/// Deflate filter: each pixel brighter than its 3×3 neighbourhood mean is
/// pulled down to that mean (FFmpeg's deflate erodes bright specks).
fn deflate_filter(input: &Frame, work: &mut u64) -> Frame {
    let mut out = vec![0.0; WIDTH * HEIGHT];
    for y in 0..HEIGHT {
        for x in 0..WIDTH {
            let mut sum = 0.0;
            let mut cnt = 0.0;
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let ny = y as i64 + dy;
                    let nx = x as i64 + dx;
                    if (0..HEIGHT as i64).contains(&ny) && (0..WIDTH as i64).contains(&nx) {
                        sum += input[ny as usize * WIDTH + nx as usize];
                        cnt += 1.0;
                    }
                }
            }
            let mean = sum / cnt;
            let v = input[y * WIDTH + x];
            out[y * WIDTH + x] = if v > mean { mean } else { v };
            *work += 10;
        }
    }
    out
}

/// Color balance with pixel perforation: skipped pixels pass through.
fn color_balance(input: &Frame, level: u8, work: &mut u64) -> Frame {
    let mut out = input.clone();
    for i in perforated_indices(WIDTH * HEIGHT, level) {
        out[i] = (input[i] * 1.12 - 8.0).clamp(0.0, 255.0);
        *work += 3;
    }
    out
}

/// Clip length, encoder parameters and filter order of one run.
pub struct Setup {
    /// Frames: one outer-loop iteration each.
    frames: usize,
    qstep: f64,
    /// Pixels a P-frame may re-code.
    frame_budget: usize,
    /// The filter chain, in the order the input selects.
    chain: [usize; 2],
}

/// The deflate cache, the encoder's reconstruction and the encoded clip.
#[derive(Clone)]
pub struct State {
    deflate_memo: Memoizer<Frame>,
    recon: Frame,
    output: Vec<f64>,
}

impl OuterLoop for VideoPipeline {
    type Setup = Setup;
    type State = State;

    fn setup(&self, input: &InputParams) -> Result<Setup, RuntimeError> {
        let fps = input.get(0) as usize;
        let duration = input.get(1) as usize;
        let frames = fps * duration;
        if !(4..=600).contains(&frames) {
            return Err(RuntimeError::InvalidInput(format!(
                "fps × duration must give 4..=600 frames, got {frames}"
            )));
        }
        let bitrate = input.get(2);
        if !(50.0..=10_000.0).contains(&bitrate) {
            return Err(RuntimeError::InvalidInput(format!(
                "bitrate must be in 50..=10000, got {bitrate}"
            )));
        }
        let order = input.get(3) as usize;
        if order > 1 {
            return Err(RuntimeError::InvalidInput(format!(
                "filter_order must be 0 or 1, got {}",
                input.get(3)
            )));
        }

        // Encoder parameters derived from bitrate: the quantizer step
        // improves and the per-frame pixel-update budget grows with
        // bitrate. The budget is what makes errors propagate: a corrupted
        // frame leaves wrong pixels that are only repaired when they win a
        // slot in a later frame's budget — exactly the inter-frame
        // dependency the paper describes for FFmpeg.
        Ok(Setup {
            frames,
            qstep: (512.0 / bitrate).max(0.25),
            frame_budget: ((bitrate / 48.0) as usize).clamp(6, WIDTH * HEIGHT),
            // The block order in the log is the control-flow signature.
            chain: if order == 0 {
                [BLOCK_EDGE, BLOCK_DEFLATE]
            } else {
                [BLOCK_DEFLATE, BLOCK_EDGE]
            },
        })
    }

    fn init(&self, setup: &Setup) -> (State, u64) {
        let state = State {
            deflate_memo: Memoizer::new(),
            recon: vec![0.0; WIDTH * HEIGHT],
            output: Vec::with_capacity(setup.frames * WIDTH * HEIGHT),
        };
        (state, 0)
    }

    fn done(&self, setup: &Setup, _: &State, iter: u64) -> bool {
        iter >= setup.frames as u64
    }

    fn step(
        &self,
        setup: &Setup,
        s: &mut State,
        iter: u64,
        cfg: &LevelConfig,
        log: &mut CallContextLog,
    ) -> u64 {
        let t = iter as usize;
        let qstep = setup.qstep;
        let mut work: u64 = 0;

        // Filter chain in the order selected by the input parameter.
        let mut frame = source_frame(t);
        for &block in &setup.chain {
            let mut w: u64 = 0;
            frame = match block {
                BLOCK_EDGE => edge_detect(&frame, cfg.level(BLOCK_EDGE), &mut w),
                BLOCK_DEFLATE => {
                    // The knob maps to a refresh stride of 2·level+1
                    // frames, so the highest level reuses a result up to
                    // ten frames old.
                    let lvl = cfg.level(BLOCK_DEFLATE).saturating_mul(2);
                    let input_frame = frame.clone();
                    let out = s
                        .deflate_memo
                        .get_or_compute(t, lvl, || deflate_filter(&input_frame, &mut w));
                    if w == 0 {
                        w = 2; // cache reuse cost
                    }
                    out
                }
                _ => unreachable!("chain only contains edge/deflate"),
            };
            work += w;
            log.record(iter, block, w);
        }
        let mut w: u64 = 0;
        frame = color_balance(&frame, cfg.level(BLOCK_COLOR), &mut w);
        work += w;
        log.record(iter, BLOCK_COLOR, w);

        // Budget-limited delta encoder. Frame 0 is an I-frame (every
        // pixel coded); later frames only re-code the `frame_budget`
        // pixels with the largest residuals, so corruption introduced by
        // an approximated phase persists until those pixels win budget
        // slots again.
        let recon = &mut s.recon;
        if t == 0 {
            for i in 0..WIDTH * HEIGHT {
                recon[i] = ((frame[i] / qstep).round() * qstep).clamp(0.0, 255.0);
            }
        } else {
            // Dead-zone quantizer: pixels within `tau` of the recon are
            // skipped outright, so low-amplitude corruption left behind
            // by an approximated phase persists indefinitely — the
            // codec-drift channel behind the paper's observation that
            // errors in the first frames propagate to the rest of the
            // video.
            let tau = 2.5 * qstep;
            let mut order: Vec<usize> = (0..WIDTH * HEIGHT)
                .filter(|&i| (frame[i] - recon[i]).abs() > tau)
                .collect();
            order.sort_by(|&a, &b| {
                let ra = (frame[a] - recon[a]).abs();
                let rb = (frame[b] - recon[b]).abs();
                rb.partial_cmp(&ra)
                    .expect("finite residuals")
                    .then(a.cmp(&b))
            });
            for &i in order.iter().take(setup.frame_budget) {
                let residual = frame[i] - recon[i];
                let quantized = (residual / qstep).round() * qstep;
                recon[i] = (recon[i] + quantized).clamp(0.0, 255.0);
            }
        }
        s.output.extend_from_slice(recon);
        work + (WIDTH * HEIGHT) as u64
    }

    fn finish(&self, _: &Setup, s: State, _: u64) -> Vec<f64> {
        s.output
    }
}

impl ApproxApp for VideoPipeline {
    fn meta(&self) -> &opprox_approx_rt::app::AppMeta {
        &self.meta
    }

    opprox_approx_rt::forward_to_driver!();

    fn qos_degradation(&self, exact: &RunResult, approx: &RunResult) -> f64 {
        psnr_degradation(psnr(&exact.output, &approx.output, 255.0))
    }

    fn representative_inputs(&self) -> Vec<InputParams> {
        let mut out = Vec::new();
        for &fps in &[12.0, 20.0] {
            for &dur in &[4.0, 6.0] {
                for &order in &[0.0, 1.0] {
                    let bitrate = if fps > 15.0 { 800.0 } else { 500.0 };
                    out.push(InputParams::new(vec![fps, dur, bitrate, order]));
                }
            }
        }
        out
    }
}

impl VideoPipeline {
    /// PSNR (dB) of an approximate run against the exact run — the
    /// domain metric the paper reports for FFmpeg.
    pub fn psnr_of(&self, exact: &RunResult, approx: &RunResult) -> f64 {
        psnr(&exact.output, &approx.output, 255.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opprox_approx_rt::qos::PSNR_CAP;
    use opprox_approx_rt::PhaseSchedule;

    fn input() -> InputParams {
        InputParams::new(vec![12.0, 4.0, 600.0, 0.0])
    }

    #[test]
    fn golden_run_is_deterministic_and_sized() {
        let app = VideoPipeline::new();
        let a = app.golden(&input()).unwrap();
        let b = app.golden(&input()).unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(a.outer_iters, 48);
        assert_eq!(a.output.len(), 48 * WIDTH * HEIGHT);
    }

    #[test]
    fn iteration_count_tracks_fps_times_duration() {
        let app = VideoPipeline::new();
        let g = app
            .golden(&InputParams::new(vec![20.0, 6.0, 600.0, 0.0]))
            .unwrap();
        assert_eq!(g.outer_iters, 120);
    }

    #[test]
    fn filter_order_changes_signature_and_output() {
        let app = VideoPipeline::new();
        let a = app.golden(&input()).unwrap();
        let b = app
            .golden(&InputParams::new(vec![12.0, 4.0, 600.0, 1.0]))
            .unwrap();
        assert_ne!(
            a.log.control_flow_signature(),
            b.log.control_flow_signature()
        );
        // Swapping filters changes the result significantly (Fig. 7).
        let p = psnr(&a.output, &b.output, 255.0);
        assert!(p < 40.0, "orders should differ, psnr {p}");
    }

    #[test]
    fn approximation_reduces_work_and_psnr() {
        let app = VideoPipeline::new();
        let g = app.golden(&input()).unwrap();
        let a = app
            .run(
                &input(),
                &PhaseSchedule::constant(LevelConfig::new(vec![4, 4, 2])),
            )
            .unwrap();
        assert!(a.work < g.work);
        let p = app.psnr_of(&g, &a);
        assert!(p < PSNR_CAP);
        assert!(app.qos_degradation(&g, &a) > 0.0);
    }

    #[test]
    fn early_phase_approximation_hurts_psnr_more() {
        let app = VideoPipeline::new();
        let g = app.golden(&input()).unwrap();
        let cfg = LevelConfig::new(vec![5, 5, 3]);
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
            app.psnr_of(&g, &late) > app.psnr_of(&g, &early),
            "late psnr {} should exceed early psnr {}",
            app.psnr_of(&g, &late),
            app.psnr_of(&g, &early)
        );
    }

    #[test]
    fn input_validation() {
        let app = VideoPipeline::new();
        assert!(app
            .golden(&InputParams::new(vec![1.0, 1.0, 600.0, 0.0]))
            .is_err());
        assert!(app
            .golden(&InputParams::new(vec![12.0, 4.0, 1.0, 0.0]))
            .is_err());
        assert!(app
            .golden(&InputParams::new(vec![12.0, 4.0, 600.0, 2.0]))
            .is_err());
    }

    #[test]
    fn higher_bitrate_recovers_errors_faster() {
        let app = VideoPipeline::new();
        let cfg = LevelConfig::new(vec![5, 5, 3]);
        let lo_in = InputParams::new(vec![12.0, 4.0, 200.0, 0.0]);
        let hi_in = InputParams::new(vec![12.0, 4.0, 2000.0, 0.0]);
        let lo_g = app.golden(&lo_in).unwrap();
        let hi_g = app.golden(&hi_in).unwrap();
        let sched = |iters| PhaseSchedule::single_phase(cfg.clone(), 0, 4, iters).unwrap();
        let lo_a = app.run(&lo_in, &sched(lo_g.outer_iters)).unwrap();
        let hi_a = app.run(&hi_in, &sched(hi_g.outer_iters)).unwrap();
        assert!(app.psnr_of(&hi_g, &hi_a) >= app.psnr_of(&lo_g, &lo_a));
    }
}
