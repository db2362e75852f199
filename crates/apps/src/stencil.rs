//! Stencil port: 2D heat-diffusion image kernel with PSNR QoS.
//!
//! A Jacobi-style 5-point stencil over an `n × n` grid with fixed heat
//! sources, cooling Dirichlet-like boundaries, and a timestep outer
//! loop. The reported image is the *time-averaged* temperature field
//! mapped onto the 0–255 pixel scale, judged by PSNR like the FFmpeg
//! port — the second PSNR-governed workload, with a genuinely different
//! phase structure (diffusive relaxation instead of inter-frame delta
//! coding).
//!
//! Approximable blocks:
//!
//! | Block | Technique | Effect of approximation |
//! |---|---|---|
//! | `diffuse_rows` | loop perforation | only every level+1-th row is relaxed per sweep (rotating offset) |
//! | `flux_quantize` | precision scaling | cell updates are computed on a coarser temperature grid |
//! | `boundary_cool` | loop truncation | trailing boundary cells skip their cooling update |
//!
//! QoS: `PSNR_CAP − PSNR` over the averaged field, exactly the video
//! pipeline's convention, so both PSNR workloads share one budget scale.
//! Averaging over the sweep trajectory gives the kernel its phase
//! structure: heat misplaced early stays misplaced (and averaged) until
//! diffusion flushes it out, while a late error only touches the last
//! few samples of the average.

use crate::util::seed_from;
use opprox_approx_rt::block::{BlockDescriptor, TechniqueKind};
use opprox_approx_rt::log::CallContextLog;
use opprox_approx_rt::qos::{psnr, psnr_degradation};
use opprox_approx_rt::technique::{
    perforated_indices_offset, precision_cost, quantized, truncated_len,
};
use opprox_approx_rt::{
    ApproxApp, InputParams, LevelConfig, OuterLoop, RunResult, RuntimeError, WorkCounter,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Index of the `diffuse_rows` block.
pub const BLOCK_DIFFUSE: usize = 0;
/// Index of the `flux_quantize` block.
pub const BLOCK_FLUX: usize = 1;
/// Index of the `boundary_cool` block.
pub const BLOCK_BOUNDARY: usize = 2;

/// Diffusion coefficient (stable for the 5-point explicit scheme).
const KAPPA: f64 = 0.2;
/// Heat injected per source per sweep, in temperature units.
const SOURCE_HEAT: f64 = 60.0;
/// Number of point sources.
const NUM_SOURCES: usize = 6;
/// Boundary cooling factor per refreshed boundary cell.
const COOLING: f64 = 0.5;
/// Radiative leak per sweep: every cell loses this fraction of its
/// temperature to the ambient. The leak pins the relaxation time to
/// ~1/LEAK sweeps regardless of grid size, so perturbations decay well
/// within a phase and the field amplitude is flat across the run.
const LEAK: f64 = 0.12;
/// Exact warm-up sweeps before the measured loop, enough to reach the
/// steady state (several multiples of 1/LEAK).
const WARMUP: u64 = 40;
/// Base quantization step for the precision-scaled updates, in
/// temperature units (pixel scale).
const QUANT_STEP: f64 = 0.25;

/// The heat-diffusion stencil application.
///
/// Input parameters: `grid` (edge length of the square field) and
/// `sweeps` (outer-loop iteration count).
#[derive(Debug, Clone)]
pub struct Stencil {
    meta: opprox_approx_rt::app::AppMeta,
}

impl Default for Stencil {
    fn default() -> Self {
        Self::new()
    }
}

impl Stencil {
    /// Creates the application with its three approximable blocks.
    pub fn new() -> Self {
        Stencil {
            meta: opprox_approx_rt::app::AppMeta {
                name: "Stencil".into(),
                input_param_names: vec!["grid".into(), "sweeps".into()],
                blocks: vec![
                    BlockDescriptor::new("diffuse_rows", TechniqueKind::LoopPerforation, 5),
                    BlockDescriptor::new("flux_quantize", TechniqueKind::PrecisionScaling, 5),
                    BlockDescriptor::new("boundary_cool", TechniqueKind::LoopTruncation, 3),
                ],
            },
        }
    }

    /// PSNR (dB) of an approximate run against the exact one — the
    /// domain metric before conversion to a degradation.
    pub fn psnr_of(&self, exact: &RunResult, approx: &RunResult) -> f64 {
        psnr(&exact.output, &approx.output, 255.0)
    }
}

/// The grid, its heat sources and its boundary ring.
pub struct Grid {
    n: usize,
    sweeps: u64,
    /// Interior heat-source cells `(row, col)`.
    sources: Vec<(usize, usize)>,
    /// Boundary cells in walk order, for the truncated cooling pass.
    ring: Vec<usize>,
}

impl Grid {
    /// Injects the sources and radiates to ambient (always exact; not an
    /// approximable block).
    fn heat(&self, temp: &mut [f64]) {
        for &(i, j) in &self.sources {
            temp[i * self.n + j] += SOURCE_HEAT;
        }
        for t in temp.iter_mut() {
            *t *= 1.0 - LEAK;
        }
    }
}

/// The temperature field, its double buffer and the running average.
#[derive(Clone)]
pub struct State {
    temp: Vec<f64>,
    next: Vec<f64>,
    avg: Vec<f64>,
}

impl OuterLoop for Stencil {
    type Setup = Grid;
    type State = State;

    fn setup(&self, input: &InputParams) -> Result<Grid, RuntimeError> {
        let n = input.get(0) as usize;
        if !(8..=64).contains(&n) {
            return Err(RuntimeError::InvalidInput(format!(
                "grid must be in 8..=64, got {n}"
            )));
        }
        let sweeps = input.get(1) as u64;
        if !(1..=5000).contains(&sweeps) {
            return Err(RuntimeError::InvalidInput(format!(
                "sweeps must be in 1..=5000, got {sweeps}"
            )));
        }

        // Deterministic interior source placement.
        let mut rng = StdRng::seed_from_u64(seed_from(input, 0x57));
        let sources: Vec<(usize, usize)> = (0..NUM_SOURCES)
            .map(|_| (rng.gen_range(1..n - 1), rng.gen_range(1..n - 1)))
            .collect();

        let mut ring: Vec<usize> = Vec::with_capacity(4 * n - 4);
        for j in 0..n {
            ring.push(j); // top row
        }
        for i in 1..n - 1 {
            ring.push(i * n + (n - 1)); // right column
        }
        for j in (0..n).rev() {
            ring.push((n - 1) * n + j); // bottom row
        }
        for i in (1..n - 1).rev() {
            ring.push(i * n); // left column
        }
        Ok(Grid {
            n,
            sweeps,
            sources,
            ring,
        })
    }

    fn init(&self, g: &Grid) -> (State, u64) {
        let n = g.n;
        let mut temp = vec![0.0f64; n * n];
        let mut next = vec![0.0f64; n * n];
        // Warm the field to its driven steady state with exact sweeps, so
        // every measured phase sees the same amplitude. Modeled as loading
        // a checkpointed initial condition: charged a token unit per sweep,
        // not the full stencil cost.
        for _ in 0..WARMUP {
            g.heat(&mut temp);
            next.copy_from_slice(&temp);
            for row in 1..n - 1 {
                for col in 1..n - 1 {
                    let c = row * n + col;
                    let lap = temp[c - 1] + temp[c + 1] + temp[c - n] + temp[c + n] - 4.0 * temp[c];
                    next[c] = temp[c] + KAPPA * lap;
                }
            }
            std::mem::swap(&mut temp, &mut next);
            for &c in g.ring.iter() {
                temp[c] *= COOLING;
            }
        }
        let state = State {
            temp,
            next,
            avg: vec![0.0f64; n * n],
        };
        (state, WARMUP)
    }

    fn done(&self, g: &Grid, _: &State, iter: u64) -> bool {
        iter >= g.sweeps
    }

    fn step(
        &self,
        g: &Grid,
        s: &mut State,
        iter: u64,
        cfg: &LevelConfig,
        log: &mut CallContextLog,
    ) -> u64 {
        let n = g.n;
        let mut counter = WorkCounter::new();
        g.heat(&mut s.temp);
        counter.add(NUM_SOURCES as u64 + 1);

        // --- Blocks 0+1: diffuse_rows / flux_quantize -------------------
        // One fused sweep, accounted per block: row selection is the
        // perforation knob, per-cell arithmetic the precision knob.
        let lvl_r = cfg.level(BLOCK_DIFFUSE);
        let lvl_q = cfg.level(BLOCK_FLUX);
        let cost_q = precision_cost(6, lvl_q);
        let State { temp, next, avg } = s;
        next.copy_from_slice(temp);
        let mut w_rows: u64 = 0;
        let mut w_flux: u64 = 0;
        for i in perforated_indices_offset(n - 2, lvl_r, iter as usize) {
            let row = i + 1;
            w_rows += 2;
            for col in 1..n - 1 {
                let c = row * n + col;
                let lap = temp[c - 1] + temp[c + 1] + temp[c - n] + temp[c + n] - 4.0 * temp[c];
                next[c] = quantized(temp[c] + KAPPA * lap, lvl_q, QUANT_STEP);
                w_flux += cost_q;
            }
        }
        counter.add(w_rows);
        log.record(iter, BLOCK_DIFFUSE, w_rows);
        counter.add(w_flux);
        log.record(iter, BLOCK_FLUX, w_flux);
        std::mem::swap(temp, next);

        // --- Block 2: boundary_cool (truncation over the ring) ----------
        let lvl_b = cfg.level(BLOCK_BOUNDARY);
        let ring = &g.ring;
        let cooled = truncated_len(ring.len(), lvl_b, ring.len() / 5, ring.len() / 4);
        let mut w: u64 = 0;
        for &c in ring.iter().take(cooled) {
            temp[c] *= COOLING;
            w += 2;
        }
        counter.add(w);
        log.record(iter, BLOCK_BOUNDARY, w);

        // Trajectory average — the reported image.
        for (a, t) in avg.iter_mut().zip(temp.iter()) {
            *a += t;
        }
        counter.add(2);
        counter.total()
    }

    fn finish(&self, g: &Grid, s: State, _: u64) -> Vec<f64> {
        // Map onto the pixel scale, saturating like an 8-bit sensor.
        let mut avg = s.avg;
        let inv = 1.0 / g.sweeps as f64;
        for a in avg.iter_mut() {
            *a = (*a * inv).clamp(0.0, 255.0);
        }
        avg
    }
}

impl ApproxApp for Stencil {
    fn meta(&self) -> &opprox_approx_rt::app::AppMeta {
        &self.meta
    }

    opprox_approx_rt::forward_to_driver!();

    fn qos_degradation(&self, exact: &RunResult, approx: &RunResult) -> f64 {
        psnr_degradation(self.psnr_of(exact, approx))
    }

    fn representative_inputs(&self) -> Vec<InputParams> {
        vec![
            InputParams::new(vec![16.0, 40.0]),
            InputParams::new(vec![20.0, 40.0]),
            InputParams::new(vec![16.0, 60.0]),
            InputParams::new(vec![24.0, 30.0]),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opprox_approx_rt::qos::PSNR_CAP;
    use opprox_approx_rt::PhaseSchedule;

    fn input() -> InputParams {
        InputParams::new(vec![16.0, 40.0])
    }

    #[test]
    fn golden_run_is_deterministic() {
        let app = Stencil::new();
        let a = app.golden(&input()).unwrap();
        let b = app.golden(&input()).unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(a.work, b.work);
    }

    #[test]
    fn field_stays_on_the_pixel_scale() {
        let app = Stencil::new();
        let g = app.golden(&input()).unwrap();
        assert_eq!(g.output.len(), 16 * 16);
        assert!(g.output.iter().all(|v| (0.0..=255.0).contains(v)));
        // The sources actually heated the field.
        assert!(g.output.iter().any(|v| *v > 1.0));
    }

    #[test]
    fn qos_is_psnr_based() {
        let app = Stencil::new();
        let g = app.golden(&input()).unwrap();
        assert_eq!(app.psnr_of(&g, &g), PSNR_CAP);
        assert_eq!(app.qos_degradation(&g, &g), 0.0);
        let a = app
            .run(
                &input(),
                &PhaseSchedule::constant(LevelConfig::new(vec![5, 5, 3])),
            )
            .unwrap();
        let deg = app.qos_degradation(&g, &a);
        assert!(deg > 0.0);
        assert!((app.psnr_of(&g, &a) - (PSNR_CAP - deg)).abs() < 1e-12);
    }

    #[test]
    fn perforation_reduces_work() {
        let app = Stencil::new();
        let g = app.golden(&input()).unwrap();
        let a = app
            .run(
                &input(),
                &PhaseSchedule::constant(LevelConfig::new(vec![4, 0, 0])),
            )
            .unwrap();
        assert!(a.work < g.work);
    }

    #[test]
    fn early_phase_error_exceeds_late_phase_error() {
        let app = Stencil::new();
        let g = app.golden(&input()).unwrap();
        let cfg = LevelConfig::new(vec![4, 3, 1]);
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
        let app = Stencil::new();
        assert!(app.golden(&InputParams::new(vec![4.0, 40.0])).is_err());
        assert!(app.golden(&InputParams::new(vec![16.0, 0.0])).is_err());
        assert!(app.golden(&InputParams::new(vec![16.0])).is_err());
    }
}
