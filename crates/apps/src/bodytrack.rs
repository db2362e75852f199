//! Bodytrack port: annealed-particle-filter pose tracking.
//!
//! PARSEC's Bodytrack tracks a human body through a video using an
//! annealed particle filter: for every frame, image features are
//! extracted and each particle's pose is scored against them through a
//! sequence of annealing layers with increasing sharpness. The outer loop
//! here enumerates (frame, annealing-layer) steps, so its iteration count
//! depends on the input parameters (frames, annealing layers) and on the
//! annealing-layer *tuning* knob — matching the paper's observation that
//! Bodytrack's iteration count depends on the number of annealing layers.
//!
//! The tracked "body" is a synthetic articulated pose: a five-component
//! joint-angle vector following smooth trajectories; observations are
//! linear feature projections of the true pose with deterministic noise.
//!
//! Approximable blocks (paper Table 1: loop perforation + input tuning):
//!
//! | Block | Technique | Effect |
//! |---|---|---|
//! | `feature_extract` | loop perforation | skipped features reuse the previous frame's value |
//! | `likelihood_eval` | loop perforation | skipped particles keep their previous weight |
//! | `annealing_layers` | parameter tuning | fewer annealing layers per frame |
//! | `min_particles` | parameter tuning | a smaller active-particle subset |
//!
//! QoS: the paper weights each pose-vector component proportionally to
//! its magnitude so large body parts dominate; our override implements
//! exactly that magnitude-weighted relative distortion.

use crate::util::seed_from;
use opprox_approx_rt::block::{BlockDescriptor, TechniqueKind};
use opprox_approx_rt::log::CallContextLog;
use opprox_approx_rt::technique::{perforated_indices, tuned_parameter};
use opprox_approx_rt::{ApproxApp, InputParams, LevelConfig, OuterLoop, RunResult, RuntimeError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Index of the `feature_extract` block.
pub const BLOCK_FEATURES: usize = 0;
/// Index of the `likelihood_eval` block.
pub const BLOCK_LIKELIHOOD: usize = 1;
/// Index of the `annealing_layers` tuning block.
pub const BLOCK_LAYERS: usize = 2;
/// Index of the `min_particles` tuning block.
pub const BLOCK_MIN_PARTICLES: usize = 3;

/// Dimensionality of the pose vector (joint angles).
pub const POSE_DIM: usize = 5;
/// Number of observed image features per frame.
pub const NUM_FEATURES: usize = 12;

/// Fractions of the particle population kept at each `min_particles`
/// tuning level.
const PARTICLE_FRACTIONS: [f64; 4] = [1.0, 0.7, 0.45, 0.25];
/// Annealing layers removed at each `annealing_layers` tuning level.
const LAYER_DROPS: [f64; 4] = [0.0, 1.0, 2.0, 3.0];

/// The Bodytrack-style particle-filter application.
///
/// Input parameters: `annealing_layers`, `particles`, `frames`.
#[derive(Debug, Clone)]
pub struct Bodytrack {
    meta: opprox_approx_rt::app::AppMeta,
}

impl Default for Bodytrack {
    fn default() -> Self {
        Self::new()
    }
}

impl Bodytrack {
    /// Creates the application with its four approximable blocks.
    pub fn new() -> Self {
        Bodytrack {
            meta: opprox_approx_rt::app::AppMeta {
                name: "Bodytrack".into(),
                input_param_names: vec![
                    "annealing_layers".into(),
                    "particles".into(),
                    "frames".into(),
                ],
                blocks: vec![
                    BlockDescriptor::new("feature_extract", TechniqueKind::LoopPerforation, 5),
                    BlockDescriptor::new("likelihood_eval", TechniqueKind::LoopPerforation, 5),
                    BlockDescriptor::new("annealing_layers", TechniqueKind::ParameterTuning, 3),
                    BlockDescriptor::new("min_particles", TechniqueKind::ParameterTuning, 3),
                ],
            },
        }
    }
}

/// The true pose trajectory the synthetic subject follows.
fn true_pose(t: usize) -> [f64; POSE_DIM] {
    let tf = t as f64;
    [
        1.2 * (0.11 * tf).sin(),
        0.8 * (0.07 * tf + 1.0).cos(),
        1.5 * (0.05 * tf).sin(),
        0.6 * (0.13 * tf + 2.0).sin(),
        1.0 * (0.09 * tf).cos(),
    ]
}

/// Fixed linear observation model: features are projections of the pose.
fn project(pose: &[f64; POSE_DIM], feature: usize) -> f64 {
    let mut v = 0.0;
    for (k, &p) in pose.iter().enumerate() {
        // A deterministic, well-conditioned mixing matrix.
        let w = ((feature * 7 + k * 3 + 1) % 11) as f64 / 11.0 + 0.2;
        v += w * p;
    }
    v
}

/// Tracking dimensions of one Bodytrack run.
pub struct Setup {
    /// Annealing layers per frame: one outer-loop iteration each.
    layers: usize,
    num_particles: usize,
    frames: usize,
    /// Seed every per-frame RNG derives from.
    base_seed: u64,
}

/// The particle filter and the pose estimates so far.
#[derive(Clone)]
pub struct State {
    particles: Vec<[f64; POSE_DIM]>,
    weights: Vec<f64>,
    features: Vec<f64>,
    output: Vec<f64>,
}

impl OuterLoop for Bodytrack {
    type Setup = Setup;
    type State = State;

    fn setup(&self, input: &InputParams) -> Result<Setup, RuntimeError> {
        let layers = input.get(0) as usize;
        if !(2..=8).contains(&layers) {
            return Err(RuntimeError::InvalidInput(format!(
                "annealing_layers must be in 2..=8, got {layers}"
            )));
        }
        let num_particles = input.get(1) as usize;
        if !(20..=2000).contains(&num_particles) {
            return Err(RuntimeError::InvalidInput(format!(
                "particles must be in 20..=2000, got {num_particles}"
            )));
        }
        let frames = input.get(2) as usize;
        if !(4..=400).contains(&frames) {
            return Err(RuntimeError::InvalidInput(format!(
                "frames must be in 4..=400, got {frames}"
            )));
        }
        Ok(Setup {
            layers,
            num_particles,
            frames,
            base_seed: seed_from(input, 0x33),
        })
    }

    fn init(&self, setup: &Setup) -> (State, u64) {
        let num_particles = setup.num_particles;
        // Particles start dispersed over the pose space: the filter must
        // *acquire* the subject during the first frames, which is why
        // approximating the first phase is so damaging for tracking.
        let mut init_rng = StdRng::seed_from_u64(setup.base_seed);
        let particles: Vec<[f64; POSE_DIM]> = (0..num_particles)
            .map(|_| {
                let mut p = [0.0; POSE_DIM];
                for v in p.iter_mut() {
                    *v = init_rng.gen::<f64>() * 3.0 - 1.5;
                }
                p
            })
            .collect();
        let state = State {
            particles,
            weights: vec![1.0 / num_particles as f64; num_particles],
            features: vec![0.0; NUM_FEATURES],
            output: Vec::with_capacity(setup.frames * POSE_DIM),
        };
        (state, 0)
    }

    fn done(&self, setup: &Setup, _: &State, iter: u64) -> bool {
        // The outer loop always performs `layers` annealing steps per
        // frame, so the iteration count depends on the input parameters
        // only (the paper's observation for Bodytrack). The annealing-layer
        // tuning knob turns the *last* layers of a frame into cheap
        // pass-throughs instead.
        iter >= (setup.frames * setup.layers) as u64
    }

    fn step(
        &self,
        setup: &Setup,
        s: &mut State,
        iter: u64,
        cfg: &LevelConfig,
        log: &mut CallContextLog,
    ) -> u64 {
        let (layers_in, num_particles, base_seed) =
            (setup.layers, setup.num_particles, setup.base_seed);
        let frame = iter as usize / layers_in;
        let layer = iter as usize % layers_in;
        let mut work: u64 = 0;

        let layer_drop = tuned_parameter(&LAYER_DROPS, cfg.level(BLOCK_LAYERS)) as usize;
        let effective_layers = layers_in.saturating_sub(layer_drop).max(1);
        let frac = tuned_parameter(&PARTICLE_FRACTIONS, cfg.level(BLOCK_MIN_PARTICLES));
        let active = ((num_particles as f64 * frac) as usize).max(10);
        if layer >= effective_layers {
            // Tuned away: the annealing layer is skipped outright.
            log.record(iter, BLOCK_FEATURES, 1);
            log.record(iter, BLOCK_LIKELIHOOD, 1);
            work += 2;
        } else {
            work += anneal(s, setup, (frame, layer), active, cfg, iter, log);
        }
        if layer + 1 == layers_in {
            // Pose estimate: weighted mean of the active particles.
            let total_w: f64 = s.weights[..active].iter().sum();
            let mut estimate = [0.0f64; POSE_DIM];
            if total_w > 0.0 {
                for i in 0..active {
                    for (k, e) in estimate.iter_mut().enumerate() {
                        *e += s.particles[i][k] * s.weights[i] / total_w;
                    }
                }
            }
            s.output.extend_from_slice(&estimate);
            // Motion model: diffuse all particles towards the next frame.
            let mut motion_rng = StdRng::seed_from_u64(base_seed ^ 0xbeef ^ (frame as u64) << 8);
            for p in s.particles.iter_mut() {
                for v in p.iter_mut() {
                    *v += motion_rng.gen::<f64>() * 0.16 - 0.08;
                }
            }
            work += (num_particles * POSE_DIM) as u64;
        }
        work
    }

    fn finish(&self, _: &Setup, s: State, _: u64) -> Vec<f64> {
        s.output
    }
}

/// One annealing layer of a frame: feature extraction, scoring of the
/// `active` particles and their resampling. Returns the layer's work.
fn anneal(
    s: &mut State,
    setup: &Setup,
    (frame, layer): (usize, usize),
    active: usize,
    cfg: &LevelConfig,
    iter: u64,
    log: &mut CallContextLog,
) -> u64 {
    let base_seed = setup.base_seed;
    let truth = true_pose(frame);
    let mut work: u64 = 0;

    // --- Block 0: feature_extract (perforation) -------------------------
    let lvl_f = cfg.level(BLOCK_FEATURES);
    let mut w: u64 = 0;
    let mut noise_rng = StdRng::seed_from_u64(base_seed ^ (frame as u64) << 20 ^ layer as u64);
    for (j, feature) in s.features.iter_mut().enumerate() {
        let noise = noise_rng.gen::<f64>() * 0.04 - 0.02;
        // Perforated features keep the previous frame's value.
        if perforated_hit(j, lvl_f) {
            *feature = project(&truth, j) + noise;
            w += 8;
        }
    }
    work += w;
    log.record(iter, BLOCK_FEATURES, w);

    // --- Block 1: likelihood_eval (perforation) -------------------------
    let lvl_l = cfg.level(BLOCK_LIKELIHOOD);
    let beta = 0.4 * 2f64.powi(layer as i32); // annealing sharpness
    let mut w: u64 = 0;
    for i in perforated_indices(active, lvl_l) {
        let mut dist = 0.0;
        for (j, feat) in s.features.iter().enumerate() {
            let pred = project(&s.particles[i], j);
            dist += (pred - feat) * (pred - feat);
        }
        s.weights[i] = (-beta * dist).exp().max(1e-300);
        w += (NUM_FEATURES * 3) as u64;
    }
    work += w;
    log.record(iter, BLOCK_LIKELIHOOD, w);

    // Resample the active set and add annealing-scaled jitter (part of
    // the filter core, not an approximable block).
    let mut resample_rng =
        StdRng::seed_from_u64(base_seed ^ 0x5151 ^ ((frame as u64) << 24) ^ ((layer as u64) << 4));
    let weights = &s.weights;
    let total_w: f64 = weights[..active].iter().sum();
    if total_w > 0.0 {
        let mut new_particles = Vec::with_capacity(active);
        // Systematic resampling over the active prefix.
        let step = total_w / active as f64;
        let mut target = resample_rng.gen::<f64>() * step;
        let mut acc = 0.0;
        let mut src = 0usize;
        for _ in 0..active {
            while acc + weights[src] < target && src + 1 < active {
                acc += weights[src];
                src += 1;
            }
            new_particles.push(s.particles[src]);
            target += step;
        }
        let sigma = 0.12 / (layer as f64 + 1.0);
        for p in new_particles.iter_mut() {
            for v in p.iter_mut() {
                *v += resample_rng.gen::<f64>() * 2.0 * sigma - sigma;
            }
        }
        s.particles[..active].copy_from_slice(&new_particles);
    }
    work + (active * 2) as u64
}

impl ApproxApp for Bodytrack {
    fn meta(&self) -> &opprox_approx_rt::app::AppMeta {
        &self.meta
    }

    opprox_approx_rt::forward_to_driver!();

    fn qos_degradation(&self, exact: &RunResult, approx: &RunResult) -> f64 {
        // Magnitude-weighted distortion: components representing larger
        // body parts (larger values) carry proportionally more weight.
        let num: f64 = exact
            .output
            .iter()
            .zip(approx.output.iter())
            .map(|(e, a)| (a - e).abs())
            .sum();
        let den: f64 = exact.output.iter().map(|e| e.abs()).sum::<f64>().max(1e-9);
        (100.0 * num / den).min(opprox_approx_rt::qos::QOS_SATURATION)
    }

    fn representative_inputs(&self) -> Vec<InputParams> {
        let mut out = Vec::new();
        for &layers in &[3.0, 4.0] {
            for &particles in &[120.0, 200.0] {
                for &frames in &[24.0, 36.0] {
                    out.push(InputParams::new(vec![layers, particles, frames]));
                }
            }
        }
        out
    }
}

/// Whether index `j` is visited by a perforated loop at `level`.
fn perforated_hit(j: usize, level: u8) -> bool {
    j.is_multiple_of(level as usize + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use opprox_approx_rt::PhaseSchedule;

    fn input() -> InputParams {
        InputParams::new(vec![3.0, 120.0, 24.0])
    }

    #[test]
    fn golden_run_is_deterministic() {
        let app = Bodytrack::new();
        let a = app.golden(&input()).unwrap();
        let b = app.golden(&input()).unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(a.work, b.work);
    }

    #[test]
    fn iteration_count_is_frames_times_layers() {
        let app = Bodytrack::new();
        let g = app.golden(&input()).unwrap();
        assert_eq!(g.outer_iters, 24 * 3);
    }

    #[test]
    fn layer_tuning_reduces_work_but_not_iterations() {
        let app = Bodytrack::new();
        let g = app.golden(&input()).unwrap();
        let a = app
            .run(
                &input(),
                &PhaseSchedule::constant(LevelConfig::new(vec![0, 0, 1, 0])),
            )
            .unwrap();
        assert_eq!(a.outer_iters, g.outer_iters);
        assert!(a.work < g.work);
    }

    #[test]
    fn tracking_follows_the_true_pose() {
        let app = Bodytrack::new();
        let g = app.golden(&input()).unwrap();
        // The last frame's estimate should be near the true pose.
        let frames = 24;
        let est = &g.output[(frames - 1) * POSE_DIM..frames * POSE_DIM];
        let truth = true_pose(frames - 1);
        let err: f64 = est
            .iter()
            .zip(truth.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / POSE_DIM as f64;
        assert!(err < 0.5, "mean tracking error {err}");
    }

    #[test]
    fn particle_tuning_cuts_work() {
        let app = Bodytrack::new();
        let g = app.golden(&input()).unwrap();
        let a = app
            .run(
                &input(),
                &PhaseSchedule::constant(LevelConfig::new(vec![0, 0, 0, 3])),
            )
            .unwrap();
        assert!(a.work < g.work);
        assert_eq!(a.outer_iters, g.outer_iters);
    }

    #[test]
    fn early_phase_error_exceeds_late_phase_error() {
        let app = Bodytrack::new();
        let g = app.golden(&input()).unwrap();
        let cfg = LevelConfig::new(vec![4, 4, 2, 2]);
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
            app.qos_degradation(&g, &late) < app.qos_degradation(&g, &early),
            "late {} vs early {}",
            app.qos_degradation(&g, &late),
            app.qos_degradation(&g, &early)
        );
    }

    #[test]
    fn input_validation() {
        let app = Bodytrack::new();
        assert!(app
            .golden(&InputParams::new(vec![1.0, 120.0, 24.0]))
            .is_err());
        assert!(app.golden(&InputParams::new(vec![3.0, 5.0, 24.0])).is_err());
        assert!(app
            .golden(&InputParams::new(vec![3.0, 120.0, 1.0]))
            .is_err());
    }
}
