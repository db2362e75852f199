//! PSO port: particle swarm optimization over continuous objectives.
//!
//! PSO starts from a population of candidate solutions and iteratively
//! improves them inside an outer convergence loop: each iteration computes
//! new velocities and positions, evaluates fitness, and updates personal
//! and global bests until the global best stops improving. Early-phase
//! inaccuracies misdirect the whole swarm (the quality of the solutions
//! explored in one iteration depends on the accuracy of the previous
//! ones), while late-phase inaccuracies matter little because the bests
//! have settled — and late-phase fitness noise can *delay convergence*,
//! which is why PSO's speedup, like LULESH's, drops when approximation is
//! applied in later phases.
//!
//! Approximable blocks (paper Table 1: loop perforation + memoization):
//!
//! | Block | Technique | Effect |
//! |---|---|---|
//! | `fitness_eval` | loop perforation | the objective is sampled over a subset of dimensions and rescaled |
//! | `velocity_update` | memoization | velocities recomputed only every k-th iteration |
//! | `pbest_update` | loop perforation | skipped particles do not refresh their personal best |
//!
//! QoS: the paper's metric — the average difference of the per-particle
//! best-fitness values versus the accurate execution (the default
//! relative distortion over the pbest vector).

use crate::util::seed_from;
use opprox_approx_rt::block::{BlockDescriptor, TechniqueKind};
use opprox_approx_rt::log::CallContextLog;
use opprox_approx_rt::technique::perforated_indices;
use opprox_approx_rt::{ApproxApp, InputParams, LevelConfig, OuterLoop, RunResult, RuntimeError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Index of the `fitness_eval` block.
pub const BLOCK_FITNESS: usize = 0;
/// Index of the `velocity_update` block.
pub const BLOCK_VELOCITY: usize = 1;
/// Index of the `pbest_update` block.
pub const BLOCK_PBEST: usize = 2;

/// Hard cap on outer iterations.
const MAX_ITERS: u64 = 350;
/// Minimum iterations before the convergence criterion may fire.
const MIN_ITERS: u64 = 120;
/// Convergence: stop after this many iterations without improvement.
const PATIENCE: u64 = 25;
/// Minimum relative improvement that resets the patience counter.
const IMPROVEMENT_TOL: f64 = 1e-4;
/// PSO inertia and attraction coefficients.
const INERTIA: f64 = 0.72;
const C_PERSONAL: f64 = 1.5;
const C_GLOBAL: f64 = 1.5;
/// Search-space bound per dimension.
const BOUND: f64 = 4.5;

/// The particle-swarm-optimization application.
///
/// Input parameters: `swarm_size` and `dimension` (of the Rosenbrock
/// objective).
#[derive(Debug, Clone)]
pub struct Pso {
    meta: opprox_approx_rt::app::AppMeta,
}

impl Default for Pso {
    fn default() -> Self {
        Self::new()
    }
}

impl Pso {
    /// Creates the application with its three approximable blocks.
    pub fn new() -> Self {
        Pso {
            meta: opprox_approx_rt::app::AppMeta {
                name: "PSO".into(),
                input_param_names: vec!["swarm_size".into(), "dimension".into()],
                blocks: vec![
                    BlockDescriptor::new("fitness_eval", TechniqueKind::LoopPerforation, 5),
                    BlockDescriptor::new("velocity_update", TechniqueKind::Memoization, 5),
                    BlockDescriptor::new("pbest_update", TechniqueKind::LoopPerforation, 5),
                ],
            },
        }
    }
}

/// Rastrigin objective evaluated over a perforated subset of its terms,
/// rescaled so the sampled sum estimates the full one. Rastrigin is
/// highly multimodal: a swarm misdirected early settles in a *different
/// basin* than the accurate run, so any early-phase approximation leaves
/// a lasting mark on the per-particle best-fitness vector.
fn rastrigin_perforated(x: &[f64], level: u8, work: &mut u64) -> f64 {
    const A: f64 = 10.0;
    let d = x.len();
    let mut sum = 0.0;
    let mut sampled = 0usize;
    for k in perforated_indices(d, level) {
        let xk = x[k];
        sum += xk * xk - A * (std::f64::consts::TAU * xk).cos() + A;
        sampled += 1;
        *work += 8;
    }
    // Rescale the partial sum to the full dimension count.
    sum * d as f64 / sampled.max(1) as f64
}

/// Swarm dimensions of one PSO run.
pub struct Setup {
    swarm: usize,
    dim: usize,
    /// RNG seed for the initial swarm and the velocity updates.
    seed: u64,
}

/// The swarm, its bests, the velocity RNG and the convergence counter.
#[derive(Clone)]
pub struct State {
    rng: StdRng,
    pos: Vec<Vec<f64>>,
    vel: Vec<Vec<f64>>,
    pbest_pos: Vec<Vec<f64>>,
    pbest_fit: Vec<f64>,
    gbest_pos: Vec<f64>,
    gbest_fit: f64,
    /// Iterations since the global best last improved.
    stall: u64,
}

impl OuterLoop for Pso {
    type Setup = Setup;
    type State = State;

    fn setup(&self, input: &InputParams) -> Result<Setup, RuntimeError> {
        let swarm = input.get(0) as usize;
        if !(5..=500).contains(&swarm) {
            return Err(RuntimeError::InvalidInput(format!(
                "swarm_size must be in 5..=500, got {swarm}"
            )));
        }
        let dim = input.get(1) as usize;
        if !(2..=32).contains(&dim) {
            return Err(RuntimeError::InvalidInput(format!(
                "dimension must be in 2..=32, got {dim}"
            )));
        }
        Ok(Setup {
            swarm,
            dim,
            seed: seed_from(input, 0x44),
        })
    }

    fn init(&self, setup: &Setup) -> (State, u64) {
        let (swarm, dim) = (setup.swarm, setup.dim);
        let mut rng = StdRng::seed_from_u64(setup.seed);
        let pos: Vec<Vec<f64>> = (0..swarm)
            .map(|_| {
                (0..dim)
                    .map(|_| rng.gen::<f64>() * 2.0 * BOUND - BOUND)
                    .collect()
            })
            .collect();
        let vel: Vec<Vec<f64>> = (0..swarm)
            .map(|_| (0..dim).map(|_| rng.gen::<f64>() * 0.6 - 0.3).collect())
            .collect();
        // Initialization: every particle's personal best starts from one
        // accurate evaluation (part of the setup, not an approximable
        // block), so the pbest vector is always fully populated.
        let mut init_work = 0u64;
        let pbest_fit: Vec<f64> = pos
            .iter()
            .map(|p| rastrigin_perforated(p, 0, &mut init_work))
            .collect();
        let (gbest_idx, _) = pbest_fit
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite fitness"))
            .expect("non-empty swarm");
        let state = State {
            rng,
            gbest_pos: pos[gbest_idx].clone(),
            gbest_fit: pbest_fit[gbest_idx],
            pbest_pos: pos.clone(),
            pbest_fit,
            pos,
            vel,
            stall: 0,
        };
        (state, init_work)
    }

    fn done(&self, _: &Setup, s: &State, iter: u64) -> bool {
        iter >= MAX_ITERS || (s.stall >= PATIENCE && iter >= MIN_ITERS)
    }

    fn step(
        &self,
        setup: &Setup,
        s: &mut State,
        iter: u64,
        cfg: &LevelConfig,
        log: &mut CallContextLog,
    ) -> u64 {
        let (swarm, dim) = (setup.swarm, setup.dim);
        let mut work: u64 = 0;

        // --- Block 0: fitness_eval (perforation over dimensions) --------
        let lvl_fit = cfg.level(BLOCK_FITNESS);
        let mut w: u64 = 0;
        let fits: Vec<f64> = s
            .pos
            .iter()
            .map(|p| rastrigin_perforated(p, lvl_fit, &mut w))
            .collect();
        work += w;
        log.record(iter, BLOCK_FITNESS, w);

        // --- Block 2: pbest_update (perforation over particles) ---------
        let lvl_pb = cfg.level(BLOCK_PBEST);
        let mut w: u64 = 0;
        let prev_gbest = s.gbest_fit;
        for i in perforated_indices(swarm, lvl_pb) {
            if fits[i] < s.pbest_fit[i] {
                s.pbest_fit[i] = fits[i];
                s.pbest_pos[i] = s.pos[i].clone();
            }
            if fits[i] < s.gbest_fit {
                s.gbest_fit = fits[i];
                s.gbest_pos = s.pos[i].clone();
            }
            w += 4;
        }
        work += w;
        log.record(iter, BLOCK_PBEST, w);

        // --- Block 1: velocity_update (memoization over iterations) -----
        let lvl_v = cfg.level(BLOCK_VELOCITY);
        let recompute = lvl_v == 0 || iter.is_multiple_of(lvl_v as u64 + 1);
        let mut w: u64 = 0;
        if recompute {
            for i in 0..swarm {
                for k in 0..dim {
                    let rp = s.rng.gen::<f64>();
                    let rg = s.rng.gen::<f64>();
                    s.vel[i][k] = INERTIA * s.vel[i][k]
                        + C_PERSONAL * rp * (s.pbest_pos[i][k] - s.pos[i][k])
                        + C_GLOBAL * rg * (s.gbest_pos[k] - s.pos[i][k]);
                    w += 6;
                }
            }
        } else {
            // Memoized: keep the previous velocities; the RNG stream
            // still advances identically so runs stay comparable.
            for _ in 0..swarm * dim {
                let _ = s.rng.gen::<f64>();
                let _ = s.rng.gen::<f64>();
            }
            w += swarm as u64;
        }
        for i in 0..swarm {
            for k in 0..dim {
                s.pos[i][k] = (s.pos[i][k] + s.vel[i][k]).clamp(-BOUND, BOUND);
                w += 2;
            }
        }
        work += w;
        log.record(iter, BLOCK_VELOCITY, w);

        // Convergence accounting on the global best.
        let improved = prev_gbest.is_infinite() && s.gbest_fit.is_finite()
            || (prev_gbest - s.gbest_fit) > IMPROVEMENT_TOL * prev_gbest.abs().max(1.0);
        if improved {
            s.stall = 0;
        } else {
            s.stall += 1;
        }
        work + 3
    }

    fn finish(&self, _: &Setup, s: State, _: u64) -> Vec<f64> {
        s.pbest_fit
    }
}

impl ApproxApp for Pso {
    fn meta(&self) -> &opprox_approx_rt::app::AppMeta {
        &self.meta
    }

    opprox_approx_rt::forward_to_driver!();

    fn qos_degradation(&self, exact: &RunResult, approx: &RunResult) -> f64 {
        // Average difference of the per-particle best-fitness values,
        // scaled by the golden magnitude with a unit floor: near the
        // optimum the fitness values are O(1), so an absolute floor keeps
        // the metric from exploding when a golden pbest happens to be
        // nearly zero.
        let n = exact.output.len().min(approx.output.len());
        if n == 0 {
            return 0.0;
        }
        let sum: f64 = exact
            .output
            .iter()
            .zip(approx.output.iter())
            .map(|(e, a)| (a - e).abs() / e.abs().max(1.0))
            .sum();
        (100.0 * sum / n as f64).min(opprox_approx_rt::qos::QOS_SATURATION)
    }

    fn representative_inputs(&self) -> Vec<InputParams> {
        let mut out = Vec::new();
        for &swarm in &[16.0, 24.0, 32.0] {
            for &dim in &[3.0, 4.0, 6.0] {
                out.push(InputParams::new(vec![swarm, dim]));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opprox_approx_rt::PhaseSchedule;

    fn input() -> InputParams {
        InputParams::new(vec![24.0, 4.0])
    }

    #[test]
    fn golden_run_is_deterministic() {
        let app = Pso::new();
        let a = app.golden(&input()).unwrap();
        let b = app.golden(&input()).unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(a.work, b.work);
        assert_eq!(a.outer_iters, b.outer_iters);
    }

    #[test]
    fn swarm_converges_towards_the_optimum() {
        let app = Pso::new();
        let g = app.golden(&input()).unwrap();
        let best = g.output.iter().cloned().fold(f64::INFINITY, f64::min);
        // Rastrigin's optimum is 0 at the origin; the swarm should settle
        // in a low basin.
        assert!(best < 15.0, "best fitness {best}");
        assert!(g.outer_iters >= PATIENCE);
    }

    #[test]
    fn fitness_perforation_reduces_work() {
        let app = Pso::new();
        let g = app.golden(&input()).unwrap();
        let a = app
            .run(
                &input(),
                &PhaseSchedule::constant(LevelConfig::new(vec![3, 0, 0])),
            )
            .unwrap();
        let work_per_iter_g = g.work as f64 / g.outer_iters as f64;
        let work_per_iter_a = a.work as f64 / a.outer_iters as f64;
        assert!(work_per_iter_a < work_per_iter_g);
    }

    #[test]
    fn approximation_perturbs_pbest_vector() {
        let app = Pso::new();
        let g = app.golden(&input()).unwrap();
        let a = app
            .run(
                &input(),
                &PhaseSchedule::constant(LevelConfig::new(vec![4, 2, 2])),
            )
            .unwrap();
        assert!(app.qos_degradation(&g, &a) > 0.0);
    }

    #[test]
    fn early_phase_approximation_hurts_more_than_late() {
        let app = Pso::new();
        let g = app.golden(&input()).unwrap();
        let cfg = LevelConfig::new(vec![4, 3, 3]);
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
        let app = Pso::new();
        assert!(app.golden(&InputParams::new(vec![2.0, 4.0])).is_err());
        assert!(app.golden(&InputParams::new(vec![24.0, 1.0])).is_err());
        assert!(app.golden(&InputParams::new(vec![24.0])).is_err());
    }
}
