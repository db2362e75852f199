//! CoMD port: Lennard-Jones molecular dynamics.
//!
//! CoMD is a proxy app for classical MD: evaluate the force on each atom
//! due to all others, then numerically integrate Newton's equations. Its
//! outer loop is the *classic timestep loop* — the iteration count is an
//! input parameter and (unlike LULESH) does not depend on the internal
//! approximation levels.
//!
//! Approximable blocks (Table 1 of the paper uses loop perforation and
//! loop truncation for CoMD):
//!
//! | Block | Technique | Effect of approximation |
//! |---|---|---|
//! | `lj_force` | loop perforation | skipped atoms reuse the previous step's force |
//! | `advance_velocity` | loop truncation | trailing atoms keep their old velocity this step |
//! | `compute_energy` | loop perforation | per-atom energy reduction sampled, skipped atoms reuse stale values |
//!
//! QoS: the paper uses the difference in potential and kinetic energy
//! versus the accurate execution, averaged across all atoms — here the
//! output vector is the per-atom total energy, compared with the default
//! relative-distortion metric.

use crate::util::seed_from;
use opprox_approx_rt::block::{BlockDescriptor, TechniqueKind};
use opprox_approx_rt::log::CallContextLog;
use opprox_approx_rt::technique::{perforated_indices, truncated_len};
use opprox_approx_rt::{ApproxApp, InputParams, LevelConfig, OuterLoop, RunResult, RuntimeError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Index of the `lj_force` block.
pub const BLOCK_FORCE: usize = 0;
/// Index of the `advance_velocity` block.
pub const BLOCK_VELOCITY: usize = 1;
/// Index of the `compute_energy` block.
pub const BLOCK_ENERGY: usize = 2;

/// Integration time step.
const DT: f64 = 0.006;
/// Lennard-Jones interaction cutoff radius.
const CUTOFF: f64 = 2.5;
/// Clamp on per-component force to keep approximated runs stable.
const FORCE_CAP: f64 = 1e3;
/// Clamp on per-component velocity.
const VELOCITY_CAP: f64 = 50.0;

/// The CoMD-style molecular-dynamics application.
///
/// Input parameters: `unit_cells` (atoms per edge of the simple-cubic
/// lattice), `lattice_param` (lattice spacing in σ units) and
/// `timesteps` (outer-loop iteration count).
#[derive(Debug, Clone)]
pub struct CoMd {
    meta: opprox_approx_rt::app::AppMeta,
}

impl Default for CoMd {
    fn default() -> Self {
        Self::new()
    }
}

impl CoMd {
    /// Creates the application with its three approximable blocks.
    pub fn new() -> Self {
        CoMd {
            meta: opprox_approx_rt::app::AppMeta {
                name: "CoMD".into(),
                input_param_names: vec![
                    "unit_cells".into(),
                    "lattice_param".into(),
                    "timesteps".into(),
                ],
                blocks: vec![
                    BlockDescriptor::new("lj_force", TechniqueKind::LoopPerforation, 5),
                    BlockDescriptor::new("advance_velocity", TechniqueKind::LoopTruncation, 5),
                    BlockDescriptor::new("compute_energy", TechniqueKind::LoopPerforation, 5),
                ],
            },
        }
    }
}

/// Lennard-Jones pair potential and force magnitude over distance.
///
/// Returns `(u, f_over_r)` where `u` is the potential energy and
/// `f_over_r` the force magnitude divided by the distance (so the force
/// vector is `f_over_r * dr`).
fn lj(r2: f64) -> (f64, f64) {
    let inv_r2 = 1.0 / r2;
    let s6 = inv_r2 * inv_r2 * inv_r2;
    let s12 = s6 * s6;
    let u = 4.0 * (s12 - s6);
    let f_over_r = 24.0 * (2.0 * s12 - s6) * inv_r2;
    (u, f_over_r)
}

/// Input-derived constants of one CoMD run.
pub struct Setup {
    /// Atoms per lattice edge.
    nx: usize,
    lattice: f64,
    steps: u64,
    /// RNG seed for the initial velocities and disorder.
    seed: u64,
}

/// Per-atom dynamics and the running energy average.
#[derive(Clone)]
pub struct State {
    pos: Vec<[f64; 3]>,
    vel: Vec<[f64; 3]>,
    force: Vec<[f64; 3]>,
    pe: Vec<f64>,
    energy: Vec<f64>,
    avg_energy: Vec<f64>,
}

impl OuterLoop for CoMd {
    type Setup = Setup;
    type State = State;

    fn setup(&self, input: &InputParams) -> Result<Setup, RuntimeError> {
        let nx = input.get(0) as usize;
        if !(2..=8).contains(&nx) {
            return Err(RuntimeError::InvalidInput(format!(
                "unit_cells must be in 2..=8, got {nx}"
            )));
        }
        let lattice = input.get(1);
        if !(0.9..=2.0).contains(&lattice) {
            return Err(RuntimeError::InvalidInput(format!(
                "lattice_param must be in 0.9..=2.0, got {lattice}"
            )));
        }
        let steps = input.get(2) as u64;
        if !(1..=5000).contains(&steps) {
            return Err(RuntimeError::InvalidInput(format!(
                "timesteps must be in 1..=5000, got {steps}"
            )));
        }
        Ok(Setup {
            nx,
            lattice,
            steps,
            seed: seed_from(input, 0x22),
        })
    }

    fn init(&self, setup: &Setup) -> (State, u64) {
        let (nx, lattice) = (setup.nx, setup.lattice);
        let n = nx * nx * nx;
        let mut rng = StdRng::seed_from_u64(setup.seed);
        let mut pos: Vec<[f64; 3]> = Vec::with_capacity(n);
        for ix in 0..nx {
            for iy in 0..nx {
                for iz in 0..nx {
                    pos.push([
                        ix as f64 * lattice,
                        iy as f64 * lattice,
                        iz as f64 * lattice,
                    ]);
                }
            }
        }
        // Thermal velocities, deterministic per input; hot enough that the
        // system is a chaotic fluid rather than a quasi-harmonic crystal,
        // so early perturbations amplify over the remaining trajectory.
        let vel: Vec<[f64; 3]> = (0..n)
            .map(|_| {
                [
                    rng.gen::<f64>() * 2.4 - 1.2,
                    rng.gen::<f64>() * 2.4 - 1.2,
                    rng.gen::<f64>() * 2.4 - 1.2,
                ]
            })
            .collect();
        // Slight positional disorder breaks lattice symmetry.
        for p in pos.iter_mut() {
            for c in p.iter_mut() {
                *c += rng.gen::<f64>() * 0.1 - 0.05;
            }
        }
        let state = State {
            pos,
            vel,
            force: vec![[0.0; 3]; n],
            pe: vec![0.0; n],
            energy: vec![0.0; n],
            avg_energy: vec![0.0; n],
        };
        (state, 0)
    }

    fn done(&self, setup: &Setup, _: &State, iter: u64) -> bool {
        iter >= setup.steps
    }

    fn step(
        &self,
        setup: &Setup,
        s: &mut State,
        iter: u64,
        cfg: &LevelConfig,
        log: &mut CallContextLog,
    ) -> u64 {
        let n = s.pos.len();
        let cutoff2 = CUTOFF * CUTOFF;
        let mut work: u64 = 0;

        // --- Block 0: lj_force (perforation over atoms) -----------------
        let lvl_f = cfg.level(BLOCK_FORCE);
        let mut w: u64 = 0;
        let pos = &s.pos;
        for i in perforated_indices(n, lvl_f) {
            let mut f = [0.0f64; 3];
            let mut u_i = 0.0;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let dr = [
                    pos[i][0] - pos[j][0],
                    pos[i][1] - pos[j][1],
                    pos[i][2] - pos[j][2],
                ];
                let r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
                if r2 < cutoff2 {
                    let (u, f_over_r) = lj(r2.max(0.64));
                    u_i += 0.5 * u;
                    f[0] += f_over_r * dr[0];
                    f[1] += f_over_r * dr[1];
                    f[2] += f_over_r * dr[2];
                    w += 6;
                }
                w += 3;
            }
            for (fc, f) in s.force[i].iter_mut().zip(f) {
                *fc = f.clamp(-FORCE_CAP, FORCE_CAP);
            }
            s.pe[i] = u_i;
        }
        work += w;
        log.record(iter, BLOCK_FORCE, w);

        // --- Block 1: advance_velocity (truncation over atoms) ----------
        let lvl_v = cfg.level(BLOCK_VELOCITY);
        let updated = truncated_len(n, lvl_v, n / 10, n / 4);
        let mut w: u64 = 0;
        for (i, v) in s.vel.iter_mut().enumerate().take(updated) {
            for (vc, fc) in v.iter_mut().zip(s.force[i]) {
                *vc = (*vc + DT * fc).clamp(-VELOCITY_CAP, VELOCITY_CAP);
            }
            w += 4;
        }
        // Positions always advance (cheap, not an AB on its own).
        // Reflective walls keep the fluid at constant density so the
        // per-iteration force work — and with it the phase-specific
        // speedup — stays flat across the run.
        let wall = setup.nx as f64 * setup.lattice + 0.6;
        for (p, v) in s.pos.iter_mut().zip(s.vel.iter_mut()) {
            for c in 0..3 {
                p[c] += DT * v[c];
                if p[c] < -0.6 {
                    p[c] = -1.2 - p[c];
                    v[c] = -v[c];
                } else if p[c] > wall {
                    p[c] = 2.0 * wall - p[c];
                    v[c] = -v[c];
                }
            }
            w += 3;
        }
        work += w;
        log.record(iter, BLOCK_VELOCITY, w);

        // --- Block 2: compute_energy (perforation over atoms) -----------
        let lvl_e = cfg.level(BLOCK_ENERGY);
        let mut w: u64 = 0;
        for i in perforated_indices(n, lvl_e) {
            let v = s.vel[i];
            let ke = 0.5 * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
            s.energy[i] = ke + s.pe[i];
            w += 5;
        }
        // Per-atom trajectory averages — the thermodynamic observable
        // CoMD reports. A perturbation introduced in phase p corrupts
        // every sample from p to the end of the run (chaotic
        // trajectories never reconverge), so early-phase approximation
        // contaminates almost the whole average while late-phase
        // approximation only touches its own tail.
        for (avg, e) in s.avg_energy.iter_mut().zip(s.energy.iter()) {
            *avg += e;
        }
        work += w;
        log.record(iter, BLOCK_ENERGY, w);
        work + 2
    }

    fn finish(&self, _: &Setup, s: State, iters: u64) -> Vec<f64> {
        let mut avg_energy = s.avg_energy;
        for avg in avg_energy.iter_mut() {
            *avg /= iters as f64;
        }
        avg_energy
    }
}

impl ApproxApp for CoMd {
    fn meta(&self) -> &opprox_approx_rt::app::AppMeta {
        &self.meta
    }

    opprox_approx_rt::forward_to_driver!();

    fn qos_degradation(&self, exact: &RunResult, approx: &RunResult) -> f64 {
        // Energy difference per atom, scaled by the golden magnitude with
        // a unit floor (per-atom energies near zero would otherwise blow
        // the relative metric up).
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
        for &cells in &[3.0, 4.0] {
            for &lat in &[1.1, 1.25] {
                for &steps in &[120.0, 180.0] {
                    out.push(InputParams::new(vec![cells, lat, steps]));
                }
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
        InputParams::new(vec![3.0, 1.15, 120.0])
    }

    #[test]
    fn golden_run_is_deterministic() {
        let app = CoMd::new();
        let a = app.golden(&input()).unwrap();
        let b = app.golden(&input()).unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(a.work, b.work);
    }

    #[test]
    fn iteration_count_is_exactly_the_timestep_parameter() {
        let app = CoMd::new();
        let g = app.golden(&input()).unwrap();
        assert_eq!(g.outer_iters, 120);
        // ... and is unaffected by approximation (unlike LULESH).
        let a = app
            .run(
                &input(),
                &PhaseSchedule::constant(LevelConfig::new(vec![5, 5, 5])),
            )
            .unwrap();
        assert_eq!(a.outer_iters, 120);
    }

    #[test]
    fn energies_are_finite_and_bounded() {
        let app = CoMd::new();
        let g = app.golden(&input()).unwrap();
        assert_eq!(g.output.len(), 27);
        for e in &g.output {
            assert!(e.is_finite());
            assert!(e.abs() < 1e4);
        }
    }

    #[test]
    fn approximation_reduces_work_and_perturbs_energy() {
        let app = CoMd::new();
        let g = app.golden(&input()).unwrap();
        let a = app
            .run(
                &input(),
                &PhaseSchedule::constant(LevelConfig::new(vec![4, 0, 0])),
            )
            .unwrap();
        assert!(a.work < g.work);
        assert!(app.qos_degradation(&g, &a) > 0.0);
    }

    #[test]
    fn early_phase_error_exceeds_late_phase_error() {
        let app = CoMd::new();
        let g = app.golden(&input()).unwrap();
        let cfg = LevelConfig::new(vec![4, 2, 0]);
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
        let app = CoMd::new();
        assert!(app
            .golden(&InputParams::new(vec![1.0, 1.1, 100.0]))
            .is_err());
        assert!(app
            .golden(&InputParams::new(vec![3.0, 0.1, 100.0]))
            .is_err());
        assert!(app.golden(&InputParams::new(vec![3.0, 1.1, 0.0])).is_err());
        assert!(app.golden(&InputParams::new(vec![3.0])).is_err());
    }
}
