//! LULESH port: one-dimensional Lagrangian shock hydrodynamics.
//!
//! The paper's running example is LULESH, which simulates the Sedov blast
//! wave and iterates an outer loop *until the simulation reaches a stable
//! state* under a Courant time-step condition. The property OPPROX
//! exploits — and that this port preserves — is that **the outer-loop
//! iteration count depends on the internal approximations**: the Courant
//! time step is computed from the element states, so approximating the
//! kernels changes `dt` and with it the number of iterations (the paper
//! observes 921 accurate iterations growing to 965 under some settings,
//! turning intended speedups into slowdowns).
//!
//! The port is a staggered-grid 1D Lagrangian hydro code (nodes carry
//! velocity, elements carry thermodynamic state) with artificial
//! viscosity, an ideal-gas EOS with per-region `γ`, a Sedov-style central
//! energy deposit, and the standard LULESH time-step controls (CFL factor
//! plus a bounded per-step `dt` growth multiplier). It exposes the same
//! four approximable blocks the paper found safe for LULESH:
//!
//! | Block | Technique | Effect of approximation |
//! |---|---|---|
//! | `forces_on_elements` | loop perforation | skipped elements copy the viscosity of the nearest computed element |
//! | `position_of_elements` | memoization | node accelerations are refreshed only every k-th step |
//! | `strain_of_elements` | loop perforation | skipped elements copy the energy increment of the nearest computed element |
//! | `calculate_timeconstraints` | loop perforation | `dt` is derived from a sample of elements and can overshoot |
//!
//! The QoS metric is the paper's: relative difference in final element
//! energies versus the accurate run, averaged over elements.

use crate::util::seed_from;
use opprox_approx_rt::block::{BlockDescriptor, TechniqueKind};
use opprox_approx_rt::log::CallContextLog;
use opprox_approx_rt::technique::{perforated_indices, perforated_indices_offset};
use opprox_approx_rt::{ApproxApp, InputParams, LevelConfig, OuterLoop, RunResult, RuntimeError};

/// Index of the `forces_on_elements` block.
pub const BLOCK_FORCES: usize = 0;
/// Index of the `position_of_elements` block.
pub const BLOCK_POSITIONS: usize = 1;
/// Index of the `strain_of_elements` block.
pub const BLOCK_STRAIN: usize = 2;
/// Index of the `calculate_timeconstraints` block.
pub const BLOCK_TIMECONSTRAINTS: usize = 3;

/// Simulated end time of the blast problem.
const T_END: f64 = 1.2;
/// CFL safety factor for the Courant condition.
const CFL: f64 = 0.3;
/// Maximum per-step growth of `dt` (LULESH's `deltatimemultub`).
const DT_GROWTH: f64 = 1.1;
/// Hard iteration cap so approximated runs always terminate.
const MAX_ITERS: u64 = 2500;
/// Artificial-viscosity coefficients (linear and quadratic).
const Q_LINEAR: f64 = 0.75;
const Q_QUADRATIC: f64 = 2.0;
/// Physical clamps that bound runaway states under heavy approximation.
const E_MAX: f64 = 1e4;
const U_MAX: f64 = 25.0;

/// The LULESH-style hydrodynamics application.
///
/// Input parameters: `mesh_length` (number of elements along the 1D mesh,
/// the analogue of the paper's "length of cube mesh") and `num_regions`
/// (number of material regions with distinct `γ`).
#[derive(Debug, Clone)]
pub struct Lulesh {
    meta: opprox_approx_rt::app::AppMeta,
}

impl Default for Lulesh {
    fn default() -> Self {
        Self::new()
    }
}

impl Lulesh {
    /// Creates the application with its four approximable blocks.
    pub fn new() -> Self {
        Lulesh {
            meta: opprox_approx_rt::app::AppMeta {
                name: "LULESH".into(),
                input_param_names: vec!["mesh_length".into(), "num_regions".into()],
                blocks: vec![
                    BlockDescriptor::new("forces_on_elements", TechniqueKind::LoopPerforation, 5),
                    BlockDescriptor::new("position_of_elements", TechniqueKind::Memoization, 5),
                    BlockDescriptor::new("strain_of_elements", TechniqueKind::LoopPerforation, 5),
                    BlockDescriptor::new(
                        "calculate_timeconstraints",
                        TechniqueKind::LoopPerforation,
                        5,
                    ),
                ],
            },
        }
    }
}

/// The Lagrangian mesh's constants: element masses and per-region `γ`.
pub struct Mesh {
    /// Element count.
    n: usize,
    /// Element mass (constant in a Lagrangian code).
    m: Vec<f64>,
    /// Element adiabatic exponent (per material region).
    gamma: Vec<f64>,
    /// Per-input perturbation of the initial energy floor.
    jitter: f64,
}

/// Full mutable state of the hydro simulation.
#[derive(Clone)]
pub struct State {
    /// Node positions (n + 1 nodes).
    x: Vec<f64>,
    /// Node velocities.
    u: Vec<f64>,
    /// Cached node accelerations (for the memoized kinematics block).
    a: Vec<f64>,
    /// Element internal energy.
    e: Vec<f64>,
    /// Element density.
    rho: Vec<f64>,
    /// Element pressure.
    p: Vec<f64>,
    /// Element artificial viscosity.
    q: Vec<f64>,
    /// Element sound speed.
    cs: Vec<f64>,
    /// Nodal force scratch (n + 1 nodes).
    f: Vec<f64>,
    /// Simulated time.
    t: f64,
    /// The previous step's `dt`, bounding this step's growth.
    dt_prev: f64,
}

impl State {
    fn dx(&self, j: usize) -> f64 {
        (self.x[j + 1] - self.x[j]).max(1e-9)
    }

    fn update_eos(&mut self, mesh: &Mesh, j: usize) {
        self.rho[j] = mesh.m[j] / self.dx(j);
        self.e[j] = self.e[j].clamp(1e-9, E_MAX);
        self.p[j] = (mesh.gamma[j] - 1.0) * self.rho[j] * self.e[j];
        self.cs[j] = (mesh.gamma[j] * self.p[j] / self.rho[j]).max(1e-12).sqrt();
    }

    /// Characteristic speed used by the Courant condition for element `j`.
    fn char_speed(&self, j: usize) -> f64 {
        let du = (self.u[j + 1] - self.u[j]).abs();
        self.cs[j] + 1.2 * du
    }
}

impl OuterLoop for Lulesh {
    type Setup = Mesh;
    type State = State;

    fn setup(&self, input: &InputParams) -> Result<Mesh, RuntimeError> {
        let n = input.get(0) as usize;
        if !(8..=4096).contains(&n) {
            return Err(RuntimeError::InvalidInput(format!(
                "mesh_length must be in 8..=4096, got {n}"
            )));
        }
        let regions = (input.get(1) as usize).max(1);
        let dx0 = 1.0 / n as f64;
        // The mesh is deterministic; the seed only perturbs the initial
        // energy floor so distinct inputs produce distinct golden outputs.
        let seed = seed_from(input, 0x11);
        Ok(Mesh {
            n,
            m: vec![dx0; n],
            gamma: (0..n)
                .map(|j| {
                    let region = j * regions / n;
                    1.4 + 0.05 * (region % 3) as f64
                })
                .collect(),
            jitter: (seed % 1000) as f64 * 1e-12,
        })
    }

    fn init(&self, mesh: &Mesh) -> (State, u64) {
        let n = mesh.n;
        let dx0 = 1.0 / n as f64;
        let mut e = vec![1e-5; n];
        // Sedov-style energy deposit just off the mesh centre: an
        // odd-index hot element is *not* aligned with the strides of the
        // perforated time-constraint sampling, so dt-sampling genuinely
        // misses the constraining element early in the blast.
        e[n / 2 + 1] = 1.0 / dx0;
        let mut s = State {
            x: (0..=n).map(|i| i as f64 * dx0).collect(),
            u: vec![0.0; n + 1],
            a: vec![0.0; n + 1],
            e,
            rho: vec![1.0; n],
            p: vec![0.0; n],
            q: vec![0.0; n],
            cs: vec![0.0; n],
            f: vec![0.0; n + 1],
            t: 0.0,
            dt_prev: 1e-5,
        };
        for j in 0..n {
            s.update_eos(mesh, j);
        }
        s.e.iter_mut().for_each(|e| *e += mesh.jitter);
        (s, 0)
    }

    fn done(&self, _: &Mesh, s: &State, iter: u64) -> bool {
        let running = s.t < T_END && iter < MAX_ITERS;
        !running
    }

    fn step(
        &self,
        mesh: &Mesh,
        s: &mut State,
        iter: u64,
        cfg: &LevelConfig,
        log: &mut CallContextLog,
    ) -> u64 {
        let n = mesh.n;
        let dt_max = T_END / 50.0;
        let mut work: u64 = 0;

        // --- Block 3: calculate_timeconstraints (perforation) -----------
        let lvl_dt = cfg.level(BLOCK_TIMECONSTRAINTS);
        let mut dt = dt_max;
        let mut w: u64 = 0;
        for j in perforated_indices(n, lvl_dt) {
            let speed = s.char_speed(j).max(1e-12);
            let cand = CFL * s.dx(j) / speed;
            if cand < dt {
                dt = cand;
            }
            w += 8;
        }
        // LULESH's bounded dt growth keeps an overshooting sampled
        // minimum from destabilizing the integration outright.
        dt = dt.min(s.dt_prev * DT_GROWTH).clamp(1e-6, dt_max);
        s.dt_prev = dt;
        if s.t + dt > T_END {
            dt = T_END - s.t;
        }
        work += w;
        log.record(iter, BLOCK_TIMECONSTRAINTS, w);

        // --- Block 0: forces_on_elements (perforation) ------------------
        let lvl_f = cfg.level(BLOCK_FORCES);
        let mut w: u64 = 0;
        // Compute viscosity on the perforated sample, then fill the
        // gaps by linear interpolation between computed neighbours —
        // sampling the result space, as loop perforation does.
        let samples: Vec<usize> = perforated_indices_offset(n, lvl_f, iter as usize).collect();
        for &j in &samples {
            let du = s.u[j + 1] - s.u[j];
            s.q[j] = if du < 0.0 {
                // Viscosity is capped at a multiple of the pressure so a
                // perturbed velocity field cannot collapse `dt` without
                // bound.
                (Q_QUADRATIC * s.rho[j] * du * du + Q_LINEAR * s.rho[j] * s.cs[j] * (-du))
                    .min(2.0 * s.p[j] + 0.5)
            } else {
                0.0
            };
            w += 10;
        }
        for win in samples.windows(2) {
            let (a, b) = (win[0], win[1]);
            for j in (a + 1)..b {
                let frac = (j - a) as f64 / (b - a) as f64;
                s.q[j] = s.q[a] * (1.0 - frac) + s.q[b] * frac;
                w += 1;
            }
        }
        if let Some((&first, &last)) = samples.first().zip(samples.last()) {
            for j in 0..first {
                s.q[j] = s.q[first];
                w += 1;
            }
            for j in (last + 1)..n {
                s.q[j] = s.q[last];
                w += 1;
            }
        }
        // Assemble nodal forces from element stress.
        for i in 1..n {
            s.f[i] = (s.p[i - 1] + s.q[i - 1]) - (s.p[i] + s.q[i]);
            w += 4;
        }
        s.f[0] = 0.0;
        s.f[n] = 0.0;
        work += w;
        log.record(iter, BLOCK_FORCES, w);

        // --- Block 1: position_of_elements (memoization) ----------------
        let lvl_pos = cfg.level(BLOCK_POSITIONS);
        let recompute = lvl_pos == 0 || iter.is_multiple_of(lvl_pos as u64 + 1);
        let mut w: u64 = 0;
        if recompute {
            for i in 0..=n {
                let m_node = if i == 0 {
                    mesh.m[0] / 2.0
                } else if i == n {
                    mesh.m[n - 1] / 2.0
                } else {
                    (mesh.m[i - 1] + mesh.m[i]) / 2.0
                };
                s.a[i] = s.f[i] / m_node;
                w += 5;
            }
        } else {
            w += 1; // cached accelerations reused
        }
        for i in 0..=n {
            s.u[i] = (s.u[i] + dt * s.a[i]).clamp(-U_MAX, U_MAX);
            w += 2;
        }
        // Reflective boundaries.
        s.u[0] = 0.0;
        s.u[n] = 0.0;
        // Mild unconditional velocity filtering (the 1D analogue of
        // LULESH's hourglass damping) keeps the scheme from ringing
        // when approximated blocks inject non-smooth stress.
        for i in 1..n {
            s.f[i] = s.u[i] + 0.08 * (s.u[i - 1] - 2.0 * s.u[i] + s.u[i + 1]);
            w += 2;
        }
        let State { u, f, .. } = s;
        u[1..n].copy_from_slice(&f[1..n]);
        for i in 0..=n {
            s.x[i] += dt * s.u[i];
            w += 2;
        }
        // Keep the mesh untangled under aggressive approximation.
        for i in 1..=n {
            if s.x[i] <= s.x[i - 1] + 1e-9 {
                s.x[i] = s.x[i - 1] + 1e-9;
            }
        }
        work += w;
        log.record(iter, BLOCK_POSITIONS, w);

        // --- Block 2: strain_of_elements (perforation) -------------------
        let lvl_s = cfg.level(BLOCK_STRAIN);
        let mut w: u64 = 0;
        let samples: Vec<usize> = perforated_indices_offset(n, lvl_s, iter as usize).collect();
        let mut de = vec![0.0f64; n];
        for &j in &samples {
            let du = s.u[j + 1] - s.u[j];
            // pdV + viscous heating work on the element.
            de[j] = -dt * (s.p[j] + s.q[j]) * du / mesh.m[j];
            w += 12;
        }
        for win in samples.windows(2) {
            let (a, b) = (win[0], win[1]);
            for j in (a + 1)..b {
                let frac = (j - a) as f64 / (b - a) as f64;
                de[j] = de[a] * (1.0 - frac) + de[b] * frac;
                w += 1;
            }
        }
        if let Some((&first, &last)) = samples.first().zip(samples.last()) {
            for j in 0..first {
                de[j] = de[first];
                w += 1;
            }
            for j in (last + 1)..n {
                de[j] = de[last];
                w += 1;
            }
        }
        for (j, &dej) in de.iter().enumerate() {
            s.e[j] = (s.e[j] + dej).clamp(1e-9, E_MAX);
            s.update_eos(mesh, j);
            w += 4;
        }
        work += w;
        log.record(iter, BLOCK_STRAIN, w);

        s.t += dt;
        work + 2 // outer-loop bookkeeping
    }

    fn finish(&self, _: &Mesh, s: State, _: u64) -> Vec<f64> {
        s.e
    }
}

impl ApproxApp for Lulesh {
    fn meta(&self) -> &opprox_approx_rt::app::AppMeta {
        &self.meta
    }

    opprox_approx_rt::forward_to_driver!();

    fn qos_degradation(&self, exact: &RunResult, approx: &RunResult) -> f64 {
        // Difference in final element energies, averaged across elements
        // and scaled by the mean golden energy. The aggregate scale keeps
        // quiescent far-field elements (whose energies are ~1e-5) from
        // dominating a per-element relative metric.
        let n = exact.output.len().min(approx.output.len());
        if n == 0 {
            return 0.0;
        }
        let scale = (exact.output.iter().map(|e| e.abs()).sum::<f64>() / n as f64).max(1e-9);
        let sum: f64 = exact
            .output
            .iter()
            .zip(approx.output.iter())
            .map(|(e, a)| (a - e).abs())
            .sum();
        (100.0 * sum / (n as f64 * scale)).min(opprox_approx_rt::qos::QOS_SATURATION)
    }

    fn representative_inputs(&self) -> Vec<InputParams> {
        let mut out = Vec::new();
        for &mesh in &[48.0, 64.0, 80.0] {
            for &regions in &[1.0, 2.0, 4.0] {
                out.push(InputParams::new(vec![mesh, regions]));
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
        InputParams::new(vec![64.0, 2.0])
    }

    #[test]
    fn golden_run_is_deterministic() {
        let app = Lulesh::new();
        let a = app.golden(&input()).unwrap();
        let b = app.golden(&input()).unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(a.work, b.work);
        assert_eq!(a.outer_iters, b.outer_iters);
    }

    #[test]
    fn golden_run_reaches_end_time_with_hundreds_of_iterations() {
        let app = Lulesh::new();
        let g = app.golden(&input()).unwrap();
        assert!(
            g.outer_iters > 200 && g.outer_iters < MAX_ITERS,
            "iters = {}",
            g.outer_iters
        );
    }

    #[test]
    fn blast_wave_spreads_energy_outwards() {
        let app = Lulesh::new();
        let g = app.golden(&input()).unwrap();
        let n = g.output.len();
        // The central element must have shed a large part of its initial
        // energy into its neighbourhood.
        let centre = g.output[n / 2 + 1];
        let initial = 64.0;
        assert!(centre < 0.8 * initial, "centre energy {centre}");
        // Energy near the centre exceeds the far field.
        assert!(g.output[n / 2 + 2] > g.output[n - 1] * 2.0);
    }

    #[test]
    fn approximation_changes_iteration_count() {
        let app = Lulesh::new();
        let g = app.golden(&input()).unwrap();
        // Aggressive dt-sampling approximation perturbs the iteration count.
        let cfg = LevelConfig::new(vec![0, 0, 0, 5]);
        let a = app.run(&input(), &PhaseSchedule::constant(cfg)).unwrap();
        assert_ne!(
            g.outer_iters, a.outer_iters,
            "expected dt approximation to change the iteration count"
        );
    }

    #[test]
    fn approximation_reduces_per_iteration_work_and_adds_error() {
        let app = Lulesh::new();
        let g = app.golden(&input()).unwrap();
        let cfg = LevelConfig::new(vec![3, 3, 3, 0]);
        let a = app.run(&input(), &PhaseSchedule::constant(cfg)).unwrap();
        let per_iter_g = g.work as f64 / g.outer_iters as f64;
        let per_iter_a = a.work as f64 / a.outer_iters as f64;
        assert!(
            per_iter_a < per_iter_g,
            "approx {per_iter_a} vs golden {per_iter_g} per-iteration work"
        );
        let qos = app.qos_degradation(&g, &a);
        assert!(qos > 0.0);
        assert!(qos.is_finite());
    }

    #[test]
    fn late_phase_approximation_hurts_less_than_early() {
        let app = Lulesh::new();
        let g = app.golden(&input()).unwrap();
        let cfg = LevelConfig::new(vec![4, 4, 4, 0]);
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
        let q_early = app.qos_degradation(&g, &early);
        let q_late = app.qos_degradation(&g, &late);
        assert!(
            q_late < q_early,
            "phase-4 QoS {q_late} should be below phase-1 QoS {q_early}"
        );
    }

    #[test]
    fn rejects_bad_mesh_length() {
        let app = Lulesh::new();
        assert!(app.golden(&InputParams::new(vec![4.0, 1.0])).is_err());
        assert!(app.golden(&InputParams::new(vec![64.0])).is_err());
    }

    #[test]
    fn distinct_inputs_have_distinct_outputs() {
        let app = Lulesh::new();
        let a = app.golden(&InputParams::new(vec![48.0, 1.0])).unwrap();
        let b = app.golden(&InputParams::new(vec![80.0, 1.0])).unwrap();
        assert_ne!(a.output.len(), b.output.len());
    }
}
