//! PageRank port: iterative graph kernel with convergence-based task
//! skipping.
//!
//! Power iteration over a deterministic random directed graph. Unlike
//! the paper's four applications, the dominant technique here is *task
//! skipping* (approximate-computing survey): a node whose rank residual
//! has fallen below a level-dependent threshold is not recomputed this
//! iteration — the convergence structure of the kernel itself drives
//! which tasks are droppable. The outer loop exits early once the
//! perforation-sampled residual norm converges.
//!
//! Approximable blocks:
//!
//! | Block | Technique | Effect of approximation |
//! |---|---|---|
//! | `contrib_push` | precision scaling | outgoing rank contributions quantized onto a coarser grid |
//! | `rank_update` | task skipping | nodes with a sub-threshold residual keep their stale rank |
//! | `residual_norm` | loop perforation | the convergence norm is estimated from sampled nodes |
//!
//! QoS: relative distortion over the per-node *iteration-averaged* rank
//! vector. Averaging over the trajectory is what gives the kernel its
//! phase structure: a rank perturbation introduced early contaminates
//! every subsequent sample of the average, while power-iteration
//! contraction means a late perturbation only touches its own tail.

use crate::util::seed_from;
use opprox_approx_rt::block::{BlockDescriptor, TechniqueKind};
use opprox_approx_rt::log::CallContextLog;
use opprox_approx_rt::technique::{perforated_indices, precision_cost, quantized, should_skip};
use opprox_approx_rt::{
    ApproxApp, InputParams, LevelConfig, OuterLoop, RunResult, RuntimeError, WorkCounter,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Index of the `contrib_push` block.
pub const BLOCK_CONTRIB: usize = 0;
/// Index of the `rank_update` block.
pub const BLOCK_UPDATE: usize = 1;
/// Index of the `residual_norm` block.
pub const BLOCK_NORM: usize = 2;

/// PageRank damping factor.
const DAMPING: f64 = 0.85;
/// Convergence tolerance on the (mean) rank residual.
const TOL: f64 = 1e-7;
/// Minimum iterations before the convergence exit may fire, so every
/// phase of a short schedule sees at least some iterations.
const MIN_ITERS: u64 = 8;
/// Base quantization step for `contrib_push`, relative to the uniform
/// rank `1/n` scale.
const QUANT_STEP: f64 = 5e-4;
/// Base skip threshold for `rank_update`, as a fraction of the current
/// mean residual. Relative significance makes the skipped fraction
/// roughly stationary across the run, while the *injected* error scales
/// with the absolute residual — large early, tiny late.
const SKIP_STEP: f64 = 0.12;

/// The PageRank application.
///
/// Input parameters: `nodes` (graph size), `out_degree` (edges per
/// node) and `max_steps` (outer-loop iteration cap; the loop may exit
/// earlier on convergence).
#[derive(Debug, Clone)]
pub struct PageRank {
    meta: opprox_approx_rt::app::AppMeta,
}

impl Default for PageRank {
    fn default() -> Self {
        Self::new()
    }
}

impl PageRank {
    /// Creates the application with its three approximable blocks.
    pub fn new() -> Self {
        PageRank {
            meta: opprox_approx_rt::app::AppMeta {
                name: "PageRank".into(),
                input_param_names: vec!["nodes".into(), "out_degree".into(), "max_steps".into()],
                blocks: vec![
                    BlockDescriptor::new("contrib_push", TechniqueKind::PrecisionScaling, 5),
                    BlockDescriptor::new("rank_update", TechniqueKind::TaskSkipping, 5),
                    BlockDescriptor::new("residual_norm", TechniqueKind::LoopPerforation, 5),
                ],
            },
        }
    }
}

/// The graph and the constants derived from it.
pub struct Graph {
    /// Source nodes of every node's incoming edges.
    in_edges: Vec<Vec<usize>>,
    max_steps: u64,
    uniform: f64,
    inv_degree: f64,
}

/// Rank vectors, residuals and the running rank average.
#[derive(Clone)]
pub struct State {
    rank: Vec<f64>,
    contrib: Vec<f64>,
    residual: Vec<f64>,
    avg_rank: Vec<f64>,
    /// Convergence scale for relative task significance: the previous
    /// iteration's (sampled) mean residual.
    scale: f64,
    /// Whether the convergence exit fired.
    converged: bool,
}

impl OuterLoop for PageRank {
    type Setup = Graph;
    type State = State;

    fn setup(&self, input: &InputParams) -> Result<Graph, RuntimeError> {
        let n = input.get(0) as usize;
        if !(8..=512).contains(&n) {
            return Err(RuntimeError::InvalidInput(format!(
                "nodes must be in 8..=512, got {n}"
            )));
        }
        let degree = input.get(1) as usize;
        if !(2..=16).contains(&degree) {
            return Err(RuntimeError::InvalidInput(format!(
                "out_degree must be in 2..=16, got {degree}"
            )));
        }
        let max_steps = input.get(2) as u64;
        if !(1..=2000).contains(&max_steps) {
            return Err(RuntimeError::InvalidInput(format!(
                "max_steps must be in 1..=2000, got {max_steps}"
            )));
        }

        // Deterministic directed graph: every node pushes to `degree`
        // targets; a skewed target distribution gives the rank vector a
        // heavy tail, so task skipping has significant and insignificant
        // nodes to tell apart.
        let mut rng = StdRng::seed_from_u64(seed_from(input, 0x97));
        let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for src in 0..n {
            for _ in 0..degree {
                // Preferential-attachment-flavoured target choice: half
                // the edges land uniformly, half on a quadratically
                // skewed prefix of the node space.
                let r = rng.gen::<f64>();
                let t = if r < 0.5 {
                    rng.gen_range(0..n)
                } else {
                    let u = rng.gen::<f64>();
                    ((u * u * n as f64) as usize).min(n - 1)
                };
                in_edges[t].push(src);
            }
        }
        Ok(Graph {
            in_edges,
            max_steps,
            uniform: 1.0 / n as f64,
            inv_degree: 1.0 / degree as f64,
        })
    }

    fn init(&self, g: &Graph) -> (State, u64) {
        let n = g.in_edges.len();
        let state = State {
            rank: vec![g.uniform; n],
            contrib: vec![0.0; n],
            residual: vec![g.uniform; n], // nothing converged yet
            avg_rank: vec![0.0; n],
            scale: g.uniform,
            converged: false,
        };
        (state, 0)
    }

    fn done(&self, g: &Graph, s: &State, iter: u64) -> bool {
        s.converged || iter >= g.max_steps
    }

    fn step(
        &self,
        g: &Graph,
        s: &mut State,
        iter: u64,
        cfg: &LevelConfig,
        log: &mut CallContextLog,
    ) -> u64 {
        let n = g.in_edges.len();
        let quant_base = QUANT_STEP * g.uniform;
        let mut counter = WorkCounter::new();

        // --- Block 0: contrib_push (precision scaling) ------------------
        let lvl_c = cfg.level(BLOCK_CONTRIB);
        let cost_c = precision_cost(4, lvl_c);
        let mut w: u64 = 0;
        for (c, r) in s.contrib.iter_mut().zip(s.rank.iter()) {
            *c = quantized(r * g.inv_degree, lvl_c, quant_base);
            w += cost_c;
        }
        counter.add(w);
        log.record(iter, BLOCK_CONTRIB, w);

        // --- Block 1: rank_update (task skipping) -----------------------
        let lvl_u = cfg.level(BLOCK_UPDATE);
        let mut w: u64 = 0;
        for i in 0..n {
            // Convergence-based skipping: a node whose residual is small
            // relative to the current convergence scale keeps its stale
            // rank this round.
            if should_skip(s.residual[i] / s.scale.max(1e-300), lvl_u, SKIP_STEP) {
                w += 1; // the threshold test itself
                continue;
            }
            let mut sum = 0.0;
            for &src in &g.in_edges[i] {
                sum += s.contrib[src];
            }
            let new_rank = (1.0 - DAMPING) * g.uniform + DAMPING * sum;
            s.residual[i] = (new_rank - s.rank[i]).abs();
            s.rank[i] = new_rank;
            w += g.in_edges[i].len() as u64 + 3;
        }
        counter.add(w);
        log.record(iter, BLOCK_UPDATE, w);

        // --- Block 2: residual_norm (perforation over nodes) ------------
        let lvl_n = cfg.level(BLOCK_NORM);
        let mut norm = 0.0;
        let mut sampled = 0u64;
        let mut w: u64 = 0;
        for i in perforated_indices(n, lvl_n) {
            norm += s.residual[i];
            sampled += 1;
            w += 2;
        }
        // Rescale the sampled sum to a mean over all nodes.
        let mean_residual = if sampled == 0 {
            0.0
        } else {
            norm / sampled as f64
        };
        s.scale = mean_residual;
        counter.add(w);
        log.record(iter, BLOCK_NORM, w);

        // Trajectory average: the observable the kernel reports.
        for (avg, r) in s.avg_rank.iter_mut().zip(s.rank.iter()) {
            *avg += r;
        }
        counter.add(2);
        s.converged = iter + 1 >= MIN_ITERS && mean_residual < TOL;
        counter.total()
    }

    fn finish(&self, _: &Graph, s: State, iters: u64) -> Vec<f64> {
        let mut avg_rank = s.avg_rank;
        for avg in avg_rank.iter_mut() {
            *avg /= iters as f64;
        }
        avg_rank
    }
}

impl ApproxApp for PageRank {
    fn meta(&self) -> &opprox_approx_rt::app::AppMeta {
        &self.meta
    }

    opprox_approx_rt::forward_to_driver!();

    fn qos_degradation(&self, exact: &RunResult, approx: &RunResult) -> f64 {
        // Relative rank error scaled by the uniform rank 1/n: per-node
        // ranks live at the 1/n scale, so the default unit floor of
        // relative distortion would flatten every error to ~0.
        let n = exact.output.len().min(approx.output.len());
        if n == 0 {
            return 0.0;
        }
        let uniform = 1.0 / n as f64;
        let sum: f64 = exact
            .output
            .iter()
            .zip(approx.output.iter())
            .map(|(e, a)| (a - e).abs() / e.abs().max(uniform))
            .sum();
        (100.0 * sum / n as f64).min(opprox_approx_rt::qos::QOS_SATURATION)
    }

    fn representative_inputs(&self) -> Vec<InputParams> {
        let mut out = Vec::new();
        for &nodes in &[48.0, 64.0] {
            for &degree in &[3.0, 4.0] {
                for &steps in &[60.0, 90.0] {
                    out.push(InputParams::new(vec![nodes, degree, steps]));
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
        InputParams::new(vec![48.0, 4.0, 60.0])
    }

    #[test]
    fn golden_run_is_deterministic() {
        let app = PageRank::new();
        let a = app.golden(&input()).unwrap();
        let b = app.golden(&input()).unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(a.work, b.work);
        assert_eq!(a.outer_iters, b.outer_iters);
    }

    #[test]
    fn ranks_form_a_probability_distribution() {
        let app = PageRank::new();
        let g = app.golden(&input()).unwrap();
        assert_eq!(g.output.len(), 48);
        let total: f64 = g.output.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "ranks sum to {total}");
        assert!(g.output.iter().all(|r| *r > 0.0 && r.is_finite()));
    }

    #[test]
    fn task_skipping_reduces_work_and_perturbs_ranks() {
        let app = PageRank::new();
        let g = app.golden(&input()).unwrap();
        let a = app
            .run(
                &input(),
                &PhaseSchedule::constant(LevelConfig::new(vec![0, 5, 0])),
            )
            .unwrap();
        assert!(a.work < g.work, "skipping saved no work");
        assert!(app.qos_degradation(&g, &a) > 0.0);
    }

    #[test]
    fn precision_scaling_reduces_work() {
        let app = PageRank::new();
        let g = app.golden(&input()).unwrap();
        let a = app
            .run(
                &input(),
                &PhaseSchedule::constant(LevelConfig::new(vec![5, 0, 0])),
            )
            .unwrap();
        // Per-iteration contrib work must shrink even if the convergence
        // exit fires at a different iteration.
        let g_per = g.log.work_of_block(BLOCK_CONTRIB) as f64 / g.outer_iters as f64;
        let a_per = a.log.work_of_block(BLOCK_CONTRIB) as f64 / a.outer_iters as f64;
        assert!(a_per < g_per);
    }

    #[test]
    fn early_phase_error_exceeds_late_phase_error() {
        let app = PageRank::new();
        let g = app.golden(&input()).unwrap();
        let cfg = LevelConfig::new(vec![4, 4, 0]);
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
        let app = PageRank::new();
        assert!(app.golden(&InputParams::new(vec![4.0, 4.0, 60.0])).is_err());
        assert!(app
            .golden(&InputParams::new(vec![48.0, 1.0, 60.0]))
            .is_err());
        assert!(app.golden(&InputParams::new(vec![48.0, 4.0, 0.0])).is_err());
        assert!(app.golden(&InputParams::new(vec![48.0])).is_err());
    }
}
