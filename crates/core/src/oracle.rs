//! The phase-agnostic exhaustive-search baseline (paper Sec. 5.3).
//!
//! Prior work (ref. 43, Sidiroglou-Douskos et al.; ref. 44, Sui et al.) is
//! idealized as an *oracle* that exhaustively tries every approximation
//! configuration, applies it to the **whole execution**, measures the
//! actual speedup and QoS degradation, and keeps the fastest configuration
//! within the budget. It is an upper bound on what any phase-agnostic
//! technique can achieve — and exactly what OPPROX's phase-aware search is
//! compared against in Fig. 14.

use crate::error::OpproxError;
use crate::evaluator::EvalEngine;
use crate::spec::AccuracySpec;
use opprox_approx_rt::config::{config_space_size, enumerate_configs, sample_configs};
use opprox_approx_rt::{ApproxApp, InputParams, LevelConfig, PhaseSchedule};
use serde::{Deserialize, Serialize};

/// Cap on the number of whole-program configurations the oracle will
/// actually execute; beyond it a deterministic random subset is used.
pub(crate) const ORACLE_RUN_LIMIT: usize = 4000;

/// The oracle's result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleResult {
    /// The best configuration found (`None` if nothing fit the budget).
    pub config: Option<LevelConfig>,
    /// Measured speedup of the best configuration (1.0 when none fit).
    pub speedup: f64,
    /// Measured QoS degradation of the best configuration (0.0 when none
    /// fit).
    pub qos: f64,
    /// How many configurations were executed.
    pub evaluated: usize,
}

/// Runs the phase-agnostic exhaustive oracle for one input and budget.
///
/// # Errors
///
/// Propagates application runtime errors.
pub fn phase_agnostic_oracle(
    app: &dyn ApproxApp,
    input: &InputParams,
    spec: &AccuracySpec,
) -> Result<OracleResult, OpproxError> {
    phase_agnostic_oracle_with(&EvalEngine::default(), app, input, spec)
}

/// [`phase_agnostic_oracle`] on a shared [`EvalEngine`]: the sweep runs as
/// one parallel batch, and sharing the engine across budgets (or with a
/// prior training run) turns repeated configurations into cache hits
/// instead of executions.
///
/// The winner scan walks results in submission order with a
/// strictly-greater speedup test, so the reported configuration is the
/// same one the sequential oracle would pick regardless of thread count.
///
/// # Errors
///
/// Propagates application runtime errors.
pub fn phase_agnostic_oracle_with(
    engine: &EvalEngine,
    app: &dyn ApproxApp,
    input: &InputParams,
    spec: &AccuracySpec,
) -> Result<OracleResult, OpproxError> {
    engine.stage("oracle", || {
        let blocks = &app.meta().blocks;
        let golden = engine.golden(app, input)?;

        let configs: Vec<LevelConfig> = if config_space_size(blocks) as usize <= ORACLE_RUN_LIMIT {
            enumerate_configs(blocks)
                .filter(|c| !c.is_accurate())
                .collect()
        } else {
            sample_configs(blocks, ORACLE_RUN_LIMIT, 0x0AC1E)
        };

        let jobs: Vec<(InputParams, PhaseSchedule)> = configs
            .iter()
            .map(|config| (input.clone(), PhaseSchedule::constant(config.clone())))
            .collect();
        let results = engine.run_batch(app, &jobs)?;

        let mut best: Option<(LevelConfig, f64, f64)> = None;
        let evaluated = results.len();
        for (config, result) in configs.into_iter().zip(results.iter()) {
            let speedup = golden.speedup_over(result);
            let qos = app.qos_degradation(&golden, result);
            if qos <= spec.error_budget() && speedup > 1.0 {
                let better = best.as_ref().is_none_or(|(_, s, _)| speedup > *s);
                if better {
                    best = Some((config, speedup, qos));
                }
            }
        }

        // Re-measure the winner through the engine: a guaranteed cache
        // hit that double-checks the cached result is still reachable.
        if let Some((config, _, _)) = &best {
            engine.run(app, input, &PhaseSchedule::constant(config.clone()))?;
        }

        Ok(match best {
            Some((config, speedup, qos)) => OracleResult {
                config: Some(config),
                speedup,
                qos,
                evaluated,
            },
            None => OracleResult {
                config: None,
                speedup: 1.0,
                qos: 0.0,
                evaluated,
            },
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use opprox_apps::Pso;

    #[test]
    fn oracle_result_respects_budget() {
        let app = Pso::new();
        let input = InputParams::new(vec![16.0, 3.0]);
        let spec = AccuracySpec::new(30.0);
        let r = phase_agnostic_oracle(&app, &input, &spec).unwrap();
        assert!(r.evaluated > 0);
        if r.config.is_some() {
            assert!(r.qos <= 30.0);
            assert!(r.speedup > 1.0);
        }
    }

    #[test]
    fn zero_budget_finds_nothing() {
        let app = Pso::new();
        let input = InputParams::new(vec![16.0, 3.0]);
        let r = phase_agnostic_oracle(&app, &input, &AccuracySpec::new(0.0)).unwrap();
        assert!(r.config.is_none());
        assert_eq!(r.speedup, 1.0);
    }

    #[test]
    fn bigger_budget_is_no_worse() {
        let app = Pso::new();
        let input = InputParams::new(vec![16.0, 3.0]);
        let small = phase_agnostic_oracle(&app, &input, &AccuracySpec::new(10.0)).unwrap();
        let large = phase_agnostic_oracle(&app, &input, &AccuracySpec::new(50.0)).unwrap();
        assert!(large.speedup >= small.speedup);
    }
}
