//! Phase-granularity search (paper Sec. 3.5, Algorithm 1).
//!
//! OPPROX decides how many logical phases to divide the outer loop into:
//! starting from `N = 2`, it doubles the phase count while the *maximum
//! difference between the mean QoS degradations of approximations applied
//! to consecutive phases* keeps changing by more than a user threshold.
//! A large `N` captures phase behaviour at a finer grain but grows the
//! search space (and training time) exponentially, so the search stops as
//! soon as refining stops revealing new structure.

use crate::error::OpproxError;
use crate::evaluator::EvalEngine;
use opprox_approx_rt::config::sample_configs;
use opprox_approx_rt::{ApproxApp, InputParams, PhaseSchedule};

/// Options for [`find_phase_granularity`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSearchOptions {
    /// Sensitivity threshold on the change of the max consecutive-phase
    /// QoS difference (same unit as the QoS metric).
    pub threshold: f64,
    /// Upper bound on the number of phases (the paper explored up to 8).
    pub max_phases: usize,
    /// Number of probe configurations per phase.
    pub probe_configs: usize,
    /// RNG seed for the probe configurations.
    pub seed: u64,
}

impl Default for PhaseSearchOptions {
    fn default() -> Self {
        PhaseSearchOptions {
            threshold: 5.0,
            max_phases: 8,
            probe_configs: 6,
            seed: 0x9A5E,
        }
    }
}

/// The paper's `getMaxQoSDiff` helper: runs the application with `n`
/// phases, approximating one phase at a time with several probe settings,
/// and returns the maximum difference between the mean QoS degradations
/// of consecutive phases.
///
/// # Errors
///
/// Propagates application runtime errors.
pub fn max_qos_diff(
    app: &dyn ApproxApp,
    input: &InputParams,
    n: usize,
    opts: &PhaseSearchOptions,
) -> Result<f64, OpproxError> {
    max_qos_diff_with(&EvalEngine::default(), app, input, n, opts)
}

/// [`max_qos_diff`] on a shared [`EvalEngine`]: all probe executions run
/// as one parallel batch, and probes repeated across granularities (the
/// doubling loop re-probes the same configurations at each `N`) come out
/// of the execution cache.
///
/// # Errors
///
/// Propagates application runtime errors.
pub(crate) fn max_qos_diff_with(
    engine: &EvalEngine,
    app: &dyn ApproxApp,
    input: &InputParams,
    n: usize,
    opts: &PhaseSearchOptions,
) -> Result<f64, OpproxError> {
    let golden = engine.golden(app, input)?;
    let blocks = &app.meta().blocks;
    let probes = sample_configs(blocks, opts.probe_configs, opts.seed);
    let mut jobs = Vec::with_capacity(n * probes.len());
    for phase in 0..n {
        for config in &probes {
            let schedule =
                PhaseSchedule::single_phase(config.clone(), phase, n, golden.outer_iters)?;
            jobs.push((input.clone(), schedule));
        }
    }
    let results = engine.run_batch(app, &jobs)?;
    let phase_means: Vec<f64> = results
        .chunks(probes.len().max(1))
        .map(|chunk| {
            chunk
                .iter()
                .map(|r| app.qos_degradation(&golden, r))
                .sum::<f64>()
                / probes.len().max(1) as f64
        })
        .collect();
    Ok(phase_means
        .windows(2)
        .map(|w| (w[0] - w[1]).abs())
        .fold(0.0, f64::max))
}

/// Algorithm 1: finds the appropriate number of phases for `app` on the
/// given input.
///
/// # Errors
///
/// Propagates application runtime errors.
pub fn find_phase_granularity(
    app: &dyn ApproxApp,
    input: &InputParams,
    opts: &PhaseSearchOptions,
) -> Result<usize, OpproxError> {
    find_phase_granularity_with(&EvalEngine::default(), app, input, opts)
}

/// Algorithm 1 on a shared [`EvalEngine`].
///
/// # Errors
///
/// Propagates application runtime errors.
pub fn find_phase_granularity_with(
    engine: &EvalEngine,
    app: &dyn ApproxApp,
    input: &InputParams,
    opts: &PhaseSearchOptions,
) -> Result<usize, OpproxError> {
    // Each doubling iteration of Algorithm 1 is its own telemetry span, so
    // traces show how far the search refined and where its time went.
    let probe = |n: usize| {
        engine.telemetry().span(&format!("granularity/n[{n}]"), || {
            max_qos_diff_with(engine, app, input, n, opts)
        })
    };
    engine.stage("granularity", || {
        let mut n = 2usize;
        let mut max_diff_prev = probe(n)?;
        loop {
            let new_n = n * 2;
            if new_n > opts.max_phases {
                return Ok(n);
            }
            let max_diff_new = probe(new_n)?;
            engine.telemetry().event(
                "granularity.step",
                &[("n", new_n as f64), ("max_diff", max_diff_new)],
            );
            if (max_diff_prev - max_diff_new).abs() > opts.threshold {
                n = new_n;
                max_diff_prev = max_diff_new;
            } else {
                return Ok(n);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use opprox_apps::Pso;

    fn opts() -> PhaseSearchOptions {
        PhaseSearchOptions {
            threshold: 5.0,
            max_phases: 8,
            probe_configs: 3,
            seed: 7,
        }
    }

    #[test]
    fn max_qos_diff_is_nonnegative_and_finite() {
        let app = Pso::new();
        let input = InputParams::new(vec![16.0, 3.0]);
        let d = max_qos_diff(&app, &input, 2, &opts()).unwrap();
        assert!(d >= 0.0);
        assert!(d.is_finite());
    }

    #[test]
    fn phase_sensitive_app_wants_more_than_one_phase() {
        let app = Pso::new();
        let input = InputParams::new(vec![16.0, 3.0]);
        let n = find_phase_granularity(&app, &input, &opts()).unwrap();
        assert!(n >= 2);
        assert!(n <= 8);
        assert!(n.is_power_of_two());
    }

    #[test]
    fn huge_threshold_stops_at_two_phases() {
        let app = Pso::new();
        let input = InputParams::new(vec![16.0, 3.0]);
        let big = PhaseSearchOptions {
            threshold: 1e12,
            ..opts()
        };
        assert_eq!(find_phase_granularity(&app, &input, &big).unwrap(), 2);
    }

    #[test]
    fn max_phases_caps_the_search() {
        let app = Pso::new();
        let input = InputParams::new(vec![16.0, 3.0]);
        let capped = PhaseSearchOptions {
            threshold: 0.0,
            max_phases: 4,
            ..opts()
        };
        let n = find_phase_granularity(&app, &input, &capped).unwrap();
        assert!(n <= 4);
    }
}
