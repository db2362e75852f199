//! Shared experiment drivers used by the per-figure bench targets.

use opprox_approx_rt::config::sample_configs;
use opprox_approx_rt::{run_with_timeout, ApproxApp, InputParams, LevelConfig, PhaseSchedule};
use opprox_core::error::OpproxError;

/// One point of a phase-probe series: a configuration applied to a single
/// phase (or the whole run), with its measured effects.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasePoint {
    /// Phase index, or `None` for the whole-run ("All") column.
    pub phase: Option<usize>,
    /// The probed configuration.
    pub config: LevelConfig,
    /// Measured speedup (work ratio).
    pub speedup: f64,
    /// Measured QoS degradation.
    pub qos: f64,
    /// Measured outer-loop iterations.
    pub outer_iters: u64,
}

/// Runs the paper's phase-characterization protocol (Figs. 4/5/9/10):
/// for every phase, apply each probe configuration to that phase only
/// (everything else accurate), and finally to the whole run.
///
/// # Errors
///
/// Propagates application runtime errors.
pub fn phase_probe_series(
    app: &dyn ApproxApp,
    input: &InputParams,
    num_phases: usize,
    probes: &[LevelConfig],
) -> Result<Vec<PhasePoint>, OpproxError> {
    phase_probe_series_with(app, input, num_phases, probes, None)
}

/// [`phase_probe_series`] with an optional per-execution wall-clock
/// budget. A probe series runs `num_phases × probes + probes + 1`
/// application executions back to back; without a budget a single
/// misbehaving execution used to stall the whole bench run. With
/// `timeout_ms` set, every execution — the golden included — goes through
/// [`run_with_timeout`] and a slow one surfaces as a typed
/// [`RuntimeError::Timeout`](opprox_approx_rt::RuntimeError::Timeout)
/// instead.
///
/// # Errors
///
/// Propagates application runtime errors, including timeouts.
pub fn phase_probe_series_with(
    app: &dyn ApproxApp,
    input: &InputParams,
    num_phases: usize,
    probes: &[LevelConfig],
    timeout_ms: Option<u64>,
) -> Result<Vec<PhasePoint>, OpproxError> {
    let execute = |schedule: &PhaseSchedule| match timeout_ms {
        Some(budget) => run_with_timeout(budget, || app.run(input, schedule)),
        None => app.run(input, schedule),
    };
    let golden = execute(&PhaseSchedule::accurate(app.meta().num_blocks()))?;
    let mut out = Vec::new();
    for phase in 0..num_phases {
        for config in probes {
            let schedule =
                PhaseSchedule::single_phase(config.clone(), phase, num_phases, golden.outer_iters)?;
            let result = execute(&schedule)?;
            out.push(PhasePoint {
                phase: Some(phase),
                config: config.clone(),
                speedup: golden.speedup_over(&result),
                qos: app.qos_degradation(&golden, &result),
                outer_iters: result.outer_iters,
            });
        }
    }
    for config in probes {
        let result = execute(&PhaseSchedule::constant(config.clone()))?;
        out.push(PhasePoint {
            phase: None,
            config: config.clone(),
            speedup: golden.speedup_over(&result),
            qos: app.qos_degradation(&golden, &result),
            outer_iters: result.outer_iters,
        });
    }
    Ok(out)
}

/// Default probe configurations for an application: a deterministic
/// sparse sample of its level space.
pub fn default_probes(app: &dyn ApproxApp, count: usize, seed: u64) -> Vec<LevelConfig> {
    sample_configs(&app.meta().blocks, count, seed)
}

/// Summary statistics of a phase-probe series for one phase column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSummary {
    /// Mean QoS degradation across probes.
    pub mean_qos: f64,
    /// Maximum QoS degradation across probes.
    pub max_qos: f64,
    /// Mean speedup across probes.
    pub mean_speedup: f64,
}

/// Aggregates a probe series per phase column.
pub fn summarize(points: &[PhasePoint], phase: Option<usize>) -> PhaseSummary {
    let sel: Vec<&PhasePoint> = points.iter().filter(|p| p.phase == phase).collect();
    if sel.is_empty() {
        return PhaseSummary {
            mean_qos: 0.0,
            max_qos: 0.0,
            mean_speedup: 1.0,
        };
    }
    let n = sel.len() as f64;
    PhaseSummary {
        mean_qos: sel.iter().map(|p| p.qos).sum::<f64>() / n,
        max_qos: sel.iter().map(|p| p.qos).fold(0.0, f64::max),
        mean_speedup: sel.iter().map(|p| p.speedup).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opprox_apps::Pso;

    #[test]
    fn probe_series_covers_all_phases_and_whole_run() {
        let app = Pso::new();
        let input = InputParams::new(vec![16.0, 3.0]);
        let probes = default_probes(&app, 2, 9);
        let pts = phase_probe_series(&app, &input, 3, &probes).unwrap();
        assert_eq!(pts.len(), 3 * 2 + 2);
        for ph in 0..3 {
            assert_eq!(pts.iter().filter(|p| p.phase == Some(ph)).count(), 2);
        }
        assert_eq!(pts.iter().filter(|p| p.phase.is_none()).count(), 2);
    }

    #[test]
    fn summaries_aggregate_per_column() {
        let app = Pso::new();
        let input = InputParams::new(vec![16.0, 3.0]);
        let probes = default_probes(&app, 3, 9);
        let pts = phase_probe_series(&app, &input, 2, &probes).unwrap();
        let s0 = summarize(&pts, Some(0));
        let s1 = summarize(&pts, Some(1));
        assert!(s0.mean_qos >= 0.0 && s1.mean_qos >= 0.0);
        assert!(s0.max_qos >= s0.mean_qos);
        // Early phase should degrade QoS more on average.
        assert!(s0.mean_qos >= s1.mean_qos);
    }

    /// Regression: the probe runner used to drive `app.run` directly with
    /// no time budget, so one stalled execution hung the entire bench
    /// target. A slow fixture app must now be cut off with a typed
    /// timeout, and the same series must pass under a generous budget.
    #[test]
    fn probe_runner_cuts_off_slow_apps() {
        use opprox_approx_rt::RuntimeError;
        use opprox_testutil::chaos::SlowApp;

        let app = SlowApp::new(Pso::new(), 25);
        let input = InputParams::new(vec![10.0, 2.0]);
        let probes = default_probes(&app, 1, 9);
        let err = phase_probe_series_with(&app, &input, 2, &probes, Some(1)).unwrap_err();
        assert!(
            matches!(
                err,
                OpproxError::Runtime(RuntimeError::Timeout { budget_ms: 1, .. })
            ),
            "expected a typed timeout, got {err}"
        );

        let pts = phase_probe_series_with(&app, &input, 2, &probes, Some(60_000))
            .expect("generous budget passes");
        assert_eq!(pts.len(), 2 + 1, "two phase points plus the All column");
    }

    #[test]
    fn empty_selection_yields_neutral_summary() {
        let s = summarize(&[], Some(0));
        assert_eq!(s.mean_speedup, 1.0);
        assert_eq!(s.mean_qos, 0.0);
    }
}
