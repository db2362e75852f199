//! Phase schedules: per-phase approximation-level assignments.
//!
//! The paper divides the outer loop's `I` iterations into `N` phases of
//! approximately `I/N` iterations each, with the remainder added to the
//! final phase (footnote 2). Because `I` can itself depend on the
//! approximation (e.g. LULESH's convergence loop), the schedule carries an
//! *expected* iteration count — measured from the accurate run — and maps
//! every iteration at or beyond the expected end into the final phase.

use crate::config::LevelConfig;
use crate::error::RuntimeError;
use serde::{Deserialize, Serialize};

/// A per-phase assignment of approximation levels.
///
/// # Example
///
/// ```
/// use opprox_approx_rt::{LevelConfig, PhaseSchedule};
///
/// // Two blocks, four phases: approximate only in the last phase.
/// let accurate = LevelConfig::accurate(2);
/// let hot = LevelConfig::new(vec![3, 1]);
/// let sched = PhaseSchedule::new(
///     vec![accurate.clone(), accurate.clone(), accurate.clone(), hot.clone()],
///     100,
/// ).unwrap();
/// assert_eq!(sched.phase_of(10), 0);
/// assert_eq!(sched.phase_of(99), 3);
/// assert_eq!(sched.config_at(80), &hot);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSchedule {
    configs: Vec<LevelConfig>,
    expected_iters: u64,
}

impl PhaseSchedule {
    /// Creates a schedule from one configuration per phase.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidSchedule`] when `configs` is empty,
    /// the configs disagree on block count, or `expected_iters == 0`.
    pub fn new(configs: Vec<LevelConfig>, expected_iters: u64) -> Result<Self, RuntimeError> {
        if configs.is_empty() {
            return Err(RuntimeError::InvalidSchedule(
                "a schedule needs at least one phase".into(),
            ));
        }
        if expected_iters == 0 {
            return Err(RuntimeError::InvalidSchedule(
                "expected iteration count must be positive".into(),
            ));
        }
        let nb = configs[0].num_blocks();
        if configs.iter().any(|c| c.num_blocks() != nb) {
            return Err(RuntimeError::InvalidSchedule(
                "all phase configs must cover the same blocks".into(),
            ));
        }
        Ok(PhaseSchedule {
            configs,
            expected_iters,
        })
    }

    /// The fully accurate single-phase schedule for `num_blocks` blocks.
    pub fn accurate(num_blocks: usize) -> Self {
        PhaseSchedule {
            configs: vec![LevelConfig::accurate(num_blocks)],
            expected_iters: 1,
        }
    }

    /// A phase-agnostic schedule applying `config` to the whole execution
    /// (what the prior-work baseline does).
    pub fn constant(config: LevelConfig) -> Self {
        PhaseSchedule {
            configs: vec![config],
            expected_iters: 1,
        }
    }

    /// A schedule with `num_phases` phases that applies `config` only in
    /// phase `phase` and runs every other phase accurately — the probe
    /// the paper uses to characterize phase-specific behaviour.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidSchedule`] when `phase >= num_phases`
    /// or the other [`PhaseSchedule::new`] conditions fail.
    pub fn single_phase(
        config: LevelConfig,
        phase: usize,
        num_phases: usize,
        expected_iters: u64,
    ) -> Result<Self, RuntimeError> {
        if phase >= num_phases {
            return Err(RuntimeError::InvalidSchedule(format!(
                "phase {phase} out of range for {num_phases} phases"
            )));
        }
        let nb = config.num_blocks();
        let configs = (0..num_phases)
            .map(|p| {
                if p == phase {
                    config.clone()
                } else {
                    LevelConfig::accurate(nb)
                }
            })
            .collect();
        PhaseSchedule::new(configs, expected_iters)
    }

    /// Number of phases.
    pub fn num_phases(&self) -> usize {
        self.configs.len()
    }

    /// Number of blocks each phase config covers.
    pub fn num_blocks(&self) -> usize {
        self.configs[0].num_blocks()
    }

    /// The expected (accurate-run) outer-loop iteration count.
    pub fn expected_iters(&self) -> u64 {
        self.expected_iters
    }

    /// The per-phase configurations, in phase order.
    pub fn configs(&self) -> &[LevelConfig] {
        &self.configs
    }

    /// Maps an outer-loop iteration index to its phase.
    ///
    /// Phases have `⌊expected/N⌋` iterations each; the remainder — and any
    /// iterations beyond the expected count — belong to the final phase.
    pub fn phase_of(&self, iter: u64) -> usize {
        let n = self.configs.len() as u64;
        ((iter / self.phase_len()).min(n - 1)) as usize
    }

    /// Iterations per phase before the final one: `⌊expected/N⌋`, at
    /// least one.
    fn phase_len(&self) -> u64 {
        (self.expected_iters / self.configs.len() as u64).max(1)
    }

    /// The first iteration of phase `phase`: `phase_of(i) >= phase` holds
    /// exactly when `i >= phase_start(phase)`. A phase past the last never
    /// starts and maps to `u64::MAX`.
    pub fn phase_start(&self, phase: usize) -> u64 {
        if phase >= self.configs.len() {
            return u64::MAX;
        }
        phase as u64 * self.phase_len()
    }

    /// Number of leading iterations that run fully accurate: the start of
    /// the first approximated phase, or `u64::MAX` for an accurate
    /// schedule. Those iterations replay the golden run exactly, which is
    /// what lets a run resume from a golden-run checkpoint.
    pub fn accurate_prefix(&self) -> u64 {
        self.configs
            .iter()
            .position(|c| !c.is_accurate())
            .map_or(u64::MAX, |p| self.phase_start(p))
    }

    /// The level configuration in force at iteration `iter`.
    pub fn config_at(&self, iter: u64) -> &LevelConfig {
        &self.configs[self.phase_of(iter)]
    }

    /// The level of `block` at iteration `iter` — the runtime call that
    /// replaces the paper's per-phase environment variables.
    pub fn level_at(&self, iter: u64, block: usize) -> u8 {
        self.config_at(iter).level(block)
    }

    /// Whether the whole schedule is accurate (no approximation anywhere).
    pub fn is_accurate(&self) -> bool {
        self.configs.iter().all(LevelConfig::is_accurate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_shape() {
        assert!(PhaseSchedule::new(vec![], 10).is_err());
        assert!(PhaseSchedule::new(vec![LevelConfig::accurate(2)], 0).is_err());
        assert!(
            PhaseSchedule::new(vec![LevelConfig::accurate(2), LevelConfig::accurate(3)], 10)
                .is_err()
        );
    }

    #[test]
    fn phases_partition_expected_iterations() {
        let cfgs = vec![LevelConfig::accurate(1); 4];
        let s = PhaseSchedule::new(cfgs, 10).unwrap();
        // base = 2; phases: [0,1] [2,3] [4,5] [6..] with remainder to last.
        let phases: Vec<usize> = (0..10).map(|i| s.phase_of(i)).collect();
        assert_eq!(phases, vec![0, 0, 1, 1, 2, 2, 3, 3, 3, 3]);
        // Beyond expected end stays in the final phase.
        assert_eq!(s.phase_of(500), 3);
    }

    #[test]
    fn iterations_at_and_beyond_expected_end_map_to_final_phase() {
        // The expected count came from the *accurate* run; an approximate
        // run can converge later, so every overshoot iteration must stay
        // in the last phase rather than index out of range.
        let s = PhaseSchedule::new(vec![LevelConfig::accurate(1); 3], 9).unwrap();
        assert_eq!(s.phase_of(8), 2); // last expected iteration
        assert_eq!(s.phase_of(9), 2); // exactly the expected count
        assert_eq!(s.phase_of(10), 2); // one past
        assert_eq!(s.phase_of(u64::MAX), 2); // arbitrarily far past
    }

    #[test]
    fn single_phase_schedule_accepts_any_iteration() {
        let s = PhaseSchedule::new(vec![LevelConfig::accurate(2)], 7).unwrap();
        for iter in [0, 6, 7, 8, 1_000_000, u64::MAX] {
            assert_eq!(s.phase_of(iter), 0, "iteration {iter}");
        }
    }

    #[test]
    fn divisible_iterations_split_evenly() {
        let cfgs = vec![LevelConfig::accurate(1); 4];
        let s = PhaseSchedule::new(cfgs, 8).unwrap();
        let counts: Vec<usize> = (0..4)
            .map(|p| (0..8).filter(|&i| s.phase_of(i) == p).count())
            .collect();
        assert_eq!(counts, vec![2, 2, 2, 2]);
    }

    #[test]
    fn fewer_iterations_than_phases_collapse_sanely() {
        let cfgs = vec![LevelConfig::accurate(1); 8];
        let s = PhaseSchedule::new(cfgs, 3).unwrap();
        // base clamps to 1: iterations 0,1,2 -> phases 0,1,2.
        assert_eq!(s.phase_of(0), 0);
        assert_eq!(s.phase_of(2), 2);
        assert_eq!(s.phase_of(7), 7);
        assert_eq!(s.phase_of(100), 7);
    }

    #[test]
    fn single_phase_probe_is_accurate_elsewhere() {
        let hot = LevelConfig::new(vec![2, 3]);
        let s = PhaseSchedule::single_phase(hot.clone(), 1, 4, 100).unwrap();
        assert_eq!(s.num_phases(), 4);
        assert!(s.config_at(10).is_accurate()); // phase 0
        assert_eq!(s.config_at(30), &hot); // phase 1
        assert!(s.config_at(60).is_accurate()); // phase 2
        assert!(s.config_at(99).is_accurate()); // phase 3
        assert!(PhaseSchedule::single_phase(hot, 4, 4, 100).is_err());
    }

    #[test]
    fn constant_schedule_applies_everywhere() {
        let cfg = LevelConfig::new(vec![1]);
        let s = PhaseSchedule::constant(cfg.clone());
        assert_eq!(s.config_at(0), &cfg);
        assert_eq!(s.config_at(12345), &cfg);
        assert!(!s.is_accurate());
    }

    #[test]
    fn accurate_schedule_reports_accurate() {
        let s = PhaseSchedule::accurate(4);
        assert!(s.is_accurate());
        assert_eq!(s.level_at(9, 3), 0);
    }
}
