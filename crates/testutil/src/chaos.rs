//! The chaos-scenario DSL.
//!
//! A [`ChaosScenario`] is a compact, chainable description of one
//! fault-injection experiment: which fault classes fire at what rates,
//! how the engine recovers (retries, timeout budget), and how many
//! worker threads run it. Suites build a scenario, call
//! [`ChaosScenario::engine`], and drive the ordinary training/optimize
//! entry points through the returned engine — fault injection happens
//! inside the evaluator, so the application code under test is the real
//! thing.
//!
//! The module also carries the fixture apps chaos suites need ([`SlowApp`]
//! stalls every run to trip real wall-clock budgets) and the panic-noise
//! filter that [`ChaosScenario::engine`] installs to keep intentionally
//! injected worker panics out of the test log.

use opprox_approx_rt::app::AppMeta;
use opprox_approx_rt::{ApproxApp, InputParams, PhaseSchedule, RunResult, RuntimeError};
use opprox_core::evaluator::EvalEngine;
use opprox_core::{FaultPlan, RecoveryPolicy};

/// Installs a process-wide panic hook that suppresses intentionally
/// injected panics (payloads containing `"injected fault"`) while
/// forwarding every other panic to the default hook.
///
/// Idempotent; [`ChaosScenario::engine`] calls it automatically, so
/// suites only need it directly when they inject panics by hand.
pub(crate) fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected fault"))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains("injected fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

/// The four injectable fault classes, one per failure mode the recovery
/// layer must degrade (not abort) under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// The app run panics mid-execution.
    Panic,
    /// The app run exceeds its (synthetic) time budget.
    Timeout,
    /// The app run returns NaN/∞ QoS output.
    NonFiniteQos,
    /// The result is corrupted at the cache-insert boundary.
    PoisonedCache,
}

impl FaultClass {
    /// Every fault class, for matrix-style suites.
    pub(crate) const ALL: [FaultClass; 4] = [
        FaultClass::Panic,
        FaultClass::Timeout,
        FaultClass::NonFiniteQos,
        FaultClass::PoisonedCache,
    ];

    /// A short, stable label for test names and assertion messages.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::Panic => "panic",
            FaultClass::Timeout => "timeout",
            FaultClass::NonFiniteQos => "non-finite-qos",
            FaultClass::PoisonedCache => "poisoned-cache",
        }
    }

    fn apply(self, plan: FaultPlan, rate: f64) -> FaultPlan {
        match self {
            FaultClass::Panic => plan.panics(rate),
            FaultClass::Timeout => plan.timeouts(rate),
            FaultClass::NonFiniteQos => plan.non_finite(rate),
            FaultClass::PoisonedCache => plan.poisoned(rate),
        }
    }
}

/// One fault-injection experiment: a [`FaultPlan`], a [`RecoveryPolicy`],
/// and a thread count, built fluently and turned into an engine.
///
/// # Example
///
/// ```
/// use opprox_testutil::chaos::{ChaosScenario, FaultClass};
///
/// let engine = ChaosScenario::seeded(42)
///     .inject(FaultClass::Timeout, 0.2)
///     .max_retries(3)
///     .threads(4)
///     .engine();
/// assert!(engine.fault_injection_enabled());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ChaosScenario {
    plan: FaultPlan,
    policy: RecoveryPolicy,
    threads: usize,
}

impl ChaosScenario {
    /// A quiet scenario (no faults, default recovery, one thread) with
    /// the given injection seed.
    pub fn seeded(seed: u64) -> Self {
        ChaosScenario {
            plan: FaultPlan::seeded(seed),
            policy: RecoveryPolicy::default(),
            threads: 1,
        }
    }

    /// Adds one fault class at `rate` (chainable; classes compose).
    pub fn inject(mut self, class: FaultClass, rate: f64) -> Self {
        self.plan = class.apply(self.plan, rate);
        self
    }

    /// Forces the first `n` attempts of every evaluation to fail — the
    /// deterministic lever for exact failure schedules.
    pub fn fail_first_attempts(mut self, n: u32) -> Self {
        self.plan = self.plan.fail_first_attempts(n);
        self
    }

    /// Retry budget after the first failed attempt.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.policy.max_retries = n;
        self
    }

    /// Worker thread count for the engine.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Builds the evaluation engine for this scenario (and installs the
    /// injected-panic noise filter, since panic scenarios unwind through
    /// the default hook's backtrace printer otherwise).
    pub fn engine(&self) -> EvalEngine {
        silence_injected_panics();
        EvalEngine::with_faults(self.threads, self.plan, self.policy)
    }

    /// The standard chaos matrix: one scenario per fault class, each
    /// injecting only that class at `rate` under a seed derived from
    /// `seed` and the class index — so classes stay independent but the
    /// whole matrix is reproducible from one number.
    pub fn matrix(seed: u64, rate: f64) -> Vec<(FaultClass, ChaosScenario)> {
        FaultClass::ALL
            .iter()
            .enumerate()
            .map(|(i, &class)| {
                let scenario = ChaosScenario::seeded(seed ^ ((i as u64 + 1) << 32));
                (class, scenario.inject(class, rate))
            })
            .collect()
    }
}

/// Wraps an app with an artificial stall before every run, to trip real
/// wall-clock budgets ([`RecoveryPolicy::eval_timeout_ms`] and the bench
/// runner's probe timeout).
pub struct SlowApp<A> {
    inner: A,
    delay_ms: u64,
}

impl<A: ApproxApp> SlowApp<A> {
    /// Wraps `inner`, sleeping `delay_ms` at the start of every run.
    pub fn new(inner: A, delay_ms: u64) -> Self {
        SlowApp { inner, delay_ms }
    }
}

impl<A: ApproxApp> ApproxApp for SlowApp<A> {
    fn meta(&self) -> &AppMeta {
        self.inner.meta()
    }

    fn run(
        &self,
        input: &InputParams,
        schedule: &PhaseSchedule,
    ) -> Result<RunResult, RuntimeError> {
        std::thread::sleep(std::time::Duration::from_millis(self.delay_ms));
        self.inner.run(input, schedule)
    }

    fn qos_degradation(&self, exact: &RunResult, approx: &RunResult) -> f64 {
        self.inner.qos_degradation(exact, approx)
    }

    fn representative_inputs(&self) -> Vec<InputParams> {
        self.inner.representative_inputs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_compose_classes_and_policy() {
        let s = ChaosScenario::seeded(7)
            .inject(FaultClass::Panic, 0.5)
            .inject(FaultClass::PoisonedCache, 0.25)
            .max_retries(5)
            .threads(3);
        assert!(s.plan.is_active());
        assert_eq!(s.plan.seed(), 7);
        assert_eq!(s.policy.max_retries, 5);
        let engine = s.engine();
        assert!(engine.fault_injection_enabled());
        assert_eq!(engine.threads(), 3);
    }

    #[test]
    fn matrix_covers_every_class_with_distinct_seeds() {
        let matrix = ChaosScenario::matrix(0xC0FFEE, 0.3);
        assert_eq!(matrix.len(), FaultClass::ALL.len());
        let mut seeds: Vec<u64> = matrix.iter().map(|(_, s)| s.plan.seed()).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), matrix.len(), "per-class seeds must differ");
        for (class, scenario) in &matrix {
            assert!(scenario.plan.is_active(), "{} inactive", class.label());
        }
    }

    #[test]
    fn slow_app_delegates_behaviour() {
        let app = SlowApp::new(opprox_apps::Pso::new(), 0);
        let input = InputParams::new(vec![10.0, 2.0]);
        let golden = app.golden(&input).expect("golden");
        assert_eq!(app.qos_degradation(&golden, &golden), 0.0);
        assert_eq!(app.meta().name, "PSO");
        assert!(!app.representative_inputs().is_empty());
    }
}
