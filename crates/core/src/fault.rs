//! Deterministic fault injection and recovery for the evaluation pipeline.
//!
//! OPPROX's offline training phase runs thousands of real benchmark
//! executions; the paper's pipeline silently assumes every run returns a
//! finite QoS and completes. This module makes failure a first-class,
//! *enumerable* event:
//!
//! * [`FaultPlan`] — a seedable injection schedule. Every decision is a
//!   pure function of `(seed, cache-key digest, fault point, attempt)`;
//!   no wall clock, no global RNG. The same plan therefore injects the
//!   same faults in the same places across reruns and across any worker
//!   thread count.
//! * [`RecoveryPolicy`] — bounded retry with *accounted* (never slept)
//!   exponential backoff, an optional per-evaluation wall-clock budget,
//!   and quarantine of persistently failing `(input, schedule)` keys.
//! * [`RobustnessReport`] — a serializable ledger of everything injected,
//!   caught, retried, quarantined, and dropped, surfaced by
//!   `OptimizeRequest::run` and printed by the CLI. For a fixed
//!   [`FaultPlan`] the report is byte-identical across runs and thread
//!   counts (entries are kept in a canonical sort order).
//!
//! The four injectable fault classes mirror the ways a real benchmark
//! execution can go wrong: the app panics mid-run, hangs past its budget,
//! returns NaN/∞ QoS, or a corrupted result is about to poison the
//! execution cache. Failed attempts are never cached and never served;
//! see `EvalEngine` for the enforcement and `tests/loom.rs` (rule `C005`)
//! for the model-checked interleavings.

use crate::sync::Mutex;
use crate::telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Named places in the evaluation pipeline where a fault can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultPoint {
    /// During the application execution itself.
    AppRun,
    /// Between a successful execution and its insertion into the
    /// execution cache (a would-be poisoned entry).
    CacheInsert,
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPoint::AppRun => write!(f, "app-run"),
            FaultPoint::CacheInsert => write!(f, "cache-insert"),
        }
    }
}

/// How an evaluation attempt failed (injected or genuine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FailureKind {
    /// The application panicked; caught at the worker boundary.
    Panic,
    /// The attempt exceeded the per-evaluation time budget.
    Timeout,
    /// The result carried NaN or infinite QoS values.
    NonFiniteQos,
    /// The result was corrupted on the way into the execution cache and
    /// was rejected instead of stored.
    PoisonedResult,
    /// The key was already quarantined; the attempt was refused outright.
    Quarantined,
}

impl FailureKind {
    /// The telemetry counter that counts failures of this kind.
    pub(crate) fn counter(self) -> &'static str {
        match self {
            FailureKind::Panic => "fault.panic",
            FailureKind::Timeout => "fault.timeout",
            FailureKind::NonFiniteQos => "fault.non_finite",
            FailureKind::PoisonedResult => "fault.poisoned",
            FailureKind::Quarantined => "eval.quarantine.hit",
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Panic => write!(f, "panic"),
            FailureKind::Timeout => write!(f, "timeout"),
            FailureKind::NonFiniteQos => write!(f, "non-finite QoS"),
            FailureKind::PoisonedResult => write!(f, "poisoned result"),
            FailureKind::Quarantined => write!(f, "quarantined"),
        }
    }
}

/// SplitMix64 step — the same generator the vendored `rand` uses for
/// seeding, reused here as a keyed hash so injection decisions are pure
/// functions of their inputs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a hash to a unit-interval value in `[0, 1)` using the top 53 bits.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A deterministic, seedable fault-injection schedule.
///
/// Rates are probabilities in `[0, 1]` per *(evaluation key, attempt)*;
/// the decision for a given `(key, attempt)` never changes across runs or
/// thread counts. `fail_first_attempts` forces the first *n* attempts of
/// every evaluation to time out — a deterministic lever for tests that
/// need an exact failure schedule rather than a statistical one.
///
/// # Example
///
/// ```
/// use opprox_core::fault::FaultPlan;
///
/// let plan = FaultPlan::parse("seed=42,panic=0.2,timeout=0.1").unwrap();
/// let a = plan.decide(0xABCD, 0);
/// let b = plan.decide(0xABCD, 0);
/// assert_eq!(a, b); // same key + attempt → same decision, always
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    panic_rate: f64,
    timeout_rate: f64,
    nan_rate: f64,
    poison_rate: f64,
    fail_first_attempts: u32,
}

impl FaultPlan {
    /// A plan with the given seed and all rates zero.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            panic_rate: 0.0,
            timeout_rate: 0.0,
            nan_rate: 0.0,
            poison_rate: 0.0,
            fail_first_attempts: 0,
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the injected app-run panic rate (clamped to `[0, 1]`).
    pub fn panics(mut self, rate: f64) -> Self {
        self.panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the synthetic timeout rate (clamped to `[0, 1]`).
    pub fn timeouts(mut self, rate: f64) -> Self {
        self.timeout_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the NaN/∞ QoS corruption rate (clamped to `[0, 1]`).
    pub fn non_finite(mut self, rate: f64) -> Self {
        self.nan_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the poisoned-cache-entry rate (clamped to `[0, 1]`).
    pub fn poisoned(mut self, rate: f64) -> Self {
        self.poison_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Forces the first `n` attempts of every evaluation to fail with a
    /// synthetic timeout, regardless of rates.
    pub fn fail_first_attempts(mut self, n: u32) -> Self {
        self.fail_first_attempts = n;
        self
    }

    /// Whether this plan can ever inject anything.
    pub fn is_active(&self) -> bool {
        self.panic_rate > 0.0
            || self.timeout_rate > 0.0
            || self.nan_rate > 0.0
            || self.poison_rate > 0.0
            || self.fail_first_attempts > 0
    }

    /// Parses a CLI spec like `seed=42,panic=0.1,timeout=0.05,nan=0.05,
    /// poison=0.02,fail_first=1`. Every field is optional; unknown keys
    /// are rejected.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed specs.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::seeded(0);
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault-plan field `{part}` is not `key=value`"))?;
            let bad = || format!("fault-plan field `{key}` has a non-numeric value `{value}`");
            match key.trim() {
                "seed" => plan.seed = value.trim().parse::<u64>().map_err(|_| bad())?,
                "panic" => plan = plan.panics(value.trim().parse::<f64>().map_err(|_| bad())?),
                "timeout" => plan = plan.timeouts(value.trim().parse::<f64>().map_err(|_| bad())?),
                "nan" => plan = plan.non_finite(value.trim().parse::<f64>().map_err(|_| bad())?),
                "poison" => plan = plan.poisoned(value.trim().parse::<f64>().map_err(|_| bad())?),
                "fail_first" => {
                    plan = plan.fail_first_attempts(value.trim().parse::<u32>().map_err(|_| bad())?)
                }
                other => {
                    return Err(format!(
                        "unknown fault-plan field `{other}` \
                         (expected seed/panic/timeout/nan/poison/fail_first)"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// The injection decision for one attempt at the app-run fault point,
    /// plus the separate poisoning decision at the cache-insert point.
    ///
    /// Deterministic: depends only on the plan and `(key, attempt)`.
    pub fn decide(&self, key: u64, attempt: u32) -> Option<(FaultPoint, FailureKind)> {
        if attempt < self.fail_first_attempts {
            return Some((FaultPoint::AppRun, FailureKind::Timeout));
        }
        let roll = unit(splitmix64(
            self.seed ^ splitmix64(key) ^ u64::from(attempt).wrapping_mul(0xA24B_AED4_963E_E407),
        ));
        let mut edge = self.panic_rate;
        if roll < edge {
            return Some((FaultPoint::AppRun, FailureKind::Panic));
        }
        edge += self.timeout_rate;
        if roll < edge {
            return Some((FaultPoint::AppRun, FailureKind::Timeout));
        }
        edge += self.nan_rate;
        if roll < edge {
            return Some((FaultPoint::AppRun, FailureKind::NonFiniteQos));
        }
        // Poisoning fires *after* a successful execution, from an
        // independent roll at the cache-insert point.
        let poison_roll = unit(splitmix64(
            self.seed
                ^ splitmix64(key ^ 0x5851_F42D_4C95_7F2D)
                ^ u64::from(attempt).wrapping_mul(0x1405_7B7E_F767_814F),
        ));
        if poison_roll < self.poison_rate {
            return Some((FaultPoint::CacheInsert, FailureKind::PoisonedResult));
        }
        None
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} panic={} timeout={} nan={} poison={}",
            self.seed, self.panic_rate, self.timeout_rate, self.nan_rate, self.poison_rate
        )?;
        if self.fail_first_attempts > 0 {
            write!(f, " fail_first={}", self.fail_first_attempts)?;
        }
        Ok(())
    }
}

/// Bounded-retry and timeout policy for one evaluation.
///
/// Backoff is *accounted* — added to the robustness ledger as if it had
/// been slept — but never actually sleeps, so tests and model checks stay
/// fast and deterministic. An evaluation gets `1 + max_retries` attempts;
/// a key whose evaluation exhausts them is quarantined and refused
/// outright on resubmission.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Retries after the first failed attempt.
    pub max_retries: u32,
    /// Backoff accounted for retry `r` is `backoff_base_ms << r`.
    pub backoff_base_ms: u64,
    /// Per-evaluation wall-clock budget; `None` disables the real-time
    /// check (injected timeouts still fire).
    pub eval_timeout_ms: Option<u64>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            backoff_base_ms: 10,
            eval_timeout_ms: None,
        }
    }
}

impl RecoveryPolicy {
    /// Total attempts allowed per evaluation (`1 + max_retries`).
    pub(crate) fn max_attempts(&self) -> u32 {
        self.max_retries.saturating_add(1)
    }

    /// Backoff accounted for retry `retry_index` (0-based), in ms.
    pub(crate) fn backoff_ms(&self, retry_index: u32) -> u64 {
        self.backoff_base_ms
            .checked_shl(retry_index)
            .unwrap_or(u64::MAX)
    }
}

/// One injected fault, identified by the evaluation key digest it hit.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Digest of the (app, input, schedule) cache key.
    pub key: u64,
    /// Attempt index (0-based) the fault fired on.
    pub attempt: u32,
    /// Where it fired.
    pub point: FaultPoint,
    /// What was injected.
    pub kind: FailureKind,
}

/// One training sample dropped by degraded-mode collection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DroppedSample {
    /// Phase index of a dropped sweep or sparse sample; `None` for a
    /// golden.
    pub phase: Option<usize>,
    /// The approximation levels of the dropped configuration.
    pub levels: Vec<u8>,
    /// Whether this was a golden (fully accurate) run. Losing a golden
    /// drops the whole input: every QoS label depends on it.
    pub golden: bool,
    /// The terminal failure kind.
    pub kind: FailureKind,
}

impl DroppedSample {
    fn sort_key(&self) -> (u8, usize, Vec<u8>, FailureKind) {
        (
            u8::from(!self.golden),
            self.phase.map_or(usize::MAX, |p| p),
            self.levels.clone(),
            self.kind,
        )
    }
}

/// Serializable ledger of fault injection, recovery, and degradation.
///
/// For a fixed [`FaultPlan`] seed the report is **byte-identical** across
/// reruns and across worker thread counts: counters are order-independent
/// sums and the event/drop ledgers are kept in canonical sort order.
/// (Real wall-clock timeouts — `eval_timeout_ms` trips on a genuinely
/// slow app — are the one nondeterministic source, and they are excluded
/// from the determinism guarantee.)
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// The fault plan's seed, when injection was configured.
    pub fault_seed: Option<u64>,
    /// Faults injected by the plan.
    pub injected_faults: u64,
    /// Panics caught at the worker boundary (injected or genuine).
    pub panics_caught: u64,
    /// Attempts that exceeded the time budget (injected or genuine).
    pub timeouts: u64,
    /// Results rejected for NaN/∞ QoS values.
    pub non_finite_results: u64,
    /// Corrupted results rejected at the cache boundary.
    pub poisoned_rejected: u64,
    /// Retry attempts performed.
    pub retries: u64,
    /// Exponential backoff accounted across all retries, in ms.
    pub backoff_ms_accounted: u64,
    /// Evaluations that exhausted every attempt.
    pub failed_evaluations: u64,
    /// Distinct keys quarantined after a failed evaluation.
    pub quarantined_keys: u64,
    /// Resubmissions refused because the key was quarantined.
    pub quarantine_hits: u64,
    /// Pool workers that died executing a job and were respawned.
    pub worker_respawns: u64,
    /// Inputs dropped wholesale because their golden run failed.
    pub dropped_inputs: u64,
    /// Training samples requested by the sampling plan.
    pub total_samples: u64,
    /// Training samples dropped, in canonical order.
    pub dropped_samples: Vec<DroppedSample>,
    /// Every injected fault, in canonical order.
    pub events: Vec<FaultEvent>,
}

impl RobustnessReport {
    /// Fraction of requested training samples that were dropped, in
    /// `[0, 1]`. Zero when nothing was requested.
    pub fn drop_rate(&self) -> f64 {
        if self.total_samples == 0 {
            0.0
        } else {
            self.dropped_samples.len() as f64 / self.total_samples as f64
        }
    }

    /// Whether any degradation (drops, quarantines, failed evaluations,
    /// or dropped inputs) occurred.
    pub(crate) fn is_degraded(&self) -> bool {
        !self.dropped_samples.is_empty()
            || self.failed_evaluations > 0
            || self.dropped_inputs > 0
            || self.quarantined_keys > 0
    }

    /// Whether anything at all was observed (faults, retries, drops).
    pub fn has_activity(&self) -> bool {
        self.is_degraded()
            || self.injected_faults > 0
            || self.panics_caught > 0
            || self.timeouts > 0
            || self.non_finite_results > 0
            || self.poisoned_rejected > 0
            || self.retries > 0
            || self.worker_respawns > 0
    }
}

impl fmt::Display for RobustnessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "robustness:")?;
        match self.fault_seed {
            Some(seed) => writeln!(
                f,
                " fault plan seed {seed}, {} faults injected",
                self.injected_faults
            )?,
            None => writeln!(f, " no fault plan configured")?,
        }
        writeln!(
            f,
            "  {} panics caught, {} timeouts, {} non-finite results, \
             {} poisoned entries rejected",
            self.panics_caught, self.timeouts, self.non_finite_results, self.poisoned_rejected
        )?;
        writeln!(
            f,
            "  {} retries ({} ms backoff accounted), {} worker respawns",
            self.retries, self.backoff_ms_accounted, self.worker_respawns
        )?;
        writeln!(
            f,
            "  {} evaluations failed, {} keys quarantined ({} quarantine hits)",
            self.failed_evaluations, self.quarantined_keys, self.quarantine_hits
        )?;
        writeln!(
            f,
            "  dropped {}/{} training samples ({:.1}% drop rate), {} inputs",
            self.dropped_samples.len(),
            self.total_samples,
            100.0 * self.drop_rate(),
            self.dropped_inputs
        )
    }
}

/// Classifies an evaluation error as degradable (the caller can drop the
/// affected sample/candidate and continue on the rest) or fatal (the
/// request itself is wrong — bad input, bad schedule — and must abort).
pub(crate) fn degradable_kind(e: &crate::error::OpproxError) -> Option<FailureKind> {
    match e {
        crate::error::OpproxError::EvaluationFailed { kind, .. } => Some(*kind),
        crate::error::OpproxError::Quarantined { .. } => Some(FailureKind::Quarantined),
        _ => None,
    }
}

/// Shared fault-injection and recovery state carried by an `EvalEngine`:
/// only what recovery itself needs. Every count in a [`RobustnessReport`]
/// lives in the engine's telemetry registry; [`FaultState::report`]
/// reads them back.
///
/// All interior state is behind the `crate::sync` primitives so the loom
/// build can model-check the quarantine/cache protocol.
#[derive(Debug)]
pub(crate) struct FaultState {
    pub(crate) plan: Option<FaultPlan>,
    pub(crate) policy: RecoveryPolicy,
    /// Key digest → attempts exhausted; presence means quarantined.
    quarantine: Mutex<HashMap<u64, u32>>,
    events: Mutex<Vec<FaultEvent>>,
    drops: Mutex<Vec<DroppedSample>>,
}

impl FaultState {
    pub(crate) fn new(plan: Option<FaultPlan>, policy: RecoveryPolicy) -> Self {
        FaultState {
            plan,
            policy,
            quarantine: Mutex::new(HashMap::new()),
            events: Mutex::new(Vec::new()),
            drops: Mutex::new(Vec::new()),
        }
    }

    /// Records an injected fault in the event ledger.
    pub(crate) fn record_injection(&self, event: FaultEvent) {
        self.events.lock().expect("fault events lock").push(event);
    }

    /// Marks a key as quarantined after a fully failed evaluation.
    pub(crate) fn quarantine(&self, key: u64, attempts: u32) {
        self.quarantine
            .lock()
            .expect("quarantine lock")
            .insert(key, attempts);
    }

    pub(crate) fn is_quarantined(&self, key: u64) -> bool {
        self.quarantine
            .lock()
            .expect("quarantine lock")
            .contains_key(&key)
    }

    pub(crate) fn record_drop(&self, drop: DroppedSample) {
        self.drops.lock().expect("fault drops lock").push(drop);
    }

    /// Builds a canonical-order [`RobustnessReport`] from this state and
    /// the counters in `tele`.
    pub(crate) fn report(&self, tele: &Telemetry) -> RobustnessReport {
        let mut events = self.events.lock().expect("fault events lock").clone();
        events.sort();
        let mut dropped_samples: Vec<DroppedSample> =
            self.drops.lock().expect("fault drops lock").clone();
        dropped_samples.sort_by_key(DroppedSample::sort_key);
        let quarantined_keys = self.quarantine.lock().expect("quarantine lock").len() as u64;
        RobustnessReport {
            fault_seed: self.plan.as_ref().map(FaultPlan::seed),
            injected_faults: events.len() as u64,
            panics_caught: tele.counter_value(FailureKind::Panic.counter()),
            timeouts: tele.counter_value(FailureKind::Timeout.counter()),
            non_finite_results: tele.counter_value(FailureKind::NonFiniteQos.counter()),
            poisoned_rejected: tele.counter_value(FailureKind::PoisonedResult.counter()),
            retries: tele.counter_value("fault.retry"),
            backoff_ms_accounted: tele.counter_value("fault.backoff_ms"),
            failed_evaluations: tele.counter_value("eval.quarantined"),
            quarantined_keys,
            quarantine_hits: tele.counter_value(FailureKind::Quarantined.counter()),
            worker_respawns: tele.counter_value("pool.respawn"),
            dropped_inputs: dropped_samples.iter().filter(|d| d.golden).count() as u64,
            total_samples: tele.counter_value("sampling.requested"),
            dropped_samples,
            events,
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_field() {
        let plan = FaultPlan::parse("seed=42, panic=0.1,timeout=0.05,nan=0.2,poison=0.02").unwrap();
        assert_eq!(plan.seed(), 42);
        assert!(plan.is_active());
        let display = plan.to_string();
        assert!(display.contains("seed=42"), "{display}");
        assert!(display.contains("panic=0.1"), "{display}");
    }

    #[test]
    fn parse_rejects_unknown_and_malformed_fields() {
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
        assert!(FaultPlan::parse("").unwrap().seed() == 0);
        assert!(!FaultPlan::parse("seed=7").unwrap().is_active());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::seeded(9).panics(0.3).timeouts(0.2).poisoned(0.1);
        let mut decided = Vec::new();
        for key in 0..200u64 {
            for attempt in 0..3u32 {
                decided.push(plan.decide(key, attempt));
            }
        }
        let again: Vec<_> = (0..200u64)
            .flat_map(|key| (0..3u32).map(move |attempt| plan.decide(key, attempt)))
            .collect();
        assert_eq!(decided, again);
        let other = FaultPlan::seeded(10)
            .panics(0.3)
            .timeouts(0.2)
            .poisoned(0.1);
        let shifted: Vec<_> = (0..200u64)
            .flat_map(|key| (0..3u32).map(move |attempt| other.decide(key, attempt)))
            .collect();
        assert_ne!(decided, shifted, "different seeds must differ somewhere");
    }

    #[test]
    fn rates_partition_fault_kinds_roughly() {
        let plan = FaultPlan::seeded(3)
            .panics(0.25)
            .timeouts(0.25)
            .non_finite(0.25);
        let mut counts = HashMap::new();
        for key in 0..4000u64 {
            if let Some((_, kind)) = plan.decide(key, 0) {
                *counts.entry(kind).or_insert(0usize) += 1;
            }
        }
        for kind in [
            FailureKind::Panic,
            FailureKind::Timeout,
            FailureKind::NonFiniteQos,
        ] {
            let n = counts.get(&kind).copied().unwrap_or(0);
            assert!(
                (600..1400).contains(&n),
                "{kind:?} fired {n}/4000 times at rate 0.25"
            );
        }
    }

    #[test]
    fn fail_first_attempts_overrides_rates() {
        let plan = FaultPlan::seeded(1).fail_first_attempts(2);
        for key in [0u64, 77, u64::MAX] {
            assert_eq!(
                plan.decide(key, 0),
                Some((FaultPoint::AppRun, FailureKind::Timeout))
            );
            assert_eq!(
                plan.decide(key, 1),
                Some((FaultPoint::AppRun, FailureKind::Timeout))
            );
            assert_eq!(plan.decide(key, 2), None);
        }
    }

    #[test]
    fn report_is_canonical_and_serializable() {
        let state = FaultState::new(Some(FaultPlan::seeded(5)), RecoveryPolicy::default());
        let tele = Telemetry::new();
        // Insert events out of order; the snapshot must sort them.
        state.record_injection(FaultEvent {
            key: 9,
            attempt: 1,
            point: FaultPoint::AppRun,
            kind: FailureKind::Timeout,
        });
        state.record_injection(FaultEvent {
            key: 2,
            attempt: 0,
            point: FaultPoint::AppRun,
            kind: FailureKind::Panic,
        });
        tele.incr(FailureKind::Panic.counter());
        for retry in 0..2 {
            tele.incr("fault.retry");
            tele.add("fault.backoff_ms", state.policy.backoff_ms(retry));
        }
        state.quarantine(2, 3);
        tele.add("sampling.requested", 10);
        state.record_drop(DroppedSample {
            phase: Some(1),
            levels: vec![2, 0],
            golden: false,
            kind: FailureKind::Panic,
        });
        state.record_drop(DroppedSample {
            phase: None,
            levels: vec![0, 0],
            golden: true,
            kind: FailureKind::Timeout,
        });
        let report = state.report(&tele);
        assert_eq!(report.events[0].key, 2, "events sorted by key");
        assert_eq!(report.injected_faults, 2);
        assert_eq!(report.panics_caught, 1);
        assert_eq!(report.dropped_inputs, 1, "one golden among the drops");
        assert!(report.dropped_samples[0].golden, "goldens sort first");
        assert_eq!(report.retries, 2);
        assert_eq!(report.backoff_ms_accounted, 10 + 20);
        assert_eq!(report.quarantined_keys, 1);
        assert!((report.drop_rate() - 0.2).abs() < 1e-12);
        assert!(report.is_degraded());
        assert!(report.has_activity());
        let json = serde_json::to_string(&report).unwrap();
        let back: RobustnessReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        let text = report.to_string();
        assert!(text.contains("quarantined"), "{text}");
        assert!(text.contains("drop rate"), "{text}");
    }

    #[test]
    fn empty_report_has_no_activity() {
        let report = RobustnessReport::default();
        assert!(!report.is_degraded());
        assert!(!report.has_activity());
        assert_eq!(report.drop_rate(), 0.0);
    }
}
