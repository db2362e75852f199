//! The shared parallel evaluation engine — the single path through which
//! every real execution of an [`ApproxApp`] flows.
//!
//! The paper's profiling jobs run on a SLURM cluster and are embarrassingly
//! parallel; its online search re-executes many identical configurations
//! (goldens for every candidate validation, repeated probe settings across
//! budgets). [`EvalEngine`] reproduces both halves of that economics in
//! process:
//!
//! * **Parallel batches.** [`EvalEngine::run_batch`] executes a batch of
//!   `(input, schedule)` jobs on a bounded work-stealing thread pool, and
//!   assembles the results in **submission order**, so anything derived
//!   from a batch (training data, oracle sweeps) is bit-identical to a
//!   sequential collection regardless of thread count.
//! * **Execution cache.** Results are memoized on
//!   `(app, input, schedule)`. Benchmark applications are deterministic by
//!   contract, so a cached [`RunResult`] is indistinguishable from a fresh
//!   execution. Repeated goldens and re-probed configurations become cache
//!   hits instead of work. The cache is split into [`CACHE_SHARDS`]
//!   independently locked shards selected by the key's stable FNV-1a
//!   digest, so concurrent lookups and insert-backs on different keys do
//!   not serialize on one global lock (rule `C006` in the
//!   `opprox-analyze` registry).
//! * **Resumed probes.** A job whose schedule runs its first phases
//!   accurately (every single-phase probe past phase 0) would replay the
//!   golden run's prefix. Instead, for each distinct input among a
//!   batch's pending jobs, one accurate prefix pass on the pool
//!   checkpoints the app at every phase start the batch needs
//!   ([`ApproxApp::checkpoints`]), and each job resumes from its
//!   checkpoint and runs only the suffix ([`ApproxApp::resume`]). The
//!   results are bit-identical to runs from scratch, and prefix passes
//!   are not executions: the cache, the fault decisions and every
//!   execution counter are exactly those of an app that takes no
//!   checkpoints. The checkpoint table is dropped when the batch returns.
//! * **Metrics.** The engine records executions, cache hits, work units,
//!   and per-stage wall time in its telemetry registry, the only ledger;
//!   [`EvalMetrics`] is a view computed from it on demand, surfaced
//!   through `core::report` and printed by the CLI.

use crate::error::OpproxError;
use crate::fault::{
    FailureKind, FaultEvent, FaultPlan, FaultPoint, FaultState, RecoveryPolicy, RobustnessReport,
};
use crate::pool::WorkPool;
use crate::sync::Mutex;
use crate::telemetry::{Clock, Telemetry, TelemetryReport};
use opprox_approx_rt::log::CallContextLog;
use opprox_approx_rt::{
    run_with_timeout, ApproxApp, Checkpoint, InputParams, PhaseSchedule, RunResult, RuntimeError,
};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Identity of one real execution: application, input, and schedule.
///
/// Inputs are keyed on the exact bit patterns of their parameters
/// (`f64::to_bits`), so `-0.0` and `0.0` — which can produce different
/// control flow in an application — are distinct keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    app: String,
    input_bits: Vec<u64>,
    phase_levels: Vec<Vec<u8>>,
    expected_iters: u64,
}

impl CacheKey {
    fn new(app: &dyn ApproxApp, input: &InputParams, schedule: &PhaseSchedule) -> Self {
        CacheKey {
            app: app.meta().name.clone(),
            input_bits: input.values().iter().map(|v| v.to_bits()).collect(),
            phase_levels: schedule
                .configs()
                .iter()
                .map(|c| c.levels().to_vec())
                .collect(),
            expected_iters: schedule.expected_iters(),
        }
    }

    /// A stable 64-bit digest of the key (FNV-1a), used to seed fault
    /// decisions and to index the quarantine set. Unlike `Hash`, the
    /// digest is identical across processes and runs.
    fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn eat(mut h: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
            h
        }
        let mut h = eat(OFFSET, self.app.as_bytes());
        h = eat(h, &(self.input_bits.len() as u64).to_le_bytes());
        for &bits in &self.input_bits {
            h = eat(h, &bits.to_le_bytes());
        }
        h = eat(h, &(self.phase_levels.len() as u64).to_le_bytes());
        for levels in &self.phase_levels {
            h = eat(h, &(levels.len() as u64).to_le_bytes());
            h = eat(h, levels);
        }
        eat(h, &self.expected_iters.to_le_bytes())
    }
}

/// Number of independently locked cache shards. A power of two, so the
/// shard index is a mask of the key digest. Sixteen shards keep the
/// expected lock-collision rate low for worker pools up to the core
/// counts this engine targets, while costing only sixteen empty maps on
/// an idle engine.
const CACHE_SHARDS: usize = 16;

/// The execution cache, split into [`CACHE_SHARDS`] shards each behind
/// its own lock. The owning shard is a pure function of the key's stable
/// FNV-1a digest, so every entry lives in exactly one shard and the
/// never-cache-failures contract (rule `C005`) is shard-local. Lookups
/// and insert-backs on keys in different shards proceed without
/// contention (rule `C006`).
struct ShardedCache {
    shards: Vec<Mutex<HashMap<CacheKey, Arc<RunResult>>>>,
}

impl ShardedCache {
    fn new() -> Self {
        ShardedCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    /// The shard owning `digest`. FNV-1a disperses low bits well, so the
    /// mask spreads keys evenly.
    fn shard(&self, digest: u64) -> &Mutex<HashMap<CacheKey, Arc<RunResult>>> {
        &self.shards[(digest as usize) & (CACHE_SHARDS - 1)]
    }

    /// Looks up `key` in its shard, cloning the hit out so the shard lock
    /// is held only for the probe.
    fn get(&self, digest: u64, key: &CacheKey) -> Option<Arc<RunResult>> {
        self.shard(digest)
            .lock()
            .expect("cache shard lock")
            .get(key)
            .map(Arc::clone)
    }

    /// Total entries across all shards, taking the shard locks one at a
    /// time. The sum is exact when no writer runs concurrently, which is
    /// how the metrics paths use it.
    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").len())
            .sum()
    }
}

/// The finite-QoS gate: observations carrying NaN/∞ output values are
/// rejected before they can reach the execution cache or a model.
fn finite_qos_gate(result: RunResult) -> Result<RunResult, FailureKind> {
    if result.output.iter().any(|v| !v.is_finite()) {
        Err(FailureKind::NonFiniteQos)
    } else {
        Ok(result)
    }
}

/// How one evaluation attempt ended short of success.
enum AttemptFailure {
    /// Retryable: injected faults, caught panics, timeouts, non-finite
    /// QoS, poisoned results.
    Transient(FailureKind),
    /// Not retryable: the app rejected the input or schedule outright.
    Fatal(OpproxError),
}

/// Wall time and execution count attributed to one pipeline stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageMetrics {
    /// Stage name (e.g. `granularity`, `profiling`, `validation`).
    pub name: String,
    /// Real executions performed while the stage ran.
    pub executions: u64,
    /// Cache hits served while the stage ran.
    pub cache_hits: u64,
    /// Wall-clock milliseconds spent in the stage.
    pub wall_ms: f64,
}

/// A point-in-time snapshot of an engine's counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalMetrics {
    /// Real application executions performed.
    pub executions: u64,
    /// Requests served from the execution cache (including successful
    /// duplicate submissions within one batch).
    pub cache_hits: u64,
    /// Total abstract work units across all real executions.
    pub total_work_units: u64,
    /// Per-stage wall time and execution counts, in stage-name order.
    pub stages: Vec<StageMetrics>,
}

impl EvalMetrics {
    /// Fraction of requests served from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.executions + self.cache_hits;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl fmt::Display for EvalMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "evaluation: {} executions, {} cache hits ({:.1}% hit rate), {} work units",
            self.executions,
            self.cache_hits,
            100.0 * self.hit_rate(),
            self.total_work_units
        )?;
        for s in &self.stages {
            writeln!(
                f,
                "  stage {:<12} {:>6} exec {:>6} hits {:>10.1} ms",
                s.name, s.executions, s.cache_hits, s.wall_ms
            )?;
        }
        Ok(())
    }
}

/// The shared evaluation engine: bounded thread pool, execution cache,
/// and metrics. Cheap to share by reference across a whole pipeline run;
/// all interior state is synchronized.
///
/// # Example
///
/// ```
/// use opprox_core::evaluator::EvalEngine;
/// use opprox_apps::Pso;
/// use opprox_approx_rt::InputParams;
///
/// let engine = EvalEngine::new(2);
/// let app = Pso::new();
/// let input = InputParams::new(vec![12.0, 2.0]);
/// let first = engine.golden(&app, &input).unwrap();
/// let again = engine.golden(&app, &input).unwrap(); // served from cache
/// assert_eq!(first.work, again.work);
/// let m = engine.metrics();
/// assert_eq!((m.executions, m.cache_hits), (1, 1));
/// ```
pub struct EvalEngine {
    threads: usize,
    cache: ShardedCache,
    faults: FaultState,
    telemetry: Telemetry,
}

impl Default for EvalEngine {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        EvalEngine::new(threads)
    }
}

impl fmt::Debug for EvalEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EvalEngine")
            .field("threads", &self.threads)
            .field("metrics", &self.metrics())
            .finish()
    }
}

impl EvalEngine {
    /// Creates an engine with a bounded pool of `threads` workers
    /// (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        EvalEngine::with_recovery(threads, RecoveryPolicy::default())
    }

    /// Creates an engine with an explicit [`RecoveryPolicy`] (retry
    /// bound, accounted backoff, per-evaluation timeout) and no fault
    /// injection.
    pub fn with_recovery(threads: usize, policy: RecoveryPolicy) -> Self {
        EvalEngine {
            threads: threads.max(1),
            cache: ShardedCache::new(),
            faults: FaultState::new(None, policy),
            telemetry: Telemetry::new(),
        }
    }

    /// Creates an engine that injects faults according to `plan` and
    /// recovers according to `policy`. Decisions are pure functions of
    /// the plan seed and the evaluation key, so the injected-failure
    /// schedule is identical across runs and thread counts.
    pub fn with_faults(threads: usize, plan: FaultPlan, policy: RecoveryPolicy) -> Self {
        EvalEngine {
            faults: FaultState::new(Some(plan), policy),
            ..EvalEngine::with_recovery(threads, policy)
        }
    }

    /// Replaces the telemetry clock (and resets the registry), so tests
    /// can inject a [`crate::telemetry::ManualClock`] and get
    /// byte-identical trace exports across runs and thread counts.
    #[must_use]
    pub fn with_telemetry_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.telemetry = Telemetry::with_clock(clock);
        self
    }

    /// The engine's live telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Canonical snapshot of the telemetry registry.
    pub fn telemetry_report(&self) -> TelemetryReport {
        self.telemetry.report()
    }

    /// The configured worker-pool bound.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether a fault plan is configured and can inject anything.
    pub fn fault_injection_enabled(&self) -> bool {
        self.faults.plan.as_ref().is_some_and(FaultPlan::is_active)
    }

    /// Snapshot of the fault-injection and recovery ledger, in canonical
    /// order (byte-identical across runs and thread counts for a fixed
    /// [`FaultPlan`]), read from the fault state and the telemetry
    /// registry.
    pub fn robustness_report(&self) -> RobustnessReport {
        self.faults.report(&self.telemetry)
    }

    /// The robustness ledger worth showing: `Some` when fault injection
    /// is configured or any recovery event fired, `None` for a clean run
    /// on a clean engine.
    pub fn robustness_ledger(&self) -> Option<RobustnessReport> {
        let report = self.robustness_report();
        (self.fault_injection_enabled() || report.has_activity()).then_some(report)
    }

    /// Shared fault state, for in-crate collaborators (sampling records
    /// dropped samples here).
    pub(crate) fn faults(&self) -> &FaultState {
        &self.faults
    }

    /// Executes (or recalls) one run of `app` on `input` under `schedule`,
    /// with panic isolation, bounded retry, and quarantine (see
    /// [`crate::fault`]).
    ///
    /// # Errors
    ///
    /// Propagates application runtime errors;
    /// [`OpproxError::EvaluationFailed`] when every recovery attempt was
    /// exhausted, [`OpproxError::Quarantined`] when the key already
    /// failed a full evaluation. Failed runs are **never** cached — a key
    /// whose last attempt failed cannot be served from the cache.
    pub fn run(
        &self,
        app: &dyn ApproxApp,
        input: &InputParams,
        schedule: &PhaseSchedule,
    ) -> Result<Arc<RunResult>, OpproxError> {
        let key = CacheKey::new(app, input, schedule);
        let digest = key.digest();
        if let Some(hit) = self.cache.get(digest, &key) {
            self.note_hit(digest);
            return Ok(hit);
        }
        let result = Arc::new(self.evaluate_with_recovery(app, input, schedule, digest, None)?);
        self.note_exec(digest, schedule.is_accurate(), result.work);
        self.cache
            .shard(digest)
            .lock()
            .expect("cache shard lock")
            .entry(key)
            .or_insert_with(|| Arc::clone(&result));
        Ok(result)
    }

    /// Runs one full evaluation — up to `1 + max_retries` attempts with
    /// accounted backoff — and quarantines the key if every attempt
    /// fails.
    fn evaluate_with_recovery(
        &self,
        app: &dyn ApproxApp,
        input: &InputParams,
        schedule: &PhaseSchedule,
        digest: u64,
        from: Option<&Checkpoint>,
    ) -> Result<RunResult, OpproxError> {
        if self.faults.is_quarantined(digest) {
            self.telemetry.incr(FailureKind::Quarantined.counter());
            self.telemetry
                .incr(&format!("eval.quarantine[{digest:#018x}]"));
            return Err(OpproxError::Quarantined {
                context: format!("app `{}`, key {digest:#018x}", app.meta().name),
            });
        }
        let max_attempts = self.faults.policy.max_attempts();
        let mut last = FailureKind::Panic;
        for attempt in 0..max_attempts {
            match self.attempt_once(app, input, schedule, digest, attempt, from) {
                Ok(result) => return Ok(result),
                Err(AttemptFailure::Fatal(e)) => return Err(e),
                Err(AttemptFailure::Transient(kind)) => {
                    self.telemetry.incr(kind.counter());
                    last = kind;
                    if attempt + 1 < max_attempts {
                        // Accounted, never slept (see `RecoveryPolicy`).
                        self.telemetry.incr("fault.retry");
                        self.telemetry
                            .add("fault.backoff_ms", self.faults.policy.backoff_ms(attempt));
                    }
                }
            }
        }
        self.faults.quarantine(digest, max_attempts);
        self.telemetry.incr("eval.quarantined");
        Err(OpproxError::EvaluationFailed {
            kind: last,
            attempts: max_attempts,
            context: format!("app `{}`, key {digest:#018x}", app.meta().name),
        })
    }

    /// One attempt: consult the fault plan at the named fault points,
    /// then (if nothing was injected) execute the app behind
    /// `catch_unwind`, the optional wall-clock budget, and the finite-QoS
    /// gate.
    fn attempt_once(
        &self,
        app: &dyn ApproxApp,
        input: &InputParams,
        schedule: &PhaseSchedule,
        digest: u64,
        attempt: u32,
        from: Option<&Checkpoint>,
    ) -> Result<RunResult, AttemptFailure> {
        let injected = self
            .faults
            .plan
            .as_ref()
            .and_then(|p| p.decide(digest, attempt));
        if let Some((point, kind)) = injected {
            self.faults.record_injection(FaultEvent {
                key: digest,
                attempt,
                point,
                kind,
            });
            match kind {
                FailureKind::Panic => {
                    // Raise a real panic and catch it at the worker
                    // boundary, exercising the same isolation machinery a
                    // genuine app panic takes.
                    let caught = catch_unwind(AssertUnwindSafe(|| -> RunResult {
                        panic!("injected fault: app-run panic (key {digest:#x}, attempt {attempt})")
                    }));
                    debug_assert!(caught.is_err());
                    return Err(AttemptFailure::Transient(FailureKind::Panic));
                }
                FailureKind::Timeout => {
                    return Err(AttemptFailure::Transient(FailureKind::Timeout));
                }
                FailureKind::NonFiniteQos => {
                    // Synthesize the corrupted observation and push it
                    // through the same finite-QoS gate a genuine NaN
                    // result would hit.
                    let corrupted = RunResult {
                        output: vec![f64::NAN],
                        work: 0,
                        outer_iters: 0,
                        log: CallContextLog::new(),
                    };
                    let kind = finite_qos_gate(corrupted)
                        .expect_err("synthesized NaN output must fail the gate");
                    return Err(AttemptFailure::Transient(kind));
                }
                FailureKind::PoisonedResult => {
                    // The corruption strikes at the cache-insert boundary:
                    // the would-be entry is rejected, never stored.
                    debug_assert_eq!(point, FaultPoint::CacheInsert);
                    return Err(AttemptFailure::Transient(FailureKind::PoisonedResult));
                }
                // The plan never decides `Quarantined`; quarantine is a
                // recovery outcome, not an injectable fault.
                FailureKind::Quarantined => {}
            }
        }
        self.guarded_run(app, input, schedule, from)
    }

    /// A genuine execution behind the worker-boundary guards: panics are
    /// caught, the optional per-evaluation wall-clock budget is enforced
    /// (via [`opprox_approx_rt::run_with_timeout`]), and non-finite
    /// outputs are rejected before they can reach the cache or a model.
    /// With a checkpoint the run resumes from it, and the budget times
    /// only the resumed suffix.
    fn guarded_run(
        &self,
        app: &dyn ApproxApp,
        input: &InputParams,
        schedule: &PhaseSchedule,
        from: Option<&Checkpoint>,
    ) -> Result<RunResult, AttemptFailure> {
        let execute = || match from {
            Some(checkpoint) => app.resume(checkpoint, schedule),
            None => app.run(input, schedule),
        };
        let caught = catch_unwind(AssertUnwindSafe(|| {
            match self.faults.policy.eval_timeout_ms {
                Some(budget) => run_with_timeout(budget, execute),
                None => execute(),
            }
        }));
        match caught {
            Err(_) => Err(AttemptFailure::Transient(FailureKind::Panic)),
            Ok(Err(RuntimeError::Timeout { .. })) => {
                Err(AttemptFailure::Transient(FailureKind::Timeout))
            }
            Ok(Err(e)) => Err(AttemptFailure::Fatal(OpproxError::Runtime(e))),
            Ok(Ok(result)) => finite_qos_gate(result).map_err(AttemptFailure::Transient),
        }
    }

    /// Executes (or recalls) the fully accurate run for `input`.
    ///
    /// # Errors
    ///
    /// Propagates application runtime errors.
    pub fn golden(
        &self,
        app: &dyn ApproxApp,
        input: &InputParams,
    ) -> Result<Arc<RunResult>, OpproxError> {
        let schedule = PhaseSchedule::accurate(app.meta().num_blocks());
        self.run(app, input, &schedule)
    }

    /// Executes a batch of jobs on the worker pool and returns the
    /// results in **submission order**.
    ///
    /// Duplicate jobs (by cache key) are executed once; the extra
    /// submissions of a key whose evaluation succeeds — and any jobs
    /// already in the cache — are counted as cache hits. Because every application is deterministic and results
    /// are assembled into pre-assigned slots, the returned vector is
    /// bit-identical to running the jobs sequentially in submission
    /// order, for any thread count.
    ///
    /// # Errors
    ///
    /// If any job fails, returns the error of the earliest-submitted
    /// failing job. Successful jobs in the batch are still cached.
    pub fn run_batch(
        &self,
        app: &dyn ApproxApp,
        jobs: &[(InputParams, PhaseSchedule)],
    ) -> Result<Vec<Arc<RunResult>>, OpproxError> {
        let mut out = Vec::with_capacity(jobs.len());
        for outcome in self.run_batch_resilient(app, jobs) {
            out.push(outcome?);
        }
        Ok(out)
    }

    /// Like [`EvalEngine::run_batch`], but failures degrade instead of
    /// aborting: every job gets its own `Result`, in submission order.
    /// Failed jobs are never cached; duplicate submissions of a failing
    /// key share the same error. This is the entry point degraded-mode
    /// training uses to drop individual samples while keeping the rest of
    /// the batch.
    pub fn run_batch_resilient(
        &self,
        app: &dyn ApproxApp,
        jobs: &[(InputParams, PhaseSchedule)],
    ) -> Vec<Result<Arc<RunResult>, OpproxError>> {
        // Resolve each submission to a cached result or a unique pending
        // execution; duplicates alias the first occurrence. Each probe
        // takes only the owning shard's lock; in-batch deduplication runs
        // through the local `seen` map, not the cache, so no lock is held
        // across the scan.
        enum Slot {
            Cached(Arc<RunResult>),
            Pending(usize),
        }
        let mut slots: Vec<Slot> = Vec::with_capacity(jobs.len());
        let mut pending: Vec<(CacheKey, &InputParams, &PhaseSchedule)> = Vec::new();
        let mut seen: HashMap<CacheKey, usize> = HashMap::new();
        // In-batch repeats of a pending key: (pending index, digest). They
        // count as cache hits only once the shared evaluation succeeds.
        let mut repeats: Vec<(usize, u64)> = Vec::new();
        for (input, schedule) in jobs {
            let key = CacheKey::new(app, input, schedule);
            let digest = key.digest();
            if let Some(hit) = self.cache.get(digest, &key) {
                self.note_hit(digest);
                slots.push(Slot::Cached(hit));
                continue;
            }
            match seen.entry(key.clone()) {
                Entry::Occupied(e) => {
                    repeats.push((*e.get(), digest));
                    slots.push(Slot::Pending(*e.get()));
                }
                Entry::Vacant(e) => {
                    e.insert(pending.len());
                    slots.push(Slot::Pending(pending.len()));
                    pending.push((key, input, schedule));
                }
            }
        }
        self.telemetry
            .set_gauge("eval.queue_depth", pending.len() as f64);

        let table = self.prefix_checkpoints(app, &pending);
        let results = self.execute_pending(app, &pending, &table);

        // Only successful results cross the cache boundary; failed
        // entries are never stored (rule C005). Each insert-back takes
        // only the owning shard's lock (rule C006).
        for ((key, _, _), result) in pending.iter().zip(results.iter()) {
            if let Ok(result) = result {
                self.cache
                    .shard(key.digest())
                    .lock()
                    .expect("cache shard lock")
                    .insert(key.clone(), Arc::clone(result));
            }
        }
        for (i, digest) in repeats {
            if results[i].is_ok() {
                self.note_hit(digest);
            }
        }

        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Cached(r) => Ok(r),
                Slot::Pending(i) => results[i].clone(),
            })
            .collect()
    }

    /// The batch's read-only checkpoint table: for every distinct input
    /// among the pending jobs, one accurate prefix pass on the pool, forked
    /// at every accurate-prefix length ([`PhaseSchedule::accurate_prefix`])
    /// a job of that input needs. Entry `i` is the checkpoint pending job
    /// `i` resumes from, or `None` when it runs from scratch: its first
    /// phase is approximated, its schedule is accurate throughout, its key
    /// is quarantined, the app takes no checkpoints, or the accurate run
    /// ends before the prefix.
    ///
    /// Prefix passes are not executions: they touch neither the cache nor
    /// the execution counters, only `eval.prefix.pass`. A pass that fails
    /// or panics leaves its jobs to run from scratch, where the failure
    /// surfaces through the normal recovery path.
    fn prefix_checkpoints(
        &self,
        app: &dyn ApproxApp,
        pending: &[(CacheKey, &InputParams, &PhaseSchedule)],
    ) -> Vec<Option<Checkpoint>> {
        let mut passes: Vec<(&InputParams, Vec<u64>)> = Vec::new();
        let mut pass_of: HashMap<&[u64], usize> = HashMap::new();
        for (key, input, schedule) in pending {
            let prefix = schedule.accurate_prefix();
            if prefix == 0 || prefix == u64::MAX || self.faults.is_quarantined(key.digest()) {
                continue;
            }
            let p = *pass_of.entry(&key.input_bits).or_insert_with(|| {
                passes.push((input, Vec::new()));
                passes.len() - 1
            });
            passes[p].1.push(prefix);
        }
        if passes.is_empty() {
            return vec![None; pending.len()];
        }
        let forks: Vec<Vec<Checkpoint>> = WorkPool::new(self.threads)
            .run_isolated(passes.len(), |i| {
                let (input, at) = &passes[i];
                app.checkpoints(input, at)
            })
            .outcomes
            .into_iter()
            .map(|outcome| match outcome {
                Ok(Ok(forks)) => forks,
                _ => Vec::new(),
            })
            .collect();
        let made = forks.iter().filter(|f| !f.is_empty()).count() as u64;
        if made > 0 {
            self.telemetry.add("eval.prefix.pass", made);
        }
        pending
            .iter()
            .map(|(key, _, schedule)| {
                let forks = &forks[*pass_of.get(key.input_bits.as_slice())?];
                let prefix = schedule.accurate_prefix();
                forks
                    .binary_search_by_key(&prefix, Checkpoint::iter)
                    .ok()
                    .map(|i| forks[i].clone())
            })
            .collect()
    }

    /// Runs the de-duplicated pending jobs on a work-stealing pool of
    /// scoped threads (see [`WorkPool`]) with per-job panic isolation,
    /// and returns their outcomes in job order. Job `i` resumes from
    /// `table[i]` when it has a checkpoint.
    fn execute_pending(
        &self,
        app: &dyn ApproxApp,
        pending: &[(CacheKey, &InputParams, &PhaseSchedule)],
        table: &[Option<Checkpoint>],
    ) -> Vec<Result<Arc<RunResult>, OpproxError>> {
        if pending.is_empty() {
            return Vec::new();
        }
        let run = WorkPool::new(self.threads).run_isolated(pending.len(), |i| {
            let (key, input, schedule) = &pending[i];
            self.evaluate_with_recovery(app, input, schedule, key.digest(), table[i].as_ref())
        });
        if run.respawns > 0 {
            self.telemetry.add("pool.respawn", run.respawns);
        }
        run.outcomes
            .into_iter()
            .zip(pending.iter().zip(table))
            .map(|(outcome, ((key, _, schedule), from))| match outcome {
                Ok(Ok(result)) => {
                    self.note_exec(key.digest(), schedule.is_accurate(), result.work);
                    if let Some(checkpoint) = from {
                        self.telemetry
                            .add("eval.prefix.iters_skipped", checkpoint.iter());
                    }
                    Ok(Arc::new(result))
                }
                Ok(Err(e)) => Err(e),
                // Defense in depth: `evaluate_with_recovery` catches
                // panics itself, but if one ever escapes to the pool the
                // worker dies, is respawned, and the job fails typed.
                Err(panic) => Err(OpproxError::EvaluationFailed {
                    kind: FailureKind::Panic,
                    attempts: 1,
                    context: format!("worker died: {}", panic.message),
                }),
            })
            .collect()
    }

    /// Per-key cache-hit bookkeeping for the telemetry registry. Counter
    /// names carry the key digest so tests can assert facts about
    /// individual `(input, schedule)` keys.
    fn note_hit(&self, digest: u64) {
        self.telemetry.incr("eval.cache.hit");
        self.telemetry.incr(&format!("eval.hit[{digest:#018x}]"));
    }

    /// Per-key execution bookkeeping plus the `eval.work` total;
    /// accurate-schedule (golden) executions are counted separately so
    /// "golden exactly once per input" is an assertable fact.
    fn note_exec(&self, digest: u64, golden: bool, work: u64) {
        self.telemetry.incr("eval.exec");
        self.telemetry.add("eval.work", work);
        self.telemetry.incr(&format!("eval.exec[{digest:#018x}]"));
        if golden {
            self.telemetry.incr("eval.golden.exec");
            self.telemetry
                .incr(&format!("eval.golden.exec[{digest:#018x}]"));
        }
    }

    /// Runs `f` inside the telemetry span `stage/<name>` (timed by the
    /// engine's injectable clock), and adds the executions and cache hits
    /// it causes to the counters `stage[<name>].exec` and
    /// `stage[<name>].hit`. Repeated stages accumulate.
    pub fn stage<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let execs_before = self.telemetry.counter_value("eval.exec");
        let hits_before = self.telemetry.counter_value("eval.cache.hit");
        let out = self.telemetry.span(&format!("stage/{name}"), f);
        let execs = self.telemetry.counter_value("eval.exec") - execs_before;
        let hits = self.telemetry.counter_value("eval.cache.hit") - hits_before;
        if execs > 0 {
            self.telemetry.add(&format!("stage[{name}].exec"), execs);
        }
        if hits > 0 {
            self.telemetry.add(&format!("stage[{name}].hit"), hits);
        }
        out
    }

    /// Snapshot of the engine's counters, read from its telemetry
    /// registry.
    pub fn metrics(&self) -> EvalMetrics {
        let t = &self.telemetry;
        EvalMetrics {
            executions: t.counter_value("eval.exec"),
            cache_hits: t.counter_value("eval.cache.hit"),
            total_work_units: t.counter_value("eval.work"),
            stages: t
                .spans_with_prefix("stage/")
                .into_iter()
                .map(|span| {
                    let name = &span.path["stage/".len()..];
                    StageMetrics {
                        executions: t.counter_value(&format!("stage[{name}].exec")),
                        cache_hits: t.counter_value(&format!("stage[{name}].hit")),
                        wall_ms: span.total_micros as f64 / 1e3,
                        name: name.to_string(),
                    }
                })
                .collect(),
        }
    }

    /// Number of distinct executions currently memoized, summed across
    /// all cache shards.
    pub fn cached_results(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opprox_approx_rt::config::sample_configs;
    use opprox_approx_rt::LevelConfig;
    use opprox_apps::Pso;

    fn app() -> Pso {
        Pso::new()
    }

    fn input() -> InputParams {
        InputParams::new(vec![12.0, 2.0])
    }

    fn schedules(n: usize) -> Vec<PhaseSchedule> {
        sample_configs(&app().meta().blocks, n, 9)
            .into_iter()
            .map(PhaseSchedule::constant)
            .collect()
    }

    #[test]
    fn run_caches_identical_requests() {
        let engine = EvalEngine::new(2);
        let app = app();
        let schedule = PhaseSchedule::constant(LevelConfig::new(vec![1, 0, 0]));
        let a = engine.run(&app, &input(), &schedule).unwrap();
        let b = engine.run(&app, &input(), &schedule).unwrap();
        assert_eq!(a.output, b.output);
        let m = engine.metrics();
        assert_eq!(m.executions, 1);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.total_work_units, a.work);
        assert_eq!(engine.cached_results(), 1);
    }

    #[test]
    fn distinct_schedules_do_not_collide() {
        let engine = EvalEngine::new(2);
        let app = app();
        for s in schedules(4) {
            engine.run(&app, &input(), &s).unwrap();
        }
        let m = engine.metrics();
        assert_eq!(m.executions, 4);
        assert_eq!(m.cache_hits, 0);
    }

    #[test]
    fn batch_deduplicates_and_counts_hits() {
        let engine = EvalEngine::new(4);
        let app = app();
        let s = schedules(2);
        // One warm entry, then a batch with that entry, a fresh one, and a
        // duplicate submission of the fresh one.
        engine.run(&app, &input(), &s[0]).unwrap();
        let jobs = vec![
            (input(), s[0].clone()),
            (input(), s[1].clone()),
            (input(), s[1].clone()),
        ];
        let results = engine.run_batch(&app, &jobs).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[1].output, results[2].output);
        let m = engine.metrics();
        assert_eq!(m.executions, 2, "warm run + one fresh batch execution");
        assert_eq!(m.cache_hits, 2, "warm entry + duplicate submission");
    }

    #[test]
    fn batch_order_matches_sequential_execution() {
        let app = app();
        let jobs: Vec<(InputParams, PhaseSchedule)> =
            schedules(6).into_iter().map(|s| (input(), s)).collect();
        let sequential: Vec<RunResult> = jobs.iter().map(|(i, s)| app.run(i, s).unwrap()).collect();
        for threads in [1, 2, 8] {
            let engine = EvalEngine::new(threads);
            let parallel = engine.run_batch(&app, &jobs).unwrap();
            for (p, s) in parallel.iter().zip(sequential.iter()) {
                assert_eq!(p.as_ref(), s, "{threads} threads");
            }
        }
    }

    #[test]
    fn batch_errors_surface_earliest_failure() {
        let engine = EvalEngine::new(2);
        let app = app();
        let good = PhaseSchedule::constant(LevelConfig::new(vec![1, 0, 0]));
        let bad = PhaseSchedule::constant(LevelConfig::new(vec![99, 99, 99]));
        let jobs = vec![(input(), good), (input(), bad)];
        assert!(engine.run_batch(&app, &jobs).is_err());
    }

    #[test]
    fn failed_in_batch_repeat_is_not_a_cache_hit() {
        let plan = FaultPlan::seeded(1).fail_first_attempts(u32::MAX);
        let policy = RecoveryPolicy {
            max_retries: 0,
            ..RecoveryPolicy::default()
        };
        let engine = EvalEngine::with_faults(2, plan, policy);
        let app = app();
        let s = schedules(1).remove(0);
        let results = engine.run_batch_resilient(&app, &[(input(), s.clone()), (input(), s)]);
        assert!(
            results.iter().all(Result::is_err),
            "both entries share the error"
        );
        assert_eq!(engine.metrics().cache_hits, 0);
    }

    #[test]
    fn stages_accumulate_time_and_counts() {
        let engine = EvalEngine::new(2);
        let app = app();
        let s = schedules(1).remove(0);
        engine.stage("probe", || engine.run(&app, &input(), &s).unwrap());
        engine.stage("probe", || engine.run(&app, &input(), &s).unwrap());
        let m = engine.metrics();
        assert_eq!(m.stages.len(), 1);
        assert_eq!(m.stages[0].name, "probe");
        assert_eq!(m.stages[0].executions, 1);
        assert_eq!(m.stages[0].cache_hits, 1);
        assert!(m.stages[0].wall_ms >= 0.0);
    }

    #[test]
    fn metrics_render_and_serialize() {
        let engine = EvalEngine::new(1);
        let app = app();
        engine.stage("golden", || engine.golden(&app, &input()).unwrap());
        engine.golden(&app, &input()).unwrap();
        let m = engine.metrics();
        let text = m.to_string();
        assert!(text.contains("1 executions"), "{text}");
        assert!(text.contains("1 cache hits"), "{text}");
        assert!(text.contains("golden"), "{text}");
        let json = serde_json::to_string(&m).unwrap();
        let back: EvalMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        assert!((m.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sharded_cache_counts_and_serves_across_shards() {
        use opprox_approx_rt::config::enumerate_configs;
        let engine = EvalEngine::new(2);
        let app = app();
        // Distinct keys by construction; enough of them that multiple
        // shards are populated (digest-selected, so coverage is
        // probabilistic but the counts below are exact either way).
        let schedules: Vec<PhaseSchedule> = enumerate_configs(&app.meta().blocks)
            .filter(|c| !c.is_accurate())
            .take(12)
            .map(PhaseSchedule::constant)
            .collect();
        for s in &schedules {
            engine.run(&app, &input(), s).unwrap();
        }
        assert_eq!(engine.cached_results(), 12, "every distinct key memoized");
        // A full re-submission is served entirely from the shards.
        let jobs: Vec<_> = schedules.iter().map(|s| (input(), s.clone())).collect();
        let results = engine.run_batch(&app, &jobs).unwrap();
        assert_eq!(results.len(), 12);
        let m = engine.metrics();
        assert_eq!(m.executions, 12);
        assert_eq!(m.cache_hits, 12);
        assert_eq!(engine.cached_results(), 12, "re-submission adds nothing");
    }

    #[test]
    fn golden_signs_distinguish_inputs() {
        // -0.0 and 0.0 must key differently (bit-pattern identity).
        let engine = EvalEngine::new(1);
        let app = app();
        engine
            .golden(&app, &InputParams::new(vec![12.0, 2.0]))
            .unwrap();
        let before = engine.metrics().executions;
        engine
            .golden(&app, &InputParams::new(vec![12.0 + 0.0, 2.0]))
            .unwrap();
        assert_eq!(engine.metrics().executions, before, "same bits must hit");
    }
}
