//! `opprox serve`: a long-running optimization service.
//!
//! The offline pipeline is the control plane — train once, write a
//! [`TrainedOpprox`] artifact — and this module is the data plane: a
//! dependency-free daemon speaking the versioned line-delimited JSON
//! protocol of [`crate::api`] over TCP. The design goals, in order:
//!
//! 1. **One public protocol.** Every request enters as an
//!    [`ApiRequest`] and leaves as an [`ApiResponse`];
//!    [`crate::request::OptimizeRequest`] is only the internal executor.
//! 2. **Hot reload without dropped requests.** Artifacts live behind an
//!    atomically swapped `Arc` snapshot: a reload installs a new model
//!    map while in-flight requests keep the snapshot they started with
//!    ([`ServeState::handle_with_models`] is the seam that makes this
//!    provable under a [`ManualClock`](crate::telemetry::ManualClock)).
//!    A file that fails to parse never replaces a good artifact.
//! 3. **Admission control.** At most `queue_limit` frames wait for a
//!    handling slot; past the bound, optimize/adaptive/predict frames
//!    are shed immediately with the `overloaded` wire code instead of
//!    waiting unboundedly. `health` is exempt so liveness probes still
//!    answer under overload.
//! 4. **Answered where it arrives.** Each connection thread answers its
//!    own frames: an admitted frame waits for one of `threads` handling
//!    slots and then runs on the calling thread against one model
//!    snapshot. No request crosses threads. `predict` frames carry many
//!    configurations and are answered by the batched predictor in one
//!    flat model pass.
//!
//! Model-only optimize replies are memoized in a plan cache keyed by
//! `(app, generation, input, budget, conservatism)`, so hot inputs skip
//! the Algorithm-2 solve entirely. Reloads bump the generation, so a swap
//! invalidates every stale plan at once.

use crate::api::{
    AdaptiveParams, AdaptiveReply, ApiRequest, ApiResponse, HealthReply, MeasuredReply,
    MetricsReply, OptimizeParams, OptimizeReply, PredictParams, PredictReply, PredictionReply,
};
use crate::control::{ControlOptions, DriftInjection};
use crate::error::OpproxError;
use crate::evaluator::EvalEngine;
use crate::fault::RecoveryPolicy;
use crate::optimizer::Conservatism;
use crate::pipeline::{MeasuredOutcome, TrainedOpprox};
use crate::request::{OptimizePath, OptimizeRequest};
use crate::spec::AccuracySpec;
use crate::telemetry::{Clock, Telemetry};
use opprox_approx_rt::{ApproxApp, InputParams, LevelConfig, PhaseSchedule};
use serde::Serialize as _;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Configuration of a serving instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Requests handled at once: the handling slots admitted frames
    /// wait for.
    pub threads: usize,
    /// Admission bound: optimize/adaptive/predict frames arriving while
    /// this many are already waiting for a handling slot are shed with
    /// the `overloaded` code.
    pub queue_limit: usize,
    /// Artifact mtime poll interval for hot reload, in milliseconds.
    pub reload_poll_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            queue_limit: 64,
            reload_poll_ms: 200,
        }
    }
}

/// The longest request frame a connection may send, newline included.
/// A longer frame is answered with one `bad_request` and the connection
/// is closed, so a peer that never sends `\n` cannot grow memory without
/// limit.
const MAX_FRAME_BYTES: usize = 1 << 20;

/// Bucket bounds, in microseconds, of the per-op handle-time histograms
/// (`serve.handle_us.{optimize,adaptive,predict}`).
const HANDLE_US_BOUNDS: &[f64] = &[
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 1e6,
];

/// One loaded artifact: the trained system plus the file identity the
/// reload poller compares against.
#[derive(Debug)]
pub struct ModelEntry {
    /// The trained system.
    pub trained: Arc<TrainedOpprox>,
    /// Artifact path, when file-backed (reloadable).
    pub path: Option<PathBuf>,
    /// (mtime, len) of the file at load time.
    file_id: Option<(SystemTime, u64)>,
    /// Generation stamp of this load (monotonic across the store).
    pub generation: u64,
}

type ModelMap = BTreeMap<String, Arc<ModelEntry>>;

/// Key of the plan cache. The control-flow class that picks the model
/// set is a function of `(app, generation, input)`, so the key is exact
/// without it. A reload bumps `generation`, invalidating stale plans.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    app: String,
    generation: u64,
    input_bits: Vec<u64>,
    budget_bits: u64,
    point: bool,
}

/// Occupancy of the handling gate: admitted frames still waiting for a
/// slot, and slots in use.
#[derive(Debug, Default)]
struct Slots {
    waiting: usize,
    busy: usize,
}

/// The shared state of a serving instance: model store, handling gate,
/// plan cache, and telemetry registry. [`Server`] wraps it with the TCP
/// accept/connection/reload threads; tests drive it in-process.
pub struct ServeState {
    options: ServeOptions,
    models: Mutex<Arc<ModelMap>>,
    generation: AtomicU64,
    slots: Mutex<Slots>,
    slot_freed: Condvar,
    /// The `serve.shed` total the admission ledger last recorded.
    ledger_shed: AtomicU64,
    shutdown: AtomicBool,
    cache: Mutex<HashMap<PlanKey, OptimizeReply>>,
    tele: Telemetry,
    start_micros: u64,
    /// (mtime, len) of each app's last refused reload candidate, so a
    /// refused file is audited once, not again on every poll.
    rejected_files: Mutex<HashMap<String, Option<(SystemTime, u64)>>>,
}

impl ServeState {
    /// A fresh state with a monotonic wall clock.
    pub fn new(options: ServeOptions) -> Self {
        Self::build(options, Telemetry::new())
    }

    /// A fresh state timed by `clock` — tests inject a
    /// [`ManualClock`](crate::telemetry::ManualClock) so handle times,
    /// uptime, and the exported report are deterministic.
    pub fn with_clock(options: ServeOptions, clock: Arc<dyn Clock>) -> Self {
        Self::build(options, Telemetry::with_clock(clock))
    }

    fn build(options: ServeOptions, tele: Telemetry) -> Self {
        let start_micros = tele.clock().now_micros();
        ServeState {
            options,
            models: Mutex::new(Arc::new(BTreeMap::new())),
            generation: AtomicU64::new(0),
            slots: Mutex::new(Slots::default()),
            slot_freed: Condvar::new(),
            ledger_shed: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            cache: Mutex::new(HashMap::new()),
            tele,
            start_micros,
            rejected_files: Mutex::new(HashMap::new()),
        }
    }

    /// The instance configuration.
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// The telemetry registry (server-level counters, gauges,
    /// histograms, events).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tele
    }

    /// Current artifact generation (0 before the first load).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// `true` once a shutdown was requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests a shutdown: no new frame is admitted, while frames
    /// already admitted are still answered. Idempotent.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    // -- model store --------------------------------------------------

    /// The current model map. In-flight requests hold the snapshot they
    /// started with, so a concurrent reload never changes — or frees —
    /// the models under them.
    pub fn snapshot(&self) -> Arc<ModelMap> {
        Arc::clone(&self.models.lock().expect("model store lock"))
    }

    /// Loads an artifact file and installs it under its app name.
    ///
    /// # Errors
    ///
    /// Propagates read/parse failures; the store is unchanged on error.
    pub fn load_artifact(&self, path: impl AsRef<Path>) -> Result<String, OpproxError> {
        let path = path.as_ref();
        let trained = TrainedOpprox::load(path)?;
        Ok(self.install(trained, Some(path.to_path_buf())))
    }

    /// Installs a trained system (optionally file-backed for hot
    /// reload), atomically swapping the model map. Entries are keyed by
    /// the lowercased app name — lookups are case-insensitive, matching
    /// `opprox_apps::registry::by_name`. Returns the key.
    pub fn install(&self, trained: TrainedOpprox, path: Option<PathBuf>) -> String {
        let app = trained.app_name().to_ascii_lowercase();
        let file_id = path.as_deref().and_then(file_id);
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let entry = Arc::new(ModelEntry {
            trained: Arc::new(trained),
            path,
            file_id,
            generation,
        });
        let mut store = self.models.lock().expect("model store lock");
        let mut next: ModelMap = (**store).clone();
        next.insert(app.clone(), entry);
        self.tele.set_gauge("serve.models", next.len() as f64);
        *store = Arc::new(next);
        app
    }

    /// One hot-reload poll: every file-backed entry whose (mtime, len)
    /// changed is audited (see `audit_candidate`) and — only if clean —
    /// swapped in. A rejected candidate leaves the old artifact
    /// installed, increments `serve.reload.error` and
    /// `serve.reload.reject[CODE]`, and is not audited again until the
    /// file changes. Every audit outcome lands in the `serve.reload`
    /// event ledger with the rejecting rule encoded numerically (`A004`
    /// as `1004`, `X006` as `3006`). Returns how many entries were
    /// swapped.
    pub fn poll_reload(&self) -> usize {
        let snap = self.snapshot();
        let mut swapped = 0;
        for (app, entry) in snap.iter() {
            let Some(path) = entry.path.as_deref() else {
                continue;
            };
            let id = file_id(path);
            let rejected = self.rejected_files.lock().expect("reload rejection lock");
            let seen = rejected.get(app) == Some(&id);
            drop(rejected);
            if id == entry.file_id || seen {
                continue;
            }
            match self.audit_candidate(app, entry, path) {
                Ok(trained) => {
                    self.install(trained, Some(path.to_path_buf()));
                    self.tele.incr("serve.reload");
                    self.tele.event(
                        "serve.reload",
                        &[
                            ("accepted", 1.0),
                            ("generation", self.generation() as f64),
                            ("rule", 0.0),
                        ],
                    );
                    swapped += 1;
                }
                Err(code) => {
                    self.rejected_files
                        .lock()
                        .expect("reload rejection lock")
                        .insert(app.clone(), id);
                    self.tele.incr("serve.reload.error");
                    self.tele.incr(&format!(
                        "serve.reload.reject[{}]",
                        code.unwrap_or("unreadable")
                    ));
                    self.tele.event(
                        "serve.reload",
                        &[
                            ("accepted", 0.0),
                            ("generation", entry.generation as f64),
                            ("rule", rule_field(code)),
                        ],
                    );
                }
            }
        }
        swapped
    }

    /// The reload audit: loads the candidate artifact leniently, runs the
    /// Error-severity integrity rules (A004/A007/A012), and checks every
    /// plan the schedule cache is serving for this app's current
    /// generation against the candidate's blocks with
    /// [`LevelConfig::violations`] (rule X006). Returns the audited system
    /// or the first rejecting rule code, `None` when the file never
    /// deserialized far enough to audit. The code lands in the
    /// `serve.reload.reject[..]` counter name and, numerically encoded,
    /// in the `serve.reload` event.
    fn audit_candidate(
        &self,
        app: &str,
        entry: &ModelEntry,
        path: &Path,
    ) -> Result<TrainedOpprox, Option<&'static str>> {
        let json = std::fs::read_to_string(path).map_err(|_| None)?;
        let trained = TrainedOpprox::from_json(&json).map_err(|_| None)?;
        if let Some(issue) = trained.integrity_issues().into_iter().next() {
            return Err(Some(issue.kind.rule_code()));
        }
        // Every (block, level) a cached plan of the serving generation
        // selects must stay inside the candidate's trained level space,
        // or in-flight clients would hold schedules the new model never
        // covered.
        let cache = self.cache.lock().expect("plan cache lock");
        for (key, reply) in cache.iter() {
            if key.app != app || key.generation != entry.generation {
                continue;
            }
            for levels in &reply.levels {
                let config = LevelConfig::new(levels.iter().map(|&l| l.min(255) as u8).collect());
                if !config.violations(trained.blocks()).is_empty() {
                    return Err(Some("X006"));
                }
            }
        }
        Ok(trained)
    }

    // -- request handling ---------------------------------------------

    /// Handles a request against the current model snapshot.
    pub fn handle(&self, req: &ApiRequest) -> ApiResponse {
        self.handle_with_models(&self.snapshot(), req)
    }

    /// Handles a request against an explicit model snapshot. The server
    /// takes one snapshot per frame; tests take one, trigger a reload,
    /// and then complete the "in-flight" request against the old
    /// snapshot to prove reloads never drop running work.
    ///
    /// Runs on any connection thread, so it records no span or event
    /// (§10's orchestrating-thread contract): each op's handle time goes
    /// into its fixed-bucket `serve.handle_us.*` histogram instead.
    pub fn handle_with_models(&self, models: &ModelMap, req: &ApiRequest) -> ApiResponse {
        self.tele.incr("serve.requests");
        let result = match req {
            ApiRequest::Optimize(p) => {
                self.tele.incr("serve.optimize");
                self.timed("serve.handle_us.optimize", || {
                    self.handle_optimize(models, p)
                })
            }
            ApiRequest::Adaptive(p) => {
                self.tele.incr("serve.adaptive");
                self.timed("serve.handle_us.adaptive", || {
                    self.handle_adaptive(models, p)
                })
            }
            ApiRequest::Predict(p) => {
                self.tele.incr("serve.predict");
                self.timed("serve.handle_us.predict", || self.handle_predict(models, p))
            }
            ApiRequest::Health => {
                self.tele.incr("serve.health");
                Ok(self.handle_health(models))
            }
            ApiRequest::Metrics => Ok(self.handle_metrics()),
            ApiRequest::Shutdown => {
                self.begin_shutdown();
                Ok(ApiResponse::Shutdown)
            }
        };
        match result {
            Ok(resp) => resp,
            Err(e) => {
                self.tele.incr("serve.errors");
                ApiResponse::from_error(&e)
            }
        }
    }

    /// Runs `f` and records its duration, in clock microseconds, into
    /// the fixed-bucket histogram `name`.
    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.tele.clock().now_micros();
        let out = f();
        let micros = self.tele.clock().now_micros().saturating_sub(start);
        self.tele.observe(name, HANDLE_US_BOUNDS, micros as f64);
        out
    }

    fn entry<'m>(
        &self,
        models: &'m ModelMap,
        app: &str,
    ) -> Result<&'m Arc<ModelEntry>, OpproxError> {
        models
            .get(&app.to_ascii_lowercase())
            .ok_or_else(|| OpproxError::UnknownApp {
                given: app.to_string(),
                available: models.keys().cloned().collect::<Vec<_>>().join(", "),
            })
    }

    fn handle_optimize(
        &self,
        models: &ModelMap,
        p: &OptimizeParams,
    ) -> Result<ApiResponse, OpproxError> {
        let entry = self.entry(models, &p.app)?;
        let trained = &entry.trained;
        let input = InputParams::new(p.input.clone());
        let spec = AccuracySpec::try_new(p.budget)?;

        let cache_key = (!p.validate).then(|| PlanKey {
            app: p.app.to_ascii_lowercase(),
            generation: entry.generation,
            input_bits: p.input.iter().map(|x| x.to_bits()).collect(),
            budget_bits: p.budget.to_bits(),
            point: p.point,
        });
        if let Some(mut hit) = cache_key.as_ref().and_then(|key| self.cache_get(key)) {
            self.tele.incr("serve.cache.hit");
            hit.cached = true;
            return Ok(ApiResponse::Optimize(hit));
        }
        // Only inputs that classify are ever cached; an input that does
        // not is refused here, before it counts as a miss.
        trained.models().control_flow().predict(&input)?;
        if cache_key.is_some() {
            self.tele.incr("serve.cache.miss");
        }

        let conservatism = if p.point {
            Conservatism::Point
        } else {
            Conservatism::Band
        };
        let outcome = if p.validate {
            // Validation executes the application for real.
            let app = executable_app(&p.app)?;
            let engine = request_engine(p.max_retries, p.backoff_ms, p.eval_timeout_ms);
            let mut req = OptimizeRequest::new(input, spec)
                .conservatism(conservatism)
                .validate_on(app.as_ref())
                .engine(&engine);
            if let Some(n) = p.validation_budget {
                req = req.validation_budget(n as usize);
            }
            req.run(trained)?
        } else {
            OptimizeRequest::new(input, spec)
                .conservatism(conservatism)
                .run(trained)?
        };

        let reply = OptimizeReply {
            app: p.app.clone(),
            generation: entry.generation,
            path: match outcome.path {
                OptimizePath::ModelOnly => "model_only",
                OptimizePath::Validated => "validated",
                OptimizePath::AccurateFallback => "accurate_fallback",
                OptimizePath::Adaptive => "adaptive",
            }
            .to_string(),
            levels: level_rows(&outcome.plan.schedule),
            predicted_speedup: outcome.plan.predicted_speedup,
            predicted_qos: outcome.plan.predicted_qos,
            candidates_tried: outcome.candidates_tried as u64,
            cached: false,
            measured: outcome.measured.map(MeasuredReply::from),
        };
        if let Some(key) = cache_key {
            self.cache_put(key, reply.clone());
        }
        Ok(ApiResponse::Optimize(reply))
    }

    fn handle_adaptive(
        &self,
        models: &ModelMap,
        p: &AdaptiveParams,
    ) -> Result<ApiResponse, OpproxError> {
        let entry = self.entry(models, &p.app)?;
        let trained = &entry.trained;
        let input = InputParams::new(p.input.clone());
        let spec = AccuracySpec::try_new(p.budget)?;

        // The controller executes the application for real, like the
        // validated optimize path.
        let app = executable_app(&p.app)?;
        let engine = request_engine(p.max_retries, p.backoff_ms, p.eval_timeout_ms);

        let mut options = ControlOptions {
            resegment: p.resegment,
            ..ControlOptions::default()
        };
        if let Some(t) = p.tolerance {
            options.drift_tolerance = t;
        }
        if let (Some(phase), Some(factor)) = (p.drift_phase, p.drift_factor) {
            options.inject = Some(DriftInjection {
                phase: usize::try_from(phase).unwrap_or(usize::MAX),
                factor,
                block: p
                    .drift_block
                    .map(|b| usize::try_from(b).unwrap_or(usize::MAX)),
            });
        }

        let outcome = OptimizeRequest::new(input, spec)
            .validate_on(app.as_ref())
            .engine(&engine)
            .adaptive(options)
            .run(trained)?;
        let control = outcome
            .control
            .expect("adaptive path always carries its control summary");
        Ok(ApiResponse::Adaptive(AdaptiveReply {
            app: p.app.clone(),
            generation: entry.generation,
            levels: level_rows(&outcome.plan.schedule),
            predicted_speedup: outcome.plan.predicted_speedup,
            predicted_qos: outcome.plan.predicted_qos,
            steps: control.steps.len() as u64,
            replans: control.replans as u64,
            resegmented: control.resegmented,
            degraded: control.degraded,
            budget_reclaimed: control.budget_reclaimed,
            budget_redistributed: control.budget_redistributed,
            measured: outcome.measured.map(MeasuredReply::from),
        }))
    }

    fn handle_predict(
        &self,
        models: &ModelMap,
        p: &PredictParams,
    ) -> Result<ApiResponse, OpproxError> {
        let entry = self.entry(models, &p.app)?;
        let trained = &entry.trained;
        let phase = usize::try_from(p.phase).unwrap_or(usize::MAX);
        if phase >= trained.num_phases() {
            return Err(OpproxError::BadRequest(format!(
                "phase {} out of range (app `{}` has {} phases)",
                p.phase,
                p.app,
                trained.num_phases()
            )));
        }
        let num_blocks = trained.blocks().len();
        let configs = p
            .configs
            .iter()
            .map(|row| {
                if row.len() != num_blocks {
                    return Err(OpproxError::BadRequest(format!(
                        "config has {} levels, app `{}` has {} blocks",
                        row.len(),
                        p.app,
                        num_blocks
                    )));
                }
                let levels = row
                    .iter()
                    .map(|&l| {
                        u8::try_from(l).map_err(|_| {
                            OpproxError::BadRequest(format!("level {l} exceeds the u8 range"))
                        })
                    })
                    .collect::<Result<Vec<u8>, OpproxError>>()?;
                Ok(LevelConfig::new(levels))
            })
            .collect::<Result<Vec<_>, OpproxError>>()?;
        let input = InputParams::new(p.input.clone());
        let class = trained.models().control_flow().predict(&input)?;
        // One flat pass through the batched predictor for the whole
        // frame; the reply carries the conservative half of each pair.
        let predictions = trained
            .models()
            .predict_pair_batch(&input, phase, &configs)?;
        Ok(ApiResponse::Predict(PredictReply {
            app: p.app.clone(),
            generation: entry.generation,
            class: class as u64,
            predictions: predictions
                .into_iter()
                .map(|(_, pr)| PredictionReply {
                    speedup: pr.speedup,
                    qos: pr.qos,
                    iters: pr.iters,
                })
                .collect(),
        }))
    }

    fn handle_health(&self, models: &ModelMap) -> ApiResponse {
        ApiResponse::Health(HealthReply {
            apps: models.keys().cloned().collect(),
            generation: self.generation(),
            queue_depth: self.waiting() as u64,
            queue_limit: self.options.queue_limit as u64,
            threads: self.options.threads as u64,
            uptime_micros: self
                .tele
                .clock()
                .now_micros()
                .saturating_sub(self.start_micros),
        })
    }

    fn handle_metrics(&self) -> ApiResponse {
        ApiResponse::Metrics(MetricsReply {
            report: self.tele.report().to_value(),
        })
    }

    // -- plan cache ---------------------------------------------------

    fn cache_get(&self, key: &PlanKey) -> Option<OptimizeReply> {
        self.cache
            .lock()
            .expect("plan cache lock")
            .get(key)
            .cloned()
    }

    fn cache_put(&self, key: PlanKey, reply: OptimizeReply) {
        self.cache
            .lock()
            .expect("plan cache lock")
            .insert(key, reply);
    }

    // -- admission ---------------------------------------------------

    /// Admission control, without blocking: a [`Permit`] that answers
    /// the frame, or the refusal to send instead. `health` is exempt
    /// from the bound so liveness probes answer under overload;
    /// `metrics` and `shutdown` are control-plane and go through
    /// [`ServeState::handle`] directly.
    ///
    /// # Errors
    ///
    /// [`OpproxError::Unavailable`] after [`ServeState::begin_shutdown`];
    /// [`OpproxError::Overloaded`] while `queue_limit` frames are
    /// already waiting for a handling slot.
    pub fn admit<'s>(&'s self, req: &'s ApiRequest) -> Result<Permit<'s>, OpproxError> {
        if self.is_shutdown() {
            return Err(OpproxError::Unavailable(
                "server is shutting down".to_string(),
            ));
        }
        let mut slots = self.slots.lock().expect("slot gate lock");
        let depth = slots.waiting;
        if !matches!(req, ApiRequest::Health) && depth >= self.options.queue_limit {
            drop(slots);
            self.tele.incr("serve.shed");
            return Err(OpproxError::Overloaded {
                depth,
                limit: self.options.queue_limit,
            });
        }
        slots.waiting += 1;
        drop(slots);
        self.tele.incr("serve.admitted");
        Ok(Permit {
            state: self,
            req,
            seated: false,
        })
    }

    /// Admitted frames still waiting for a handling slot.
    fn waiting(&self) -> usize {
        self.slots.lock().expect("slot gate lock").waiting
    }

    /// One tick of the admission ledger: sets the `serve.queue_depth`
    /// gauge to the frames waiting for a slot, and records the sheds
    /// since the previous tick as one `serve.admission` event. Lint
    /// A018 cross-checks these events against the `serve.shed` counter
    /// in exported traces. Events are ordered, so one orchestrating
    /// thread ticks: the [`Server`]'s reload poller, then
    /// [`Server::stop`] once every other server thread has exited.
    pub fn admission_tick(&self) {
        let depth = self.waiting();
        self.tele.set_gauge("serve.queue_depth", depth as f64);
        let shed_total = self.tele.counter_value("serve.shed");
        let last_shed = self.ledger_shed.swap(shed_total, Ordering::SeqCst);
        if shed_total > last_shed {
            self.tele.event(
                "serve.admission",
                &[
                    ("shed", (shed_total - last_shed) as f64),
                    ("queue_limit", self.options.queue_limit as f64),
                    ("queue_depth", depth as f64),
                ],
            );
        }
    }

    /// Parses one wire line and answers it on the calling thread:
    /// control-plane frames (`metrics`, `shutdown`) and parse failures
    /// are answered at once, everything else goes through admission
    /// control and the handling gate. Returns the response wire line
    /// (no trailing newline).
    pub fn serve_line(&self, line: &str) -> String {
        let req = match ApiRequest::parse(line) {
            Ok(req) => req,
            Err(e) => {
                self.tele.incr("serve.errors");
                return ApiResponse::from_error(&e).to_wire();
            }
        };
        let resp = match req {
            ApiRequest::Metrics | ApiRequest::Shutdown => self.handle(&req),
            _ => match self.admit(&req) {
                Ok(permit) => permit.answer(),
                Err(refusal) => ApiResponse::from_error(&refusal),
            },
        };
        resp.to_wire()
    }
}

/// An admitted frame. It counts as waiting until [`Permit::answer`]
/// takes a handling slot; dropping an unanswered permit withdraws it.
pub struct Permit<'s> {
    state: &'s ServeState,
    req: &'s ApiRequest,
    seated: bool,
}

impl Permit<'_> {
    /// Waits for one of the `threads` handling slots, then answers the
    /// frame on the calling thread against the current model snapshot.
    pub fn answer(mut self) -> ApiResponse {
        let state = self.state;
        let threads = state.options.threads.max(1);
        let mut slots = state.slots.lock().expect("slot gate lock");
        while slots.busy >= threads {
            slots = state.slot_freed.wait(slots).expect("slot gate lock");
        }
        slots.waiting -= 1;
        slots.busy += 1;
        drop(slots);
        self.seated = true;
        state.handle(self.req)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        // Runs while a panicking handler unwinds, so it must not panic.
        // Every gate update is a single counter step, so a poisoned
        // guard still holds valid counts.
        let mut slots = self
            .state
            .slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if self.seated {
            slots.busy -= 1;
            drop(slots);
            self.state.slot_freed.notify_one();
        } else {
            slots.waiting -= 1;
        }
    }
}

/// The executable implementation of `app`, for the paths that run the
/// application for real.
fn executable_app(app: &str) -> Result<Box<dyn ApproxApp>, OpproxError> {
    opprox_apps::registry::by_name(app).ok_or_else(|| {
        OpproxError::Unavailable(format!(
            "app `{app}` has a trained artifact but no executable implementation"
        ))
    })
}

/// A private single-threaded engine carrying a request's own recovery
/// knobs (the concurrency budget belongs to the handling gate).
fn request_engine(
    max_retries: Option<u64>,
    backoff_ms: Option<u64>,
    eval_timeout_ms: Option<u64>,
) -> EvalEngine {
    let mut policy = RecoveryPolicy::default();
    if let Some(r) = max_retries {
        policy.max_retries = u32::try_from(r).unwrap_or(u32::MAX);
    }
    if let Some(b) = backoff_ms {
        policy.backoff_base_ms = b;
    }
    if let Some(t) = eval_timeout_ms {
        policy.eval_timeout_ms = Some(t);
    }
    EvalEngine::with_recovery(1, policy)
}

/// The per-phase level rows of a schedule, as the wire carries them.
fn level_rows(schedule: &PhaseSchedule) -> Vec<Vec<u64>> {
    schedule
        .configs()
        .iter()
        .map(|c| c.levels().iter().map(|&l| u64::from(l)).collect())
        .collect()
}

impl From<MeasuredOutcome> for MeasuredReply {
    fn from(m: MeasuredOutcome) -> Self {
        MeasuredReply {
            speedup: m.speedup,
            qos: m.qos,
            outer_iters: m.outer_iters,
        }
    }
}

/// Numeric encoding of a rule code for event fields (events carry only
/// `f64`s): the series letter maps to a thousands digit (A = 1000,
/// C = 2000, X = 3000) and the code's number is added, so `A004` is
/// `1004.0` and `X006` is `3006.0`. `0.0` means "no rule" — the
/// candidate was unreadable or not valid JSON.
fn rule_field(code: Option<&str>) -> f64 {
    let Some(code) = code else {
        return 0.0;
    };
    let series = match code.as_bytes().first() {
        Some(b'A') => 1000.0,
        Some(b'C') => 2000.0,
        Some(b'X') => 3000.0,
        _ => 9000.0,
    };
    series + code[1..].parse::<f64>().unwrap_or(0.0)
}

/// (mtime, len) of a file, `None` when it cannot be stat'ed.
fn file_id(path: &Path) -> Option<(SystemTime, u64)> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.len()))
}

/// The running TCP server: the accept thread, one thread per
/// connection, and the reload/ledger thread around a shared
/// [`ServeState`].
pub struct Server {
    state: Arc<ServeState>,
    addr: SocketAddr,
    listener: Option<std::thread::JoinHandle<()>>,
    reloader: Option<std::thread::JoinHandle<()>>,
    connections: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Binds the configured address and starts the accept and
    /// reload/ledger threads.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(state: Arc<ServeState>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&state.options().addr)?;
        let addr = listener.local_addr()?;
        let connections: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));

        let reloader = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                let step = Duration::from_millis(20);
                let mut elapsed = Duration::ZERO;
                let period = Duration::from_millis(state.options().reload_poll_ms.max(1));
                while !state.is_shutdown() {
                    std::thread::sleep(step);
                    state.admission_tick();
                    elapsed += step;
                    if elapsed >= period {
                        elapsed = Duration::ZERO;
                        state.poll_reload();
                    }
                }
            })
        };
        let accept_handle = {
            let state = Arc::clone(&state);
            let connections = Arc::clone(&connections);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if state.is_shutdown() {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let state = Arc::clone(&state);
                    let handle = std::thread::spawn(move || handle_connection(&state, stream));
                    let mut live = connections.lock().expect("connection list lock");
                    // Drop the handles of closed connections, so the list
                    // holds the live connections, not every one ever made.
                    live.retain(|h| !h.is_finished());
                    live.push(handle);
                }
            })
        };
        Ok(Server {
            state,
            addr,
            listener: Some(accept_handle),
            reloader: Some(reloader),
            connections,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a shutdown is requested (a `shutdown` frame, or
    /// [`ServeState::begin_shutdown`] from another thread), then joins
    /// every server thread.
    pub fn run_until_shutdown(mut self) {
        while !self.state.is_shutdown() {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.stop();
    }

    /// Requests a shutdown, joins every server thread, and closes the
    /// admission ledger with a final tick. Idempotent.
    pub fn stop(&mut self) {
        self.state.begin_shutdown();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = {
            let mut guard = self.connections.lock().expect("connection list lock");
            guard.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        if let Some(h) = self.reloader.take() {
            let _ = h.join();
        }
        self.state.admission_tick();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One connection: line in, line out, until EOF or shutdown. Reads use
/// a short timeout so the thread notices a shutdown even while idle. A
/// frame that is not UTF-8 is answered with `bad_request`; one longer
/// than [`MAX_FRAME_BYTES`] is refused with `bad_request` and ends the
/// connection.
fn handle_connection(state: &ServeState, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    // Frames are tiny; without TCP_NODELAY, Nagle + delayed ACKs add
    // tens of milliseconds to every request/reply exchange.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    // Raw bytes, so a read that stops inside a multi-byte character (at
    // the cap or at a timeout) loses nothing.
    let mut frame = Vec::new();
    loop {
        // A partial frame from a timed-out read counts against the cap.
        let room = (MAX_FRAME_BYTES - frame.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut frame) {
            Ok(0) => break,
            Ok(_) if frame.len() >= MAX_FRAME_BYTES && !frame.ends_with(b"\n") => {
                refuse_oversized_frame(state, &mut reader, &mut writer);
                break;
            }
            Ok(_) => {
                let reply = match std::str::from_utf8(&frame) {
                    Ok(line) if line.trim().is_empty() => {
                        frame.clear();
                        continue;
                    }
                    Ok(line) => state.serve_line(line),
                    Err(_) => {
                        state.tele.incr("serve.errors");
                        let err = OpproxError::BadRequest("frame is not valid UTF-8".into());
                        ApiResponse::from_error(&err).to_wire()
                    }
                };
                if writer.write_all(reply.as_bytes()).is_err()
                    || writer.write_all(b"\n").is_err()
                    || writer.flush().is_err()
                {
                    break;
                }
                frame.clear();
            }
            Err(e) if is_timeout(&e) => {
                // A partial frame (no newline yet) stays in `frame` and
                // the next read keeps appending to it.
                if state.is_shutdown() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// How long the server keeps discarding input after refusing an
/// oversized frame, before it closes the connection.
const REFUSAL_DRAIN: Duration = Duration::from_secs(1);

/// Answers an oversized frame with one `bad_request`, closes the write
/// half, and then discards what the peer still sends, until EOF or for
/// at most [`REFUSAL_DRAIN`]. A socket closed with unread input sends a
/// reset, which can fail the peer's write and destroy the reply before
/// the peer reads it.
fn refuse_oversized_frame(
    state: &ServeState,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
) {
    state.tele.incr("serve.errors");
    let refusal = OpproxError::BadRequest(format!(
        "frame exceeds {MAX_FRAME_BYTES} bytes without a newline"
    ));
    let reply = ApiResponse::from_error(&refusal).to_wire();
    let _ = writer.write_all(reply.as_bytes());
    let _ = writer.write_all(b"\n");
    let _ = writer.flush();
    let _ = writer.shutdown(Shutdown::Write);
    let deadline = Instant::now() + REFUSAL_DRAIN;
    let mut sink = [0u8; 8192];
    while Instant::now() < deadline && !state.is_shutdown() {
        match reader.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {}
            Err(_) => break,
        }
    }
}

/// Whether a read failed only because the socket's read timeout expired.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Opprox, TrainingOptions};
    use crate::sampling::SamplingPlan;
    use opprox_apps::Pso;

    fn trained() -> TrainedOpprox {
        let options = TrainingOptions {
            num_phases: Some(2),
            sampling: SamplingPlan {
                num_phases: 2,
                sparse_samples: 8,
                seed: 5,
            },
            ..TrainingOptions::default()
        };
        Opprox::train(&Pso::new(), &options).unwrap()
    }

    fn state_with_pso() -> ServeState {
        let state = ServeState::new(ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        });
        state.install(trained(), None);
        state
    }

    #[test]
    fn optimize_and_predict_answer_in_process() {
        let state = state_with_pso();
        let req = ApiRequest::Optimize(OptimizeParams::new("pso", vec![16.0, 3.0], 10.0));
        let ApiResponse::Optimize(reply) = state.handle(&req) else {
            panic!("expected an optimize reply");
        };
        assert_eq!(reply.app, "pso");
        assert_eq!(reply.path, "model_only");
        assert_eq!(reply.generation, 1);
        assert!(!reply.cached);

        let ApiResponse::Predict(pred) = state.handle(&ApiRequest::Predict(PredictParams {
            app: "pso".to_string(),
            input: vec![16.0, 3.0],
            phase: 0,
            configs: vec![vec![0, 0, 0], vec![1, 2, 1]],
        })) else {
            panic!("expected a predict reply");
        };
        assert_eq!(pred.predictions.len(), 2);
        assert!(pred.predictions[1].speedup >= 1.0 || pred.predictions[1].speedup > 0.0);
    }

    #[test]
    fn plan_cache_hits_on_repeat_and_misses_after_reload() {
        let state = state_with_pso();
        let req = ApiRequest::Optimize(OptimizeParams::new("pso", vec![16.0, 3.0], 10.0));
        let first = state.handle(&req);
        let second = state.handle(&req);
        let (ApiResponse::Optimize(a), ApiResponse::Optimize(b)) = (first, second) else {
            panic!("expected optimize replies");
        };
        assert!(!a.cached);
        assert!(b.cached);
        assert_eq!(a.levels, b.levels);
        assert_eq!(state.telemetry().counter_value("serve.cache.hit"), 1);
        // A reload bumps the generation, invalidating the cached plan.
        state.install(trained(), None);
        let ApiResponse::Optimize(c) = state.handle(&req) else {
            panic!("expected an optimize reply");
        };
        assert!(!c.cached);
        assert_eq!(c.generation, 2);
    }

    #[test]
    fn unknown_app_and_bad_phase_map_to_wire_errors() {
        let state = state_with_pso();
        let resp = state.handle(&ApiRequest::Optimize(OptimizeParams::new(
            "nope",
            vec![1.0],
            5.0,
        )));
        let ApiResponse::Error { code, message } = resp else {
            panic!("expected an error");
        };
        assert_eq!(code, crate::api::WireCode::UnknownApp);
        assert!(message.contains("pso"));

        let resp = state.handle(&ApiRequest::Predict(PredictParams {
            app: "pso".to_string(),
            input: vec![16.0, 3.0],
            phase: 99,
            configs: vec![],
        }));
        let ApiResponse::Error { code, .. } = resp else {
            panic!("expected an error");
        };
        assert_eq!(code, crate::api::WireCode::BadRequest);
    }

    fn bare_server() -> (Arc<ServeState>, Server) {
        let state = Arc::new(ServeState::new(ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        }));
        let server = Server::start(Arc::clone(&state)).expect("start server");
        (state, server)
    }

    #[test]
    fn oversized_frames_are_refused_over_tcp_and_close_the_connection() {
        let (state, mut server) = bare_server();

        // A frame of exactly the cap, newline included, is still served.
        let mut padded = ApiRequest::Health.to_wire();
        padded.push_str(&" ".repeat(MAX_FRAME_BYTES - 1 - padded.len()));
        padded.push('\n');
        assert_eq!(padded.len(), MAX_FRAME_BYTES);
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        // Fail rather than hang if the server keeps waiting for a newline.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        stream
            .write_all(padded.as_bytes())
            .expect("send padded frame");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("padded reply");
        assert!(
            matches!(
                ApiResponse::parse(reply.trim_end()),
                Ok(ApiResponse::Health(_))
            ),
            "{reply}"
        );

        drop(reader);
        drop(stream);

        // The cap's worth of bytes with no newline, a 2 MiB line, and a
        // cap that falls inside a two-byte character are each refused.
        let mut split = vec![b'x'; MAX_FRAME_BYTES - 1];
        split.extend_from_slice("é".as_bytes());
        let mut long_line = vec![b'x'; 2 * MAX_FRAME_BYTES];
        long_line.push(b'\n');
        for frame in [vec![b'x'; MAX_FRAME_BYTES], long_line, split] {
            assert_refused(server.addr(), &frame);
        }
        assert_eq!(state.telemetry().counter_value("serve.errors"), 3);
        server.stop();
    }

    /// Sends `frame` on a new connection and expects one `bad_request`,
    /// then EOF. The whole frame must be accepted first: the server
    /// reads what follows the cap instead of resetting the connection.
    fn assert_refused(addr: SocketAddr, frame: &[u8]) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        stream.write_all(frame).expect("send oversized frame");
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("refusal");
        let Ok(ApiResponse::Error { code, .. }) = ApiResponse::parse(reply.trim_end()) else {
            panic!("expected an error frame, got {reply}");
        };
        assert_eq!(code, crate::api::WireCode::BadRequest);
        reply.clear();
        assert_eq!(reader.read_line(&mut reply).expect("eof"), 0, "{reply}");
    }

    #[test]
    fn non_utf8_frame_is_a_bad_request_and_keeps_the_connection() {
        let (state, mut server) = bare_server();
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        stream
            .write_all(b"{\"op\":\"\xff\"}\n")
            .expect("send frame");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        let Ok(ApiResponse::Error { code, .. }) = ApiResponse::parse(reply.trim_end()) else {
            panic!("expected an error frame, got {reply}");
        };
        assert_eq!(code, crate::api::WireCode::BadRequest);
        let health = format!("{}\n", ApiRequest::Health.to_wire());
        stream.write_all(health.as_bytes()).expect("send health");
        reply.clear();
        reader.read_line(&mut reply).expect("health reply");
        assert!(reply.contains("health"), "{reply}");
        assert_eq!(state.telemetry().counter_value("serve.errors"), 1);
        server.stop();
    }

    #[test]
    fn finished_connection_threads_are_reaped_on_accept() {
        let (_state, mut server) = bare_server();
        let health = format!("{}\n", ApiRequest::Health.to_wire());
        for cycle in 0..200 {
            // Wait for every earlier connection thread to return, so this
            // accept must reap all of them whatever the scheduling.
            let deadline = Instant::now() + Duration::from_secs(10);
            while !server
                .connections
                .lock()
                .expect("connection list")
                .iter()
                .all(|h| h.is_finished())
            {
                assert!(
                    Instant::now() < deadline,
                    "cycle {cycle}: a thread never returned"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            stream.write_all(health.as_bytes()).expect("send health");
            let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("health reply");
            assert!(reply.contains("health"), "{reply}");
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("close write half");
            reply.clear();
            assert_eq!(reader.read_line(&mut reply).expect("eof"), 0);
            // This connection's handle, or, if the accept loop has not
            // yet pushed it, the one finished handle it will reap.
            let tracked = server.connections.lock().expect("connection list").len();
            assert!(tracked <= 1, "cycle {cycle}: {tracked} handles kept");
        }
        server.stop();
    }

    /// Rewrites every value stored under `key`, anywhere in the tree
    /// (local copy of the testutil mutator — core cannot depend on
    /// opprox-testutil without a dev-dependency cycle).
    fn rewrite_key(value: &mut serde::value::Value, key: &str, to: &serde::value::Value) {
        use serde::value::Value;
        match value {
            Value::Object(entries) => {
                for (k, v) in entries.iter_mut() {
                    if k == key {
                        *v = to.clone();
                    } else {
                        rewrite_key(v, key, to);
                    }
                }
            }
            Value::Array(items) => {
                for item in items.iter_mut() {
                    rewrite_key(item, key, to);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn reload_audit_rejects_corrupt_and_uncovering_candidates() {
        use crate::telemetry::ManualClock;
        use serde::value::{Number, Value};

        let dir = std::env::temp_dir().join(format!("opprox-serve-reload-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let healthy = trained();
        std::fs::write(&path, healthy.to_json().unwrap()).unwrap();

        let clock = Arc::new(ManualClock::default());
        let state = ServeState::with_clock(
            ServeOptions {
                threads: 1,
                ..ServeOptions::default()
            },
            clock.clone(),
        );
        state.load_artifact(&path).unwrap();
        assert_eq!(state.generation(), 1);

        // Populate the plan cache so the X006 cross-check has a served
        // schedule to pair with reload candidates.
        let req = ApiRequest::Optimize(OptimizeParams::new("pso", vec![16.0, 3.0], 10.0));
        let ApiResponse::Optimize(reply) = state.handle(&req) else {
            panic!("expected an optimize reply");
        };
        assert!(
            reply.levels.iter().flatten().any(|&l| l > 0),
            "the cached plan must approximate something: {:?}",
            reply.levels
        );

        // 1. Integrity rejection (A007): a negative band half-width
        //    survives the JSON text round-trip, so it can reach disk.
        let mut v = serde_json::parse_value(&healthy.to_json().unwrap()).unwrap();
        let mut poisoned = false;
        rewrite_first(&mut v, "half_width", &mut poisoned);
        assert!(poisoned, "fixture must carry a confidence band");
        std::fs::write(&path, v.render_compact()).unwrap();
        clock.advance_micros(10);
        assert_eq!(
            state.poll_reload(),
            0,
            "the corrupt candidate must not swap"
        );
        assert_eq!(state.generation(), 1, "the old artifact stays installed");
        assert_eq!(
            state.telemetry().counter_value("serve.reload.reject[A007]"),
            1
        );

        // 2. Coverage rejection (X006): a structurally clean candidate
        //    whose level space no longer covers the cached plan.
        let mut v = serde_json::parse_value(&healthy.to_json().unwrap()).unwrap();
        rewrite_key(&mut v, "max_level", &Value::Number(Number::U64(0)));
        std::fs::write(&path, v.render_compact()).unwrap();
        clock.advance_micros(10);
        assert_eq!(state.poll_reload(), 0);
        assert_eq!(
            state.telemetry().counter_value("serve.reload.reject[X006]"),
            1
        );

        // A refused file is audited once per change, not on every poll.
        for _ in 0..2 {
            clock.advance_micros(10);
            assert_eq!(state.poll_reload(), 0);
        }
        assert_eq!(
            state.telemetry().counter_value("serve.reload.reject[X006]"),
            1
        );
        let report = state.telemetry().report();
        assert_eq!(report.events_named("serve.reload").len(), 2);

        // 3. A healthy rewrite passes the audit, swaps, and closes the
        //    ledger with an acceptance event.
        std::fs::write(&path, healthy.to_json().unwrap()).unwrap();
        clock.advance_micros(10);
        assert_eq!(state.poll_reload(), 1);
        assert_eq!(state.generation(), 2);
        let report = state.telemetry().report();
        let events = report.events_named("serve.reload");
        assert_eq!(events.len(), 3, "one ledger event per poll outcome");
        assert_eq!(events[0].field("accepted"), Some(0.0));
        assert_eq!(
            events[0].field("rule"),
            Some(1007.0),
            "A007 encodes as 1007"
        );
        assert_eq!(
            events[1].field("rule"),
            Some(3006.0),
            "X006 encodes as 3006"
        );
        assert_eq!(events[2].field("accepted"), Some(1.0));
        assert_eq!(events[2].field("rule"), Some(0.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Sets the first `half_width` in the tree to `-2.5` (tree order).
    fn rewrite_first(value: &mut serde::value::Value, key: &str, done: &mut bool) {
        use serde::value::{Number, Value};
        match value {
            Value::Object(entries) => {
                for (k, v) in entries.iter_mut() {
                    if *done {
                        return;
                    }
                    if k == key {
                        *v = Value::Number(Number::F64(-2.5));
                        *done = true;
                        return;
                    }
                    rewrite_first(v, key, done);
                }
            }
            Value::Array(items) => {
                for item in items.iter_mut() {
                    if *done {
                        return;
                    }
                    rewrite_first(item, key, done);
                }
            }
            _ => {}
        }
    }
}
