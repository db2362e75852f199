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
//! Serve keeps no reply cache. Every optimize frame runs an
//! [`OptimizeRequest`] (a model-only one with nothing traced, since no
//! reply carries its telemetry), and a repeated input is answered from
//! the models' per-input memo (DESIGN §13) without a prediction. A reload
//! installs a fresh model set, whose memo starts empty, and may widen the
//! level space but never narrow it (see `audit_candidate`).

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

/// Occupancy of the handling gate: admitted frames still waiting for a
/// slot, and slots in use.
#[derive(Debug, Default)]
struct Slots {
    waiting: usize,
    busy: usize,
}

/// The shared state of a serving instance: model store, handling gate,
/// and telemetry registry. [`Server`] wraps it with the TCP
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
            match Self::audit_candidate(entry, path) {
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
    /// Error-severity integrity rules (A004/A007/A012), and refuses with
    /// rule X006 a candidate whose blocks do not cover the serving
    /// generation's level space: its top corner, every block at its
    /// `max_level`, must pass [`LevelConfig::violations`] against the
    /// candidate's blocks. Every plan a generation returns lies inside
    /// its level space, so a reload may widen that space but never narrow
    /// it. Returns the audited system or the first rejecting rule code,
    /// `None` when the file never deserialized far enough to audit. The
    /// code lands in the `serve.reload.reject[..]` counter name and,
    /// numerically encoded, in the `serve.reload` event.
    fn audit_candidate(
        entry: &ModelEntry,
        path: &Path,
    ) -> Result<TrainedOpprox, Option<&'static str>> {
        let json = std::fs::read_to_string(path).map_err(|_| None)?;
        let trained = TrainedOpprox::from_json(&json).map_err(|_| None)?;
        if let Some(issue) = trained.integrity_issues().into_iter().next() {
            return Err(Some(issue.kind.rule_code()));
        }
        let top = LevelConfig::new(entry.trained.blocks().iter().map(|b| b.max_level).collect());
        if !top.violations(trained.blocks()).is_empty() {
            return Err(Some("X006"));
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
        let policy = RecoveryPolicy::try_new(p.max_retries, p.backoff_ms, p.eval_timeout_ms)?;

        let conservatism = if p.point {
            Conservatism::Point
        } else {
            Conservatism::Band
        };
        let outcome = if p.validate {
            // Validation executes the application for real.
            let app = executable_app(&p.app)?;
            // Single-threaded: the concurrency budget belongs to the
            // handling gate.
            let engine = EvalEngine::with_recovery(1, policy);
            let mut req = OptimizeRequest::new(input, spec)
                .conservatism(conservatism)
                .validate_on(app.as_ref())
                .engine(&engine);
            if let Some(n) = p.validation_budget {
                req = req.validation_budget(n as usize);
            }
            req.run(trained)?
        } else {
            // Nothing reads a model-only frame's telemetry report, so the
            // solve records none.
            OptimizeRequest::new(input, spec)
                .conservatism(conservatism)
                .run_untraced(trained)?
        };

        Ok(ApiResponse::Optimize(OptimizeReply {
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
        }))
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
        let policy = RecoveryPolicy::try_new(p.max_retries, p.backoff_ms, p.eval_timeout_ms)?;
        let index = |i: u64| usize::try_from(i).unwrap_or(usize::MAX);
        let inject = match (p.drift_phase, p.drift_factor) {
            (Some(phase), Some(factor)) => Some(DriftInjection::try_new(
                index(phase),
                factor,
                p.drift_block.map(index),
            )?),
            _ => None,
        };
        let options = ControlOptions::try_new(p.tolerance, p.resegment, inject)?;

        // The controller executes the application for real, like the
        // validated optimize path.
        let app = executable_app(&p.app)?;
        let engine = EvalEngine::with_recovery(1, policy);

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
            .predict_pair_batch(class, &input, phase, &configs)?;
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
        let mut out = String::new();
        self.serve_line_into(line, &mut out);
        out
    }

    /// Appends [`ServeState::serve_line`]'s reply to `out`.
    fn serve_line_into(&self, line: &str, out: &mut String) {
        let req = match ApiRequest::parse(line) {
            Ok(req) => req,
            Err(e) => return self.refuse(&e, out),
        };
        let resp = match req {
            ApiRequest::Metrics | ApiRequest::Shutdown => self.handle(&req),
            _ => match self.admit(&req) {
                Ok(permit) => permit.answer(),
                Err(refusal) => ApiResponse::from_error(&refusal),
            },
        };
        resp.to_wire_into(out);
    }

    /// Counts a frame refused before any handling (unparseable, not
    /// UTF-8, or oversized) and appends its error reply to `out`.
    fn refuse(&self, err: &OpproxError, out: &mut String) {
        self.tele.incr("serve.errors");
        ApiResponse::from_error(err).to_wire_into(out);
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

/// One connection: line in, line out, until EOF or shutdown (see
/// [`serve_frames`]). Reads use a short timeout so the thread notices a
/// shutdown even while idle.
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
    if serve_frames(state, &mut reader, &mut writer) == Ended::Oversized {
        let _ = writer.shutdown(Shutdown::Write);
        drain_after_refusal(state, &mut reader);
    }
}

/// Why a connection's frame loop returned.
#[derive(Debug, PartialEq, Eq)]
enum Ended {
    /// EOF, an I/O failure, or a shutdown.
    Closed,
    /// An oversized frame was refused; the peer may still be sending it.
    Oversized,
}

/// Answers the frames read from `reader` on `writer`, in order. Each
/// reply is written into the connection's one output buffer, then sent
/// with its newline in a single write. A frame that is not UTF-8 is
/// answered with `bad_request`; one longer than [`MAX_FRAME_BYTES`] is
/// refused with `bad_request` and ends the loop.
fn serve_frames(state: &ServeState, reader: &mut impl BufRead, writer: &mut impl Write) -> Ended {
    // Raw bytes, so a read that stops inside a multi-byte character (at
    // the cap or at a timeout) loses nothing.
    let mut frame = Vec::new();
    let mut out = String::new();
    loop {
        // A partial frame from a timed-out read counts against the cap.
        let room = (MAX_FRAME_BYTES - frame.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut frame) {
            Ok(0) => return Ended::Closed,
            Ok(_) if frame.len() >= MAX_FRAME_BYTES && !frame.ends_with(b"\n") => {
                let refusal = OpproxError::BadRequest(format!(
                    "frame exceeds {MAX_FRAME_BYTES} bytes without a newline"
                ));
                state.refuse(&refusal, &mut out);
                let _ = send(writer, &mut out);
                return Ended::Oversized;
            }
            Ok(_) => {
                match std::str::from_utf8(&frame) {
                    Ok(line) if line.trim().is_empty() => {
                        frame.clear();
                        continue;
                    }
                    Ok(line) => state.serve_line_into(line, &mut out),
                    Err(_) => {
                        let err = OpproxError::BadRequest("frame is not valid UTF-8".into());
                        state.refuse(&err, &mut out);
                    }
                }
                if send(writer, &mut out).is_err() {
                    return Ended::Closed;
                }
                frame.clear();
            }
            Err(e) if is_timeout(&e) => {
                // A partial frame (no newline yet) stays in `frame` and
                // the next read keeps appending to it.
                if state.is_shutdown() {
                    return Ended::Closed;
                }
            }
            Err(_) => return Ended::Closed,
        }
    }
}

/// Sends the reply in `out` and its newline as one write, and empties
/// `out` for the next frame. On a `TCP_NODELAY` socket every write is a
/// segment of its own, and a separate newline would make the peer's
/// line read wake twice.
fn send(writer: &mut impl Write, out: &mut String) -> std::io::Result<()> {
    out.push('\n');
    let sent = writer
        .write_all(out.as_bytes())
        .and_then(|()| writer.flush());
    out.clear();
    sent
}

/// How long the server keeps discarding input after refusing an
/// oversized frame, before it closes the connection.
const REFUSAL_DRAIN: Duration = Duration::from_secs(1);

/// After an oversized frame's refusal, with the write half closed,
/// discards what the peer still sends, until EOF or for at most
/// [`REFUSAL_DRAIN`]. A socket closed with unread input sends a reset,
/// which can fail the peer's write and destroy the reply before the peer
/// reads it.
fn drain_after_refusal(state: &ServeState, reader: &mut impl Read) {
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
    fn repeated_frames_answer_from_the_memo_and_reloads_bump_the_generation() {
        let state = state_with_pso();
        let memo_sizes =
            |state: &ServeState| state.snapshot()["pso"].trained.models().memo().sizes();
        let line =
            ApiRequest::Optimize(OptimizeParams::new("pso", vec![16.0, 3.0], 10.0)).to_wire();
        let first = state.serve_line(&line);
        let warm = memo_sizes(&state);
        assert!(warm.1 > 0, "the first frame builds the input's staircases");
        let second = state.serve_line(&line);
        assert_eq!(first, second);
        assert!(first.contains(r#""cached":false"#), "{first}");
        assert_eq!(memo_sizes(&state), warm, "a repeated frame builds nothing");
        // A reload installs a new generation with a memo of its own.
        state.install(trained(), None);
        let Ok(ApiResponse::Optimize(reply)) = ApiResponse::parse(&state.serve_line(&line)) else {
            panic!("expected an optimize reply");
        };
        assert_eq!(reply.generation, 2);
        assert!(!reply.cached);
    }

    #[test]
    fn distinct_budgets_grow_nothing_but_the_inputs_memo_entry() {
        let state = state_with_pso();
        let trained = Arc::clone(&state.snapshot()["pso"].trained);
        let input = vec![16.0, 3.0];
        let ask = |budget: f64| {
            let req = ApiRequest::Optimize(OptimizeParams::new("pso", input.clone(), budget));
            let ApiResponse::Optimize(reply) = state.handle(&req) else {
                panic!("expected an optimize reply");
            };
            let direct =
                OptimizeRequest::new(InputParams::new(input.clone()), AccuracySpec::new(budget))
                    .run(&trained)
                    .unwrap();
            assert_eq!(reply.path, "model_only");
            assert!(!reply.cached);
            assert_eq!(
                reply.levels,
                level_rows(&direct.plan.schedule),
                "budget {budget}"
            );
            assert_eq!(
                (
                    reply.predicted_speedup.to_bits(),
                    reply.predicted_qos.to_bits()
                ),
                (
                    direct.plan.predicted_speedup.to_bits(),
                    direct.plan.predicted_qos.to_bits()
                ),
                "budget {budget}"
            );
        };
        let budget = |i: usize| 0.5 + i as f64 * 1e-3;
        // Training's self-check leaves its own inputs in the memo.
        let memo = || trained.models().memo().sizes();
        let (inputs, staircases) = memo();
        ask(budget(0));
        let warm = memo();
        assert!(warm.0 <= inputs + 1, "{warm:?}");
        assert_eq!(warm.1, staircases + trained.num_phases());
        // What serve's registry holds once every metric has a value.
        let shape = |r: &crate::telemetry::TelemetryReport| {
            (
                r.counters.len(),
                r.histograms.len(),
                r.timeline.len(),
                r.events.len(),
            )
        };
        let held = shape(&state.telemetry().report());
        // The removed reply cache held 16 384 replies; send 8 more
        // distinct budgets than that.
        for i in 1..16_392 {
            ask(budget(i));
        }
        assert_eq!(memo(), warm, "the memo still holds one input's staircases");
        let report = state.telemetry().report();
        assert_eq!(shape(&report), held, "serve keeps nothing per request");
        assert_eq!(report.counter("serve.optimize"), 16_392);
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

    /// A writer that keeps the bytes of each `write` call apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_reply_is_one_write_ending_in_its_newline() {
        let state = state_with_pso();
        let optimize =
            ApiRequest::Optimize(OptimizeParams::new("pso", vec![16.0, 3.0], 10.0)).to_wire();
        let predict = ApiRequest::Predict(PredictParams {
            app: "pso".to_string(),
            input: vec![16.0, 3.0],
            phase: 0,
            configs: vec![vec![0, 0, 0], vec![1, 2, 1]],
        })
        .to_wire();
        let mut input = format!("{optimize}\n{predict}\n\n").into_bytes();
        input.extend_from_slice(b"{\"op\":\"\xff\"}\n");
        input.extend_from_slice(format!("{optimize}\n").as_bytes());
        input.extend(vec![b'x'; MAX_FRAME_BYTES + 10]);
        let mut writes = Writes::default();
        let ended = serve_frames(&state, &mut input.as_slice(), &mut writes);
        assert_eq!(ended, Ended::Oversized);

        // The blank line gets no reply; every other frame gets one write.
        let replies: Vec<&str> = writes
            .0
            .iter()
            .map(|w| {
                let text = std::str::from_utf8(w).expect("replies are UTF-8");
                assert_eq!(text.find('\n'), Some(text.len() - 1), "{text:?}");
                text.trim_end()
            })
            .collect();
        assert_eq!(replies.len(), 5, "{replies:?}");
        assert_eq!(replies[0], state.serve_line(&optimize));
        assert_eq!(replies[1], state.serve_line(&predict));
        assert_eq!(replies[3], replies[0]);
        for refused in [replies[2], replies[4]] {
            let Ok(ApiResponse::Error { code, .. }) = ApiResponse::parse(refused) else {
                panic!("expected an error frame, got {refused}");
            };
            assert_eq!(code, crate::api::WireCode::BadRequest);
        }
        assert!(replies[4].contains("without a newline"), "{}", replies[4]);
        assert_eq!(state.telemetry().counter_value("serve.errors"), 2);
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

    /// Applies `edit` to the first `limit` values stored under `key`, in
    /// tree order (local copy of the testutil mutators — core cannot
    /// depend on opprox-testutil without a dev-dependency cycle).
    fn edit_key(
        value: &mut serde::value::Value,
        key: &str,
        limit: &mut usize,
        edit: &impl Fn(&mut serde::value::Value),
    ) {
        use serde::value::Value;
        match value {
            Value::Object(entries) => {
                for (k, v) in entries.iter_mut() {
                    if *limit == 0 {
                        return;
                    }
                    if k == key {
                        edit(v);
                        *limit -= 1;
                    } else {
                        edit_key(v, key, limit, edit);
                    }
                }
            }
            Value::Array(items) => {
                for item in items.iter_mut() {
                    edit_key(item, key, limit, edit);
                }
            }
            _ => {}
        }
    }

    /// `healthy`'s JSON with `edit` applied to the first `limit` values
    /// under `key`.
    fn edited(
        healthy: &TrainedOpprox,
        key: &str,
        mut limit: usize,
        edit: impl Fn(&mut serde::value::Value),
    ) -> String {
        let mut v = serde_json::parse_value(&healthy.to_json().unwrap()).unwrap();
        edit_key(&mut v, key, &mut limit, &edit);
        assert_eq!(limit, 0, "the fixture has too few `{key}` values");
        v.render_compact()
    }

    /// A `max_level` value moved by `by`.
    fn shift_level(by: i64) -> impl Fn(&mut serde::value::Value) {
        use serde::value::{Number, Value};
        move |v| {
            let level = v.as_u64().expect("max_level is an integer") as i64 + by;
            *v = Value::Number(Number::U64(level as u64));
        }
    }

    #[test]
    fn reload_audit_rejects_corrupt_and_narrowing_candidates() {
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
        let poll = |candidate: &str| {
            std::fs::write(&path, candidate).unwrap();
            clock.advance_micros(10);
            state.poll_reload()
        };
        let rejected = |code: &str| {
            state
                .telemetry()
                .counter_value(&format!("serve.reload.reject[{code}]"))
        };

        // 1. Coverage rejection (X006) with no frame ever served: one
        //    block loses its top level, so the candidate narrows the
        //    serving generation's level space.
        assert_eq!(poll(&edited(&healthy, "max_level", 1, shift_level(-1))), 0);
        assert_eq!(rejected("X006"), 1);

        // 2. Integrity rejection (A007): a negative band half-width
        //    survives the JSON text round-trip, so it can reach disk.
        let poisoned = edited(&healthy, "half_width", 1, |v| {
            *v = Value::Number(Number::F64(-2.5));
        });
        assert_eq!(poll(&poisoned), 0, "the corrupt candidate must not swap");
        assert_eq!(state.generation(), 1, "the old artifact stays installed");
        assert_eq!(rejected("A007"), 1);

        // 3. Coverage rejection after only a validated frame, whose plan
        //    serve never recorded: every block drops to level 0.
        let mut params = OptimizeParams::new("pso", vec![16.0, 3.0], 10.0);
        params.validate = true;
        params.validation_budget = Some(4);
        let ApiResponse::Optimize(reply) = state.handle(&ApiRequest::Optimize(params)) else {
            panic!("expected an optimize reply");
        };
        assert_ne!(reply.path, "model_only");
        let blocks = healthy.blocks().len();
        assert_eq!(
            poll(&edited(&healthy, "max_level", blocks, |v| {
                *v = Value::Number(Number::U64(0));
            })),
            0
        );
        assert_eq!(rejected("X006"), 2);

        // A refused file is audited once per change, not on every poll.
        for _ in 0..2 {
            clock.advance_micros(10);
            assert_eq!(state.poll_reload(), 0);
        }
        assert_eq!(rejected("X006"), 2);
        let report = state.telemetry().report();
        assert_eq!(report.events_named("serve.reload").len(), 3);

        // 4. The same artifact rewritten passes the audit and swaps.
        assert_eq!(poll(&healthy.to_json().unwrap()), 1);
        assert_eq!(state.generation(), 2);

        // 5. A candidate that widens every block's level space swaps too.
        assert_eq!(
            poll(&edited(&healthy, "max_level", blocks, shift_level(1))),
            1
        );
        assert_eq!(state.generation(), 3);

        let report = state.telemetry().report();
        let events = report.events_named("serve.reload");
        assert_eq!(events.len(), 5, "one ledger event per poll outcome");
        let rules: Vec<_> = events.iter().map(|e| e.field("rule")).collect();
        let x006 = Some(3006.0);
        assert_eq!(
            rules,
            [x006, Some(1007.0), x006, Some(0.0), Some(0.0)],
            "X006 encodes as 3006, A007 as 1007, an acceptance as 0"
        );
        let accepted: Vec<_> = events.iter().map(|e| e.field("accepted")).collect();
        assert_eq!(accepted, [0.0, 0.0, 0.0, 1.0, 1.0].map(Some));
        std::fs::remove_dir_all(&dir).ok();
    }
}
