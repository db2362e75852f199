//! The versioned wire API shared by `opprox serve` and the CLI.
//!
//! One frame is one JSON object on one line (line-delimited JSON over
//! TCP). Every frame — request or response — carries an explicit schema
//! version (`"v": 1`) and a `"kind"` discriminator; field names are part
//! of the stable protocol and never change meaning within a version.
//! Both the server ([`crate::serve`]) and the CLI construct these DTOs,
//! so [`crate::request::OptimizeRequest`] is the internal executor behind
//! exactly one public protocol.
//!
//! Serialization is canonical: a DTO always renders to the same bytes,
//! and parsing a rendered frame reproduces the DTO — so
//! `parse(render(x)) == x` and `render(parse(render(x))) == render(x)`
//! hold for every frame (property-tested in `tests/api_protocol.rs`).
//! Malformed frames are rejected with [`OpproxError::BadRequest`];
//! frames declaring a version this build does not speak are rejected
//! with [`OpproxError::UnsupportedVersion`]. Every [`OpproxError`]
//! variant maps 1:1 onto a [`WireCode`], so server responses and CLI
//! exit messages come from one enum.

use crate::error::OpproxError;
use serde::value::{render_json_string, Number, Value};

/// The protocol version this build speaks (the `"v"` field).
pub const API_VERSION: u64 = 1;

/// Stable wire error codes, mapped 1:1 from [`OpproxError`] variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireCode {
    /// [`OpproxError::Runtime`].
    RuntimeError,
    /// [`OpproxError::Model`].
    ModelError,
    /// [`OpproxError::InsufficientData`].
    InsufficientData,
    /// [`OpproxError::InvalidSpec`].
    InvalidSpec,
    /// [`OpproxError::Serialization`].
    SerializationError,
    /// [`OpproxError::InvalidModel`].
    InvalidModel,
    /// [`OpproxError::EvaluationFailed`].
    EvaluationFailed,
    /// [`OpproxError::Quarantined`].
    Quarantined,
    /// [`OpproxError::BadRequest`].
    BadRequest,
    /// [`OpproxError::UnsupportedVersion`].
    UnsupportedVersion,
    /// [`OpproxError::UnknownApp`].
    UnknownApp,
    /// [`OpproxError::Overloaded`] — the load-shed response code.
    Overloaded,
    /// [`OpproxError::Unavailable`].
    Unavailable,
    /// [`OpproxError::NonFiniteMeasurement`].
    NonFiniteMeasurement,
}

impl WireCode {
    /// The stable wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            WireCode::RuntimeError => "runtime_error",
            WireCode::ModelError => "model_error",
            WireCode::InsufficientData => "insufficient_data",
            WireCode::InvalidSpec => "invalid_spec",
            WireCode::SerializationError => "serialization_error",
            WireCode::InvalidModel => "invalid_model",
            WireCode::EvaluationFailed => "evaluation_failed",
            WireCode::Quarantined => "quarantined",
            WireCode::BadRequest => "bad_request",
            WireCode::UnsupportedVersion => "unsupported_version",
            WireCode::UnknownApp => "unknown_app",
            WireCode::Overloaded => "overloaded",
            WireCode::Unavailable => "unavailable",
            WireCode::NonFiniteMeasurement => "non_finite_measurement",
        }
    }

    /// Parses a wire spelling back into the code.
    ///
    /// # Errors
    ///
    /// Returns [`OpproxError::BadRequest`] on an unknown code.
    pub fn parse(text: &str) -> Result<Self, OpproxError> {
        ALL_CODES
            .iter()
            .copied()
            .find(|c| c.as_str() == text)
            .ok_or_else(|| OpproxError::BadRequest(format!("unknown error code `{text}`")))
    }

    /// The wire code for an error — total over [`OpproxError`], so every
    /// failure a request can hit has exactly one code on the wire.
    pub fn of(err: &OpproxError) -> Self {
        match err {
            OpproxError::Runtime(_) => WireCode::RuntimeError,
            OpproxError::Model(_) => WireCode::ModelError,
            OpproxError::InsufficientData(_) => WireCode::InsufficientData,
            OpproxError::InvalidSpec(_) => WireCode::InvalidSpec,
            OpproxError::Serialization(_) => WireCode::SerializationError,
            OpproxError::InvalidModel(_) => WireCode::InvalidModel,
            OpproxError::EvaluationFailed { .. } => WireCode::EvaluationFailed,
            OpproxError::Quarantined { .. } => WireCode::Quarantined,
            OpproxError::BadRequest(_) => WireCode::BadRequest,
            OpproxError::UnsupportedVersion { .. } => WireCode::UnsupportedVersion,
            OpproxError::UnknownApp { .. } => WireCode::UnknownApp,
            OpproxError::Overloaded { .. } => WireCode::Overloaded,
            OpproxError::Unavailable(_) => WireCode::Unavailable,
            OpproxError::NonFiniteMeasurement(_) => WireCode::NonFiniteMeasurement,
        }
    }
}

/// Every code, in declaration order (used by parsing and the exhaustive
/// round-trip test).
pub const ALL_CODES: &[WireCode] = &[
    WireCode::RuntimeError,
    WireCode::ModelError,
    WireCode::InsufficientData,
    WireCode::InvalidSpec,
    WireCode::SerializationError,
    WireCode::InvalidModel,
    WireCode::EvaluationFailed,
    WireCode::Quarantined,
    WireCode::BadRequest,
    WireCode::UnsupportedVersion,
    WireCode::UnknownApp,
    WireCode::Overloaded,
    WireCode::Unavailable,
    WireCode::NonFiniteMeasurement,
];

/// Parameters of an `optimize` request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeParams {
    /// Application name the server must hold a trained artifact for.
    pub app: String,
    /// Input parameter values.
    pub input: Vec<f64>,
    /// QoS-degradation budget.
    pub budget: f64,
    /// `true` selects point-prediction conservatism for the model-only
    /// solve (`"conservatism": "point"`); `false` the paper's default
    /// band mode.
    pub point: bool,
    /// `true` requests empirical validation with real executions.
    pub validate: bool,
    /// Cap on validation executions (server default when absent).
    pub validation_budget: Option<u64>,
    /// Per-request recovery knob: retry cap for failed evaluations.
    pub max_retries: Option<u64>,
    /// Per-request recovery knob: base backoff between retries, ms.
    pub backoff_ms: Option<u64>,
    /// Per-request recovery knob: wall-clock budget per evaluation, ms.
    pub eval_timeout_ms: Option<u64>,
}

impl OptimizeParams {
    /// A minimal model-only request for `app` with the given input and
    /// budget; every knob at its default.
    pub fn new(app: impl Into<String>, input: Vec<f64>, budget: f64) -> Self {
        OptimizeParams {
            app: app.into(),
            input,
            budget,
            point: false,
            validate: false,
            validation_budget: None,
            max_retries: None,
            backoff_ms: None,
            eval_timeout_ms: None,
        }
    }
}

/// Parameters of an `adaptive` request frame: a closed-loop controller
/// session ([`crate::control`]) that executes the plan phase-by-phase
/// and re-optimizes the remaining phases when observed work drifts out
/// of the model's confidence band.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveParams {
    /// Application name the server must hold a trained artifact for.
    pub app: String,
    /// Input parameter values.
    pub input: Vec<f64>,
    /// QoS-degradation budget.
    pub budget: f64,
    /// Drift tolerance override (server default when absent).
    pub tolerance: Option<f64>,
    /// `false` disables online BBV re-segmentation.
    pub resegment: bool,
    /// Drift-injection knob: the phase whose work is scaled.
    pub drift_phase: Option<u64>,
    /// Drift-injection knob: the work scale factor (goes with
    /// `drift_phase`).
    pub drift_factor: Option<f64>,
    /// Drift-injection knob: restrict the injection to one block.
    pub drift_block: Option<u64>,
    /// Per-request recovery knob: retry cap for failed evaluations.
    pub max_retries: Option<u64>,
    /// Per-request recovery knob: base backoff between retries, ms.
    pub backoff_ms: Option<u64>,
    /// Per-request recovery knob: wall-clock budget per evaluation, ms.
    pub eval_timeout_ms: Option<u64>,
}

impl AdaptiveParams {
    /// A minimal adaptive request for `app` with the given input and
    /// budget; every knob at its default.
    pub fn new(app: impl Into<String>, input: Vec<f64>, budget: f64) -> Self {
        AdaptiveParams {
            app: app.into(),
            input,
            budget,
            tolerance: None,
            resegment: true,
            drift_phase: None,
            drift_factor: None,
            drift_block: None,
            max_retries: None,
            backoff_ms: None,
            eval_timeout_ms: None,
        }
    }
}

/// Parameters of a `predict` request frame: batched model predictions
/// for one phase, one configuration per entry of `configs` (served by
/// the batched predictor, so the whole frame is one flat model pass).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictParams {
    /// Application name.
    pub app: String,
    /// Input parameter values.
    pub input: Vec<f64>,
    /// The phase the configurations apply to.
    pub phase: u64,
    /// Approximation-level vectors, one per block, one entry per
    /// prediction wanted.
    pub configs: Vec<Vec<u64>>,
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiRequest {
    /// Solve Algorithm 2 (optionally validated) for an input.
    Optimize(OptimizeParams),
    /// Run a closed-loop adaptive-control session for an input.
    Adaptive(AdaptiveParams),
    /// Batched speedup/QoS/iteration predictions for explicit configs.
    Predict(PredictParams),
    /// Liveness and model-inventory probe.
    Health,
    /// Export the server's telemetry registry.
    Metrics,
    /// Ask the server to stop accepting work and exit cleanly.
    Shutdown,
}

/// A measured (real-execution) outcome inside an optimize reply.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredReply {
    /// Measured speedup.
    pub speedup: f64,
    /// Measured QoS degradation.
    pub qos: f64,
    /// Measured outer-loop iterations.
    pub outer_iters: u64,
}

/// Reply to an `optimize` request.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeReply {
    /// Application the plan is for.
    pub app: String,
    /// Generation of the artifact that produced the plan (bumped by
    /// every hot reload, so clients can see which model answered).
    pub generation: u64,
    /// Which pipeline path produced the plan: `model_only`,
    /// `validated`, or `accurate_fallback`.
    pub path: String,
    /// Per-phase approximation levels of the chosen schedule.
    pub levels: Vec<Vec<u64>>,
    /// Model-predicted speedup of the plan.
    pub predicted_speedup: f64,
    /// Model-predicted QoS degradation of the plan.
    pub predicted_qos: f64,
    /// Candidate plans empirically validated (0 on the model-only path).
    pub candidates_tried: u64,
    /// Always `false`; kept for v1, whose parsers require the key.
    pub cached: bool,
    /// The measured outcome, on the validated path.
    pub measured: Option<MeasuredReply>,
}

/// Reply to an `adaptive` request: the final (possibly re-planned)
/// schedule plus the controller's budget ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveReply {
    /// Application the session ran for.
    pub app: String,
    /// Generation of the artifact that produced the plan.
    pub generation: u64,
    /// Per-phase approximation levels of the final schedule.
    pub levels: Vec<Vec<u64>>,
    /// Predicted speedup of the final schedule.
    pub predicted_speedup: f64,
    /// Predicted QoS degradation of the final schedule.
    pub predicted_qos: f64,
    /// Control steps executed (one per phase walked).
    pub steps: u64,
    /// Mid-run re-optimizations triggered by drift.
    pub replans: u64,
    /// `true` when a BBV signature shift re-segmented a boundary.
    pub resegmented: bool,
    /// `true` when faults forced the accurate fallback ladder to the
    /// bottom rung.
    pub degraded: bool,
    /// Budget reclaimed from drifted/quarantined phases.
    pub budget_reclaimed: f64,
    /// Budget redistributed to remaining phases (balances `reclaimed`).
    pub budget_redistributed: f64,
    /// The measured outcome of the final run.
    pub measured: Option<MeasuredReply>,
}

/// One prediction inside a `predict` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionReply {
    /// Predicted (conservative) speedup.
    pub speedup: f64,
    /// Predicted (conservative) QoS degradation.
    pub qos: f64,
    /// Predicted outer-loop iterations.
    pub iters: f64,
}

/// Reply to a `predict` request.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictReply {
    /// Application the predictions are for.
    pub app: String,
    /// Generation of the artifact that answered.
    pub generation: u64,
    /// The control-flow class the input was classified into.
    pub class: u64,
    /// One prediction per requested configuration, in request order.
    pub predictions: Vec<PredictionReply>,
}

/// Reply to a `health` request.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReply {
    /// Loaded application names, sorted.
    pub apps: Vec<String>,
    /// Current artifact generation (bumped by every load or reload).
    pub generation: u64,
    /// Admitted requests currently waiting for a handling slot.
    pub queue_depth: u64,
    /// The admission bound past which requests are shed.
    pub queue_limit: u64,
    /// Handling slots: requests answered at once.
    pub threads: u64,
    /// Micros since the server started, per the server's clock.
    pub uptime_micros: u64,
}

/// Reply to a `metrics` request: the canonical telemetry report as a
/// JSON value (the same schema `--trace-out` writes and
/// `opprox analyze` lints).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReply {
    /// The report, kept as a raw value so it round-trips byte-exactly.
    pub report: Value,
}

/// A parsed response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiResponse {
    /// Reply to [`ApiRequest::Optimize`].
    Optimize(OptimizeReply),
    /// Reply to [`ApiRequest::Adaptive`].
    Adaptive(AdaptiveReply),
    /// Reply to [`ApiRequest::Predict`].
    Predict(PredictReply),
    /// Reply to [`ApiRequest::Health`].
    Health(HealthReply),
    /// Reply to [`ApiRequest::Metrics`].
    Metrics(MetricsReply),
    /// Reply to [`ApiRequest::Shutdown`].
    Shutdown,
    /// Any failure, with its stable wire code.
    Error {
        /// The wire code.
        code: WireCode,
        /// Human-readable detail.
        message: String,
    },
}

impl ApiResponse {
    /// The error frame for an [`OpproxError`], using its 1:1 wire code.
    pub(crate) fn from_error(err: &OpproxError) -> Self {
        ApiResponse::Error {
            code: WireCode::of(err),
            message: err.to_string(),
        }
    }

    /// `true` for error frames.
    pub fn is_error(&self) -> bool {
        matches!(self, ApiResponse::Error { .. })
    }
}

// ---------------------------------------------------------------------
// Canonical rendering: fields are written straight into the caller's
// buffer in their fixed order, with no value tree. Keys are plain ASCII
// and written verbatim; strings and numbers go through the same
// renderers as `Value::render_compact`, so the bytes match it exactly.

/// One JSON object being written into a buffer.
struct Obj<'o>(&'o mut String);

/// An [`Obj`] field writer, as [`Obj::opt`] takes it.
type Put<'o, T> = for<'s> fn(&'s mut Obj<'o>, &str, T) -> &'s mut Obj<'o>;

impl<'o> Obj<'o> {
    fn new(out: &'o mut String) -> Self {
        out.push('{');
        Obj(out)
    }

    /// A frame object: the version and kind keys every frame opens with.
    fn frame(out: &'o mut String, kind: &str) -> Self {
        let mut obj = Obj::new(out);
        obj.u64("v", API_VERSION).str("kind", kind);
        obj
    }

    /// Writes `"name":`, after a comma unless it is the first key (no
    /// value ends in `{`), and returns the buffer for the value.
    fn key(&mut self, name: &str) -> &mut String {
        if !self.0.ends_with('{') {
            self.0.push(',');
        }
        self.0.push('"');
        self.0.push_str(name);
        self.0.push_str("\":");
        self.0
    }

    fn str(&mut self, name: &str, v: &str) -> &mut Self {
        render_json_string(v, self.key(name));
        self
    }

    fn u64(&mut self, name: &str, n: u64) -> &mut Self {
        Number::U64(n).render_into(self.key(name));
        self
    }

    fn f64(&mut self, name: &str, x: f64) -> &mut Self {
        Number::F64(x).render_into(self.key(name));
        self
    }

    fn bool(&mut self, name: &str, b: bool) -> &mut Self {
        self.key(name).push_str(if b { "true" } else { "false" });
        self
    }

    /// An optional field, written by `put` when set and omitted when not.
    fn opt<T>(&mut self, name: &str, v: Option<T>, put: Put<'o, T>) -> &mut Self {
        if let Some(v) = v {
            put(self, name, v);
        }
        self
    }

    fn array<T>(&mut self, name: &str, items: &[T], item: impl Fn(&mut String, &T)) -> &mut Self {
        list(self.key(name), items, item);
        self
    }

    fn f64s(&mut self, name: &str, xs: &[f64]) -> &mut Self {
        self.array(name, xs, |out, &x| Number::F64(x).render_into(out))
    }

    fn levels(&mut self, name: &str, rows: &[Vec<u64>]) -> &mut Self {
        self.array(name, rows, |out, row| {
            list(out, row, |out, &n| Number::U64(n).render_into(out));
        })
    }

    /// The `measured` object of an optimize or adaptive reply.
    fn measured(&mut self, name: &str, m: &MeasuredReply) -> &mut Self {
        Obj::new(self.key(name))
            .f64("speedup", m.speedup)
            .f64("qos", m.qos)
            .u64("outer_iters", m.outer_iters)
            .close();
        self
    }

    fn close(&mut self) {
        self.0.push('}');
    }
}

/// Writes `items` as a JSON array, each one by `item`.
fn list<T>(out: &mut String, items: &[T], item: impl Fn(&mut String, &T)) {
    out.push('[');
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

impl ApiRequest {
    /// Renders the request as one canonical wire line (no trailing
    /// newline). Field order is fixed; optional knobs are omitted when
    /// unset, so the encoding of a given DTO is unique.
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        self.to_wire_into(&mut out);
        out
    }

    /// Appends [`ApiRequest::to_wire`]'s line to `out`.
    pub(crate) fn to_wire_into(&self, out: &mut String) {
        match self {
            ApiRequest::Optimize(p) => {
                Obj::frame(out, "optimize")
                    .str("app", &p.app)
                    .f64s("input", &p.input)
                    .f64("budget", p.budget)
                    .str("conservatism", if p.point { "point" } else { "band" })
                    .bool("validate", p.validate)
                    .opt("validation_budget", p.validation_budget, Obj::u64)
                    .opt("max_retries", p.max_retries, Obj::u64)
                    .opt("backoff_ms", p.backoff_ms, Obj::u64)
                    .opt("eval_timeout_ms", p.eval_timeout_ms, Obj::u64)
                    .close();
            }
            ApiRequest::Adaptive(p) => {
                Obj::frame(out, "adaptive")
                    .str("app", &p.app)
                    .f64s("input", &p.input)
                    .f64("budget", p.budget)
                    .bool("resegment", p.resegment)
                    .opt("tolerance", p.tolerance, Obj::f64)
                    .opt("drift_phase", p.drift_phase, Obj::u64)
                    .opt("drift_factor", p.drift_factor, Obj::f64)
                    .opt("drift_block", p.drift_block, Obj::u64)
                    .opt("max_retries", p.max_retries, Obj::u64)
                    .opt("backoff_ms", p.backoff_ms, Obj::u64)
                    .opt("eval_timeout_ms", p.eval_timeout_ms, Obj::u64)
                    .close();
            }
            ApiRequest::Predict(p) => {
                Obj::frame(out, "predict")
                    .str("app", &p.app)
                    .f64s("input", &p.input)
                    .u64("phase", p.phase)
                    .levels("configs", &p.configs)
                    .close();
            }
            ApiRequest::Health => Obj::frame(out, "health").close(),
            ApiRequest::Metrics => Obj::frame(out, "metrics").close(),
            ApiRequest::Shutdown => Obj::frame(out, "shutdown").close(),
        }
    }

    /// Parses one wire line into a request.
    ///
    /// # Errors
    ///
    /// [`OpproxError::BadRequest`] on malformed JSON, a missing or
    /// mistyped field, or an unknown kind;
    /// [`OpproxError::UnsupportedVersion`] when the frame declares a
    /// version other than [`API_VERSION`].
    pub fn parse(line: &str) -> Result<Self, OpproxError> {
        let obj = parse_frame(line)?;
        match need_str(&obj, "kind")? {
            "optimize" => Ok(ApiRequest::Optimize(OptimizeParams {
                app: need_str(&obj, "app")?.to_string(),
                input: need_f64_array(&obj, "input")?,
                budget: need_f64(&obj, "budget")?,
                point: match need_str(&obj, "conservatism")? {
                    "band" => false,
                    "point" => true,
                    other => {
                        return Err(OpproxError::BadRequest(format!(
                            "conservatism must be `band` or `point`, got `{other}`"
                        )))
                    }
                },
                validate: need_bool(&obj, "validate")?,
                validation_budget: opt(&obj, "validation_budget", need_u64)?,
                max_retries: opt(&obj, "max_retries", need_u64)?,
                backoff_ms: opt(&obj, "backoff_ms", need_u64)?,
                eval_timeout_ms: opt(&obj, "eval_timeout_ms", need_u64)?,
            })),
            "adaptive" => {
                let params = AdaptiveParams {
                    app: need_str(&obj, "app")?.to_string(),
                    input: need_f64_array(&obj, "input")?,
                    budget: need_f64(&obj, "budget")?,
                    tolerance: opt(&obj, "tolerance", need_f64)?,
                    resegment: need_bool(&obj, "resegment")?,
                    drift_phase: opt(&obj, "drift_phase", need_u64)?,
                    drift_factor: opt(&obj, "drift_factor", need_f64)?,
                    drift_block: opt(&obj, "drift_block", need_u64)?,
                    max_retries: opt(&obj, "max_retries", need_u64)?,
                    backoff_ms: opt(&obj, "backoff_ms", need_u64)?,
                    eval_timeout_ms: opt(&obj, "eval_timeout_ms", need_u64)?,
                };
                if params.drift_phase.is_some() != params.drift_factor.is_some() {
                    return Err(OpproxError::BadRequest(
                        "drift_phase and drift_factor go together".to_string(),
                    ));
                }
                if params.drift_block.is_some() && params.drift_phase.is_none() {
                    return Err(OpproxError::BadRequest(
                        "drift_block needs drift_phase and drift_factor".to_string(),
                    ));
                }
                Ok(ApiRequest::Adaptive(params))
            }
            "predict" => Ok(ApiRequest::Predict(PredictParams {
                app: need_str(&obj, "app")?.to_string(),
                input: need_f64_array(&obj, "input")?,
                phase: need_u64(&obj, "phase")?,
                configs: need_levels(&obj, "configs")?,
            })),
            "health" => Ok(ApiRequest::Health),
            "metrics" => Ok(ApiRequest::Metrics),
            "shutdown" => Ok(ApiRequest::Shutdown),
            other => Err(OpproxError::BadRequest(format!(
                "unknown request kind `{other}`"
            ))),
        }
    }
}

impl ApiResponse {
    /// Renders the response as one canonical wire line (no trailing
    /// newline).
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        self.to_wire_into(&mut out);
        out
    }

    /// Appends [`ApiResponse::to_wire`]'s line to `out`.
    pub(crate) fn to_wire_into(&self, out: &mut String) {
        match self {
            ApiResponse::Optimize(r) => {
                Obj::frame(out, "optimize")
                    .str("status", "ok")
                    .str("app", &r.app)
                    .u64("generation", r.generation)
                    .str("path", &r.path)
                    .levels("levels", &r.levels)
                    .f64("predicted_speedup", r.predicted_speedup)
                    .f64("predicted_qos", r.predicted_qos)
                    .u64("candidates_tried", r.candidates_tried)
                    .bool("cached", r.cached)
                    .opt("measured", r.measured.as_ref(), Obj::measured)
                    .close();
            }
            ApiResponse::Adaptive(r) => {
                Obj::frame(out, "adaptive")
                    .str("status", "ok")
                    .str("app", &r.app)
                    .u64("generation", r.generation)
                    .levels("levels", &r.levels)
                    .f64("predicted_speedup", r.predicted_speedup)
                    .f64("predicted_qos", r.predicted_qos)
                    .u64("steps", r.steps)
                    .u64("replans", r.replans)
                    .bool("resegmented", r.resegmented)
                    .bool("degraded", r.degraded)
                    .f64("budget_reclaimed", r.budget_reclaimed)
                    .f64("budget_redistributed", r.budget_redistributed)
                    .opt("measured", r.measured.as_ref(), Obj::measured)
                    .close();
            }
            ApiResponse::Predict(r) => {
                Obj::frame(out, "predict")
                    .str("status", "ok")
                    .str("app", &r.app)
                    .u64("generation", r.generation)
                    .u64("class", r.class)
                    .array("predictions", &r.predictions, |out, p| {
                        Obj::new(out)
                            .f64("speedup", p.speedup)
                            .f64("qos", p.qos)
                            .f64("iters", p.iters)
                            .close();
                    })
                    .close();
            }
            ApiResponse::Health(r) => {
                Obj::frame(out, "health")
                    .str("status", "ok")
                    .array("apps", &r.apps, |out, a| render_json_string(a, out))
                    .u64("generation", r.generation)
                    .u64("queue_depth", r.queue_depth)
                    .u64("queue_limit", r.queue_limit)
                    .u64("threads", r.threads)
                    .u64("uptime_micros", r.uptime_micros)
                    .close();
            }
            ApiResponse::Metrics(r) => {
                let mut obj = Obj::frame(out, "metrics");
                r.report.render_into(obj.str("status", "ok").key("report"));
                obj.close();
            }
            ApiResponse::Shutdown => Obj::frame(out, "shutdown").str("status", "ok").close(),
            ApiResponse::Error { code, message } => {
                Obj::frame(out, "error")
                    .str("status", "error")
                    .str("code", code.as_str())
                    .str("message", message)
                    .close();
            }
        }
    }

    /// Parses one wire line into a response.
    ///
    /// # Errors
    ///
    /// [`OpproxError::BadRequest`] on malformed JSON, a missing or
    /// mistyped field, or an unknown kind;
    /// [`OpproxError::UnsupportedVersion`] on a version mismatch.
    pub fn parse(line: &str) -> Result<Self, OpproxError> {
        let obj = parse_frame(line)?;
        match need_str(&obj, "kind")? {
            "optimize" => Ok(ApiResponse::Optimize(OptimizeReply {
                app: need_str(&obj, "app")?.to_string(),
                generation: need_u64(&obj, "generation")?,
                path: need_str(&obj, "path")?.to_string(),
                levels: need_levels(&obj, "levels")?,
                predicted_speedup: need_f64(&obj, "predicted_speedup")?,
                predicted_qos: need_f64(&obj, "predicted_qos")?,
                candidates_tried: need_u64(&obj, "candidates_tried")?,
                cached: need_bool(&obj, "cached")?,
                measured: opt(&obj, "measured", need_measured)?,
            })),
            "adaptive" => Ok(ApiResponse::Adaptive(AdaptiveReply {
                app: need_str(&obj, "app")?.to_string(),
                generation: need_u64(&obj, "generation")?,
                levels: need_levels(&obj, "levels")?,
                predicted_speedup: need_f64(&obj, "predicted_speedup")?,
                predicted_qos: need_f64(&obj, "predicted_qos")?,
                steps: need_u64(&obj, "steps")?,
                replans: need_u64(&obj, "replans")?,
                resegmented: need_bool(&obj, "resegmented")?,
                degraded: need_bool(&obj, "degraded")?,
                budget_reclaimed: need_f64(&obj, "budget_reclaimed")?,
                budget_redistributed: need_f64(&obj, "budget_redistributed")?,
                measured: opt(&obj, "measured", need_measured)?,
            })),
            "predict" => {
                let predictions = need_list(&obj, "predictions", |item| {
                    let m = item.as_object().ok_or_else(|| {
                        OpproxError::BadRequest("predictions entries must be objects".to_string())
                    })?;
                    Ok(PredictionReply {
                        speedup: need_f64(m, "speedup")?,
                        qos: need_f64(m, "qos")?,
                        iters: need_f64(m, "iters")?,
                    })
                })?;
                Ok(ApiResponse::Predict(PredictReply {
                    app: need_str(&obj, "app")?.to_string(),
                    generation: need_u64(&obj, "generation")?,
                    class: need_u64(&obj, "class")?,
                    predictions,
                }))
            }
            "health" => Ok(ApiResponse::Health(HealthReply {
                apps: need_list(&obj, "apps", |v| {
                    v.as_str().map(str::to_string).ok_or_else(|| {
                        OpproxError::BadRequest("apps entries must be strings".to_string())
                    })
                })?,
                generation: need_u64(&obj, "generation")?,
                queue_depth: need_u64(&obj, "queue_depth")?,
                queue_limit: need_u64(&obj, "queue_limit")?,
                threads: need_u64(&obj, "threads")?,
                uptime_micros: need_u64(&obj, "uptime_micros")?,
            })),
            "metrics" => Ok(ApiResponse::Metrics(MetricsReply {
                report: need(&obj, "report")?.clone(),
            })),
            "shutdown" => Ok(ApiResponse::Shutdown),
            "error" => Ok(ApiResponse::Error {
                code: WireCode::parse(need_str(&obj, "code")?)?,
                message: need_str(&obj, "message")?.to_string(),
            }),
            other => Err(OpproxError::BadRequest(format!(
                "unknown response kind `{other}`"
            ))),
        }
    }
}

// ---------------------------------------------------------------------
// Parsing helpers. Every failure is a `BadRequest` with the offending
// field named, except the version check which gets its own variant.

/// A parsed frame's fields, in wire order.
type Fields = [(String, Value)];

fn parse_frame(line: &str) -> Result<Vec<(String, Value)>, OpproxError> {
    let value = serde_json::parse_value(line.trim_end_matches(['\r', '\n']))
        .map_err(|e| OpproxError::BadRequest(format!("malformed frame: {e}")))?;
    let Value::Object(entries) = value else {
        return Err(OpproxError::BadRequest(format!(
            "a frame must be a JSON object, got {}",
            value.kind()
        )));
    };
    let v = need_u64(&entries, "v")?;
    if v != API_VERSION {
        return Err(OpproxError::UnsupportedVersion { got: v });
    }
    Ok(entries)
}

fn get<'v>(obj: &'v Fields, name: &str) -> Option<&'v Value> {
    obj.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn need<'v>(obj: &'v Fields, name: &str) -> Result<&'v Value, OpproxError> {
    get(obj, name).ok_or_else(|| OpproxError::BadRequest(format!("missing field `{name}`")))
}

/// Field `name` read by `read`, which fails unless it is `what`.
fn need_as<'v, T>(
    obj: &'v Fields,
    name: &str,
    what: &str,
    read: impl Fn(&'v Value) -> Option<T>,
) -> Result<T, OpproxError> {
    let v = need(obj, name)?;
    read(v).ok_or_else(|| {
        OpproxError::BadRequest(format!("field `{name}` must be {what}, got {}", v.kind()))
    })
}

fn need_str<'v>(obj: &'v Fields, name: &str) -> Result<&'v str, OpproxError> {
    need_as(obj, name, "a string", Value::as_str)
}

fn need_u64(obj: &Fields, name: &str) -> Result<u64, OpproxError> {
    need_as(obj, name, "a non-negative integer", Value::as_u64)
}

/// An optional field, read by `need` when present.
fn opt<T>(
    obj: &Fields,
    name: &str,
    need: fn(&Fields, &str) -> Result<T, OpproxError>,
) -> Result<Option<T>, OpproxError> {
    get(obj, name).map(|_| need(obj, name)).transpose()
}

/// The `measured` object of an optimize or adaptive reply.
fn need_measured(obj: &Fields, name: &str) -> Result<MeasuredReply, OpproxError> {
    let m = need_as(obj, name, "an object", Value::as_object)?;
    Ok(MeasuredReply {
        speedup: need_f64(m, "speedup")?,
        qos: need_f64(m, "qos")?,
        outer_iters: need_u64(m, "outer_iters")?,
    })
}

fn need_f64(obj: &Fields, name: &str) -> Result<f64, OpproxError> {
    need_as(obj, name, "a finite number", Value::as_f64)
}

fn need_bool(obj: &Fields, name: &str) -> Result<bool, OpproxError> {
    need_as(obj, name, "a boolean", |v| match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    })
}

/// The items of array field `name`, each read by `item`.
fn need_list<'v, T>(
    obj: &'v Fields,
    name: &str,
    item: impl Fn(&'v Value) -> Result<T, OpproxError>,
) -> Result<Vec<T>, OpproxError> {
    let v = need(obj, name)?;
    let Value::Array(items) = v else {
        return Err(OpproxError::BadRequest(format!(
            "field `{name}` must be an array, got {}",
            v.kind()
        )));
    };
    items.iter().map(item).collect()
}

fn need_f64_array(obj: &Fields, name: &str) -> Result<Vec<f64>, OpproxError> {
    need_list(obj, name, |item| {
        item.as_f64().ok_or_else(|| {
            OpproxError::BadRequest(format!("field `{name}` must hold finite numbers"))
        })
    })
}

fn need_levels(obj: &Fields, name: &str) -> Result<Vec<Vec<u64>>, OpproxError> {
    let v = need(obj, name)?;
    let Value::Array(rows) = v else {
        return Err(OpproxError::BadRequest(format!(
            "field `{name}` must be an array of level arrays, got {}",
            v.kind()
        )));
    };
    rows.iter()
        .map(|row| {
            let Value::Array(items) = row else {
                return Err(OpproxError::BadRequest(format!(
                    "field `{name}` must hold arrays of levels"
                )));
            };
            items
                .iter()
                .map(|item| {
                    item.as_u64().ok_or_else(|| {
                        OpproxError::BadRequest(format!(
                            "field `{name}` levels must be non-negative integers"
                        ))
                    })
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = vec![
            ApiRequest::Health,
            ApiRequest::Metrics,
            ApiRequest::Shutdown,
            ApiRequest::Optimize(OptimizeParams {
                validate: true,
                point: true,
                validation_budget: Some(8),
                max_retries: Some(1),
                backoff_ms: Some(0),
                eval_timeout_ms: Some(250),
                ..OptimizeParams::new("pso", vec![16.0, 3.0], 10.0)
            }),
            ApiRequest::Optimize(OptimizeParams::new("lulesh", vec![64.0, 2.0], 2.5)),
            ApiRequest::Predict(PredictParams {
                app: "pso".to_string(),
                input: vec![16.0, 3.0],
                phase: 1,
                configs: vec![vec![0, 2], vec![1, 1]],
            }),
            ApiRequest::Adaptive(AdaptiveParams::new("pso", vec![16.0, 3.0], 10.0)),
            ApiRequest::Adaptive(AdaptiveParams {
                tolerance: Some(0.4),
                resegment: false,
                drift_phase: Some(0),
                drift_factor: Some(6.0),
                drift_block: Some(1),
                max_retries: Some(2),
                backoff_ms: Some(0),
                eval_timeout_ms: Some(250),
                ..AdaptiveParams::new("pso", vec![16.0, 3.0], 10.0)
            }),
        ];
        for req in reqs {
            let wire = req.to_wire();
            let parsed = ApiRequest::parse(&wire).unwrap();
            assert_eq!(parsed, req);
            assert_eq!(parsed.to_wire(), wire, "canonical bytes for {req:?}");
        }
    }

    #[test]
    fn unknown_version_is_rejected_with_its_own_code() {
        let wire = ApiRequest::Optimize(OptimizeParams::new("pso", vec![1.0], 5.0))
            .to_wire()
            .replace("\"v\":1", "\"v\":2");
        let err = ApiRequest::parse(&wire).unwrap_err();
        assert_eq!(err, OpproxError::UnsupportedVersion { got: 2 });
        assert_eq!(WireCode::of(&err), WireCode::UnsupportedVersion);
    }

    #[test]
    fn truncated_and_malformed_frames_are_bad_requests() {
        let wire = ApiRequest::Health.to_wire();
        for frame in [
            &wire[..wire.len() - 2],
            "",
            "not json",
            "[1,2,3]",
            "{\"kind\":\"health\"}",
        ] {
            let err = ApiRequest::parse(frame).unwrap_err();
            assert_eq!(
                WireCode::of(&err),
                WireCode::BadRequest,
                "frame {frame:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn adaptive_reply_round_trips() {
        let reply = ApiResponse::Adaptive(AdaptiveReply {
            app: "pso".to_string(),
            generation: 3,
            levels: vec![vec![0, 0], vec![2, 1]],
            predicted_speedup: 1.4,
            predicted_qos: 8.5,
            steps: 2,
            replans: 1,
            resegmented: true,
            degraded: false,
            budget_reclaimed: 7.25,
            budget_redistributed: 7.25,
            measured: Some(MeasuredReply {
                speedup: 1.31,
                qos: 6.9,
                outer_iters: 40,
            }),
        });
        let wire = reply.to_wire();
        let parsed = ApiResponse::parse(&wire).unwrap();
        assert_eq!(parsed, reply);
        assert_eq!(parsed.to_wire(), wire, "canonical bytes");
    }

    #[test]
    fn half_specified_drift_injection_is_rejected() {
        let mut p = AdaptiveParams::new("pso", vec![1.0], 5.0);
        p.drift_phase = Some(0);
        let err = ApiRequest::parse(&ApiRequest::Adaptive(p).to_wire()).unwrap_err();
        assert_eq!(WireCode::of(&err), WireCode::BadRequest);

        let mut p = AdaptiveParams::new("pso", vec![1.0], 5.0);
        p.drift_block = Some(1);
        let err = ApiRequest::parse(&ApiRequest::Adaptive(p).to_wire()).unwrap_err();
        assert_eq!(WireCode::of(&err), WireCode::BadRequest);
    }

    #[test]
    fn every_wire_code_round_trips() {
        for &code in ALL_CODES {
            assert_eq!(WireCode::parse(code.as_str()).unwrap(), code);
        }
        assert!(WireCode::parse("no_such_code").is_err());
    }

    #[test]
    fn error_frames_carry_their_code() {
        let err = OpproxError::Overloaded {
            depth: 64,
            limit: 64,
        };
        let resp = ApiResponse::from_error(&err);
        let wire = resp.to_wire();
        assert!(wire.contains("\"code\":\"overloaded\""));
        let parsed = ApiResponse::parse(&wire).unwrap();
        assert_eq!(parsed, resp);
        assert!(parsed.is_error());
    }
}
