//! Typed argument parsing for the `opprox` binary.
//!
//! Grammar: `opprox <command> [args...] [--flag value]...`. Parsing is
//! two-stage: the raw positionals and `--flag value` pairs are
//! collected, then immediately checked against the selected command's
//! flag set and converted into a typed [`Command`]. Unknown commands and
//! unknown flags fail **at parse time** with a nearest-match suggestion,
//! so nothing stringly-typed survives into dispatch. Only `analyze` and
//! `audit` (their artifact files) and `trace` (its subcommand and trace
//! file) take positional arguments; everywhere else a positional is an
//! error.

use opprox_core::{DriftInjection, FaultPlan, RecoveryPolicy};
use std::collections::BTreeMap;
use std::fmt;

/// A fully parsed, typed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the registered applications.
    Apps,
    /// Algorithm 1: phase-granularity search.
    Phases {
        /// Application name.
        app: String,
        /// Input parameter values.
        input: Vec<f64>,
        /// Probe configurations per phase.
        probes: usize,
        /// RNG seed for the probe configurations.
        seed: u64,
        /// Worker threads for the evaluation engine (`None` = all cores).
        threads: Option<usize>,
        /// Telemetry export (`--trace-out`, `--trace-format`).
        trace: TraceSpec,
    },
    /// Profile an application, fit models, save them to disk.
    Train {
        /// Application name.
        app: String,
        /// Output path for the trained model JSON.
        out: String,
        /// Number of phases.
        phases: usize,
        /// Sparse multi-block samples per (input, phase).
        sparse: usize,
        /// RNG seed for the sampling.
        seed: u64,
        /// Worker threads for the evaluation engine.
        threads: Option<usize>,
        /// Deterministic fault-injection plan (`--fault-plan`).
        fault_plan: Option<FaultPlan>,
        /// Retry and timeout policy (`--max-retries`, `--eval-timeout-ms`).
        recovery: RecoveryPolicy,
        /// Telemetry export (`--trace-out`, `--trace-format`).
        trace: TraceSpec,
    },
    /// Algorithm 2, model-only: no real executions.
    Optimize {
        /// Path to a trained model JSON.
        model: String,
        /// Input parameter values.
        input: Vec<f64>,
        /// QoS-degradation budget.
        budget: f64,
        /// Telemetry export (`--trace-out`, `--trace-format`).
        trace: TraceSpec,
    },
    /// Validated optimization plus real execution.
    Run {
        /// Path to a trained model JSON.
        model: String,
        /// Input parameter values.
        input: Vec<f64>,
        /// QoS-degradation budget.
        budget: f64,
        /// Optional canary input for the validation executions.
        canary: Option<Vec<f64>>,
        /// Cap on validation executions.
        validations: usize,
        /// Worker threads for the evaluation engine.
        threads: Option<usize>,
        /// Deterministic fault-injection plan (`--fault-plan`).
        fault_plan: Option<FaultPlan>,
        /// Retry and timeout policy (`--max-retries`, `--eval-timeout-ms`).
        recovery: RecoveryPolicy,
        /// Run the closed-loop controller instead of the one-shot
        /// validated pipeline (`--adaptive true`).
        adaptive: bool,
        /// Controller drift tolerance override (`--drift-tolerance`).
        drift_tolerance: Option<f64>,
        /// Online BBV re-segmentation toggle (`--resegment false`).
        resegment: bool,
        /// Seeded drift injection for the controller
        /// (`--inject-drift phase=P,factor=F[,block=B]`).
        inject_drift: Option<DriftInjection>,
        /// Telemetry export (`--trace-out`, `--trace-format`).
        trace: TraceSpec,
    },
    /// Phase-agnostic exhaustive baseline.
    Oracle {
        /// Application name.
        app: String,
        /// Input parameter values.
        input: Vec<f64>,
        /// QoS-degradation budget.
        budget: f64,
        /// Worker threads for the evaluation engine.
        threads: Option<usize>,
        /// Telemetry export (`--trace-out`, `--trace-format`).
        trace: TraceSpec,
    },
    /// Summarize a trained model.
    Inspect {
        /// Path to a trained model JSON.
        model: String,
    },
    /// Lint serialized artifacts (schedules, specs, trained model sets).
    Analyze {
        /// Paths to the artifact files, in any order and combination.
        artifacts: Vec<String>,
        /// Report format.
        format: OutputFormat,
        /// Treat warnings as fatal (`--deny warnings`).
        deny_warnings: bool,
    },
    /// Cross-artifact audit of one run's linked artifacts.
    Audit {
        /// Paths to artifact files or directories of them.
        artifacts: Vec<String>,
        /// Report format.
        format: OutputFormat,
        /// Treat warnings as fatal (`--deny warnings`).
        deny_warnings: bool,
        /// X001 drift band widening (`--tolerance T`).
        tolerance: f64,
    },
    /// OPPROX (validated) vs the oracle in one shot.
    Compare {
        /// Application name.
        app: String,
        /// Input parameter values.
        input: Vec<f64>,
        /// QoS-degradation budget.
        budget: f64,
        /// Number of phases for training.
        phases: usize,
        /// Sparse samples per (input, phase) for training.
        sparse: usize,
        /// RNG seed for the sampling.
        seed: u64,
        /// Worker threads for the evaluation engine.
        threads: Option<usize>,
        /// Deterministic fault-injection plan (`--fault-plan`).
        fault_plan: Option<FaultPlan>,
        /// Retry and timeout policy (`--max-retries`, `--eval-timeout-ms`).
        recovery: RecoveryPolicy,
        /// Telemetry export (`--trace-out`, `--trace-format`).
        trace: TraceSpec,
    },
    /// Long-running optimization service speaking the v1 wire protocol
    /// (line-delimited JSON over TCP).
    Serve {
        /// Paths of the trained-model artifacts to load (comma-separated
        /// in `--model`); each is hot-reloaded on file change.
        models: Vec<String>,
        /// Bind address (`host:port`; port 0 picks a free port).
        addr: String,
        /// File the bound address is written to once listening
        /// (`--addr-file`), so scripts can use `--addr 127.0.0.1:0`.
        addr_file: Option<String>,
        /// Requests handled at once (`None` = all cores).
        threads: Option<usize>,
        /// Admission bound on requests waiting for a handling slot
        /// (`--queue-limit`).
        queue_limit: usize,
        /// Artifact mtime poll interval (`--reload-poll-ms`).
        reload_poll_ms: u64,
        /// Telemetry export at shutdown (`--trace-out`, `--trace-format`).
        trace: TraceSpec,
    },
    /// One-shot wire client for smoke queries against a running server.
    Client {
        /// Server address (`host:port`).
        addr: String,
        /// Which request to send.
        op: ClientOp,
        /// Application name (optimize/predict).
        app: Option<String>,
        /// Input parameter values (optimize/predict).
        input: Option<Vec<f64>>,
        /// QoS-degradation budget (optimize).
        budget: Option<f64>,
        /// Phase index (predict).
        phase: u64,
        /// Semicolon-separated level rows, e.g. `0,0,0;1,2,1` (predict).
        configs: Option<String>,
        /// Point-estimate conservatism (`--point true`).
        point: bool,
        /// Empirical validation on the server (`--validate true`).
        validate: bool,
        /// Cap on validation executions (`--validations`).
        validations: Option<u64>,
        /// Per-request retry cap (`--max-retries`).
        max_retries: Option<u64>,
        /// Per-request retry backoff base (`--backoff-ms`).
        backoff_ms: Option<u64>,
        /// Per-request evaluation timeout (`--eval-timeout-ms`).
        eval_timeout_ms: Option<u64>,
        /// Controller drift tolerance override (adaptive,
        /// `--drift-tolerance`).
        drift_tolerance: Option<f64>,
        /// Online BBV re-segmentation toggle (adaptive,
        /// `--resegment false`).
        resegment: bool,
        /// Seeded drift injection (adaptive,
        /// `--inject-drift phase=P,factor=F[,block=B]`).
        inject_drift: Option<DriftInjection>,
    },
    /// Summarize a previously captured telemetry trace
    /// (`opprox trace summarize FILE`).
    Trace {
        /// Path to a JSON telemetry report written by `--trace-out`.
        file: String,
    },
    /// Print the usage summary.
    Help,
}

/// Where and how a command exports its telemetry
/// (`--trace-out FILE [--trace-format json|chrome|text]`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSpec {
    /// Output path; `None` disables telemetry export.
    pub out: Option<String>,
    /// Serialization format for the exported trace.
    pub format: TraceFormat,
}

/// Serialization format for `--trace-out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// The stable JSON schema consumed by `opprox analyze` and
    /// `opprox trace summarize` (default).
    #[default]
    Json,
    /// Chrome trace-event JSON for `chrome://tracing` / Perfetto.
    Chrome,
    /// The human-readable summary text.
    Text,
}

/// The request kind `opprox client` sends (`--op`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientOp {
    /// `health` frame: liveness, loaded apps, queue depth.
    Health,
    /// `metrics` frame: the server's telemetry report.
    Metrics,
    /// `optimize` frame.
    Optimize,
    /// `adaptive` frame: a closed-loop controller session.
    Adaptive,
    /// `predict` frame.
    Predict,
    /// `shutdown` frame: clean server stop.
    Shutdown,
}

/// How `opprox analyze` / `opprox audit` render their reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// Human-readable, compiler-style lines.
    Text,
    /// The stable JSON schema (golden-file tested in `opprox-analyze`).
    Json,
    /// Minimal SARIF 2.1.0 for CI code-scanning upload.
    Sarif,
}

/// `(name, allowed flags)` for every command, used for validation and
/// suggestions.
const COMMANDS: &[(&str, &[&str])] = &[
    ("apps", &[]),
    (
        "phases",
        &[
            "app",
            "input",
            "probes",
            "seed",
            "threads",
            "trace-out",
            "trace-format",
        ],
    ),
    (
        "train",
        &[
            "app",
            "out",
            "phases",
            "sparse",
            "seed",
            "threads",
            "fault-plan",
            "max-retries",
            "eval-timeout-ms",
            "trace-out",
            "trace-format",
        ],
    ),
    (
        "optimize",
        &["model", "input", "budget", "trace-out", "trace-format"],
    ),
    (
        "run",
        &[
            "model",
            "input",
            "budget",
            "canary",
            "validations",
            "threads",
            "fault-plan",
            "max-retries",
            "eval-timeout-ms",
            "adaptive",
            "drift-tolerance",
            "resegment",
            "inject-drift",
            "trace-out",
            "trace-format",
        ],
    ),
    (
        "oracle",
        &[
            "app",
            "input",
            "budget",
            "threads",
            "trace-out",
            "trace-format",
        ],
    ),
    ("inspect", &["model"]),
    ("analyze", &["format", "deny"]),
    ("audit", &["format", "deny", "tolerance"]),
    (
        "compare",
        &[
            "app",
            "input",
            "budget",
            "phases",
            "sparse",
            "seed",
            "threads",
            "fault-plan",
            "max-retries",
            "eval-timeout-ms",
            "trace-out",
            "trace-format",
        ],
    ),
    (
        "serve",
        &[
            "model",
            "addr",
            "addr-file",
            "threads",
            "queue-limit",
            "reload-poll-ms",
            "trace-out",
            "trace-format",
        ],
    ),
    (
        "client",
        &[
            "addr",
            "op",
            "app",
            "input",
            "budget",
            "phase",
            "configs",
            "point",
            "validate",
            "validations",
            "max-retries",
            "backoff-ms",
            "eval-timeout-ms",
            "drift-tolerance",
            "resegment",
            "inject-drift",
        ],
    ),
    ("trace", &[]),
    ("help", &[]),
];

/// Default address `opprox serve` binds and `opprox client` dials.
pub const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7427";

/// Errors from argument parsing and flag extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand was given.
    MissingCommand,
    /// The subcommand is not recognized.
    UnknownCommand {
        /// What was typed.
        given: String,
        /// The closest known command, if any is close enough.
        suggestion: Option<String>,
    },
    /// A flag is not accepted by the selected subcommand.
    UnknownFlag {
        /// The subcommand.
        command: String,
        /// The offending flag.
        flag: String,
        /// The closest accepted flag, if any is close enough.
        suggestion: Option<String>,
    },
    /// A flag was given without a value.
    MissingValue(String),
    /// A required flag was absent.
    MissingFlag(String),
    /// A flag value failed to parse.
    BadValue {
        /// The flag name.
        flag: String,
        /// The offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// `--fault-plan` failed to parse.
    BadFaultPlan {
        /// The offending spec.
        value: String,
        /// The fault-plan parser's message.
        message: String,
    },
    /// A positional argument appeared where a flag was expected.
    UnexpectedPositional(String),
    /// `opprox analyze` or `opprox audit` was invoked with no artifact
    /// files.
    NoArtifacts,
    /// `opprox trace` was invoked with anything other than
    /// `summarize FILE`.
    BadTraceUsage,
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing command; try `opprox help`"),
            ArgError::UnknownCommand { given, suggestion } => {
                write!(f, "unknown command `{given}`")?;
                match suggestion {
                    Some(s) => write!(f, "; did you mean `{s}`?"),
                    None => write!(f, "; try `opprox help`"),
                }
            }
            ArgError::UnknownFlag {
                command,
                flag,
                suggestion,
            } => {
                write!(f, "`opprox {command}` does not take --{flag}")?;
                match suggestion {
                    Some(s) => write!(f, "; did you mean --{s}?"),
                    None => write!(f, "; try `opprox help`"),
                }
            }
            ArgError::MissingValue(flag) => write!(f, "flag --{flag} needs a value"),
            ArgError::MissingFlag(flag) => write!(f, "required flag --{flag} is missing"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "--{flag} {value}: expected {expected}"),
            ArgError::BadFaultPlan { value, message } => {
                write!(f, "--fault-plan {value}: {message}")
            }
            ArgError::UnexpectedPositional(arg) => {
                write!(f, "unexpected argument `{arg}` (flags are --name value)")
            }
            ArgError::NoArtifacts => write!(
                f,
                "`opprox analyze`/`opprox audit` need at least one artifact \
                 file or directory; try `opprox analyze model.json schedule.json`"
            ),
            ArgError::BadTraceUsage => write!(
                f,
                "usage: `opprox trace summarize FILE` \
                 (FILE is a JSON trace written by --trace-out)"
            ),
        }
    }
}

impl std::error::Error for ArgError {}

impl Command {
    /// Parses `args` (without the program name) into a typed command.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on an empty command line, an unknown command
    /// or flag (with a nearest-match suggestion), a flag without a
    /// value, a missing or malformed required flag, or a stray
    /// positional argument.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        RawArgs::collect(args)?.into_command()
    }
}

/// The raw `command + positionals + flag map` stage, before typing.
struct RawArgs {
    command: String,
    positionals: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl RawArgs {
    fn collect<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let mut iter = args.into_iter();
        let command = iter.next().ok_or(ArgError::MissingCommand)?;
        let mut positionals = Vec::new();
        let mut flags = BTreeMap::new();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = iter
                    .next()
                    .ok_or_else(|| ArgError::MissingValue(name.to_string()))?;
                flags.insert(name.to_string(), value);
            } else {
                positionals.push(arg);
            }
        }
        Ok(RawArgs {
            command,
            positionals,
            flags,
        })
    }

    fn into_command(self) -> Result<Command, ArgError> {
        let Some(&(name, allowed)) = COMMANDS.iter().find(|(n, _)| *n == self.command) else {
            return Err(ArgError::UnknownCommand {
                suggestion: nearest(&self.command, COMMANDS.iter().map(|(n, _)| *n)),
                given: self.command,
            });
        };
        if name != "analyze" && name != "audit" && name != "trace" {
            if let Some(stray) = self.positionals.first() {
                return Err(ArgError::UnexpectedPositional(stray.clone()));
            }
        }
        for flag in self.flags.keys() {
            if !allowed.contains(&flag.as_str()) {
                return Err(ArgError::UnknownFlag {
                    command: name.to_string(),
                    flag: flag.clone(),
                    suggestion: nearest(flag, allowed.iter().copied()),
                });
            }
        }
        Ok(match name {
            "apps" => Command::Apps,
            "phases" => Command::Phases {
                app: self.require("app")?.to_string(),
                input: self.require_input("input")?,
                probes: self.usize_or("probes", 6)?,
                seed: self.u64_or("seed", 0x9A5E)?,
                threads: self.threads()?,
                trace: self.trace_spec()?,
            },
            "train" => Command::Train {
                app: self.require("app")?.to_string(),
                out: self.require("out")?.to_string(),
                phases: self.usize_or("phases", 4)?,
                sparse: self.usize_or("sparse", 36)?,
                seed: self.u64_or("seed", 11)?,
                threads: self.threads()?,
                fault_plan: self.fault_plan()?,
                recovery: self.recovery()?,
                trace: self.trace_spec()?,
            },
            "optimize" => Command::Optimize {
                model: self.require("model")?.to_string(),
                input: self.require_input("input")?,
                budget: self.require_f64("budget")?,
                trace: self.trace_spec()?,
            },
            "run" => Command::Run {
                model: self.require("model")?.to_string(),
                input: self.require_input("input")?,
                budget: self.require_f64("budget")?,
                canary: match self.get("canary") {
                    Some(_) => Some(self.require_input("canary")?),
                    None => None,
                },
                validations: self.usize_or("validations", 32)?,
                threads: self.threads()?,
                fault_plan: self.fault_plan()?,
                recovery: self.recovery()?,
                adaptive: self.bool_or("adaptive", false)?,
                drift_tolerance: self.drift_tolerance()?,
                resegment: self.bool_or("resegment", true)?,
                inject_drift: self.inject_drift()?,
                trace: self.trace_spec()?,
            },
            "oracle" => Command::Oracle {
                app: self.require("app")?.to_string(),
                input: self.require_input("input")?,
                budget: self.require_f64("budget")?,
                threads: self.threads()?,
                trace: self.trace_spec()?,
            },
            "inspect" => Command::Inspect {
                model: self.require("model")?.to_string(),
            },
            "analyze" => {
                if self.positionals.is_empty() {
                    return Err(ArgError::NoArtifacts);
                }
                Command::Analyze {
                    format: self.output_format()?,
                    deny_warnings: self.deny_warnings()?,
                    artifacts: self.positionals,
                }
            }
            "audit" => {
                if self.positionals.is_empty() {
                    return Err(ArgError::NoArtifacts);
                }
                Command::Audit {
                    format: self.output_format()?,
                    deny_warnings: self.deny_warnings()?,
                    tolerance: self.tolerance()?,
                    artifacts: self.positionals,
                }
            }
            "compare" => Command::Compare {
                app: self.require("app")?.to_string(),
                input: self.require_input("input")?,
                budget: self.require_f64("budget")?,
                phases: self.usize_or("phases", 4)?,
                sparse: self.usize_or("sparse", 36)?,
                seed: self.u64_or("seed", 11)?,
                threads: self.threads()?,
                fault_plan: self.fault_plan()?,
                recovery: self.recovery()?,
                trace: self.trace_spec()?,
            },
            "serve" => Command::Serve {
                models: self
                    .require("model")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect(),
                addr: self.get("addr").unwrap_or(DEFAULT_SERVE_ADDR).to_string(),
                addr_file: self.get("addr-file").map(str::to_string),
                threads: self.threads()?,
                queue_limit: self.usize_or("queue-limit", 64)?,
                reload_poll_ms: self.u64_or("reload-poll-ms", 200)?,
                trace: self.trace_spec()?,
            },
            "client" => Command::Client {
                addr: self.get("addr").unwrap_or(DEFAULT_SERVE_ADDR).to_string(),
                op: self.client_op()?,
                app: self.get("app").map(str::to_string),
                input: match self.get("input") {
                    Some(_) => Some(self.require_input("input")?),
                    None => None,
                },
                budget: match self.get("budget") {
                    Some(_) => Some(self.require_f64("budget")?),
                    None => None,
                },
                phase: self.u64_or("phase", 0)?,
                configs: self.get("configs").map(str::to_string),
                point: self.bool_or("point", false)?,
                validate: self.bool_or("validate", false)?,
                validations: self.opt_u64("validations")?,
                max_retries: self.opt_u64("max-retries")?,
                backoff_ms: self.opt_u64("backoff-ms")?,
                eval_timeout_ms: self.opt_u64("eval-timeout-ms")?,
                drift_tolerance: self.drift_tolerance()?,
                resegment: self.bool_or("resegment", true)?,
                inject_drift: self.inject_drift()?,
            },
            "trace" => match self.positionals.as_slice() {
                [verb, file] if verb == "summarize" => Command::Trace { file: file.clone() },
                _ => return Err(ArgError::BadTraceUsage),
            },
            _ => Command::Help,
        })
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    fn require(&self, flag: &str) -> Result<&str, ArgError> {
        self.get(flag)
            .ok_or_else(|| ArgError::MissingFlag(flag.to_string()))
    }

    fn require_f64(&self, flag: &str) -> Result<f64, ArgError> {
        let raw = self.require(flag)?;
        raw.parse().map_err(|_| ArgError::BadValue {
            flag: flag.to_string(),
            value: raw.to_string(),
            expected: "a number",
        })
    }

    fn usize_or(&self, flag: &str, default: usize) -> Result<usize, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::BadValue {
                flag: flag.to_string(),
                value: raw.to_string(),
                expected: "a non-negative integer",
            }),
        }
    }

    fn u64_or(&self, flag: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::BadValue {
                flag: flag.to_string(),
                value: raw.to_string(),
                expected: "a non-negative integer",
            }),
        }
    }

    fn opt_u64(&self, flag: &str) -> Result<Option<u64>, ArgError> {
        match self.get(flag) {
            None => Ok(None),
            Some(raw) => raw.parse().map(Some).map_err(|_| ArgError::BadValue {
                flag: flag.to_string(),
                value: raw.to_string(),
                expected: "a non-negative integer",
            }),
        }
    }

    fn bool_or(&self, flag: &str, default: bool) -> Result<bool, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some("true") => Ok(true),
            Some("false") => Ok(false),
            Some(raw) => Err(ArgError::BadValue {
                flag: flag.to_string(),
                value: raw.to_string(),
                expected: "true or false",
            }),
        }
    }

    /// `--op health|metrics|optimize|adaptive|predict|shutdown`
    /// (required).
    fn client_op(&self) -> Result<ClientOp, ArgError> {
        match self.require("op")? {
            "health" => Ok(ClientOp::Health),
            "metrics" => Ok(ClientOp::Metrics),
            "optimize" => Ok(ClientOp::Optimize),
            "adaptive" => Ok(ClientOp::Adaptive),
            "predict" => Ok(ClientOp::Predict),
            "shutdown" => Ok(ClientOp::Shutdown),
            raw => Err(ArgError::BadValue {
                flag: "op".to_string(),
                value: raw.to_string(),
                expected: "health, metrics, optimize, adaptive, predict, or shutdown",
            }),
        }
    }

    /// `--drift-tolerance T` for the adaptive controller (finite,
    /// non-negative; `None` keeps the controller default).
    fn drift_tolerance(&self) -> Result<Option<f64>, ArgError> {
        match self.get("drift-tolerance") {
            None => Ok(None),
            Some(raw) => match raw.parse::<f64>() {
                Ok(t) if t.is_finite() && t >= 0.0 => Ok(Some(t)),
                _ => Err(ArgError::BadValue {
                    flag: "drift-tolerance".to_string(),
                    value: raw.to_string(),
                    expected: "a finite non-negative number",
                }),
            },
        }
    }

    /// `--inject-drift phase=P,factor=F[,block=B]` for seeded-drift
    /// controller sessions.
    fn inject_drift(&self) -> Result<Option<DriftInjection>, ArgError> {
        match self.get("inject-drift") {
            None => Ok(None),
            Some(raw) => DriftInjection::parse(raw)
                .map(Some)
                .map_err(|_| ArgError::BadValue {
                    flag: "inject-drift".to_string(),
                    value: raw.to_string(),
                    expected: "`phase=P,factor=F[,block=B]`",
                }),
        }
    }

    /// `--format text|json|sarif` (default `text`).
    fn output_format(&self) -> Result<OutputFormat, ArgError> {
        match self.get("format") {
            None | Some("text") => Ok(OutputFormat::Text),
            Some("json") => Ok(OutputFormat::Json),
            Some("sarif") => Ok(OutputFormat::Sarif),
            Some(raw) => Err(ArgError::BadValue {
                flag: "format".to_string(),
                value: raw.to_string(),
                expected: "`text`, `json`, or `sarif`",
            }),
        }
    }

    /// `--tolerance T` for the X001 drift band (finite, non-negative;
    /// defaults to [`opprox_analyze::DEFAULT_DRIFT_TOLERANCE`]).
    fn tolerance(&self) -> Result<f64, ArgError> {
        match self.get("tolerance") {
            None => Ok(opprox_analyze::DEFAULT_DRIFT_TOLERANCE),
            Some(raw) => match raw.parse::<f64>() {
                Ok(t) if t.is_finite() && t >= 0.0 => Ok(t),
                _ => Err(ArgError::BadValue {
                    flag: "tolerance".to_string(),
                    value: raw.to_string(),
                    expected: "a finite non-negative number",
                }),
            },
        }
    }

    /// `--deny warnings` (the only deniable class).
    fn deny_warnings(&self) -> Result<bool, ArgError> {
        match self.get("deny") {
            None => Ok(false),
            Some("warnings") => Ok(true),
            Some(raw) => Err(ArgError::BadValue {
                flag: "deny".to_string(),
                value: raw.to_string(),
                expected: "`warnings`",
            }),
        }
    }

    /// `--threads N` (at least 1); `None` means "all cores".
    fn threads(&self) -> Result<Option<usize>, ArgError> {
        match self.get("threads") {
            None => Ok(None),
            Some(raw) => match raw.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(Some(n)),
                _ => Err(ArgError::BadValue {
                    flag: "threads".to_string(),
                    value: raw.to_string(),
                    expected: "a positive integer",
                }),
            },
        }
    }

    /// `--trace-out FILE [--trace-format json|chrome|text]`; the format
    /// defaults to `json` and is rejected without `--trace-out`.
    fn trace_spec(&self) -> Result<TraceSpec, ArgError> {
        let format = match self.get("trace-format") {
            None | Some("json") => TraceFormat::Json,
            Some("chrome") => TraceFormat::Chrome,
            Some("text") => TraceFormat::Text,
            Some(raw) => {
                return Err(ArgError::BadValue {
                    flag: "trace-format".to_string(),
                    value: raw.to_string(),
                    expected: "`json`, `chrome`, or `text`",
                })
            }
        };
        let out = self.get("trace-out").map(str::to_string);
        if out.is_none() && self.get("trace-format").is_some() {
            return Err(ArgError::MissingFlag("trace-out".to_string()));
        }
        Ok(TraceSpec { out, format })
    }

    /// `--fault-plan seed=42,panic=0.1,...`, typed through
    /// [`FaultPlan::parse`].
    fn fault_plan(&self) -> Result<Option<FaultPlan>, ArgError> {
        match self.get("fault-plan") {
            None => Ok(None),
            Some(raw) => {
                FaultPlan::parse(raw)
                    .map(Some)
                    .map_err(|message| ArgError::BadFaultPlan {
                        value: raw.to_string(),
                        message,
                    })
            }
        }
    }

    /// `--max-retries N` and `--eval-timeout-ms MS` over the default
    /// [`RecoveryPolicy`].
    fn recovery(&self) -> Result<RecoveryPolicy, ArgError> {
        let mut policy = RecoveryPolicy::default();
        if let Some(raw) = self.get("max-retries") {
            policy.max_retries = raw.parse().map_err(|_| ArgError::BadValue {
                flag: "max-retries".to_string(),
                value: raw.to_string(),
                expected: "a non-negative integer",
            })?;
        }
        if let Some(raw) = self.get("eval-timeout-ms") {
            let ms: u64 = raw.parse().map_err(|_| ArgError::BadValue {
                flag: "eval-timeout-ms".to_string(),
                value: raw.to_string(),
                expected: "a positive integer of milliseconds",
            })?;
            if ms == 0 {
                return Err(ArgError::BadValue {
                    flag: "eval-timeout-ms".to_string(),
                    value: raw.to_string(),
                    expected: "a positive integer of milliseconds",
                });
            }
            policy.eval_timeout_ms = Some(ms);
        }
        Ok(policy)
    }

    /// Parses a required comma-separated flag (e.g. `--input 64,2`).
    fn require_input(&self, flag: &str) -> Result<Vec<f64>, ArgError> {
        let raw = self.require(flag)?;
        raw.split(',')
            .map(|part| {
                part.trim().parse().map_err(|_| ArgError::BadValue {
                    flag: flag.to_string(),
                    value: raw.to_string(),
                    expected: "comma-separated numbers, e.g. 64,2",
                })
            })
            .collect()
    }
}

/// The closest candidate by edit distance, if within a tolerance that
/// scales with the word length (1 edit for short names, 2 for longer).
fn nearest<'a>(given: &str, candidates: impl Iterator<Item = &'a str>) -> Option<String> {
    let tolerance = if given.len() <= 4 { 1 } else { 2 };
    candidates
        .map(|c| (edit_distance(given, c), c))
        .filter(|&(d, _)| d <= tolerance)
        .min_by_key(|&(d, _)| d)
        .map(|(_, c)| c.to_string())
}

/// Levenshtein distance between two short ASCII-ish strings.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            row.push(subst.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Result<Command, ArgError> {
        Command::parse(parts.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_typed_commands() {
        let c = parse(&[
            "train", "--app", "lulesh", "--out", "m.json", "--phases", "4",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Train {
                app: "lulesh".into(),
                out: "m.json".into(),
                phases: 4,
                sparse: 36,
                seed: 11,
                threads: None,
                fault_plan: None,
                recovery: RecoveryPolicy::default(),
                trace: TraceSpec::default(),
            }
        );
        let c = parse(&[
            "oracle", "--app", "pso", "--input", "16,3", "--budget", "20",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Oracle {
                app: "pso".into(),
                input: vec![16.0, 3.0],
                budget: 20.0,
                threads: None,
                trace: TraceSpec::default(),
            }
        );
        assert_eq!(parse(&["apps"]).unwrap(), Command::Apps);
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
    }

    #[test]
    fn rejects_empty_and_malformed() {
        assert_eq!(parse(&[]).unwrap_err(), ArgError::MissingCommand);
        assert_eq!(
            parse(&["train", "--app"]).unwrap_err(),
            ArgError::MissingValue("app".into())
        );
        assert_eq!(
            parse(&["train", "stray"]).unwrap_err(),
            ArgError::UnexpectedPositional("stray".into())
        );
        assert!(matches!(
            parse(&["train", "--app", "pso"]).unwrap_err(),
            ArgError::MissingFlag(f) if f == "out"
        ));
    }

    #[test]
    fn unknown_command_suggests_nearest() {
        let err = parse(&["trian"]).unwrap_err();
        assert_eq!(
            err,
            ArgError::UnknownCommand {
                given: "trian".into(),
                suggestion: Some("train".into()),
            }
        );
        assert!(err.to_string().contains("did you mean `train`?"));
        // Nothing close: no suggestion.
        assert!(matches!(
            parse(&["frobnicate"]).unwrap_err(),
            ArgError::UnknownCommand {
                suggestion: None,
                ..
            }
        ));
    }

    #[test]
    fn unknown_flag_fails_at_parse_time_with_suggestion() {
        let err = parse(&["train", "--app", "pso", "--out", "m", "--sprase", "9"]).unwrap_err();
        assert_eq!(
            err,
            ArgError::UnknownFlag {
                command: "train".into(),
                flag: "sprase".into(),
                suggestion: Some("sparse".into()),
            }
        );
        assert!(err.to_string().contains("did you mean --sparse?"));
        // `optimize` takes no --threads; the error names the command.
        assert!(matches!(
            parse(&["optimize", "--model", "m", "--input", "1", "--budget", "5", "--threads", "2"])
                .unwrap_err(),
            ArgError::UnknownFlag { command, .. } if command == "optimize"
        ));
    }

    #[test]
    fn typed_values_validate() {
        assert!(matches!(
            parse(&["oracle", "--app", "p", "--input", "1,2", "--budget", "ten"]).unwrap_err(),
            ArgError::BadValue { .. }
        ));
        assert!(matches!(
            parse(&["oracle", "--app", "p", "--input", "1;2", "--budget", "5"]).unwrap_err(),
            ArgError::BadValue { .. }
        ));
        assert!(matches!(
            parse(&[
                "oracle",
                "--app",
                "p",
                "--input",
                "1,2",
                "--budget",
                "5",
                "--threads",
                "0"
            ])
            .unwrap_err(),
            ArgError::BadValue { .. }
        ));
        let c = parse(&[
            "run",
            "--model",
            "m",
            "--input",
            "64, 2",
            "--budget",
            "12.5",
            "--canary",
            "8,2",
            "--validations",
            "9",
            "--threads",
            "3",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Run {
                model: "m".into(),
                input: vec![64.0, 2.0],
                budget: 12.5,
                canary: Some(vec![8.0, 2.0]),
                validations: 9,
                threads: Some(3),
                fault_plan: None,
                recovery: RecoveryPolicy::default(),
                adaptive: false,
                drift_tolerance: None,
                resegment: true,
                inject_drift: None,
                trace: TraceSpec::default(),
            }
        );
    }

    #[test]
    fn adaptive_run_flags_parse() {
        let c = parse(&[
            "run",
            "--model",
            "m",
            "--input",
            "16,3",
            "--budget",
            "10",
            "--adaptive",
            "true",
            "--drift-tolerance",
            "0.4",
            "--resegment",
            "false",
            "--inject-drift",
            "phase=0,factor=6.0,block=1",
        ])
        .unwrap();
        let Command::Run {
            adaptive,
            drift_tolerance,
            resegment,
            inject_drift,
            ..
        } = c
        else {
            panic!("expected a run command: {c:?}");
        };
        assert!(adaptive);
        assert_eq!(drift_tolerance, Some(0.4));
        assert!(!resegment);
        assert_eq!(
            inject_drift,
            Some(DriftInjection {
                phase: 0,
                factor: 6.0,
                block: Some(1),
            })
        );
        // A malformed drift spec is a parse error naming the flag.
        assert!(matches!(
            parse(&[
                "run",
                "--model",
                "m",
                "--input",
                "16,3",
                "--budget",
                "10",
                "--inject-drift",
                "factor=6.0",
            ])
            .unwrap_err(),
            ArgError::BadValue { flag, .. } if flag == "inject-drift"
        ));
        assert!(matches!(
            parse(&[
                "run",
                "--model",
                "m",
                "--input",
                "16,3",
                "--budget",
                "10",
                "--drift-tolerance",
                "-1",
            ])
            .unwrap_err(),
            ArgError::BadValue { flag, .. } if flag == "drift-tolerance"
        ));
    }

    #[test]
    fn trace_flags_parse_into_a_spec() {
        let c = parse(&[
            "optimize",
            "--model",
            "m",
            "--input",
            "1,2",
            "--budget",
            "5",
            "--trace-out",
            "t.json",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Optimize {
                model: "m".into(),
                input: vec![1.0, 2.0],
                budget: 5.0,
                trace: TraceSpec {
                    out: Some("t.json".into()),
                    format: TraceFormat::Json,
                },
            }
        );
        let c = parse(&[
            "train",
            "--app",
            "pso",
            "--out",
            "m.json",
            "--trace-out",
            "t.trace",
            "--trace-format",
            "chrome",
        ])
        .unwrap();
        let Command::Train { trace, .. } = c else {
            panic!("expected a train command: {c:?}");
        };
        assert_eq!(trace.out.as_deref(), Some("t.trace"));
        assert_eq!(trace.format, TraceFormat::Chrome);
        // An unknown format is a parse error.
        assert!(matches!(
            parse(&[
                "train", "--app", "p", "--out", "m", "--trace-out", "t", "--trace-format", "xml",
            ])
            .unwrap_err(),
            ArgError::BadValue { flag, .. } if flag == "trace-format"
        ));
        // --trace-format without --trace-out is rejected.
        assert_eq!(
            parse(&[
                "train",
                "--app",
                "p",
                "--out",
                "m",
                "--trace-format",
                "text"
            ])
            .unwrap_err(),
            ArgError::MissingFlag("trace-out".into())
        );
        // `inspect` and `analyze` take no trace flags.
        assert!(matches!(
            parse(&["inspect", "--model", "m", "--trace-out", "t"]).unwrap_err(),
            ArgError::UnknownFlag { command, .. } if command == "inspect"
        ));
    }

    #[test]
    fn trace_summarize_takes_a_single_file() {
        assert_eq!(
            parse(&["trace", "summarize", "t.json"]).unwrap(),
            Command::Trace {
                file: "t.json".into()
            }
        );
        assert_eq!(parse(&["trace"]).unwrap_err(), ArgError::BadTraceUsage);
        assert_eq!(
            parse(&["trace", "summarize"]).unwrap_err(),
            ArgError::BadTraceUsage
        );
        assert_eq!(
            parse(&["trace", "explain", "t.json"]).unwrap_err(),
            ArgError::BadTraceUsage
        );
        assert_eq!(
            parse(&["trace", "summarize", "a.json", "b.json"]).unwrap_err(),
            ArgError::BadTraceUsage
        );
    }

    #[test]
    fn analyze_takes_positionals_other_commands_do_not() {
        let c = parse(&["analyze", "m.json", "s.json"]).unwrap();
        assert_eq!(
            c,
            Command::Analyze {
                artifacts: vec!["m.json".into(), "s.json".into()],
                format: OutputFormat::Text,
                deny_warnings: false,
            }
        );
        let c = parse(&[
            "analyze", "m.json", "--format", "json", "--deny", "warnings",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Analyze {
                artifacts: vec!["m.json".into()],
                format: OutputFormat::Json,
                deny_warnings: true,
            }
        );
        assert_eq!(parse(&["analyze"]).unwrap_err(), ArgError::NoArtifacts);
        assert!(matches!(
            parse(&["analyze", "m.json", "--format", "xml"]).unwrap_err(),
            ArgError::BadValue { flag, .. } if flag == "format"
        ));
        assert!(matches!(
            parse(&["analyze", "m.json", "--deny", "errors"]).unwrap_err(),
            ArgError::BadValue { flag, .. } if flag == "deny"
        ));
        // Positional rejection for every other command is unchanged.
        assert_eq!(
            parse(&["inspect", "m.json"]).unwrap_err(),
            ArgError::UnexpectedPositional("m.json".into())
        );
    }

    #[test]
    fn audit_parses_artifacts_formats_and_tolerance() {
        let c = parse(&["audit", "session/"]).unwrap();
        assert_eq!(
            c,
            Command::Audit {
                artifacts: vec!["session/".into()],
                format: OutputFormat::Text,
                deny_warnings: false,
                tolerance: opprox_analyze::DEFAULT_DRIFT_TOLERANCE,
            }
        );
        let c = parse(&[
            "audit",
            "m.json",
            "t.json",
            "--format",
            "sarif",
            "--deny",
            "warnings",
            "--tolerance",
            "0.5",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Audit {
                artifacts: vec!["m.json".into(), "t.json".into()],
                format: OutputFormat::Sarif,
                deny_warnings: true,
                tolerance: 0.5,
            }
        );
        assert_eq!(parse(&["audit"]).unwrap_err(), ArgError::NoArtifacts);
        assert!(matches!(
            parse(&["audit", "m.json", "--tolerance", "-1"]).unwrap_err(),
            ArgError::BadValue { flag, .. } if flag == "tolerance"
        ));
        assert!(matches!(
            parse(&["audit", "m.json", "--tolerance", "NaN"]).unwrap_err(),
            ArgError::BadValue { flag, .. } if flag == "tolerance"
        ));
        // `analyze` does not take --tolerance; the suggestion machinery
        // still points somewhere sensible.
        assert!(matches!(
            parse(&["analyze", "m.json", "--tolerance", "0.5"]).unwrap_err(),
            ArgError::UnknownFlag { command, .. } if command == "analyze"
        ));
        // SARIF is shared with analyze.
        assert!(matches!(
            parse(&["analyze", "m.json", "--format", "sarif"]).unwrap(),
            Command::Analyze {
                format: OutputFormat::Sarif,
                ..
            }
        ));
    }

    #[test]
    fn fault_flags_parse_into_typed_plan_and_policy() {
        let c = parse(&[
            "train",
            "--app",
            "pso",
            "--out",
            "m.json",
            "--fault-plan",
            "seed=42,panic=0.1,timeout=0.05",
            "--max-retries",
            "5",
            "--eval-timeout-ms",
            "250",
        ])
        .unwrap();
        let Command::Train {
            fault_plan: Some(plan),
            recovery,
            ..
        } = c
        else {
            panic!("expected a train command with a fault plan: {c:?}");
        };
        assert_eq!(plan.seed(), 42);
        assert!(plan.is_active());
        assert_eq!(recovery.max_retries, 5);
        assert_eq!(recovery.eval_timeout_ms, Some(250));

        // Without the flags: no plan, default policy.
        let c = parse(&["run", "--model", "m", "--input", "1,2", "--budget", "5"]).unwrap();
        let Command::Run {
            fault_plan,
            recovery,
            ..
        } = c
        else {
            panic!("expected a run command");
        };
        assert_eq!(fault_plan, None);
        assert_eq!(recovery, RecoveryPolicy::default());
    }

    #[test]
    fn fault_flags_reject_malformed_values() {
        let err = parse(&[
            "train",
            "--app",
            "p",
            "--out",
            "m",
            "--fault-plan",
            "panic=lots",
        ])
        .unwrap_err();
        assert!(
            matches!(&err, ArgError::BadFaultPlan { value, .. } if value == "panic=lots"),
            "{err}"
        );
        assert!(err.to_string().contains("non-numeric"), "{err}");
        assert!(matches!(
            parse(&[
                "run",
                "--model",
                "m",
                "--input",
                "1",
                "--budget",
                "5",
                "--max-retries",
                "-1",
            ])
            .unwrap_err(),
            ArgError::BadValue { .. }
        ));
        assert!(matches!(
            parse(&[
                "run",
                "--model",
                "m",
                "--input",
                "1",
                "--budget",
                "5",
                "--eval-timeout-ms",
                "0",
            ])
            .unwrap_err(),
            ArgError::BadValue { .. }
        ));
        // `optimize` is model-only: no engine, no fault flags.
        assert!(matches!(
            parse(&[
                "optimize", "--model", "m", "--input", "1", "--budget", "5", "--fault-plan",
                "seed=1",
            ])
            .unwrap_err(),
            ArgError::UnknownFlag { command, .. } if command == "optimize"
        ));
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("train", "train"), 0);
        assert_eq!(edit_distance("trian", "train"), 2);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }
}
