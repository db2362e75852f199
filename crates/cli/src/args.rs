//! Typed argument parsing for the `opprox` binary.
//!
//! Grammar: `opprox <command> [args...] [--flag value]...`. Parsing is
//! two-stage: the raw positionals and `--flag value` pairs are
//! collected, then immediately checked against the selected command's
//! flag set and converted into a typed [`Command`] whose payloads are
//! the option types `opprox-core` already defines ([`TrainingOptions`],
//! [`ControlOptions`], [`ServeOptions`], [`ApiRequest`], ...). Unknown
//! commands and unknown flags fail **at parse time** with a
//! nearest-match suggestion, so nothing stringly-typed survives into
//! dispatch. Only `analyze` and `audit` (their artifact files) and
//! `trace` (its subcommand and trace file) take positional arguments;
//! everywhere else a positional is an error.

use opprox_core::api::{AdaptiveParams, ApiRequest, OptimizeParams, PredictParams};
use opprox_core::evaluator::EvalEngine;
use opprox_core::phases::PhaseSearchOptions;
use opprox_core::pipeline::TrainingOptions;
use opprox_core::sampling::SamplingPlan;
use opprox_core::serve::ServeOptions;
use opprox_core::{ControlOptions, DriftInjection, FaultPlan, RecoveryPolicy};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// A fully parsed, typed command line: each variant carries the one
/// payload its subcommand runs on.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the registered applications.
    Apps,
    /// Algorithm 1: phase-granularity search.
    Phases(PhasesArgs),
    /// Profile an application, fit models, save them to disk.
    Train(TrainArgs),
    /// Algorithm 2, model-only: no real executions.
    Optimize(OptimizeArgs),
    /// Validated optimization plus real execution.
    Run(RunArgs),
    /// Phase-agnostic exhaustive baseline.
    Oracle(OracleArgs),
    /// Summarize a trained model.
    Inspect {
        /// Path to a trained model JSON.
        model: String,
    },
    /// Lint serialized artifacts (schedules, specs, trained model sets).
    Analyze(LintArgs),
    /// Cross-artifact audit of one run's linked artifacts.
    Audit {
        /// Artifacts, report format and warning gate.
        lint: LintArgs,
        /// X001 drift band widening (`--tolerance T`).
        tolerance: f64,
    },
    /// OPPROX (validated) vs the oracle in one shot.
    Compare(CompareArgs),
    /// Long-running optimization service speaking the v1 wire protocol
    /// (line-delimited JSON over TCP).
    Serve(ServeArgs),
    /// One-shot wire client for smoke queries against a running server.
    Client {
        /// Server address (`host:port`).
        addr: String,
        /// The request frame to send (`--op` and its flags).
        request: ApiRequest,
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

/// The evaluation-engine flags of the engine-backed commands
/// (`--threads`, `--fault-plan`, `--max-retries`, `--eval-timeout-ms`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineArgs {
    /// Worker threads (`None` = all cores).
    pub threads: Option<usize>,
    /// Deterministic fault-injection plan.
    pub fault_plan: Option<FaultPlan>,
    /// Retry and timeout policy.
    pub recovery: RecoveryPolicy,
}

impl EngineArgs {
    /// The engine these flags describe.
    pub fn engine(&self) -> EvalEngine {
        let threads = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        match self.fault_plan {
            Some(plan) => EvalEngine::with_faults(threads, plan, self.recovery),
            None => EvalEngine::with_recovery(threads, self.recovery),
        }
    }
}

/// `opprox phases`.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasesArgs {
    /// Application name.
    pub app: String,
    /// Input parameter values.
    pub input: Vec<f64>,
    /// Probe configurations (`--probes`) and their seed (`--seed`).
    pub options: PhaseSearchOptions,
    /// Engine flags.
    pub engine: EngineArgs,
    /// Telemetry export.
    pub trace: TraceSpec,
}

/// `opprox train`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainArgs {
    /// Application name.
    pub app: String,
    /// Output path for the trained model JSON.
    pub out: String,
    /// Phases, sparse samples, seed, and the fit pool's `--threads`.
    pub options: TrainingOptions,
    /// Engine flags.
    pub engine: EngineArgs,
    /// Telemetry export.
    pub trace: TraceSpec,
}

/// `opprox optimize`.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeArgs {
    /// Path to a trained model JSON.
    pub model: String,
    /// Input parameter values.
    pub input: Vec<f64>,
    /// QoS-degradation budget.
    pub budget: f64,
    /// Telemetry export.
    pub trace: TraceSpec,
}

/// `opprox run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Path to a trained model JSON.
    pub model: String,
    /// Input parameter values.
    pub input: Vec<f64>,
    /// QoS-degradation budget.
    pub budget: f64,
    /// Optional canary input for the validation executions.
    pub canary: Option<Vec<f64>>,
    /// Cap on validation executions.
    pub validations: usize,
    /// The closed-loop controller's options under `--adaptive true`
    /// (`--drift-tolerance`, `--resegment`, `--inject-drift`); `None`
    /// runs the one-shot validated pipeline.
    pub adaptive: Option<ControlOptions>,
    /// Engine flags.
    pub engine: EngineArgs,
    /// Telemetry export.
    pub trace: TraceSpec,
}

/// `opprox oracle`.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleArgs {
    /// Application name.
    pub app: String,
    /// Input parameter values.
    pub input: Vec<f64>,
    /// QoS-degradation budget.
    pub budget: f64,
    /// Engine flags.
    pub engine: EngineArgs,
    /// Telemetry export.
    pub trace: TraceSpec,
}

/// `opprox compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareArgs {
    /// Application name.
    pub app: String,
    /// Input parameter values.
    pub input: Vec<f64>,
    /// QoS-degradation budget.
    pub budget: f64,
    /// Training options, as for `opprox train`.
    pub options: TrainingOptions,
    /// Engine flags.
    pub engine: EngineArgs,
    /// Telemetry export.
    pub trace: TraceSpec,
}

/// `opprox analyze` and the shared part of `opprox audit`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintArgs {
    /// Paths to artifact files or directories of them.
    pub artifacts: Vec<String>,
    /// Report format.
    pub format: OutputFormat,
    /// Treat warnings as fatal (`--deny warnings`).
    pub deny_warnings: bool,
}

/// `opprox serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Paths of the trained-model artifacts to load (comma-separated in
    /// `--model`); each is hot-reloaded on file change.
    pub models: Vec<String>,
    /// File the bound address is written to once listening
    /// (`--addr-file`), so scripts can use `--addr 127.0.0.1:0`.
    pub addr_file: Option<String>,
    /// Bind address, handling slots, queue limit and reload poll.
    pub options: ServeOptions,
    /// Telemetry export at shutdown.
    pub trace: TraceSpec,
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
pub(crate) const COMMANDS: &[(&str, &[&str])] = &[
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
            "phases" => {
                let defaults = PhaseSearchOptions::default();
                Command::Phases(PhasesArgs {
                    app: self.require("app")?.to_string(),
                    input: self.require_input("input")?,
                    options: PhaseSearchOptions {
                        probe_configs: self.int_or("probes", defaults.probe_configs)?,
                        seed: self.int_or("seed", defaults.seed)?,
                        ..defaults
                    },
                    engine: self.engine_args()?,
                    trace: self.trace_spec()?,
                })
            }
            "train" => Command::Train(TrainArgs {
                app: self.require("app")?.to_string(),
                out: self.require("out")?.to_string(),
                options: self.training()?,
                engine: self.engine_args()?,
                trace: self.trace_spec()?,
            }),
            "optimize" => Command::Optimize(OptimizeArgs {
                model: self.require("model")?.to_string(),
                input: self.require_input("input")?,
                budget: self.require_f64("budget")?,
                trace: self.trace_spec()?,
            }),
            "run" => Command::Run(RunArgs {
                model: self.require("model")?.to_string(),
                input: self.require_input("input")?,
                budget: self.require_f64("budget")?,
                canary: self.optional("canary", Self::require_input)?,
                validations: self.int_or("validations", 32)?,
                adaptive: self.control_options()?,
                engine: self.engine_args()?,
                trace: self.trace_spec()?,
            }),
            "oracle" => Command::Oracle(OracleArgs {
                app: self.require("app")?.to_string(),
                input: self.require_input("input")?,
                budget: self.require_f64("budget")?,
                engine: self.engine_args()?,
                trace: self.trace_spec()?,
            }),
            "inspect" => Command::Inspect {
                model: self.require("model")?.to_string(),
            },
            "analyze" => Command::Analyze(self.lint_args()?),
            "audit" => Command::Audit {
                tolerance: self.tolerance()?,
                lint: self.lint_args()?,
            },
            "compare" => Command::Compare(CompareArgs {
                app: self.require("app")?.to_string(),
                input: self.require_input("input")?,
                budget: self.require_f64("budget")?,
                options: self.training()?,
                engine: self.engine_args()?,
                trace: self.trace_spec()?,
            }),
            "serve" => {
                let defaults = ServeOptions::default();
                Command::Serve(ServeArgs {
                    models: self
                        .require("model")?
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect(),
                    addr_file: self.get("addr-file").map(str::to_string),
                    options: ServeOptions {
                        addr: self.get("addr").unwrap_or(DEFAULT_SERVE_ADDR).to_string(),
                        threads: self.threads()?.unwrap_or(defaults.threads),
                        queue_limit: self.int_or("queue-limit", defaults.queue_limit)?,
                        reload_poll_ms: self.int_or("reload-poll-ms", defaults.reload_poll_ms)?,
                    },
                    trace: self.trace_spec()?,
                })
            }
            "client" => Command::Client {
                addr: self.get("addr").unwrap_or(DEFAULT_SERVE_ADDR).to_string(),
                request: self.api_request()?,
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
        raw.parse().map_err(|_| bad_value(flag, raw, "a number"))
    }

    fn int_or<T: FromStr>(&self, flag: &str, default: T) -> Result<T, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| bad_value(flag, raw, "a non-negative integer")),
        }
    }

    /// `flag` as a positive integer, if present.
    fn positive<T: FromStr + PartialEq + Default>(
        &self,
        flag: &str,
        expected: &'static str,
    ) -> Result<Option<T>, ArgError> {
        self.get(flag)
            .map(|raw| match raw.parse::<T>() {
                Ok(n) if n != T::default() => Ok(n),
                _ => Err(bad_value(flag, raw, expected)),
            })
            .transpose()
    }

    /// `flag` as a finite non-negative number, if present.
    fn non_negative(&self, flag: &str) -> Result<Option<f64>, ArgError> {
        self.get(flag)
            .map(|raw| match raw.parse::<f64>() {
                Ok(t) if t.is_finite() && t >= 0.0 => Ok(t),
                _ => Err(bad_value(flag, raw, "a finite non-negative number")),
            })
            .transpose()
    }

    fn opt_u64(&self, flag: &str) -> Result<Option<u64>, ArgError> {
        self.optional(flag, |args, flag| args.int_or(flag, 0))
    }

    /// Parses `flag` with `parse` when it is present.
    fn optional<T>(
        &self,
        flag: &str,
        parse: impl Fn(&Self, &str) -> Result<T, ArgError>,
    ) -> Result<Option<T>, ArgError> {
        self.get(flag).map(|_| parse(self, flag)).transpose()
    }

    fn bool_or(&self, flag: &str, default: bool) -> Result<bool, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some("true") => Ok(true),
            Some("false") => Ok(false),
            Some(raw) => Err(bad_value(flag, raw, "true or false")),
        }
    }

    /// `--op health|metrics|optimize|adaptive|predict|shutdown` and the
    /// flags of that op, as the wire request `opprox client` sends. Every
    /// typed flag but `--configs` is checked whatever the op, so a
    /// malformed value never passes unnoticed.
    fn api_request(&self) -> Result<ApiRequest, ArgError> {
        let op = self.require("op")?;
        let optimize = OptimizeParams {
            point: self.bool_or("point", false)?,
            validate: self.bool_or("validate", false)?,
            validation_budget: self.opt_u64("validations")?,
            max_retries: self.opt_u64("max-retries")?,
            backoff_ms: self.opt_u64("backoff-ms")?,
            eval_timeout_ms: self.opt_u64("eval-timeout-ms")?,
            ..OptimizeParams::new(String::new(), Vec::new(), 0.0)
        };
        let inject = self.inject_drift()?;
        let adaptive = AdaptiveParams {
            tolerance: self.non_negative("drift-tolerance")?,
            resegment: self.bool_or("resegment", true)?,
            drift_phase: inject.map(|d| d.phase as u64),
            drift_factor: inject.map(|d| d.factor),
            drift_block: inject.and_then(|d| d.block).map(|b| b as u64),
            max_retries: optimize.max_retries,
            backoff_ms: optimize.backoff_ms,
            eval_timeout_ms: optimize.eval_timeout_ms,
            ..AdaptiveParams::new(String::new(), Vec::new(), 0.0)
        };
        // Checked for every op; the arms that send them re-read them.
        self.optional("input", Self::require_input)?;
        self.optional("budget", Self::require_f64)?;
        let phase = self.int_or("phase", 0)?;
        Ok(match op {
            "health" => ApiRequest::Health,
            "metrics" => ApiRequest::Metrics,
            "shutdown" => ApiRequest::Shutdown,
            "optimize" => ApiRequest::Optimize(OptimizeParams {
                app: self.require("app")?.to_string(),
                input: self.require_input("input")?,
                budget: self.require_f64("budget")?,
                ..optimize
            }),
            "adaptive" => ApiRequest::Adaptive(AdaptiveParams {
                app: self.require("app")?.to_string(),
                input: self.require_input("input")?,
                budget: self.require_f64("budget")?,
                ..adaptive
            }),
            "predict" => ApiRequest::Predict(PredictParams {
                app: self.require("app")?.to_string(),
                input: self.require_input("input")?,
                phase,
                configs: self.config_rows()?,
            }),
            raw => {
                return Err(bad_value(
                    "op",
                    raw,
                    "health, metrics, optimize, adaptive, predict, or shutdown",
                ))
            }
        })
    }

    /// `--configs` (required): semicolon-separated configurations of
    /// comma-separated levels, e.g. `0,0,0;1,2,1`.
    fn config_rows(&self) -> Result<Vec<Vec<u64>>, ArgError> {
        let raw = self.require("configs")?;
        raw.split(';')
            .filter(|row| !row.trim().is_empty())
            .map(|row| {
                row.split(',')
                    .map(|cell| {
                        cell.trim().parse().map_err(|_| {
                            bad_value(
                                "configs",
                                raw,
                                "rows of non-negative integer levels, e.g. 0,0,0;1,2,1",
                            )
                        })
                    })
                    .collect()
            })
            .collect()
    }

    /// `--adaptive true` and the controller's flags. The controller
    /// flags are validated even when `--adaptive` is absent.
    fn control_options(&self) -> Result<Option<ControlOptions>, ArgError> {
        let mut options = ControlOptions {
            resegment: self.bool_or("resegment", true)?,
            inject: self.inject_drift()?,
            ..ControlOptions::default()
        };
        if let Some(t) = self.non_negative("drift-tolerance")? {
            options.drift_tolerance = t;
        }
        Ok(self.bool_or("adaptive", false)?.then_some(options))
    }

    /// `--phases N --sparse K --seed S` as training options (defaults 4,
    /// 36, 11); `--threads` also bounds the
    /// model-fitting pool.
    fn training(&self) -> Result<TrainingOptions, ArgError> {
        let phases = self.int_or("phases", 4)?;
        let mut options = TrainingOptions {
            num_phases: Some(phases),
            sampling: SamplingPlan {
                num_phases: phases,
                sparse_samples: self.int_or("sparse", 36)?,
                seed: self.int_or("seed", 11)?,
            },
            ..TrainingOptions::default()
        };
        options.modeling.threads = self.threads()?;
        Ok(options)
    }

    /// `--threads`, `--fault-plan`, `--max-retries` and
    /// `--eval-timeout-ms` (the latter three only where the command's
    /// flag table admits them).
    fn engine_args(&self) -> Result<EngineArgs, ArgError> {
        Ok(EngineArgs {
            threads: self.threads()?,
            fault_plan: self.fault_plan()?,
            recovery: self.recovery()?,
        })
    }

    /// The artifact positionals, `--format` and `--deny`.
    fn lint_args(&self) -> Result<LintArgs, ArgError> {
        if self.positionals.is_empty() {
            return Err(ArgError::NoArtifacts);
        }
        Ok(LintArgs {
            artifacts: self.positionals.clone(),
            format: self.output_format()?,
            deny_warnings: self.deny_warnings()?,
        })
    }

    /// `--inject-drift phase=P,factor=F[,block=B]` for seeded-drift
    /// controller sessions.
    fn inject_drift(&self) -> Result<Option<DriftInjection>, ArgError> {
        self.get("inject-drift")
            .map(|raw| {
                DriftInjection::parse(raw)
                    .map_err(|_| bad_value("inject-drift", raw, "`phase=P,factor=F[,block=B]`"))
            })
            .transpose()
    }

    /// `--format text|json|sarif` (default `text`).
    fn output_format(&self) -> Result<OutputFormat, ArgError> {
        match self.get("format") {
            None | Some("text") => Ok(OutputFormat::Text),
            Some("json") => Ok(OutputFormat::Json),
            Some("sarif") => Ok(OutputFormat::Sarif),
            Some(raw) => Err(bad_value("format", raw, "`text`, `json`, or `sarif`")),
        }
    }

    /// `--tolerance T` for the X001 drift band (finite, non-negative;
    /// defaults to [`opprox_analyze::DEFAULT_DRIFT_TOLERANCE`]).
    fn tolerance(&self) -> Result<f64, ArgError> {
        Ok(self
            .non_negative("tolerance")?
            .unwrap_or(opprox_analyze::DEFAULT_DRIFT_TOLERANCE))
    }

    /// `--deny warnings` (the only deniable class).
    fn deny_warnings(&self) -> Result<bool, ArgError> {
        match self.get("deny") {
            None => Ok(false),
            Some("warnings") => Ok(true),
            Some(raw) => Err(bad_value("deny", raw, "`warnings`")),
        }
    }

    /// `--threads N` (at least 1); `None` means "all cores".
    fn threads(&self) -> Result<Option<usize>, ArgError> {
        self.positive("threads", "a positive integer")
    }

    /// `--trace-out FILE [--trace-format json|chrome|text]`; the format
    /// defaults to `json` and is rejected without `--trace-out`.
    fn trace_spec(&self) -> Result<TraceSpec, ArgError> {
        let format = match self.get("trace-format") {
            None | Some("json") => TraceFormat::Json,
            Some("chrome") => TraceFormat::Chrome,
            Some("text") => TraceFormat::Text,
            Some(raw) => {
                return Err(bad_value(
                    "trace-format",
                    raw,
                    "`json`, `chrome`, or `text`",
                ))
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
        self.get("fault-plan")
            .map(|raw| {
                FaultPlan::parse(raw).map_err(|message| ArgError::BadFaultPlan {
                    value: raw.to_string(),
                    message,
                })
            })
            .transpose()
    }

    /// `--max-retries N` and `--eval-timeout-ms MS` over the default
    /// [`RecoveryPolicy`].
    fn recovery(&self) -> Result<RecoveryPolicy, ArgError> {
        let mut policy = RecoveryPolicy::default();
        policy.max_retries = self.int_or("max-retries", policy.max_retries)?;
        if let Some(ms) = self.positive("eval-timeout-ms", "a positive integer of milliseconds")? {
            policy.eval_timeout_ms = Some(ms);
        }
        Ok(policy)
    }

    /// Parses a required comma-separated flag (e.g. `--input 64,2`).
    fn require_input(&self, flag: &str) -> Result<Vec<f64>, ArgError> {
        let raw = self.require(flag)?;
        raw.split(',')
            .map(|part| {
                part.trim()
                    .parse()
                    .map_err(|_| bad_value(flag, raw, "comma-separated numbers, e.g. 64,2"))
            })
            .collect()
    }
}

/// A [`ArgError::BadValue`] for `--flag value`.
fn bad_value(flag: &str, value: &str, expected: &'static str) -> ArgError {
    ArgError::BadValue {
        flag: flag.to_string(),
        value: value.to_string(),
        expected,
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
            Command::Train(TrainArgs {
                app: "lulesh".into(),
                out: "m.json".into(),
                options: TrainingOptions {
                    num_phases: Some(4),
                    sampling: SamplingPlan {
                        num_phases: 4,
                        sparse_samples: 36,
                        seed: 11,
                    },
                    ..TrainingOptions::default()
                },
                engine: EngineArgs::default(),
                trace: TraceSpec::default(),
            })
        );
        let c = parse(&[
            "oracle", "--app", "pso", "--input", "16,3", "--budget", "20",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Oracle(OracleArgs {
                app: "pso".into(),
                input: vec![16.0, 3.0],
                budget: 20.0,
                engine: EngineArgs::default(),
                trace: TraceSpec::default(),
            })
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
            Command::Run(RunArgs {
                model: "m".into(),
                input: vec![64.0, 2.0],
                budget: 12.5,
                canary: Some(vec![8.0, 2.0]),
                validations: 9,
                adaptive: None,
                engine: EngineArgs {
                    threads: Some(3),
                    ..EngineArgs::default()
                },
                trace: TraceSpec::default(),
            })
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
        let Command::Run(RunArgs { adaptive, .. }) = c else {
            panic!("expected a run command: {c:?}");
        };
        assert_eq!(
            adaptive,
            Some(ControlOptions {
                drift_tolerance: 0.4,
                resegment: false,
                inject: Some(DriftInjection {
                    phase: 0,
                    factor: 6.0,
                    block: Some(1),
                }),
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
    fn compare_threads_bound_the_fit_pool_like_train() {
        let train = parse(&["train", "--app", "pso", "--out", "m", "--threads", "2"]);
        let Ok(Command::Train(train)) = train else {
            panic!("expected a train command: {train:?}");
        };
        let compare = parse(&[
            "compare",
            "--app",
            "pso",
            "--input",
            "16,3",
            "--budget",
            "5",
            "--threads",
            "2",
        ]);
        let Ok(Command::Compare(compare)) = compare else {
            panic!("expected a compare command: {compare:?}");
        };
        for (options, engine) in [
            (train.options, train.engine),
            (compare.options, compare.engine),
        ] {
            assert_eq!(options.modeling.threads, Some(2));
            assert_eq!(engine.threads, Some(2));
        }
        assert_eq!(train.options, compare.options);
    }

    #[test]
    fn client_flags_map_onto_wire_requests() {
        let c = parse(&[
            "client",
            "--op",
            "adaptive",
            "--app",
            "pso",
            "--input",
            "16,3",
            "--budget",
            "10",
            "--drift-tolerance",
            "0.4",
            "--resegment",
            "false",
            "--inject-drift",
            "phase=0,factor=6.0,block=1",
            "--max-retries",
            "2",
        ])
        .unwrap();
        let Command::Client { addr, request } = c else {
            panic!("expected a client command: {c:?}");
        };
        assert_eq!(addr, DEFAULT_SERVE_ADDR);
        let expected = ApiRequest::Adaptive(AdaptiveParams {
            tolerance: Some(0.4),
            resegment: false,
            drift_phase: Some(0),
            drift_factor: Some(6.0),
            drift_block: Some(1),
            max_retries: Some(2),
            ..AdaptiveParams::new("pso", vec![16.0, 3.0], 10.0)
        });
        assert_eq!(request.to_wire(), expected.to_wire());

        let c = parse(&[
            "client",
            "--op",
            "optimize",
            "--app",
            "pso",
            "--input",
            "16,3",
            "--budget",
            "10",
            "--point",
            "true",
            "--validate",
            "true",
            "--validations",
            "4",
        ])
        .unwrap();
        let Command::Client { request, .. } = c else {
            panic!("expected a client command: {c:?}");
        };
        let expected = ApiRequest::Optimize(OptimizeParams {
            point: true,
            validate: true,
            validation_budget: Some(4),
            ..OptimizeParams::new("pso", vec![16.0, 3.0], 10.0)
        });
        assert_eq!(request.to_wire(), expected.to_wire());

        let c = parse(&[
            "client",
            "--op",
            "predict",
            "--app",
            "pso",
            "--input",
            "16,3",
            "--phase",
            "1",
            "--configs",
            "0,0,0;1,2,1",
        ])
        .unwrap();
        let Command::Client { request, .. } = c else {
            panic!("expected a client command: {c:?}");
        };
        let expected = ApiRequest::Predict(PredictParams {
            app: "pso".into(),
            input: vec![16.0, 3.0],
            phase: 1,
            configs: vec![vec![0, 0, 0], vec![1, 2, 1]],
        });
        assert_eq!(request.to_wire(), expected.to_wire());

        // Missing and malformed flags fail at parse time, before any
        // connection; a typed flag the op ignores is still checked.
        assert_eq!(
            parse(&["client", "--op", "optimize", "--input", "1", "--budget", "5"]).unwrap_err(),
            ArgError::MissingFlag("app".into())
        );
        assert!(matches!(
            parse(&["client", "--op", "predict", "--app", "p", "--input", "1", "--configs", "0,x"])
                .unwrap_err(),
            ArgError::BadValue { flag, .. } if flag == "configs"
        ));
        assert!(matches!(
            parse(&["client", "--op", "health", "--point", "maybe"]).unwrap_err(),
            ArgError::BadValue { flag, .. } if flag == "point"
        ));
        assert!(matches!(
            parse(&["client", "--op", "ping"]).unwrap_err(),
            ArgError::BadValue { flag, .. } if flag == "op"
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
            Command::Optimize(OptimizeArgs {
                model: "m".into(),
                input: vec![1.0, 2.0],
                budget: 5.0,
                trace: TraceSpec {
                    out: Some("t.json".into()),
                    format: TraceFormat::Json,
                },
            })
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
        let Command::Train(TrainArgs { trace, .. }) = c else {
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
            Command::Analyze(LintArgs {
                artifacts: vec!["m.json".into(), "s.json".into()],
                format: OutputFormat::Text,
                deny_warnings: false,
            })
        );
        let c = parse(&[
            "analyze", "m.json", "--format", "json", "--deny", "warnings",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Analyze(LintArgs {
                artifacts: vec!["m.json".into()],
                format: OutputFormat::Json,
                deny_warnings: true,
            })
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
                lint: LintArgs {
                    artifacts: vec!["session/".into()],
                    format: OutputFormat::Text,
                    deny_warnings: false,
                },
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
                lint: LintArgs {
                    artifacts: vec!["m.json".into(), "t.json".into()],
                    format: OutputFormat::Sarif,
                    deny_warnings: true,
                },
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
            Command::Analyze(LintArgs {
                format: OutputFormat::Sarif,
                ..
            })
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
        let Command::Train(TrainArgs {
            engine:
                EngineArgs {
                    fault_plan: Some(plan),
                    recovery,
                    ..
                },
            ..
        }) = c
        else {
            panic!("expected a train command with a fault plan: {c:?}");
        };
        assert_eq!(plan.seed(), 42);
        assert!(plan.is_active());
        assert_eq!(recovery.max_retries, 5);
        assert_eq!(recovery.eval_timeout_ms, Some(250));

        // Without the flags: no plan, default policy.
        let c = parse(&["run", "--model", "m", "--input", "1,2", "--budget", "5"]).unwrap();
        let Command::Run(RunArgs { engine, .. }) = c else {
            panic!("expected a run command");
        };
        assert_eq!(engine, EngineArgs::default());
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
