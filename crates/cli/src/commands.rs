//! Implementations of the `opprox` subcommands.
//!
//! This is the Rust equivalent of the paper's runtime workflow (Sec. 4.2):
//! trained models are stored on disk, a job is submitted with a target
//! error budget, the runtime loads the models, finds the best
//! phase-specific approximation settings, and passes them to the job.
//!
//! Every subcommand that executes an application for real builds an
//! [`EvalEngine`] and routes all executions through it; the engine's
//! [`EvalMetrics`] (executions, cache hits, per-stage wall time) are
//! printed at the end.

use crate::args::{
    Command, CompareArgs, LintArgs, OptimizeArgs, OracleArgs, OutputFormat, PhasesArgs, RunArgs,
    ServeArgs, TraceFormat, TraceSpec, TrainArgs,
};
use opprox_analyze::{Artifact, ArtifactSet};
use opprox_approx_rt::{ApproxApp, InputParams};
use opprox_core::api::{ApiRequest, ApiResponse};
use opprox_core::evaluator::{EvalEngine, EvalMetrics};
use opprox_core::oracle::phase_agnostic_oracle_with;
use opprox_core::phases::find_phase_granularity_with;
use opprox_core::pipeline::{Opprox, TrainedOpprox};
use opprox_core::report::percent_less_work;
use opprox_core::request::OptimizeRequest;
use opprox_core::serve::{ServeState, Server};
use opprox_core::OpproxError;
use opprox_core::{AccuracySpec, TelemetryReport};
use std::error::Error;

/// The result alias used by every subcommand.
pub type CmdResult = Result<(), Box<dyn Error>>;

/// Dispatches a typed command. Output is written to `out` so the
/// commands are testable.
///
/// # Errors
///
/// Propagates subcommand failures.
pub fn dispatch(command: &Command, out: &mut dyn std::io::Write) -> CmdResult {
    match command {
        Command::Apps => cmd_apps(out),
        Command::Phases(args) => cmd_phases(args, out),
        Command::Train(args) => cmd_train(args, out),
        Command::Optimize(args) => cmd_optimize(args, out),
        Command::Run(args) => cmd_run(args, out),
        Command::Oracle(args) => cmd_oracle(args, out),
        Command::Inspect { model } => cmd_inspect(model, out),
        Command::Analyze(lint) => cmd_analyze(lint, out),
        Command::Audit { lint, tolerance } => cmd_audit(lint, *tolerance, out),
        Command::Compare(args) => cmd_compare(args, out),
        Command::Serve(args) => cmd_serve(args, out),
        Command::Client { addr, request } => cmd_client(addr, request, out),
        Command::Trace { file } => cmd_trace_summarize(file, out),
        Command::Help => cmd_help(out),
    }
}

/// Prints the usage summary.
///
/// # Errors
///
/// Propagates write failures.
pub fn cmd_help(out: &mut dyn std::io::Write) -> CmdResult {
    writeln!(
        out,
        "opprox — phase-aware optimization of approximate programs (CGO'17 reproduction)\n\
         \n\
         USAGE: opprox <command> [--flag value]...\n\
         \n\
         COMMANDS\n\
         \x20 apps                                   list the registered applications\n\
         \x20 phases   --app A --input I             run Algorithm 1 (phase-granularity search)\n\
         \x20          [--probes K] [--seed S] [--threads T]\n\
         \x20 train    --app A --out FILE            profile + fit models, save to FILE\n\
         \x20          [--phases N] [--sparse K] [--seed S] [--threads T]\n\
         \x20          [--fault-plan P] [--max-retries R] [--eval-timeout-ms MS]\n\
         \x20 optimize --model FILE --input I --budget B\n\
         \x20                                        solve Algorithm 2 (model-only)\n\
         \x20 run      --model FILE --input I --budget B\n\
         \x20          [--canary C] [--validations V] [--threads T]\n\
         \x20          [--fault-plan P] [--max-retries R] [--eval-timeout-ms MS]\n\
         \x20          [--adaptive true] [--drift-tolerance D] [--resegment false]\n\
         \x20          [--inject-drift phase=P,factor=F[,block=B]]\n\
         \x20                                        validated optimization + real execution;\n\
         \x20                                        --adaptive runs the closed-loop controller\n\
         \x20                                        (mid-run re-optimization on drift)\n\
         \x20 oracle   --app A --input I --budget B  phase-agnostic exhaustive baseline\n\
         \x20          [--threads T]\n\
         \x20 inspect  --model FILE                   summarize a trained model\n\
         \x20 analyze  FILE|DIR...                    lint artifacts (models, schedules, specs,\n\
         \x20          [--format text|json|sarif]     training data); exits nonzero on errors,\n\
         \x20          [--deny warnings]              or on warnings under --deny warnings\n\
         \x20 audit    FILE|DIR...                    cross-artifact session audit: link model,\n\
         \x20          [--format text|json|sarif]     schedules, trace, and robustness report,\n\
         \x20          [--deny warnings]              verify end-to-end invariants (X0xx rules);\n\
         \x20          [--tolerance T]                T widens the X001 drift band (default 0.25)\n\
         \x20 compare  --app A --input I --budget B   OPPROX (validated) vs oracle in one shot\n\
         \x20          [--phases N] [--sparse K] [--seed S] [--threads T]\n\
         \x20          [--fault-plan P] [--max-retries R] [--eval-timeout-ms MS]\n\
         \x20 trace    summarize FILE                  render the human summary of a JSON\n\
         \x20                                          telemetry trace (--trace-out)\n\
         \x20 serve    --model FILE[,FILE...]          serve optimize/predict/health over the\n\
         \x20          [--addr H:P] [--addr-file F]    v1 line-delimited JSON wire protocol;\n\
         \x20          [--threads T] [--queue-limit Q] hot-reloads artifacts on file change,\n\
         \x20          [--reload-poll-ms MS]           sheds load past --queue-limit\n\
         \x20 client   --op health|metrics|optimize|adaptive|predict|shutdown\n\
         \x20          [--addr H:P] [--app A] [--input I] [--budget B]\n\
         \x20          [--phase P] [--configs 0,0,0;1,2,1] [--point true]\n\
         \x20          [--validate true] [--validations V] [--max-retries R]\n\
         \x20          [--backoff-ms MS] [--eval-timeout-ms MS]\n\
         \x20          [--drift-tolerance D] [--resegment false]\n\
         \x20          [--inject-drift phase=P,factor=F[,block=B]]\n\
         \x20                                          send one wire request, print the reply\n\
         \n\
         Inputs are comma-separated parameter values, e.g. --input 64,2 for\n\
         LULESH (mesh_length, num_regions) or --input 64,4,100 for PageRank\n\
         (nodes, out_degree, max_steps); `opprox apps` lists every port with\n\
         its parameters and blocks. --threads bounds the evaluation engine's\n\
         worker pool, or for serve the requests handled at once (default:\n\
         all cores).\n\
         \n\
         Engine-backed commands (and model-only optimize) also accept\n\
         --trace-out FILE [--trace-format json|chrome|text] to export the\n\
         run's telemetry: spans, counters, gauges, histograms, events.\n\
         The json format round-trips through `opprox analyze` and\n\
         `opprox trace summarize`; chrome loads in chrome://tracing.\n\
         \n\
         --fault-plan injects deterministic faults for robustness testing,\n\
         e.g. seed=42,panic=0.1,timeout=0.05,nan=0.05,poison=0.02,fail_first=1;\n\
         the run then ends with a robustness ledger (retries, drops,\n\
         quarantines). --max-retries and --eval-timeout-ms shape recovery."
    )?;
    Ok(())
}

fn lookup_app(name: &str) -> Result<Box<dyn ApproxApp>, Box<dyn Error>> {
    opprox_apps::registry::by_name(name).ok_or_else(|| {
        let names: Vec<String> = opprox_apps::registry::all_apps()
            .iter()
            .map(|a| a.meta().name.clone())
            .collect();
        Box::new(OpproxError::UnknownApp {
            given: name.to_string(),
            available: names.join(", "),
        }) as Box<dyn Error>
    })
}

/// Prints the engine's metrics block under a standard header.
fn report_metrics(metrics: &EvalMetrics, out: &mut dyn std::io::Write) -> CmdResult {
    writeln!(out, "{metrics}")?;
    Ok(())
}

/// Prints the engine's robustness ledger, if it has one worth showing.
fn report_robustness(engine: &EvalEngine, out: &mut dyn std::io::Write) -> CmdResult {
    if let Some(report) = engine.robustness_ledger() {
        write!(out, "{report}")?;
    }
    Ok(())
}

/// Exports the command's telemetry to `--trace-out` in the requested
/// format; a no-op without the flag.
fn write_trace(
    trace: &TraceSpec,
    report: &TelemetryReport,
    out: &mut dyn std::io::Write,
) -> CmdResult {
    let Some(path) = trace.out.as_deref() else {
        return Ok(());
    };
    let rendered = match trace.format {
        TraceFormat::Json => report.to_json(),
        TraceFormat::Chrome => report.to_chrome_trace(),
        TraceFormat::Text => report.render_text(),
    };
    std::fs::write(path, rendered).map_err(|e| format!("writing trace to {path}: {e}"))?;
    writeln!(out, "trace written to {path}")?;
    Ok(())
}

/// `opprox trace summarize FILE`: render the human summary of a JSON
/// telemetry report captured with `--trace-out` (default format).
fn cmd_trace_summarize(file: &str, out: &mut dyn std::io::Write) -> CmdResult {
    let text = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
    let report = TelemetryReport::from_json(&text).map_err(|e| {
        format!("{file}: {e} (expected a JSON trace written by --trace-out, format json)")
    })?;
    write!(out, "{}", report.render_text())?;
    Ok(())
}

/// Starts the optimization service: loads every artifact, binds the
/// listener, and blocks until a `shutdown` frame (or process signal)
/// ends it. The server's telemetry report is exported to `--trace-out`
/// on the way out, so a serving session can be linted with
/// `opprox analyze` like any other run.
fn cmd_serve(args: &ServeArgs, out: &mut dyn std::io::Write) -> CmdResult {
    let state = std::sync::Arc::new(ServeState::new(args.options.clone()));
    for path in &args.models {
        let app = state.load_artifact(path)?;
        writeln!(out, "loaded `{app}` from {path}")?;
    }
    let server = Server::start(std::sync::Arc::clone(&state))
        .map_err(|e| format!("binding {}: {e}", args.options.addr))?;
    writeln!(
        out,
        "listening on {} ({} threads)",
        server.addr(),
        state.options().threads
    )?;
    if let Some(file) = &args.addr_file {
        std::fs::write(file, server.addr().to_string())
            .map_err(|e| format!("writing {file}: {e}"))?;
    }
    out.flush()?;
    server.run_until_shutdown();
    write_trace(&args.trace, &state.telemetry().report(), out)?;
    writeln!(out, "shutdown complete")?;
    Ok(())
}

/// Sends one request to a running server and prints the raw reply
/// frame. Exits nonzero when the server answers with an error frame, so
/// smoke scripts can assert on the exit code alone.
fn cmd_client(addr: &str, request: &ApiRequest, out: &mut dyn std::io::Write) -> CmdResult {
    use std::io::{BufRead, BufReader, Write as IoWrite};
    let stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cloning socket: {e}"))?;
    // The frame and its newline go out as one write.
    let mut frame = request.to_wire();
    frame.push('\n');
    writer.write_all(frame.as_bytes())?;
    writer.flush()?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("reading reply from {addr}: {e}"))?;
    let line = line.trim_end();
    if line.is_empty() {
        return Err(OpproxError::Unavailable(format!(
            "server at {addr} closed the connection without a reply"
        ))
        .into());
    }
    writeln!(out, "{line}")?;
    match ApiResponse::parse(line) {
        Ok(resp) if resp.is_error() => Err("server returned an error frame".into()),
        Ok(_) => Ok(()),
        Err(e) => Err(format!("unparseable reply frame: {e}").into()),
    }
}

fn cmd_apps(out: &mut dyn std::io::Write) -> CmdResult {
    for app in opprox_apps::registry::all_apps() {
        let meta = app.meta();
        writeln!(out, "{}", meta.name)?;
        writeln!(out, "  inputs: {}", meta.input_param_names.join(", "))?;
        for (i, b) in meta.blocks.iter().enumerate() {
            writeln!(
                out,
                "  block {i}: {} — {}, levels 0..={}",
                b.name, b.technique, b.max_level
            )?;
        }
        let examples: Vec<String> = app
            .representative_inputs()
            .iter()
            .take(2)
            .map(|p| {
                p.values()
                    .iter()
                    .map(f64::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        writeln!(out, "  example inputs: {}", examples.join(" | "))?;
    }
    Ok(())
}

fn cmd_phases(args: &PhasesArgs, out: &mut dyn std::io::Write) -> CmdResult {
    let app = lookup_app(&args.app)?;
    let input = InputParams::new(args.input.clone());
    let engine = args.engine.engine();
    let n = find_phase_granularity_with(&engine, app.as_ref(), &input, &args.options)?;
    writeln!(out, "Algorithm 1 chose {n} phases for {}", app.meta().name)?;
    report_metrics(&engine.metrics(), out)?;
    write_trace(&args.trace, &engine.telemetry_report(), out)
}

fn cmd_train(args: &TrainArgs, out: &mut dyn std::io::Write) -> CmdResult {
    let app = lookup_app(&args.app)?;
    writeln!(out, "training OPPROX on {} …", app.meta().name)?;
    let engine = args.engine.engine();
    let trained = Opprox::train_with(&engine, app.as_ref(), &args.options)?;
    for (phase, s_r2, q_r2) in trained.models().accuracy_summary() {
        writeln!(
            out,
            "  phase {phase}: speedup R² {s_r2:.3}, qos R² {q_r2:.3}"
        )?;
    }
    writeln!(
        out,
        "golden-iteration estimator: {:.1}% mean relative error",
        trained.golden_iter_rel_error() * 100.0
    )?;
    std::fs::write(&args.out, trained.to_json()?)?;
    writeln!(out, "model saved to {}", args.out)?;
    report_metrics(&engine.metrics(), out)?;
    report_robustness(&engine, out)?;
    write!(out, "{}", trained.modeling_metrics())?;
    write_trace(&args.trace, &engine.telemetry_report(), out)?;
    Ok(())
}

/// Loads a trained model through [`TrainedOpprox::load`], which rejects
/// Error-severity corruption (rules A004/A007/A012) at the boundary.
fn load_model(path: &str) -> Result<TrainedOpprox, Box<dyn Error>> {
    Ok(TrainedOpprox::load(path)?)
}

fn cmd_optimize(args: &OptimizeArgs, out: &mut dyn std::io::Write) -> CmdResult {
    let trained = load_model(&args.model)?;
    let input = InputParams::new(args.input.clone());
    let spec = AccuracySpec::try_new(args.budget)?;
    let outcome = OptimizeRequest::new(input, spec).run(&trained)?;
    writeln!(out, "plan for {} (model-only):", trained.app_name())?;
    for (phase, cfg) in outcome.plan.schedule.configs().iter().enumerate() {
        writeln!(out, "  phase {}: levels {:?}", phase + 1, cfg.levels())?;
    }
    writeln!(
        out,
        "predicted: {:.2}x speedup, {:.2} QoS degradation (budget {:.2})",
        outcome.plan.predicted_speedup,
        outcome.plan.predicted_qos,
        spec.error_budget()
    )?;
    write_trace(&args.trace, &outcome.telemetry, out)?;
    Ok(())
}

fn cmd_run(args: &RunArgs, out: &mut dyn std::io::Write) -> CmdResult {
    let trained = load_model(&args.model)?;
    let app = lookup_app(trained.app_name())?;
    let input = InputParams::new(args.input.clone());
    let spec = AccuracySpec::try_new(args.budget)?;
    let engine = args.engine.engine();
    let mut request = OptimizeRequest::new(input, spec)
        .validate_on(app.as_ref())
        .validation_budget(args.validations)
        .engine(&engine);
    if let Some(canary) = &args.canary {
        request = request.canary(InputParams::new(canary.clone()));
    }
    if let Some(options) = args.adaptive {
        request = request.adaptive(options);
    }
    let outcome = request.run(&trained)?;
    if let Some(control) = &outcome.control {
        writeln!(
            out,
            "adaptive session for {} ({} steps, {} re-plans):",
            trained.app_name(),
            control.steps.len(),
            control.replans
        )?;
        for step in &control.steps {
            writeln!(
                out,
                "  step {}: phase {} observed {:.3}x vs band [{:.3}, {:.3}], drift {:.3}{}{}{}",
                step.step,
                step.phase,
                step.observed_speedup,
                step.band_lo,
                step.band_hi,
                step.drift,
                if step.resegmented {
                    " [re-segmented]"
                } else {
                    ""
                },
                if step.replanned { " [re-planned]" } else { "" },
                if step.budget_reclaimed > 0.0 {
                    format!(
                        " (reclaimed {:.3}, redistributed {:.3})",
                        step.budget_reclaimed, step.budget_redistributed
                    )
                } else {
                    String::new()
                },
            )?;
        }
        if control.degraded {
            writeln!(out, "  degraded: faults forced the accurate fallback")?;
        }
    }
    writeln!(
        out,
        "validated plan for {} ({:?} path, {} candidates tried):",
        trained.app_name(),
        outcome.path,
        outcome.candidates_tried
    )?;
    for (phase, cfg) in outcome.plan.schedule.configs().iter().enumerate() {
        writeln!(out, "  phase {}: levels {:?}", phase + 1, cfg.levels())?;
    }
    match outcome.measured {
        Some(measured) => writeln!(
            out,
            "measured: {:.2}x speedup ({:.1}% less work), {:.2} QoS degradation \
             (budget {:.2}), {} outer iterations",
            measured.speedup,
            percent_less_work(measured.speedup),
            measured.qos,
            spec.error_budget(),
            measured.outer_iters
        )?,
        // Degraded mode: validation fell back to the model-only path
        // (possible when fault injection keeps failing the golden run).
        None => writeln!(
            out,
            "measured: unavailable (validation degraded to the model-only path); \
             predicted {:.2}x speedup, {:.2} QoS degradation",
            outcome.plan.predicted_speedup, outcome.plan.predicted_qos
        )?,
    }
    report_metrics(&engine.metrics(), out)?;
    report_robustness(&engine, out)?;
    write_trace(&args.trace, &outcome.telemetry, out)
}

fn cmd_oracle(args: &OracleArgs, out: &mut dyn std::io::Write) -> CmdResult {
    let app = lookup_app(&args.app)?;
    let input = InputParams::new(args.input.clone());
    let spec = AccuracySpec::try_new(args.budget)?;
    let engine = args.engine.engine();
    let r = phase_agnostic_oracle_with(&engine, app.as_ref(), &input, &spec)?;
    match &r.config {
        Some(cfg) => writeln!(
            out,
            "oracle best (over {} executions): levels {:?} — {:.2}x speedup \
             ({:.1}% less work), {:.2} QoS degradation",
            r.evaluated,
            cfg.levels(),
            r.speedup,
            percent_less_work(r.speedup),
            r.qos
        )?,
        None => writeln!(
            out,
            "oracle found no configuration within budget {:.2} \
             (over {} executions)",
            spec.error_budget(),
            r.evaluated
        )?,
    }
    report_metrics(&engine.metrics(), out)?;
    write_trace(&args.trace, &engine.telemetry_report(), out)
}

fn cmd_inspect(model: &str, out: &mut dyn std::io::Write) -> CmdResult {
    let trained = load_model(model)?;
    writeln!(out, "app: {}", trained.app_name())?;
    writeln!(out, "phases: {}", trained.num_phases())?;
    writeln!(
        out,
        "control-flow classes: {}",
        trained.models().control_flow().num_classes()
    )?;
    writeln!(
        out,
        "golden-iteration estimator: {:.1}% mean relative error",
        trained.golden_iter_rel_error() * 100.0
    )?;
    writeln!(out, "per-phase combined-model cross-validation R²:")?;
    for (phase, s_r2, q_r2) in trained.models().accuracy_summary() {
        writeln!(out, "  phase {phase}: speedup {s_r2:.3}, qos {q_r2:.3}")?;
    }
    Ok(())
}

/// `opprox analyze`: classify each file by shape, run every semantic
/// lint over the combination, render the report, and fail on errors (or
/// on warnings under `--deny warnings`) so CI and scripts can gate on
/// the exit status. The report is printed *before* the failure is
/// returned — the findings are the point, not the exit code.
fn cmd_analyze(lint: &LintArgs, out: &mut dyn std::io::Write) -> CmdResult {
    let mut set = ArtifactSet::default();
    for path in expand_artifact_paths(&lint.artifacts)? {
        let (artifact, _) = load_artifact(&path)?;
        if let Some(kind) = set.add(artifact) {
            writeln!(out, "note: {path} replaces an earlier {kind} artifact")?;
        }
    }
    let report = opprox_analyze::analyze(&set);
    render_report(&report, lint, out)?;
    fail_on_findings(&report, lint, "analysis")
}

/// `opprox audit`: classify every file of the session, link the
/// artifacts, run the cross-artifact `X0xx` rules, render, and gate the
/// exit status like `analyze` does. Unlike `analyze`, every schedule in
/// the session is kept (a run emits many candidates), so nothing is
/// replaced.
fn cmd_audit(lint: &LintArgs, tolerance: f64, out: &mut dyn std::io::Write) -> CmdResult {
    let mut loaded = Vec::new();
    for path in expand_artifact_paths(&lint.artifacts)? {
        loaded.push(load_artifact(&path)?.0);
    }
    let report = opprox_analyze::audit(loaded, tolerance);
    render_report(&report, lint, out)?;
    fail_on_findings(&report, lint, "audit")
}

/// Expands each path that names a directory into its `*.json` entries,
/// in file-name order, so `opprox audit session-dir/` works on a whole
/// `--trace-out` + model + report dump. Plain file paths pass through
/// untouched (they may be any kind; only directories are filtered to
/// `.json`).
fn expand_artifact_paths(paths: &[String]) -> Result<Vec<String>, Box<dyn Error>> {
    let mut expanded = Vec::new();
    for path in paths {
        if std::fs::metadata(path).map(|m| m.is_dir()).unwrap_or(false) {
            let mut entries: Vec<String> = std::fs::read_dir(path)
                .map_err(|e| format!("reading directory {path}: {e}"))?
                .filter_map(|entry| {
                    let p = entry.ok()?.path();
                    (p.extension().is_some_and(|ext| ext == "json"))
                        .then(|| p.to_string_lossy().into_owned())
                })
                .collect();
            entries.sort();
            if entries.is_empty() {
                return Err(format!("directory {path} contains no .json artifacts").into());
            }
            expanded.extend(entries);
        } else {
            expanded.push(path.clone());
        }
    }
    Ok(expanded)
}

/// Reads and classifies one artifact file.
fn load_artifact(path: &str) -> Result<(Artifact, String), Box<dyn Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let artifact = Artifact::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok((artifact, path.to_string()))
}

fn render_report(
    report: &opprox_analyze::Report,
    lint: &LintArgs,
    out: &mut dyn std::io::Write,
) -> CmdResult {
    match lint.format {
        OutputFormat::Text => write!(out, "{}", report.render_text())?,
        OutputFormat::Json => writeln!(out, "{}", report.render_json())?,
        OutputFormat::Sarif => writeln!(out, "{}", report.render_sarif())?,
    }
    Ok(())
}

/// The shared exit-status gate: errors always fail, warnings fail under
/// `--deny warnings`. The report has already been printed — the
/// findings are the point, not the exit code.
fn fail_on_findings(report: &opprox_analyze::Report, lint: &LintArgs, what: &str) -> CmdResult {
    let (errors, warnings) = (report.errors(), report.warnings());
    if errors > 0 {
        return Err(format!(
            "{what} found {errors} error{}",
            if errors == 1 { "" } else { "s" }
        )
        .into());
    }
    if lint.deny_warnings && warnings > 0 {
        return Err(format!(
            "{what} found {warnings} warning{} (denied by --deny warnings)",
            if warnings == 1 { "" } else { "s" }
        )
        .into());
    }
    Ok(())
}

fn cmd_compare(args: &CompareArgs, out: &mut dyn std::io::Write) -> CmdResult {
    let app = lookup_app(&args.app)?;
    let input = InputParams::new(args.input.clone());
    let spec = AccuracySpec::try_new(args.budget)?;
    writeln!(out, "training OPPROX on {} …", app.meta().name)?;
    // One engine end to end: the oracle sweep reuses any execution the
    // training or validation phases already made.
    let engine = args.engine.engine();
    let trained = Opprox::train_with(&engine, app.as_ref(), &args.options)?;
    let outcome = OptimizeRequest::new(input.clone(), spec)
        .validate_on(app.as_ref())
        .engine(&engine)
        .run(&trained)?;
    let oracle = phase_agnostic_oracle_with(&engine, app.as_ref(), &input, &spec)?;
    match outcome.measured {
        Some(measured) => writeln!(
            out,
            "OPPROX : {:.1}% less work (measured qos {:.2}, budget {:.2})",
            percent_less_work(measured.speedup),
            measured.qos,
            spec.error_budget()
        )?,
        None => writeln!(
            out,
            "OPPROX : validation degraded to the model-only path \
             (predicted {:.1}% less work)",
            percent_less_work(outcome.plan.predicted_speedup)
        )?,
    }
    writeln!(
        out,
        "oracle : {:.1}% less work (measured qos {:.2}, over {} executions)",
        percent_less_work(oracle.speedup),
        oracle.qos,
        oracle.evaluated
    )?;
    report_metrics(&engine.metrics(), out)?;
    report_robustness(&engine, out)?;
    // One engine end to end means one trace covering training, the
    // validated optimization, and the oracle sweep.
    write_trace(&args.trace, &engine.telemetry_report(), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Command;

    fn run(parts: &[&str]) -> Result<String, Box<dyn Error>> {
        let command = Command::parse(parts.iter().map(|s| s.to_string()))?;
        let mut buf = Vec::new();
        dispatch(&command, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    #[test]
    fn serve_and_client_round_trip_over_tcp() {
        let dir = std::env::temp_dir().join("opprox_cli_serve");
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("pso_serve.json");
        let model_s = model.to_str().unwrap().to_string();
        run(&[
            "train", "--app", "pso", "--out", &model_s, "--phases", "2", "--sparse", "6",
        ])
        .unwrap();
        let addr_file = dir.join("addr.txt");
        let _ = std::fs::remove_file(&addr_file);
        let trace = dir.join("serve_trace.json");
        let serve_args: Vec<String> = [
            "serve",
            "--model",
            &model_s,
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--threads",
            "2",
            "--trace-out",
            trace.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let server = std::thread::spawn(move || {
            let command = Command::parse(serve_args).unwrap();
            let mut buf = Vec::new();
            dispatch(&command, &mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        });
        let addr = {
            let mut waited = 0;
            loop {
                match std::fs::read_to_string(&addr_file) {
                    Ok(s) if !s.is_empty() => break s,
                    _ => {
                        assert!(waited < 30_000, "server never wrote its address");
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        waited += 50;
                    }
                }
            }
        };
        let health = run(&["client", "--addr", &addr, "--op", "health"]).unwrap();
        assert!(health.contains("\"kind\":\"health\""), "{health}");
        assert!(health.contains("pso"), "{health}");
        let pred = run(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "predict",
            "--app",
            "pso",
            "--input",
            "16,3",
            "--phase",
            "0",
            "--configs",
            "0,0,0;1,2,1",
        ])
        .unwrap();
        assert!(pred.contains("\"predictions\""), "{pred}");
        let opt = run(&[
            "client", "--addr", &addr, "--op", "optimize", "--app", "pso", "--input", "16,3",
            "--budget", "10",
        ])
        .unwrap();
        assert!(opt.contains("\"kind\":\"optimize\""), "{opt}");
        let metrics = run(&["client", "--addr", &addr, "--op", "metrics"]).unwrap();
        assert!(metrics.contains("serve.requests"), "{metrics}");
        // An unknown app is an error frame and a nonzero client exit.
        assert!(run(&[
            "client", "--addr", &addr, "--op", "optimize", "--app", "nosuch", "--input", "1",
            "--budget", "5",
        ])
        .is_err());
        run(&["client", "--addr", &addr, "--op", "shutdown"]).unwrap();
        let out = server.join().unwrap();
        assert!(out.contains("shutdown complete"), "{out}");
        assert!(out.contains("trace written"), "{out}");
        // The exported server trace is a lintable telemetry artifact.
        let analyzed = run(&["analyze", trace.to_str().unwrap()]).unwrap();
        assert!(
            analyzed.contains("telemetry") || analyzed.contains("0 errors"),
            "{analyzed}"
        );
    }

    #[test]
    fn client_flag_validation_is_local() {
        // Missing required pieces fail before any connection attempt.
        let err = run(&["client", "--op", "optimize", "--addr", "127.0.0.1:1"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("--app"), "{err}");
        let err = run(&[
            "client",
            "--op",
            "predict",
            "--addr",
            "127.0.0.1:1",
            "--app",
            "pso",
            "--input",
            "1,2",
            "--configs",
            "0,x",
        ])
        .unwrap_err()
        .to_string();
        assert!(err.contains("--configs"), "{err}");
    }

    #[test]
    fn help_documents_every_accepted_flag() {
        let help = run(&["help"]).unwrap();
        // `--phase` must match on its own, not inside `--phases`.
        let documented = |flag: &str| {
            let needle = format!("--{flag}");
            help.match_indices(&needle).any(|(at, _)| {
                !help[at + needle.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '-')
            })
        };
        for (command, flags) in crate::args::COMMANDS {
            for flag in *flags {
                assert!(
                    documented(flag),
                    "`{command} --{flag}` is missing from help"
                );
            }
        }
    }

    #[test]
    fn help_and_apps_render() {
        let help = run(&["help"]).unwrap();
        assert!(help.contains("USAGE"));
        let apps = run(&["apps"]).unwrap();
        for name in [
            "LULESH",
            "FFmpeg",
            "Bodytrack",
            "PSO",
            "CoMD",
            "PageRank",
            "StreamAgg",
            "Stencil",
        ] {
            assert!(apps.contains(name), "missing {name}");
        }
        for technique in ["precision scaling", "task skipping"] {
            assert!(apps.contains(technique), "missing technique {technique}");
        }
    }

    #[test]
    fn new_ports_resolve_and_run_through_the_cli() {
        // `phases` is the cheapest engine-backed command; running it for a
        // survey port proves the registry-driven lookup covers new apps.
        let out = run(&[
            "phases",
            "--app",
            "streamagg",
            "--input",
            "48,24",
            "--probes",
            "2",
            "--threads",
            "1",
        ])
        .unwrap();
        assert!(out.contains("phase"), "{out}");
    }

    #[test]
    fn unknown_command_and_app_are_reported() {
        assert!(run(&["frobnicate"]).is_err());
        assert!(run(&["phases", "--app", "nosuch", "--input", "1,2"]).is_err());
    }

    #[test]
    fn oracle_runs_end_to_end_and_reports_metrics() {
        let out = run(&[
            "oracle",
            "--app",
            "pso",
            "--input",
            "16,3",
            "--budget",
            "30",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(out.contains("oracle"), "{out}");
        assert!(out.contains("evaluation:"), "{out}");
        // The winner re-measure guarantees at least one cache hit.
        assert!(!out.contains(" 0 cache hits"), "{out}");
        assert!(out.contains("stage oracle"), "{out}");
    }

    #[test]
    fn inspect_and_compare_work() {
        let dir = std::env::temp_dir().join("opprox_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("pso2.json");
        let model_s = model.to_str().unwrap();
        run(&[
            "train", "--app", "pso", "--out", model_s, "--phases", "2", "--sparse", "6",
        ])
        .unwrap();
        let out = run(&["inspect", "--model", model_s]).unwrap();
        assert!(out.contains("phases: 2"), "{out}");
        assert!(out.contains("golden-iteration estimator"), "{out}");
        let out = run(&[
            "compare", "--app", "pso", "--input", "16,3", "--budget", "20", "--phases", "2",
            "--sparse", "6",
        ])
        .unwrap();
        assert!(
            out.contains("OPPROX :") && out.contains("oracle :"),
            "{out}"
        );
        assert!(out.contains("evaluation:"), "{out}");
        std::fs::remove_file(model).ok();
    }

    #[test]
    fn train_optimize_run_round_trip() {
        let dir = std::env::temp_dir().join("opprox_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("pso.json");
        let model_s = model.to_str().unwrap();
        let out = run(&[
            "train", "--app", "pso", "--out", model_s, "--phases", "2", "--sparse", "8",
        ])
        .unwrap();
        assert!(out.contains("model saved"), "{out}");
        // The self-check re-requests each golden run: cache hits > 0.
        assert!(out.contains("evaluation:"), "{out}");
        assert!(!out.contains(" 0 cache hits"), "{out}");
        let out = run(&[
            "optimize", "--model", model_s, "--input", "16,3", "--budget", "10",
        ])
        .unwrap();
        assert!(out.contains("plan for PSO"), "{out}");
        let out = run(&[
            "run",
            "--model",
            model_s,
            "--input",
            "16,3",
            "--budget",
            "10",
            "--validations",
            "12",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(out.contains("measured:"), "{out}");
        assert!(out.contains("evaluation:"), "{out}");
        std::fs::remove_file(model).ok();
    }

    #[test]
    fn analyze_reports_seeded_defects_and_fails() {
        let dir = std::env::temp_dir().join("opprox_cli_analyze");
        std::fs::create_dir_all(&dir).unwrap();
        // A corrupt schedule (level 9 on max-level-5 blocks, zero
        // expected iterations) against the PSO block descriptors.
        let schedule = dir.join("schedule.json");
        std::fs::write(
            &schedule,
            r#"{"configs":[{"levels":[9,0,0]}],"expected_iters":0}"#,
        )
        .unwrap();
        let blocks = dir.join("blocks.json");
        let descriptors = opprox_apps::registry::by_name("pso")
            .unwrap()
            .meta()
            .blocks
            .clone();
        std::fs::write(&blocks, serde_json::to_string(&descriptors).unwrap()).unwrap();
        let schedule_s = schedule.to_str().unwrap();
        let blocks_s = blocks.to_str().unwrap();

        let err = run(&["analyze", schedule_s, blocks_s]).unwrap_err();
        assert!(err.to_string().contains("error"), "{err}");

        // The findings themselves are written before the failure; verify
        // through the dispatch buffer directly.
        let command = Command::parse(
            ["analyze", schedule_s, blocks_s, "--format", "json"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        let mut buf = Vec::new();
        let result = dispatch(&command, &mut buf);
        let rendered = String::from_utf8(buf).unwrap();
        assert!(result.is_err());
        assert!(rendered.contains("\"code\":\"A001\""), "{rendered}");
        assert!(rendered.contains("\"code\":\"A003\""), "{rendered}");
        assert!(
            rendered.contains("schedule.phase[0].block[AB0]"),
            "{rendered}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_passes_clean_artifacts_and_denies_warnings() {
        let dir = std::env::temp_dir().join("opprox_cli_analyze2");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.json");
        std::fs::write(&spec, r#"{"error_budget":10.0}"#).unwrap();
        let spec_s = spec.to_str().unwrap();
        let out = run(&["analyze", spec_s]).unwrap();
        assert!(out.contains("0 errors, 0 warnings"), "{out}");

        // An absurd-but-valid schedule is a warning: ok by default,
        // fatal under --deny warnings.
        let schedule = dir.join("schedule.json");
        std::fs::write(
            &schedule,
            r#"{"configs":[{"levels":[0,0,0]}],"expected_iters":2000000000000}"#,
        )
        .unwrap();
        let schedule_s = schedule.to_str().unwrap();
        let out = run(&["analyze", schedule_s]).unwrap();
        assert!(out.contains("warning[A003]"), "{out}");
        let err = run(&["analyze", schedule_s, "--deny", "warnings"]).unwrap_err();
        assert!(err.to_string().contains("deny"), "{err}");

        // Unreadable and unclassifiable inputs fail with the path named.
        let err = run(&["analyze", "/no/such/file.json"]).unwrap_err();
        assert!(err.to_string().contains("/no/such/file.json"), "{err}");
        let junk = dir.join("junk.json");
        std::fs::write(&junk, "17").unwrap();
        let err = run(&["analyze", junk.to_str().unwrap()]).unwrap_err();
        assert!(err.to_string().contains("unrecognized artifact"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn audit_over_session_directory_links_artifacts_and_gates_exit() {
        let dir = std::env::temp_dir().join("opprox_cli_audit");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("model.json");
        let trace = dir.join("trace.json");
        run(&[
            "train",
            "--app",
            "pso",
            "--out",
            model.to_str().unwrap(),
            "--phases",
            "2",
            "--sparse",
            "6",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        let dir_s = dir.to_str().unwrap();

        // A healthy (model, trace) session: no findings beyond X008
        // coverage notes, which survive --deny warnings.
        let out = run(&["audit", dir_s, "--deny", "warnings"]).unwrap();
        assert!(out.contains("0 errors, 0 warnings"), "{out}");
        assert!(out.contains("info[X008]"), "{out}");

        // SARIF renders from the same findings.
        let sarif = run(&["audit", dir_s, "--format", "sarif"]).unwrap();
        assert!(sarif.contains("sarif-2.1.0.json"), "{sarif}");
        assert!(sarif.contains("\"ruleId\":\"X008\""), "{sarif}");

        // Drop an unexecutable schedule into the session: X006 fires and
        // the exit status gates.
        std::fs::write(
            dir.join("schedule.json"),
            r#"{"configs":[{"levels":[9,0,0]},{"levels":[0,0,0]}],"expected_iters":100}"#,
        )
        .unwrap();
        let command = Command::parse(["audit", dir_s].iter().map(|s| s.to_string())).unwrap();
        let mut buf = Vec::new();
        let result = dispatch(&command, &mut buf);
        let rendered = String::from_utf8(buf).unwrap();
        assert!(result.is_err(), "X006 must gate the exit status");
        assert!(rendered.contains("error[X006]"), "{rendered}");

        // An empty directory is an explicit error, not a silent pass.
        let empty = dir.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let err = run(&["audit", empty.to_str().unwrap()]).unwrap_err();
        assert!(err.to_string().contains("no .json artifacts"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_rejects_corrupt_model_file() {
        // `run`/`optimize`/`inspect` load through TrainedOpprox::load,
        // which applies the Error-severity lint subset at the boundary.
        let dir = std::env::temp_dir().join("opprox_cli_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("pso.json");
        let model_s = model.to_str().unwrap();
        run(&[
            "train", "--app", "pso", "--out", model_s, "--phases", "2", "--sparse", "6",
        ])
        .unwrap();
        // Corrupt the model set's declared phase count (the adjacent
        // `num_blocks` key pins the match inside `models`, not the
        // top-level copy): a shape mismatch JSON text can carry.
        let text = std::fs::read_to_string(&model).unwrap();
        let corrupt = text.replacen(
            "\"num_phases\":2,\"num_blocks\"",
            "\"num_phases\":9,\"num_blocks\"",
            1,
        );
        assert_ne!(text, corrupt, "the declared dimensions were rewritten");
        std::fs::write(&model, corrupt).unwrap();
        let err = run(&["inspect", "--model", model_s]).unwrap_err();
        assert!(
            err.to_string().contains("invalid trained model set"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn train_under_fault_injection_prints_the_robustness_ledger() {
        let dir = std::env::temp_dir().join("opprox_cli_faults");
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("pso_faulty.json");
        let model_s = model.to_str().unwrap();
        // Timeout-class injection only: deterministic, no panic unwinding,
        // so the test needs no panic-hook filtering.
        let out = run(&[
            "train",
            "--app",
            "pso",
            "--out",
            model_s,
            "--phases",
            "2",
            "--sparse",
            "6",
            "--threads",
            "2",
            "--fault-plan",
            "seed=7,timeout=0.2",
            "--max-retries",
            "3",
        ])
        .unwrap();
        assert!(out.contains("model saved"), "{out}");
        assert!(out.contains("robustness:"), "{out}");
        assert!(out.contains("faults injected"), "{out}");
        // The saved model must still load cleanly.
        let out = run(&["inspect", "--model", model_s]).unwrap();
        assert!(out.contains("phases: 2"), "{out}");
        // Without a plan the ledger stays silent on a clean run.
        let out = run(&[
            "train", "--app", "pso", "--out", model_s, "--phases", "2", "--sparse", "6",
        ])
        .unwrap();
        assert!(!out.contains("robustness:"), "{out}");
        std::fs::remove_file(model).ok();
    }

    #[test]
    fn trace_out_round_trips_through_summarize_and_analyze() {
        let dir = std::env::temp_dir().join("opprox_cli_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("pso.json");
        let trace = dir.join("t.json");
        let (model_s, trace_s) = (model.to_str().unwrap(), trace.to_str().unwrap());
        let out = run(&[
            "train",
            "--app",
            "pso",
            "--out",
            model_s,
            "--phases",
            "2",
            "--sparse",
            "6",
            "--threads",
            "2",
            "--trace-out",
            trace_s,
        ])
        .unwrap();
        assert!(out.contains("trace written to"), "{out}");
        // The human summary names the span and counter sections.
        let out = run(&["trace", "summarize", trace_s]).unwrap();
        assert!(out.contains("telemetry summary"), "{out}");
        assert!(out.contains("stage/"), "{out}");
        assert!(out.contains("eval.exec"), "{out}");
        // A healthy training trace passes the telemetry lints, even with
        // warnings denied (the self-check guarantees cache hits).
        let out = run(&["analyze", trace_s, "--deny", "warnings"]).unwrap();
        assert!(out.contains("0 errors, 0 warnings"), "{out}");
        // The chrome export is a JSON array (schema-tested elsewhere).
        let chrome = dir.join("t.chrome.json");
        let chrome_s = chrome.to_str().unwrap();
        run(&[
            "optimize",
            "--model",
            model_s,
            "--input",
            "16,3",
            "--budget",
            "10",
            "--trace-out",
            chrome_s,
            "--trace-format",
            "chrome",
        ])
        .unwrap();
        let text = std::fs::read_to_string(&chrome).unwrap();
        assert!(text.starts_with('['), "{text}");
        // summarize rejects a non-report file with the path named.
        let err = run(&["trace", "summarize", chrome_s]).unwrap_err();
        assert!(err.to_string().contains("t.chrome.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_accepts_a_canary_input() {
        let dir = std::env::temp_dir().join("opprox_cli_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("pso3.json");
        let model_s = model.to_str().unwrap();
        run(&[
            "train", "--app", "pso", "--out", model_s, "--phases", "2", "--sparse", "6",
        ])
        .unwrap();
        let out = run(&[
            "run", "--model", model_s, "--input", "24,3", "--budget", "15", "--canary", "12,3",
        ])
        .unwrap();
        assert!(out.contains("validated plan"), "{out}");
        std::fs::remove_file(model).ok();
    }
}
