//! Seeded end-to-end and per-layer benchmark of OPPROX: training, plan
//! requests, and the serve wire path.
//!
//! ```text
//! cargo run --release --manifest-path opprox-benchmark/Cargo.toml -- \
//!     --workload <train_profile|train_fit|plan|serve> --seed <n> \
//!     [--seconds <s>] [--trace <0|1>]
//! cargo run --release --manifest-path opprox-benchmark/Cargo.toml -- --smoke
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics, or with
//! `--trace 1` the per-layer ones. A failed output check makes the run
//! exit 1. README.md lists every metric and the comparison protocol.

mod plan;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Spans;

/// The workloads, in the order `--smoke` runs them.
const WORKLOADS: [&str; 4] = ["train_profile", "train_fit", "plan", "serve"];

/// Apps trained by `train_profile`: profiling executions dominate.
const PROFILE_APPS: [&str; 2] = ["CoMD", "Bodytrack"];

/// Apps trained by `train_fit`: model fitting dominates.
const FIT_APPS: [&str; 2] = ["PageRank", "StreamAgg"];

/// Share of each size a `--smoke` run keeps.
const SMOKE_SCALE: f64 = 0.01;

/// What a workload runs with.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: f64,
    pub smoke: bool,
    /// Threads the engines and server use; client connections stay at or
    /// below it.
    pub nproc: usize,
    /// Where artifacts are written for the run.
    pub scratch: PathBuf,
    /// The span log of a traced run.
    pub spans: Option<Spans>,
}

impl Ctx {
    /// A repetition count, cut to about a hundredth under `--smoke`.
    pub fn reps(&self, n: usize) -> usize {
        if self.smoke {
            n.div_ceil(100)
        } else {
            n
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}`; expected one of {WORKLOADS:?}"
                    ));
                }
                parsed.workload = Some(w);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                parsed.seconds = s;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.workload.is_none() && !parsed.smoke {
        return Err("--workload is required (or --smoke)".into());
    }
    Ok(parsed)
}

/// The commit the benchmark was built from, when built inside a git
/// checkout of this repository.
fn commit(root: &Path) -> String {
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "--show-toplevel", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    let Ok(out) = out else {
        return "unknown".into();
    };
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines();
    match (lines.next(), lines.next()) {
        (Some(top), Some(head))
            if out.status.success()
                && Path::new(top).canonicalize().ok() == root.canonicalize().ok() =>
        {
            head.to_string()
        }
        _ => "unknown".into(),
    }
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload(ctx: &mut Ctx, workload: &str) -> Outcome {
    let mut out = match workload {
        "train_profile" => train::run(ctx, &PROFILE_APPS),
        "train_fit" => train::run(ctx, &FIT_APPS),
        "plan" => plan::run(ctx),
        "serve" => serve::run(ctx),
        other => unreachable!("workload `{other}` passed argument parsing"),
    };
    if ctx.spans.is_some() && workload != "serve" {
        for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("serve.")) {
            out.set(name, 0.0);
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir
        .parent()
        .expect("the benchmark sits inside the repository");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch = bench_dir.join(format!(".scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let _cleanup = Scratch(scratch.clone());
    println!(
        "opprox-benchmark seed={} seconds={} trace={} nproc={nproc} commit={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit(root)
    );

    let (workloads, scale): (Vec<&str>, f64) = match &args.workload {
        _ if args.smoke => (WORKLOADS.to_vec(), SMOKE_SCALE),
        Some(w) => (vec![w.as_str()], 1.0),
        None => unreachable!("parse_args requires a workload"),
    };
    let traced = args.trace || args.smoke;
    let catalog = if traced { PER_LAYER } else { END_TO_END };
    let mut total = Outcome::default();
    for workload in workloads {
        let start = Instant::now();
        let mut ctx = Ctx {
            seed: args.seed,
            seconds: args.seconds * scale,
            smoke: args.smoke,
            nproc,
            scratch: scratch.clone(),
            spans: traced.then(Spans::new),
        };
        let mut out = run_workload(&mut ctx, workload);
        println!("== {workload} ({:.1}s)", start.elapsed().as_secs_f64());
        for line in out.notes.iter().chain(&out.table(catalog)) {
            println!("{line}");
        }
        if let Some(spans) = &ctx.spans {
            let path = bench_dir
                .join("traces")
                .join(format!("{workload}-seed{}.json", args.seed));
            match spans.write_chrome(&path) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => out.check(false, || format!("writing {}: {e}", path.display())),
            }
        }
        let line = out.render(catalog);
        total.ops(out.attempted, out.failed);
        if args.smoke {
            println!(
                "{workload}: {} attempted, {} failed",
                out.attempted, out.failed
            );
        } else {
            println!("{line}");
        }
    }
    if args.smoke {
        println!("{}", total.render(&[]));
    }
    if total.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let a = parse(&[
            "--workload",
            "plan",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("plan"), 7, 3.0, true)
        );
        assert!(parse(&["--smoke"]).unwrap().smoke);
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nosuch"]).is_err());
        assert!(parse(&["--workload", "plan", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "plan", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "plan", "--seed"]).is_err());
        assert!(parse(&["--workload", "plan", "--bogus"]).is_err());
    }
}
