//! Trace-driven integration tests: pipeline invariants that were never
//! directly assertable before the telemetry subsystem existed.
//!
//! Each test drives the real pipeline through a
//! [`TraceCapture`](opprox_testutil::trace::TraceCapture)-built engine
//! (manual clock, so captured traces are exactly reproducible) and then
//! interrogates the [`TelemetryReport`] instead of the pipeline's return
//! value:
//!
//! * golden runs execute exactly once per input;
//! * a repeated model-only request reports what the first one did;
//! * Algorithm 2 visits phases in decreasing-ROI order and rolls
//!   leftover budget forward without losing any;
//! * quarantined cache keys are never re-executed;
//! * probes resumed from golden-run checkpoints leave the execution
//!   ledger exactly as runs from scratch do;
//! * the JSON export is byte-identical across worker thread counts and
//!   same-seed reruns, and histogram bucket counts are invariant under
//!   execution-order shuffling.
//!
//! [`TelemetryReport`]: opprox::core::TelemetryReport

use opprox::approx_rt::config::sample_configs;
use opprox::approx_rt::{ApproxApp, InputParams, PhaseSchedule};
use opprox::core::pipeline::Opprox;
use opprox::core::request::OptimizeRequest;
use opprox::core::sampling::{collect_training_data_with, SamplingPlan};
use opprox::core::{AccuracySpec, Telemetry, TelemetryReport};
use opprox_apps::{CoMd, Pso};
use opprox_testutil::chaos::{ChaosScenario, SlowApp};
use opprox_testutil::fixtures::{fast_training_options, prod_input, trained_pso};
use opprox_testutil::rng::SplitMix64;
use opprox_testutil::trace::{optimize_solves, per_key_counters, TraceCapture};
use proptest::prelude::*;

/// Previously unasserted invariant #1: training executes every golden
/// run exactly once per input. The modeling self-check re-requests each
/// golden run, so a broken cache would re-execute them — visible only
/// through the per-key golden counters.
#[test]
fn golden_runs_execute_exactly_once_per_input() {
    let capture = TraceCapture::new();
    let engine = capture.engine(2);
    let app = Pso::new();
    Opprox::train_with(&engine, &app, &fast_training_options(2)).expect("training");
    let report = engine.telemetry_report();

    let goldens = per_key_counters(&report, "eval.golden.exec[");
    assert!(
        !goldens.is_empty(),
        "training must execute at least one golden run"
    );
    for (key, count) in &goldens {
        assert_eq!(*count, 1, "golden key {key} executed {count} times");
    }
    // The self-check's re-requests landed as cache hits, not executions.
    assert!(report.counter("eval.cache.hit") > 0);
    // ... and in fact *no* key was ever executed twice.
    for (key, count) in per_key_counters(&report, "eval.exec[") {
        assert_eq!(count, 1, "key {key} executed {count} times");
    }
}

/// Previously unasserted invariant #2: Algorithm 2's leftover-budget
/// redistribution visits phases in decreasing-ROI order, never invents
/// budget, and carries every unspent unit forward.
#[test]
fn leftover_redistribution_visits_phases_in_decreasing_roi_order() {
    let capture = TraceCapture::new();
    let engine = capture.engine(2);
    let app = Pso::new();
    let trained = Opprox::train_with(&engine, &app, &fast_training_options(2)).expect("training");
    // The validated path solves Algorithm 2 once per conservatism
    // candidate, so one run yields several solves to check.
    OptimizeRequest::new(prod_input("PSO"), AccuracySpec::new(10.0))
        .validate_on(&app)
        .engine(&engine)
        .run(&trained)
        .expect("validated optimization");

    let solves = optimize_solves(&engine.telemetry_report());
    assert!(!solves.is_empty(), "no optimize.phase events captured");
    for (s, steps) in solves.iter().enumerate() {
        assert!(!steps.is_empty(), "solve {s} recorded no steps");
        assert_eq!(steps[0].leftover_in, 0.0, "solve {s} started with leftover");
        for (i, step) in steps.iter().enumerate() {
            assert_eq!(step.step, i, "solve {s} visited steps out of order");
            assert!(step.allocated >= 0.0, "solve {s} allocated negative budget");
            if i > 0 {
                assert!(
                    step.roi <= steps[i - 1].roi,
                    "solve {s} step {i}: ROI {} after {} — not decreasing",
                    step.roi,
                    steps[i - 1].roi
                );
                assert_eq!(
                    step.leftover_in,
                    steps[i - 1].leftover_out,
                    "solve {s} step {i}: leftover budget leaked between steps"
                );
            }
        }
    }
}

/// A repeated model-only request answers from its input's memo entry,
/// predicting nothing; its outcome still carries the plan, events,
/// counters, and span paths and counts of the first request on a fresh
/// copy of the models, whose memo starts empty.
#[test]
fn warm_model_only_requests_report_what_cold_ones_do() {
    let (trained, _) = trained_pso();
    let shape = |r: &TelemetryReport| {
        let spans: Vec<(String, u64)> = r.spans.iter().map(|s| (s.path.clone(), s.count)).collect();
        let timeline: Vec<String> = r.timeline.iter().map(|s| s.path.clone()).collect();
        (spans, timeline)
    };
    for input in [prod_input("PSO"), InputParams::new(vec![12.0, 3.0])] {
        for budget in [0.0, 1.0, 10.0, 40.0] {
            let fresh = trained.clone();
            let request = OptimizeRequest::new(input.clone(), AccuracySpec::new(budget));
            let cold = request.run(&fresh).expect("cold request");
            let warm = request.run(&fresh).expect("warm request");
            assert_eq!(warm.plan, cold.plan, "{input:?} at {budget}");
            assert_eq!(warm.path, cold.path);
            assert_eq!(warm.telemetry.events, cold.telemetry.events);
            assert_eq!(warm.telemetry.counters, cold.telemetry.counters);
            assert_eq!(shape(&warm.telemetry), shape(&cold.telemetry));
            assert!(!cold.telemetry.events_named("optimize.phase").is_empty());
        }
    }
}

/// Previously unasserted invariant #3: a quarantined key is never
/// executed again — re-requests are rejected before reaching the
/// application, which only the per-key counters can prove.
#[test]
fn quarantined_keys_are_never_reexecuted() {
    let capture = TraceCapture::new();
    // Every attempt fails: each key is dropped and quarantined on first
    // contact, and the second batch can only hit the quarantine wall.
    let scenario = ChaosScenario::seeded(0x51)
        .fail_first_attempts(10)
        .max_retries(1)
        .threads(2);
    let engine = capture.chaos_engine(&scenario);
    let app = Pso::new();
    let input = InputParams::new(vec![12.0, 2.0]);
    let jobs: Vec<(InputParams, PhaseSchedule)> = sample_configs(&app.meta().blocks, 3, 9)
        .into_iter()
        .map(|cfg| (input.clone(), PhaseSchedule::constant(cfg)))
        .collect();
    for outcome in engine.run_batch_resilient(&app, &jobs) {
        assert!(outcome.is_err(), "injected faults must fail every job");
    }
    for outcome in engine.run_batch_resilient(&app, &jobs) {
        assert!(outcome.is_err(), "quarantined jobs must stay failed");
    }

    let report = engine.telemetry_report();
    let quarantined = per_key_counters(&report, "eval.quarantine[");
    assert!(!quarantined.is_empty(), "no key was quarantined");
    assert!(report.counter("eval.quarantine.hit") > 0);
    for (key, _) in &quarantined {
        let exec_key = key.replace("eval.quarantine[", "eval.exec[");
        assert_eq!(
            report.counter(&exec_key),
            0,
            "quarantined key {key} was executed again"
        );
    }
    assert_eq!(report.counter("eval.exec"), 0, "no job ever succeeded");

    // The exported trace carries the fault ledger the robustness report
    // is read from.
    let exported = TelemetryReport::from_json(&report.to_json()).expect("trace round-trips");
    let robustness = engine.robustness_report();
    for (counter, field) in [
        ("fault.retry", robustness.retries),
        ("fault.backoff_ms", robustness.backoff_ms_accounted),
        ("fault.timeout", robustness.timeouts),
    ] {
        assert!(
            exported.counters.iter().any(|c| c.name == counter),
            "exported trace lacks {counter}"
        );
        assert_eq!(exported.counter(counter), field, "{counter}");
    }
}

/// Resuming single-phase probes from golden-run checkpoints changes how
/// much the engine computes, never what it accounts: a prefix pass is not
/// an execution. Executions, per-key golden and execution counts, work
/// units, cache hits and the robustness ledger equal those of the same
/// collection through a wrapper that takes no checkpoints, and only the
/// prefix counters tell the two apart.
#[test]
fn prefix_passes_are_not_executions() {
    let inputs = [
        InputParams::new(vec![2.0, 1.1, 40.0]),
        InputParams::new(vec![3.0, 1.2, 30.0]),
    ];
    let plan = SamplingPlan {
        num_phases: 4,
        sparse_samples: 6,
        seed: 0x9E,
    };
    let collect = |app: &dyn ApproxApp| {
        let capture = TraceCapture::new();
        let engine = capture.engine(2);
        let data = collect_training_data_with(&engine, app, &inputs, &plan).expect("training data");
        // A second request for every golden run is a cache hit.
        for input in &inputs {
            engine.golden(app, input).expect("golden");
        }
        (
            serde_json::to_string(&data).expect("serializable"),
            engine.telemetry_report(),
            engine.robustness_report(),
        )
    };
    let (resumed_data, resumed, resumed_faults) = collect(&CoMd::new());
    // SlowApp forwards only `run`: every job of this twin runs from scratch.
    let (scratch_data, scratch, scratch_faults) = collect(&SlowApp::new(CoMd::new(), 0));

    assert_eq!(
        resumed_data, scratch_data,
        "resumed probes changed the data"
    );
    for counter in [
        "eval.exec",
        "eval.golden.exec",
        "eval.work",
        "eval.cache.hit",
    ] {
        assert_eq!(
            resumed.counter(counter),
            scratch.counter(counter),
            "{counter}"
        );
    }
    for prefix in ["eval.exec[", "eval.golden.exec[", "eval.hit["] {
        assert_eq!(
            per_key_counters(&resumed, prefix),
            per_key_counters(&scratch, prefix),
            "{prefix}..] counters"
        );
    }
    let goldens = per_key_counters(&resumed, "eval.golden.exec[");
    assert_eq!(goldens.len(), inputs.len());
    assert!(goldens.iter().all(|(_, count)| *count == 1));
    assert_eq!(resumed_faults, scratch_faults);

    assert_eq!(resumed.counter("eval.prefix.pass"), inputs.len() as u64);
    assert!(resumed.counter("eval.prefix.iters_skipped") > 0);
    assert_eq!(scratch.counter("eval.prefix.pass"), 0);
    assert_eq!(scratch.counter("eval.prefix.iters_skipped"), 0);
}

/// Faults are decided per key and attempt, not per execution path: a
/// resumed key retries, recovers and quarantines exactly as the same key
/// run from scratch, down to the per-key counters and the fault ledger.
#[test]
fn injected_faults_on_resumed_keys_retry_and_quarantine_as_before() {
    let input = InputParams::new(vec![2.0, 1.1, 40.0]);
    let app = CoMd::new();
    let golden = app.golden(&input).expect("golden");
    let jobs: Vec<(InputParams, PhaseSchedule)> = sample_configs(&app.meta().blocks, 4, 0x51)
        .into_iter()
        .flat_map(|cfg| {
            (1..4).map(move |phase| {
                PhaseSchedule::single_phase(cfg.clone(), phase, 4, golden.outer_iters)
                    .expect("probe")
            })
        })
        .map(|schedule| (input.clone(), schedule))
        .collect();
    // Every key fails its first attempt and recovers on the retry; then
    // every key fails every attempt and is quarantined.
    let scenarios = [
        ChaosScenario::seeded(0x52)
            .fail_first_attempts(1)
            .max_retries(2),
        ChaosScenario::seeded(0x53)
            .fail_first_attempts(10)
            .max_retries(1),
    ];
    for (recovers, scenario) in [true, false].into_iter().zip(scenarios) {
        let run = |app: &dyn ApproxApp| {
            let capture = TraceCapture::new();
            let engine = capture.chaos_engine(&scenario.threads(2));
            let outcomes: Vec<bool> = (0..2)
                .flat_map(|_| engine.run_batch_resilient(app, &jobs))
                .map(|outcome| outcome.is_ok())
                .collect();
            (
                outcomes,
                engine.telemetry_report(),
                engine.robustness_report(),
            )
        };
        let (resumed_ok, resumed, resumed_faults) = run(&app);
        let (scratch_ok, scratch, scratch_faults) = run(&SlowApp::new(CoMd::new(), 0));
        assert!(resumed_ok.iter().all(|&ok| ok == recovers));
        assert_eq!(resumed_ok, scratch_ok);
        assert_eq!(resumed_faults, scratch_faults);
        for prefix in ["eval.exec[", "eval.quarantine[", "eval.hit["] {
            assert_eq!(
                per_key_counters(&resumed, prefix),
                per_key_counters(&scratch, prefix),
                "{prefix}..] counters"
            );
        }
        for counter in ["fault.retry", "eval.quarantined", "eval.quarantine.hit"] {
            assert_eq!(
                resumed.counter(counter),
                scratch.counter(counter),
                "{counter}"
            );
        }
        assert!(resumed.counter("fault.retry") > 0);
        assert!(resumed.counter("eval.prefix.pass") > 0);
        assert_eq!(
            resumed.counter("eval.prefix.iters_skipped") > 0,
            recovers,
            "only successful resumed runs skip their prefix"
        );
    }
}

fn train_trace_json(seed_offset: u64, threads: usize) -> String {
    let capture = TraceCapture::new();
    let engine = capture.engine(threads);
    let mut options = fast_training_options(2);
    options.sampling.seed ^= seed_offset;
    Opprox::train_with(&engine, &Pso::new(), &options).expect("training");
    engine.telemetry_report().to_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The telemetry ledger discipline (commutative counters, fixed
    /// histogram bounds, orchestrator-only spans and events) makes the
    /// JSON export byte-identical across worker thread counts and
    /// same-seed reruns.
    #[test]
    fn trace_json_is_byte_identical_across_thread_counts_and_reruns(
        seed_offset in 0u64..1000,
        threads in 2usize..5,
    ) {
        let single = train_trace_json(seed_offset, 1);
        let multi = train_trace_json(seed_offset, threads);
        prop_assert_eq!(&single, &multi, "threads=1 vs threads={} diverged", threads);
        let again = train_trace_json(seed_offset, threads);
        prop_assert_eq!(&multi, &again, "same-seed rerun diverged");
    }

    /// Histogram bucket counts are a pure function of the observed
    /// multiset: shuffling the observation order changes nothing.
    #[test]
    fn histogram_buckets_are_invariant_under_observation_shuffling(
        values in proptest::collection::vec(-2.0f64..12.0, 1..40),
        shuffle_seed in 0u64..1000,
    ) {
        let bounds = [0.0, 2.5, 5.0, 7.5, 10.0];
        let mut shuffled = values.clone();
        let mut rng = SplitMix64::new(shuffle_seed);
        // Fisher–Yates driven by the seeded generator.
        for i in (1..shuffled.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            shuffled.swap(i, j);
        }
        let record = |vals: &[f64]| {
            let t = Telemetry::new();
            for &v in vals {
                t.observe("h", &bounds, v);
            }
            t.report()
        };
        let a = record(&values);
        let b = record(&shuffled);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_json(), b.to_json());
        let h = a.histogram("h").expect("histogram registered");
        prop_assert_eq!(h.counts.iter().sum::<u64>(), values.len() as u64);
    }
}
