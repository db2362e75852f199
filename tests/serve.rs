//! Server-level integration tests: deterministic hot reload and
//! admission driven in-process with a [`ManualClock`], plus a real TCP
//! server answering concurrent clients.

use opprox::approx_rt::InputParams;
use opprox::core::api::{
    AdaptiveParams, ApiRequest, ApiResponse, OptimizeParams, PredictParams, WireCode,
};
use opprox::core::error::OpproxError;
use opprox::core::fault::MAX_RETRIES;
use opprox::core::optimizer::EXHAUSTIVE_LIMIT;
use opprox::core::pipeline::TrainedOpprox;
use opprox::core::request::OptimizeRequest;
use opprox::core::telemetry::Clock;
use opprox::core::AccuracySpec;
use opprox::core::{ManualClock, ServeOptions, ServeState, Server};
use opprox_testutil::fixtures::{trained_pso_from, trained_pso_value};
use opprox_testutil::json::{mutate_first_key, mutate_keys, path_mut};
use opprox_testutil::serve::{send_lines, write_pso_artifact, write_streamagg_artifact};
use serde::value::{Number, Value};
use std::fs::OpenOptions;
use std::io::Write as _;
use std::sync::Arc;

fn temp_artifact(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("opprox_serve_tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(name);
    write_pso_artifact(&path);
    path
}

fn optimize_req() -> ApiRequest {
    ApiRequest::Optimize(OptimizeParams::new("pso", vec![16.0, 3.0], 10.0))
}

/// A reload swaps the model map atomically: a request that started
/// before the swap finishes against the snapshot it took, while new
/// requests see the new generation. Nothing is dropped either way.
#[test]
fn hot_reload_swaps_without_dropping_in_flight_requests() {
    let clock = Arc::new(ManualClock::new());
    let state = ServeState::with_clock(
        ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        },
        clock.clone() as Arc<dyn Clock>,
    );
    let path = temp_artifact("hot_reload.json");
    let app = state.load_artifact(&path).expect("load artifact");
    assert_eq!(app, "pso");
    assert_eq!(state.generation(), 1);

    // An "in-flight" request pins the pre-reload snapshot.
    let in_flight = state.snapshot();

    // Touch the artifact: vendored JSON parsing tolerates trailing
    // whitespace, so appending a newline changes the (mtime, len) file
    // id without corrupting the file.
    let mut file = OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("open artifact");
    file.write_all(b"\n").expect("touch artifact");
    drop(file);

    assert_eq!(state.poll_reload(), 1);
    assert_eq!(state.generation(), 2);
    assert_eq!(state.telemetry().counter_value("serve.reload"), 1);

    // The in-flight request still completes against generation 1...
    let ApiResponse::Optimize(old) = state.handle_with_models(&in_flight, &optimize_req()) else {
        panic!("expected an optimize reply from the old snapshot");
    };
    assert_eq!(old.generation, 1);

    // ...while a fresh request sees generation 2, with the same plan.
    let ApiResponse::Optimize(new) = state.handle(&optimize_req()) else {
        panic!("expected an optimize reply from the new snapshot");
    };
    assert_eq!(new.generation, 2);
    assert_eq!(new.levels, old.levels);

    // A second poll with an unchanged file is a no-op.
    assert_eq!(state.poll_reload(), 0);
    assert_eq!(state.generation(), 2);
}

/// A corrupt artifact on disk never takes down the server: the reload
/// is counted as an error and the previous artifact keeps serving.
#[test]
fn failed_reload_keeps_the_old_artifact() {
    let state = ServeState::new(ServeOptions {
        threads: 1,
        ..ServeOptions::default()
    });
    let path = temp_artifact("failed_reload.json");
    state.load_artifact(&path).expect("load artifact");

    std::fs::write(&path, "{ this is not an artifact").expect("corrupt artifact");
    assert_eq!(state.poll_reload(), 0);
    assert_eq!(state.telemetry().counter_value("serve.reload.error"), 1);
    assert_eq!(state.generation(), 1);

    let ApiResponse::Optimize(reply) = state.handle(&optimize_req()) else {
        panic!("expected the old artifact to keep serving");
    };
    assert_eq!(reply.generation, 1);
}

/// A model whose ROI decodes as NaN is refused with `invalid_model`
/// rather than panicking the handler — under `opprox serve` that panic
/// would kill the connection thread and leave its client without a
/// reply. Driven through `handle` directly so a regression fails
/// instead of hanging.
#[test]
fn non_finite_roi_is_refused_with_invalid_model() {
    let path = temp_artifact("null_roi.json");
    let text = std::fs::read_to_string(&path).expect("read artifact");
    let mut v = serde_json::parse_value(&text).expect("artifact is JSON");
    mutate_first_key(&mut v, "roi", |r| *r = Value::Null);
    std::fs::write(&path, v.render_compact()).expect("write artifact");
    let trained = TrainedOpprox::load(&path).expect("the integrity check ignores ROIs");

    let state = ServeState::new(ServeOptions {
        threads: 1,
        ..ServeOptions::default()
    });
    state.install(trained, None);
    let ApiResponse::Error { code, message } = state.handle(&optimize_req()) else {
        panic!("expected an error reply");
    };
    assert_eq!(code, WireCode::InvalidModel, "{message}");
}

/// Block descriptors widened to 31 levels each span 31³ = 29 791
/// configurations per phase, over the scan's limit. A model-only request
/// is refused with `invalid_model` naming the space size and the limit,
/// in process and on the wire.
#[test]
fn oversized_level_space_is_refused_with_invalid_model() {
    let mut v = trained_pso_value();
    mutate_keys(path_mut(&mut v, &["blocks"]), "max_level", &mut |l| {
        *l = Value::Number(Number::U64(30));
    });
    let trained = trained_pso_from(&v);
    assert!(trained.blocks().iter().all(|b| b.max_level == 30));

    let refused = OptimizeRequest::new(InputParams::new(vec![16.0, 3.0]), AccuracySpec::new(10.0))
        .run(&trained);
    let Err(OpproxError::InvalidModel(message)) = refused else {
        panic!("expected an invalid-model refusal, got {refused:?}");
    };
    assert!(
        message.contains("29791") && message.contains(&EXHAUSTIVE_LIMIT.to_string()),
        "{message}"
    );

    let state = ServeState::new(ServeOptions {
        threads: 1,
        ..ServeOptions::default()
    });
    state.install(trained, None);
    let reply = state.serve_line(&optimize_req().to_wire());
    let Ok(ApiResponse::Error { code, message }) = ApiResponse::parse(&reply) else {
        panic!("expected an error frame, got {reply}");
    };
    assert_eq!(code, WireCode::InvalidModel, "{message}");
}

/// Far outside the training range the polynomials overflow to NaN. The
/// predict op refuses that with `model_error` instead of clamping it
/// into a zero-degradation QoS bound.
#[test]
fn nan_prediction_is_refused_with_model_error() {
    let state = ServeState::new(ServeOptions {
        threads: 1,
        ..ServeOptions::default()
    });
    state
        .load_artifact(temp_artifact("nan_predict.json"))
        .expect("load artifact");
    let predict = |input: Vec<f64>| {
        state.handle(&ApiRequest::Predict(PredictParams {
            app: "pso".into(),
            input,
            phase: 1,
            configs: vec![vec![0, 0, 0], vec![2, 1, 2]],
        }))
    };
    assert!(matches!(predict(vec![16.0, 3.0]), ApiResponse::Predict(_)));
    let ApiResponse::Error { code, message } = predict(vec![1e200, 3.0]) else {
        panic!("expected an error reply");
    };
    assert_eq!(code, WireCode::ModelError, "{message}");
}

/// Uptime is read from the injected clock, so health frames are exactly
/// reproducible.
#[test]
fn health_uptime_follows_the_manual_clock() {
    let clock = Arc::new(ManualClock::new());
    let state = ServeState::with_clock(
        ServeOptions {
            threads: 3,
            queue_limit: 11,
            ..ServeOptions::default()
        },
        clock.clone() as Arc<dyn Clock>,
    );
    let path = temp_artifact("uptime.json");
    state.load_artifact(&path).expect("load artifact");

    clock.set_micros(1_234_567);
    let ApiResponse::Health(health) = state.handle(&ApiRequest::Health) else {
        panic!("expected a health reply");
    };
    assert_eq!(health.uptime_micros, 1_234_567);
    assert_eq!(health.apps, vec!["pso".to_string()]);
    assert_eq!(health.threads, 3);
    assert_eq!(health.queue_limit, 11);
    assert_eq!(health.queue_depth, 0);
}

fn predict_req() -> ApiRequest {
    ApiRequest::Predict(PredictParams {
        app: "pso".to_string(),
        input: vec![16.0, 3.0],
        phase: 0,
        configs: vec![vec![1, 1, 1]],
    })
}

/// Admission by hand: frames past the bound shed with `overloaded`,
/// `health` is exempt, `health.queue_depth` counts the frames waiting
/// for a slot, admitted frames are answered through their permits, one
/// ledger tick records the shed as a `serve.admission` event, and after
/// a shutdown nothing is admitted.
#[test]
fn admit_sheds_past_the_bound_and_logs_admission() {
    let state = ServeState::new(ServeOptions {
        threads: 1,
        queue_limit: 2,
        ..ServeOptions::default()
    });
    let path = temp_artifact("admit.json");
    state.load_artifact(&path).expect("load artifact");

    let (optimize, predict) = (optimize_req(), predict_req());
    let first = state.admit(&optimize).expect("first frame is admitted");
    let second = state.admit(&predict).expect("second frame is admitted");
    let Err(shed) = state.admit(&optimize) else {
        panic!("third frame must shed");
    };
    assert_eq!(WireCode::of(&shed), WireCode::Overloaded, "{shed}");

    // Health gets through past the bound; answering it takes the free
    // slot, leaving the two other frames waiting.
    let health = ApiRequest::Health;
    let probe = state.admit(&health).expect("health is exempt");
    let ApiResponse::Health(reply) = probe.answer() else {
        panic!("expected a health reply");
    };
    assert_eq!(reply.queue_depth, 2);

    assert!(matches!(first.answer(), ApiResponse::Optimize(_)));
    assert!(matches!(second.answer(), ApiResponse::Predict(_)));
    let ApiResponse::Health(reply) = state.handle(&health) else {
        panic!("expected a health reply");
    };
    assert_eq!(reply.queue_depth, 0);

    let tele = state.telemetry();
    assert_eq!(tele.counter_value("serve.shed"), 1);
    assert_eq!(tele.counter_value("serve.admitted"), 3);
    assert!(tele.report().events_named("serve.admission").is_empty());
    state.admission_tick();
    // A tick without new sheds records nothing.
    state.admission_tick();
    let report = tele.report();
    let events = report.events_named("serve.admission");
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].field("shed"), Some(1.0));
    assert_eq!(events[0].field("queue_limit"), Some(2.0));

    state.begin_shutdown();
    let Err(refusal) = state.admit(&health) else {
        panic!("nothing is admitted after a shutdown");
    };
    assert_eq!(WireCode::of(&refusal), WireCode::Unavailable, "{refusal}");
}

/// Serving requests appends nothing to the telemetry timeline: each
/// op's handle time lands in its fixed-bucket histogram instead, so the
/// registry stays bounded however many frames are served.
#[test]
fn served_frames_fill_histograms_not_the_timeline() {
    let state = ServeState::new(ServeOptions {
        threads: 1,
        ..ServeOptions::default()
    });
    state
        .load_artifact(temp_artifact("histograms.json"))
        .expect("load artifact");
    let before = state.telemetry().report().timeline.len();
    let line = predict_req().to_wire();
    for _ in 0..100 {
        let reply = state.serve_line(&line);
        assert!(
            matches!(ApiResponse::parse(&reply), Ok(ApiResponse::Predict(_))),
            "{reply}"
        );
    }
    let report = state.telemetry().report();
    assert_eq!(report.timeline.len(), before);
    let hist = report
        .histogram("serve.handle_us.predict")
        .expect("the predict op records its handle time");
    assert_eq!(hist.counts.iter().sum::<u64>(), 100);
    // The `metrics` op returns the histogram with the rest of the report.
    let metrics = state.serve_line(&ApiRequest::Metrics.to_wire());
    assert!(
        metrics.contains(r#""name":"serve.handle_us.predict""#),
        "{metrics}"
    );
}

/// A real TCP server answering several concurrent connections, then
/// shutting down cleanly on a wire `shutdown` frame.
#[test]
fn tcp_server_answers_concurrent_clients() {
    let state = Arc::new(ServeState::new(ServeOptions {
        threads: 2,
        ..ServeOptions::default()
    }));
    let path = temp_artifact("tcp.json");
    state.load_artifact(&path).expect("load artifact");
    let mut server = Server::start(Arc::clone(&state)).expect("start server");
    let addr = server.addr().to_string();

    let clients: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let optimize = optimize_req().to_wire();
                let predict = ApiRequest::Predict(PredictParams {
                    app: "PSO".to_string(),
                    input: vec![16.0, 3.0 + i as f64],
                    phase: 1,
                    configs: vec![vec![0, 0, 0], vec![2, 2, 2]],
                })
                .to_wire();
                let health = ApiRequest::Health.to_wire();
                send_lines(&addr, &[&health, &predict, &optimize])
            })
        })
        .collect();
    for client in clients {
        let replies = client.join().expect("client thread");
        assert_eq!(replies.len(), 3);
        assert!(matches!(
            ApiResponse::parse(&replies[0]).expect("health frame"),
            ApiResponse::Health(_)
        ));
        let ApiResponse::Predict(pred) = ApiResponse::parse(&replies[1]).expect("predict frame")
        else {
            panic!("expected a predict reply, got {}", replies[1]);
        };
        assert_eq!(pred.predictions.len(), 2);
        assert!(matches!(
            ApiResponse::parse(&replies[2]).expect("optimize frame"),
            ApiResponse::Optimize(_)
        ));
    }

    let replies = send_lines(&addr, &[&ApiRequest::Shutdown.to_wire()]);
    assert_eq!(
        ApiResponse::parse(&replies[0]).expect("shutdown frame"),
        ApiResponse::Shutdown
    );
    server.stop();
    assert!(state.is_shutdown());
    assert!(state.telemetry().counter_value("serve.requests") >= 13);
}

/// Heterogeneous traffic against a multi-app store: one server holds
/// trained artifacts for two applications with different block counts
/// and input arities, concurrent clients interleave requests across
/// them on the same connections, and every reply routes to the right
/// model (PSO replies have 3-level plans, StreamAgg replies 3-block
/// predictions of their own). An unknown app is refused with a frame
/// listing both loaded names.
#[test]
fn tcp_server_routes_mixed_app_traffic() {
    let state = Arc::new(ServeState::new(ServeOptions {
        threads: 2,
        ..ServeOptions::default()
    }));
    let pso_path = temp_artifact("mixed_pso.json");
    state.load_artifact(&pso_path).expect("load PSO artifact");
    let agg_path = std::env::temp_dir()
        .join("opprox_serve_tests")
        .join("mixed_streamagg.json");
    write_streamagg_artifact(&agg_path);
    let loaded = state
        .load_artifact(&agg_path)
        .expect("load StreamAgg artifact");
    assert_eq!(loaded, "streamagg");

    let ApiResponse::Health(health) = state.handle(&ApiRequest::Health) else {
        panic!("expected a health reply");
    };
    assert_eq!(
        health.apps,
        vec!["pso".to_string(), "streamagg".to_string()]
    );

    let mut server = Server::start(Arc::clone(&state)).expect("start server");
    let addr = server.addr().to_string();

    let clients: Vec<_> = (0..3)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let pso_opt = ApiRequest::Optimize(OptimizeParams::new(
                    "pso",
                    vec![16.0, 3.0 + i as f64],
                    10.0,
                ))
                .to_wire();
                let agg_opt =
                    ApiRequest::Optimize(OptimizeParams::new("StreamAgg", vec![64.0, 40.0], 10.0))
                        .to_wire();
                let agg_pred = ApiRequest::Predict(PredictParams {
                    app: "streamagg".to_string(),
                    input: vec![64.0, 40.0],
                    phase: 0,
                    configs: vec![vec![0, 0, 0], vec![2, 1, 3]],
                })
                .to_wire();
                send_lines(&addr, &[&pso_opt, &agg_opt, &agg_pred])
            })
        })
        .collect();
    for client in clients {
        let replies = client.join().expect("client thread");
        assert_eq!(replies.len(), 3);
        let ApiResponse::Optimize(pso) = ApiResponse::parse(&replies[0]).expect("pso frame") else {
            panic!("expected a PSO optimize reply, got {}", replies[0]);
        };
        assert_eq!(pso.app, "pso");
        let ApiResponse::Optimize(agg) = ApiResponse::parse(&replies[1]).expect("agg frame") else {
            panic!("expected a StreamAgg optimize reply, got {}", replies[1]);
        };
        // The reply echoes the client's spelling; routing is
        // case-insensitive against the lowercased store key.
        assert!(agg.app.eq_ignore_ascii_case("streamagg"), "{}", agg.app);
        assert!(
            agg.levels.iter().all(|cfg| cfg.len() == 3),
            "StreamAgg plans must cover its 3 blocks: {:?}",
            agg.levels
        );
        let ApiResponse::Predict(pred) = ApiResponse::parse(&replies[2]).expect("predict frame")
        else {
            panic!("expected a predict reply, got {}", replies[2]);
        };
        assert_eq!(pred.predictions.len(), 2);
    }

    // An app the store does not hold is refused, naming what is loaded.
    let missing =
        ApiRequest::Optimize(OptimizeParams::new("lulesh", vec![48.0, 2.0], 10.0)).to_wire();
    let replies = send_lines(&addr, &[&missing]);
    let ApiResponse::Error { code, message } =
        ApiResponse::parse(&replies[0]).expect("error frame")
    else {
        panic!("expected an error frame, got {}", replies[0]);
    };
    assert_eq!(code, WireCode::UnknownApp);
    assert!(
        message.contains("pso") && message.contains("streamagg"),
        "{message}"
    );

    let replies = send_lines(&addr, &[&ApiRequest::Shutdown.to_wire()]);
    assert_eq!(
        ApiResponse::parse(&replies[0]).expect("shutdown frame"),
        ApiResponse::Shutdown
    );
    server.stop();
}

/// The `adaptive` op end-to-end on the wire: a drift-injected
/// closed-loop session round-trips over TCP with a balanced budget
/// ledger, and an unknown op under protocol v1 is refused with a
/// `bad_request` frame instead of tearing down the connection.
#[test]
fn tcp_adaptive_op_round_trips_and_unknown_op_is_refused() {
    let state = Arc::new(ServeState::new(ServeOptions {
        threads: 2,
        ..ServeOptions::default()
    }));
    let path = temp_artifact("adaptive.json");
    state.load_artifact(&path).expect("load artifact");
    let mut server = Server::start(Arc::clone(&state)).expect("start server");
    let addr = server.addr().to_string();

    let mut params = AdaptiveParams::new("pso", vec![16.0, 3.0], 10.0);
    params.drift_phase = Some(0);
    params.drift_factor = Some(6.0);
    let adaptive = ApiRequest::Adaptive(params).to_wire();
    // A frame with a valid envelope but an op v1 does not know.
    let unknown = r#"{"v":1,"kind":"resegment"}"#;
    let replies = send_lines(&addr, &[&adaptive, unknown]);
    assert_eq!(replies.len(), 2);

    let ApiResponse::Adaptive(reply) = ApiResponse::parse(&replies[0]).expect("adaptive frame")
    else {
        panic!("expected an adaptive reply, got {}", replies[0]);
    };
    assert_eq!(reply.app, "pso");
    assert!(reply.steps > 0, "the controller walked no phases");
    assert!(reply.replans >= 1, "a 6x drift injection must re-plan");
    assert!(
        (reply.budget_reclaimed - reply.budget_redistributed).abs() <= 1e-9,
        "ledger leaks budget on the wire: reclaimed {} vs redistributed {}",
        reply.budget_reclaimed,
        reply.budget_redistributed
    );
    assert!(
        reply.predicted_qos <= 10.0 + 1e-9,
        "re-planned QoS {} exceeds the requested budget",
        reply.predicted_qos
    );
    assert!(reply.measured.is_some(), "adaptive sessions always execute");

    let err = ApiResponse::parse(&replies[1]).expect("error frames parse");
    let ApiResponse::Error { code, message } = err else {
        panic!("expected an error frame, got {}", replies[1]);
    };
    assert_eq!(code, WireCode::BadRequest);
    assert!(message.contains("unknown request kind"), "{message}");

    let replies = send_lines(&addr, &[&ApiRequest::Shutdown.to_wire()]);
    assert_eq!(
        ApiResponse::parse(&replies[0]).expect("shutdown frame"),
        ApiResponse::Shutdown
    );
    server.stop();
}

/// A validated optimize frame (which executes the app), with `set`
/// applied.
fn validated_req(set: impl FnOnce(&mut OptimizeParams)) -> ApiRequest {
    let mut p = OptimizeParams::new("pso", vec![16.0, 3.0], 10.0);
    p.validate = true;
    p.validation_budget = Some(4);
    set(&mut p);
    ApiRequest::Optimize(p)
}

/// An adaptive frame (which executes the app), with `set` applied.
fn adaptive_req(set: impl FnOnce(&mut AdaptiveParams)) -> ApiRequest {
    let mut p = AdaptiveParams::new("pso", vec![16.0, 3.0], 10.0);
    set(&mut p);
    ApiRequest::Adaptive(p)
}

/// Sends each of `frames` over the wire and expects a `bad_request`
/// naming `knob`: the knob is checked before the request runs, so the
/// reply is an error frame with no plan and no measurement, where an
/// in-range frame executes the app.
fn assert_knob_refused(knob: &str, frames: &[ApiRequest]) {
    let state = ServeState::new(ServeOptions {
        threads: 1,
        ..ServeOptions::default()
    });
    state
        .load_artifact(temp_artifact(&format!("knob_{knob}.json")))
        .expect("load artifact");
    for req in frames {
        let reply = state.serve_line(&req.to_wire());
        let Ok(ApiResponse::Error { code, message }) = ApiResponse::parse(&reply) else {
            panic!("{knob}: expected an error frame, got {reply}");
        };
        assert_eq!(code, WireCode::BadRequest, "{knob}: {message}");
        assert!(message.contains(knob), "{knob}: {message}");
    }
    assert_eq!(
        state.telemetry().counter_value("serve.errors"),
        frames.len() as u64
    );
}

/// A 0 ms evaluation budget would fail every run as a retryable timeout.
#[test]
fn zero_eval_timeout_is_a_bad_request() {
    assert_knob_refused(
        "eval_timeout_ms",
        &[
            validated_req(|p| p.eval_timeout_ms = Some(0)),
            adaptive_req(|p| p.eval_timeout_ms = Some(0)),
        ],
    );
}

/// Every retry re-executes while the frame holds a handling slot, so the
/// retries are capped; the cap itself is accepted.
#[test]
fn retries_past_the_cap_are_a_bad_request() {
    assert_knob_refused(
        "max_retries",
        &[
            validated_req(|p| p.max_retries = Some(u64::from(MAX_RETRIES) + 1)),
            adaptive_req(|p| p.max_retries = Some(u64::MAX)),
        ],
    );
    let state = ServeState::new(ServeOptions {
        threads: 1,
        ..ServeOptions::default()
    });
    state
        .load_artifact(temp_artifact("knob_retry_cap.json"))
        .expect("load artifact");
    let req = validated_req(|p| p.max_retries = Some(u64::from(MAX_RETRIES)));
    let reply = state.serve_line(&req.to_wire());
    let Ok(ApiResponse::Optimize(reply)) = ApiResponse::parse(&reply) else {
        panic!("expected an optimize reply, got {reply}");
    };
    assert!(reply.measured.is_some());
}

/// A drift injection must scale the observed work by a positive factor.
#[test]
fn non_positive_drift_factor_is_a_bad_request() {
    assert_knob_refused(
        "drift_factor",
        &[0.0, -6.0].map(|factor| {
            adaptive_req(|p| {
                p.drift_phase = Some(0);
                p.drift_factor = Some(factor);
            })
        }),
    );
}

/// The drift band can only be widened.
#[test]
fn negative_drift_tolerance_is_a_bad_request() {
    assert_knob_refused("tolerance", &[adaptive_req(|p| p.tolerance = Some(-0.5))]);
}
