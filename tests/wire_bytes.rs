//! The v1 wire bytes, pinned line by line. Each frame below renders to
//! exactly the literal line beside it, and every line that holds only
//! finite numbers parses back to its frame. The round-trip properties in
//! `tests/api_protocol.rs` cannot see an encoder and a parser that drift
//! together; these lines can.

use opprox::core::api::{
    AdaptiveParams, AdaptiveReply, ApiRequest, ApiResponse, HealthReply, MeasuredReply,
    MetricsReply, OptimizeParams, OptimizeReply, PredictParams, PredictReply, PredictionReply,
    WireCode, ALL_CODES,
};
use serde::value::{Number, Value};

/// An app name that needs every kind of JSON string escape.
const ODD: &str = "p\"s\\o\n\u{1}";

/// Every float shape the renderer has to get right.
const FLOATS: [f64; 6] = [0.1, 2.0, -0.0, 1e-7, 1e21, f64::MAX];

fn requests() -> Vec<(ApiRequest, &'static str)> {
    let all_knobs = OptimizeParams {
        point: true,
        validate: true,
        validation_budget: Some(8),
        max_retries: Some(2),
        backoff_ms: Some(0),
        eval_timeout_ms: Some(250),
        ..OptimizeParams::new(ODD, FLOATS.to_vec(), 1e-7)
    };
    let all_adaptive = AdaptiveParams {
        tolerance: Some(0.1),
        resegment: false,
        drift_phase: Some(0),
        drift_factor: Some(2.0),
        drift_block: Some(1),
        max_retries: Some(3),
        backoff_ms: Some(5),
        eval_timeout_ms: Some(1000),
        ..AdaptiveParams::new(ODD, FLOATS.to_vec(), f64::MAX)
    };
    vec![
        (
            ApiRequest::Optimize(OptimizeParams::new("pso", vec![16.0, 3.0], 10.0)),
            r#"{"v":1,"kind":"optimize","app":"pso","input":[16,3],"budget":10,"conservatism":"band","validate":false}"#,
        ),
        (
            ApiRequest::Optimize(all_knobs),
            r#"{"v":1,"kind":"optimize","app":"p\"s\\o\n\u0001","input":[0.1,2,-0,0.0000001,1000000000000000000000,179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000],"budget":0.0000001,"conservatism":"point","validate":true,"validation_budget":8,"max_retries":2,"backoff_ms":0,"eval_timeout_ms":250}"#,
        ),
        (
            ApiRequest::Adaptive(AdaptiveParams::new("pso", vec![16.0, 3.0], 10.0)),
            r#"{"v":1,"kind":"adaptive","app":"pso","input":[16,3],"budget":10,"resegment":true}"#,
        ),
        (
            ApiRequest::Adaptive(all_adaptive),
            r#"{"v":1,"kind":"adaptive","app":"p\"s\\o\n\u0001","input":[0.1,2,-0,0.0000001,1000000000000000000000,179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000],"budget":179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,"resegment":false,"tolerance":0.1,"drift_phase":0,"drift_factor":2,"drift_block":1,"max_retries":3,"backoff_ms":5,"eval_timeout_ms":1000}"#,
        ),
        (
            ApiRequest::Predict(PredictParams {
                app: "pso".to_string(),
                input: vec![0.1, -0.0],
                phase: 1,
                configs: vec![vec![0, 0, 0], vec![2, 1, 2]],
            }),
            r#"{"v":1,"kind":"predict","app":"pso","input":[0.1,-0],"phase":1,"configs":[[0,0,0],[2,1,2]]}"#,
        ),
        (
            ApiRequest::Predict(PredictParams {
                app: ODD.to_string(),
                input: Vec::new(),
                phase: 0,
                configs: vec![Vec::new()],
            }),
            r#"{"v":1,"kind":"predict","app":"p\"s\\o\n\u0001","input":[],"phase":0,"configs":[[]]}"#,
        ),
        (ApiRequest::Health, r#"{"v":1,"kind":"health"}"#),
        (ApiRequest::Metrics, r#"{"v":1,"kind":"metrics"}"#),
        (ApiRequest::Shutdown, r#"{"v":1,"kind":"shutdown"}"#),
    ]
}

fn responses() -> Vec<(ApiResponse, &'static str)> {
    let measured = MeasuredReply {
        speedup: 1e-7,
        qos: 1e21,
        outer_iters: 40,
    };
    let report = Value::Object(vec![
        (
            "counters".to_string(),
            Value::Array(vec![Value::Object(vec![
                (
                    "name".to_string(),
                    Value::String("serve.requests".to_string()),
                ),
                ("value".to_string(), Value::Number(Number::U64(3))),
            ])]),
        ),
        (
            "gauges".to_string(),
            Value::Array(vec![Value::Object(vec![
                ("name".to_string(), Value::String(ODD.to_string())),
                ("value".to_string(), Value::Number(Number::F64(0.1))),
            ])]),
        ),
        ("events".to_string(), Value::Array(Vec::new())),
    ]);
    let mut cases = vec![
        (
            ApiResponse::Optimize(OptimizeReply {
                app: "pso".to_string(),
                generation: 1,
                path: "model_only".to_string(),
                levels: vec![vec![0, 1, 2], vec![3, 0, 0]],
                predicted_speedup: 2.0,
                predicted_qos: 0.1,
                candidates_tried: 0,
                cached: false,
                measured: None,
            }),
            r#"{"v":1,"kind":"optimize","status":"ok","app":"pso","generation":1,"path":"model_only","levels":[[0,1,2],[3,0,0]],"predicted_speedup":2,"predicted_qos":0.1,"candidates_tried":0,"cached":false}"#,
        ),
        (
            ApiResponse::Optimize(OptimizeReply {
                app: ODD.to_string(),
                generation: 7,
                path: "validated".to_string(),
                levels: Vec::new(),
                predicted_speedup: f64::MAX,
                predicted_qos: -0.0,
                candidates_tried: 12,
                cached: true,
                measured: Some(measured.clone()),
            }),
            r#"{"v":1,"kind":"optimize","status":"ok","app":"p\"s\\o\n\u0001","generation":7,"path":"validated","levels":[],"predicted_speedup":179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,"predicted_qos":-0,"candidates_tried":12,"cached":true,"measured":{"speedup":0.0000001,"qos":1000000000000000000000,"outer_iters":40}}"#,
        ),
        (
            ApiResponse::Adaptive(AdaptiveReply {
                app: "pso".to_string(),
                generation: 2,
                levels: vec![vec![0, 0], vec![2, 1]],
                predicted_speedup: 1e21,
                predicted_qos: 1e-7,
                steps: 2,
                replans: 0,
                resegmented: false,
                degraded: true,
                budget_reclaimed: -0.0,
                budget_redistributed: 0.1,
                measured: None,
            }),
            r#"{"v":1,"kind":"adaptive","status":"ok","app":"pso","generation":2,"levels":[[0,0],[2,1]],"predicted_speedup":1000000000000000000000,"predicted_qos":0.0000001,"steps":2,"replans":0,"resegmented":false,"degraded":true,"budget_reclaimed":-0,"budget_redistributed":0.1}"#,
        ),
        (
            ApiResponse::Adaptive(AdaptiveReply {
                app: ODD.to_string(),
                generation: 3,
                levels: vec![Vec::new()],
                predicted_speedup: 2.0,
                predicted_qos: f64::MAX,
                steps: 4,
                replans: 1,
                resegmented: true,
                degraded: false,
                budget_reclaimed: 7.25,
                budget_redistributed: 7.25,
                measured: Some(measured),
            }),
            r#"{"v":1,"kind":"adaptive","status":"ok","app":"p\"s\\o\n\u0001","generation":3,"levels":[[]],"predicted_speedup":2,"predicted_qos":179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,"steps":4,"replans":1,"resegmented":true,"degraded":false,"budget_reclaimed":7.25,"budget_redistributed":7.25,"measured":{"speedup":0.0000001,"qos":1000000000000000000000,"outer_iters":40}}"#,
        ),
        (
            ApiResponse::Predict(PredictReply {
                app: "pso".to_string(),
                generation: 1,
                class: 0,
                predictions: vec![
                    PredictionReply {
                        speedup: 0.1,
                        qos: 2.0,
                        iters: 1e-7,
                    },
                    PredictionReply {
                        speedup: 1e21,
                        qos: f64::MAX,
                        iters: -0.0,
                    },
                ],
            }),
            r#"{"v":1,"kind":"predict","status":"ok","app":"pso","generation":1,"class":0,"predictions":[{"speedup":0.1,"qos":2,"iters":0.0000001},{"speedup":1000000000000000000000,"qos":179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,"iters":-0}]}"#,
        ),
        (
            ApiResponse::Predict(PredictReply {
                app: ODD.to_string(),
                generation: 9,
                class: 2,
                predictions: Vec::new(),
            }),
            r#"{"v":1,"kind":"predict","status":"ok","app":"p\"s\\o\n\u0001","generation":9,"class":2,"predictions":[]}"#,
        ),
        (
            ApiResponse::Health(HealthReply {
                apps: vec!["lulesh".to_string(), ODD.to_string()],
                generation: 2,
                queue_depth: 0,
                queue_limit: 64,
                threads: 2,
                uptime_micros: 123_456,
            }),
            r#"{"v":1,"kind":"health","status":"ok","apps":["lulesh","p\"s\\o\n\u0001"],"generation":2,"queue_depth":0,"queue_limit":64,"threads":2,"uptime_micros":123456}"#,
        ),
        (
            ApiResponse::Metrics(MetricsReply { report }),
            r#"{"v":1,"kind":"metrics","status":"ok","report":{"counters":[{"name":"serve.requests","value":3}],"gauges":[{"name":"p\"s\\o\n\u0001","value":0.1}],"events":[]}}"#,
        ),
        (
            ApiResponse::Shutdown,
            r#"{"v":1,"kind":"shutdown","status":"ok"}"#,
        ),
    ];
    let errors = [
        r#"{"v":1,"kind":"error","status":"error","code":"runtime_error","message":"runtime_error happened"}"#,
        r#"{"v":1,"kind":"error","status":"error","code":"model_error","message":"model_error happened"}"#,
        r#"{"v":1,"kind":"error","status":"error","code":"insufficient_data","message":"insufficient_data happened"}"#,
        r#"{"v":1,"kind":"error","status":"error","code":"invalid_spec","message":"invalid_spec happened"}"#,
        r#"{"v":1,"kind":"error","status":"error","code":"serialization_error","message":"serialization_error happened"}"#,
        r#"{"v":1,"kind":"error","status":"error","code":"invalid_model","message":"invalid_model happened"}"#,
        r#"{"v":1,"kind":"error","status":"error","code":"evaluation_failed","message":"evaluation_failed happened"}"#,
        r#"{"v":1,"kind":"error","status":"error","code":"quarantined","message":"quarantined happened"}"#,
        r#"{"v":1,"kind":"error","status":"error","code":"bad_request","message":"p\"s\\o\n\u0001"}"#,
        r#"{"v":1,"kind":"error","status":"error","code":"unsupported_version","message":"unsupported_version happened"}"#,
        r#"{"v":1,"kind":"error","status":"error","code":"unknown_app","message":"unknown_app happened"}"#,
        r#"{"v":1,"kind":"error","status":"error","code":"overloaded","message":"overloaded happened"}"#,
        r#"{"v":1,"kind":"error","status":"error","code":"unavailable","message":"unavailable happened"}"#,
        r#"{"v":1,"kind":"error","status":"error","code":"non_finite_measurement","message":"non_finite_measurement happened"}"#,
    ];
    assert_eq!(errors.len(), ALL_CODES.len(), "one pinned line per code");
    for (&code, line) in ALL_CODES.iter().zip(errors) {
        let message = if code == WireCode::BadRequest {
            ODD.to_string()
        } else {
            format!("{} happened", code.as_str())
        };
        cases.push((ApiResponse::Error { code, message }, line));
    }
    cases
}

/// A frame with a non-finite float renders it as `null`, which no
/// parser reads back as a number.
fn non_finite() -> Vec<(ApiResponse, &'static str)> {
    vec![(
        ApiResponse::Predict(PredictReply {
            app: "pso".to_string(),
            generation: 1,
            class: 0,
            predictions: vec![PredictionReply {
                speedup: f64::NAN,
                qos: f64::INFINITY,
                iters: 3.0,
            }],
        }),
        r#"{"v":1,"kind":"predict","status":"ok","app":"pso","generation":1,"class":0,"predictions":[{"speedup":null,"qos":null,"iters":3}]}"#,
    )]
}

#[test]
fn requests_render_to_their_pinned_lines() {
    for (req, line) in requests() {
        assert_eq!(req.to_wire(), line, "{req:?}");
        assert_eq!(ApiRequest::parse(line).expect(line), req);
    }
}

#[test]
fn responses_render_to_their_pinned_lines() {
    for (resp, line) in responses() {
        assert_eq!(resp.to_wire(), line, "{resp:?}");
        assert_eq!(ApiResponse::parse(line).expect(line), resp);
    }
}

#[test]
fn non_finite_floats_render_as_null() {
    for (resp, line) in non_finite() {
        assert_eq!(resp.to_wire(), line, "{resp:?}");
        assert!(ApiResponse::parse(line).is_err(), "{line}");
    }
}
