//! The `serve` workload: a closed loop of seeded wire frames against
//! `opprox serve` over TCP, with the PSO artifact rewritten underneath it
//! so hot reload runs beside the reads.

use crate::plan::{self, PlanLayers, Request, RequestGen};
use crate::report::Outcome;
use crate::stats;
use crate::train::{self, TrainLayers};
use crate::Ctx;
use opprox_approx_rt::ApproxApp;
use opprox_core::api::{ApiRequest, ApiResponse, OptimizeParams, PredictParams};
use opprox_core::pipeline::TrainedOpprox;
use opprox_core::serve::{ServeOptions, ServeState, Server};
use opprox_testutil::rng::SplitMix64;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Apps the server holds. PSO's artifact is the one rewritten.
const SERVE_APPS: [&str; 3] = ["PSO", "StreamAgg", "PageRank"];

/// Optimize keys pre-warmed into the plan cache, spread evenly over the
/// apps.
const HOT_KEYS: usize = 48;

/// One optimize frame in this many carries a fresh budget, missing the
/// plan cache.
const FRESH_EVERY: u64 = 64;

/// Client 0 rewrites the PSO artifact after every this many of its
/// frames.
const REWRITE_EVERY: u64 = 20_000;

/// Distinct frames rendered per client; the closed loop cycles them.
const POOL_FRAMES: usize = 4096;

/// Frames per client in the warm-up pass.
const WARMUP_FRAMES: usize = 512;

/// Most configurations one predict frame carries.
const MAX_CONFIGS: u64 = 16;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;

/// Most frames the traced in-process replay sends.
const MAX_REPLAY_FRAMES: usize = 20_000;

/// How long to wait for the server to pick up an artifact rewrite.
const RELOAD_TIMEOUT: Duration = Duration::from_secs(5);

/// The reply kind a frame expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Predict,
    Optimize,
    Health,
}

impl Kind {
    /// The head of every successful reply of this kind.
    fn ok_prefix(self) -> &'static str {
        match self {
            Kind::Predict => r#"{"v":1,"kind":"predict","status":"ok""#,
            Kind::Optimize => r#"{"v":1,"kind":"optimize","status":"ok""#,
            Kind::Health => r#"{"v":1,"kind":"health","status":"ok""#,
        }
    }
}

/// One frame of a client's pool: a rendered line, or an optimize frame
/// for a hot key whose budget is drawn afresh each time it is sent.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    Line(String, Kind),
    Fresh(usize),
}

/// What the frame generator needs to know about one served app.
struct AppInfo {
    name: String,
    inputs: Vec<Vec<f64>>,
    max_levels: Vec<u8>,
    phases: u64,
}

/// The seeded frame generator: 64% predict (1-16 configs), 32% optimize
/// over the hot set (1 in 64 with a fresh budget), 4% health.
pub struct FrameGen {
    rng: SplitMix64,
    apps: Vec<AppInfo>,
    hot: Vec<Request>,
    optimize_frames: u64,
}

impl FrameGen {
    fn new(
        seed: u64,
        client: u64,
        apps: &[Box<dyn ApproxApp>],
        phases: u64,
        hot: &[Request],
    ) -> Self {
        FrameGen {
            rng: SplitMix64::new(seed ^ 0xF7A3_E500 ^ client.wrapping_mul(0x9E37_79B9)),
            apps: apps
                .iter()
                .map(|a| AppInfo {
                    name: a.meta().name.clone(),
                    inputs: a
                        .representative_inputs()
                        .iter()
                        .map(|i| i.values().to_vec())
                        .collect(),
                    max_levels: a.meta().blocks.iter().map(|b| b.max_level).collect(),
                    phases,
                })
                .collect(),
            hot: hot.to_vec(),
            optimize_frames: 0,
        }
    }

    fn pick(&mut self, n: usize) -> usize {
        self.rng.next_below(n as u64) as usize
    }

    fn next_frame(&mut self) -> Frame {
        let roll = self.rng.next_below(100);
        if roll < 64 {
            let app = self.pick(self.apps.len());
            let input = self.pick(self.apps[app].inputs.len());
            let input = self.apps[app].inputs[input].clone();
            let phase = self.rng.next_below(self.apps[app].phases);
            let n = 1 + self.rng.next_below(MAX_CONFIGS);
            let max_levels = &self.apps[app].max_levels;
            let rng = &mut self.rng;
            let configs = (0..n)
                .map(|_| {
                    max_levels
                        .iter()
                        .map(|&m| rng.next_below(u64::from(m) + 1))
                        .collect()
                })
                .collect();
            let req = ApiRequest::Predict(PredictParams {
                app: self.apps[app].name.clone(),
                input,
                phase,
                configs,
            });
            Frame::Line(req.to_wire() + "\n", Kind::Predict)
        } else if roll < 96 {
            // Fresh frames sit at fixed places and take the hot keys in
            // turn, so every pool misses the plan cache equally often and
            // on the same mix of apps: a miss is an Algorithm-2 solve,
            // and PageRank's costs about twice PSO's.
            self.optimize_frames += 1;
            if self.optimize_frames.is_multiple_of(FRESH_EVERY) {
                let misses = self.optimize_frames / FRESH_EVERY;
                Frame::Fresh((misses % self.hot.len() as u64) as usize)
            } else {
                let key = self.pick(self.hot.len());
                Frame::Line(
                    self.optimize_line(key, self.hot[key].budget),
                    Kind::Optimize,
                )
            }
        } else {
            Frame::Line(ApiRequest::Health.to_wire() + "\n", Kind::Health)
        }
    }

    fn optimize_line(&self, key: usize, budget: f64) -> String {
        let req = &self.hot[key];
        let params = OptimizeParams::new(
            self.apps[req.app].name.clone(),
            req.input.values().to_vec(),
            budget,
        );
        ApiRequest::Optimize(params).to_wire() + "\n"
    }

    /// The line to send for `frame`; a fresh frame draws a new budget.
    fn line<'f>(&mut self, frame: &'f Frame) -> (std::borrow::Cow<'f, str>, Kind) {
        match frame {
            Frame::Line(line, kind) => (line.as_str().into(), *kind),
            Frame::Fresh(key) => {
                let budget = RequestGen::budget(&mut self.rng);
                (self.optimize_line(*key, budget).into(), Kind::Optimize)
            }
        }
    }

    fn pool(&mut self, n: usize) -> Vec<Frame> {
        (0..n).map(|_| self.next_frame()).collect()
    }
}

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            reply: String::new(),
        })
    }

    /// Sends one newline-terminated line and reads the reply line.
    fn round_trip(&mut self, line: &str) -> std::io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.reply.clear();
        self.reader.read_line(&mut self.reply)?;
        Ok(self.reply.trim_end())
    }
}

/// Rewrites an artifact file in place (write aside, then rename) and
/// waits for the server to have reloaded every earlier rewrite first, so
/// no two rewrites fold into one reload.
struct Rewriter {
    path: PathBuf,
    json: String,
    state: Arc<ServeState>,
    done: u64,
}

impl Rewriter {
    fn rewrite(&mut self) -> bool {
        let caught_up = wait_reloads(&self.state, self.done);
        let aside = self.path.with_extension("json.new");
        std::fs::write(&aside, &self.json).expect("the scratch directory is writable");
        std::fs::rename(&aside, &self.path).expect("the scratch directory is writable");
        self.done += 1;
        caught_up
    }
}

/// Waits until the server has made `n` reloads; `false` on timeout.
fn wait_reloads(state: &ServeState, n: u64) -> bool {
    let start = Instant::now();
    while state.telemetry().counter_value("serve.reload") < n {
        if start.elapsed() > RELOAD_TIMEOUT {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    state.telemetry().counter_value("serve.reload") == n
}

/// What one client measured.
#[derive(Default)]
struct ClientRun {
    /// `(completion time since the loop began, latency)` per frame.
    samples: Vec<(f64, f64)>,
    bad: u64,
    rewrites_late: u64,
}

/// Drives one connection in a closed loop over its frame pool from
/// `begin` until `deadline`.
fn drive(
    conn: &mut Conn,
    gen: &mut FrameGen,
    pool: &[Frame],
    (begin, deadline): (Instant, Instant),
    mut rewriter: Option<&mut Rewriter>,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut i = 0usize;
    while Instant::now() < deadline {
        let (line, kind) = gen.line(&pool[i % pool.len()]);
        let start = Instant::now();
        let ok = conn
            .round_trip(&line)
            .is_ok_and(|reply| reply.starts_with(kind.ok_prefix()));
        run.samples
            .push((begin.elapsed().as_secs_f64(), start.elapsed().as_secs_f64()));
        if !ok {
            run.bad += 1;
            if run.bad <= 3 {
                eprintln!(
                    "bad reply to {}: {}",
                    line.trim_end(),
                    conn.reply.trim_end()
                );
            }
        }
        i += 1;
        if let Some(rw) = rewriter.as_deref_mut() {
            if (i as u64).is_multiple_of(REWRITE_EVERY) && !rw.rewrite() {
                run.rewrites_late += 1;
            }
        }
    }
    run
}

/// A running server with its clients connected and warmed up.
struct Live {
    state: Arc<ServeState>,
    conns: Vec<Conn>,
    /// The server's replies to the hot keys, in key order.
    hot_replies: Vec<String>,
    // Dropped after `conns`, so the connection threads see EOF first.
    _server: Server,
}

struct Setup {
    apps: Vec<Box<dyn ApproxApp>>,
    models: Vec<TrainedOpprox>,
    artifacts: Vec<PathBuf>,
}

/// Trains the apps and writes their artifacts.
fn train_apps(ctx: &mut Ctx, out: &mut Outcome, layers: Option<&mut TrainLayers>) -> Setup {
    let apps = train::build_apps(&SERVE_APPS);
    let options = train::options(ctx, None);
    let pass = match layers {
        Some(layers) => train::train_all_pairs(ctx, out, layers, &apps, &options),
        None => {
            let pass = train::train_all(ctx.nproc, &apps, &options);
            out.ops(apps.len() as u64, pass.failed);
            pass
        }
    };
    let artifacts = pass
        .models
        .iter()
        .map(|m| {
            let path = ctx
                .scratch
                .join(format!("{}.json", m.app_name().to_ascii_lowercase()));
            std::fs::write(&path, m.to_json().expect("a trained model serializes"))
                .expect("the scratch directory is writable");
            path
        })
        .collect();
    Setup {
        apps,
        models: pass.models,
        artifacts,
    }
}

/// Starts the server on the artifacts, connects the clients and sends
/// the warm-up pass: every hot key once, then part of each pool.
fn start(
    ctx: &Ctx,
    artifacts: &[PathBuf],
    hot: &[String],
    gens: &mut [FrameGen],
    pools: &[Vec<Frame>],
) -> std::io::Result<Live> {
    let state = Arc::new(ServeState::new(ServeOptions {
        threads: ctx.nproc,
        ..ServeOptions::default()
    }));
    for path in artifacts {
        state
            .load_artifact(path)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
    }
    let server = Server::start(Arc::clone(&state))?;
    let mut conns = (0..pools.len())
        .map(|_| Conn::open(server.addr()))
        .collect::<std::io::Result<Vec<_>>>()?;
    let mut hot_replies = Vec::with_capacity(hot.len());
    for line in hot {
        hot_replies.push(conns[0].round_trip(line)?.to_string());
    }
    for ((conn, gen), pool) in conns.iter_mut().zip(gens.iter_mut()).zip(pools) {
        for frame in pool.iter().take(WARMUP_FRAMES) {
            let (line, _) = gen.line(frame);
            conn.round_trip(&line)?;
        }
    }
    Ok(Live {
        state,
        conns,
        hot_replies,
        _server: server,
    })
}

/// Runs the closed loop on every connection for `seconds`; client 0
/// also rewrites the PSO artifact. Returns the clients' runs and the
/// number of rewrites.
fn closed_loop(
    live: &mut Live,
    gens: &mut [FrameGen],
    pools: &[Vec<Frame>],
    pso: &Path,
    seconds: f64,
) -> (Vec<ClientRun>, u64) {
    let mut rewriter = Rewriter {
        path: pso.to_path_buf(),
        json: std::fs::read_to_string(pso).expect("the PSO artifact was written in set-up"),
        state: Arc::clone(&live.state),
        done: 0,
    };
    let begin = Instant::now();
    let span = (begin, begin + Duration::from_secs_f64(seconds));
    let runs = std::thread::scope(|s| {
        let mut rewriter = Some(&mut rewriter);
        let handles: Vec<_> = live
            .conns
            .iter_mut()
            .zip(gens.iter_mut())
            .zip(pools)
            .map(|((conn, gen), pool)| {
                let rw = rewriter.take();
                s.spawn(move || drive(conn, gen, pool, span, rw))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect::<Vec<_>>()
    });
    (runs, rewriter.done)
}

/// A started serve run: trained apps and their artifacts, the hot keys,
/// each client's generator and frame pool, and the warmed-up server.
struct World {
    setup: Setup,
    hot: Vec<Request>,
    gens: Vec<FrameGen>,
    pools: Vec<Vec<Frame>>,
    live: Live,
}

/// The serve workload's set-up: train, write artifacts, start the
/// server on them, connect and warm up.
fn set_up(
    ctx: &mut Ctx,
    out: &mut Outcome,
    layers: Option<&mut TrainLayers>,
) -> std::io::Result<World> {
    let clients = ctx.nproc.clamp(1, 2);
    let setup = train_apps(ctx, out, layers);
    let hot: Vec<Request> = {
        let mut gen = RequestGen::new(ctx.seed, setup.apps.iter().map(|a| a.as_ref()));
        (0..HOT_KEYS)
            .map(|k| gen.next_request_for(k % SERVE_APPS.len()))
            .collect()
    };
    let phases = setup.models.first().map_or(1, |m| m.num_phases() as u64);
    let mut gens: Vec<FrameGen> = (0..clients as u64)
        .map(|c| FrameGen::new(ctx.seed, c, &setup.apps, phases, &hot))
        .collect();
    let pools: Vec<Vec<Frame>> = gens.iter_mut().map(|g| g.pool(POOL_FRAMES)).collect();
    let hot_lines: Vec<String> = (0..hot.len())
        .map(|k| gens[0].optimize_line(k, hot[k].budget))
        .collect();
    let live = start(ctx, &setup.artifacts, &hot_lines, &mut gens, &pools)?;
    Ok(World {
        setup,
        hot,
        gens,
        pools,
        live,
    })
}

/// The `serve` workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut train_layers = TrainLayers::default();
    let traced = ctx.spans.is_some();
    let t = Instant::now();
    let world = set_up(ctx, &mut out, traced.then_some(&mut train_layers));
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let World {
        setup,
        hot,
        mut gens,
        pools,
        mut live,
    } = match world {
        Ok(world) => world,
        Err(e) => {
            out.check(false, || format!("server set-up failed: {e}"));
            return out;
        }
    };
    let model_digest = train::check_models(&mut out, &setup.models);
    out.set("model_r2", train::model_r2(&setup.models));

    // Served plans must equal the library's plans for the same keys.
    for (k, (req, reply)) in hot.iter().zip(&live.hot_replies).enumerate() {
        let direct = plan::solve(&setup.models[req.app], req);
        let served = ApiResponse::parse(reply);
        let same = match (&direct, &served) {
            (Ok(plan), Ok(ApiResponse::Optimize(r))) => {
                let levels: Vec<Vec<u64>> = plan
                    .schedule
                    .configs()
                    .iter()
                    .map(|c| c.levels().iter().map(|&l| u64::from(l)).collect())
                    .collect();
                r.levels == levels && r.predicted_qos <= req.budget
            }
            _ => false,
        };
        out.check(same, || {
            format!("hot key {k} was served {reply}, not {direct:?}")
        });
    }

    let pso = setup.artifacts[0].clone();
    let tcp_seconds = if traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let (runs, rewrites) = closed_loop(&mut live, &mut gens, &pools, &pso, tcp_seconds);
    let reloads_ok = wait_reloads(&live.state, rewrites);
    let tele = live.state.telemetry();
    let (reloads, reload_errors, shed) = (
        tele.counter_value("serve.reload"),
        tele.counter_value("serve.reload.error"),
        tele.counter_value("serve.shed"),
    );
    let (hits, misses) = (
        tele.counter_value("serve.cache.hit"),
        tele.counter_value("serve.cache.miss"),
    );
    out.check(reloads_ok && reloads == rewrites && reload_errors == 0, || {
        format!("{rewrites} artifact rewrites but {reloads} reloads and {reload_errors} reload errors")
    });
    let late: u64 = runs.iter().map(|r| r.rewrites_late).sum();
    out.check(late == 0, || {
        format!("{late} rewrites found the previous reload still pending")
    });

    let mut samples: Vec<(f64, f64)> = runs
        .iter()
        .flat_map(|r| r.samples.iter().copied())
        .collect();
    let bad: u64 = runs.iter().map(|r| r.bad).sum();
    out.ops(samples.len() as u64, bad);
    let tcp_s = stats::mean(&samples.iter().map(|s| s.1).collect::<Vec<_>>());
    out.timings("serve frames", &stats::Windowed::of(&mut samples));
    out.note(format!(
        "serve: {} connections, {rewrites} rewrites, {reloads} reloads, plan cache {hits} hits / {misses} misses",
        runs.len()
    ));

    let trained: Vec<(&dyn ApproxApp, &TrainedOpprox)> = setup
        .apps
        .iter()
        .map(|a| a.as_ref())
        .zip(setup.models.iter())
        .collect();
    let mut plan_layers = traced.then(PlanLayers::default);
    let mut gen = RequestGen::new(ctx.seed, setup.apps.iter().map(|a| a.as_ref()));
    let plan_digest = plan::quality(
        ctx,
        &mut out,
        &trained,
        &mut gen,
        plan::QUALITY_PLANS,
        plan_layers.as_mut(),
    );
    out.note(format!(
        "digest models={model_digest:#018x} plans={plan_digest:#018x}"
    ));

    if let Some(plan_layers) = plan_layers {
        out.set(
            "serve.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        out.set("serve.reloads", reloads as f64);
        out.set("serve.shed", shed as f64);
        replay(ctx, &mut out, &live.state, &mut gens, &pools, tcp_s);
        let spans = ctx.spans.as_ref().expect("a traced run");
        train_layers.report(spans, &mut out, false);
        plan_layers.report(ctx, &mut out, false);
        plan::report_load(ctx, &mut out, &setup.models);
        return out;
    }

    // Set up again only once the memory peak is read: every repeat
    // leaves the allocator holding a different amount of freed memory.
    out.record_peak_rss();
    drop(live);
    for _ in 1..ctx.reps(SETUP_REPS) {
        let t = Instant::now();
        match set_up(ctx, &mut out, None) {
            Ok(again) => {
                setup_s.push(t.elapsed().as_secs_f64());
                let digest = train::check_models(&mut out, &again.setup.models);
                out.check(digest == model_digest, || {
                    "set-up trained different models".into()
                });
            }
            Err(e) => out.check(false, || format!("server set-up failed: {e}")),
        }
    }
    out.set("setup_s", stats::median(&setup_s));
    out
}

/// The in-process replay behind the serve per-layer metrics. Each frame
/// goes through `serve_line` (parse, admission, queue, dispatch, handle,
/// encode), then through parse, handle and encode called directly, once
/// bare and once inside spans, in alternating order.
fn replay(
    ctx: &mut Ctx,
    out: &mut Outcome,
    state: &ServeState,
    gens: &mut [FrameGen],
    pools: &[Vec<Frame>],
    tcp_s: f64,
) {
    let spans = ctx.spans.as_mut().expect("a traced run");
    let mut serve_line_s = Vec::new();
    let (mut bare_s, mut traced_s) = (0.0, 0.0);
    let mut bad = 0u64;
    let start = Instant::now();
    let mut i = 0usize;
    while i < MAX_REPLAY_FRAMES && start.elapsed().as_secs_f64() < ctx.seconds / 2.0 {
        let c = i % pools.len();
        let frame = &pools[c][(i / pools.len()) % pools[c].len()];
        let (line, kind) = gens[c].line(frame);
        let t = Instant::now();
        let reply = state.serve_line(line.trim_end());
        serve_line_s.push(t.elapsed().as_secs_f64());
        bad += u64::from(!reply.starts_with(kind.ok_prefix()));

        let order = if i.is_multiple_of(2) {
            [false, true]
        } else {
            [true, false]
        };
        for traced in order {
            let (line, _) = gens[c].line(frame);
            let t = Instant::now();
            let reply = if traced {
                spans.next_op();
                spans.span("frame", |spans| {
                    let req = spans.span("api.parse", |_| ApiRequest::parse(line.trim_end()))?;
                    let resp = spans.span_named_by(handle_span, || state.handle(&req));
                    Ok(spans.span("api.encode", |_| resp.to_wire()))
                })
            } else {
                ApiRequest::parse(line.trim_end()).map(|req| state.handle(&req).to_wire())
            };
            *(if traced { &mut traced_s } else { &mut bare_s }) += t.elapsed().as_secs_f64();
            bad += u64::from(!reply.is_ok_and(|r| r.starts_with(kind.ok_prefix())));
        }
        i += 1;
    }
    out.ops(3 * i as u64, bad);

    let n = i.max(1) as f64;
    let per_frame = |name: &str| spans.total(name) / n;
    let handle_by_op = [
        "serve.handle.predict",
        "serve.handle.optimize_hit",
        "serve.handle.optimize_miss",
        "serve.handle.health",
    ]
    .map(|name| spans.total(name));
    let handle_total: f64 = handle_by_op.iter().sum();
    let (parse, handle, encode) = (
        per_frame("api.parse"),
        handle_total / n,
        per_frame("api.encode"),
    );
    let serve_line = stats::mean(&serve_line_s);
    out.set("serve.parse_share", parse / tcp_s);
    out.set("serve.handle_share", handle / tcp_s);
    out.set("serve.encode_share", encode / tcp_s);
    out.set(
        "serve.dispatch_share",
        (serve_line - parse - handle - encode) / tcp_s,
    );
    out.set("serve.socket_share", (tcp_s - serve_line) / tcp_s);
    let share = |x: f64| x / handle_total.max(f64::MIN_POSITIVE);
    out.set("serve.handle_share.predict", share(handle_by_op[0]));
    out.set("serve.handle_share.optimize_hit", share(handle_by_op[1]));
    out.set("serve.handle_share.optimize_miss", share(handle_by_op[2]));
    out.set("trace.overhead_ratio", traced_s / bare_s - 1.0);
    out.note(format!(
        "serve frame: tcp {:.1}us = serve_line {:.1}us + socket; parse {:.1}us, handle {:.1}us, encode {:.1}us over n={i}",
        tcp_s * 1e6,
        serve_line * 1e6,
        parse * 1e6,
        handle * 1e6,
        encode * 1e6
    ));
}

/// The span name of a handled request, by operation and cache outcome.
fn handle_span(resp: &ApiResponse) -> &'static str {
    match resp {
        ApiResponse::Predict(_) => "serve.handle.predict",
        ApiResponse::Optimize(r) if r.cached => "serve.handle.optimize_hit",
        ApiResponse::Optimize(_) => "serve.handle.optimize_miss",
        _ => "serve.handle.health",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(seed: u64, client: u64) -> Vec<Frame> {
        let apps = train::build_apps(&SERVE_APPS);
        let hot: Vec<Request> = {
            let mut gen = RequestGen::new(seed, apps.iter().map(|a| a.as_ref()));
            (0..HOT_KEYS)
                .map(|k| gen.next_request_for(k % SERVE_APPS.len()))
                .collect()
        };
        FrameGen::new(seed, client, &apps, 4, &hot).pool(512)
    }

    /// The same seed renders the same frames and hot set; another seed,
    /// or another client, renders different ones.
    #[test]
    fn frame_sequences_follow_the_seed() {
        assert_eq!(frames(7, 0), frames(7, 0));
        assert_ne!(frames(7, 0), frames(8, 0));
        assert_ne!(frames(7, 0), frames(7, 1));
        let apps = train::build_apps(&SERVE_APPS);
        let requests = |seed| {
            let mut gen = RequestGen::new(seed, apps.iter().map(|a| a.as_ref()));
            (0..64).map(|_| gen.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(requests(3), requests(3));
        assert_ne!(requests(3), requests(4));
        for req in requests(3) {
            let (lo, hi) = plan::BUDGET_RANGE;
            assert!((lo..=hi).contains(&req.budget));
        }
    }

    /// The mix is roughly 64/32/4 and every frame parses as a request.
    #[test]
    fn frame_mix_parses_and_matches_the_declared_shares() {
        let pool = frames(11, 0);
        let (mut predict, mut optimize, mut health) = (0, 0, 0);
        for frame in &pool {
            match frame {
                Frame::Line(line, kind) => {
                    assert!(ApiRequest::parse(line.trim_end()).is_ok(), "{line}");
                    match kind {
                        Kind::Predict => predict += 1,
                        Kind::Optimize => optimize += 1,
                        Kind::Health => health += 1,
                    }
                }
                Frame::Fresh(_) => optimize += 1,
            }
        }
        assert!((280..380).contains(&predict), "{predict} predict frames");
        assert!((120..210).contains(&optimize), "{optimize} optimize frames");
        assert!((5..45).contains(&health), "{health} health frames");
    }
}
