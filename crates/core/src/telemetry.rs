//! Deterministic observability: hierarchical spans, a typed metrics
//! registry, and exporters.
//!
//! OPPROX's value claim is quantitative, so the pipeline itself must be
//! measurable: where do wall time and real executions go, how often does
//! the execution cache hit, in what order does the optimizer visit phases
//! when it redistributes leftover budget? This module turns those
//! questions into assertable facts:
//!
//! * **Spans** — named start/stop intervals (`"granularity/n[4]"`,
//!   `"stage/profiling"`). Hierarchy is carried in the path; timing comes
//!   from an injectable [`Clock`], so tests swap in a [`ManualClock`] and
//!   get byte-identical reports across runs and thread counts.
//! * **Counters / gauges / histograms** — the registry follows the same
//!   order-independent ledger discipline as
//!   [`crate::fault::RobustnessReport`]: counters are commutative sums,
//!   gauges track a commutative maximum alongside the last main-thread
//!   write, and histograms use fixed bucket boundaries so their counts
//!   are invariant under execution-order shuffling.
//! * **Events** — ordered structured records (e.g. one per optimizer
//!   phase visit) emitted only from deterministic single-threaded call
//!   sites, so their sequence is reproducible.
//! * **Exporters** — [`TelemetryReport`] serializes to JSON (canonically
//!   sorted, byte-stable), renders as human text (the
//!   `opprox trace summarize` output), and exports Chrome
//!   `chrome://tracing` trace-event JSON for eyeballing phase boundaries.
//!
//! Worker threads may only bump counters, gauges maxima, and histogram
//! buckets — never spans or events. That single rule is what makes the
//! exported report deterministic for a fixed seed regardless of `--threads`.

use crate::sync::Mutex;
use serde::value::{Number, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Bound;
use std::sync::atomic::AtomicU64 as StdAtomicU64;
use std::sync::Arc;
use std::time::Instant;

/// A monotonic microsecond time source for span accounting.
///
/// Production uses a monotonic wall clock; tests inject a [`ManualClock`] so
/// span durations (and therefore exported reports) are deterministic.
pub trait Clock: Send + Sync {
    /// Microseconds elapsed since the clock's origin.
    fn now_micros(&self) -> u64;
}

/// The default wall clock: microseconds since construction.
#[derive(Debug)]
pub(crate) struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub(crate) fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_micros(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// A test clock that only moves when told to.
///
/// Uses a plain `std` atomic (not the loom stand-in) because loom suites
/// never construct one, while ordinary `#[test]`s need it outside any
/// loom model.
#[derive(Debug, Default)]
pub struct ManualClock {
    micros: StdAtomicU64,
}

impl ManualClock {
    /// A clock frozen at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `delta` microseconds.
    pub fn advance_micros(&self, delta: u64) {
        self.micros
            .fetch_add(delta, std::sync::atomic::Ordering::Relaxed);
    }

    /// Moves the clock to an absolute microsecond timestamp.
    pub fn set_micros(&self, micros: u64) {
        self.micros
            .store(micros, std::sync::atomic::Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_micros(&self) -> u64 {
        self.micros.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanStat {
    /// Hierarchical span path, e.g. `granularity/n[4]`.
    pub path: String,
    /// How many times the span ran.
    pub count: u64,
    /// Total microseconds across all runs, per the injected [`Clock`].
    pub total_micros: u64,
}

/// One concrete span occurrence on the timeline (Chrome trace source).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Hierarchical span path.
    pub path: String,
    /// Start timestamp in clock microseconds.
    pub start_micros: u64,
    /// Duration in clock microseconds.
    pub duration_micros: u64,
}

/// A named monotone counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterStat {
    /// Counter name, e.g. `eval.cache.hit`.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// A named gauge: last main-thread write plus the running maximum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeStat {
    /// Gauge name, e.g. `eval.queue_depth`.
    pub name: String,
    /// The most recent value written.
    pub last: f64,
    /// The maximum value ever written (commutative, thread-safe fact).
    pub max: f64,
}

/// A fixed-boundary histogram: `counts.len() == bounds.len() + 1`, where
/// bucket `i` counts observations in `[bounds[i-1], bounds[i])` (open
/// ended at both extremes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramStat {
    /// Histogram name, e.g. `ml.cv_solves_per_degree`.
    pub name: String,
    /// Fixed, ascending bucket boundaries.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (one more entry than `bounds`).
    pub counts: Vec<u64>,
}

/// One key/value pair attached to a [`TelemetryEvent`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventField {
    /// Field name, e.g. `roi`.
    pub key: String,
    /// Field value; all event payloads are numeric.
    pub value: f64,
}

/// An ordered structured record emitted from a deterministic call site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryEvent {
    /// Zero-based emission order.
    pub seq: u64,
    /// Event name, e.g. `optimize.phase`.
    pub name: String,
    /// Numeric payload fields, in emission order.
    pub fields: Vec<EventField>,
}

impl TelemetryEvent {
    /// Looks up a payload field by key.
    pub fn field(&self, key: &str) -> Option<f64> {
        self.fields.iter().find(|f| f.key == key).map(|f| f.value)
    }
}

#[derive(Debug, Default, Clone)]
struct SpanAgg {
    count: u64,
    total_micros: u64,
}

#[derive(Debug, Default, Clone)]
struct GaugeAgg {
    last: f64,
    max: f64,
}

#[derive(Debug, Clone)]
struct HistAgg {
    bounds: Vec<f64>,
    counts: Vec<u64>,
}

/// The entry for `key`, inserted with `init` on first use. The key is
/// allocated only on that first insert, so repeated writes to an existing
/// counter, gauge, histogram, or span aggregate never allocate.
fn slot<'m, V>(map: &'m mut BTreeMap<String, V>, key: &str, init: impl FnOnce() -> V) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), init());
    }
    map.get_mut(key).expect("slot inserted above")
}

/// The live telemetry registry threaded through the pipeline.
///
/// Cheap to write from any thread (counters, gauges, histograms) and from
/// the orchestrating thread (spans, events); snapshot with
/// [`Telemetry::report`].
pub struct Telemetry {
    clock: Arc<dyn Clock>,
    spans: Mutex<BTreeMap<String, SpanAgg>>,
    timeline: Mutex<Vec<SpanRecord>>,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, GaugeAgg>>,
    histograms: Mutex<BTreeMap<String, HistAgg>>,
    events: Mutex<Vec<TelemetryEvent>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A registry timed by a fresh monotonic wall clock.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A registry timed by the given clock (tests pass a [`ManualClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self {
            clock,
            spans: Mutex::new(BTreeMap::new()),
            timeline: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            events: Mutex::new(Vec::new()),
        }
    }

    /// The clock this registry stamps spans with.
    pub(crate) fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Runs `f` inside a span named `path`, accounting its wall time
    /// against the injected clock. Call only from the orchestrating
    /// thread — span order is part of the determinism contract.
    pub fn span<T>(&self, path: &str, f: impl FnOnce() -> T) -> T {
        let start = self.clock.now_micros();
        let out = f();
        let end = self.clock.now_micros();
        let duration = end.saturating_sub(start);
        {
            let mut spans = self.spans.lock().expect("telemetry spans lock");
            let agg = slot(&mut spans, path, SpanAgg::default);
            agg.count += 1;
            agg.total_micros += duration;
        }
        self.timeline
            .lock()
            .expect("telemetry timeline lock")
            .push(SpanRecord {
                path: path.to_string(),
                start_micros: start,
                duration_micros: duration,
            });
        out
    }

    /// Increments the counter `name` by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to the counter `name`, saturating at `u64::MAX`.
    pub fn add(&self, name: &str, n: u64) {
        let mut counters = self.counters.lock().expect("telemetry counters lock");
        let value = slot(&mut counters, name, || 0);
        *value = value.saturating_add(n);
    }

    /// The current value of counter `name` (0 when never written).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("telemetry counters lock")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Total microseconds recorded under span `path` (0 when it never ran).
    pub(crate) fn span_micros(&self, path: &str) -> u64 {
        self.spans
            .lock()
            .expect("telemetry spans lock")
            .get(path)
            .map_or(0, |agg| agg.total_micros)
    }

    /// Aggregates of every span whose path starts with `prefix`, in path
    /// order. Reads the aggregates only, never the timeline.
    pub(crate) fn spans_with_prefix(&self, prefix: &str) -> Vec<SpanStat> {
        self.spans
            .lock()
            .expect("telemetry spans lock")
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(path, _)| path.starts_with(prefix))
            .map(|(path, agg)| SpanStat {
                path: path.clone(),
                count: agg.count,
                total_micros: agg.total_micros,
            })
            .collect()
    }

    /// The last value written to gauge `name`, when it was ever written.
    pub(crate) fn gauge_last(&self, name: &str) -> Option<f64> {
        self.gauges
            .lock()
            .expect("telemetry gauges lock")
            .get(name)
            .map(|agg| agg.last)
    }

    /// Writes gauge `name`: updates `last` and folds into `max`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut gauges = self.gauges.lock().expect("telemetry gauges lock");
        let agg = slot(&mut gauges, name, GaugeAgg::default);
        agg.last = value;
        if value > agg.max {
            agg.max = value;
        }
    }

    /// Records one observation of `value` into histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` was previously registered with different
    /// `bounds` — mixed boundaries are a programming error.
    pub fn observe(&self, name: &str, bounds: &[f64], value: f64) {
        self.observe_n(name, bounds, value, 1);
    }

    /// Records `n` observations of `value` into histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` was previously registered with different
    /// `bounds`.
    pub(crate) fn observe_n(&self, name: &str, bounds: &[f64], value: f64, n: u64) {
        let mut hists = self.histograms.lock().expect("telemetry histograms lock");
        let agg = slot(&mut hists, name, || HistAgg {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
        });
        assert_eq!(
            agg.bounds, bounds,
            "histogram {name} re-registered with different bounds"
        );
        let idx = bounds.iter().filter(|b| value >= **b).count();
        agg.counts[idx] += n;
    }

    /// Emits a structured event. Call only from the orchestrating thread.
    pub fn event(&self, name: &str, fields: &[(&str, f64)]) {
        let mut events = self.events.lock().expect("telemetry events lock");
        let seq = events.len() as u64;
        events.push(TelemetryEvent {
            seq,
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| EventField {
                    key: (*k).to_string(),
                    value: *v,
                })
                .collect(),
        });
    }

    /// Snapshots the registry into a canonical, serializable report.
    pub fn report(&self) -> TelemetryReport {
        let spans = self
            .spans
            .lock()
            .expect("telemetry spans lock")
            .iter()
            .map(|(path, agg)| SpanStat {
                path: path.clone(),
                count: agg.count,
                total_micros: agg.total_micros,
            })
            .collect();
        let timeline = self
            .timeline
            .lock()
            .expect("telemetry timeline lock")
            .clone();
        let counters = self
            .counters
            .lock()
            .expect("telemetry counters lock")
            .iter()
            .map(|(name, value)| CounterStat {
                name: name.clone(),
                value: *value,
            })
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("telemetry gauges lock")
            .iter()
            .map(|(name, agg)| GaugeStat {
                name: name.clone(),
                last: agg.last,
                max: agg.max,
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("telemetry histograms lock")
            .iter()
            .map(|(name, agg)| HistogramStat {
                name: name.clone(),
                bounds: agg.bounds.clone(),
                counts: agg.counts.clone(),
            })
            .collect();
        let events = self.events.lock().expect("telemetry events lock").clone();
        TelemetryReport {
            spans,
            timeline,
            counters,
            gauges,
            histograms,
            events,
        }
    }
}

/// An immutable, canonically ordered snapshot of a [`Telemetry`] registry.
///
/// Every collection is sorted (spans/counters/gauges/histograms by name)
/// or sequence-ordered (timeline, events), so for a fixed seed and an
/// injected [`ManualClock`] the JSON export is byte-identical across
/// reruns and worker-thread counts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Per-path span aggregates, sorted by path.
    pub spans: Vec<SpanStat>,
    /// Concrete span occurrences in emission order.
    pub timeline: Vec<SpanRecord>,
    /// Counters, sorted by name.
    pub counters: Vec<CounterStat>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeStat>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramStat>,
    /// Structured events in emission order.
    pub events: Vec<TelemetryEvent>,
}

impl TelemetryReport {
    /// True when nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.timeline.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.events.is_empty()
    }

    /// The value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    }

    /// All counters whose name starts with `prefix`, in name order.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<&CounterStat> {
        self.counters
            .iter()
            .filter(|c| c.name.starts_with(prefix))
            .collect()
    }

    /// The span aggregate for `path`, when present.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// The histogram named `name`, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramStat> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// All events named `name`, in emission order.
    pub fn events_named(&self, name: &str) -> Vec<&TelemetryEvent> {
        self.events.iter().filter(|e| e.name == name).collect()
    }

    /// Canonical JSON export (the `--trace-format json` artifact).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("telemetry report serializes")
    }

    /// Parses a JSON export back into a report.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid telemetry artifact: {e}"))
    }

    /// Human-readable summary (the `opprox trace summarize` output).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("telemetry summary\n");
        out.push_str("=================\n");
        out.push_str("spans (count / total micros):\n");
        if self.spans.is_empty() {
            out.push_str("  (none)\n");
        }
        for s in &self.spans {
            let _ = writeln!(out, "  {}: {} / {}", s.path, s.count, s.total_micros);
        }
        out.push_str("counters:\n");
        if self.counters.is_empty() {
            out.push_str("  (none)\n");
        }
        for c in &self.counters {
            let _ = writeln!(out, "  {}: {}", c.name, c.value);
        }
        out.push_str("gauges (last / max):\n");
        if self.gauges.is_empty() {
            out.push_str("  (none)\n");
        }
        for g in &self.gauges {
            let _ = writeln!(out, "  {}: {} / {}", g.name, g.last, g.max);
        }
        out.push_str("histograms:\n");
        if self.histograms.is_empty() {
            out.push_str("  (none)\n");
        }
        for h in &self.histograms {
            let counts = h
                .counts
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "  {}: [{}]", h.name, counts);
        }
        out.push_str("adaptive control:\n");
        let starts = self.events_named("control.start");
        if starts.is_empty() {
            out.push_str("  (none)\n");
        }
        for start in &starts {
            let session = start.field("session").unwrap_or(f64::NAN);
            let _ = writeln!(
                out,
                "  session {}: budget {} over {} phases (tolerance {})",
                session,
                start.field("budget").unwrap_or(f64::NAN),
                start.field("phases").unwrap_or(f64::NAN),
                start.field("tolerance").unwrap_or(f64::NAN),
            );
            for step in self
                .events_named("control.step")
                .iter()
                .filter(|e| e.field("session") == Some(session))
            {
                let mut line = format!(
                    "    step {}: phase {} observed {}x in [{}, {}], drift {}",
                    step.field("step").unwrap_or(f64::NAN),
                    step.field("phase").unwrap_or(f64::NAN),
                    step.field("observed_speedup").unwrap_or(f64::NAN),
                    step.field("band_lo").unwrap_or(f64::NAN),
                    step.field("band_hi").unwrap_or(f64::NAN),
                    step.field("drift").unwrap_or(f64::NAN),
                );
                if step.field("resegmented").unwrap_or(0.0) != 0.0 {
                    line.push_str(" [re-segmented]");
                }
                if step.field("replanned").unwrap_or(0.0) != 0.0 {
                    let _ = write!(
                        line,
                        " [re-planned: reclaimed {}, redistributed {}]",
                        step.field("reclaimed").unwrap_or(f64::NAN),
                        step.field("redistributed").unwrap_or(f64::NAN),
                    );
                }
                let _ = writeln!(out, "{line}");
            }
            for plan in self
                .events_named("control.plan")
                .iter()
                .filter(|e| e.field("session") == Some(session))
            {
                let _ = writeln!(
                    out,
                    "    plan: {} re-plans, reclaimed {}, redistributed {}, predicted {}x @ qos {}{}",
                    plan.field("replans").unwrap_or(f64::NAN),
                    plan.field("reclaimed").unwrap_or(f64::NAN),
                    plan.field("redistributed").unwrap_or(f64::NAN),
                    plan.field("predicted_speedup").unwrap_or(f64::NAN),
                    plan.field("predicted_qos").unwrap_or(f64::NAN),
                    if plan.field("degraded").unwrap_or(0.0) != 0.0 {
                        " (degraded)"
                    } else {
                        ""
                    },
                );
            }
        }
        let _ = writeln!(out, "events: {} recorded", self.events.len());
        for e in &self.events {
            let fields = e
                .fields
                .iter()
                .map(|f| format!("{}={}", f.key, f.value))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(out, "  [{}] {}: {}", e.seq, e.name, fields);
        }
        out
    }

    /// Chrome `chrome://tracing` trace-event export: one complete (`X`)
    /// event per timeline span plus one counter (`C`) sample per counter.
    pub fn to_chrome_trace(&self) -> String {
        let mut events = Vec::new();
        for rec in &self.timeline {
            events.push(Value::Object(vec![
                ("name".to_string(), Value::String(rec.path.clone())),
                ("cat".to_string(), Value::String("opprox".to_string())),
                ("ph".to_string(), Value::String("X".to_string())),
                (
                    "ts".to_string(),
                    Value::Number(Number::U64(rec.start_micros)),
                ),
                (
                    "dur".to_string(),
                    Value::Number(Number::U64(rec.duration_micros)),
                ),
                ("pid".to_string(), Value::Number(Number::U64(1))),
                ("tid".to_string(), Value::Number(Number::U64(1))),
            ]));
        }
        let counter_ts = self
            .timeline
            .iter()
            .map(|r| r.start_micros + r.duration_micros)
            .max()
            .unwrap_or(0);
        for c in &self.counters {
            events.push(Value::Object(vec![
                ("name".to_string(), Value::String(c.name.clone())),
                ("cat".to_string(), Value::String("opprox".to_string())),
                ("ph".to_string(), Value::String("C".to_string())),
                ("ts".to_string(), Value::Number(Number::U64(counter_ts))),
                ("pid".to_string(), Value::Number(Number::U64(1))),
                ("tid".to_string(), Value::Number(Number::U64(1))),
                (
                    "args".to_string(),
                    Value::Object(vec![(
                        "value".to_string(),
                        Value::Number(Number::U64(c.value)),
                    )]),
                ),
            ]));
        }
        Value::Array(events).render_compact()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_against_the_injected_clock() {
        let clock = Arc::new(ManualClock::new());
        let tele = Telemetry::with_clock(clock.clone());
        tele.span("a/b", || clock.advance_micros(5));
        tele.span("a/b", || clock.advance_micros(7));
        let report = tele.report();
        let stat = report.span("a/b").expect("span recorded");
        assert_eq!(stat.count, 2);
        assert_eq!(stat.total_micros, 12);
        assert_eq!(report.timeline.len(), 2);
        assert_eq!(report.timeline[1].start_micros, 5);
        assert_eq!(report.timeline[1].duration_micros, 7);
    }

    #[test]
    fn counters_gauges_and_events_round_trip_through_json() {
        let tele = Telemetry::with_clock(Arc::new(ManualClock::new()));
        tele.incr("hits");
        tele.add("hits", 2);
        tele.set_gauge("depth", 4.0);
        tele.set_gauge("depth", 2.0);
        tele.event("visit", &[("phase", 1.0), ("roi", 2.5)]);
        let report = tele.report();
        assert_eq!(report.counter("hits"), 3);
        let g = report
            .gauges
            .iter()
            .find(|g| g.name == "depth")
            .expect("gauge recorded");
        assert_eq!((g.last, g.max), (2.0, 4.0));
        assert_eq!(report.events_named("visit")[0].field("roi"), Some(2.5));
        let back = TelemetryReport::from_json(&report.to_json()).expect("round trips");
        assert_eq!(back, report);
    }

    #[test]
    fn histogram_buckets_are_order_independent() {
        let bounds = [1.0, 2.0, 3.0];
        let a = Telemetry::new();
        let b = Telemetry::new();
        for v in [0.5, 1.5, 1.5, 2.5, 9.0] {
            a.observe("h", &bounds, v);
        }
        for v in [9.0, 2.5, 1.5, 0.5, 1.5] {
            b.observe("h", &bounds, v);
        }
        let (ra, rb) = (a.report(), b.report());
        assert_eq!(ra.histogram("h"), rb.histogram("h"));
        assert_eq!(ra.histogram("h").expect("present").counts, vec![1, 2, 1, 1]);
    }

    #[test]
    fn chrome_trace_is_a_json_array_of_trace_events() {
        let clock = Arc::new(ManualClock::new());
        let tele = Telemetry::with_clock(clock.clone());
        tele.span("root", || clock.advance_micros(10));
        tele.incr("execs");
        let trace = tele.report().to_chrome_trace();
        let value = serde_json::parse_value(&trace).expect("chrome trace parses");
        let events = match value {
            Value::Array(items) => items,
            other => panic!("expected array, got {}", other.kind()),
        };
        assert_eq!(events.len(), 2);
    }
}
