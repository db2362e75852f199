//! The metric catalog and the result line.
//!
//! Every workload reports every metric of the catalog it runs under: the
//! end-to-end set without `--trace`, the per-layer set with it. The
//! `serve.*` layer metrics are shares and counts, and read 0 on the
//! workloads that never touch the wire.

use crate::stats::Windowed;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. See README.md for direction and
/// bound, which BENCHMARK.json fixes.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("model_r2", "ratio"),
    ("plan_speedup", "x"),
    ("plan_qos_met", "ratio"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sampling.wall_s", "s"),
    ("sampling.us_per_exec", "us"),
    ("evaluator.executions", "count"),
    ("evaluator.cache_hit_ratio", "ratio"),
    ("evaluator.work_units", "count"),
    ("modeling.wall_s", "s"),
    ("modeling.base_fit_s", "s"),
    ("modeling.combined_fit_s", "s"),
    ("modeling.cv_solves", "count"),
    ("modeling.us_per_cv_solve", "us"),
    ("selfcheck.wall_s", "s"),
    ("train.unattributed_s", "s"),
    ("pipeline.load_ms", "ms"),
    ("request.integrity_us", "us"),
    ("request.iters_us", "us"),
    ("optimizer.solve_us", "us"),
    ("optimizer.solve_tail_us", "us"),
    ("optimizer.visited", "count"),
    ("optimizer.evaluated", "count"),
    ("optimizer.prune_ratio", "ratio"),
    ("optimizer.eval_ratio", "ratio"),
    ("plan.unattributed_us", "us"),
    ("serve.parse_share", "ratio"),
    ("serve.handle_share", "ratio"),
    ("serve.encode_share", "ratio"),
    ("serve.dispatch_share", "ratio"),
    ("serve.socket_share", "ratio"),
    ("serve.handle_share.predict", "ratio"),
    ("serve.handle_share.optimize_hit", "ratio"),
    ("serve.handle_share.optimize_miss", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.reloads", "count"),
    ("serve.shed", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: BTreeMap<&'static str, f64>,
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Operations that failed and checks that did not hold.
    pub failed: u64,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric of the catalog (a name outside it is a bug here).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric `{name}` is not in the catalog"
        );
        self.metrics.insert(name, value);
    }

    /// Counts one output check, noting the failures.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a timed loop's latency and throughput metrics.
    pub fn timings(&mut self, what: &str, w: &Windowed) {
        self.set("latency_p50_ms", w.p50 * 1e3);
        self.set("latency_tail_ms", w.tail * 1e3);
        self.set("throughput_per_s", w.rate);
        self.note(format!(
            "{what}: n={} in {} windows, median p50={:.1}us p{}={:.1}us {:.2}/s",
            w.n,
            w.windows,
            w.p50 * 1e6,
            w.tail_pct,
            w.tail * 1e6,
            w.rate
        ));
    }

    /// Records the process's peak resident set size so far, from `VmHWM`.
    pub fn record_peak_rss(&mut self) {
        let kb = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|status| {
                let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
                line.split_whitespace().nth(1)?.parse::<f64>().ok()
            });
        match kb {
            Some(kb) => self.set("peak_rss_mb", kb / 1024.0),
            None => self.note("peak RSS unavailable: no VmHWM in /proc/self/status"),
        }
    }

    /// The result line for `catalog`; a missing or non-finite metric
    /// counts as a failed check and reads 0.
    pub fn render(&mut self, catalog: &[(&'static str, &'static str)]) -> String {
        let mut fields = Vec::with_capacity(catalog.len());
        for &(name, unit) in catalog {
            let value = match self.metrics.get(name).copied() {
                Some(v) if v.is_finite() => v,
                other => {
                    self.check(false, || format!("metric {name} is {other:?}"));
                    0.0
                }
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }

    /// Aligned `name value unit` lines for the catalog.
    pub fn table(&self, catalog: &[(&'static str, &'static str)]) -> Vec<String> {
        catalog
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
                format!("{name:<34} {value:>16.6} {unit}")
            })
            .collect()
    }
}

/// The unit of a catalog metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// A finite float as a JSON number with every digit Rust's shortest
/// round-trip formatting gives (`1e-7` and `3.0` are both valid JSON).
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    /// Every name the catalog can emit is well formed, used once, and
    /// declared under the matching section of BENCHMARK.json with the
    /// same unit.
    #[test]
    fn every_metric_is_well_formed_and_declared() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let declared = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let section = |key: &str| -> String {
            let start = declared
                .find(&format!("\"{key}\""))
                .expect("section present");
            let rest = &declared[start..];
            rest[..rest.find(']').expect("section closes")].to_string()
        };
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let text = section(key);
            assert_eq!(
                text.matches("\"name\"").count(),
                catalog.len(),
                "{key} declares a different number of metrics"
            );
            for (name, unit) in catalog {
                assert!(valid_name(name), "bad metric name {name}");
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(
                    text.contains(&entry),
                    "{name} ({unit}) is not declared in {key}"
                );
            }
        }
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
    }

    #[test]
    fn result_line_reports_every_metric_and_counts_missing_ones() {
        let mut out = Outcome::default();
        out.ops(10, 0);
        for (name, _) in END_TO_END.iter().skip(1) {
            out.set(name, 1.25);
        }
        let line = out.render(END_TO_END);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 11, \"failed\": 1,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert!(line.contains("\"plan_qos_met\": {\"value\": 1.25, \"unit\": \"ratio\"}"));
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(1.5e-7), "1.5e-7");
    }
}
