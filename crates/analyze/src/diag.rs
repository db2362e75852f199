//! The diagnostics data model and the text/JSON/SARIF emitters.
//!
//! Diagnostics are compiler-style: a stable rule code (`A0xx` for
//! semantic lints, `C0xx` for concurrency rules, `X0xx` for
//! cross-artifact audit rules), a severity, an
//! artifact *location* (a dotted path such as
//! `schedule.phase[3].block[AB2]`), and a human-readable message. The
//! JSON encoding is a stable schema — exactly the keys `code`,
//! `severity`, `location`, `message`, in that order — guarded by a
//! golden-file test so downstream tooling can parse it.

use serde::value::Value;
use std::fmt;

/// How bad a finding is.
///
/// `Error` findings make the linted artifacts unusable (corrupt models,
/// impossible schedules) and fail `opprox analyze`; `Warn` findings are
/// suspicious but survivable (and fail under `--deny warnings`); `Info`
/// findings report reduced analysis coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The artifact is unusable; `opprox analyze` exits nonzero.
    Error,
    /// Suspicious but survivable; fails only under `--deny warnings`.
    Warn,
    /// Coverage note (e.g. a lint was skipped for lack of inputs).
    Info,
}

impl Severity {
    /// The lowercase token used in both emitters (`error`, `warning`,
    /// `info`).
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warning",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a rule code, a severity, where, and what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule code, e.g. `A001`.
    pub code: &'static str,
    /// How bad the finding is.
    pub severity: Severity,
    /// Dotted path into the artifact, e.g. `schedule.phase[3].block[AB2]`.
    pub location: String,
    /// Human-readable description of the defect.
    pub message: String,
}

/// The outcome of one `analyze` run: every diagnostic, sorted by
/// severity, then code, then location.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Adds a finding.
    pub fn push(&mut self, diag: Diagnostic) {
        self.diagnostics.push(diag);
    }

    /// The findings, sorted (errors first, then by code and location).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Sorts the findings into the canonical emission order.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (a.severity, a.code, &a.location).cmp(&(b.severity, b.code, &b.location))
        });
    }

    /// Number of `Error`-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of `Warn`-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warn)
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Renders the human-readable text form:
    ///
    /// ```text
    /// error[A001] schedule.phase[1].block[AB2]: level 9 exceeds ...
    /// ...
    /// 2 errors, 1 warning
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}[{}] {}: {}\n",
                d.severity, d.code, d.location, d.message
            ));
        }
        let (e, w) = (self.errors(), self.warnings());
        out.push_str(&format!(
            "{} {}, {} {}\n",
            e,
            if e == 1 { "error" } else { "errors" },
            w,
            if w == 1 { "warning" } else { "warnings" },
        ));
        out
    }

    /// Renders the machine-readable JSON form. The schema is stable
    /// (golden-file tested): a top-level object with `diagnostics` (an
    /// array of `{code, severity, location, message}` objects in
    /// emission order), `errors`, and `warnings`.
    pub fn render_json(&self) -> String {
        let diags: Vec<Value> = self
            .diagnostics
            .iter()
            .map(|d| {
                Value::Object(vec![
                    ("code".into(), Value::String(d.code.into())),
                    ("severity".into(), Value::String(d.severity.as_str().into())),
                    ("location".into(), Value::String(d.location.clone())),
                    ("message".into(), Value::String(d.message.clone())),
                ])
            })
            .collect();
        Value::Object(vec![
            ("diagnostics".into(), Value::Array(diags)),
            (
                "errors".into(),
                Value::Number(serde::value::Number::U64(self.errors() as u64)),
            ),
            (
                "warnings".into(),
                Value::Number(serde::value::Number::U64(self.warnings() as u64)),
            ),
        ])
        .render_compact()
    }

    /// Renders the findings as a minimal SARIF 2.1.0 log, the
    /// interchange format CI code-scanning UIs ingest. One run, driver
    /// `opprox`; the driver's rule table lists each distinct fired code
    /// (in code order, with its registry summary), and every finding
    /// becomes a `result` whose logical location carries the artifact
    /// path. Severities map `error`→`error`, `warning`→`warning`,
    /// `info`→`note`. Built with the same deterministic value printer
    /// as [`Report::render_json`], so output is byte-stable.
    pub fn render_sarif(&self) -> String {
        let mut fired: Vec<&'static str> = self.diagnostics.iter().map(|d| d.code).collect();
        fired.sort_unstable();
        fired.dedup();
        let rules: Vec<Value> = fired
            .iter()
            .map(|code| {
                let summary = crate::rules::rule(code).map_or("", |r| r.summary);
                Value::Object(vec![
                    ("id".into(), Value::String((*code).into())),
                    (
                        "shortDescription".into(),
                        Value::Object(vec![("text".into(), Value::String(summary.into()))]),
                    ),
                ])
            })
            .collect();
        let results: Vec<Value> = self
            .diagnostics
            .iter()
            .map(|d| {
                let level = match d.severity {
                    Severity::Error => "error",
                    Severity::Warn => "warning",
                    Severity::Info => "note",
                };
                Value::Object(vec![
                    ("ruleId".into(), Value::String(d.code.into())),
                    ("level".into(), Value::String(level.into())),
                    (
                        "message".into(),
                        Value::Object(vec![("text".into(), Value::String(d.message.clone()))]),
                    ),
                    (
                        "locations".into(),
                        Value::Array(vec![Value::Object(vec![(
                            "logicalLocations".into(),
                            Value::Array(vec![Value::Object(vec![(
                                "fullyQualifiedName".into(),
                                Value::String(d.location.clone()),
                            )])]),
                        )])]),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            (
                "$schema".into(),
                Value::String("https://json.schemastore.org/sarif-2.1.0.json".into()),
            ),
            ("version".into(), Value::String("2.1.0".into())),
            (
                "runs".into(),
                Value::Array(vec![Value::Object(vec![
                    (
                        "tool".into(),
                        Value::Object(vec![(
                            "driver".into(),
                            Value::Object(vec![
                                ("name".into(), Value::String("opprox".into())),
                                ("rules".into(), Value::Array(rules)),
                            ]),
                        )]),
                    ),
                    ("results".into(), Value::Array(results)),
                ])]),
            ),
        ])
        .render_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new();
        r.push(Diagnostic {
            code: "A003",
            severity: Severity::Warn,
            location: "schedule.expected_iters".into(),
            message: "absurd".into(),
        });
        r.push(Diagnostic {
            code: "A001",
            severity: Severity::Error,
            location: "schedule.phase[1].block[AB2]".into(),
            message: "level 9 exceeds max 5".into(),
        });
        r.sort();
        r
    }

    #[test]
    fn sorts_errors_before_warnings() {
        let r = sample();
        assert_eq!(r.diagnostics()[0].code, "A001");
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
    }

    #[test]
    fn text_emitter_formats_compiler_style() {
        let text = sample().render_text();
        assert!(text.contains("error[A001] schedule.phase[1].block[AB2]: level 9 exceeds max 5"));
        assert!(text.contains("warning[A003]"));
        assert!(text.ends_with("1 error, 1 warning\n"));
    }

    #[test]
    fn json_emitter_is_parseable_and_schema_shaped() {
        let json = sample().render_json();
        let v = serde_json::parse_value(&json).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj[0].0, "diagnostics");
        assert_eq!(obj[1].0, "errors");
        assert_eq!(obj[1].1.as_u64(), Some(1));
        assert_eq!(obj[2].1.as_u64(), Some(1));
        let Value::Array(diags) = &obj[0].1 else {
            panic!("diagnostics is an array");
        };
        let first = diags[0].as_object().unwrap();
        let keys: Vec<&str> = first.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["code", "severity", "location", "message"]);
    }

    #[test]
    fn sarif_emitter_is_parseable_and_carries_rules_and_results() {
        let sarif = sample().render_sarif();
        let v = serde_json::parse_value(&sarif).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj[0].0, "$schema");
        assert_eq!(obj[1].1, Value::String("2.1.0".into()));
        let Value::Array(runs) = &obj[2].1 else {
            panic!("runs is an array");
        };
        let run = runs[0].as_object().unwrap();
        let driver = run[0].1.as_object().unwrap()[0].1.as_object().unwrap();
        assert_eq!(driver[0].1, Value::String("opprox".into()));
        let Value::Array(rules) = &driver[1].1 else {
            panic!("rules is an array");
        };
        // Distinct fired codes, in code order.
        assert_eq!(
            rules[0].as_object().unwrap()[0].1,
            Value::String("A001".into())
        );
        assert_eq!(rules.len(), 2);
        let Value::Array(results) = &run[1].1 else {
            panic!("results is an array");
        };
        assert_eq!(results.len(), 2);
        let first = results[0].as_object().unwrap();
        assert_eq!(first[0].1, Value::String("A001".into()));
        assert_eq!(first[1].1, Value::String("error".into()));
        // Same input twice → identical bytes (the emitter is pure).
        assert_eq!(sarif, sample().render_sarif());
    }
}
