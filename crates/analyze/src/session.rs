//! Session loading: resolving a set of artifacts into a linked model.
//!
//! A *session* is whatever subset of one run's artifacts the user hands
//! to `opprox audit`: a trained model set, one or more phase schedules,
//! a telemetry trace, and a robustness report. `Session::from_artifacts`
//! files classified [`Artifact`]s into their slots (keeping every
//! schedule — a validated run emits many candidate schedules), and
//! `Session::resolve` links the trace's flat ledgers into the typed
//! `SessionModel` the cross-artifact rules (see [`crate::cross`])
//! check: `optimize.start`/`optimize.phase`/`optimize.plan` events
//! grouped into [`Solve`]s, per-phase `optimize/phase[p]` span counts,
//! per-key evaluation counters keyed by digest, and the profiled
//! per-phase speedup ceilings.

use crate::artifact::Artifact;
use opprox_approx_rt::block::BlockDescriptor;
use opprox_approx_rt::PhaseSchedule;
use opprox_core::pipeline::TrainedOpprox;
use opprox_core::{RobustnessReport, TelemetryReport};
use std::collections::BTreeMap;

/// The artifacts of one audit run, by kind. Every slot is optional —
/// rules state their needs and the audit reports reduced coverage
/// (rule `X008`) for pairs the session lacks.
#[derive(Debug, Clone, Default)]
pub struct Session {
    /// The trained model set.
    pub trained: Option<TrainedOpprox>,
    /// Explicit block descriptors (else the trained system's are used).
    pub blocks: Option<Vec<BlockDescriptor>>,
    /// Every schedule handed in, in input order.
    pub schedules: Vec<PhaseSchedule>,
    /// The telemetry trace (`--trace-out`, json format).
    pub telemetry: Option<TelemetryReport>,
    /// The robustness report of a fault-injected or degraded run.
    pub robustness: Option<RobustnessReport>,
}

impl Session {
    /// Files classified artifacts into a session. Unlike
    /// [`crate::ArtifactSet`], *every* schedule is kept; for the other
    /// kinds a later artifact replaces an earlier one. Specs and
    /// training data have no cross-artifact rules yet and are ignored.
    pub(crate) fn from_artifacts(artifacts: impl IntoIterator<Item = Artifact>) -> Session {
        let mut session = Session::default();
        for artifact in artifacts {
            match artifact {
                Artifact::Trained(t) => session.trained = Some(*t),
                Artifact::Blocks(b) => session.blocks = Some(b),
                Artifact::Schedule(s) => session.schedules.push(s),
                Artifact::Telemetry(t) => session.telemetry = Some(*t),
                Artifact::Robustness(r) => session.robustness = Some(*r),
                Artifact::Spec(_) | Artifact::Training(_) => {}
            }
        }
        session
    }

    /// The block descriptors in force: explicit ones win, else the
    /// trained system's.
    pub(crate) fn effective_blocks(&self) -> Option<&[BlockDescriptor]> {
        match (&self.blocks, &self.trained) {
            (Some(b), _) => Some(b),
            (None, Some(t)) => Some(t.blocks()),
            (None, None) => None,
        }
    }

    /// Links the trace's flat ledgers into the typed view the
    /// cross-artifact rules consume. Cheap; an empty model when the
    /// session has no trace.
    pub(crate) fn resolve(&self) -> SessionModel {
        self.telemetry
            .as_ref()
            .map(SessionModel::from_trace)
            .unwrap_or_default()
    }
}

impl SessionModel {
    /// Links one trace's flat ledgers into the typed view: the one place
    /// the `optimize.*` and `control.*` events are decoded. Lint A020
    /// calls it directly on a single trace.
    pub(crate) fn from_trace(tele: &TelemetryReport) -> SessionModel {
        let mut model = SessionModel::default();

        for event in &tele.events {
            match event.name.as_str() {
                "optimize.start" => {
                    let Some(solve) = event.field("solve") else {
                        continue;
                    };
                    let s = model.solve_mut(solve as usize);
                    s.budget = event.field("budget");
                    s.declared_phases = event.field("phases").map(|p| p as usize);
                }
                "optimize.phase" => {
                    let Some(solve) = event.field("solve") else {
                        continue;
                    };
                    let step = PhaseStep {
                        seq: event.seq,
                        step: event.field("step").unwrap_or(f64::NAN) as usize,
                        phase: event.field("phase").unwrap_or(f64::NAN) as usize,
                        roi: event.field("roi").unwrap_or(f64::NAN),
                        allocated: event.field("allocated").unwrap_or(f64::NAN),
                        leftover_in: event.field("leftover_in").unwrap_or(f64::NAN),
                        leftover_out: event.field("leftover_out").unwrap_or(f64::NAN),
                        predicted_qos: event.field("predicted_qos").unwrap_or(f64::NAN),
                        predicted_speedup: event.field("predicted_speedup").unwrap_or(f64::NAN),
                        space: event.field("space"),
                        evaluated: event.field("evaluated"),
                    };
                    model.solve_mut(solve as usize).steps.push(step);
                }
                "optimize.plan" => {
                    let Some(solve) = event.field("solve") else {
                        continue;
                    };
                    model.solve_mut(solve as usize).plan = event
                        .field("predicted_speedup")
                        .zip(event.field("predicted_qos"));
                }
                "control.start" => {
                    let Some(session) = event.field("session") else {
                        continue;
                    };
                    let c = model.control_mut(session as usize);
                    c.budget = event.field("budget");
                    c.declared_phases = event.field("phases").map(|p| p as usize);
                }
                "control.step" => {
                    let Some(session) = event.field("session") else {
                        continue;
                    };
                    let step = ControlStep {
                        replanned: event.field("replanned").unwrap_or(0.0) != 0.0,
                        reclaimed: event.field("reclaimed").unwrap_or(f64::NAN),
                        redistributed: event.field("redistributed").unwrap_or(f64::NAN),
                    };
                    model.control_mut(session as usize).steps.push(step);
                }
                "control.plan" => {
                    let Some(session) = event.field("session") else {
                        continue;
                    };
                    let c = model.control_mut(session as usize);
                    c.replans = event.field("replans");
                    c.totals = event.field("reclaimed").zip(event.field("redistributed"));
                }
                _ => {}
            }
        }

        for span in &tele.spans {
            if let Some(phase) = bracket_index(&span.path, "optimize/phase[") {
                model.phase_spans.insert(phase, span.count);
            }
        }
        for gauge in &tele.gauges {
            if let Some(phase) = phase_gauge_index(&gauge.name) {
                model.profiled_max_speedup.insert(phase, gauge.max);
            }
        }
        for counter in &tele.counters {
            for (prefix, keys) in [
                ("eval.exec[", &mut model.exec_keys),
                ("eval.hit[", &mut model.hit_keys),
                ("eval.quarantine[", &mut model.quarantine_keys),
                ("eval.golden.exec[", &mut model.golden_keys),
            ] {
                if let Some(digest) = digest_key(&counter.name, prefix) {
                    keys.insert(digest, counter.value);
                }
            }
        }
        model
    }

    fn solve_mut(&mut self, id: usize) -> &mut Solve {
        if self.solves.len() <= id {
            self.solves.resize_with(id + 1, Solve::default);
        }
        self.solves[id].id = id;
        &mut self.solves[id]
    }

    fn control_mut(&mut self, id: usize) -> &mut ControlSession {
        if self.controls.len() <= id {
            self.controls.resize_with(id + 1, ControlSession::default);
        }
        self.controls[id].id = id;
        &mut self.controls[id]
    }
}

/// The trace's ledgers, linked: solves with their budget and step
/// events, phase-id span counts, per-key evaluation counters, and the
/// profiled per-phase speedup ceilings.
#[derive(Debug, Clone, Default)]
pub(crate) struct SessionModel {
    /// Algorithm-2 solves, indexed by solve id.
    pub solves: Vec<Solve>,
    /// Adaptive-controller sessions, indexed by session id.
    pub controls: Vec<ControlSession>,
    /// `optimize/phase[p]` span count per phase id.
    pub phase_spans: BTreeMap<usize, u64>,
    /// Per-key `eval.exec[digest]` counters.
    pub exec_keys: BTreeMap<u64, u64>,
    /// Per-key `eval.hit[digest]` counters.
    pub hit_keys: BTreeMap<u64, u64>,
    /// Per-key `eval.quarantine[digest]` counters (hits on quarantined
    /// keys).
    pub quarantine_keys: BTreeMap<u64, u64>,
    /// Per-key `eval.golden.exec[digest]` counters.
    pub golden_keys: BTreeMap<u64, u64>,
    /// `profile.phase[p].max_speedup` gauge maxima per phase id.
    pub profiled_max_speedup: BTreeMap<usize, f64>,
}

/// One Algorithm-2 solve reassembled from the event ledger.
#[derive(Debug, Clone, Default)]
pub struct Solve {
    /// The solve id (position of the `optimize.solves` counter when the
    /// solve began).
    pub id: usize,
    /// Total QoS budget from the `optimize.start` root event.
    pub budget: Option<f64>,
    /// Phase count declared by the root event.
    pub declared_phases: Option<usize>,
    /// Per-phase visit steps, in emission (= decreasing-ROI) order.
    pub steps: Vec<PhaseStep>,
    /// `(predicted_speedup, predicted_qos)` of the closing
    /// `optimize.plan` event.
    pub plan: Option<(f64, f64)>,
}

/// One `optimize.phase` event, decoded from its numeric fields.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStep {
    /// The event's trace sequence number (for locations).
    pub seq: u64,
    /// Position in the decreasing-ROI visit order.
    pub step: usize,
    /// The phase visited at this step.
    pub phase: usize,
    /// The phase's ROI at solve time.
    pub roi: f64,
    /// Budget allocated: the proportional share plus rolled-over
    /// leftover.
    pub allocated: f64,
    /// Leftover budget carried into this step.
    pub leftover_in: f64,
    /// Leftover budget carried out of this step.
    pub leftover_out: f64,
    /// The per-phase plan's predicted QoS degradation.
    pub predicted_qos: f64,
    /// The per-phase plan's predicted speedup.
    pub predicted_speedup: f64,
    /// Size of the enumerated configuration space, when stamped.
    pub space: Option<f64>,
    /// Configurations the per-phase scan predicted, when stamped.
    pub evaluated: Option<f64>,
}

/// One adaptive-controller session reassembled from its
/// `control.start`/`control.step`/`control.plan` event ledger.
#[derive(Debug, Clone, Default)]
pub(crate) struct ControlSession {
    /// The session id (position of the `control.sessions` counter when
    /// the session began).
    pub id: usize,
    /// Total QoS budget from the `control.start` root event.
    pub budget: Option<f64>,
    /// Phase count declared by the root event.
    pub declared_phases: Option<usize>,
    /// Per-phase control steps, in execution order.
    pub steps: Vec<ControlStep>,
    /// Re-plan count from the closing `control.plan` event.
    pub replans: Option<f64>,
    /// `(reclaimed, redistributed)` totals from the closing
    /// `control.plan` event.
    pub totals: Option<(f64, f64)>,
}

/// One `control.step` event, decoded from its numeric fields.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ControlStep {
    /// Whether a suffix re-plan fired at this step.
    pub replanned: bool,
    /// Budget reclaimed at this step.
    pub reclaimed: f64,
    /// Budget redistributed to the remaining phases at this step.
    pub redistributed: f64,
}

/// Parses the index of `prefix[i]`-shaped names, e.g.
/// `optimize/phase[3]` with prefix `optimize/phase[` yields 3.
fn bracket_index(name: &str, prefix: &str) -> Option<usize> {
    name.strip_prefix(prefix)?.strip_suffix(']')?.parse().ok()
}

/// Parses the phase id out of `profile.phase[p].max_speedup`.
fn phase_gauge_index(name: &str) -> Option<usize> {
    name.strip_prefix("profile.phase[")?
        .strip_suffix("].max_speedup")?
        .parse()
        .ok()
}

/// Parses the key digest out of `prefix` + `0x%016x]` counter names.
fn digest_key(name: &str, prefix: &str) -> Option<u64> {
    let hex = name.strip_prefix(prefix)?.strip_suffix(']')?;
    u64::from_str_radix(hex.strip_prefix("0x")?, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use opprox_core::Telemetry;

    #[test]
    fn resolve_links_events_spans_gauges_and_keys() {
        let t = Telemetry::new();
        t.event(
            "optimize.start",
            &[("solve", 0.0), ("budget", 10.0), ("phases", 2.0)],
        );
        t.event(
            "optimize.phase",
            &[
                ("solve", 0.0),
                ("step", 0.0),
                ("phase", 1.0),
                ("roi", 2.0),
                ("allocated", 6.0),
                ("leftover_in", 0.0),
                ("leftover_out", 1.0),
                ("predicted_qos", 5.0),
                ("predicted_speedup", 1.5),
            ],
        );
        t.event(
            "optimize.plan",
            &[
                ("solve", 0.0),
                ("predicted_speedup", 1.4),
                ("predicted_qos", 5.0),
            ],
        );
        t.span("optimize/phase[1]", || ());
        t.set_gauge("profile.phase[1].max_speedup", 1.8);
        t.incr("eval.exec");
        t.incr("eval.exec[0x00000000000000ff]");
        t.incr("eval.golden.exec[0x00000000000000ff]");

        let session = Session {
            telemetry: Some(t.report()),
            ..Session::default()
        };
        let model = session.resolve();
        assert_eq!(model.solves.len(), 1);
        let solve = &model.solves[0];
        assert_eq!(solve.budget, Some(10.0));
        assert_eq!(solve.declared_phases, Some(2));
        assert_eq!(solve.steps.len(), 1);
        assert_eq!(solve.steps[0].phase, 1);
        assert_eq!(solve.plan, Some((1.4, 5.0)));
        assert_eq!(model.phase_spans.get(&1), Some(&1));
        assert_eq!(model.profiled_max_speedup.get(&1), Some(&1.8));
        assert_eq!(model.exec_keys.get(&0xff), Some(&1));
        assert_eq!(model.golden_keys.get(&0xff), Some(&1));
        assert!(model.hit_keys.is_empty());
    }

    #[test]
    fn from_artifacts_keeps_every_schedule() {
        use opprox_approx_rt::LevelConfig;
        let schedule =
            |iters| PhaseSchedule::new(vec![LevelConfig::accurate(2); 2], iters).unwrap();
        let session = Session::from_artifacts(vec![
            Artifact::Schedule(schedule(10)),
            Artifact::Schedule(schedule(20)),
        ]);
        assert_eq!(session.schedules.len(), 2);
        assert!(session.trained.is_none());
        assert!(session.effective_blocks().is_none());
    }
}
