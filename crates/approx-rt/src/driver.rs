//! The outer-loop driver every benchmark port runs on.
//!
//! Every OPPROX application has one shape (paper Sec. 3.1): derive some
//! data from the input, then iterate an outer loop whose iteration index
//! selects the phase, and with it the level configuration. [`OuterLoop`]
//! is that shape with the bookkeeping taken out. A port supplies how to
//! set up, initialize, test for termination, step and finish; the driver
//! owns the iteration counter, the schedule lookup, the work and log
//! accounting, and the [`RunResult`].
//!
//! Because the driver owns the loop, it can also pause it. A
//! [`Checkpoint`] is an accurate run's loop state after its first `k`
//! iterations. Resuming it under any schedule whose first `k` iterations
//! are accurate gives bit-for-bit the run of that schedule from the
//! start: output, work, iteration count and call-context log. OPPROX's
//! single-phase probes (Sec. 3.3) run every phase before the approximated
//! one accurately, so they resume from the golden run's phase-boundary
//! checkpoints instead of replaying that prefix. A from-scratch run is
//! the same loop started from [`OuterLoop::init`].

use crate::app::{ApproxApp, InputParams, RunResult};
use crate::config::LevelConfig;
use crate::error::RuntimeError;
use crate::log::CallContextLog;
use crate::schedule::PhaseSchedule;
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// An application written as an outer loop the driver runs.
///
/// A port implements [`ApproxApp::run`], [`ApproxApp::checkpoints`] and
/// [`ApproxApp::resume`] by calling [`run`], [`checkpoints`] and
/// [`resume`] with itself, which [`forward_to_driver!`](crate::forward_to_driver)
/// writes out.
///
/// The split between [`OuterLoop::Setup`] and [`OuterLoop::State`] is the
/// contract that makes checkpoints exact: everything an iteration writes
/// and a later iteration reads must live in the state. A value kept in a
/// local of `step` across iterations, or in interior mutability of the
/// setup, is lost on resume (the conformance suite's check 6 catches
/// that).
pub trait OuterLoop: ApproxApp {
    /// Immutable data derived from the input: sizes, meshes, graphs,
    /// seeds. Every checkpoint of one input shares it; it is never
    /// cloned.
    type Setup: Send + Sync + 'static;
    /// Everything an iteration mutates. A checkpoint holds a clone.
    type State: Clone + Send + Sync + 'static;

    /// Checks the input's parameter ranges and derives the setup.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidInput`] for out-of-range parameters.
    fn setup(&self, input: &InputParams) -> Result<Self::Setup, RuntimeError>;

    /// The state before iteration 0, and the work spent building it.
    fn init(&self, setup: &Self::Setup) -> (Self::State, u64);

    /// Whether the loop ends before running iteration `iter`: a fixed
    /// count for enumerator loops, a convergence test for the others.
    fn done(&self, setup: &Self::Setup, state: &Self::State, iter: u64) -> bool;

    /// Runs iteration `iter` under `config`, recording each block's work
    /// in `log`, and returns the iteration's total work.
    fn step(
        &self,
        setup: &Self::Setup,
        state: &mut Self::State,
        iter: u64,
        config: &LevelConfig,
        log: &mut CallContextLog,
    ) -> u64;

    /// The output vector of a loop that ran `iters` iterations.
    fn finish(&self, setup: &Self::Setup, state: Self::State, iters: u64) -> Vec<f64>;
}

/// A loop part-way through: the state after `iter` iterations, with the
/// work and log accumulated so far.
#[derive(Clone)]
struct Progress<S> {
    state: S,
    iter: u64,
    work: u64,
    log: CallContextLog,
}

fn start<L: OuterLoop>(app: &L, setup: &L::Setup) -> Progress<L::State> {
    let (state, work) = app.init(setup);
    Progress {
        state,
        iter: 0,
        work,
        log: CallContextLog::new(),
    }
}

/// Runs iterations until the loop is done or `until` iterations have run.
fn advance<L: OuterLoop>(
    app: &L,
    setup: &L::Setup,
    at: &mut Progress<L::State>,
    schedule: &PhaseSchedule,
    until: u64,
) {
    while at.iter < until && !app.done(setup, &at.state, at.iter) {
        at.work += app.step(
            setup,
            &mut at.state,
            at.iter,
            schedule.config_at(at.iter),
            &mut at.log,
        );
        at.iter += 1;
    }
}

/// Runs the loop to its end and assembles the result.
fn complete<L: OuterLoop>(
    app: &L,
    setup: &L::Setup,
    mut at: Progress<L::State>,
    schedule: &PhaseSchedule,
) -> RunResult {
    advance(app, setup, &mut at, schedule, u64::MAX);
    // The log grew by doubling (or was cloned at exact length from a
    // checkpoint and then grew); a finished run's log may be cached for
    // the rest of training, so it keeps no slack.
    at.log.shrink_to_fit();
    RunResult {
        output: app.finish(setup, at.state, at.iter),
        work: at.work,
        outer_iters: at.iter,
        log: at.log,
    }
}

/// Runs `app` on `input` under `schedule` from the start.
///
/// # Errors
///
/// Rejects a malformed input or schedule with [`RuntimeError`].
pub fn run<L: OuterLoop>(
    app: &L,
    input: &InputParams,
    schedule: &PhaseSchedule,
) -> Result<RunResult, RuntimeError> {
    app.meta().validate_input(input)?;
    app.meta().validate_schedule(schedule)?;
    let setup = app.setup(input)?;
    let at = start(app, &setup);
    Ok(complete(app, &setup, at, schedule))
}

/// What a checkpoint holds for one port: the shared setup and a clone of
/// the loop's progress.
struct Saved<Setup, State> {
    setup: Arc<Setup>,
    progress: Progress<State>,
}

/// The state of an accurate run of one input after its first
/// [`Checkpoint::iter`] iterations, taken by [`ApproxApp::checkpoints`]
/// and consumed by [`ApproxApp::resume`] of the same app.
#[derive(Clone)]
pub struct Checkpoint {
    input: InputParams,
    iter: u64,
    saved: Arc<dyn Any + Send + Sync>,
}

impl Checkpoint {
    /// The input the checkpointed run executes.
    pub(crate) fn input(&self) -> &InputParams {
        &self.input
    }

    /// Iterations already executed: a resumed run starts at this one.
    pub fn iter(&self) -> u64 {
        self.iter
    }
}

impl fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checkpoint")
            .field("input", &self.input)
            .field("iter", &self.iter)
            .finish_non_exhaustive()
    }
}

/// Runs `app`'s accurate execution of `input` and checkpoints it at every
/// iteration count in `at` that the run reaches, in ascending order. The
/// run stops at the largest boundary; a boundary past the run's end has
/// no checkpoint.
///
/// # Errors
///
/// Rejects a malformed input with [`RuntimeError`].
pub fn checkpoints<L: OuterLoop>(
    app: &L,
    input: &InputParams,
    at: &[u64],
) -> Result<Vec<Checkpoint>, RuntimeError> {
    app.meta().validate_input(input)?;
    let setup = Arc::new(app.setup(input)?);
    let accurate = PhaseSchedule::accurate(app.meta().num_blocks());
    let mut boundaries = at.to_vec();
    boundaries.sort_unstable();
    boundaries.dedup();
    let mut progress = start(app, &setup);
    let mut out = Vec::with_capacity(boundaries.len());
    for iter in boundaries {
        advance(app, &setup, &mut progress, &accurate, iter);
        if progress.iter < iter {
            break;
        }
        out.push(Checkpoint {
            input: input.clone(),
            iter,
            saved: Arc::new(Saved {
                setup: Arc::clone(&setup),
                progress: progress.clone(),
            }),
        });
    }
    Ok(out)
}

/// Runs `schedule` on the checkpoint's input, resuming at the checkpoint.
/// The result is bit-identical to [`run`]; when `schedule` approximates
/// an iteration before the checkpoint, or the checkpoint belongs to
/// another port, it is exactly [`run`].
///
/// # Errors
///
/// Rejects a malformed schedule with [`RuntimeError`].
pub fn resume<L: OuterLoop>(
    app: &L,
    from: &Checkpoint,
    schedule: &PhaseSchedule,
) -> Result<RunResult, RuntimeError> {
    match from.saved.downcast_ref::<Saved<L::Setup, L::State>>() {
        Some(saved) if schedule.accurate_prefix() >= from.iter => {
            app.meta().validate_schedule(schedule)?;
            Ok(complete(
                app,
                &saved.setup,
                saved.progress.clone(),
                schedule,
            ))
        }
        _ => run(app, &from.input, schedule),
    }
}

/// Writes the [`ApproxApp::run`], [`ApproxApp::checkpoints`] and
/// [`ApproxApp::resume`] methods of an [`OuterLoop`] port, forwarding to
/// [`run`], [`checkpoints`] and [`resume`]. Invoke it inside the port's
/// `impl ApproxApp` block.
#[macro_export]
macro_rules! forward_to_driver {
    () => {
        fn run(
            &self,
            input: &$crate::InputParams,
            schedule: &$crate::PhaseSchedule,
        ) -> Result<$crate::RunResult, $crate::RuntimeError> {
            $crate::driver::run(self, input, schedule)
        }

        fn checkpoints(
            &self,
            input: &$crate::InputParams,
            at: &[u64],
        ) -> Result<Vec<$crate::Checkpoint>, $crate::RuntimeError> {
            $crate::driver::checkpoints(self, input, at)
        }

        fn resume(
            &self,
            from: &$crate::Checkpoint,
            schedule: &$crate::PhaseSchedule,
        ) -> Result<$crate::RunResult, $crate::RuntimeError> {
            $crate::driver::resume(self, from, schedule)
        }
    };
}
