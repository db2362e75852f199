//! A small bounded work-stealing pool for embarrassingly-parallel jobs.
//!
//! Extracted from the evaluation engine so model training can fan out on
//! the same machinery. Jobs are indexed `0..n`; per-worker deques are
//! filled round-robin, each worker drains its own deque from the front and
//! steals from the back of the others', and results are returned in
//! submission order regardless of which worker ran which job — so
//! parallel runs are output-identical to sequential ones whenever the jobs
//! themselves are independent.

use crate::sync::{thread, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The caught panic of one isolated job (see [`WorkPool::run_isolated`]).
#[derive(Debug, Clone)]
pub(crate) struct JobPanic {
    /// The panic payload rendered as text, when it was a string.
    pub message: String,
}

/// Result of [`WorkPool::run_isolated`]: per-job outcomes in submission
/// order, plus worker-death accounting.
#[derive(Debug)]
pub(crate) struct IsolatedRun<T> {
    /// One entry per job: the job's value, or the panic that killed it.
    pub outcomes: Vec<Result<T, JobPanic>>,
    /// Logical worker deaths: each caught panic ends that worker's
    /// execution of the job, and the worker is immediately reused
    /// (respawned) for the next one instead of taking the pool down.
    pub respawns: u64,
}

/// A bounded pool of scoped worker threads with work stealing.
#[derive(Debug, Clone, Copy)]
pub struct WorkPool {
    threads: usize,
}

impl WorkPool {
    /// Creates a pool bound to at most `threads` workers (floored at 1).
    pub fn new(threads: usize) -> Self {
        WorkPool {
            threads: threads.max(1),
        }
    }

    /// The configured worker bound.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `job(i)` for every `i in 0..n` across the pool and returns the
    /// results in index order. With one worker (or one job) everything
    /// runs inline on the calling thread.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job.
    pub fn run<T, F>(&self, n: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(n);
        if workers <= 1 {
            return (0..n).map(job).collect();
        }
        let queues: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for i in 0..n {
            queues[i % workers].lock().expect("queue lock").push_back(i);
        }
        let outcomes: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

        thread::scope(|scope| {
            for w in 0..workers {
                let queues = &queues;
                let outcomes = &outcomes;
                let job = &job;
                scope.spawn(move || loop {
                    // Drop the own-queue guard before stealing: chaining
                    // `.or_else` onto the locked pop would keep this guard
                    // alive across the steal attempts (temporaries live to
                    // the end of the statement), and two workers stealing
                    // from each other simultaneously would deadlock ABBA
                    // style — found by the loom model check (rule C001).
                    let mut next = queues[w].lock().expect("queue lock").pop_front();
                    if next.is_none() {
                        next = (0..workers)
                            .filter(|&v| v != w)
                            .find_map(|v| queues[v].lock().expect("queue lock").pop_back());
                    }
                    let Some(i) = next else { break };
                    *outcomes[i].lock().expect("outcome lock") = Some(job(i));
                });
            }
        });

        outcomes
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("outcome lock")
                    .expect("worker completed every claimed job")
            })
            .collect()
    }

    /// Like [`WorkPool::run`], but a panicking job kills only itself: the
    /// panic is caught at the worker boundary, recorded as a
    /// [`JobPanic`], and the worker moves on to its next job. Inline
    /// (single-worker) execution gets the same isolation, so outcomes are
    /// identical for any thread count.
    ///
    /// The `AssertUnwindSafe` is sound because a panicked job's value is
    /// discarded wholesale — callers only ever observe the `Err` — and
    /// the engine defers all shared-state writes (cache inserts, result
    /// publication) until after the pool returns.
    pub(crate) fn run_isolated<T, F>(&self, n: usize, job: F) -> IsolatedRun<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let outcomes = self.run(n, |i| {
            catch_unwind(AssertUnwindSafe(|| job(i))).map_err(|payload| JobPanic {
                message: panic_message(payload.as_ref()),
            })
        });
        let respawns = outcomes.iter().filter(|o| o.is_err()).count() as u64;
        IsolatedRun { outcomes, respawns }
    }
}

/// Renders a panic payload as text (panics carry `&str` or `String`
/// payloads in practice; anything else is reported opaquely).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkPool::new(4);
        let out = pool.run(37, |i| i * i);
        assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_runs_inline() {
        let pool = WorkPool::new(1);
        let tid = std::thread::current().id();
        let out = pool.run(5, move |i| (i, std::thread::current().id() == tid));
        assert!(out.iter().all(|&(_, same)| same));
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let pool = WorkPool::new(3);
        let counter = AtomicUsize::new(0);
        let out = pool.run(100, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn zero_jobs_is_a_no_op() {
        let pool = WorkPool::new(4);
        assert!(pool.run(0, |i| i).is_empty());
    }

    #[test]
    fn parallel_matches_sequential_output() {
        let seq = WorkPool::new(1).run(64, |i| (i as f64).sqrt());
        let par = WorkPool::new(8).run(64, |i| (i as f64).sqrt());
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Keeps intentionally injected panics out of the test log while
    /// forwarding every other panic to the default hook.
    fn silence_injected_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains("injected fault"))
                    || info
                        .payload()
                        .downcast_ref::<&str>()
                        .is_some_and(|s| s.contains("injected fault"));
                if !injected {
                    default(info);
                }
            }));
        });
    }

    #[test]
    fn isolated_jobs_survive_panicking_neighbours() {
        silence_injected_panics();
        for threads in [1, 4] {
            let pool = WorkPool::new(threads);
            let run = pool.run_isolated(20, |i| {
                if i % 5 == 3 {
                    panic!("injected fault: job {i}");
                }
                i * 2
            });
            assert_eq!(run.outcomes.len(), 20);
            assert_eq!(run.respawns, 4, "{threads} threads");
            for (i, outcome) in run.outcomes.iter().enumerate() {
                match outcome {
                    Ok(v) => assert_eq!(*v, i * 2),
                    Err(p) => {
                        assert_eq!(i % 5, 3);
                        assert!(p.message.contains("injected fault"), "{}", p.message);
                    }
                }
            }
        }
    }

    #[test]
    fn isolated_run_without_panics_matches_plain_run() {
        let pool = WorkPool::new(3);
        let plain = pool.run(16, |i| i + 1);
        let isolated = pool.run_isolated(16, |i| i + 1);
        assert_eq!(isolated.respawns, 0);
        let values: Vec<usize> = isolated.outcomes.into_iter().map(Result::unwrap).collect();
        assert_eq!(values, plain);
    }
}
