//! Lock-free counters instrumenting the model-fitting pipeline.
//!
//! Model fitting fans out across threads in the application layer, so the
//! counters are plain relaxed atomics: cheap to bump from any worker and
//! race-free to snapshot afterwards.

use std::sync::atomic::{AtomicU64, Ordering};

/// Highest polynomial degree tracked individually by
/// [`FitCounters::cv_solves_by_degree`]; solves at higher degrees fold
/// into the last bucket.
pub const MAX_TRACKED_DEGREE: usize = 8;

/// Shared counters accumulated while fitting [`crate::model_select::TargetModel`]s.
///
/// One instance is typically shared (by reference) across every concurrent
/// fit of a training run and snapshotted into the run's metrics afterwards.
#[derive(Debug, Default)]
pub struct FitCounters {
    fits: AtomicU64,
    cv_solves: AtomicU64,
    degrees_tried: AtomicU64,
    folds_clamped: AtomicU64,
    split_candidates: AtomicU64,
    split_pruned: AtomicU64,
    cv_solves_per_degree: [AtomicU64; MAX_TRACKED_DEGREE + 1],
}

impl FitCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one attempted `TargetModel` fit.
    pub(crate) fn record_fit(&self) {
        self.fits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` cross-validation linear-system solves.
    pub(crate) fn record_cv_solves(&self, n: u64) {
        self.cv_solves.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` cross-validation solves attributed to a specific
    /// polynomial degree (also counted in the [`FitCounters::cv_solves`]
    /// total). Degrees above [`MAX_TRACKED_DEGREE`] share the last bucket.
    pub(crate) fn record_cv_solves_at(&self, degree: usize, n: u64) {
        self.record_cv_solves(n);
        self.cv_solves_per_degree[degree.min(MAX_TRACKED_DEGREE)].fetch_add(n, Ordering::Relaxed);
    }

    /// Records one polynomial degree evaluated during escalation.
    pub(crate) fn record_degree_tried(&self) {
        self.degrees_tried.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one cross-validation whose requested fold count was
    /// clamped to what its rows support.
    pub(crate) fn record_folds_clamped(&self) {
        self.folds_clamped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one (feature, k) candidate of the sub-model split search.
    pub(crate) fn record_split_candidate(&self) {
        self.split_candidates.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one split candidate dropped before all its sub-models were
    /// fitted: infeasible, or bounded out by the best score so far.
    pub(crate) fn record_split_pruned(&self) {
        self.split_pruned.fetch_add(1, Ordering::Relaxed);
    }

    /// Total attempted `TargetModel` fits.
    pub fn fits(&self) -> u64 {
        self.fits.load(Ordering::Relaxed)
    }

    /// Total cross-validation linear-system solves.
    pub fn cv_solves(&self) -> u64 {
        self.cv_solves.load(Ordering::Relaxed)
    }

    /// Total polynomial degrees evaluated.
    pub fn degrees_tried(&self) -> u64 {
        self.degrees_tried.load(Ordering::Relaxed)
    }

    /// Total cross-validations run with a clamped fold count.
    pub fn folds_clamped(&self) -> u64 {
        self.folds_clamped.load(Ordering::Relaxed)
    }

    /// Total (feature, k) candidates the split search considered.
    pub fn split_candidates(&self) -> u64 {
        self.split_candidates.load(Ordering::Relaxed)
    }

    /// Total split candidates pruned: infeasible (a subset under 4 rows,
    /// found before any fit) or bounded out before their last sub-model
    /// was fitted.
    pub fn split_pruned(&self) -> u64 {
        self.split_pruned.load(Ordering::Relaxed)
    }

    /// Cross-validation solves per polynomial degree
    /// (`0..=MAX_TRACKED_DEGREE`; the last entry also holds any higher
    /// degrees). Only solves recorded with their degree are attributed.
    pub fn cv_solves_by_degree(&self) -> Vec<u64> {
        self.cv_solves_per_degree
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = FitCounters::new();
        c.record_fit();
        c.record_fit();
        c.record_cv_solves(11);
        c.record_degree_tried();
        c.record_folds_clamped();
        c.record_split_candidate();
        c.record_split_candidate();
        c.record_split_pruned();
        assert_eq!(c.fits(), 2);
        assert_eq!(c.cv_solves(), 11);
        assert_eq!(c.degrees_tried(), 1);
        assert_eq!(c.folds_clamped(), 1);
        assert_eq!((c.split_candidates(), c.split_pruned()), (2, 1));
    }

    #[test]
    fn per_degree_solves_feed_the_total_and_clamp_high_degrees() {
        let c = FitCounters::new();
        c.record_cv_solves_at(1, 5);
        c.record_cv_solves_at(3, 2);
        c.record_cv_solves_at(MAX_TRACKED_DEGREE + 7, 4);
        assert_eq!(c.cv_solves(), 11);
        let by_degree = c.cv_solves_by_degree();
        assert_eq!(by_degree.len(), MAX_TRACKED_DEGREE + 1);
        assert_eq!(by_degree[1], 5);
        assert_eq!(by_degree[3], 2);
        assert_eq!(by_degree[MAX_TRACKED_DEGREE], 4);
    }

    #[test]
    fn counters_are_shareable_across_threads() {
        let c = FitCounters::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        c.record_fit();
                        c.record_cv_solves(2);
                    }
                });
            }
        });
        assert_eq!(c.fits(), 400);
        assert_eq!(c.cv_solves(), 800);
    }
}
