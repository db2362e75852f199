//! The four approximation techniques evaluated in the paper (Sec. 3.2),
//! plus two from the approximate-computing survey used by the non-paper
//! workload ports.
//!
//! Each technique is expressed as a small, reusable helper so the
//! benchmark applications approximate their kernels the same way the
//! paper's transformed C/C++ code does:
//!
//! * **Loop perforation** — `for (i = 0; i < n; i += approx_level)`:
//!   stride sampling over the iteration space.
//! * **Loop truncation** — `for (i = 0; i < n − approx_level; i++)`:
//!   dropping trailing iterations.
//! * **Memoization** — compute on every `approx_level`-th iteration,
//!   reuse the cached result otherwise.
//! * **Parameter tuning** — map the level onto an accuracy-controlling
//!   application parameter.
//! * **Precision scaling** — quantize intermediate values onto a
//!   power-of-two grid whose step doubles per level, charging fewer work
//!   units for lower-precision arithmetic ([`quantized`],
//!   [`precision_cost`]).
//! * **Task skipping** — skip whole tasks whose significance score falls
//!   below a threshold that grows with the level ([`should_skip`]).

/// Iterator over the indices a perforated loop visits.
///
/// Level 0 is the accurate run (stride 1); level `l` uses stride `l + 1`,
/// matching the paper's `i = i + approx_level` with the convention that
/// the exposed knob value `approx_level` is `level + 1` and level 0 means
/// "no approximation".
///
/// # Example
///
/// ```
/// use opprox_approx_rt::technique::perforated_indices;
/// let idx: Vec<usize> = perforated_indices(10, 1).collect();
/// assert_eq!(idx, vec![0, 2, 4, 6, 8]);
/// ```
pub fn perforated_indices(n: usize, level: u8) -> impl Iterator<Item = usize> {
    let stride = level as usize + 1;
    (0..n).step_by(stride)
}

/// Number of iterations a perforated loop of `n` iterations executes.
pub fn perforated_len(n: usize, level: u8) -> usize {
    let stride = level as usize + 1;
    n.div_ceil(stride)
}

/// Perforated indices with a rotating offset — the interleaved-sampling
/// variant of loop perforation, where each outer-loop iteration visits a
/// different residue class so every index is refreshed within
/// `level + 1` outer iterations.
///
/// # Example
///
/// ```
/// use opprox_approx_rt::technique::perforated_indices_offset;
/// assert_eq!(perforated_indices_offset(8, 1, 0).collect::<Vec<_>>(), vec![0, 2, 4, 6]);
/// assert_eq!(perforated_indices_offset(8, 1, 1).collect::<Vec<_>>(), vec![1, 3, 5, 7]);
/// assert_eq!(perforated_indices_offset(8, 1, 2).collect::<Vec<_>>(), vec![0, 2, 4, 6]);
/// ```
pub fn perforated_indices_offset(
    n: usize,
    level: u8,
    offset: usize,
) -> impl Iterator<Item = usize> {
    let stride = level as usize + 1;
    (offset % stride..n).step_by(stride)
}

/// Number of iterations a truncated loop executes.
///
/// The paper's pattern is `for (i = 0; i < n − approx_level; i++)`; to
/// make the knob meaningful across loop sizes, each level drops
/// `drop_per_level` trailing iterations. The result never goes below
/// `min_len`, so a kernel always does some work.
///
/// # Example
///
/// ```
/// use opprox_approx_rt::technique::truncated_len;
/// assert_eq!(truncated_len(100, 0, 10, 1), 100);
/// assert_eq!(truncated_len(100, 3, 10, 1), 70);
/// assert_eq!(truncated_len(100, 5, 30, 1), 1); // clamped to min_len
/// ```
pub fn truncated_len(n: usize, level: u8, drop_per_level: usize, min_len: usize) -> usize {
    let drop = level as usize * drop_per_level;
    n.saturating_sub(drop).max(min_len.min(n))
}

/// Compute-and-cache helper implementing the paper's memoization pattern.
///
/// On iteration `i` at level `l > 0`, the value is recomputed only when
/// `i % (l + 1) == 0`; otherwise the last computed value is reused.
/// Level 0 recomputes every iteration.
///
/// # Example
///
/// ```
/// use opprox_approx_rt::technique::Memoizer;
///
/// let mut memo = Memoizer::new();
/// let mut computations = 0;
/// for i in 0..10 {
///     let v = memo.get_or_compute(i, 1, || { computations += 1; i * i });
///     if i % 2 == 0 { assert_eq!(v, i * i); } else { assert_eq!(v, (i - 1) * (i - 1)); }
/// }
/// assert_eq!(computations, 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memoizer<T: Clone> {
    cached: Option<T>,
}

impl<T: Clone> Memoizer<T> {
    /// Creates an empty memoizer.
    pub fn new() -> Self {
        Memoizer { cached: None }
    }

    /// Returns whether iteration `i` at `level` must recompute.
    ///
    /// The first iteration always computes (there is nothing cached yet).
    pub(crate) fn must_compute(&self, i: usize, level: u8) -> bool {
        self.cached.is_none() || level == 0 || i.is_multiple_of(level as usize + 1)
    }

    /// Returns the cached value or computes (and caches) a fresh one
    /// according to the memoization schedule.
    pub fn get_or_compute<F: FnOnce() -> T>(&mut self, i: usize, level: u8, compute: F) -> T {
        if self.must_compute(i, level) {
            let v = compute();
            self.cached = Some(v.clone());
            v
        } else {
            self.cached.clone().expect("checked by must_compute")
        }
    }
}

/// Maps an approximation level onto a tunable application parameter
/// (the paper's *parameter tuning* technique, e.g. Bodytrack's
/// `min-particles` or annealing-layer count).
///
/// The `values` slice lists the parameter settings from accurate
/// (`values[0]`) to most approximate (`values[max]`); out-of-range levels
/// clamp to the last entry.
///
/// # Example
///
/// ```
/// use opprox_approx_rt::technique::tuned_parameter;
/// let particle_counts = [4000.0, 2000.0, 1000.0, 500.0];
/// assert_eq!(tuned_parameter(&particle_counts, 0), 4000.0);
/// assert_eq!(tuned_parameter(&particle_counts, 2), 1000.0);
/// assert_eq!(tuned_parameter(&particle_counts, 9), 500.0);
/// ```
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn tuned_parameter(values: &[f64], level: u8) -> f64 {
    assert!(!values.is_empty(), "parameter-tuning table cannot be empty");
    values[(level as usize).min(values.len() - 1)]
}

/// Quantization step for precision scaling at `level`.
///
/// Level 0 is exact (step 0 means "no quantization"); level `l > 0` uses
/// `base_step * 2^(l − 1)`, so every level doubles the grid spacing. The
/// power-of-two ladder makes the truncation error provably monotone in
/// the level: each coarser grid is a sub-grid of the finer one.
pub fn quantization_step(level: u8, base_step: f64) -> f64 {
    if level == 0 {
        0.0
    } else {
        base_step * f64::powi(2.0, level as i32 - 1)
    }
}

/// Quantizes `v` onto the precision-scaling grid for `level` by rounding
/// toward negative infinity (floor), the paper-style truncating
/// conversion to a narrower fixed-point type.
///
/// Level 0 returns `v` unchanged. For any fixed `v`, the absolute
/// truncation error `v − quantized(v, l, s)` is non-decreasing in `l`
/// because each level's grid is a subset of the previous one.
///
/// # Example
///
/// ```
/// use opprox_approx_rt::technique::quantized;
/// assert_eq!(quantized(3.7, 0, 0.5), 3.7);          // exact
/// assert_eq!(quantized(3.7, 1, 0.5), 3.5);          // step 0.5
/// assert_eq!(quantized(3.7, 2, 0.5), 3.0);          // step 1.0
/// assert_eq!(quantized(-0.3, 1, 0.5), -0.5);        // floor, not trunc
/// ```
pub fn quantized(v: f64, level: u8, base_step: f64) -> f64 {
    let step = quantization_step(level, base_step);
    if step == 0.0 {
        v
    } else {
        (v / step).floor() * step
    }
}

/// Number of precision steps the cost model of [`precision_cost`]
/// divides a full-precision operation into.
pub(crate) const PRECISION_STEPS: u64 = 8;

/// Work units charged for an operation computed at reduced precision.
///
/// Full precision (`level` 0) costs `full_cost`; every level sheds one
/// eighth of the full cost — the abstract analogue of narrowing the
/// datapath — with a floor of one unit so an executed operation is never
/// free. Monotone non-increasing in `level` by construction.
///
/// # Example
///
/// ```
/// use opprox_approx_rt::technique::precision_cost;
/// assert_eq!(precision_cost(8, 0), 8);
/// assert_eq!(precision_cost(8, 3), 5);
/// assert_eq!(precision_cost(8, 200), 1); // clamped to the floor
/// ```
pub fn precision_cost(full_cost: u64, level: u8) -> u64 {
    let shed = (full_cost * (level as u64).min(PRECISION_STEPS)) / PRECISION_STEPS;
    (full_cost - shed).max(1)
}

/// Significance threshold for task skipping at `level`: `level * step`.
///
/// Level 0 has threshold 0, so nothing is skipped in the accurate run;
/// the threshold grows linearly with the level, so the skipped set only
/// ever grows as the level rises.
pub(crate) fn skip_threshold(level: u8, step: f64) -> f64 {
    level as f64 * step
}

/// Whether a task with the given (non-negative) significance score is
/// skipped at `level`.
///
/// # Example
///
/// ```
/// use opprox_approx_rt::technique::should_skip;
/// assert!(!should_skip(0.0, 0, 0.1));    // accurate run skips nothing
/// assert!(should_skip(0.05, 1, 0.1));    // below the level-1 threshold
/// assert!(!should_skip(0.25, 2, 0.1));   // significant enough to run
/// ```
pub fn should_skip(significance: f64, level: u8, step: f64) -> bool {
    level > 0 && significance < skip_threshold(level, step)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perforation_level_zero_is_accurate() {
        let all: Vec<usize> = perforated_indices(7, 0).collect();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn perforation_stride_matches_level() {
        assert_eq!(perforated_indices(10, 4).collect::<Vec<_>>(), vec![0, 5]);
        assert_eq!(perforated_len(10, 4), 2);
    }

    #[test]
    fn perforated_len_matches_iterator_count() {
        for n in [0usize, 1, 5, 17, 100] {
            for level in 0u8..6 {
                assert_eq!(
                    perforated_len(n, level),
                    perforated_indices(n, level).count(),
                    "n={n} level={level}"
                );
            }
        }
    }

    #[test]
    fn truncation_drops_tail_and_respects_floor() {
        assert_eq!(truncated_len(50, 0, 5, 2), 50);
        assert_eq!(truncated_len(50, 2, 5, 2), 40);
        assert_eq!(truncated_len(50, 5, 20, 2), 2);
        // min_len larger than n clamps to n.
        assert_eq!(truncated_len(3, 0, 5, 10), 3);
    }

    #[test]
    fn memoizer_level_zero_always_computes() {
        let mut memo = Memoizer::new();
        let mut count = 0;
        for i in 0..8 {
            memo.get_or_compute(i, 0, || {
                count += 1;
                i
            });
        }
        assert_eq!(count, 8);
    }

    #[test]
    fn memoizer_reuses_between_compute_points() {
        let mut memo = Memoizer::new();
        let mut count = 0;
        let mut values = Vec::new();
        for i in 0..9 {
            values.push(memo.get_or_compute(i, 2, || {
                count += 1;
                i * 10
            }));
        }
        assert_eq!(count, 3); // i = 0, 3, 6
        assert_eq!(values, vec![0, 0, 0, 30, 30, 30, 60, 60, 60]);
    }

    #[test]
    fn memoizer_first_call_computes_even_misaligned() {
        let mut memo = Memoizer::new();
        // i = 1 at level 2 would normally reuse, but the cache is empty.
        let v = memo.get_or_compute(1, 2, || 42);
        assert_eq!(v, 42);
    }

    #[test]
    fn tuned_parameter_clamps() {
        let vals = [10.0, 5.0];
        assert_eq!(tuned_parameter(&vals, 0), 10.0);
        assert_eq!(tuned_parameter(&vals, 1), 5.0);
        assert_eq!(tuned_parameter(&vals, 200), 5.0);
    }

    #[test]
    #[should_panic]
    fn tuned_parameter_rejects_empty_table() {
        tuned_parameter(&[], 0);
    }

    #[test]
    fn quantization_error_is_monotone_in_level() {
        for &v in &[0.0, 0.123, 3.7, -2.9, 1017.25, -0.0001] {
            let mut prev_err = 0.0;
            for level in 0u8..=6 {
                let q = quantized(v, level, 0.125);
                assert!(q <= v, "floor quantization overshot: {q} > {v}");
                let err = v - q;
                assert!(
                    err >= prev_err - 1e-15,
                    "error shrank: v={v} level={level} {prev_err} -> {err}"
                );
                prev_err = err;
            }
        }
    }

    #[test]
    fn quantized_level_zero_is_identity() {
        for &v in &[0.0, 1.5, -7.25, 1e9] {
            assert_eq!(quantized(v, 0, 0.5), v);
        }
    }

    #[test]
    fn precision_cost_is_monotone_with_unit_floor() {
        let mut prev = u64::MAX;
        for level in 0u8..=10 {
            let c = precision_cost(16, level);
            assert!(c <= prev, "cost rose at level {level}");
            assert!(c >= 1);
            prev = c;
        }
        assert_eq!(precision_cost(16, 0), 16);
        assert_eq!(precision_cost(1, 7), 1);
    }

    #[test]
    fn skip_threshold_grows_and_accurate_level_never_skips() {
        for sig in [0.0, 0.001, 0.5, 10.0] {
            assert!(!should_skip(sig, 0, 0.1));
        }
        let mut prev = -1.0;
        for level in 0u8..=8 {
            let t = skip_threshold(level, 0.25);
            assert!(t > prev);
            prev = t;
        }
        // The skipped set only grows: skipped at level l => skipped at l+1.
        for level in 1u8..=7 {
            for sig in [0.01, 0.3, 0.9, 1.4] {
                if should_skip(sig, level, 0.25) {
                    assert!(should_skip(sig, level + 1, 0.25));
                }
            }
        }
    }
}
