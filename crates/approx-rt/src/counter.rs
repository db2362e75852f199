//! Abstract work accounting.
//!
//! The paper expresses speedup as the ratio of the number of instructions
//! executed by the accurate run to that of the approximate run. Our
//! applications increment a [`WorkCounter`] with deterministic
//! instruction-like unit counts in every kernel, which makes the metric
//! exact and machine independent.

/// Accumulates abstract work units.
///
/// # Example
///
/// ```
/// use opprox_approx_rt::WorkCounter;
///
/// let mut w = WorkCounter::new();
/// w.add(10);
/// w.add(5);
/// assert_eq!(w.total(), 15);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkCounter {
    total: u64,
}

impl WorkCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        WorkCounter { total: 0 }
    }

    /// Adds `units` of work.
    #[inline]
    pub fn add(&mut self, units: u64) {
        self.total += units;
    }

    /// Total work accumulated so far.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Computes speedup as defined in the paper (Sec. 3.6):
/// `S = work(accurate) / work(approximate)`.
///
/// Returns `f64::INFINITY` when the approximate run did zero work and the
/// accurate run did not; `1.0` when both did zero work.
///
/// # Example
///
/// ```
/// use opprox_approx_rt::counter::speedup;
/// assert_eq!(speedup(200, 100), 2.0);
/// assert!(speedup(100, 120) < 1.0); // approximation can slow things down
/// ```
pub fn speedup(accurate_work: u64, approximate_work: u64) -> f64 {
    if approximate_work == 0 {
        if accurate_work == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        accurate_work as f64 / approximate_work as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut w = WorkCounter::new();
        assert_eq!(w.total(), 0);
        w.add(3);
        w.add(0);
        w.add(7);
        assert_eq!(w.total(), 10);
    }

    #[test]
    fn speedup_ratio_semantics() {
        assert_eq!(speedup(100, 50), 2.0);
        assert_eq!(speedup(100, 100), 1.0);
        assert_eq!(speedup(50, 100), 0.5);
    }

    #[test]
    fn speedup_zero_work_edge_cases() {
        assert_eq!(speedup(0, 0), 1.0);
        assert_eq!(speedup(10, 0), f64::INFINITY);
        assert_eq!(speedup(0, 10), 0.0);
    }
}
