//! Result types for OPPROX-vs-baseline comparisons (paper Fig. 14).

use serde::{Deserialize, Serialize};
use std::fmt;

/// One row of the OPPROX-vs-oracle comparison: an application at one QoS
/// budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Application name.
    pub app: String,
    /// QoS-degradation budget of the experiment.
    pub budget: f64,
    /// OPPROX's measured speedup.
    pub opprox_speedup: f64,
    /// OPPROX's measured QoS degradation.
    pub opprox_qos: f64,
    /// Phase-agnostic oracle's measured speedup.
    pub oracle_speedup: f64,
    /// Phase-agnostic oracle's measured QoS degradation.
    pub oracle_qos: f64,
}

impl ComparisonRow {
    /// OPPROX's speedup expressed as "% less work", the unit of the
    /// paper's headline numbers (a speedup of 1.25 does 20% less work).
    pub fn opprox_percent(&self) -> f64 {
        percent_less_work(self.opprox_speedup)
    }

    /// The oracle's speedup as "% less work".
    pub fn oracle_percent(&self) -> f64 {
        percent_less_work(self.oracle_speedup)
    }
}

impl fmt::Display for ComparisonRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} budget {:>5.1}: OPPROX {:.2}x (qos {:.2}) vs oracle {:.2}x (qos {:.2})",
            self.app,
            self.budget,
            self.opprox_speedup,
            self.opprox_qos,
            self.oracle_speedup,
            self.oracle_qos
        )
    }
}

/// Converts a work-ratio speedup into the paper's "% less work" scale:
/// `100 · (1 − 1/S)`, clamped below at large slowdowns.
pub fn percent_less_work(speedup: f64) -> f64 {
    if speedup <= 0.0 {
        return -100.0;
    }
    100.0 * (1.0 - 1.0 / speedup)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_less_work_known_values() {
        assert_eq!(percent_less_work(1.0), 0.0);
        assert!((percent_less_work(1.25) - 20.0).abs() < 1e-12);
        assert!((percent_less_work(2.0) - 50.0).abs() < 1e-12);
        assert!(percent_less_work(0.5) < 0.0);
        assert_eq!(percent_less_work(0.0), -100.0);
    }

    #[test]
    fn row_percentages_and_display() {
        let row = ComparisonRow {
            app: "LULESH".into(),
            budget: 20.0,
            opprox_speedup: 1.25,
            opprox_qos: 18.0,
            oracle_speedup: 1.1,
            oracle_qos: 19.0,
        };
        assert!((row.opprox_percent() - 20.0).abs() < 1e-9);
        assert!(row.oracle_percent() < row.opprox_percent());
        let s = row.to_string();
        assert!(s.contains("LULESH"));
        assert!(s.contains("1.25x"));
    }
}
