//! Call-context logging (paper Sec. 3.3).
//!
//! During training, the instrumented application records which
//! approximable block executed in which outer-loop iteration and how much
//! work it did. OPPROX uses the logs to (a) derive the control-flow
//! signature — the sequence of unique block call contexts — that the
//! decision tree classifies over, (b) count outer-loop iterations by how
//! often that sequence repeats, and (c) attribute work to blocks and
//! phases.

use serde::{Deserialize, Serialize};

/// One log record: a block executed during an outer-loop iteration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogRecord {
    /// Outer-loop iteration index.
    pub iteration: u64,
    /// Index of the block that executed.
    pub block: usize,
    /// Work units the block performed in this call.
    pub work: u64,
}

/// An execution log of block call contexts.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CallContextLog {
    records: Vec<LogRecord>,
}

impl CallContextLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        CallContextLog {
            records: Vec::new(),
        }
    }

    /// Records that `block` executed `work` units during `iteration`.
    pub fn record(&mut self, iteration: u64, block: usize, work: u64) {
        self.records.push(LogRecord {
            iteration,
            block,
            work,
        });
    }

    /// All raw records in execution order.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// The control-flow signature: the block sequence of the first
    /// complete outer-loop iteration. Two runs that execute their blocks
    /// in a different order (e.g. FFmpeg with swapped filters) get
    /// different signatures.
    pub fn control_flow_signature(&self) -> Vec<usize> {
        let Some(first_iter) = self.records.first().map(|r| r.iteration) else {
            return Vec::new();
        };
        self.records
            .iter()
            .take_while(|r| r.iteration == first_iter)
            .map(|r| r.block)
            .collect()
    }

    /// Number of distinct outer-loop iterations observed — the paper's
    /// "how many times a call-context sequence of ABs has repeated".
    pub fn outer_iterations(&self) -> u64 {
        let mut count = 0;
        let mut last = None;
        for r in &self.records {
            if last != Some(r.iteration) {
                count += 1;
                last = Some(r.iteration);
            }
        }
        count
    }

    /// Total work attributed to `block` across the whole log.
    pub fn work_of_block(&self, block: usize) -> u64 {
        self.records
            .iter()
            .filter(|r| r.block == block)
            .map(|r| r.work)
            .sum()
    }

    /// Total work across all records.
    pub fn total_work(&self) -> u64 {
        self.records.iter().map(|r| r.work).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> CallContextLog {
        let mut log = CallContextLog::new();
        for it in 0..3u64 {
            log.record(it, 0, 10);
            log.record(it, 1, 20);
            log.record(it, 2, 5);
        }
        log
    }

    #[test]
    fn signature_is_first_iteration_sequence() {
        let log = sample_log();
        assert_eq!(log.control_flow_signature(), vec![0, 1, 2]);
        assert_eq!(
            CallContextLog::new().control_flow_signature(),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn signature_distinguishes_block_order() {
        let mut swapped = CallContextLog::new();
        swapped.record(0, 1, 20);
        swapped.record(0, 0, 10);
        assert_ne!(
            swapped.control_flow_signature(),
            sample_log().control_flow_signature()
        );
    }

    #[test]
    fn outer_iterations_count_distinct() {
        assert_eq!(sample_log().outer_iterations(), 3);
        assert_eq!(CallContextLog::new().outer_iterations(), 0);
    }

    #[test]
    fn work_attribution() {
        let log = sample_log();
        assert_eq!(log.work_of_block(1), 60);
        assert_eq!(log.work_of_block(9), 0);
        assert_eq!(log.total_work(), 105);
    }

    #[test]
    fn every_call_is_one_record() {
        assert!(CallContextLog::new().records().is_empty());
        assert_eq!(sample_log().records().len(), 9);
    }
}
