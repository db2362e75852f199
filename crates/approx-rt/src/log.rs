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
///
/// A record is 16 bytes: the evaluator cache keeps one log per execution,
/// so the log's width is a large share of training's memory. Iteration
/// and block indices are stored as `u32`; [`CallContextLog::record`]
/// refuses larger ones.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogRecord {
    /// Outer-loop iteration index.
    pub iteration: u32,
    /// Index of the block that executed.
    pub block: u32,
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
    ///
    /// # Panics
    ///
    /// If `iteration` or `block` exceeds `u32::MAX`, the largest index a
    /// [`LogRecord`] stores.
    pub fn record(&mut self, iteration: u64, block: usize, work: u64) {
        self.records.push(LogRecord {
            iteration: u32::try_from(iteration)
                .expect("call-context log: iteration index exceeds u32::MAX"),
            block: u32::try_from(block).expect("call-context log: block index exceeds u32::MAX"),
            work,
        });
    }

    /// Releases the slack capacity a growing log leaves behind.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.records.shrink_to_fit();
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
            .map(|r| r.block as usize)
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
            .filter(|r| r.block as usize == block)
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

    #[test]
    fn a_record_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<LogRecord>(), 16);
    }

    #[test]
    fn largest_indices_are_stored_exactly() {
        let mut log = CallContextLog::new();
        log.record(u64::from(u32::MAX), 0, 1);
        log.record(0, u32::MAX as usize, u64::MAX);
        assert_eq!(log.records()[0].iteration, u32::MAX);
        assert_eq!(log.records()[1].block, u32::MAX);
        assert_eq!(log.records()[1].work, u64::MAX);
        assert_eq!(log.work_of_block(u32::MAX as usize), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "call-context log: iteration index exceeds u32::MAX")]
    fn an_iteration_past_the_limit_panics() {
        CallContextLog::new().record(u64::from(u32::MAX) + 1, 0, 1);
    }

    #[test]
    #[should_panic(expected = "call-context log: block index exceeds u32::MAX")]
    fn a_block_past_the_limit_panics() {
        CallContextLog::new().record(0, u32::MAX as usize + 1, 1);
    }

    /// The serialized form is the one the 24-byte record had: the same
    /// field names and numbers.
    #[test]
    fn serde_form_is_unchanged() {
        let mut log = CallContextLog::new();
        log.record(3, 1, 20);
        log.record(u64::from(u32::MAX), u32::MAX as usize, u64::MAX);
        let json = serde_json::to_string(&log).unwrap();
        assert_eq!(
            json,
            r#"{"records":[{"iteration":3,"block":1,"work":20},{"iteration":4294967295,"block":4294967295,"work":18446744073709551615}]}"#
        );
        let back: CallContextLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back, log);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
