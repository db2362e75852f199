//! Approximation-level configurations and configuration-space enumeration.

use crate::block::BlockDescriptor;
use crate::error::RuntimeError;
use rand_like::SimpleRng;
use serde::{Deserialize, Serialize};

/// An assignment of one approximation level per approximable block.
///
/// # Example
///
/// ```
/// use opprox_approx_rt::LevelConfig;
///
/// let accurate = LevelConfig::accurate(3);
/// assert!(accurate.is_accurate());
/// let cfg = LevelConfig::new(vec![0, 2, 5]);
/// assert_eq!(cfg.level(2), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LevelConfig {
    levels: Vec<u8>,
}

impl LevelConfig {
    /// Creates a configuration from explicit levels.
    pub fn new(levels: Vec<u8>) -> Self {
        LevelConfig { levels }
    }

    /// The all-zero (accurate) configuration for `num_blocks` blocks.
    pub fn accurate(num_blocks: usize) -> Self {
        LevelConfig {
            levels: vec![0; num_blocks],
        }
    }

    /// Number of blocks the configuration covers.
    pub fn num_blocks(&self) -> usize {
        self.levels.len()
    }

    /// The level assigned to block `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn level(&self, block: usize) -> u8 {
        self.levels[block]
    }

    /// All levels, in block order.
    pub fn levels(&self) -> &[u8] {
        &self.levels
    }

    /// Whether every block runs accurately.
    pub fn is_accurate(&self) -> bool {
        self.levels.iter().all(|&l| l == 0)
    }

    /// Returns a copy with block `block` set to `level`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn with_level(&self, block: usize, level: u8) -> LevelConfig {
        let mut levels = self.levels.clone();
        levels[block] = level;
        LevelConfig { levels }
    }

    /// Validates the configuration against block descriptors: the first
    /// of its [`violations`](Self::violations), as an error.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::BlockCountMismatch`] on a length mismatch.
    /// * [`RuntimeError::LevelOutOfRange`] if any level exceeds its
    ///   block's maximum.
    pub fn validate(&self, blocks: &[BlockDescriptor]) -> Result<(), RuntimeError> {
        match self.violations(blocks).first() {
            None => Ok(()),
            Some(&LevelViolation::BlockCount { expected, actual }) => {
                Err(RuntimeError::BlockCountMismatch { expected, actual })
            }
            Some(&LevelViolation::Level { block, level, max }) => {
                Err(RuntimeError::LevelOutOfRange {
                    block: blocks[block].name.clone(),
                    level,
                    max,
                })
            }
        }
    }

    /// Every way the configuration fails `blocks`: the block-count
    /// mismatch first, if there is one, then each out-of-range level over
    /// the blocks both sides have, in block order. Empty when the
    /// configuration is executable against `blocks`.
    pub fn violations(&self, blocks: &[BlockDescriptor]) -> Vec<LevelViolation> {
        let mut found = Vec::new();
        if self.levels.len() != blocks.len() {
            found.push(LevelViolation::BlockCount {
                expected: blocks.len(),
                actual: self.levels.len(),
            });
        }
        for (block, (&level, d)) in self.levels.iter().zip(blocks).enumerate() {
            if level > d.max_level {
                let max = d.max_level;
                found.push(LevelViolation::Level { block, level, max });
            }
        }
        found
    }
}

/// One way a [`LevelConfig`] fails a block set; see
/// [`LevelConfig::violations`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelViolation {
    /// The configuration sets `actual` block levels; the block set has
    /// `expected` blocks.
    BlockCount {
        /// Blocks in the block set.
        expected: usize,
        /// Levels the configuration sets.
        actual: usize,
    },
    /// Block index `block` is set to `level`, above its maximum `max`.
    Level {
        /// Index of the block in the block set.
        block: usize,
        /// The offending level.
        level: u8,
        /// The block's maximum level.
        max: u8,
    },
}

/// Enumerates the full cartesian level space of the given blocks:
/// every combination of `0..=max_level` per block, accurate config
/// first, block 0 varying fastest (ascending mixed-radix count).
///
/// The space can be large (the paper reports up to ~2M combinations for
/// Bodytrack), so enumeration is lazy: configurations are produced one
/// odometer step at a time and the full space is never materialized.
/// Collect only when a `Vec` is genuinely needed, or prefer
/// [`sample_configs`] for sparse sampling.
pub fn enumerate_configs(blocks: &[BlockDescriptor]) -> ConfigEnumerator<'_> {
    ConfigEnumerator {
        blocks,
        current: vec![0u8; blocks.len()],
        started: false,
    }
}

/// Lazy iterator over the cartesian level space; see
/// [`enumerate_configs`].
#[derive(Debug, Clone)]
pub struct ConfigEnumerator<'a> {
    blocks: &'a [BlockDescriptor],
    current: Vec<u8>,
    started: bool,
}

impl Iterator for ConfigEnumerator<'_> {
    type Item = LevelConfig;

    fn next(&mut self) -> Option<LevelConfig> {
        if !self.started {
            self.started = true;
            return Some(LevelConfig::accurate(self.blocks.len()));
        }
        // Odometer increment over the mixed-radix level space. Once every
        // position sits at its maximum the scan falls off the end and the
        // iterator stays exhausted.
        let mut pos = 0;
        loop {
            if pos == self.blocks.len() {
                return None;
            }
            if self.current[pos] < self.blocks[pos].max_level {
                self.current[pos] += 1;
                for c in self.current.iter_mut().take(pos) {
                    *c = 0;
                }
                break;
            }
            pos += 1;
        }
        Some(LevelConfig::new(self.current.clone()))
    }
}

/// Total number of level combinations without materializing them.
/// Saturates at `u64::MAX` on pathological block counts (e.g. 64 blocks
/// of 4 levels is 2^128 combinations) instead of overflowing; callers
/// compare the result against enumeration limits, so a saturated size is
/// refused like any other space over the limit.
pub fn config_space_size(blocks: &[BlockDescriptor]) -> u64 {
    blocks
        .iter()
        .fold(1u64, |acc, b| acc.saturating_mul(b.num_levels() as u64))
}

/// Draws `count` random sparse configurations (paper Sec. 3.3: "random
/// sparse samples ... where approximation levels in all the ABs are
/// arbitrarily set"). Deterministic for a given seed. The accurate
/// configuration is never returned.
pub fn sample_configs(blocks: &[BlockDescriptor], count: usize, seed: u64) -> Vec<LevelConfig> {
    let mut rng = SimpleRng::new(seed);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let levels: Vec<u8> = blocks
            .iter()
            .map(|b| (rng.next_u64() % (b.max_level as u64 + 1)) as u8)
            .collect();
        let cfg = LevelConfig::new(levels);
        if !cfg.is_accurate() {
            out.push(cfg);
        }
    }
    out
}

/// Enumerates the *local* sweep for one block: every nonzero level for
/// `block`, all other blocks accurate (paper Sec. 3.3: exhaustive
/// per-block coverage for local models).
pub fn local_sweep(blocks: &[BlockDescriptor], block: usize) -> Vec<LevelConfig> {
    (1..=blocks[block].max_level)
        .map(|l| LevelConfig::accurate(blocks.len()).with_level(block, l))
        .collect()
}

/// A tiny deterministic xorshift RNG so this crate does not need a `rand`
/// dependency; quality is irrelevant here (it only spreads samples).
mod rand_like {
    /// Deterministic xorshift64* generator.
    #[derive(Debug, Clone)]
    pub(crate) struct SimpleRng(u64);

    impl SimpleRng {
        /// Seeds the generator (zero is mapped to a fixed odd constant).
        pub(crate) fn new(seed: u64) -> Self {
            SimpleRng(if seed == 0 { 0x9E3779B97F4A7C15 } else { seed })
        }

        /// Next pseudo-random 64-bit value.
        pub(crate) fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::TechniqueKind;

    fn blocks() -> Vec<BlockDescriptor> {
        vec![
            BlockDescriptor::new("a", TechniqueKind::LoopPerforation, 2),
            BlockDescriptor::new("b", TechniqueKind::Memoization, 1),
        ]
    }

    #[test]
    fn accurate_config_is_all_zero() {
        let c = LevelConfig::accurate(3);
        assert!(c.is_accurate());
        assert_eq!(c.levels(), &[0, 0, 0]);
        assert!(!c.with_level(1, 2).is_accurate());
    }

    #[test]
    fn validate_catches_shape_and_range() {
        let bs = blocks();
        assert!(LevelConfig::new(vec![0]).validate(&bs).is_err());
        assert!(LevelConfig::new(vec![0, 2]).validate(&bs).is_err());
        assert!(LevelConfig::new(vec![2, 1]).validate(&bs).is_ok());
    }

    #[test]
    fn enumerate_covers_full_space_once() {
        let bs = blocks();
        let all: Vec<LevelConfig> = enumerate_configs(&bs).collect();
        assert_eq!(all.len(), 6); // 3 * 2
        assert_eq!(all.len() as u64, config_space_size(&bs));
        let mut set = std::collections::HashSet::new();
        for c in &all {
            assert!(set.insert(c.clone()), "duplicate {c:?}");
            assert!(c.validate(&bs).is_ok());
        }
        assert!(all[0].is_accurate());
    }

    #[test]
    fn space_size_matches_paper_style_products() {
        // 4 blocks with 6 levels each -> 1296 combos per phase.
        let bs: Vec<BlockDescriptor> = (0..4)
            .map(|i| BlockDescriptor::new(format!("b{i}"), TechniqueKind::LoopPerforation, 5))
            .collect();
        assert_eq!(config_space_size(&bs), 1296);
    }

    #[test]
    fn enumeration_is_lazy_and_stays_exhausted() {
        let bs = blocks();
        let mut it = enumerate_configs(&bs);
        assert!(it.next().unwrap().is_accurate());
        assert_eq!(it.by_ref().count(), 5);
        assert_eq!(it.next(), None, "exhausted enumerator must stay empty");
    }

    #[test]
    fn space_size_saturates_on_pathological_block_counts() {
        // 64 blocks of 4 levels each is 2^128 combinations: far past
        // u64. The size must saturate, not wrap to something small that
        // would trick the optimizer into exhaustive enumeration.
        let bs: Vec<BlockDescriptor> = (0..64)
            .map(|i| BlockDescriptor::new(format!("b{i}"), TechniqueKind::LoopPerforation, 3))
            .collect();
        assert_eq!(config_space_size(&bs), u64::MAX);
        // A single block past 2^64 levels is impossible (levels are u8),
        // but a long chain of modest blocks must still be monotone:
        // adding a block never shrinks the reported size.
        let mut prev = 1u64;
        for n in 1..=64 {
            let size = config_space_size(&bs[..n]);
            assert!(size >= prev, "size shrank at {n} blocks");
            prev = size;
        }
    }

    #[test]
    fn samples_are_deterministic_valid_and_nonaccurate() {
        let bs = blocks();
        let s1 = sample_configs(&bs, 20, 7);
        let s2 = sample_configs(&bs, 20, 7);
        assert_eq!(s1, s2);
        for c in &s1 {
            assert!(c.validate(&bs).is_ok());
            assert!(!c.is_accurate());
        }
        assert_ne!(sample_configs(&bs, 20, 8), s1);
    }

    #[test]
    fn local_sweep_touches_only_one_block() {
        let bs = blocks();
        let sweep = local_sweep(&bs, 0);
        assert_eq!(sweep.len(), 2); // levels 1, 2
        for (i, c) in sweep.iter().enumerate() {
            assert_eq!(c.level(0), i as u8 + 1);
            assert_eq!(c.level(1), 0);
        }
    }
}
