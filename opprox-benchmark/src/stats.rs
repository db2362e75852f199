//! Order statistics, means and digests used to summarize a run.

/// Percentiles the tail metric may report, lowest first. The ladder stops
/// at p90: a window's p99 rests on ten samples and on queueing behind
/// rare plan-cache misses, and over ten seeds on a shared 2-vCPU machine
/// its spread was about twice p90's, which moved about as much as the
/// median. A fixed top also keeps a slower commit, which completes fewer
/// operations, on the same percentile as a faster one.
const TAIL_LADDER: [f64; 2] = [50.0, 90.0];

/// Samples beyond a percentile needed before it counts as measured.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 100]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of the ladder with at least ten samples beyond
/// it; the median when even p50 has fewer than ten beyond it.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| beyond(n, *p) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0)
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`.
fn beyond(n: usize, p: f64) -> usize {
    n - (p * n as f64 / 100.0).ceil() as usize
}

/// `(percentile, value)` of an unsorted sample's tail, at the percentile
/// `tail_percentile` picks for its size.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pct = tail_percentile(sorted.len());
    (pct, percentile(&sorted, pct))
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of an empty sample");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Latency and throughput of a timed loop, each the median over
/// consecutive windows of the run, so a burst of interference on a
/// shared machine moves one window rather than the whole result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
    /// Operations per second.
    pub rate: f64,
    pub n: usize,
    pub windows: usize,
}

/// Samples per window: enough that every window's p90 has a hundred
/// samples beyond it.
pub const WINDOW_SAMPLES: usize = 1000;

/// Most windows a run is cut into.
const MAX_WINDOWS: usize = 10;

impl Windowed {
    /// Summarizes `(completion time since the loop began, latency)`
    /// samples, in seconds and in any order. Runs shorter than two
    /// windows are one window.
    pub fn of(samples: &mut [(f64, f64)]) -> Windowed {
        assert!(!samples.is_empty(), "no samples to summarize");
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        let n = samples.len();
        let windows = (n / WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
        let tail_pct = tail_percentile(n / windows);
        let (mut p50s, mut tails, mut rates) = (Vec::new(), Vec::new(), Vec::new());
        let mut prev_end = 0.0;
        for w in 0..windows {
            let chunk = &samples[w * n / windows..(w + 1) * n / windows];
            let mut lat: Vec<f64> = chunk.iter().map(|s| s.1).collect();
            lat.sort_by(f64::total_cmp);
            p50s.push(percentile(&lat, 50.0));
            tails.push(percentile(&lat, tail_pct));
            let end = chunk[chunk.len() - 1].0;
            rates.push(chunk.len() as f64 / (end - prev_end));
            prev_end = end;
        }
        Windowed {
            p50: median(&p50s),
            tail: median(&tails),
            tail_pct,
            rate: median(&rates),
            n,
            windows,
        }
    }
}

/// FNV-1a over a byte string, folded into a running digest.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The FNV-1a offset basis: the digest of nothing.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // p90 of 100 leaves 10 beyond; of 99, only 9.
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 50.0);
        // Too few samples for a p90: the median.
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
        // The ladder stops at p90 however many samples there are.
        assert_eq!(tail_percentile(10_000_000), 90.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (50.0, 2.0));
        let many: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail(&many), (90.0, 900.0));
    }

    #[test]
    fn windows_take_medians_and_shrug_off_one_bad_window() {
        // 5000 ops at 1 ms each, back to back: five windows of 1000.
        let mut samples: Vec<(f64, f64)> = (1..=5000).map(|i| (i as f64 * 1e-3, 1e-3)).collect();
        // One window suffers a stall: its ops take 10x as long.
        for s in &mut samples[1000..2000] {
            s.1 = 1e-2;
        }
        samples.reverse();
        let w = Windowed::of(&mut samples);
        assert_eq!((w.n, w.windows, w.tail_pct), (5000, 5, 90.0));
        assert_eq!((w.p50, w.tail), (1e-3, 1e-3));
        assert!((w.rate - 1000.0).abs() < 1e-6, "rate {}", w.rate);
        // Too few samples for two windows: one window, median tail.
        let mut few = vec![(1.0, 3.0), (2.0, 1.0), (3.0, 2.0)];
        let w = Windowed::of(&mut few);
        assert_eq!((w.windows, w.p50, w.tail, w.tail_pct), (1, 2.0, 2.0, 50.0));
        assert!((w.rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.5]) - 1.5).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        // Never above the arithmetic mean.
        assert!(geomean(&[1.0, 2.0, 9.0]) < mean(&[1.0, 2.0, 9.0]));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_BASIS, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a(fnv1a(FNV_BASIS, b"fo"), b"obar"),
            fnv1a(FNV_BASIS, b"foobar")
        );
    }
}
