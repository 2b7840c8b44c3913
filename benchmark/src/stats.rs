//! Order statistics and the pass digest.

use datasync_serve::hash;

/// A tail percentile is only reported with at least this many samples
/// beyond it; fewer, and it is a reading of a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail metric may name, ascending.
pub const LADDER: [u32; 4] = [50, 75, 90, 99];

/// Nearest-rank position (0-based) of percentile `pct` among `n` sorted
/// samples.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).clamp(1, n) - 1
}

/// Samples strictly beyond percentile `pct` among `n`.
pub fn samples_beyond(n: usize, pct: u32) -> usize {
    n - 1 - rank(n, pct)
}

/// The highest ladder percentile, no higher than `cap`, that keeps
/// [`MIN_BEYOND`] samples beyond it. `cap` fixes a workload's tail
/// percentile so that a faster program, which completes more ops in the
/// same seconds, does not silently switch to a harsher one. Falls back
/// to the median when even that has too few samples.
pub fn pick_tail(n: usize, cap: u32) -> u32 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&pct| pct <= cap && n > 0 && samples_beyond(n, pct) >= MIN_BEYOND)
        .unwrap_or(50)
}

/// Percentile `pct` of `sorted` (ascending, non-empty) by nearest rank.
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    sorted[rank(sorted.len(), pct)]
}

/// Sorts in place and returns the median; 0 for no samples.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    percentile(values, 50)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or 0 when the denominator is 0 (a layer that was not
/// reached reports 0, not NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Running FNV-1a digest of what a pass produced, so two passes (or two
/// runs) can be compared with one number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(hash::fnv1a_seed())
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.0 = hash::fold(hash::fold(self.0, b), b"\n");
    }

    pub fn num(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_never_has_fewer_than_ten_samples_beyond_it() {
        for n in 1..5000 {
            for cap in LADDER {
                let pct = pick_tail(n, cap);
                assert!(pct <= cap.max(50));
                assert!(
                    pct == 50 || samples_beyond(n, pct) >= MIN_BEYOND,
                    "n={n} cap={cap} picked p{pct} with {} beyond",
                    samples_beyond(n, pct)
                );
            }
        }
        // The thresholds a reader expects: p90 from 100 samples on, p99
        // from 1000 on, and never above the workload's cap.
        assert_eq!(pick_tail(99, 99), 75);
        assert_eq!(pick_tail(110, 99), 90);
        assert_eq!(pick_tail(1100, 99), 99);
        assert_eq!(pick_tail(1100, 75), 75);
        assert_eq!(pick_tail(5, 99), 50);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(samples_beyond(100, 90), 10);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn the_digest_is_stable_and_order_sensitive() {
        let mut a = Digest::new();
        a.bytes(b"cell");
        a.num(7);
        let mut b = Digest::new();
        b.bytes(b"cell");
        b.num(7);
        assert_eq!(a, b);
        let mut c = Digest::new();
        c.num(7);
        c.bytes(b"cell");
        assert_ne!(a, c);
    }
}
