//! Order statistics for timings: nearest-rank percentiles and the rule
//! that decides which tail percentile a sample set can support.

/// Percentiles the tail rule considers, lowest first.
const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported as
/// the tail.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples: the smallest rank with at least `p` % of the samples at or
/// below it.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    let exact = p / 100.0 * n as f64;
    // Tolerate the representation error of e.g. 0.9 · 100 = 90.00000000000001.
    let rank = (exact - 1e-9).ceil();
    (rank.max(1.0) as usize).min(n)
}

/// Samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The nearest-rank percentile `p` of `samples` (any order); `None`
/// when `samples` is empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// The median of `samples`: the mean of the two middle values for an
/// even count. `None` when `samples` is empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// The highest percentile of the ladder (p50, p90, p99, p99.9) that
/// still has at least [`MIN_BEYOND`] samples beyond it among `n`
/// samples; `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(100, 90.0), 90);
        assert_eq!(nearest_rank(10, 50.0), 5);
        assert_eq!(nearest_rank(11, 50.0), 6);
        assert_eq!(nearest_rank(3, 0.1), 1);
        assert_eq!(nearest_rank(7, 100.0), 7);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_and_median_ignore_input_order() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), Some(3.0));
        assert_eq!(percentile(&v, 90.0), Some(5.0));
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&[], 50.0), None);
    }
}
