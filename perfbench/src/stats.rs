//! Order statistics used by every metric the benchmark prints.

/// Nearest-rank percentile `q` (0..=100) of `samples`; `None` when
/// there are no samples. Infinite samples (failed requests) sort last,
/// so a failure always counts as missing any latency limit.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (q * n as f64 / 100.0).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Median (nearest-rank p50); `0.0` for an empty set, which is what a
/// layer that never ran on a workload reports.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// The percentiles a tail metric may be reported at, highest first, in
/// tenths of a percent so the rank arithmetic stays exact.
const TAIL_CANDIDATES_PERMILLE: [usize; 5] = [999, 990, 900, 750, 500];

/// The highest percentile with at least ten samples beyond it among
/// p99.9, p99, p90, p75 and p50, given `n` samples; `None` when even
/// the median has fewer than ten samples above it.
///
/// A tail percentile read from fewer samples is the maximum of a
/// handful of values and swings from run to run, so the benchmark flags
/// every tail metric whose sample count falls short of its percentile.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES_PERMILLE
        .into_iter()
        .find(|pm| n - (pm * n).div_ceil(1000) >= 10)
        .map(|pm| pm as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 99.0), Some(10.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), 0.0);
        // Order of input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    }

    #[test]
    fn failures_sort_past_every_latency() {
        let mut xs = vec![1.0; 99];
        xs.push(f64::INFINITY);
        assert_eq!(percentile(&xs, 99.0), Some(1.0));
        xs.push(f64::INFINITY);
        assert_eq!(percentile(&xs, 99.0), Some(f64::INFINITY));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
