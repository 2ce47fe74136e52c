//! Summaries of timing samples: the median plus the highest percentile
//! that has at least [`TAIL_SAMPLES`] samples beyond it.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Tail percentiles considered, highest first (capped at the p99 the
/// metric names promise).
const TAIL_CANDIDATES: [f64; 3] = [99.0, 90.0, 50.0];

/// A summary of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// The highest supported tail percentile, e.g. `99.0`.
    pub tail_pct: f64,
    /// Its value (nearest rank).
    pub tail: f64,
}

/// The highest candidate percentile with at least [`TAIL_SAMPLES`]
/// samples beyond it: p99 needs 1000 samples, p90 needs 100; below that
/// the median is the highest supported percentile.
pub fn tail_percentile(count: usize) -> f64 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|p| count as f64 * (100.0 - p) / 100.0 >= TAIL_SAMPLES as f64 - 1e-9)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summarises `samples` (any order). An empty set summarises to zeros.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_pct = tail_percentile(sorted.len());
    Summary {
        count: sorted.len(),
        p50: percentile(&sorted, 50.0),
        tail_pct,
        tail: percentile(&sorted, tail_pct),
    }
}

/// The smallest sample, for a repeated job of fixed work; an empty set
/// gives 0.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Median of a small set (repeated set-ups, jobs, rounds): the middle
/// sample, or the mean of the two middle samples of an even count, so
/// that every sample of a two-round run counts. An empty set gives 0.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(5000), 99.0);
        assert_eq!(
            tail_percentile(100_000),
            99.0,
            "capped at the p99 the metrics name"
        );
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);
        // Ten samples (991..=1000) lie beyond the reported p99.
        assert_eq!(xs.iter().filter(|&&x| x > s.tail).count(), TAIL_SAMPLES);
    }

    #[test]
    fn median_of_an_even_count_is_the_mean_of_the_middle_two() {
        assert_eq!(median(&[17.0, 11.0]), 14.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fastest_is_the_smallest_sample() {
        assert_eq!(fastest(&[1.2, 0.9, 1.1]), 0.9);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn small_sets_report_the_supported_percentile() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p50, s.tail_pct, s.tail), (2.0, 50.0, 2.0));
        assert_eq!(summarize(&[]).count, 0);
    }
}
