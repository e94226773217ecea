//! Sample statistics: nearest-rank percentiles and the rule that a
//! percentile is reported only with at least ten samples beyond it.

/// Samples a percentile needs beyond itself before it is reported.
pub const SAMPLES_BEYOND: f64 = 10.0;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` percent of the samples at or below it.
/// `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// Whether `n` samples support percentile `p`: at least ten samples
/// lie beyond it (p95 needs 200, p99 needs 1000, the median 20).
pub fn supported(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= SAMPLES_BEYOND - 1e-9
}

/// Median, p95 and p99 of one timing series, each present only when
/// the sample count supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: Option<f64>,
    /// 95th percentile.
    pub p95: Option<f64>,
    /// 99th percentile (information only; never gated).
    pub p99: Option<f64>,
}

impl Summary {
    /// Summarize a series (any order).
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |p: f64| {
            if supported(sorted.len(), p) {
                percentile(&sorted, p)
            } else {
                None
            }
        };
        Summary {
            n: sorted.len(),
            p50: at(50.0),
            p95: at(95.0),
            p99: at(99.0),
        }
    }
}

/// Nearest-rank percentile of an unsorted series regardless of its
/// length (0.0 when empty) — the reported metrics, which are printed
/// even at smoke scale.
pub fn series_percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p).unwrap_or(0.0)
}

/// Median of an unsorted series (0.0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    series_percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 95.0), Some(10.0));
        assert_eq!(percentile(&s, 10.0), Some(1.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 95.0), Some(190.0));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert!(!supported(199, 95.0));
        assert!(supported(200, 95.0));
        assert!(!supported(999, 99.0));
        assert!(supported(1000, 99.0));
        assert!(!supported(19, 50.0));
        assert!(supported(20, 50.0));
    }

    #[test]
    fn p95_refused_below_200_samples() {
        let few: Vec<f64> = (0..199).map(f64::from).collect();
        let s = Summary::of(&few);
        assert_eq!(s.n, 199);
        assert!(s.p50.is_some());
        assert_eq!(s.p95, None);
        let enough: Vec<f64> = (0..200).rev().map(f64::from).collect();
        let s = Summary::of(&enough);
        assert_eq!(s.p95, Some(189.0));
        assert_eq!(s.p99, None);
    }

    #[test]
    fn median_of_any_length() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
