//! Order statistics over timing samples (quantiles are
//! `kc_core::quantile`, the one the serving layer reports with).

use kc_core::quantile;

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    quantile(&sorted(values), 0.5)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Whether `samples` samples leave at least ten beyond the
/// `permille`-th percentile — below that a tail percentile is one or
/// two outliers, not a statistic.
pub fn has_ten_beyond(samples: usize, permille: usize) -> bool {
    samples * (1000 - permille) >= 10 * 1000
}

/// A latency sample set, in the samples' unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Latency {
    sorted: Vec<f64>,
}

impl Latency {
    pub fn of(values: &[f64]) -> Self {
        Self {
            sorted: sorted(values),
        }
    }

    pub fn samples(&self) -> usize {
        self.sorted.len()
    }

    pub fn p50(&self) -> f64 {
        quantile(&self.sorted, 0.5)
    }

    /// The `permille`-th percentile, if the sample supports it.
    pub fn tail(&self, permille: usize) -> Option<f64> {
        has_ten_beyond(self.samples(), permille)
            .then(|| quantile(&self.sorted, permille as f64 / 1000.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 200 samples leave exactly ten beyond p95, two beyond p99
        assert!(has_ten_beyond(200, 950));
        assert!(!has_ten_beyond(199, 950));
        assert!(!has_ten_beyond(200, 990));
        assert!(has_ten_beyond(100, 900));
        assert!(!has_ten_beyond(99, 900));
        assert!(has_ten_beyond(1000, 990));
        assert!(!has_ten_beyond(3, 500));
    }

    #[test]
    fn latency_reports_only_supported_tails() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let l = Latency::of(&v);
        assert_eq!(l.samples(), 200);
        assert_eq!(l.p50(), 100.5);
        // interpolated between the ranks either side of 0.95 * 199
        assert!((l.tail(950).unwrap() - 190.05).abs() < 1e-9);
        assert!(l.tail(900).is_some());
        assert_eq!(l.tail(990), None);
    }
}
