//! Exact quantiles over raw samples.
//!
//! Samples are kept raw (no buckets), so a quantile is one of the measured
//! values. A percentile is reported only when at least [`MIN_BEYOND`]
//! samples lie beyond it; otherwise the tail it names was not observed
//! often enough to mean anything.

/// Samples that must lie strictly above a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100]`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 100.0, "percentile must lie in (0, 100]");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The plain median (mean of the middle pair for an even count), for
/// summarising a handful of repeated whole measurements such as set-up
/// times. Unlike [`percentile`] it does not describe a tail, so it has no
/// sample-count rule.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `p50`/`p99`-style summary text with the sample count, e.g.
/// `p50 1.204 ms, p99 n/a (n=40)`.
pub fn describe(samples: &[f64], percentiles: &[f64], unit: &str) -> String {
    let parts: Vec<String> = percentiles
        .iter()
        .map(|&p| match percentile(samples, p) {
            Some(v) => format!("p{p} {v:.3} {unit}"),
            None => format!("p{p} n/a"),
        })
        .collect();
    format!("{} (n={})", parts.join(", "), samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_a_measured_value_by_nearest_rank() {
        let samples: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(20.0));
        assert_eq!(percentile(&samples, 75.0), Some(30.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 beyond rank 990.
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Some(989.0));
        // One fewer sample leaves only 9 beyond it.
        assert_eq!(percentile(&thousand[..999], 99.0), None);
        // The median needs 20 samples: 10 at or below, 10 beyond.
        assert_eq!(percentile(&thousand[..20], 50.0), Some(9.0));
        assert_eq!(percentile(&thousand[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_whole_measurements() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn describe_states_the_sample_count() {
        let samples: Vec<f64> = (0..30).map(f64::from).collect();
        assert_eq!(
            describe(&samples, &[50.0, 99.0], "ms"),
            "p50 14.000 ms, p99 n/a (n=30)"
        );
    }
}
