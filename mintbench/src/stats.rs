//! Order statistics over samples.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by nearest rank: the smallest
/// sample with at least `q` of the samples at or below it.  Sorts in place.
///
/// # Panics
///
/// Panics on an empty slice: every metric here has at least one sample.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median: the mean of the two middle samples when the count is even, so
/// that a median over an even number of repetitions sits between them.
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// `(max - min) / median`: how far repetitions of one run lie apart.
pub fn spread_share(samples: &mut [f64]) -> f64 {
    let mid = median(samples);
    (samples[samples.len() - 1] - samples[0]) / mid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn quantiles_by_nearest_rank() {
        let mut samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut samples, 0.50), 50.0);
        assert_eq!(quantile(&mut samples, 0.99), 99.0);
        assert_eq!(quantile(&mut samples, 1.0), 100.0);
        assert_eq!(quantile(&mut samples, 0.0), 1.0);
        assert_eq!(quantile(&mut [5.0, 9.0], 0.5), 5.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread_share(&mut [90.0, 100.0, 110.0]), 0.2);
        assert_eq!(spread_share(&mut [5.0]), 0.0);
    }
}
