//! Order statistics over op times.

/// The percentile reported as the tail: the highest of 99, 98, ..., 50
/// that still has at least ten samples beyond it (99 from 1000 samples
/// on). `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99u32)
        .rev()
        .find(|p| n as f64 * (100 - p) as f64 / 100.0 >= 10.0)
}

/// Nearest-rank percentile `p` (0..=100) of `sorted` (ascending).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(5000), Some(99));
        assert_eq!(tail_percentile(500), Some(98));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn medians_and_ratios() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
