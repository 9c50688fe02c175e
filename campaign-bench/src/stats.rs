//! Order statistics of sample sets.

/// The median of `values` (mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The `p`-th percentile of `values` by linear interpolation between order
/// statistics; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The highest of the usual tail percentiles that has at least ten samples
/// beyond it, with its value; `None` when even p75 has fewer.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| values.len() as f64 * (100.0 - p) / 100.0 >= 10.0)
        .and_then(|p| Some((p, percentile(values, p)?)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 75.0), Some(4.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&values).map(|(p, _)| p), Some(99.0));
        assert_eq!(tail(&values[..100]).map(|(p, _)| p), Some(90.0));
        assert_eq!(tail(&values[..39]), None);
    }
}
