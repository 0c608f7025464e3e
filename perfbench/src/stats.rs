//! Order statistics for the benchmark's reported figures.
//!
//! Every timing the benchmark reports is a median or a percentile over
//! many samples, never a single measurement. Percentiles use the
//! nearest-rank rule on the sorted samples; quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the default "exclusive" method),
//! so the spreads computed here match the ones a reader computes from
//! the printed medians.

/// Percentiles the benchmark may name, lowest first.
pub const PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples a percentile must leave above it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// How many of `n` samples lie strictly above the `p`-th percentile under
/// the nearest-rank rule.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(nearest_rank(n, p))
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples,
/// `ceil(p * n / 100)`, in integer per-mille arithmetic so that exact
/// ranks (99.9% of 10 000) do not round up.
fn nearest_rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The highest of [`PERCENTILES`] that leaves at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Whether `n` samples support reporting the `p`-th percentile.
pub fn supports(n: usize, p: f64) -> bool {
    highest_supported_percentile(n).is_some_and(|top| p <= top)
}

/// The `p`-th percentile (nearest rank) of `values`, or `None` when the
/// sample is too small to leave [`MIN_BEYOND`] samples beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if !supports(values.len(), p) {
        return None;
    }
    let sorted = sorted(values);
    sorted.get(nearest_rank(sorted.len(), p) - 1).copied()
}

/// The median of `values` (mean of the two middle samples for an even
/// count), or `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => sorted.get(n / 2).copied(),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles as `statistics.quantiles(values, n=4)`
/// computes them (exclusive method); `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    // Python's exact integer arithmetic: j = i*m // n, clamped to
    // 1..=len-1, with delta = i*m - j*n (which may exceed n after the
    // clamp, extrapolating exactly as Python does).
    let m = n + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median, the spread measure
/// the benchmark's bounds are stated in.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_picks_highest_with_ten_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_refuses_small_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(percentile(&v[..19], 50.0), None);
    }

    #[test]
    fn percentile_is_order_independent() {
        let mut v: Vec<f64> = (0..1000).map(|i| f64::from((i * 7919) % 1000)).collect();
        let p = percentile(&v, 99.0);
        v.reverse();
        assert_eq!(percentile(&v, 99.0), p);
        assert_eq!(p, Some(989.0));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = relative_spread(&v).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }
}
