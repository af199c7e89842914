//! Order statistics shared by the benchmark and the comparison tool.

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p`% of the samples at or below it. `None` on an
/// empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `values` ascending (NaN-free input) and returns them.
#[must_use]
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median with the midpoint rule for even counts (Python's
/// `statistics.median`). `None` on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method). `None` with fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values.to_vec());
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative for the clamped low cut of tiny samples: Python
        // extrapolates there, and so must this.
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_wrap)]
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread each end-to-end metric is held to.
#[must_use]
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        let small = [3.0, 5.0, 7.0, 9.0, 11.0];
        assert_eq!(percentile(&small, 50.0), Some(7.0));
        assert_eq!(percentile(&small, 99.0), Some(11.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_uses_midpoint_for_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from `statistics.quantiles(v, n=4)`.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[7.0, 1.0]), Some((-0.5, 8.5)));
        let q = quartiles(&[10.0, 12.0, 11.0, 15.0, 13.0, 14.0, 9.0]).expect("seven values");
        assert_eq!(q, (10.0, 14.0));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = relative_spread(&ten).expect("defined");
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }
}
