//! Estimators the benchmark reports with: medians, quartiles and the
//! highest tail percentile a sample supports. Percentiles come from
//! `nt_bench::stats::percentile`, the repository's one nearest-rank
//! implementation; quartiles follow Python's `statistics.quantiles(n=4)`
//! ("exclusive" method), so the spread this program prints is the spread
//! a reader recomputes from its raw values.

use nt_bench::stats::percentile;

/// Tail percentiles tried from the highest down by [`supported_tail`].
pub const TAIL_LADDER: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// Samples that must lie beyond a reported percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median (nearest rank; 0 on empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// `(q1, q2, q3)` as Python's `statistics.quantiles(xs, n=4)` computes
/// them. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1), q(2), q(3)))
}

/// Samples strictly greater than the `p`-percentile of `xs`.
pub fn beyond(xs: &[f64], p: f64) -> usize {
    let cut = percentile(xs, p);
    xs.iter().filter(|&&x| x > cut).count()
}

/// Whether the `p`-percentile of `xs` has at least [`TAIL_MIN_BEYOND`]
/// samples beyond it.
pub fn supports(xs: &[f64], p: f64) -> bool {
    beyond(xs, p) >= TAIL_MIN_BEYOND
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, with its value.
pub fn supported_tail(xs: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER.iter().find(|&&p| supports(xs, p)).map(|&p| (p, percentile(xs, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
        // Nearest rank: an even sample reports one of its middle values.
        let m = median(&[4.0, 1.0, 3.0, 2.0]);
        assert!(m == 2.0 || m == 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([7, 1, 3, 5], n=4) == [1.5, 4.0, 6.5]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0, 5.0]), Some((1.5, 4.0, 6.5)));
        // statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]: the
        // exclusive method extrapolates past the ends of tiny samples.
        assert_eq!(quartiles(&[2.0, 4.0]), Some((1.5, 3.0, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 distinct samples: p99 has 10 beyond, p99.9 only 1.
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(beyond(&xs, 0.99), 10);
        assert!(supports(&xs, 0.99));
        assert!(!supports(&xs, 0.999));
        assert_eq!(supported_tail(&xs), Some((0.99, 989.0)));
        // 50 samples: p90 has 5 beyond, so only the median qualifies.
        let small: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(supported_tail(&small).map(|t| t.0), Some(0.5));
        // Ties at the cut do not count as beyond.
        let flat = vec![1.0; 500];
        assert_eq!(supported_tail(&flat), None);
        // 20_000 samples support p99.9 (20 beyond).
        let big: Vec<f64> = (0..20_000).map(f64::from).collect();
        assert_eq!(supported_tail(&big).map(|t| t.0), Some(0.999));
    }
}
