//! Order statistics for the harness: median, quartiles, and the tail rule
//! "the highest percentile that still has ten samples beyond it".
//!
//! Written here, and tested on hand-computed vectors, because the
//! workspace's `criterion` stand-in has never been validated.

/// Ascending copy of `values`. Timings are finite, so `total_cmp` orders
/// them as numbers.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an ascending, non-empty slice: the middle value, or the mean of
/// the two middle values.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of an unordered, non-empty slice.
pub fn median(values: &[f64]) -> f64 {
    median_sorted(&sorted(values))
}

/// First and third quartile of an ascending slice, by the rule Python's
/// `statistics.quantiles(values, n=4)` uses (its default "exclusive"
/// method), so a spread computed here agrees with one computed there.
/// Fewer than two samples have no spread: both quartiles are the sample.
pub fn quartiles_sorted(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    assert!(n > 0, "quartiles of no samples");
    if n < 2 {
        return (sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // `delta` may exceed 4 or go negative once `j` is clamped; Python
        // extrapolates there and so does this.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest percentile with at least ten samples beyond it, and the
/// sample at it: with `n` ascending samples that is `sorted[n − 11]`, the
/// `100·(n − 10)/n`-th percentile. `None` below eleven samples, where no
/// percentile qualifies.
pub fn tail_sorted(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    (n >= 11).then(|| (100.0 * (n - 10) as f64 / n as f64, sorted[n - 11]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_sorted(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles_sorted(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles_sorted(&[10.0, 20.0]), (7.5, 22.5));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles_sorted(&[1.0, 2.0, 3.0]), (1.0, 3.0));
    }

    #[test]
    fn quartiles_of_unordered_input_after_sorting_and_of_one_sample() {
        let v = sorted(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        let (q1, q3) = quartiles_sorted(&v);
        assert_eq!(q3 - q1, 5.5);
        assert_eq!(quartiles_sorted(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_sorted(&ten), None);
        // 11 samples: only the smallest has ten beyond it (the 1/11 mark).
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_sorted(&eleven), Some((100.0 / 11.0, 1.0)));
        // 100 samples 1..=100: the 90th percentile, value 90, with 91..=100
        // beyond it.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_sorted(&hundred), Some((90.0, 90.0)));
        // 1000 samples: p99.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_sorted(&thousand), Some((99.0, 990.0)));
    }
}
