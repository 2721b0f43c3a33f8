//! Order statistics over the samples a run collects.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted`, interpolating linearly
/// between the two nearest ranks. Zero for an empty slice.
pub fn quantile_sorted<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let (a, b): (f64, f64) = (sorted[lo].into(), sorted[(lo + 1).min(last)].into());
    a + (b - a) * (pos - lo as f64)
}

/// Sorts `values` in place and returns its `q`-quantile.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, q)
}

/// The median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), which is what the driver applies to a set of runs.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |k: usize| {
        // Exclusive method: the k-th of 4 cut points sits at rank
        // k(n+1)/4, counted from 1, clamped to the sample.
        // With fewer than three values the clamp makes the share
        // negative or above one, and Python extrapolates likewise.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
        // 101 samples 0..=100: the p99 is exactly 99.
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
    }

    #[test]
    fn integer_samples_use_the_same_rule() {
        let ns = [1_000u32, 2_000, 4_000];
        assert_eq!(quantile_sorted(&ns, 0.5), 2_000.0);
        assert_eq!(quantile_sorted(&ns, 0.75), 3_000.0);
        assert_eq!(quantile_sorted::<u32>(&[], 0.99), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        assert_eq!(quartiles(&[2.0]), (2.0, 2.0, 2.0));
    }
}
