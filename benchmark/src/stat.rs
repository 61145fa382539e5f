//! Order statistics and the exponent fit.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[percentile_index(sorted.len(), p)]
}

/// Index selected by [`percentile`]; `len - 1 - index` samples lie beyond.
pub fn percentile_index(len: usize, p: f64) -> usize {
    assert!(len > 0, "percentile of an empty sample");
    let rank = (p * len as f64).ceil() as usize;
    rank.clamp(1, len) - 1
}

/// The smallest sample: the estimator for anything that repeats identical
/// work, where noise can only add time (see `run.rs`).
pub fn least(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartile cut points exactly as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them — the rule the benchmark
/// contract uses to judge run-to-run spread.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the contract's spread.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Largest distance of any sample from the median, as a share of it.
pub fn max_rel_spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    values
        .iter()
        .map(|v| (v - m).abs() / m.abs())
        .fold(0.0, f64::max)
}

/// Least-squares slope of `log2(y)` against `log2(x)`: the measured exponent
/// of a work curve (the paper's N^{3/2}-vs-N² separations as numbers).
pub fn fit_exponent(points: &[(f64, f64)]) -> f64 {
    let k = points.len() as f64;
    assert!(points.len() >= 2, "need at least two points to fit");
    let (mut sx, mut sy, mut sxx, mut sxy) = (0f64, 0f64, 0f64, 0f64);
    for &(x, y) in points {
        let (x, y) = (x.log2(), y.max(1.0).log2());
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    (k * sxy - sx * sy) / (k * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 200.0);
        assert_eq!(percentile(&v, 0.95), 380.0);
        assert_eq!(v.len() - 1 - percentile_index(v.len(), 0.95), 20);
        assert_eq!(percentile(&v, 1.0), 400.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        // 21 samples: p95 is the 20th, one sample beyond.
        let w: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.95), 20.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(least([3.0, 1.0, 2.0]), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(iqr_share(&v), 1.0);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        assert_eq!(max_rel_spread(&[90.0, 100.0, 120.0]), 0.2);
        assert_eq!(max_rel_spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn exponent_fit_recovers_power_laws() {
        let quad: Vec<(f64, f64)> = (4..10).map(|k| (2f64.powi(k), 4f64.powi(k))).collect();
        assert!((fit_exponent(&quad) - 2.0).abs() < 1e-9);
        let three_halves: Vec<(f64, f64)> = (2..8).map(|k| (4f64.powi(k), 8f64.powi(k))).collect();
        assert!((fit_exponent(&three_halves) - 1.5).abs() < 1e-9);
    }
}
