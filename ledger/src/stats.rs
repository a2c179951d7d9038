//! Order statistics behind every reported timing.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// `values` sorted ascending (NaNs last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `[q1, median, q3]` by the exclusive method: the same numbers Python's
/// `statistics.quantiles(values, n=4)` gives, so spreads computed here and
/// by any external checker agree. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        // Signed: the clamp can push `j * n` past `i * m`.
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, med, q3] = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// A tail latency: the order statistic with exactly [`TAIL_BEYOND`]
/// samples above it, the percentile that is, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Its percentile, `100 * rank / n`.
    pub percentile: f64,
    /// Number of samples.
    pub n: usize,
}

/// The highest percentile that still has at least `beyond` samples above
/// it. With `beyond` or fewer samples no such percentile exists and the
/// maximum is returned at the 100th percentile.
pub fn tail(values: &[f64], beyond: usize) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = if n > beyond { n - beyond } else { n };
    Some(Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // clamp makes the method extrapolate on tiny samples.
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 540 samples: rank 530, p98.1, with 10 larger values above it.
        let v: Vec<f64> = (1..=540).map(f64::from).collect();
        let t = tail(&v, TAIL_BEYOND).unwrap();
        assert_eq!(t.value, 530.0);
        assert_eq!(t.n, 540);
        assert!((t.percentile - 98.148).abs() < 1e-3, "{}", t.percentile);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        // 36 samples: rank 26, about p72.
        let v: Vec<f64> = (1..=36).rev().map(f64::from).collect();
        let t = tail(&v, TAIL_BEYOND).unwrap();
        assert_eq!((t.value, t.n), (26.0, 36));
        assert!((t.percentile - 72.222).abs() < 1e-3);
        // Exactly eleven samples: the minimum has ten beyond it.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v, TAIL_BEYOND).unwrap().value, 1.0);
    }

    #[test]
    fn tail_of_a_small_sample_is_the_maximum() {
        let t = tail(&[2.0, 9.0, 4.0], TAIL_BEYOND).unwrap();
        assert_eq!((t.value, t.percentile, t.n), (9.0, 100.0, 3));
        assert_eq!(tail(&[], TAIL_BEYOND), None);
    }
}
