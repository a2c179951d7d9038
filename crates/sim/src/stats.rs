//! Statistics accumulators used to aggregate simulation runs.
//!
//! The paper repeats every barrier simulation 100 times and reports the mean,
//! verifying that the standard deviation stays below about 7 % of the mean.
//! [`OnlineStats`] implements Welford's numerically stable online algorithm
//! so sweeps can accumulate arbitrarily many runs without storing them, and
//! [`Histogram`] provides the integer-binned histograms behind Figures 1
//! and 3.

use std::fmt;

/// Online mean/variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use abs_sim::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation, or +inf when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation, or -inf when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Population variance (divides by `n`), or 0.0 for fewer than one
    /// observation.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by `n - 1`), or 0.0 for fewer than two
    /// observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Sample standard deviation divided by the mean (coefficient of
    /// variation). The paper's methodology claim is that this stays below
    /// roughly 7 % over 100 runs.
    ///
    /// Returns 0.0 when the mean is zero.
    pub fn coefficient_of_variation(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.sample_std_dev() / m
        }
    }

    /// Approximate half-width of the 95 % confidence interval of the mean
    /// (normal approximation, `1.96 * s / sqrt(n)`).
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            1.96 * self.sample_std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Freezes the accumulator into a [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            std_dev: self.sample_std_dev(),
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

/// The `q`-quantile of `values` by the **nearest-rank** method
/// (`q` in `[0, 1]`), or 0.0 when empty. Non-finite values are ignored.
///
/// Nearest rank is the classic conservative definition: the smallest
/// element such that at least `q · n` elements are ≤ it
/// (rank `⌈q · n⌉`, 1-based). Unlike interpolating definitions it always
/// returns an observed value, which is what the latency tables want — a
/// "p99 of 340 cycles" that no request actually experienced is not
/// reportable.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use abs_sim::stats::quantile;
/// let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
/// assert_eq!(quantile(&v, 0.5), 5.0); // rank ⌈0.5·10⌉ = 5
/// assert_eq!(quantile(&v, 0.95), 10.0); // rank ⌈9.5⌉ = 10
/// assert_eq!(quantile(&v, 0.0), 1.0); // by convention: the minimum
/// ```
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let [value] = nearest_ranks(values, [q]);
    value
}

/// The nearest-rank quantiles of `values` at every `qs[i]`, from one sort:
/// entry `i` equals [`quantile`]`(values, qs[i])`, so a latency table's
/// p50/p95/p99 cost one copy and one sort instead of three.
///
/// # Panics
///
/// Panics if any `q` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use abs_sim::stats::nearest_ranks;
/// let v: Vec<f64> = (1..=100).map(f64::from).collect();
/// assert_eq!(nearest_ranks(&v, [0.50, 0.95, 0.99]), [50.0, 95.0, 99.0]);
/// ```
#[expect(clippy::cast_possible_truncation, reason = "the rank ⌈q·n⌉ lies in [0, n] for q in [0, 1]")]
pub fn nearest_ranks<const K: usize>(values: &[f64], qs: [f64; K]) -> [f64; K] {
    for q in qs {
        assert!((0.0..=1.0).contains(&q), "quantile must lie in [0, 1]");
    }
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return [0.0; K];
    }
    #[expect(clippy::expect_used, reason = "values were filtered to finite just above")]
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    let n = v.len();
    // 1-based nearest rank ⌈q·n⌉, clamped to [1, n] (q = 0 → minimum).
    qs.map(|q| v[((q * n as f64).ceil() as usize).clamp(1, n) - 1])
}

/// The 50th percentile (nearest-rank median) of `values`.
///
/// On even counts nearest rank picks the lower of the two middle elements
/// instead of averaging them.
pub fn p50(values: &[f64]) -> f64 {
    quantile(values, 0.50)
}

/// The 95th percentile (nearest rank) of `values`.
pub fn p95(values: &[f64]) -> f64 {
    quantile(values, 0.95)
}

/// The 99th percentile (nearest rank) of `values`.
///
/// # Examples
///
/// ```
/// use abs_sim::stats::p99;
/// let v: Vec<f64> = (1..=100).map(f64::from).collect();
/// assert_eq!(p99(&v), 99.0);
/// ```
pub fn p99(values: &[f64]) -> f64 {
    quantile(values, 0.99)
}

/// An immutable snapshot of an [`OnlineStats`] accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} ± {:.2} (n={}, min={:.2}, max={:.2})",
            self.mean, self.std_dev, self.count, self.min, self.max
        )
    }
}

/// An integer-binned histogram over `u64` values.
///
/// Bins are unit-width by default; [`Histogram::with_bin_width`] groups
/// values into wider bins, which Figure 3 uses to bucket arrival times.
///
/// # Examples
///
/// ```
/// use abs_sim::stats::Histogram;
/// let mut h = Histogram::new();
/// h.record(3);
/// h.record(3);
/// h.record(7);
/// assert_eq!(h.count(3), 2);
/// assert_eq!(h.total(), 3);
/// assert!((h.fraction(3) - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bin_width: u64,
    bins: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with unit-width bins.
    pub fn new() -> Self {
        Self::with_bin_width(1)
    }

    /// Creates a histogram whose bin `k` covers
    /// `[k * bin_width, (k + 1) * bin_width)`.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width == 0`.
    pub fn with_bin_width(bin_width: u64) -> Self {
        assert!(bin_width > 0, "bin width must be positive");
        Self {
            bin_width,
            bins: Vec::new(),
            total: 0,
        }
    }

    /// Records one observation of `value`.
    #[expect(clippy::cast_possible_truncation, reason = "a bin index that overflowed usize could not have been allocated")]
    pub fn record(&mut self, value: u64) {
        let bin = (value / self.bin_width) as usize;
        if bin >= self.bins.len() {
            self.bins.resize(bin + 1, 0);
        }
        self.bins[bin] += 1;
        self.total += 1;
    }

    /// Records `n` observations of `value`.
    #[expect(clippy::cast_possible_truncation, reason = "a bin index that overflowed usize could not have been allocated")]
    pub fn record_n(&mut self, value: u64, n: u64) {
        let bin = (value / self.bin_width) as usize;
        if bin >= self.bins.len() {
            self.bins.resize(bin + 1, 0);
        }
        self.bins[bin] += n;
        self.total += n;
    }

    /// Number of observations that fell into the bin containing `value`.
    #[expect(clippy::cast_possible_truncation, reason = "a bin index that overflowed usize could not have been allocated")]
    pub fn count(&self, value: u64) -> u64 {
        let bin = (value / self.bin_width) as usize;
        self.bins.get(bin).copied().unwrap_or(0)
    }

    /// Raw count of bin index `bin`.
    pub fn bin_count(&self, bin: usize) -> u64 {
        self.bins.get(bin).copied().unwrap_or(0)
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of allocated bins (highest occupied bin + 1).
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> u64 {
        self.bin_width
    }

    /// Fraction of all observations in the bin containing `value`
    /// (0.0 when empty).
    pub fn fraction(&self, value: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(value) as f64 / self.total as f64
        }
    }

    /// Fraction of all observations in bins `<= value`'s bin.
    #[expect(clippy::cast_possible_truncation, reason = "a bin index that overflowed usize could not have been allocated")]
    pub fn cumulative_fraction(&self, value: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let bin = (value / self.bin_width) as usize;
        let sum: u64 = self.bins.iter().take(bin + 1).sum();
        sum as f64 / self.total as f64
    }

    /// Iterates over `(bin_start_value, count)` pairs for every allocated
    /// bin, including empty ones.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &c)| (i as u64 * self.bin_width, c))
    }

    /// The mean of the recorded values, approximated by bin start values.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .iter()
            .map(|(start, count)| start as f64 * count as f64)
            .sum();
        sum / self.total as f64
    }

    /// Merges `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the bin widths differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bin_width, other.bin_width,
            "cannot merge histograms with different bin widths"
        );
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), 0);
        }
        for (i, &c) in other.bins.iter().enumerate() {
            self.bins[i] += c;
        }
        self.total += other.total;
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Extend<u64> for Histogram {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut h = Self::new();
        h.extend(iter);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_known_answers() {
        // Wikipedia's worked nearest-rank example: ordered list of 10.
        let v = [3.0, 6.0, 7.0, 8.0, 8.0, 10.0, 13.0, 15.0, 16.0, 20.0];
        assert_eq!(quantile(&v, 0.25), 7.0); // rank ⌈2.5⌉ = 3
        assert_eq!(quantile(&v, 0.50), 8.0); // rank 5
        assert_eq!(quantile(&v, 0.75), 15.0); // rank 8
        assert_eq!(quantile(&v, 1.00), 20.0); // rank 10
    }

    #[test]
    fn quantile_singleton_and_empty() {
        assert_eq!(quantile(&[42.0], 0.01), 42.0);
        assert_eq!(quantile(&[42.0], 0.99), 42.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quantile_unsorted_input() {
        let v = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(quantile(&v, 0.5), 5.0); // rank ⌈2.5⌉ = 3 of sorted
        assert_eq!(quantile(&v, 0.2), 1.0); // rank ⌈1.0⌉ = 1
    }

    #[test]
    fn quantile_ignores_non_finite() {
        let v = [f64::NAN, 2.0, f64::INFINITY, 1.0, 3.0];
        assert_eq!(quantile(&v, 0.5), 2.0);
    }

    #[test]
    fn percentile_shorthands() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p50(&v), 50.0);
        assert_eq!(p95(&v), 95.0);
        assert_eq!(p99(&v), 99.0);
        // 200 equal observations with one outlier: p99 still the bulk.
        let mut w = vec![5.0; 200];
        w.push(1_000.0);
        assert_eq!(p99(&w), 5.0);
    }

    #[test]
    fn p50_is_lower_middle_on_even_counts() {
        // Nearest rank never interpolates.
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(p50(&v), 2.0);
    }

    #[test]
    fn nearest_ranks_equal_separate_quantile_calls() {
        use crate::check::{self, Config};
        // Small integers give ties; codes 0-2 plant NaN and ±infinity.
        let decode = |code: u64| match code {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            c => c as f64 - 20.0,
        };
        crate::forall!(Config::with_cases(256), (
            codes in check::vec_of(check::u64_in(0..=40), 0..60),
            q in check::f64_in(0.0..1.0),
        ) {
            let values: Vec<f64> = codes.iter().map(|&c| decode(c)).collect();
            let qs = [0.50, 0.95, 0.99, q];
            let ranks = nearest_ranks(&values, qs);
            for (i, q) in qs.into_iter().enumerate() {
                assert_eq!(ranks[i].to_bits(), quantile(&values, q).to_bits(), "q {q}");
                // Independently: the smallest finite value with at least
                // q·n finite values at or below it (the minimum at q = 0).
                let finite: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
                let n = finite.len() as f64;
                let expected = finite
                    .iter()
                    .copied()
                    .filter(|&x| q == 0.0 || finite.iter().filter(|&&y| y <= x).count() as f64 >= q * n)
                    .fold(None, |m: Option<f64>, x| Some(m.map_or(x, |m| m.min(x))))
                    .unwrap_or(0.0);
                assert_eq!(ranks[i], expected, "q {q}");
            }
        });
        assert_eq!(nearest_ranks(&[], [0.5, 0.99]), [0.0, 0.0]);
        assert_eq!(nearest_ranks(&[f64::NAN], [0.5]), [0.0]);
    }

    #[test]
    #[should_panic(expected = "quantile must lie in [0, 1]")]
    fn nearest_ranks_reject_out_of_range() {
        nearest_ranks(&[1.0], [0.5, -0.1]);
    }

    #[test]
    #[should_panic(expected = "quantile must lie in [0, 1]")]
    fn quantile_rejects_out_of_range() {
        quantile(&[1.0], 1.5);
    }

    #[test]
    fn empty_stats_are_zeroed() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.summary().mean, 0.0);
    }

    #[test]
    fn single_observation() {
        let mut s = OnlineStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn known_variance() {
        let s: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
        assert_eq!(s.mean(), 5.0);
        assert!((s.population_variance() - 4.0).abs() < 1e-12);
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_sequential() {
        let all: OnlineStats = (0..100).map(|i| (i * i) as f64).collect();
        let mut a: OnlineStats = (0..37).map(|i| (i * i) as f64).collect();
        let b: OnlineStats = (37..100).map(|i| (i * i) as f64).collect();
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.sample_variance() - all.sample_variance()).abs() < 1e-6);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: OnlineStats = [1.0, 2.0, 3.0].into_iter().collect();
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e.mean(), before.mean());
        assert_eq!(e.count(), before.count());
    }

    #[test]
    fn cv_and_ci() {
        let s: OnlineStats = (0..100).map(|_| 10.0).collect();
        assert_eq!(s.coefficient_of_variation(), 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);

        let s2: OnlineStats = [8.0, 12.0].into_iter().collect();
        assert!(s2.coefficient_of_variation() > 0.0);
        assert!(s2.ci95_half_width() > 0.0);
    }

    #[test]
    fn summary_display() {
        let s: OnlineStats = [1.0, 3.0].into_iter().collect();
        let d = s.summary().to_string();
        assert!(d.contains("2.00"));
        assert!(d.contains("n=2"));
    }

    #[test]
    fn histogram_basic() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(5);
        h.record(5);
        assert_eq!(h.count(5), 2);
        assert_eq!(h.count(1), 0);
        assert_eq!(h.total(), 3);
        assert_eq!(h.num_bins(), 6);
    }

    #[test]
    fn histogram_binned() {
        let mut h = Histogram::with_bin_width(10);
        h.record(0);
        h.record(9);
        h.record(10);
        assert_eq!(h.count(5), 2); // bin [0,10)
        assert_eq!(h.count(15), 1); // bin [10,20)
    }

    #[test]
    fn histogram_cumulative() {
        let h: Histogram = [1u64, 2, 3, 4].into_iter().collect();
        assert!((h.cumulative_fraction(2) - 0.5).abs() < 1e-12);
        assert!((h.cumulative_fraction(4) - 1.0).abs() < 1e-12);
        assert!((h.cumulative_fraction(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge() {
        let mut a: Histogram = [1u64, 2].into_iter().collect();
        let b: Histogram = [2u64, 3, 3].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(2), 2);
        assert_eq!(a.count(3), 2);
        assert_eq!(a.total(), 5);
    }

    #[test]
    #[should_panic(expected = "different bin widths")]
    fn histogram_merge_width_mismatch() {
        let mut a = Histogram::with_bin_width(2);
        let b = Histogram::with_bin_width(3);
        a.merge(&b);
    }

    #[test]
    fn histogram_record_n_and_mean() {
        let mut h = Histogram::new();
        h.record_n(10, 5);
        h.record_n(20, 5);
        assert_eq!(h.total(), 10);
        assert!((h.mean() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_iter_covers_bins() {
        let h: Histogram = [0u64, 3].into_iter().collect();
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(0, 1), (1, 0), (2, 0), (3, 1)]);
    }
}
