//! Self-contained pseudo-random number generators.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a tiny 64-bit-state generator, used mainly to expand a
//!   single seed into the larger state of other generators and to derive
//!   independent per-run seeds.
//! * [`Xoshiro256PlusPlus`] — the workhorse generator used by every
//!   simulator. It is fast, has 256 bits of state, and passes stringent
//!   statistical test batteries.
//!
//! Both are implemented from the public-domain reference algorithms by
//! Blackman and Vigna. Keeping them in-tree (rather than depending on an
//! external crate) guarantees that simulation results are reproducible
//! bit-for-bit regardless of dependency upgrades, which matters because
//! `EXPERIMENTS.md` records concrete numbers tied to seeds.

use std::ops::Range;

/// SplitMix64: a 64-bit generator with 64 bits of state.
///
/// Primarily used for seed expansion and seed derivation. Every distinct
/// input state produces a full-period sequence over all 2^64 outputs.
///
/// # Examples
///
/// ```
/// use abs_sim::rng::SplitMix64;
/// let mut a = SplitMix64::new(1);
/// let mut b = SplitMix64::new(1);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        Self::new(0)
    }
}

/// xoshiro256++ 1.0: the workspace's primary generator.
///
/// # Examples
///
/// ```
/// use abs_sim::rng::Xoshiro256PlusPlus;
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
/// let x = rng.next_range_u64(10..20);
/// assert!((10..20).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Creates a generator by expanding `seed` through [`SplitMix64`], as
    /// recommended by the algorithm's authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // The all-zero state is the only invalid one; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            return Self { s: [1, 2, 3, 4] };
        }
        Self { s }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, bound)` using Lemire's
    /// unbiased multiply-and-reject method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    #[expect(clippy::cast_possible_truncation, reason = "Lemire's method keeps the low and the high 64-bit word of a 128-bit product")]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's method: multiply a 64-bit random by the bound and keep the
        // high word, rejecting the small biased region of the low word.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniformly distributed value in `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn next_range_u64(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.next_below(range.end - range.start)
    }

    /// Fills `out` with uniformly distributed values in `[0, bound)`.
    ///
    /// This is the batched form of [`next_below`](Self::next_below) for
    /// mega-`N` state initialization: the Lemire rejection threshold is
    /// computed once for the whole batch instead of once per rejected
    /// draw, and the multiply-high loop stays tight. The generator
    /// consumes **exactly** the same `next_u64` stream as the equivalent
    /// sequence of `next_below(bound)` calls — the rejection condition
    /// `low_word < 2^64 mod bound` is identical — so batching never
    /// changes simulation results (asserted by the test suite).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[expect(clippy::cast_possible_truncation, reason = "Lemire's method keeps the low and the high 64-bit word of a 128-bit product")]
    pub fn fill_below(&mut self, bound: u64, out: &mut [u64]) {
        assert!(bound > 0, "bound must be positive");
        let threshold = bound.wrapping_neg() % bound;
        for slot in out {
            let mut m = (self.next_u64() as u128).wrapping_mul(bound as u128);
            while (m as u64) < threshold {
                m = (self.next_u64() as u128).wrapping_mul(bound as u128);
            }
            *slot = (m >> 64) as u64;
        }
    }

    /// Returns a uniformly distributed `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    #[expect(clippy::cast_possible_truncation, reason = "a draw below a usize bound fits usize")]
    pub fn next_below_usize(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)` with 53 bits of
    /// precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p`.
    ///
    /// Values of `p` outside `[0, 1]` are clamped.
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Shuffles `slice` in place with the Fisher–Yates algorithm.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below_usize(i + 1);
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element of `slice`, or `None` if it is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.next_below_usize(slice.len())])
        }
    }

    /// Draws `n` arrival times uniformly from `[0, span]` (inclusive of the
    /// endpoints), sorted ascending.
    ///
    /// This is the paper's Section-5 arrival model: each of the `n`
    /// synchronizing processors "has a uniform probability of appearing at
    /// any time instant during the interval A". A `span` of zero yields `n`
    /// simultaneous arrivals at cycle zero.
    pub fn uniform_arrivals(&mut self, n: usize, span: u64) -> Vec<u64> {
        let mut arrivals = vec![0u64; n];
        if span > 0 {
            // Batched draw; consumes the same stream as n next_below calls.
            self.fill_below(span + 1, &mut arrivals);
        }
        arrivals.sort_unstable();
        arrivals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain
        // implementation.
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next_u64();
        let second = sm.next_u64();
        assert_ne!(first, second);
        // Determinism across instances.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), first);
        assert_eq!(sm2.next_u64(), second);
    }

    #[test]
    fn splitmix_known_answer() {
        // Known-answer test: splitmix64(0) first output is 0xE220A8397B1DCDAF.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn xoshiro_deterministic() {
        let mut a = Xoshiro256PlusPlus::seed_from_u64(99);
        let mut b = Xoshiro256PlusPlus::seed_from_u64(99);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_different_seeds_differ() {
        let mut a = Xoshiro256PlusPlus::seed_from_u64(1);
        let mut b = Xoshiro256PlusPlus::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn next_below_in_bounds() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        for bound in [1u64, 2, 3, 10, 100, u64::MAX] {
            for _ in 0..100 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        Xoshiro256PlusPlus::seed_from_u64(0).next_below(0);
    }

    #[test]
    fn fill_below_matches_sequential_draws() {
        // The batched path must consume the exact next_u64 stream the
        // one-at-a-time path does, including through Lemire rejections
        // (exercised by awkward bounds near powers of two).
        for bound in [1u64, 2, 3, 10, 1001, (1 << 63) + 1, u64::MAX - 1] {
            let mut batched = Xoshiro256PlusPlus::seed_from_u64(0xF1FF);
            let mut serial = Xoshiro256PlusPlus::seed_from_u64(0xF1FF);
            let mut out = vec![0u64; 257];
            batched.fill_below(bound, &mut out);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, serial.next_below(bound), "bound {bound} draw {i}");
            }
            // Generator states line up afterwards too.
            assert_eq!(batched.next_u64(), serial.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn fill_below_zero_panics() {
        Xoshiro256PlusPlus::seed_from_u64(0).fill_below(0, &mut [0; 4]);
    }

    #[test]
    fn next_range_in_bounds() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        for _ in 0..200 {
            let v = rng.next_range_u64(17..23);
            assert!((17..23).contains(&v));
        }
    }

    #[test]
    fn next_f64_unit_interval() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
        for _ in 0..1000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn next_bool_extremes() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        assert!(!(0..100).any(|_| rng.next_bool(0.0)));
        assert!((0..100).all(|_| rng.next_bool(1.0)));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(8);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_none_on_empty() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(8);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
    }

    #[test]
    fn uniform_arrivals_sorted_and_bounded() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(21);
        let arr = rng.uniform_arrivals(64, 1000);
        assert_eq!(arr.len(), 64);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        assert!(arr.iter().all(|&t| t <= 1000));
    }

    #[test]
    fn uniform_arrivals_zero_span() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(21);
        let arr = rng.uniform_arrivals(16, 0);
        assert!(arr.iter().all(|&t| t == 0));
    }

    #[test]
    fn uniform_arrivals_mean_near_half_span() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(77);
        let arr = rng.uniform_arrivals(10_000, 1000);
        let mean: f64 = arr.iter().map(|&t| t as f64).sum::<f64>() / arr.len() as f64;
        assert!((mean - 500.0).abs() < 15.0, "mean {mean}");
    }
}
