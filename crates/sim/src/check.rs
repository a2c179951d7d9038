//! An in-tree property-based testing mini-framework.
//!
//! The workspace's hermetic-build policy (see `tests/hermetic.rs`) rules
//! out `proptest`, so this module provides the subset the test suite
//! actually needs, driven by the same [`Xoshiro256PlusPlus`] generator as
//! every simulator:
//!
//! * [`Gen`] — a value generator paired with a shrinker, built from the
//!   combinators in this module ([`any_u64`], [`u64_in`], [`f64_in`],
//!   [`vec_of`], [`tuple2`], …).
//! * [`forall`] / [`forall!`](crate::forall) — run a property over a
//!   configurable number of generated cases. On failure the input is
//!   shrunk to a (locally) minimal counterexample and the panic message
//!   reports the master seed so the exact case sequence can be replayed
//!   with `ABS_CHECK_SEED=<seed>`.
//!
//! Case seeds are derived from the master seed with
//! [`derive_seed`], so the `i`-th case of a run
//! is a pure function of `(master_seed, i)`: same seed, same inputs,
//! bit-for-bit — the property analogue of the simulators' determinism
//! guarantee.
//!
//! # Examples
//!
//! ```
//! use abs_sim::check::{self, Config};
//! use abs_sim::forall;
//!
//! forall!(Config::with_cases(64), (a in check::u64_in(0..=1000), b in check::u64_in(0..=1000)) {
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::Xoshiro256PlusPlus;
use crate::sweep::derive_seed;

/// Default number of generated cases per property.
pub const DEFAULT_CASES: u32 = 64;
/// Default master seed (overridable with the `ABS_CHECK_SEED` env var).
pub const DEFAULT_SEED: u64 = 0x1989_0605;
/// Default bound on shrink attempts per failing property.
pub const DEFAULT_MAX_SHRINK_STEPS: u32 = 1024;

/// How a property run is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Number of generated cases.
    pub cases: u32,
    /// Master seed; case `i` uses `derive_seed(seed, i)`.
    pub seed: u64,
    /// Upper bound on property re-executions while shrinking.
    pub max_shrink_steps: u32,
}

impl Config {
    /// A config running `cases` cases with the default (or `ABS_CHECK_SEED`
    /// overridden) master seed.
    pub fn with_cases(cases: u32) -> Self {
        Self {
            cases,
            ..Self::default()
        }
    }

    /// A config with an explicit master seed (ignores `ABS_CHECK_SEED`).
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

impl Default for Config {
    fn default() -> Self {
        let seed = std::env::var("ABS_CHECK_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_SEED);
        Self {
            cases: DEFAULT_CASES,
            seed,
            max_shrink_steps: DEFAULT_MAX_SHRINK_STEPS,
        }
    }
}

/// A generator: samples values from an RNG and proposes smaller variants
/// of a failing value for shrinking.
pub struct Gen<T> {
    sample: Box<dyn Fn(&mut Xoshiro256PlusPlus) -> T>,
    shrink: Shrinker<T>,
}

/// A [`Gen`]'s shrinking closure.
type Shrinker<T> = Box<dyn Fn(&T) -> Vec<T>>;

impl<T: 'static> Gen<T> {
    /// Builds a generator from a sampling closure and a shrinking closure.
    ///
    /// The shrinker returns candidate replacements for a failing value,
    /// "smallest" (most aggressively shrunk) first; it must only propose
    /// values the sampler could itself produce, and must not propose the
    /// input value (or shrinking may loop until the step budget runs out).
    pub fn new(
        sample: impl Fn(&mut Xoshiro256PlusPlus) -> T + 'static,
        shrink: impl Fn(&T) -> Vec<T> + 'static,
    ) -> Self {
        Self {
            sample: Box::new(sample),
            shrink: Box::new(shrink),
        }
    }

    /// A generator that never shrinks.
    pub fn no_shrink(sample: impl Fn(&mut Xoshiro256PlusPlus) -> T + 'static) -> Self {
        Self::new(sample, |_| Vec::new())
    }

    /// Draws one value.
    pub fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> T {
        (self.sample)(rng)
    }

    /// Candidate shrinks of `value`, most aggressive first.
    pub fn shrink_candidates(&self, value: &T) -> Vec<T> {
        (self.shrink)(value)
    }
}

/// Any `u64`, shrinking toward zero.
pub fn any_u64() -> Gen<u64> {
    Gen::new(|rng| rng.next_u64(), |&v| shrink_u64_toward(v, 0))
}

/// A `u64` uniform in the inclusive range, shrinking toward the low end.
///
/// # Panics
///
/// Panics (when sampled) if the range is empty.
pub fn u64_in(range: RangeInclusive<u64>) -> Gen<u64> {
    let (lo, hi) = (*range.start(), *range.end());
    assert!(lo <= hi, "empty range");
    Gen::new(
        move |rng| {
            if lo == 0 && hi == u64::MAX {
                rng.next_u64()
            } else {
                lo + rng.next_below(hi - lo + 1)
            }
        },
        move |&v| shrink_u64_toward(v, lo),
    )
}

/// A `u32` uniform in the inclusive range, shrinking toward the low end.
pub fn u32_in(range: RangeInclusive<u32>) -> Gen<u32> {
    let (lo, hi) = (*range.start(), *range.end());
    assert!(lo <= hi, "empty range");
    Gen::new(
        move |rng| {
            let draw = rng.next_below(u64::from(hi - lo) + 1);
            lo + u32::try_from(draw).unwrap_or(0) // draw <= hi - lo by construction
        },
        move |&v| {
            shrink_u64_toward(u64::from(v), u64::from(lo))
                .into_iter()
                .map(|x| u32::try_from(x).unwrap_or(u32::MAX))
                .collect()
        },
    )
}

/// A `usize` uniform in the half-open range, shrinking toward the low end.
#[expect(clippy::cast_possible_truncation, reason = "the shrunk values lie between two usize bounds")]
pub fn usize_in(range: Range<usize>) -> Gen<usize> {
    let (lo, hi) = (range.start, range.end);
    assert!(lo < hi, "empty range");
    Gen::new(
        move |rng| lo + rng.next_below_usize(hi - lo),
        move |&v| {
            shrink_u64_toward(v as u64, lo as u64)
                .into_iter()
                .map(|x| x as usize)
                .collect()
        },
    )
}

/// An `f64` uniform in the half-open range, shrinking toward the low end
/// (and toward round values).
pub fn f64_in(range: Range<f64>) -> Gen<f64> {
    let (lo, hi) = (range.start, range.end);
    assert!(lo < hi, "empty range");
    assert!(lo.is_finite() && hi.is_finite(), "range must be finite");
    Gen::new(
        move |rng| lo + rng.next_f64() * (hi - lo),
        move |&v| {
            let mut out = Vec::new();
            let mut push = |c: f64| {
                if c != v && (lo..hi).contains(&c) && !out.contains(&c) {
                    out.push(c);
                }
            };
            push(lo);
            push(0.0);
            push(lo + (v - lo) / 2.0);
            push(v.trunc());
            out
        },
    )
}

/// A `Vec<T>` with a length uniform in `len` and elements from `elem`.
///
/// Shrinks by dropping halves, dropping single elements (down to the
/// minimum length), and shrinking individual elements.
pub fn vec_of<T: Clone + 'static>(elem: Gen<T>, len: Range<usize>) -> Gen<Vec<T>> {
    let (lo, hi) = (len.start, len.end);
    assert!(lo < hi, "empty length range");
    // Both closures need the element generator, so share it.
    let elem = std::rc::Rc::new(elem);
    let sample_elem = std::rc::Rc::clone(&elem);
    Gen::new(
        move |rng| {
            let n = lo + rng.next_below_usize(hi - lo);
            (0..n).map(|_| sample_elem.sample(rng)).collect()
        },
        move |v: &Vec<T>| {
            let mut out: Vec<Vec<T>> = Vec::new();
            let n = v.len();
            // Drop the back half, then the front half.
            if n / 2 >= lo && n > 1 {
                out.push(v[..n / 2].to_vec());
                out.push(v[n - n / 2..].to_vec());
            }
            // Drop single elements (bounded to keep candidate lists small).
            if n > lo {
                for i in 0..n.min(8) {
                    let mut w = v.clone();
                    w.remove(i);
                    out.push(w);
                }
            }
            // Shrink single elements, first candidate each.
            for i in 0..n.min(8) {
                if let Some(smaller) = elem.shrink_candidates(&v[i]).into_iter().next() {
                    let mut w = v.clone();
                    w[i] = smaller;
                    out.push(w);
                }
            }
            out
        },
    )
}

/// A pair of independent generators; shrinks one component at a time.
pub fn tuple2<A: Clone + 'static, B: Clone + 'static>(a: Gen<A>, b: Gen<B>) -> Gen<(A, B)> {
    // Both closures need the inner generators, so share them.
    let a = std::rc::Rc::new(a);
    let b = std::rc::Rc::new(b);
    let (sa, sb) = (std::rc::Rc::clone(&a), std::rc::Rc::clone(&b));
    Gen {
        sample: Box::new(move |rng| (sa.sample(rng), sb.sample(rng))),
        shrink: Box::new(move |(va, vb): &(A, B)| {
            let mut out: Vec<(A, B)> = a
                .shrink_candidates(va)
                .into_iter()
                .map(|ca| (ca, vb.clone()))
                .collect();
            out.extend(
                b.shrink_candidates(vb)
                    .into_iter()
                    .map(|cb| (va.clone(), cb)),
            );
            out
        }),
    }
}

/// Turns a caught panic payload into a printable message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Proposes shrinks of `v` toward `origin`: the origin itself, the halfway
/// point, and the predecessor.
fn shrink_u64_toward(v: u64, origin: u64) -> Vec<u64> {
    let mut out = Vec::new();
    if v > origin {
        out.push(origin);
        let half = origin + (v - origin) / 2;
        if half != origin && half != v {
            out.push(half);
        }
        if v - 1 != origin && v - 1 != half {
            out.push(v - 1);
        }
    }
    out
}

/// Runs `prop` over `config.cases` generated inputs.
///
/// The property signals failure by panicking (plain `assert!` /
/// `assert_eq!` work). On failure the input is shrunk greedily — repeatedly
/// replacing it with the first shrink candidate that still fails — and the
/// final panic reports the case index, master seed, original and minimal
/// counterexamples.
///
/// # Panics
///
/// Panics if any case fails.
pub fn forall<T, P>(name: &str, config: Config, gen: &Gen<T>, prop: P)
where
    T: Debug + 'static,
    P: Fn(&T),
{
    let run = |value: &T| -> Result<(), String> {
        catch_unwind(AssertUnwindSafe(|| prop(value))).map_err(panic_message)
    };
    for case in 0..config.cases {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(derive_seed(config.seed, u64::from(case)));
        let value = gen.sample(&mut rng);
        let Err(original_error) = run(&value) else {
            continue;
        };

        // Greedy first-fail descent.
        let mut minimal = value;
        let mut minimal_error = original_error.clone();
        let mut steps = 0u32;
        'shrinking: while steps < config.max_shrink_steps {
            for candidate in gen.shrink_candidates(&minimal) {
                steps += 1;
                if let Err(e) = run(&candidate) {
                    minimal = candidate;
                    minimal_error = e;
                    continue 'shrinking;
                }
                if steps >= config.max_shrink_steps {
                    break;
                }
            }
            break;
        }

        panic!(
            "property {name} failed at case {case}/{cases} \
             (master seed {seed:#x}; replay with ABS_CHECK_SEED={seed})\n\
             minimal counterexample (after {steps} shrink steps): {minimal:?}\n\
             error: {minimal_error}",
            cases = config.cases,
            seed = config.seed,
        );
    }
}

/// Chains generators into right-nested [`tuple2`]s: `a, b, c` becomes
/// `tuple2(a, tuple2(b, c))`. Used by [`forall!`](crate::forall).
#[doc(hidden)]
#[macro_export]
macro_rules! __forall_gens {
    ($g:expr $(,)?) => { $g };
    ($g:expr, $($rest:expr),+ $(,)?) => {
        $crate::check::tuple2($g, $crate::__forall_gens!($($rest),+))
    };
}

/// Builds the right-nested tuple pattern matching [`__forall_gens!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __forall_pat {
    ($name:ident $(,)?) => { $name };
    ($name:ident, $($rest:ident),+ $(,)?) => {
        ($name, $crate::__forall_pat!($($rest),+))
    };
}

/// Runs a property over generated inputs, proptest-style.
///
/// Each binding draws from a [`Gen`](crate::check::Gen); the body may use
/// plain `assert!`/`assert_eq!`. Bound values are cloned out of the
/// generated input, so `u64` bindings are plain `u64` and `Vec` bindings
/// are owned `Vec`s.
///
/// ```
/// use abs_sim::check::{self, Config};
/// use abs_sim::forall;
///
/// forall!(Config::with_cases(32), (n in check::usize_in(1..100)) {
///     assert!(n >= 1 && n < 100);
/// });
/// ```
#[macro_export]
macro_rules! forall {
    ($config:expr, ($($name:ident in $gen:expr),+ $(,)?) $body:block) => {{
        let __gen = $crate::__forall_gens!($($gen),+);
        $crate::check::forall(
            concat!(file!(), ":", line!()),
            $config,
            &__gen,
            |__value| {
                let $crate::__forall_pat!($($name),+) = __value;
                $(let $name = ::std::clone::Clone::clone($name);)+
                $body
            },
        );
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(7)
    }

    #[test]
    fn u64_in_respects_bounds() {
        let g = u64_in(10..=20);
        let mut rng = fresh_rng();
        for _ in 0..500 {
            let v = g.sample(&mut rng);
            assert!((10..=20).contains(&v));
        }
    }

    #[test]
    fn full_range_u64_samples() {
        let g = u64_in(0..=u64::MAX);
        let mut rng = fresh_rng();
        // Two consecutive full-range draws colliding would be miraculous.
        assert_ne!(g.sample(&mut rng), g.sample(&mut rng));
    }

    #[test]
    fn shrink_moves_toward_low_end() {
        let g = u64_in(5..=100);
        for c in g.shrink_candidates(&40) {
            assert!((5..40).contains(&c));
        }
        assert!(g.shrink_candidates(&5).is_empty());
    }

    #[test]
    fn f64_in_respects_bounds() {
        let g = f64_in(-2.0..3.0);
        let mut rng = fresh_rng();
        for _ in 0..500 {
            let v = g.sample(&mut rng);
            assert!((-2.0..3.0).contains(&v));
        }
        for c in g.shrink_candidates(&2.5) {
            assert!((-2.0..3.0).contains(&c));
            assert_ne!(c, 2.5);
        }
    }

    #[test]
    fn vec_of_respects_length() {
        let g = vec_of(u64_in(0..=9), 2..6);
        let mut rng = fresh_rng();
        for _ in 0..200 {
            let v = g.sample(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn vec_shrinks_never_undershoot_min_len() {
        let g = vec_of(u64_in(0..=9), 3..8);
        let v = vec![1, 2, 3, 4, 5, 6, 7];
        for c in g.shrink_candidates(&v) {
            assert!(c.len() >= 3, "shrunk below minimum length: {c:?}");
        }
    }

    #[test]
    fn forall_passes_trivially() {
        forall("trivial", Config::with_cases(16), &any_u64(), |_| {});
    }

    #[test]
    fn forall_shrinks_to_minimal_counterexample() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            forall(
                "ge100",
                Config::with_seed(42),
                &u64_in(0..=100_000),
                |&v| assert!(v < 100, "value {v} too big"),
            );
        }))
        .unwrap_err();
        let msg = panic_message(err);
        // Greedy halving from any failing start lands exactly on 100, the
        // smallest failing input.
        assert!(
            msg.contains("minimal counterexample") && msg.contains("100"),
            "unexpected message: {msg}"
        );
        assert!(msg.contains("ABS_CHECK_SEED=42"), "no replay hint: {msg}");
    }

    #[test]
    fn same_seed_reproduces_same_case_sequence() {
        // The determinism guarantee behind the replay hint: case i depends
        // only on (master seed, i).
        let g = tuple2(any_u64(), vec_of(u64_in(0..=99), 1..10));
        let draw = |seed: u64| -> Vec<(u64, Vec<u64>)> {
            (0..32)
                .map(|i| {
                    let mut rng = Xoshiro256PlusPlus::seed_from_u64(derive_seed(seed, i));
                    g.sample(&mut rng)
                })
                .collect()
        };
        assert_eq!(draw(123), draw(123));
        assert_ne!(draw(123), draw(124));
    }

    #[test]
    fn forall_macro_binds_multiple_values() {
        forall!(Config::with_cases(32), (a in u64_in(1..=50), b in u64_in(1..=50), v in vec_of(u64_in(0..=5), 1..4)) {
            assert!(a >= 1 && b <= 50);
            assert!(!v.is_empty());
        });
    }

    #[test]
    fn tuple2_shrinks_one_side_at_a_time() {
        let g = tuple2(u64_in(0..=10), u64_in(0..=10));
        let cands = g.shrink_candidates(&(4, 6));
        assert!(!cands.is_empty());
        for (a, b) in cands {
            assert!(
                (a == 4) != (b == 6),
                "exactly one component should change: ({a}, {b})"
            );
        }
    }
}
