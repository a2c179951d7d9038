//! The adaptive backoff policies of Section 4.
//!
//! A policy answers two questions during a barrier episode:
//!
//! 1. Having incremented the barrier variable to value `i` out of `N`, how
//!    long should the processor wait before its *first* flag poll?
//!    ([`BackoffPolicy::variable_wait`])
//! 2. Having been *served* a flag read that returned "not set" for the
//!    `k`-th time, how long should it wait before re-polling?
//!    ([`BackoffPolicy::flag_delay`])
//!
//! Following the paper, every flag-backoff policy also applies backoff on
//! the barrier variable ("all our simulated cases of backoff on the barrier
//! flag include first backing-off on the barrier variable"), and backoff is
//! **deterministic**: equal backoffs preserve the serialization that the
//! first contention round establishes, where probabilistic retries would
//! destroy it (Section 4.2).

/// A barrier backoff policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackoffPolicy {
    /// Continuous polling: no waiting anywhere.
    #[default]
    None,
    /// Backoff on the barrier variable only: wait
    /// `offset + factor · (N − i)` cycles after incrementing to `i`,
    /// then poll the flag continuously.
    OnVariable {
        /// Multiplier on `(N − i)`; the paper's base scheme uses 1 and
        /// suggests larger constants "to account for the non-unit time cost
        /// of accessing the barrier value".
        factor: u64,
        /// Additive constant, the `(N−i)+C` variant.
        offset: u64,
    },
    /// Variable backoff plus linear flag backoff: the `k`-th unsuccessful
    /// served read waits `step · k` cycles.
    Linear {
        /// Cycles added per unsuccessful read.
        step: u64,
    },
    /// Variable backoff plus exponential flag backoff: the `k`-th
    /// unsuccessful served read waits `base^k` cycles, optionally capped.
    Exponential {
        /// The exponential base `b` (the paper studies 2, 4 and 8).
        base: u64,
        /// Optional ceiling on the delay; `None` reproduces the paper's
        /// uncapped curves (and their Figure-10 overshoot).
        cap: Option<u64>,
    },
    /// The probabilistic strawman the paper argues *against* (Section
    /// 4.2): the `k`-th delay is drawn uniformly from `[1, base^k]` instead
    /// of being the deterministic `base^k`. Randomized retries destroy the
    /// serialization the first contention round establishes; this variant
    /// exists for the ablation that demonstrates it.
    ExponentialJittered {
        /// Exponential base bounding the random delay.
        base: u64,
    },
    /// Exponential backoff that parks the process once the next delay would
    /// exceed `threshold` (Section 7's "place the process on a queue
    /// pending the arrival of the last process").
    QueueOnThreshold {
        /// Exponential base used while still spinning.
        base: u64,
        /// Park once the computed delay exceeds this many cycles.
        threshold: u64,
        /// Cycles between the flag being set and a parked process resuming
        /// (the enqueue/wake overhead).
        wake_cost: u64,
    },
}

impl BackoffPolicy {
    /// Plain backoff on the barrier variable (`factor = 1`, `offset = 0`).
    pub fn on_variable() -> Self {
        BackoffPolicy::OnVariable {
            factor: 1,
            offset: 0,
        }
    }

    /// Uncapped exponential flag backoff with the given base.
    ///
    /// # Panics
    ///
    /// Panics if `base < 2`.
    pub fn exponential(base: u64) -> Self {
        assert!(base >= 2, "exponential base must be at least 2");
        BackoffPolicy::Exponential { base, cap: None }
    }

    /// Capped exponential flag backoff.
    ///
    /// # Panics
    ///
    /// Panics if `base < 2` or `cap == 0`.
    pub fn exponential_capped(base: u64, cap: u64) -> Self {
        assert!(base >= 2, "exponential base must be at least 2");
        assert!(cap > 0, "cap must be positive");
        BackoffPolicy::Exponential {
            base,
            cap: Some(cap),
        }
    }

    /// The five policies plotted in Figures 5–10, in plotting order.
    pub fn figure_policies() -> [BackoffPolicy; 5] {
        [
            BackoffPolicy::None,
            BackoffPolicy::on_variable(),
            BackoffPolicy::exponential(2),
            BackoffPolicy::exponential(4),
            BackoffPolicy::exponential(8),
        ]
    }

    /// Cycles to wait after incrementing the barrier variable to `i` (out
    /// of `n`) before the first flag poll.
    ///
    /// # Panics
    ///
    /// Panics if `i == 0` or `i > n` (an increment result is in `1..=n`).
    pub fn variable_wait(&self, n: usize, i: usize) -> u64 {
        assert!(i >= 1 && i <= n, "increment result must be in 1..=n");
        let remaining = (n - i) as u64;
        match *self {
            BackoffPolicy::None => 0,
            BackoffPolicy::OnVariable { factor, offset } => {
                factor.saturating_mul(remaining).saturating_add(offset)
            }
            // Flag-backoff policies include plain variable backoff.
            BackoffPolicy::Linear { .. }
            | BackoffPolicy::Exponential { .. }
            | BackoffPolicy::ExponentialJittered { .. }
            | BackoffPolicy::QueueOnThreshold { .. } => remaining,
        }
    }

    /// Cycles to wait after the `k`-th served-but-unset flag read
    /// (`k >= 1`), or `None` if the process should park instead.
    pub fn flag_delay(&self, k: u32) -> Option<u64> {
        debug_assert!(k >= 1, "flag_delay is defined for k >= 1");
        match *self {
            BackoffPolicy::None | BackoffPolicy::OnVariable { .. } => Some(0),
            BackoffPolicy::Linear { step } => Some(step.saturating_mul(k as u64)),
            BackoffPolicy::Exponential { base, cap } => {
                let raw = base.saturating_pow(k);
                Some(match cap {
                    Some(c) => raw.min(c),
                    None => raw,
                })
            }
            BackoffPolicy::ExponentialJittered { base } => Some(base.saturating_pow(k)),
            BackoffPolicy::QueueOnThreshold {
                base, threshold, ..
            } => {
                let raw = base.saturating_pow(k);
                if raw > threshold {
                    None
                } else {
                    Some(raw)
                }
            }
        }
    }

    /// Like [`BackoffPolicy::flag_delay`], but draws the probabilistic
    /// variants from `rng`. Deterministic policies ignore the generator.
    pub fn sampled_flag_delay(
        &self,
        k: u32,
        rng: &mut abs_sim::rng::Xoshiro256PlusPlus,
    ) -> Option<u64> {
        match *self {
            BackoffPolicy::ExponentialJittered { base } => {
                let bound = base.saturating_pow(k);
                Some(rng.next_range_u64(1..bound.saturating_add(1).max(2)))
            }
            _ => self.flag_delay(k),
        }
    }

    /// Whether every unsuccessful served flag read re-polls on the very
    /// next cycle and draws nothing: [`Self::sampled_flag_delay`] is
    /// `Some(0)` at every `k` and never touches the generator. A poll miss
    /// under such a policy changes nothing but the access count and the
    /// arbiter's draw, which lets the barrier's event kernel skip
    /// resolving it. True for [`BackoffPolicy::None`] and
    /// [`BackoffPolicy::OnVariable`], and for the flag policies only at
    /// degenerate zero parameters. No `_` arm: a new variant must decide.
    pub fn repolls_immediately(&self) -> bool {
        match *self {
            BackoffPolicy::None | BackoffPolicy::OnVariable { .. } => true,
            BackoffPolicy::Linear { step } => step == 0,
            // `0^k = 0` for every `k >= 1`; a zero cap clamps any delay.
            BackoffPolicy::Exponential { base, cap } => base == 0 || cap == Some(0),
            // Draws its delay from the generator on every miss.
            BackoffPolicy::ExponentialJittered { .. } => false,
            // A zero delay never exceeds the threshold, so it never parks.
            BackoffPolicy::QueueOnThreshold { base, .. } => base == 0,
        }
    }

    /// The wake-up overhead paid by a parked process, in cycles; zero for
    /// policies that never park.
    pub fn wake_cost(&self) -> u64 {
        match *self {
            BackoffPolicy::QueueOnThreshold { wake_cost, .. } => wake_cost,
            _ => 0,
        }
    }

    /// A short label for tables and figures.
    pub fn label(&self) -> String {
        match *self {
            BackoffPolicy::None => "without backoff".to_string(),
            BackoffPolicy::OnVariable {
                factor: 1,
                offset: 0,
            } => "backoff on barrier var".to_string(),
            BackoffPolicy::OnVariable { factor, offset } => {
                format!("var backoff x{factor}+{offset}")
            }
            BackoffPolicy::Linear { step } => format!("linear step {step}"),
            BackoffPolicy::Exponential { base, cap: None } => format!("base {base} backoff"),
            BackoffPolicy::Exponential {
                base,
                cap: Some(cap),
            } => format!("base {base} capped {cap}"),
            BackoffPolicy::ExponentialJittered { base } => {
                format!("base {base} randomized")
            }
            BackoffPolicy::QueueOnThreshold { threshold, .. } => {
                format!("queue past {threshold}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: a saturating product, one factor at a time.
    fn pow_by_loop(base: u64, exp: u32) -> u64 {
        let mut acc: u64 = 1;
        for _ in 0..exp {
            acc = acc.saturating_mul(base);
            if acc == u64::MAX {
                break;
            }
        }
        acc
    }

    #[test]
    fn exponential_delays_match_the_product_loop() {
        for base in 0..=300u64 {
            for k in 1..=80u32 {
                let want = pow_by_loop(base, k);
                let p = BackoffPolicy::Exponential { base, cap: None };
                assert_eq!(p.flag_delay(k), Some(want), "{base}^{k}");
            }
        }
    }

    #[test]
    fn none_never_waits() {
        let p = BackoffPolicy::None;
        assert_eq!(p.variable_wait(64, 1), 0);
        assert_eq!(p.flag_delay(1), Some(0));
        assert_eq!(p.flag_delay(40), Some(0));
    }

    #[test]
    fn on_variable_waits_remaining() {
        let p = BackoffPolicy::on_variable();
        assert_eq!(p.variable_wait(64, 1), 63);
        assert_eq!(p.variable_wait(64, 64), 0);
        assert_eq!(p.flag_delay(5), Some(0));
    }

    #[test]
    fn on_variable_scaled() {
        let p = BackoffPolicy::OnVariable {
            factor: 3,
            offset: 10,
        };
        assert_eq!(p.variable_wait(10, 4), 3 * 6 + 10);
    }

    #[test]
    fn flag_policies_include_variable_backoff() {
        for p in [
            BackoffPolicy::Linear { step: 4 },
            BackoffPolicy::exponential(2),
            BackoffPolicy::QueueOnThreshold {
                base: 2,
                threshold: 100,
                wake_cost: 50,
            },
        ] {
            assert_eq!(p.variable_wait(16, 10), 6, "{p:?}");
        }
    }

    #[test]
    fn linear_grows_linearly() {
        let p = BackoffPolicy::Linear { step: 3 };
        assert_eq!(p.flag_delay(1), Some(3));
        assert_eq!(p.flag_delay(2), Some(6));
        assert_eq!(p.flag_delay(10), Some(30));
    }

    #[test]
    fn exponential_grows_exponentially() {
        let p = BackoffPolicy::exponential(2);
        assert_eq!(p.flag_delay(1), Some(2));
        assert_eq!(p.flag_delay(3), Some(8));
        assert_eq!(p.flag_delay(10), Some(1024));
    }

    #[test]
    fn exponential_saturates_not_overflows() {
        let p = BackoffPolicy::exponential(8);
        assert_eq!(p.flag_delay(64), Some(u64::MAX));
    }

    #[test]
    fn capped_exponential_stops_growing() {
        let p = BackoffPolicy::exponential_capped(4, 100);
        assert_eq!(p.flag_delay(1), Some(4));
        assert_eq!(p.flag_delay(3), Some(64));
        assert_eq!(p.flag_delay(4), Some(100));
        assert_eq!(p.flag_delay(30), Some(100));
    }

    #[test]
    fn queue_policy_parks_past_threshold() {
        let p = BackoffPolicy::QueueOnThreshold {
            base: 2,
            threshold: 16,
            wake_cost: 100,
        };
        assert_eq!(p.flag_delay(1), Some(2));
        assert_eq!(p.flag_delay(4), Some(16));
        assert_eq!(p.flag_delay(5), None);
        assert_eq!(p.wake_cost(), 100);
    }

    #[test]
    fn repolls_immediately_matches_sampled_delays() {
        // Every variant, with ordinary and degenerate zero parameters: the
        // method is true exactly when every miss k = 1..=64 re-polls at
        // once under both delay functions and leaves the generator alone.
        let policies = [
            BackoffPolicy::None,
            BackoffPolicy::on_variable(),
            BackoffPolicy::OnVariable {
                factor: 4,
                offset: 100,
            },
            BackoffPolicy::Linear { step: 0 },
            BackoffPolicy::Linear { step: 3 },
            BackoffPolicy::Exponential { base: 0, cap: None },
            BackoffPolicy::Exponential { base: 1, cap: None },
            BackoffPolicy::exponential(2),
            BackoffPolicy::exponential_capped(8, 100),
            BackoffPolicy::Exponential {
                base: 4,
                cap: Some(0),
            },
            BackoffPolicy::ExponentialJittered { base: 0 },
            BackoffPolicy::ExponentialJittered { base: 2 },
            BackoffPolicy::QueueOnThreshold {
                base: 0,
                threshold: 0,
                wake_cost: 10,
            },
            BackoffPolicy::QueueOnThreshold {
                base: 2,
                threshold: 64,
                wake_cost: 10,
            },
        ];
        for p in policies {
            let mut rng = abs_sim::rng::Xoshiro256PlusPlus::seed_from_u64(5);
            let zero_and_silent = (1..=64u32).all(|k| {
                let before = rng.clone();
                let sampled = p.sampled_flag_delay(k, &mut rng);
                p.flag_delay(k) == Some(0) && sampled == Some(0) && rng == before
            });
            assert_eq!(p.repolls_immediately(), zero_and_silent, "{p:?}");
        }
        assert!(BackoffPolicy::figure_policies()[..2]
            .iter()
            .all(BackoffPolicy::repolls_immediately));
        assert!(!BackoffPolicy::figure_policies()[2..]
            .iter()
            .any(BackoffPolicy::repolls_immediately));
    }

    #[test]
    fn wake_cost_zero_for_spinning_policies() {
        assert_eq!(BackoffPolicy::None.wake_cost(), 0);
        assert_eq!(BackoffPolicy::exponential(2).wake_cost(), 0);
    }

    #[test]
    #[should_panic(expected = "increment result")]
    fn variable_wait_rejects_zero() {
        BackoffPolicy::None.variable_wait(8, 0);
    }

    #[test]
    #[should_panic(expected = "increment result")]
    fn variable_wait_rejects_overflow() {
        BackoffPolicy::None.variable_wait(8, 9);
    }

    #[test]
    #[should_panic(expected = "base must be at least 2")]
    fn exponential_rejects_base_one() {
        BackoffPolicy::exponential(1);
    }

    #[test]
    fn figure_policies_are_the_papers_five() {
        let labels: Vec<String> = BackoffPolicy::figure_policies()
            .iter()
            .map(|p| p.label())
            .collect();
        assert_eq!(
            labels,
            [
                "without backoff",
                "backoff on barrier var",
                "base 2 backoff",
                "base 4 backoff",
                "base 8 backoff",
            ]
        );
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<String> = [
            BackoffPolicy::None,
            BackoffPolicy::on_variable(),
            BackoffPolicy::OnVariable {
                factor: 2,
                offset: 0,
            },
            BackoffPolicy::Linear { step: 1 },
            BackoffPolicy::exponential(2),
            BackoffPolicy::exponential_capped(2, 64),
            BackoffPolicy::QueueOnThreshold {
                base: 2,
                threshold: 64,
                wake_cost: 10,
            },
        ]
        .iter()
        .map(|p| p.label())
        .collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 7);
    }
}
