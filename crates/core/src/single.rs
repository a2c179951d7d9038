//! The single-counter barrier — the paper's strawman, and a quoted claim.
//!
//! Section 2: "A typical implementation of a barrier might use a shared
//! variable whose initial value is zero. Each processor arriving at the
//! barrier increments the shared variable. If the variable attains the
//! value N … the processor can proceed. Otherwise, it repeatedly tests the
//! barrier until the above condition is true. … This implementation has the
//! drawback that each processor attempting to increment the barrier
//! variable must contend with all the others simply polling it."
//!
//! Section 4 then claims: "If the barrier variable and flag are one and the
//! same object, the relative advantage of using adaptive backoff techniques
//! will be even greater." This module implements the single-counter barrier
//! on the same network model so that claim can be measured (`repro single`).
//!
//! Backoff semantics: the counter read returned by a poll reveals `i`, the
//! number of arrivals so far, so *state-based* backoff is natural — wait
//! `N − i` cycles (at best one arrival per cycle), or `base^k` under
//! exponential backoff on the `k`-th unsuccessful poll.

use abs_net::module::{MemoryModule, PendingSet, Request};
use abs_sim::kernel::Kernel;
use abs_sim::rng::Xoshiro256PlusPlus;
use abs_sim::wheel::TimeWheel;

use crate::barrier::BarrierConfig;
use crate::policy::BackoffPolicy;

/// Result of one single-counter barrier episode.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleCounterRun {
    accesses: Vec<u64>,
    waiting: Vec<u64>,
    completion: u64,
}

impl SingleCounterRun {
    /// Network accesses per process (increments + polls, served or denied).
    pub fn accesses(&self) -> &[u64] {
        &self.accesses
    }

    /// Cycles from arrival to observing the full count, per process.
    pub fn waiting(&self) -> &[u64] {
        &self.waiting
    }

    /// Mean accesses per process.
    pub fn mean_accesses(&self) -> f64 {
        self.accesses.iter().map(|&a| a as f64).sum::<f64>() / self.accesses.len() as f64
    }

    /// Mean waiting time per process.
    pub fn mean_waiting(&self) -> f64 {
        self.waiting.iter().map(|&w| w as f64).sum::<f64>() / self.waiting.len() as f64
    }

    /// Cycle at which the last process proceeded.
    pub fn completion(&self) -> u64 {
        self.completion
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    NotArrived,
    /// Contending to execute the fetch-and-increment.
    IncRequest { since: u64 },
    /// Sleeping between polls.
    Waiting { until: u64 },
    /// Contending to read the counter.
    Poll { since: u64 },
    Done,
}

/// Simulator of the one-variable barrier on the Section-3 network model.
///
/// All traffic — increments and polls — converges on a single memory
/// module, so arriving processors contend with every poller.
///
/// # Examples
///
/// ```
/// use abs_core::single::SingleCounterSim;
/// use abs_core::{BackoffPolicy, BarrierConfig};
///
/// let sim = SingleCounterSim::new(BarrierConfig::new(16, 0), BackoffPolicy::None);
/// let run = sim.run(1);
/// assert_eq!(run.accesses().len(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleCounterSim {
    config: BarrierConfig,
    policy: BackoffPolicy,
}

impl SingleCounterSim {
    /// Creates a simulator. The `arbitration` field of the config applies
    /// to the single module.
    pub fn new(config: BarrierConfig, policy: BackoffPolicy) -> Self {
        Self { config, policy }
    }

    /// The configuration in force.
    pub fn config(&self) -> BarrierConfig {
        self.config
    }

    /// The policy in force.
    pub fn policy(&self) -> BackoffPolicy {
        self.policy
    }

    /// Simulates one episode on the default (event-driven) kernel.
    pub fn run(&self, seed: u64) -> SingleCounterRun {
        self.run_with(seed, Kernel::default())
    }

    /// Simulates one episode on the given kernel.
    ///
    /// `Kernel::Cycle` is the reference oracle; `Kernel::Event` is
    /// bit-identical and much faster (the equivalence suite in `abs-bench`
    /// asserts the identity).
    pub fn run_with(&self, seed: u64, kernel: Kernel) -> SingleCounterRun {
        match kernel {
            Kernel::Cycle => self.run_cycle_kernel(seed),
            Kernel::Event => self.run_event_kernel(seed),
        }
    }

    /// The reference cycle stepper: every simulated cycle rescans all `N`
    /// processors to activate arrivals/expiries and collect requests.
    fn run_cycle_kernel(&self, seed: u64) -> SingleCounterRun {
        let n = self.config.n;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let arrivals = rng.uniform_arrivals(n, self.config.span);

        let mut phases = vec![Phase::NotArrived; n];
        let mut accesses = vec![0u64; n];
        let mut polls = vec![0u32; n];
        let mut done_at = vec![0u64; n];
        let mut module = MemoryModule::new(self.config.arbitration);

        let mut now = arrivals[0];
        let mut count = 0usize;
        let mut done = 0usize;
        let mut reqs: Vec<Request> = Vec::with_capacity(n);

        while done < n {
            for (id, phase) in phases.iter_mut().enumerate() {
                match *phase {
                    Phase::NotArrived if arrivals[id] <= now => {
                        *phase = Phase::IncRequest { since: now };
                    }
                    Phase::Waiting { until } if until <= now => {
                        *phase = Phase::Poll { since: now };
                    }
                    _ => {}
                }
            }

            reqs.clear();
            for (id, phase) in phases.iter().enumerate() {
                match *phase {
                    Phase::IncRequest { since } | Phase::Poll { since } => {
                        accesses[id] = accesses[id].saturating_add(1);
                        reqs.push(Request::new(id, since));
                    }
                    _ => {}
                }
            }

            if let Some(winner) = module.arbitrate(&reqs, &mut rng) {
                match phases[winner] {
                    Phase::IncRequest { .. } => {
                        count += 1;
                        if count == n {
                            // The last incrementer proceeds immediately: its
                            // own fetch-and-add returned N.
                            phases[winner] = Phase::Done;
                            done_at[winner] = now;
                            done += 1;
                        } else {
                            let wait = self.policy.variable_wait(n, count);
                            phases[winner] = if wait == 0 {
                                Phase::Poll { since: now + 1 }
                            } else {
                                Phase::Waiting {
                                    until: now + 1 + wait,
                                }
                            };
                        }
                    }
                    Phase::Poll { .. } => {
                        if count == n {
                            phases[winner] = Phase::Done;
                            done_at[winner] = now;
                            done += 1;
                        } else {
                            polls[winner] += 1;
                            // The poll returned the current count, so
                            // state-based variable backoff re-applies on top
                            // of the poll-count-based flag backoff: take the
                            // larger of the two.
                            let by_polls = self
                                .policy
                                .sampled_flag_delay(polls[winner], &mut rng)
                                // Parking is meaningless without a separate
                                // flag writer to wake us; saturate instead.
                                .unwrap_or(u64::MAX >> 1);
                            let by_state = self.policy.variable_wait(n, count.max(1));
                            let delay = by_polls.max(by_state);
                            phases[winner] = if delay == 0 {
                                Phase::Poll { since: now + 1 }
                            } else {
                                Phase::Waiting {
                                    until: now + 1 + delay,
                                }
                            };
                        }
                    }
                    _ => unreachable!("only requesters are served"),
                }
            }

            let any_requesting = phases
                .iter()
                .any(|p| matches!(p, Phase::IncRequest { .. } | Phase::Poll { .. }));
            if any_requesting {
                now += 1;
            } else if done < n {
                #[expect(clippy::expect_used, reason = "pending < n guarantees a scheduled event exists")]
                let next = phases
                    .iter()
                    .enumerate()
                    .filter_map(|(id, p)| match *p {
                        Phase::NotArrived => Some(arrivals[id]),
                        Phase::Waiting { until } => Some(until),
                        _ => None,
                    })
                    .min()
                    .expect("pending processors must have a next event");
                now = next.max(now + 1);
            }
        }

        let waiting: Vec<u64> = (0..n).map(|i| done_at[i] - arrivals[i]).collect();
        SingleCounterRun {
            accesses,
            waiting,
            completion: done_at.iter().copied().max().unwrap_or(0),
        }
    }

    /// The event-driven skip-ahead kernel.
    ///
    /// Increments and polls share the single module, so one [`PendingSet`]
    /// carries both request kinds; a [`TimeWheel`] replays the sorted
    /// arrivals from a cursor and parks the backoff expiries. A serve that
    /// leaves the processor requesting next cycle (increment-to-poll
    /// handoff, zero-delay poll miss) re-ages the request in place so the
    /// bulk presented-access charge runs unbroken; the RNG draw order per
    /// busy cycle (arbitrate, then any sampled poll delay) matches the
    /// cycle stepper.
    fn run_event_kernel(&self, seed: u64) -> SingleCounterRun {
        let n = self.config.n;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let arrivals = rng.uniform_arrivals(n, self.config.span);

        let mut phases = vec![Phase::NotArrived; n];
        let mut accesses = vec![0u64; n];
        let mut polls = vec![0u32; n];
        let mut done_at = vec![0u64; n];
        let mut pending = PendingSet::new(self.config.arbitration, n);
        // First cycle the processor's current request has been charged
        // from; unbroken across in-place re-ages (see above).
        let mut charge_from = vec![0u64; n];

        let mut now = arrivals[0];
        let mut count = 0usize;
        let mut done = 0usize;
        let mut wheel = TimeWheel::with_arrivals(&arrivals);
        let mut due: Vec<usize> = Vec::new();

        while done < n {
            // Activate arrivals and expired waits due this cycle, in id
            // order.
            wheel.pop_due(now, &mut due);
            for &id in &due {
                match phases[id] {
                    Phase::NotArrived => {
                        phases[id] = Phase::IncRequest { since: now };
                        pending.insert(Request::new(id, now));
                        charge_from[id] = now;
                    }
                    Phase::Waiting { until } => {
                        debug_assert!(until <= now);
                        phases[id] = Phase::Poll { since: now };
                        pending.insert(Request::new(id, now));
                        charge_from[id] = now;
                    }
                    _ => unreachable!("only dormant processors sleep in the wheel"),
                }
            }

            debug_assert!(!pending.is_empty(), "processed a dead cycle at {now}");

            if let Some(winner) = pending.arbitrate(&mut rng) {
                match phases[winner] {
                    Phase::IncRequest { .. } => {
                        count += 1;
                        if count == n {
                            // The last incrementer proceeds immediately: its
                            // own fetch-and-add returned N.
                            pending.remove(winner);
                            accesses[winner] = accesses[winner].saturating_add(now - charge_from[winner] + 1);
                            phases[winner] = Phase::Done;
                            done_at[winner] = now;
                            done += 1;
                        } else {
                            let wait = self.policy.variable_wait(n, count);
                            if wait == 0 {
                                // The processor keeps requesting the same
                                // module next cycle, now as a poller: re-age
                                // in place, keep the charge running.
                                phases[winner] = Phase::Poll { since: now + 1 };
                                pending.refresh(winner, now + 1);
                            } else {
                                pending.remove(winner);
                                accesses[winner] = accesses[winner].saturating_add(now - charge_from[winner] + 1);
                                phases[winner] = Phase::Waiting {
                                    until: now + 1 + wait,
                                };
                                wheel.schedule(now + 1 + wait, winner);
                            }
                        }
                    }
                    Phase::Poll { .. } => {
                        if count == n {
                            pending.remove(winner);
                            accesses[winner] = accesses[winner].saturating_add(now - charge_from[winner] + 1);
                            phases[winner] = Phase::Done;
                            done_at[winner] = now;
                            done += 1;
                        } else {
                            polls[winner] += 1;
                            // The poll returned the current count, so
                            // state-based variable backoff re-applies on top
                            // of the poll-count-based flag backoff: take the
                            // larger of the two.
                            let by_polls = self
                                .policy
                                .sampled_flag_delay(polls[winner], &mut rng)
                                // Parking is meaningless without a separate
                                // flag writer to wake us; saturate instead.
                                .unwrap_or(u64::MAX >> 1);
                            let by_state = self.policy.variable_wait(n, count.max(1));
                            let delay = by_polls.max(by_state);
                            if delay == 0 {
                                phases[winner] = Phase::Poll { since: now + 1 };
                                pending.refresh(winner, now + 1);
                            } else {
                                pending.remove(winner);
                                accesses[winner] = accesses[winner].saturating_add(now - charge_from[winner] + 1);
                                phases[winner] = Phase::Waiting {
                                    until: now + 1 + delay,
                                };
                                wheel.schedule(now + 1 + delay, winner);
                            }
                        }
                    }
                    _ => unreachable!("only requesters are served"),
                }
            }

            // Advance time: one cycle while anything is pending, else jump
            // to the next wake-up.
            if !pending.is_empty() {
                now += 1;
            } else if done < n {
                #[expect(clippy::expect_used, reason = "done < n guarantees a scheduled event exists")]
                let next = wheel
                    .peek_min()
                    .expect("pending processors must have a next event");
                now = next.max(now + 1);
            }
        }

        let waiting: Vec<u64> = (0..n).map(|i| done_at[i] - arrivals[i]).collect();
        SingleCounterRun {
            accesses,
            waiting,
            completion: done_at.iter().copied().max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::BarrierSim;
    use abs_sim::sweep::derive_seed;

    fn mean_over(
        config: BarrierConfig,
        policy: BackoffPolicy,
        reps: u32,
        metric: impl Fn(&SingleCounterRun) -> f64,
    ) -> f64 {
        let sim = SingleCounterSim::new(config, policy);
        (0..reps)
            .map(|i| metric(&sim.run(derive_seed(0x51, i as u64))))
            .sum::<f64>()
            / reps as f64
    }

    #[test]
    fn deterministic_for_seed() {
        let sim = SingleCounterSim::new(BarrierConfig::new(16, 100), BackoffPolicy::None);
        assert_eq!(sim.run(3), sim.run(3));
    }

    #[test]
    fn kernels_bit_identical() {
        use abs_net::module::Arbitration;
        let policies = [
            BackoffPolicy::None,
            BackoffPolicy::exponential(2),
            BackoffPolicy::Linear { step: 10 },
            BackoffPolicy::on_variable(),
            BackoffPolicy::ExponentialJittered { base: 2 },
        ];
        for policy in policies {
            for arb in Arbitration::ALL {
                for (n, span) in [(48usize, 400u64), (16, 0), (1, 10)] {
                    let cfg = BarrierConfig::new(n, span).with_arbitration(arb);
                    let sim = SingleCounterSim::new(cfg, policy);
                    for seed in 0..3 {
                        assert_eq!(
                            sim.run_with(seed, Kernel::Cycle),
                            sim.run_with(seed, Kernel::Event),
                            "policy {policy:?} arbitration {arb:?} n {n} seed {seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_processor_trivial() {
        let run = SingleCounterSim::new(BarrierConfig::new(1, 0), BackoffPolicy::None).run(1);
        // One increment, done.
        assert_eq!(run.accesses(), &[1]);
        assert_eq!(run.waiting(), &[0]);
    }

    #[test]
    fn everyone_passes() {
        for (n, a) in [(2usize, 0u64), (16, 0), (16, 500), (64, 100)] {
            let run =
                SingleCounterSim::new(BarrierConfig::new(n, a), BackoffPolicy::None).run(7);
            assert_eq!(run.accesses().len(), n);
            assert!(run.accesses().iter().all(|&x| x >= 1));
        }
    }

    #[test]
    fn costlier_than_two_variable_barrier() {
        // Section 2's argument for Tang–Yew: arriving incrementers contend
        // with all the pollers on the same variable.
        let cfg = BarrierConfig::new(64, 0);
        let single = mean_over(cfg, BackoffPolicy::None, 20, |r| r.mean_accesses());
        let two_var: f64 = (0..20)
            .map(|i| {
                BarrierSim::new(cfg, BackoffPolicy::None)
                    .run(derive_seed(0x51, i))
                    .mean_accesses()
            })
            .sum::<f64>()
            / 20.0;
        assert!(
            single > two_var,
            "single-counter {single} must cost more than two-variable {two_var}"
        );
    }

    #[test]
    fn backoff_advantage_even_greater() {
        // Section 4: "If the barrier variable and flag are one and the same
        // object, the relative advantage of using adaptive backoff
        // techniques will be even greater."
        let cfg = BarrierConfig::new(64, 0);
        let single_plain = mean_over(cfg, BackoffPolicy::None, 20, |r| r.mean_accesses());
        let single_backoff =
            mean_over(cfg, BackoffPolicy::exponential(2), 20, |r| r.mean_accesses());
        let single_saving = 1.0 - single_backoff / single_plain;

        let two = |policy: BackoffPolicy| {
            (0..20)
                .map(|i| {
                    BarrierSim::new(cfg, policy)
                        .run(derive_seed(0x52, i))
                        .mean_accesses()
                })
                .sum::<f64>()
                / 20.0
        };
        let two_saving = 1.0 - two(BackoffPolicy::exponential(2)) / two(BackoffPolicy::None);
        assert!(
            single_saving > two_saving,
            "single-counter saving {single_saving} must exceed two-variable {two_saving}"
        );
    }

    #[test]
    fn variable_backoff_helps_single_counter() {
        let cfg = BarrierConfig::new(64, 0);
        let plain = mean_over(cfg, BackoffPolicy::None, 20, |r| r.mean_accesses());
        let var = mean_over(cfg, BackoffPolicy::on_variable(), 20, |r| r.mean_accesses());
        assert!(var < plain, "var {var} plain {plain}");
    }

    #[test]
    fn waiting_positive_and_completion_consistent() {
        let run =
            SingleCounterSim::new(BarrierConfig::new(32, 200), BackoffPolicy::exponential(2))
                .run(9);
        assert!(run.mean_waiting() >= 0.0);
        assert!(run.completion() >= *run.waiting().iter().max().unwrap_or(&0));
    }
}
