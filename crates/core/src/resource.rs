//! Backoff while waiting on a held resource (Section 8).
//!
//! "Processors waiting to access a resource can backoff testing the resource
//! by an amount proportional to the number of processors waiting. Adaptive
//! techniques will likely perform much better in this situation than with
//! barrier synchronizations because the amount of time a processor has to
//! wait at a resource is directly proportional to the number of processors
//! waiting (with the constant of the proportion being the average amount of
//! time the resource is held by each processor)."
//!
//! The model: a single resource (a lock) lives in one memory module that
//! serves one access per cycle. `N` processors arrive uniformly in `[0, A]`,
//! acquire the resource in some order, hold it for a fixed time, and release
//! it — the release itself is a module write that contends with the pollers,
//! just like the barrier-flag write.
//!
//! Two bit-identical kernels drive an episode (selected by [`Kernel`]): the
//! reference cycle stepper and the event-driven skip-ahead kernel built on
//! a shared [`PendingSet`] and [`TimeWheel`] —
//! see [`ResourceSim::run_with`].

use abs_net::module::{Arbitration, MemoryModule, PendingSet, Request};
use abs_sim::kernel::Kernel;
use abs_sim::rng::Xoshiro256PlusPlus;
use abs_sim::wheel::TimeWheel;

/// Backoff policy while the resource is observed held.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ResourcePolicy {
    /// Continuous polling.
    #[default]
    None,
    /// Exponential in the number of failed acquisition attempts.
    Exponential {
        /// Exponential base.
        base: u64,
        /// Ceiling on the delay.
        cap: u64,
    },
    /// The paper's proposal: wait `waiters × hold_estimate` cycles, where
    /// `waiters` is the number of holders still ahead of this processor.
    /// The simulator realizes the count with a fetch-and-add ticket: a
    /// processor's first served access grants it a ticket, and the gap
    /// between its ticket and the completed-release count is exactly the
    /// queue ahead of it.
    ProportionalWaiters {
        /// Estimate of the per-holder occupancy, the proportionality
        /// constant.
        hold_estimate: u64,
    },
}

impl ResourcePolicy {
    /// Delay after the `k`-th failed acquisition attempt with `waiters`
    /// processors currently waiting.
    pub fn delay(&self, k: u32, waiters: usize) -> u64 {
        match *self {
            ResourcePolicy::None => 0,
            ResourcePolicy::Exponential { base, cap } => {
                let mut acc: u64 = 1;
                for _ in 0..k {
                    acc = acc.saturating_mul(base);
                    if acc >= cap {
                        return cap;
                    }
                }
                acc.min(cap)
            }
            ResourcePolicy::ProportionalWaiters { hold_estimate } => {
                hold_estimate.saturating_mul(waiters as u64)
            }
        }
    }

    /// Label for tables.
    pub fn label(&self) -> String {
        match *self {
            ResourcePolicy::None => "without backoff".to_string(),
            ResourcePolicy::Exponential { base, .. } => format!("exponential base {base}"),
            ResourcePolicy::ProportionalWaiters { hold_estimate } => {
                format!("proportional x{hold_estimate}")
            }
        }
    }
}

/// Static parameters of a resource-contention episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceConfig {
    /// Number of contending processors.
    pub n: usize,
    /// Arrival interval in cycles.
    pub span: u64,
    /// Cycles each acquirer holds the resource.
    pub hold_time: u64,
    /// Arbitration policy of the resource's memory module.
    pub arbitration: Arbitration,
}

impl ResourceConfig {
    /// Creates a configuration with the paper's default random arbitration.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `hold_time == 0`.
    pub fn new(n: usize, span: u64, hold_time: u64) -> Self {
        assert!(n > 0, "at least one processor required");
        assert!(hold_time > 0, "hold time must be positive");
        Self {
            n,
            span,
            hold_time,
            arbitration: Arbitration::Random,
        }
    }

    /// Returns a copy using the given arbitration policy.
    pub fn with_arbitration(mut self, arbitration: Arbitration) -> Self {
        self.arbitration = arbitration;
        self
    }
}

/// The result of one resource-contention episode.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceRun {
    accesses: Vec<u64>,
    latency: Vec<u64>,
    makespan: u64,
}

impl ResourceRun {
    /// Network accesses per processor (polls + acquire + release).
    pub fn accesses(&self) -> &[u64] {
        &self.accesses
    }

    /// Cycles from arrival to acquisition, per processor.
    pub fn latency(&self) -> &[u64] {
        &self.latency
    }

    /// Mean accesses per processor.
    pub fn mean_accesses(&self) -> f64 {
        self.accesses.iter().map(|&a| a as f64).sum::<f64>() / self.accesses.len() as f64
    }

    /// Mean acquisition latency per processor.
    pub fn mean_latency(&self) -> f64 {
        self.latency.iter().map(|&l| l as f64).sum::<f64>() / self.latency.len() as f64
    }

    /// Cycle at which the last holder released.
    pub fn makespan(&self) -> u64 {
        self.makespan
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    NotArrived,
    Polling { since: u64, retries: u32 },
    Waiting { until: u64, retries: u32 },
    Holding { until: u64 },
    Releasing { since: u64 },
    Done,
}

/// Simulator of `N` processors contending for one resource.
///
/// # Examples
///
/// ```
/// use abs_core::resource::{ResourceConfig, ResourcePolicy, ResourceSim};
///
/// let config = ResourceConfig::new(16, 0, 20);
/// let plain = ResourceSim::new(config, ResourcePolicy::None).run(1);
/// let prop = ResourceSim::new(
///     config,
///     ResourcePolicy::ProportionalWaiters { hold_estimate: 20 },
/// )
/// .run(1);
/// assert!(prop.mean_accesses() < plain.mean_accesses());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceSim {
    config: ResourceConfig,
    policy: ResourcePolicy,
}

impl ResourceSim {
    /// Creates a simulator.
    pub fn new(config: ResourceConfig, policy: ResourcePolicy) -> Self {
        Self { config, policy }
    }

    /// The configuration in force.
    pub fn config(&self) -> ResourceConfig {
        self.config
    }

    /// The policy in force.
    pub fn policy(&self) -> ResourcePolicy {
        self.policy
    }

    /// Simulates one episode on the default (event-driven) kernel.
    pub fn run(&self, seed: u64) -> ResourceRun {
        self.run_with(seed, Kernel::default())
    }

    /// Simulates one episode on the given kernel.
    ///
    /// `Kernel::Cycle` is the reference oracle; `Kernel::Event` is
    /// bit-identical and much faster (the equivalence suite in `abs-bench`
    /// asserts the identity).
    pub fn run_with(&self, seed: u64, kernel: Kernel) -> ResourceRun {
        match kernel {
            Kernel::Cycle => self.run_cycle_kernel(seed),
            Kernel::Event => self.run_event_kernel(seed),
        }
    }

    /// The reference cycle stepper: every simulated cycle rescans all `N`
    /// processors to activate arrivals/expiries and collect requests.
    fn run_cycle_kernel(&self, seed: u64) -> ResourceRun {
        let n = self.config.n;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let arrivals = rng.uniform_arrivals(n, self.config.span);

        let mut phases = vec![Phase::NotArrived; n];
        let mut accesses = vec![0u64; n];
        let mut acquired_at = vec![0u64; n];
        let mut tickets: Vec<Option<usize>> = vec![None; n];
        let mut module = MemoryModule::new(self.config.arbitration);

        let mut now = arrivals[0];
        let mut held = false;
        let mut done = 0usize;
        let mut next_ticket = 0usize;
        let mut completed = 0usize;
        let mut makespan = 0u64;
        let mut reqs: Vec<Request> = Vec::with_capacity(n);

        while done < n {
            for (id, phase) in phases.iter_mut().enumerate() {
                match *phase {
                    Phase::NotArrived if arrivals[id] <= now => {
                        *phase = Phase::Polling {
                            since: now,
                            retries: 0,
                        };
                    }
                    Phase::Waiting { until, retries } if until <= now => {
                        *phase = Phase::Polling {
                            since: now,
                            retries,
                        };
                    }
                    Phase::Holding { until } if until <= now => {
                        *phase = Phase::Releasing { since: now };
                    }
                    _ => {}
                }
            }

            reqs.clear();
            for (id, phase) in phases.iter().enumerate() {
                match *phase {
                    Phase::Polling { since, .. } | Phase::Releasing { since } => {
                        accesses[id] = accesses[id].saturating_add(1);
                        reqs.push(Request::new(id, since));
                    }
                    _ => {}
                }
            }

            let waiters = phases
                .iter()
                .filter(|p| matches!(p, Phase::Polling { .. } | Phase::Waiting { .. }))
                .count();

            if let Some(winner) = module.arbitrate(&reqs, &mut rng) {
                match phases[winner] {
                    Phase::Releasing { .. } => {
                        held = false;
                        completed += 1;
                        phases[winner] = Phase::Done;
                        makespan = makespan.max(now);
                        done += 1;
                    }
                    Phase::Polling { retries, .. } => {
                        // The first served access doubles as the
                        // fetch-and-add on the ticket counter.
                        let ticket = *tickets[winner].get_or_insert_with(|| {
                            let t = next_ticket;
                            next_ticket += 1;
                            t
                        });
                        if !held {
                            held = true;
                            acquired_at[winner] = now;
                            phases[winner] = Phase::Holding {
                                until: now + self.config.hold_time,
                            };
                        } else {
                            let retries = retries + 1;
                            // The queue ahead of this processor: holders
                            // with smaller tickets not yet released
                            // (ProportionalWaiters), or simply the other
                            // waiters (the coarse count).
                            let ahead = match self.policy {
                                ResourcePolicy::ProportionalWaiters { .. } => {
                                    ticket.saturating_sub(completed)
                                }
                                _ => waiters.saturating_sub(1),
                            };
                            let delay = self.policy.delay(retries, ahead);
                            phases[winner] = if delay == 0 {
                                Phase::Polling {
                                    since: now + 1,
                                    retries,
                                }
                            } else {
                                Phase::Waiting {
                                    until: now + 1 + delay,
                                    retries,
                                }
                            };
                        }
                    }
                    _ => unreachable!("only pollers and releasers request the module"),
                }
            }

            let any_requesting = phases
                .iter()
                .any(|p| matches!(p, Phase::Polling { .. } | Phase::Releasing { .. }));
            if any_requesting {
                now += 1;
            } else if done < n {
                #[expect(clippy::expect_used, reason = "pending < n guarantees a scheduled event exists")]
                let next = phases
                    .iter()
                    .enumerate()
                    .filter_map(|(id, p)| match *p {
                        Phase::NotArrived => Some(arrivals[id]),
                        Phase::Waiting { until, .. } => Some(until),
                        Phase::Holding { until } => Some(until),
                        _ => None,
                    })
                    .min()
                    .expect("pending processors must have a next event");
                now = next.max(now + 1);
            }
        }

        let latency: Vec<u64> = (0..n).map(|i| acquired_at[i] - arrivals[i]).collect();
        ResourceRun {
            accesses,
            latency,
            makespan,
        }
    }

    /// The event-driven skip-ahead kernel.
    ///
    /// One [`PendingSet`] holds the pollers and the releaser; a
    /// [`TimeWheel`] replays the sorted arrivals from a cursor and parks
    /// the backoff expiries and hold completions; dead cycles are jumped.
    /// Presented-access charges are applied in bulk when a request leaves
    /// the set, with a zero-delay poll miss re-aging the request in place
    /// so its charge interval runs unbroken.
    ///
    /// The cycle stepper's per-cycle `waiters` cohort scan is replaced by a
    /// count maintained at phase transitions: processors enter the cohort
    /// on arrival and leave it on acquisition (`Polling <-> Waiting` moves
    /// stay inside it), so the count at serve time equals the scan's.
    fn run_event_kernel(&self, seed: u64) -> ResourceRun {
        let n = self.config.n;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let arrivals = rng.uniform_arrivals(n, self.config.span);

        let mut phases = vec![Phase::NotArrived; n];
        let mut accesses = vec![0u64; n];
        let mut acquired_at = vec![0u64; n];
        let mut tickets: Vec<Option<usize>> = vec![None; n];
        let mut pending = PendingSet::new(self.config.arbitration, n);
        // First cycle the processor's current request has been charged
        // from; never re-aged by a zero-delay poll miss (see above).
        let mut charge_from = vec![0u64; n];
        // Processors in `Polling` or `Waiting` — the cycle stepper's
        // `waiters` scan, maintained incrementally.
        let mut waiting_cohort = 0usize;

        let mut now = arrivals[0];
        let mut held = false;
        let mut done = 0usize;
        let mut next_ticket = 0usize;
        let mut completed = 0usize;
        let mut makespan = 0u64;
        let mut wheel = TimeWheel::with_arrivals(&arrivals);
        let mut due: Vec<usize> = Vec::new();

        while done < n {
            // Activate arrivals, expired backoffs and completed holds due
            // this cycle, in id order.
            wheel.pop_due(now, &mut due);
            for &id in &due {
                match phases[id] {
                    Phase::NotArrived => {
                        phases[id] = Phase::Polling {
                            since: now,
                            retries: 0,
                        };
                        pending.insert(Request::new(id, now));
                        charge_from[id] = now;
                        waiting_cohort += 1;
                    }
                    Phase::Waiting { until, retries } => {
                        debug_assert!(until <= now);
                        phases[id] = Phase::Polling {
                            since: now,
                            retries,
                        };
                        pending.insert(Request::new(id, now));
                        charge_from[id] = now;
                    }
                    Phase::Holding { until } => {
                        debug_assert!(until <= now);
                        phases[id] = Phase::Releasing { since: now };
                        pending.insert(Request::new(id, now));
                        charge_from[id] = now;
                    }
                    _ => unreachable!("only dormant processors sleep in the wheel"),
                }
            }

            debug_assert!(!pending.is_empty(), "processed a dead cycle at {now}");

            if let Some(winner) = pending.arbitrate(&mut rng) {
                match phases[winner] {
                    Phase::Releasing { .. } => {
                        pending.remove(winner);
                        // Presented on every cycle since enqueue, served or
                        // denied.
                        accesses[winner] = accesses[winner].saturating_add(now - charge_from[winner] + 1);
                        held = false;
                        completed += 1;
                        phases[winner] = Phase::Done;
                        makespan = makespan.max(now);
                        done += 1;
                    }
                    Phase::Polling { retries, .. } => {
                        // The first served access doubles as the
                        // fetch-and-add on the ticket counter.
                        let ticket = *tickets[winner].get_or_insert_with(|| {
                            let t = next_ticket;
                            next_ticket += 1;
                            t
                        });
                        if !held {
                            pending.remove(winner);
                            accesses[winner] = accesses[winner].saturating_add(now - charge_from[winner] + 1);
                            held = true;
                            acquired_at[winner] = now;
                            waiting_cohort -= 1;
                            phases[winner] = Phase::Holding {
                                until: now + self.config.hold_time,
                            };
                            wheel.schedule(now + self.config.hold_time, winner);
                        } else {
                            let retries = retries + 1;
                            // The queue ahead of this processor: holders
                            // with smaller tickets not yet released
                            // (ProportionalWaiters), or simply the other
                            // waiters (the coarse count).
                            let ahead = match self.policy {
                                ResourcePolicy::ProportionalWaiters { .. } => {
                                    ticket.saturating_sub(completed)
                                }
                                _ => waiting_cohort.saturating_sub(1),
                            };
                            let delay = self.policy.delay(retries, ahead);
                            if delay == 0 {
                                // Still pending next cycle; only the request
                                // age changes (oldest-first arbitration
                                // reads it). The charge interval keeps
                                // running — no removal.
                                phases[winner] = Phase::Polling {
                                    since: now + 1,
                                    retries,
                                };
                                pending.refresh(winner, now + 1);
                            } else {
                                pending.remove(winner);
                                accesses[winner] = accesses[winner].saturating_add(now - charge_from[winner] + 1);
                                phases[winner] = Phase::Waiting {
                                    until: now + 1 + delay,
                                    retries,
                                };
                                wheel.schedule(now + 1 + delay, winner);
                            }
                        }
                    }
                    _ => unreachable!("only pollers and releasers request the module"),
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

        let latency: Vec<u64> = (0..n).map(|i| acquired_at[i] - arrivals[i]).collect();
        ResourceRun {
            accesses,
            latency,
            makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abs_sim::sweep::derive_seed;

    fn mean_over(
        config: ResourceConfig,
        policy: ResourcePolicy,
        reps: u32,
        metric: impl Fn(&ResourceRun) -> f64,
    ) -> f64 {
        let sim = ResourceSim::new(config, policy);
        (0..reps)
            .map(|i| metric(&sim.run(derive_seed(0x5E5, i as u64))))
            .sum::<f64>()
            / reps as f64
    }

    #[test]
    fn deterministic_for_seed() {
        let sim = ResourceSim::new(ResourceConfig::new(8, 50, 10), ResourcePolicy::None);
        assert_eq!(sim.run(4), sim.run(4));
    }

    #[test]
    fn kernels_bit_identical() {
        // The event kernel must reproduce the cycle stepper exactly across
        // every policy / arbitration mix; the broad sweep lives in the
        // `kernel_equivalence` suite, this is the in-crate smoke version.
        let policies = [
            ResourcePolicy::None,
            ResourcePolicy::Exponential { base: 2, cap: 512 },
            ResourcePolicy::ProportionalWaiters { hold_estimate: 20 },
        ];
        for policy in policies {
            for arb in Arbitration::ALL {
                for (n, span, hold) in [(16usize, 0u64, 20u64), (24, 300, 10), (1, 50, 5)] {
                    let cfg = ResourceConfig::new(n, span, hold).with_arbitration(arb);
                    let sim = ResourceSim::new(cfg, policy);
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
    fn kernels_bit_identical_with_skippable_dead_time() {
        // Long holds under proportional backoff leave the module idle for
        // most of the episode — the regime the skip-ahead clock exercises.
        let cfg = ResourceConfig::new(32, 10_000, 100);
        let sim = ResourceSim::new(
            cfg,
            ResourcePolicy::ProportionalWaiters { hold_estimate: 100 },
        );
        for seed in 0..4 {
            assert_eq!(
                sim.run_with(seed, Kernel::Cycle),
                sim.run_with(seed, Kernel::Event),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn single_processor_fast_path() {
        let run = ResourceSim::new(ResourceConfig::new(1, 0, 10), ResourcePolicy::None).run(1);
        // One acquire access, one release access.
        assert_eq!(run.accesses(), &[2]);
        assert_eq!(run.latency(), &[0]);
        assert!(run.makespan() >= 10);
    }

    #[test]
    fn serialization_bounds_makespan() {
        // N holders at hold_time h serialize: makespan >= N * h.
        let run = ResourceSim::new(ResourceConfig::new(8, 0, 25), ResourcePolicy::None).run(2);
        assert!(run.makespan() >= 8 * 25, "makespan {}", run.makespan());
    }

    #[test]
    fn proportional_backoff_slashes_accesses() {
        // The paper's Section-8 claim: proportional backoff works *better*
        // for resources than for barriers because wait time is proportional
        // to the queue length.
        let cfg = ResourceConfig::new(16, 0, 20);
        let plain = mean_over(cfg, ResourcePolicy::None, 20, |r| r.mean_accesses());
        let prop = mean_over(
            cfg,
            ResourcePolicy::ProportionalWaiters { hold_estimate: 20 },
            20,
            |r| r.mean_accesses(),
        );
        assert!(
            prop < plain * 0.3,
            "plain {plain} proportional {prop}"
        );
    }

    #[test]
    fn proportional_backoff_keeps_latency_close() {
        let cfg = ResourceConfig::new(16, 0, 20);
        let plain = mean_over(cfg, ResourcePolicy::None, 20, |r| r.mean_latency());
        let prop = mean_over(
            cfg,
            ResourcePolicy::ProportionalWaiters { hold_estimate: 20 },
            20,
            |r| r.mean_latency(),
        );
        // Latency may grow slightly, but not anywhere near the barrier
        // overshoot factor; allow 50 %.
        assert!(
            prop < plain * 1.5,
            "plain latency {plain} proportional {prop}"
        );
    }

    #[test]
    fn exponential_backoff_reduces_accesses() {
        let cfg = ResourceConfig::new(16, 0, 20);
        let plain = mean_over(cfg, ResourcePolicy::None, 20, |r| r.mean_accesses());
        let exp = mean_over(
            cfg,
            ResourcePolicy::Exponential { base: 2, cap: 512 },
            20,
            |r| r.mean_accesses(),
        );
        assert!(exp < plain, "plain {plain} exp {exp}");
    }

    #[test]
    fn policy_delays() {
        assert_eq!(ResourcePolicy::None.delay(5, 10), 0);
        let e = ResourcePolicy::Exponential { base: 2, cap: 100 };
        assert_eq!(e.delay(1, 0), 2);
        assert_eq!(e.delay(9, 0), 100);
        let p = ResourcePolicy::ProportionalWaiters { hold_estimate: 7 };
        assert_eq!(p.delay(1, 3), 21);
        assert_eq!(p.delay(9, 0), 0);
    }

    #[test]
    fn labels_unique() {
        let mut labels = vec![
            ResourcePolicy::None.label(),
            ResourcePolicy::Exponential { base: 2, cap: 9 }.label(),
            ResourcePolicy::ProportionalWaiters { hold_estimate: 1 }.label(),
        ];
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 3);
    }

    #[test]
    #[should_panic(expected = "hold time")]
    fn zero_hold_rejected() {
        ResourceConfig::new(4, 0, 0);
    }
}
