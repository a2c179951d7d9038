//! Circuit-switched Omega-network simulator with collision backoff.
//!
//! This is the substrate for the paper's Section-8 proposal: "another
//! similar method that can reduce contention in unbuffered circuit-switched
//! networks is to use adaptive backoff methods for network accesses also. If
//! a network access suffers a collision, instead of resubmitting the request
//! immediately, one can backoff some amount first."
//!
//! Each processor alternates between thinking and issuing a memory request
//! (possibly to a hot module). A request attempts to establish a circuit —
//! claiming one switch output port per stage along its [`OmegaTopology`]
//! route. If every port is free, the circuit is held for a configurable
//! round-trip time and then completes. If any port is busy, the request
//! *collides*; the requester learns the depth of the first busy stage ("a
//! network supplied status byte can be used to determine the stage at which
//! the collision occurred") and consults a [`NetworkBackoff`] policy for how
//! long to wait before retrying.
//!
//! # Kernels
//!
//! Two bit-identical implementations drive a run (selected by [`Kernel`]):
//! the reference cycle stepper, which rescans all `N` processors every
//! cycle for expiring holds and due retries, and the event-driven
//! skip-ahead kernel, which parks each outstanding request's next event
//! (hold completion, retry expiry) in a [`TimeWheel`] and keeps the idle
//! processors in a sorted set. Unlike the closed-population simulators,
//! the clock can only skip while **no processor is idle**: an idle
//! processor draws a Bernoulli issue trial every single cycle, so dead
//! cycles exist exactly when the whole population is attempting or holding
//! — the saturated regime where the cycle stepper is at its slowest.
//! A held port records the cycle its circuit expires, and a release runs at
//! exactly that cycle in both kernels, so ports free themselves by
//! timestamp and a route is never stored: each stage's port is computed
//! from `(src, dst)` as the scan reaches it.
//! Contention resolution (the per-cycle shuffle of simultaneous attempts)
//! draws only over the *due* attempts, so a cycle with no due attempt
//! costs no draw in either kernel.

use abs_sim::kernel::Kernel;
use abs_sim::rng::Xoshiro256PlusPlus;
use abs_sim::stats::OnlineStats;
use abs_sim::wheel::TimeWheel;

use crate::backoff::{CollisionInfo, NetworkBackoff};
use crate::hotspot::HotspotTraffic;
use crate::omega::OmegaTopology;

/// Configuration of a circuit-switched simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitConfig {
    /// log₂ of the network size (processors == memory modules == `2^k`).
    pub log2_size: u32,
    /// Cycles a successful circuit occupies its path (the memory round
    /// trip); at least 1.
    pub hold_cycles: u64,
    /// Probability that an idle processor issues a new request each cycle.
    pub request_rate: f64,
    /// Fraction of requests directed at the hot module (module 0).
    pub hot_fraction: f64,
    /// Cycles simulated before measurement starts.
    pub warmup_cycles: u64,
    /// Cycles measured.
    pub measure_cycles: u64,
}

impl Default for CircuitConfig {
    fn default() -> Self {
        Self {
            log2_size: 6,
            hold_cycles: 4,
            request_rate: 0.2,
            hot_fraction: 0.0,
            warmup_cycles: 1_000,
            measure_cycles: 10_000,
        }
    }
}

/// Aggregate results of a circuit-switched run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CircuitOutcome {
    /// Requests that completed inside the measurement window.
    pub completed: u64,
    /// Circuit-establishment attempts (network accesses), measured window.
    pub attempts: u64,
    /// Attempts that collided.
    pub collisions: u64,
    /// Mean cycles from request issue to completion.
    pub avg_latency: f64,
    /// Mean attempts per completed request.
    pub avg_attempts: f64,
    /// Completed requests per cycle across the whole machine.
    pub throughput: f64,
    /// Mean depth (stages traversed) of collisions.
    pub avg_collision_depth: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    /// No request outstanding.
    Idle,
    /// Request issued at `issued`; next establishment attempt at `retry_at`
    /// with `retries` failures so far.
    Attempting {
        issued: u64,
        retry_at: u64,
        retries: u32,
        dst: usize,
    },
    /// Circuit held until `until`.
    Holding { issued: u64, until: u64 },
}

/// Measurement-window accumulators, shared by both kernels.
#[derive(Debug, Default)]
struct Measure {
    completed: u64,
    attempts: u64,
    collisions: u64,
    latency: OnlineStats,
    attempt_per_req: OnlineStats,
    depth_stats: OnlineStats,
}

impl Measure {
    fn outcome(&self, measure_cycles: u64) -> CircuitOutcome {
        CircuitOutcome {
            completed: self.completed,
            attempts: self.attempts,
            collisions: self.collisions,
            avg_latency: self.latency.mean(),
            avg_attempts: self.attempt_per_req.mean(),
            throughput: self.completed as f64 / measure_cycles as f64,
            avg_collision_depth: self.depth_stats.mean(),
        }
    }
}

/// The circuit-switched network simulator.
///
/// # Examples
///
/// ```
/// use abs_net::circuit::{CircuitConfig, CircuitSim};
/// use abs_net::backoff::NetworkBackoff;
///
/// let sim = CircuitSim::new(
///     CircuitConfig { measure_cycles: 2_000, ..CircuitConfig::default() },
///     NetworkBackoff::ConstantRtt { rtt: 4 },
/// );
/// let outcome = sim.run(42);
/// assert!(outcome.completed > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitSim {
    config: CircuitConfig,
    policy: NetworkBackoff,
}

impl CircuitSim {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the request rate is outside `[0, 1]`, the hold time is
    /// zero, or the network size is invalid (see [`OmegaTopology::new`]).
    pub fn new(config: CircuitConfig, policy: NetworkBackoff) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.request_rate),
            "request rate must lie in [0, 1]"
        );
        assert!(config.hold_cycles > 0, "hold cycles must be positive");
        // Validate the topology eagerly.
        let _ = OmegaTopology::new(config.log2_size);
        Self { config, policy }
    }

    /// The configuration in force.
    pub fn config(&self) -> &CircuitConfig {
        &self.config
    }

    /// The backoff policy in force.
    pub fn policy(&self) -> NetworkBackoff {
        self.policy
    }

    /// Runs the simulation with the given seed on the default
    /// (event-driven) kernel and returns aggregate statistics over the
    /// measurement window.
    pub fn run(&self, seed: u64) -> CircuitOutcome {
        self.run_with(seed, Kernel::default())
    }

    /// Runs the simulation on the given kernel.
    ///
    /// `Kernel::Cycle` is the reference oracle; `Kernel::Event` is
    /// bit-identical and faster whenever the network saturates (the
    /// equivalence suite in `abs-bench` asserts the identity).
    pub fn run_with(&self, seed: u64, kernel: Kernel) -> CircuitOutcome {
        match kernel {
            Kernel::Cycle => self.run_cycle_kernel(seed),
            Kernel::Event => self.run_event_kernel(seed),
        }
    }

    /// Releases processor `p`'s held circuit at `now`, its expiry, and
    /// records the completion if measuring. The ports need no clearing:
    /// each holds `now`, which the `occupied[..] > now` test already reads
    /// as free.
    fn release(
        p: usize,
        now: u64,
        measuring: bool,
        states: &mut [ProcState],
        measure: &mut Measure,
    ) {
        let ProcState::Holding { issued, .. } = states[p] else {
            unreachable!("release of a non-holding processor")
        };
        if measuring {
            measure.completed += 1;
            measure.latency.push((now - issued) as f64);
        }
        states[p] = ProcState::Idle;
    }

    /// One establishment attempt by processor `p` at `now`. Returns the
    /// cycle of `p`'s next event: the hold expiry on success, the retry
    /// time after a collision.
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        &self,
        p: usize,
        now: u64,
        measuring: bool,
        topo: &OmegaTopology,
        states: &mut [ProcState],
        occupied: &mut [u64],
        measure: &mut Measure,
    ) -> u64 {
        let n = topo.size();
        let stages = topo.stages();
        let ProcState::Attempting {
            issued,
            retry_at,
            retries,
            dst,
        } = states[p]
        else {
            unreachable!("attempt by a non-attempting processor")
        };
        debug_assert!(retry_at <= now);
        if measuring {
            measure.attempts += 1;
        }
        let conflict = (0..stages).find(|&s| occupied[s * n + topo.port(p, dst, s)] > now);
        match conflict {
            None => {
                let until = now + self.config.hold_cycles;
                for s in 0..stages {
                    occupied[s * n + topo.port(p, dst, s)] = until;
                }
                if measuring {
                    measure.attempt_per_req.push((retries + 1) as f64);
                }
                states[p] = ProcState::Holding { issued, until };
                until
            }
            Some(stage) => {
                if measuring {
                    measure.collisions += 1;
                    measure.depth_stats.push((stage + 1) as f64);
                }
                let info = CollisionInfo {
                    depth: stage + 1,
                    stages,
                    retries: retries + 1,
                    queue_len: 0,
                };
                let delay = self.policy.delay(info);
                let retry_at = now + 1 + delay;
                states[p] = ProcState::Attempting {
                    issued,
                    retry_at,
                    retries: retries + 1,
                    dst,
                };
                retry_at
            }
        }
    }

    /// One reference-stepper cycle: expiring holds, issue trials and due
    /// attempts, all by linear scan. Both kernels execute this exact body
    /// for dense cycles — the cycle stepper always, the event kernel
    /// while the population is saturated — so the draw order is identical
    /// by construction. `due` is scratch; it holds this cycle's due
    /// attempts (post-shuffle) on return.
    #[allow(clippy::too_many_arguments)]
    fn scan_cycle(
        &self,
        now: u64,
        measuring: bool,
        topo: &OmegaTopology,
        traffic: &HotspotTraffic,
        rng: &mut Xoshiro256PlusPlus,
        states: &mut [ProcState],
        occupied: &mut [u64],
        measure: &mut Measure,
        due: &mut Vec<usize>,
    ) {
        let n = topo.size();

        // 1. Complete circuits whose hold expires, in id order.
        for p in 0..n {
            if let ProcState::Holding { until, .. } = states[p] {
                if until <= now {
                    Self::release(p, now, measuring, states, measure);
                }
            }
        }

        // 2. Idle processors may issue new requests, in id order.
        for state in states.iter_mut() {
            if *state == ProcState::Idle && rng.next_bool(self.config.request_rate) {
                *state = ProcState::Attempting {
                    issued: now,
                    retry_at: now,
                    retries: 0,
                    dst: traffic.destination(rng),
                };
            }
        }

        // 3. Due attempts try to establish circuits in random priority
        //    order (the shuffle draws only over the due attempts, so an
        //    attempt-free cycle costs no draw).
        due.clear();
        for p in 0..n {
            if let ProcState::Attempting { retry_at, .. } = states[p] {
                if retry_at <= now {
                    due.push(p);
                }
            }
        }
        rng.shuffle(due);
        for &p in due.iter() {
            self.attempt(p, now, measuring, topo, states, occupied, measure);
        }
    }

    /// Consecutive dense cycles (at least `N/2` due attempts) before the
    /// event kernel falls back to the reference scan body.
    const DENSE_STREAK: u32 = 32;
    /// Consecutive sparse scan cycles (fewer than `N/4` due attempts)
    /// before the event kernel rebuilds its indexes and resumes skipping.
    const SPARSE_STREAK: u32 = 64;

    /// The reference cycle stepper: every simulated cycle scans all `N`
    /// processors for expiring holds, issue trials and due retries.
    fn run_cycle_kernel(&self, seed: u64) -> CircuitOutcome {
        let topo = OmegaTopology::new(self.config.log2_size);
        let n = topo.size();
        let traffic = HotspotTraffic::new(n, self.config.hot_fraction, 0)
            .expect("validated hot fraction"); // abs-lint: allow(panic-path) -- CircuitConfig construction validates hot_fraction
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);

        let mut states = vec![ProcState::Idle; n];
        // occupied[stage * n + port] = cycle until which the port is held
        // (exclusive): free once `now` reaches it.
        let mut occupied: Vec<u64> = vec![0; topo.stages() * n];

        let total = self.config.warmup_cycles + self.config.measure_cycles;
        let mut measure = Measure::default();
        let mut due: Vec<usize> = Vec::with_capacity(n);

        for now in 1..=total {
            let measuring = now > self.config.warmup_cycles;
            self.scan_cycle(
                now,
                measuring,
                &topo,
                &traffic,
                &mut rng,
                &mut states,
                &mut occupied,
                &mut measure,
                &mut due,
            );
        }

        measure.outcome(self.config.measure_cycles)
    }

    /// The event-driven skip-ahead kernel.
    ///
    /// Each non-idle processor has exactly one future event — the hold
    /// expiry of an established circuit or the retry time of a collided
    /// request — parked in a [`TimeWheel`]; idle processors sit in a
    /// sorted vector that is scanned for Bernoulli issue trials each
    /// cycle. Bit-identity with the cycle stepper holds because per cycle
    /// the draw order is the same (issue trials in ascending id over
    /// exactly the idle processors, one shuffle over exactly the due
    /// attempts, attempts in the shuffled order), releases fire in
    /// ascending id exactly at their expiry, and the clock only skips
    /// cycles in which the cycle stepper would have drawn nothing and
    /// changed nothing: no idle processor and no due event.
    ///
    /// **Adaptive dense-regime fallback.** When nearly the whole
    /// population is due every cycle (a saturated no-backoff hot spot)
    /// there is nothing to skip, and the wheel bookkeeping only adds
    /// constant overhead on top of the reference stepper's linear scans.
    /// After `DENSE_STREAK` consecutive cycles with at least `N/2` due
    /// attempts the kernel switches to executing [`Self::scan_cycle`] —
    /// the reference body itself, so the draws stay identical — and
    /// after `SPARSE_STREAK` consecutive scan cycles with fewer than
    /// `N/4` due attempts it rebuilds its indexes from `states` and
    /// resumes skipping. The density band between the two thresholds is
    /// the hysteresis that keeps a borderline load from thrashing.
    fn run_event_kernel(&self, seed: u64) -> CircuitOutcome {
        let topo = OmegaTopology::new(self.config.log2_size);
        let n = topo.size();
        let traffic = HotspotTraffic::new(n, self.config.hot_fraction, 0)
            .expect("validated hot fraction"); // abs-lint: allow(panic-path) -- CircuitConfig construction validates hot_fraction
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);

        let mut states = vec![ProcState::Idle; n];
        let mut occupied: Vec<u64> = vec![0; topo.stages() * n];

        let total = self.config.warmup_cycles + self.config.measure_cycles;
        let mut measure = Measure::default();

        let mut wheel = TimeWheel::new(1);
        // Idle processors, ascending — the issue-trial scan order.
        let mut idle: Vec<usize> = (0..n).collect();
        let mut events: Vec<usize> = Vec::new();
        let mut due: Vec<usize> = Vec::with_capacity(n);
        // Next-cycle fast path: a saturated no-backoff hot-spot retries
        // every collision at `now + 1`, which would round-trip the wheel
        // (slot push, pop, drain) once per processor per cycle. Events one
        // cycle out are buffered here instead and merged with the wheel
        // pops; only genuinely future events pay for the wheel.
        let mut next_cycle: Vec<usize> = Vec::with_capacity(n);

        let mut now = 1u64;
        // Dense-regime fallback state (see the doc comment above).
        let mut scan_mode = false;
        let mut dense_streak = 0u32;
        let mut sparse_streak = 0u32;
        while now <= total {
            let measuring = now > self.config.warmup_cycles;

            if scan_mode {
                self.scan_cycle(
                    now,
                    measuring,
                    &topo,
                    &traffic,
                    &mut rng,
                    &mut states,
                    &mut occupied,
                    &mut measure,
                    &mut due,
                );
                if due.len() * 4 < n {
                    sparse_streak += 1;
                    if sparse_streak >= Self::SPARSE_STREAK {
                        // The population thinned out: rebuild the skip
                        // indexes from the authoritative per-processor
                        // states and resume event mode. Every remaining
                        // event is in the future — the scan just
                        // processed everything due through `now`.
                        scan_mode = false;
                        dense_streak = 0;
                        idle.clear();
                        next_cycle.clear();
                        wheel = TimeWheel::new(now);
                        for (p, state) in states.iter().enumerate() {
                            match *state {
                                ProcState::Idle => idle.push(p),
                                ProcState::Attempting { retry_at, .. } => {
                                    debug_assert!(retry_at > now, "a due attempt survived the scan");
                                    if retry_at == now + 1 {
                                        next_cycle.push(p);
                                    } else {
                                        wheel.schedule(retry_at, p);
                                    }
                                }
                                ProcState::Holding { until, .. } => {
                                    debug_assert!(until > now, "an expired hold survived the scan");
                                    wheel.schedule(until, p);
                                }
                            }
                        }
                    }
                } else {
                    sparse_streak = 0;
                }
                now += 1;
                continue;
            }

            // 1. Events due this cycle, in id order: hold expiries release
            //    (and the processor rejoins the idle set in time for this
            //    cycle's issue trials, as in the cycle stepper); due
            //    retries queue for the attempt round. The clock advances
            //    by exactly one whenever `next_cycle` is non-empty, so its
            //    entries are all due now; merge keeps id order.
            wheel.pop_due(now, &mut events);
            if !next_cycle.is_empty() {
                events.append(&mut next_cycle);
                events.sort_unstable();
            }
            due.clear();
            for &p in &events {
                match states[p] {
                    ProcState::Holding { .. } => {
                        Self::release(p, now, measuring, &mut states, &mut measure);
                        // A holding processor cannot already be idle.
                        let at = idle.binary_search(&p).unwrap_err();
                        idle.insert(at, p);
                    }
                    ProcState::Attempting { .. } => due.push(p),
                    ProcState::Idle => unreachable!("idle processors have no scheduled event"),
                }
            }

            // 2. Idle processors may issue new requests, in id order. A new
            //    issue is due immediately: merge it into the (id-sorted)
            //    due list, which stays sorted because `idle` is scanned
            //    ascending and merge positions only grow.
            let mut kept = 0;
            for i in 0..idle.len() {
                let p = idle[i];
                if rng.next_bool(self.config.request_rate) {
                    states[p] = ProcState::Attempting {
                        issued: now,
                        retry_at: now,
                        retries: 0,
                        dst: traffic.destination(&mut rng),
                    };
                    // An idle processor has no due retry.
                    let at = due.binary_search(&p).unwrap_err();
                    due.insert(at, p);
                } else {
                    idle[kept] = p;
                    kept += 1;
                }
            }
            idle.truncate(kept);

            // 3. Due attempts in random priority order — the identical
            //    shuffle over the identical due list as the cycle stepper.
            rng.shuffle(&mut due);
            for &p in &due {
                let next_event = self.attempt(
                    p,
                    now,
                    measuring,
                    &topo,
                    &mut states,
                    &mut occupied,
                    &mut measure,
                );
                if next_event == now + 1 {
                    next_cycle.push(p);
                } else {
                    wheel.schedule(next_event, p);
                }
            }

            // Dense-regime tracking: with half the population due there is
            // nothing left to skip, so a sustained streak hands the cycle
            // over to the reference scan body (see the doc comment).
            if due.len() * 2 >= n {
                dense_streak += 1;
                if dense_streak >= Self::DENSE_STREAK {
                    scan_mode = true;
                    sparse_streak = 0;
                    // The indexes go stale while scanning; the rebuild on
                    // the way back re-derives them from `states`. Entries
                    // buffered for `now + 1` are still discoverable there,
                    // so nothing needs migrating.
                    now += 1;
                    continue;
                }
            } else {
                dense_streak = 0;
            }

            // 4. Advance: any idle processor draws an issue trial every
            //    cycle, so the clock may only skip when the whole
            //    population is attempting or holding — then nothing can
            //    happen before the next scheduled event (and a buffered
            //    next-cycle event pins the advance to exactly one cycle).
            if idle.is_empty() && next_cycle.is_empty() {
                match wheel.peek_min() {
                    Some(next) => now = next.max(now + 1),
                    // No idle processor and no event: nothing can ever
                    // happen again inside the window.
                    None => break,
                }
            } else {
                now += 1;
            }
        }

        measure.outcome(self.config.measure_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> CircuitConfig {
        CircuitConfig {
            log2_size: 4,
            hold_cycles: 3,
            request_rate: 0.3,
            hot_fraction: 0.0,
            warmup_cycles: 200,
            measure_cycles: 2_000,
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let sim = CircuitSim::new(quick_config(), NetworkBackoff::None);
        assert_eq!(sim.run(5), sim.run(5));
    }

    #[test]
    fn kernels_bit_identical() {
        // The event kernel must reproduce the cycle stepper exactly across
        // policies and load regimes; the broad sweep lives in the
        // `kernel_equivalence` suite, this is the in-crate smoke version.
        let policies = [
            NetworkBackoff::None,
            NetworkBackoff::ConstantRtt { rtt: 4 },
            NetworkBackoff::ExponentialRetries { base: 2, cap: 256 },
            NetworkBackoff::DepthProportional { factor: 3 },
        ];
        let configs = [
            quick_config(),
            // Saturated hot-spot: the skip-ahead regime.
            CircuitConfig {
                request_rate: 0.9,
                hot_fraction: 0.8,
                ..quick_config()
            },
            // Light load on a tiny network.
            CircuitConfig {
                log2_size: 1,
                request_rate: 0.05,
                ..quick_config()
            },
        ];
        for policy in policies {
            for cfg in configs {
                let sim = CircuitSim::new(cfg, policy);
                for seed in 0..3 {
                    assert_eq!(
                        sim.run_with(seed, Kernel::Cycle),
                        sim.run_with(seed, Kernel::Event),
                        "policy {policy:?} cfg {cfg:?} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn dense_fallback_transitions_stay_bit_identical() {
        // Pins the adaptive dense-regime fallback: two processors, rare
        // issues, long holds on a fully hot destination. While one holds,
        // the other retries every cycle (dense: N/2 = 1 due), so the event
        // kernel drops into scan mode; between bursts both sit idle with
        // no due attempts for hundreds of cycles, so it rebuilds its
        // indexes — including parked hold expiries — and resumes
        // skipping. Instrumented runs of this config show dozens of
        // enter/exit transitions per seed; bit-identity with the
        // reference stepper across the transitions is the contract.
        let cfg = CircuitConfig {
            log2_size: 1,
            hold_cycles: 200,
            request_rate: 0.01,
            hot_fraction: 1.0,
            warmup_cycles: 200,
            measure_cycles: 20_000,
        };
        let sim = CircuitSim::new(cfg, NetworkBackoff::None);
        for seed in 0..4 {
            assert_eq!(
                sim.run_with(seed, Kernel::Cycle),
                sim.run_with(seed, Kernel::Event),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn different_seeds_vary() {
        let sim = CircuitSim::new(quick_config(), NetworkBackoff::None);
        assert_ne!(sim.run(5).completed, 0);
        // Extremely unlikely to be bit-identical.
        assert_ne!(sim.run(5), sim.run(6));
    }

    #[test]
    fn completes_requests_and_counts_consistently() {
        let sim = CircuitSim::new(quick_config(), NetworkBackoff::None);
        let o = sim.run(1);
        assert!(o.completed > 100, "completed {}", o.completed);
        assert!(o.attempts >= o.collisions);
        assert!(o.avg_latency >= quick_config().hold_cycles as f64);
        assert!(o.throughput > 0.0);
    }

    #[test]
    fn collision_depths_within_stage_count() {
        let cfg = CircuitConfig {
            hot_fraction: 0.5,
            ..quick_config()
        };
        let sim = CircuitSim::new(cfg, NetworkBackoff::None);
        let o = sim.run(2);
        assert!(o.collisions > 0);
        assert!(o.avg_collision_depth >= 1.0);
        assert!(o.avg_collision_depth <= 4.0);
    }

    #[test]
    fn backoff_reduces_attempts_under_hotspot() {
        let cfg = CircuitConfig {
            hot_fraction: 0.6,
            request_rate: 0.5,
            ..quick_config()
        };
        let none = CircuitSim::new(cfg, NetworkBackoff::None).run(3);
        let exp = CircuitSim::new(
            cfg,
            NetworkBackoff::ExponentialRetries { base: 2, cap: 256 },
        )
        .run(3);
        assert!(
            exp.avg_attempts < none.avg_attempts,
            "exp {} vs none {}",
            exp.avg_attempts,
            none.avg_attempts
        );
    }

    #[test]
    fn zero_rate_means_no_traffic() {
        let cfg = CircuitConfig {
            request_rate: 0.0,
            ..quick_config()
        };
        for kernel in Kernel::ALL {
            let o = CircuitSim::new(cfg, NetworkBackoff::None).run_with(7, kernel);
            assert_eq!(o.completed, 0);
            assert_eq!(o.attempts, 0);
        }
    }

    #[test]
    #[should_panic(expected = "request rate")]
    fn bad_rate_rejected() {
        CircuitSim::new(
            CircuitConfig {
                request_rate: 1.5,
                ..quick_config()
            },
            NetworkBackoff::None,
        );
    }

    #[test]
    #[should_panic(expected = "hold cycles")]
    fn zero_hold_rejected() {
        CircuitSim::new(
            CircuitConfig {
                hold_cycles: 0,
                ..quick_config()
            },
            NetworkBackoff::None,
        );
    }

    #[test]
    fn single_processor_never_collides() {
        // With hot traffic from only light load and a tiny network, ensure
        // a lone requester establishes instantly: use rate so low that
        // overlap is essentially impossible.
        let cfg = CircuitConfig {
            log2_size: 1,
            hold_cycles: 1,
            request_rate: 0.01,
            hot_fraction: 0.0,
            warmup_cycles: 0,
            measure_cycles: 5_000,
        };
        let o = CircuitSim::new(cfg, NetworkBackoff::None).run(11);
        // Collisions can only happen between the two processors; at 1 % load
        // with 1-cycle holds they should be very rare.
        assert!(o.collisions * 50 < o.attempts.max(1), "{o:?}");
    }
}

