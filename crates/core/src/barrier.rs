//! The barrier simulator (Sections 3, 5 and 6).
//!
//! Implements the paper's evaluation model literally:
//!
//! * `N` processors arrive at the barrier uniformly at random inside the
//!   interval `[0, A]` (Section 5's arrival model).
//! * The barrier variable and the barrier flag live in **different** memory
//!   modules; each module serves exactly one access per cycle; denied
//!   accesses retry on the next cycle and still count as network accesses
//!   (Section 3).
//! * An arriving processor wins a fetch-and-increment on the barrier
//!   variable, then — after any variable backoff — polls the flag. The last
//!   arriver instead contends to *write* the flag. After an unsuccessful
//!   **served** flag read the processor consults its [`BackoffPolicy`];
//!   denied attempts retry immediately.
//!
//! The two reported metrics are the paper's: the number of network accesses
//! each process makes from arriving at the barrier variable to proceeding
//! past the flag, and the number of cycles that takes.
//!
//! # Kernels
//!
//! Two bit-identical implementations drive an episode (selected by
//! [`Kernel`]): the reference **cycle stepper** ([`Kernel::Cycle`]), which
//! rescans all `N` processors every simulated cycle, and the default
//! **event-driven skip-ahead kernel** ([`Kernel::Event`]), which keeps the
//! pending-request sets incrementally (id-sorted, so arbitration sees the
//! same request slices), parks future wake-ups in a bucketed
//! [`TimeWheel`], and jumps the clock over dead
//! cycles. Both kernels process exactly the same set of *busy* cycles —
//! every processed cycle has at least one pending request (asserted) — so
//! the RNG draw sequence, the [`BarrierRun`], and the trace bytes emitted
//! into an enabled sink are identical. Per-cycle occupancy counters
//! (`var_queue` / `flag_queue`) are therefore only defined on cycles where
//! a request set is non-empty; skipped dead cycles are never sampled.

use abs_net::module::{Arbitration, MemoryModule, PendingSet, Request};
use abs_obs::trace::{lane, Noop, TraceSink};
use abs_sim::bitset::FixedBitset;
use abs_sim::kernel::Kernel;
use abs_sim::rng::Xoshiro256PlusPlus;
use abs_sim::wheel::TimeWheel;

use crate::policy::BackoffPolicy;

/// Static parameters of a barrier episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BarrierConfig {
    /// Number of synchronizing processors, `N >= 1`.
    pub n: usize,
    /// Arrival interval `A` in cycles; 0 means simultaneous arrival.
    pub span: u64,
    /// Memory-module arbitration policy (the paper's model is random).
    pub arbitration: Arbitration,
}

impl BarrierConfig {
    /// Creates a configuration with the paper's default random arbitration.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, span: u64) -> Self {
        assert!(n > 0, "at least one processor required");
        Self {
            n,
            span,
            arbitration: Arbitration::Random,
        }
    }

    /// Returns a copy using the given arbitration policy.
    pub fn with_arbitration(mut self, arbitration: Arbitration) -> Self {
        self.arbitration = arbitration;
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    NotArrived,
    VarRequest { since: u64 },
    Waiting { until: u64 },
    FlagPoll { since: u64 },
    FlagWrite { since: u64 },
    Queued,
    Done,
}

/// Per-processor episode state in struct-of-arrays layout, shared by both
/// kernels.
///
/// At mega-`N` (the `megasweep` exhibit runs N = 10⁶ episodes) the old
/// array-of-structs `Proc` padded every processor to ~80 bytes and dragged
/// all eight fields through the cache on every touch. The SoA layout keeps
/// each loop streaming over only the arrays it actually reads — the cycle
/// stepper's activation scan touches `phase` + `arrival` alone, the event
/// kernel's handlers touch one id across a few arrays — so the resident
/// working set of an N = 10⁶ barrier stays compact. The arrival batch
/// itself comes from one `fill_below` call (see
/// [`Xoshiro256PlusPlus::uniform_arrivals`]).
#[derive(Debug, Clone)]
struct ProcState {
    arrival: Vec<u64>,
    phase: Vec<Phase>,
    var_accesses: Vec<u64>,
    flag_before: Vec<u64>,
    flag_after: Vec<u64>,
    polls: Vec<u32>,
    done_at: Vec<u64>,
    was_queued: Vec<bool>,
}

impl ProcState {
    fn new(arrivals: Vec<u64>) -> Self {
        let n = arrivals.len();
        Self {
            arrival: arrivals,
            phase: vec![Phase::NotArrived; n],
            var_accesses: vec![0; n],
            flag_before: vec![0; n],
            flag_after: vec![0; n],
            polls: vec![0; n],
            done_at: vec![0; n],
            was_queued: vec![false; n],
        }
    }

    /// Applies the presented-access charges for a flag request that was
    /// pending over every cycle of `[from, to]`, split into before/after
    /// the flag was observed set. The cycle stepper charges at the top of
    /// a cycle, before any flag service — so the cycle that *sets* the
    /// flag (and every one up to it) still charges as "before"; only
    /// cycles strictly after `flag_set_at` charge as "after".
    fn charge_flag(&mut self, id: usize, from: u64, to: u64, flag_set_at: Option<u64>) {
        match flag_set_at {
            Some(f) if f < from => self.flag_after[id] += to - from + 1,
            Some(f) if f < to => {
                self.flag_before[id] += f - from + 1;
                self.flag_after[id] += to - f;
            }
            _ => self.flag_before[id] += to - from + 1,
        }
    }
}

/// The result of one simulated barrier episode.
#[derive(Debug, Clone, PartialEq)]
pub struct BarrierRun {
    n: usize,
    /// The arrival interval `A` the episode ran at.
    span: u64,
    /// The backoff policy the episode ran under: it decides which exact
    /// access identities [`Self::check_invariants`] can assert.
    policy: BackoffPolicy,
    accesses: Vec<u64>,
    waiting: Vec<u64>,
    var_accesses: u64,
    flag_before: u64,
    flag_after: u64,
    queued: usize,
    flag_set_at: u64,
    completion: u64,
}

impl BarrierRun {
    /// Network accesses per process (barrier variable + flag, served or
    /// denied).
    pub fn accesses(&self) -> &[u64] {
        &self.accesses
    }

    /// Waiting time per process: barrier-variable arrival to observing the
    /// flag set.
    pub fn waiting(&self) -> &[u64] {
        &self.waiting
    }

    /// Mean network accesses per process — the y-axis of Figures 4–7.
    pub fn mean_accesses(&self) -> f64 {
        mean_u64(&self.accesses)
    }

    /// Mean waiting time per process — the y-axis of Figures 8–10.
    pub fn mean_waiting(&self) -> f64 {
        mean_u64(&self.waiting)
    }

    /// Total network accesses by all processes in the episode.
    pub fn total_accesses(&self) -> u64 {
        self.accesses.iter().sum()
    }

    /// Mean accesses spent winning the barrier variable.
    pub fn mean_var_accesses(&self) -> f64 {
        self.var_accesses as f64 / self.n as f64
    }

    /// Mean flag accesses made before the flag was set.
    pub fn mean_flag_before(&self) -> f64 {
        self.flag_before as f64 / self.n as f64
    }

    /// Mean flag accesses made at or after the cycle the flag was set (the
    /// "drain").
    pub fn mean_flag_after(&self) -> f64 {
        self.flag_after as f64 / self.n as f64
    }

    /// Processes that parked under a queue-on-threshold policy.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// The cycle at which the last arriver's flag write was served.
    pub fn flag_set_at(&self) -> u64 {
        self.flag_set_at
    }

    /// The cycle at which the last process proceeded past the barrier.
    pub fn completion(&self) -> u64 {
        self.completion
    }

    /// Checks what every episode must satisfy at any `N`, whichever
    /// kernel ran it — an oracle for runs too large for a second kernel:
    ///
    /// * every process makes at least two accesses: its variable win and
    ///   at least one flag access;
    /// * `flag_set_at ≥ N`: the variable's module serves one access per
    ///   cycle, so the last arriver wins it at cycle `N − 1` at the
    ///   earliest and writes the flag a cycle later;
    /// * `completion ≥ flag_set_at`;
    /// * at `A = 0` the variable accesses total exactly `N(N+1)/2`: all
    ///   processes are pending from cycle 0 and one is served per cycle,
    ///   so the i-th winner presents `i` times;
    /// * when the policy re-polls at once and every variable backoff ends
    ///   by the cycle after the flag write, the flag-after accesses total
    ///   exactly `N(N−1)/2`, under every arbitration: the `N − 1` pollers
    ///   are all pending on that cycle and are served one per cycle, each
    ///   at its first service;
    /// * at `A = 0` with no backoff at all, the accesses total exactly
    ///   `N(N+1)/2 + N·flag_set_at`: the i-th variable winner is served
    ///   at cycle `i − 1` and then polls every cycle from `i` through the
    ///   flag set, and the writer's flag requests run from `N` through it.
    ///
    /// That each process's variable, flag-before and flag-after accesses
    /// sum to its total is not checked: [`Self::accesses`] is built as
    /// that sum.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.n as u64;
        if let Some((id, a)) = self.accesses.iter().enumerate().find(|(_, &a)| a < 2) {
            return Err(format!("process {id} made {a} accesses, fewer than 2"));
        }
        if self.flag_set_at < n {
            return Err(format!("flag set at cycle {} < N = {n}", self.flag_set_at));
        }
        if self.completion < self.flag_set_at {
            return Err(format!(
                "completion {} precedes the flag set at {}",
                self.completion, self.flag_set_at
            ));
        }
        let triangle = n * (n + 1) / 2;
        if self.span == 0 && self.var_accesses != triangle {
            return Err(format!(
                "A = 0 variable accesses {} != N(N+1)/2 = {triangle}",
                self.var_accesses
            ));
        }
        let pairs = n * n.saturating_sub(1) / 2;
        if self.polls_from_flag_set() && self.flag_after != pairs {
            return Err(format!(
                "flag-after accesses {} != N(N-1)/2 = {pairs}",
                self.flag_after
            ));
        }
        let spins = self.policy.repolls_immediately()
            && (1..self.n).all(|i| self.policy.variable_wait(self.n, i) == 0);
        let (total, law) = (
            self.total_accesses(),
            triangle.saturating_add(n.saturating_mul(self.flag_set_at)),
        );
        if self.span == 0 && spins && total != law {
            return Err(format!(
                "A = 0 total accesses {total} != N(N+1)/2 + N*flag_set_at = {law}"
            ));
        }
        Ok(())
    }

    /// Whether every poller is pending on the cycle after the flag write
    /// and stays pending until served: the policy re-polls at once, and
    /// no variable backoff ends after that cycle. The i-th variable
    /// winner's backoff starts at least `N − i` cycles before the write,
    /// because the `N − i` later wins and the write take one cycle each;
    /// so a wait of at most `N − i + 1` cycles ends in time.
    fn polls_from_flag_set(&self) -> bool {
        self.policy.repolls_immediately()
            && (1..self.n).all(|i| self.policy.variable_wait(self.n, i) <= (self.n - i) as u64 + 1)
    }
}

fn mean_u64(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
    }
}

/// A deterministic simulator of one barrier configuration under one backoff
/// policy.
///
/// # Examples
///
/// ```
/// use abs_core::{BackoffPolicy, BarrierConfig, BarrierSim};
///
/// // Model 1 check: at A = 0 without backoff the mean access count is
/// // about 5N/2 (averaged over a few episodes; a single episode varies
/// // with the random arbitration).
/// let sim = BarrierSim::new(BarrierConfig::new(64, 0), BackoffPolicy::None);
/// let mean = (0..20).map(|s| sim.run(s).mean_accesses()).sum::<f64>() / 20.0;
/// let model1 = 2.5 * 64.0;
/// assert!((mean - model1).abs() < model1 * 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarrierSim {
    config: BarrierConfig,
    policy: BackoffPolicy,
}

impl BarrierSim {
    /// Creates a simulator.
    pub fn new(config: BarrierConfig, policy: BackoffPolicy) -> Self {
        Self { config, policy }
    }

    /// The configuration in force.
    pub fn config(&self) -> BarrierConfig {
        self.config
    }

    /// The backoff policy in force.
    pub fn policy(&self) -> BackoffPolicy {
        self.policy
    }

    /// Simulates one barrier episode with the given seed on the default
    /// (event-driven) kernel.
    pub fn run(&self, seed: u64) -> BarrierRun {
        self.run_traced(seed, &mut Noop)
    }

    /// Simulates one barrier episode on the given kernel.
    ///
    /// `Kernel::Cycle` is the reference oracle; `Kernel::Event` is
    /// bit-identical and much faster (the equivalence suite in `abs-bench`
    /// asserts the identity).
    pub fn run_with(&self, seed: u64, kernel: Kernel) -> BarrierRun {
        self.run_traced_with(seed, &mut Noop, kernel)
    }

    /// Simulates one barrier episode on the default (event-driven) kernel,
    /// emitting a cycle-resolved trace into `sink`.
    ///
    /// Lane layout (`tid` = processor index; counters on `tid == n`):
    /// per-processor `barrier` spans from arrival to passing the flag, with
    /// nested `var`, `backoff` and `flag-write` spans and `poll-hit` /
    /// `poll-miss` / `park` / `wake` / `flag-set` instants; per-cycle
    /// `var_queue` / `flag_queue` occupancy counters. Occupancy counters
    /// are sampled exactly on busy cycles (at least one request pending);
    /// dead cycles are skipped by both kernels and never sampled.
    ///
    /// Instrumentation never touches the RNG or the simulation state:
    /// `run(seed)` is exactly `run_traced(seed, &mut Noop)`, and results
    /// are bit-identical whichever sink is supplied (asserted by the
    /// `obs_trace` test suite).
    pub fn run_traced<S: TraceSink>(&self, seed: u64, sink: &mut S) -> BarrierRun {
        self.run_traced_with(seed, sink, Kernel::default())
    }

    /// Simulates one traced barrier episode on the given kernel.
    ///
    /// For a fixed seed the two kernels emit byte-identical traces into an
    /// enabled sink: same events, same order, same timestamps.
    pub fn run_traced_with<S: TraceSink>(
        &self,
        seed: u64,
        sink: &mut S,
        kernel: Kernel,
    ) -> BarrierRun {
        match kernel {
            Kernel::Cycle => self.run_cycle_kernel(seed, sink),
            Kernel::Event => self.run_event_kernel(seed, sink),
        }
    }

    /// The reference cycle stepper: every simulated cycle rescans all `N`
    /// processors to activate arrivals/expiries and collect requests.
    fn run_cycle_kernel<S: TraceSink>(&self, seed: u64, sink: &mut S) -> BarrierRun {
        let n = self.config.n;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let arrivals = rng.uniform_arrivals(n, self.config.span);

        let mut now = arrivals[0];
        let mut procs = ProcState::new(arrivals);

        let mut var_module = MemoryModule::new(self.config.arbitration);
        let mut flag_module = MemoryModule::new(self.config.arbitration);

        let mut barrier_count = 0usize;
        let mut flag_set_at: Option<u64> = None;
        let mut done = 0usize;
        let mut var_reqs: Vec<Request> = Vec::with_capacity(n);
        let mut flag_reqs: Vec<Request> = Vec::with_capacity(n);

        while done < n {
            // Activate arrivals and expired waits (phase + arrival scan).
            for id in 0..n {
                match procs.phase[id] {
                    Phase::NotArrived if procs.arrival[id] <= now => {
                        procs.phase[id] = Phase::VarRequest { since: now };
                        sink.span_begin(lane(id), now, "barrier", &[]);
                        sink.span_begin(lane(id), now, "var", &[]);
                    }
                    Phase::Waiting { until } if until <= now => {
                        procs.phase[id] = Phase::FlagPoll { since: now };
                    }
                    _ => {}
                }
            }

            // Collect this cycle's requests.
            var_reqs.clear();
            flag_reqs.clear();
            for id in 0..n {
                match procs.phase[id] {
                    Phase::VarRequest { since } => {
                        procs.var_accesses[id] = procs.var_accesses[id].saturating_add(1);
                        var_reqs.push(Request::new(id, since));
                    }
                    Phase::FlagPoll { since } | Phase::FlagWrite { since } => {
                        if flag_set_at.is_some_and(|t| now >= t) {
                            procs.flag_after[id] += 1;
                        } else {
                            procs.flag_before[id] += 1;
                        }
                        flag_reqs.push(Request::new(id, since));
                    }
                    _ => {}
                }
            }

            // Module-occupancy counters (one sample per *busy* cycle; the
            // clock below skips cycles with no pending request, so those
            // are never sampled — the event kernel relies on this).
            debug_assert!(
                !var_reqs.is_empty() || !flag_reqs.is_empty(),
                "processed a dead cycle at {now}"
            );
            if sink.enabled() {
                sink.counter(lane(n), now, "var_queue", &[("waiters", var_reqs.len() as f64)]);
                sink.counter(lane(n), now, "flag_queue", &[("waiters", flag_reqs.len() as f64)]);
            }

            // Serve at most one barrier-variable access.
            if let Some(winner) = var_module.arbitrate(&var_reqs, &mut rng) {
                barrier_count += 1;
                let i = barrier_count;
                sink.span_end(
                    lane(winner),
                    now,
                    "var",
                    &[
                        ("accesses", procs.var_accesses[winner] as f64),
                        ("count", i as f64),
                    ],
                );
                if i == n {
                    procs.phase[winner] = Phase::FlagWrite { since: now + 1 };
                    sink.span_begin(lane(winner), now + 1, "flag-write", &[]);
                } else {
                    let wait = self.policy.variable_wait(n, i);
                    procs.phase[winner] = if wait == 0 {
                        Phase::FlagPoll { since: now + 1 }
                    } else {
                        // The span is scheduled in full here: both edges are
                        // known, and the processor's next event cannot
                        // precede `until`, so lane time stays monotone.
                        sink.span_begin(lane(winner), now + 1, "backoff", &[("wait", wait as f64)]);
                        sink.span_end(lane(winner), now + 1 + wait, "backoff", &[]);
                        Phase::Waiting {
                            until: now + 1 + wait,
                        }
                    };
                }
            }

            // Serve at most one flag access.
            if let Some(winner) = flag_module.arbitrate(&flag_reqs, &mut rng) {
                let set = flag_set_at.is_some_and(|t| now >= t);
                match procs.phase[winner] {
                    Phase::FlagWrite { .. } => {
                        flag_set_at = Some(now);
                        procs.phase[winner] = Phase::Done;
                        procs.done_at[winner] = now;
                        done += 1;
                        sink.span_end(lane(winner), now, "flag-write", &[]);
                        sink.instant(lane(winner), now, "flag-set", &[]);
                        sink.span_end(lane(winner), now, "barrier", &[]);
                        // Wake everything already parked.
                        let wake = now + self.policy.wake_cost();
                        for qid in 0..n {
                            if procs.phase[qid] == Phase::Queued {
                                procs.phase[qid] = Phase::Done;
                                procs.done_at[qid] = wake;
                                // The wake-up notification / refetch is one
                                // more network transaction.
                                procs.flag_after[qid] += 1;
                                done += 1;
                                sink.instant(lane(qid), wake, "wake", &[]);
                                sink.span_end(lane(qid), wake, "barrier", &[]);
                            }
                        }
                    }
                    Phase::FlagPoll { .. } => {
                        if set {
                            procs.phase[winner] = Phase::Done;
                            procs.done_at[winner] = now;
                            done += 1;
                            sink.instant(lane(winner), now, "poll-hit", &[]);
                            sink.span_end(lane(winner), now, "barrier", &[]);
                        } else {
                            procs.polls[winner] += 1;
                            sink.instant(
                                lane(winner),
                                now,
                                "poll-miss",
                                &[("polls", f64::from(procs.polls[winner]))],
                            );
                            match self
                                .policy
                                .sampled_flag_delay(procs.polls[winner], &mut rng)
                            {
                                Some(0) => {
                                    procs.phase[winner] = Phase::FlagPoll { since: now + 1 };
                                }
                                Some(d) => {
                                    sink.span_begin(
                                        lane(winner),
                                        now + 1,
                                        "backoff",
                                        &[("wait", d as f64)],
                                    );
                                    sink.span_end(lane(winner), now + 1 + d, "backoff", &[]);
                                    procs.phase[winner] = Phase::Waiting { until: now + 1 + d };
                                }
                                None => {
                                    // Park; the enqueue operation itself is a
                                    // network transaction.
                                    procs.phase[winner] = Phase::Queued;
                                    procs.was_queued[winner] = true;
                                    procs.flag_before[winner] += 1;
                                    sink.instant(lane(winner), now, "park", &[]);
                                }
                            }
                        }
                    }
                    _ => unreachable!("only flag requesters are served by the flag module"),
                }
            }

            // Advance time, skipping dead cycles.
            let any_requesting = procs.phase.iter().any(|p| {
                matches!(
                    p,
                    Phase::VarRequest { .. } | Phase::FlagPoll { .. } | Phase::FlagWrite { .. }
                )
            });
            if any_requesting {
                now += 1;
            } else if done < n {
                #[expect(clippy::expect_used, reason = "done < n guarantees a scheduled event exists")]
                let next = procs
                    .phase
                    .iter()
                    .enumerate()
                    .filter_map(|(id, &phase)| match phase {
                        Phase::NotArrived => Some(procs.arrival[id]),
                        Phase::Waiting { until } => Some(until),
                        _ => None,
                    })
                    .min()
                    .expect("undone processors must have a next event");
                now = next.max(now + 1);
            }
        }

        collect_run(&procs, self.config.span, self.policy, flag_set_at)
    }

    /// The event-driven skip-ahead kernel.
    ///
    /// Instead of rescanning all `N` processors per cycle, it maintains the
    /// two pending-request sets incrementally in a [`PendingSet`] (ranked
    /// by processor id, so random arbitration selects from exactly the
    /// slice the cycle stepper's id-ordered collection scan would build)
    /// and wakes dormant processors from a bucketed [`TimeWheel`], which
    /// replays the sorted arrivals from a cursor and parks the
    /// `Waiting { until }` backoffs. Per busy cycle the work is
    /// O(events), not O(N) — and not O(pending) either: presented-access
    /// charges are applied in bulk when a request leaves its set (a request
    /// is pending on *every* cycle of `[since, served]`, because the clock
    /// never skips while a set is non-empty), and each winner is picked
    /// without scanning the set. Dead cycles are jumped via the wheel's
    /// next-event clock.
    ///
    /// Bit-identity with the cycle stepper rests on three invariants:
    ///
    /// 1. **Same busy cycles.** A processed cycle always has a pending
    ///    request (asserted in both kernels), phases only change on serve
    ///    or activation, and the jump target is the earliest wake-up — so
    ///    the set of processed cycles is identical.
    /// 2. **Same RNG draw order.** Per cycle: variable arbitration, then
    ///    flag arbitration, then any sampled backoff delay. Both modules
    ///    are arbitrated on snapshots taken before either winner's
    ///    transition is applied; a variable winner's flag request becomes
    ///    pending at `now + 1`, exactly as in the cycle stepper. Each
    ///    winner is [taken](PendingSet::take) out of its set with the
    ///    arbitration's own draw; a winner that stays pending is
    ///    re-inserted. Draws are always kept, but a winner nobody can
    ///    observe is not resolved: untraced, under random arbitration and
    ///    a policy that
    ///    [re-polls immediately](BackoffPolicy::repolls_immediately),
    ///    every flag winner before the last variable win is a poll miss
    ///    that stays pending and changes only its access count (charged
    ///    in bulk anyway) and the arbiter's draw. The flag module then
    ///    only [draws](PendingSet::draw_unobserved); with no variable
    ///    request either, the kernel makes every draw up to the next
    ///    wake-up in one loop and jumps there. After the last variable
    ///    win, until the flag write, the same holds for every flag winner
    ///    but the writer: the kernel takes the writer's
    ///    [rank](PendingSet::rank) once per stretch between wake-ups and
    ///    draws until a draw equals it. The skipped misses leave poll
    ///    counts and request ages stale; only the trace, the policy's
    ///    delay and the ordered arbiters would read them.
    /// 3. **Same trace order.** Activations fire in id order (the wheel
    ///    pops sorted), counters sample the same busy cycles, and the
    ///    variable handler's events precede the flag handler's.
    fn run_event_kernel<S: TraceSink>(&self, seed: u64, sink: &mut S) -> BarrierRun {
        let n = self.config.n;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let arrivals = rng.uniform_arrivals(n, self.config.span);

        let mut now = arrivals[0];
        let mut wheel = TimeWheel::with_arrivals(&arrivals);
        let mut procs = ProcState::new(arrivals);

        let mut barrier_count = 0usize;
        let mut flag_set_at: Option<u64> = None;
        let mut done = 0usize;
        // The last variable winner, who writes the flag.
        let mut writer = 0usize;

        // Pending-request sets, id-sorted (see the bit-identity notes).
        let mut var_pending = PendingSet::new(self.config.arbitration, n);
        let mut flag_pending = PendingSet::new(self.config.arbitration, n);
        // First cycle the current flag request has been charged from.
        // Unlike `Request::since`, never re-aged by a zero-delay poll miss:
        // the request stays pending across the miss, so its charge interval
        // runs unbroken from the original enqueue.
        let mut flag_from: Vec<u64> = vec![0; n];
        // Parked processors. The bitset iterates in ascending id order (the
        // wake scan must visit them in the cycle stepper's id order) and
        // inserts in O(1) — a sorted Vec's shifting insert is quadratic
        // when a queue-on-threshold policy parks most of a mega-N barrier.
        let mut queued = FixedBitset::new(n);
        let mut due: Vec<usize> = Vec::new();
        // Whether a poll miss before the last variable win is unobservable
        // (invariant 2): nothing is traced, the arbiter reads no winner
        // history, and the policy re-polls at once without drawing.
        let unobserved_misses = !sink.enabled()
            && self.config.arbitration == Arbitration::Random
            && self.policy.repolls_immediately();

        while done < n {
            // Activate arrivals and expired waits due this cycle, in id
            // order.
            wheel.pop_due(now, &mut due);
            for &id in &due {
                match procs.phase[id] {
                    Phase::NotArrived => {
                        procs.phase[id] = Phase::VarRequest { since: now };
                        var_pending.insert(Request::new(id, now));
                        sink.span_begin(lane(id), now, "barrier", &[]);
                        sink.span_begin(lane(id), now, "var", &[]);
                    }
                    Phase::Waiting { until } => {
                        debug_assert!(until <= now);
                        procs.phase[id] = Phase::FlagPoll { since: now };
                        flag_pending.insert(Request::new(id, now));
                        flag_from[id] = now;
                    }
                    _ => unreachable!("only dormant processors sleep in the wheel"),
                }
            }

            // Occupancy counters: sampled exactly on busy cycles, like the
            // cycle stepper. (Presented-access charges are NOT applied here
            // — they are folded in wholesale when a request is removed.)
            debug_assert!(
                !var_pending.is_empty() || !flag_pending.is_empty(),
                "processed a dead cycle at {now}"
            );
            if sink.enabled() {
                sink.counter(lane(n), now, "var_queue", &[("waiters", var_pending.len() as f64)]);
                sink.counter(lane(n), now, "flag_queue", &[("waiters", flag_pending.len() as f64)]);
            }

            // From the last variable win to the flag write, when misses
            // are unobservable, only a draw of the writer's rank changes
            // anything, and the flag set stays fixed until the next
            // wake-up: draw for each cycle up to it, and serve the write
            // at the first draw that picks the writer. With no hit, jump
            // to the wake-up and take the rank again there.
            let stretch = unobserved_misses && barrier_count == n && flag_set_at.is_none();
            if stretch {
                let (rank, len) = (flag_pending.rank(writer), flag_pending.len());
                let bound = wheel.peek_min().unwrap_or(u64::MAX);
                match (now..bound).find(|_| rng.next_below_usize(len) == rank) {
                    Some(hit) => now = hit,
                    None => {
                        now = bound;
                        continue;
                    }
                }
            }

            // Until the last variable win the flag writer is not pending,
            // so every flag winner is a poll miss; when those misses are
            // unobservable, only their draws are kept. With the variable
            // set empty too, nothing changes before the next wake-up:
            // draw for every cycle up to it and jump there.
            let draw_only = unobserved_misses && barrier_count < n;
            if draw_only && var_pending.is_empty() {
                #[expect(clippy::expect_used, reason = "barrier_count < n with no variable request leaves an arrival or wait in the wheel")]
                let next = wheel
                    .peek_min()
                    .expect("processors yet to win the variable have a next event");
                for _ in now..next {
                    flag_pending.draw_unobserved(&mut rng);
                }
                now = next;
                continue;
            }

            // Arbitrate both modules on this cycle's snapshots, taking each
            // winner's request out of its set. The RNG draw order
            // (variable, then flag) matches the cycle stepper; the variable
            // winner's transition cannot join this cycle's flag arbitration
            // because its flag request is pending only from `now + 1`.
            let var_winner = var_pending.take(&mut rng);
            let flag_winner = if stretch {
                // The stretch already drew this cycle's flag winner.
                flag_pending.remove(writer);
                Some(writer)
            } else if draw_only {
                flag_pending.draw_unobserved(&mut rng);
                None
            } else {
                flag_pending.take(&mut rng).map(|req| req.id)
            };

            // Serve the barrier-variable winner.
            if let Some(req) = var_winner {
                let winner = req.id;
                barrier_count += 1;
                let i = barrier_count;
                // Presented on every cycle since enqueue, served or denied.
                procs.var_accesses[winner] = procs.var_accesses[winner].saturating_add(now - req.since + 1);
                sink.span_end(
                    lane(winner),
                    now,
                    "var",
                    &[
                        ("accesses", procs.var_accesses[winner] as f64),
                        ("count", i as f64),
                    ],
                );
                if i == n {
                    writer = winner;
                    procs.phase[winner] = Phase::FlagWrite { since: now + 1 };
                    flag_pending.insert(Request::new(winner, now + 1));
                    flag_from[winner] = now + 1;
                    sink.span_begin(lane(winner), now + 1, "flag-write", &[]);
                } else {
                    let wait = self.policy.variable_wait(n, i);
                    if wait == 0 {
                        procs.phase[winner] = Phase::FlagPoll { since: now + 1 };
                        flag_pending.insert(Request::new(winner, now + 1));
                        flag_from[winner] = now + 1;
                    } else {
                        sink.span_begin(lane(winner), now + 1, "backoff", &[("wait", wait as f64)]);
                        sink.span_end(lane(winner), now + 1 + wait, "backoff", &[]);
                        procs.phase[winner] = Phase::Waiting { until: now + 1 + wait };
                        wheel.schedule(now + 1 + wait, winner);
                    }
                }
            }

            // Serve the flag winner.
            if let Some(winner) = flag_winner {
                let set = flag_set_at.is_some_and(|t| now >= t);
                match procs.phase[winner] {
                    Phase::FlagWrite { .. } => {
                        procs.charge_flag(winner, flag_from[winner], now, flag_set_at);
                        flag_set_at = Some(now);
                        procs.phase[winner] = Phase::Done;
                        procs.done_at[winner] = now;
                        done += 1;
                        sink.span_end(lane(winner), now, "flag-write", &[]);
                        sink.instant(lane(winner), now, "flag-set", &[]);
                        sink.span_end(lane(winner), now, "barrier", &[]);
                        // Wake everything already parked, in id order (the
                        // bitset iterates ascending).
                        let wake = now + self.policy.wake_cost();
                        for qid in &queued {
                            procs.phase[qid] = Phase::Done;
                            procs.done_at[qid] = wake;
                            // The wake-up notification / refetch is one
                            // more network transaction.
                            procs.flag_after[qid] += 1;
                            done += 1;
                            sink.instant(lane(qid), wake, "wake", &[]);
                            sink.span_end(lane(qid), wake, "barrier", &[]);
                        }
                        queued.clear();
                    }
                    Phase::FlagPoll { .. } => {
                        if set {
                            procs.charge_flag(winner, flag_from[winner], now, flag_set_at);
                            procs.phase[winner] = Phase::Done;
                            procs.done_at[winner] = now;
                            done += 1;
                            sink.instant(lane(winner), now, "poll-hit", &[]);
                            sink.span_end(lane(winner), now, "barrier", &[]);
                        } else {
                            procs.polls[winner] += 1;
                            sink.instant(
                                lane(winner),
                                now,
                                "poll-miss",
                                &[("polls", f64::from(procs.polls[winner]))],
                            );
                            match self
                                .policy
                                .sampled_flag_delay(procs.polls[winner], &mut rng)
                            {
                                Some(0) => {
                                    // Pending again next cycle, re-aged
                                    // (oldest-first arbitration reads the
                                    // age). The charge interval keeps
                                    // running: `flag_from` is not reset.
                                    procs.phase[winner] = Phase::FlagPoll { since: now + 1 };
                                    flag_pending.insert(Request::new(winner, now + 1));
                                }
                                Some(d) => {
                                    sink.span_begin(
                                        lane(winner),
                                        now + 1,
                                        "backoff",
                                        &[("wait", d as f64)],
                                    );
                                    sink.span_end(lane(winner), now + 1 + d, "backoff", &[]);
                                    procs.charge_flag(winner, flag_from[winner], now, flag_set_at);
                                    procs.phase[winner] = Phase::Waiting { until: now + 1 + d };
                                    wheel.schedule(now + 1 + d, winner);
                                }
                                None => {
                                    // Park; the enqueue operation itself is a
                                    // network transaction.
                                    procs.charge_flag(winner, flag_from[winner], now, flag_set_at);
                                    procs.phase[winner] = Phase::Queued;
                                    procs.was_queued[winner] = true;
                                    procs.flag_before[winner] += 1;
                                    queued.insert(winner);
                                    sink.instant(lane(winner), now, "park", &[]);
                                }
                            }
                        }
                    }
                    _ => unreachable!("only flag requesters are served by the flag module"),
                }
            }

            // Advance time: one cycle while anything is pending, else jump
            // to the next wake-up.
            if !var_pending.is_empty() || !flag_pending.is_empty() {
                now += 1;
            } else if done < n {
                #[expect(clippy::expect_used, reason = "done < n guarantees a scheduled event exists")]
                let next = wheel
                    .peek_min()
                    .expect("undone processors must have a next event");
                now = next.max(now + 1);
            }
        }

        collect_run(&procs, self.config.span, self.policy, flag_set_at)
    }
}

/// Builds the episode result from the final processor states (shared by
/// both kernels, so the field derivations cannot drift apart). Every pass
/// streams sequentially over one or two SoA arrays.
fn collect_run(
    procs: &ProcState,
    span: u64,
    policy: BackoffPolicy,
    flag_set_at: Option<u64>,
) -> BarrierRun {
    let n = procs.arrival.len();
    let accesses: Vec<u64> = (0..n)
        .map(|i| procs.var_accesses[i] + procs.flag_before[i] + procs.flag_after[i])
        .collect();
    let waiting: Vec<u64> = (0..n).map(|i| procs.done_at[i] - procs.arrival[i]).collect();
    let completion = procs.done_at.iter().copied().max().unwrap_or(0);
    BarrierRun {
        n,
        span,
        policy,
        var_accesses: procs.var_accesses.iter().sum(),
        flag_before: procs.flag_before.iter().sum(),
        flag_after: procs.flag_after.iter().sum(),
        queued: procs.was_queued.iter().filter(|&&q| q).count(),
        #[expect(clippy::expect_used, reason = "the loop exits only after completion, which requires the flag set")]
        flag_set_at: flag_set_at.expect("flag must be set before completion"),
        completion,
        accesses,
        waiting,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abs_sim::sweep::derive_seed;

    fn mean_over_runs(
        config: BarrierConfig,
        policy: BackoffPolicy,
        reps: u32,
        metric: impl Fn(&BarrierRun) -> f64,
    ) -> f64 {
        let sim = BarrierSim::new(config, policy);
        (0..reps)
            .map(|i| metric(&sim.run(derive_seed(0xBA55, i as u64))))
            .sum::<f64>()
            / reps as f64
    }

    #[test]
    fn deterministic_for_seed() {
        let sim = BarrierSim::new(BarrierConfig::new(32, 100), BackoffPolicy::exponential(2));
        assert_eq!(sim.run(9), sim.run(9));
    }

    #[test]
    fn kernels_bit_identical() {
        // The event kernel must reproduce the cycle stepper exactly across
        // every policy / arbitration mix; the broad sweep lives in the
        // `kernel_equivalence` suite, this is the in-crate smoke version.
        let policies = [
            BackoffPolicy::None,
            BackoffPolicy::exponential(2),
            BackoffPolicy::Linear { step: 10 },
            BackoffPolicy::on_variable(),
            BackoffPolicy::ExponentialJittered { base: 2 },
            BackoffPolicy::QueueOnThreshold {
                base: 2,
                threshold: 64,
                wake_cost: 100,
            },
        ];
        for policy in policies {
            for arb in Arbitration::ALL {
                let cfg = BarrierConfig::new(48, 400).with_arbitration(arb);
                let sim = BarrierSim::new(cfg, policy);
                for seed in 0..4 {
                    assert_eq!(
                        sim.run_with(seed, Kernel::Cycle),
                        sim.run_with(seed, Kernel::Event),
                        "policy {policy:?} arbitration {arb:?} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn invariants_hold_on_every_policy_and_kernel() {
        // The last two variable backoffs can outlast the flag write, so
        // the flag-after identity must not be asserted for them.
        let policies = [
            BackoffPolicy::None,
            BackoffPolicy::exponential(8),
            BackoffPolicy::on_variable(),
            BackoffPolicy::OnVariable {
                factor: 2,
                offset: 0,
            },
            BackoffPolicy::OnVariable {
                factor: 4,
                offset: 100,
            },
            BackoffPolicy::QueueOnThreshold {
                base: 2,
                threshold: 4,
                wake_cost: 100,
            },
        ];
        for policy in policies {
            for arb in Arbitration::ALL {
                for (n, span) in [(1, 0), (2, 0), (64, 0), (64, 1000), (300, 50)] {
                    let sim =
                        BarrierSim::new(BarrierConfig::new(n, span).with_arbitration(arb), policy);
                    for kernel in [Kernel::Cycle, Kernel::Event] {
                        let run = sim.run_with(derive_seed(0x1A7, n as u64), kernel);
                        assert_eq!(
                            run.check_invariants(),
                            Ok(()),
                            "{policy:?} {arb:?} N={n} A={span} {kernel:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn invariants_catch_broken_runs() {
        let good = BarrierSim::new(BarrierConfig::new(16, 0), BackoffPolicy::None).run(3);
        assert_eq!(good.check_invariants(), Ok(()));
        let mut one_more = good.accesses.clone();
        one_more[0] += 1;
        let broken = [
            BarrierRun {
                accesses: vec![1; 16],
                ..good.clone()
            },
            BarrierRun {
                flag_set_at: 15,
                ..good.clone()
            },
            BarrierRun {
                completion: good.flag_set_at - 1,
                ..good.clone()
            },
            BarrierRun {
                var_accesses: good.var_accesses + 1,
                ..good.clone()
            },
            // One poller served twice after the flag set.
            BarrierRun {
                flag_after: good.flag_after + 1,
                ..good.clone()
            },
            // One pending interval charged a cycle too long.
            BarrierRun {
                accesses: one_more.clone(),
                ..good.clone()
            },
        ];
        for run in broken {
            assert!(run.check_invariants().is_err(), "{run:?}");
        }
        // The exact variable and total identities are A = 0 laws only.
        let spread = BarrierRun {
            span: 1,
            var_accesses: good.var_accesses + 1,
            accesses: one_more.clone(),
            ..good.clone()
        };
        assert_eq!(spread.check_invariants(), Ok(()));
        // The total identity needs no backoff, the flag-after identity
        // every poller pending by the cycle after the write.
        let variable_backoff = BarrierRun {
            policy: BackoffPolicy::on_variable(),
            accesses: one_more.clone(),
            ..good.clone()
        };
        assert_eq!(variable_backoff.check_invariants(), Ok(()));
        for policy in [
            BackoffPolicy::exponential(2),
            BackoffPolicy::OnVariable {
                factor: 2,
                offset: 0,
            },
        ] {
            let late_pollers = BarrierRun {
                policy,
                flag_after: good.flag_after + 1,
                accesses: one_more.clone(),
                ..good.clone()
            };
            assert_eq!(late_pollers.check_invariants(), Ok(()), "{policy:?}");
        }
    }

    #[test]
    fn kernels_emit_identical_traces() {
        use abs_obs::trace::Ring;
        let sim = BarrierSim::new(
            BarrierConfig::new(24, 300).with_arbitration(Arbitration::Random),
            BackoffPolicy::exponential(2),
        );
        let mut cycle_ring = Ring::new(1 << 16);
        let mut event_ring = Ring::new(1 << 16);
        let a = sim.run_traced_with(11, &mut cycle_ring, Kernel::Cycle);
        let b = sim.run_traced_with(11, &mut event_ring, Kernel::Event);
        assert_eq!(a, b);
        assert_eq!(cycle_ring.events(), event_ring.events());
        assert!(!cycle_ring.events().is_empty());
    }

    #[test]
    #[expect(clippy::cast_possible_truncation, reason = "Chrome-trace timestamps are whole, non-negative cycle counts")]
    fn tracing_does_not_perturb_results() {
        use abs_obs::trace::{Phase as EvPhase, Ring};
        let sim = BarrierSim::new(BarrierConfig::new(16, 200), BackoffPolicy::exponential(2));
        let mut ring = Ring::default();
        let traced = sim.run_traced(7, &mut ring);
        assert_eq!(traced, sim.run(7));
        assert_eq!(ring.dropped(), 0);
        let events = ring.into_events();
        // Every processor opens and closes exactly one "barrier" span.
        let begins = events
            .iter()
            .filter(|e| e.name == "barrier" && e.phase == EvPhase::Begin)
            .count();
        let ends = events
            .iter()
            .filter(|e| e.name == "barrier" && e.phase == EvPhase::End)
            .count();
        assert_eq!(begins, 16);
        assert_eq!(ends, 16);
        assert_eq!(
            events
                .iter()
                .filter(|e| e.name == "flag-set")
                .map(|e| e.ts as u64)
                .collect::<Vec<_>>(),
            vec![traced.flag_set_at()]
        );
        // Counter lanes sit above every processor lane.
        assert!(events
            .iter()
            .filter(|e| e.phase == EvPhase::Counter)
            .all(|e| e.tid == 16));
    }

    #[test]
    fn single_processor_trivial_barrier() {
        let run = BarrierSim::new(BarrierConfig::new(1, 0), BackoffPolicy::None).run(1);
        // One variable access, one flag write.
        assert_eq!(run.total_accesses(), 2);
        assert_eq!(run.accesses(), &[2]);
        assert_eq!(run.queued(), 0);
    }

    #[test]
    fn two_processors_simultaneous() {
        let run = BarrierSim::new(BarrierConfig::new(2, 0), BackoffPolicy::None).run(3);
        assert_eq!(run.accesses().len(), 2);
        // Everyone passes; waits are positive.
        assert!(run.waiting().iter().all(|&w| w > 0));
        assert!(run.completion() >= run.flag_set_at());
    }

    #[test]
    fn model1_shape_no_backoff() {
        // Paper, Section 6.2: at A = 0 accesses grow as 5N/2.
        for n in [16usize, 64] {
            let mean = mean_over_runs(BarrierConfig::new(n, 0), BackoffPolicy::None, 20, |r| {
                r.mean_accesses()
            });
            let model = 2.5 * n as f64;
            assert!(
                (mean - model).abs() < model * 0.2,
                "n={n}: mean {mean} vs model {model}"
            );
        }
    }

    #[test]
    fn paper_64_processor_breakdown() {
        // "for the 64 processor case, a processor on average accessed the
        // network 32 times to get at the barrier variable, 96 times to test
        // the flag before it was set, and 32 times after it was set".
        let cfg = BarrierConfig::new(64, 0);
        let var = mean_over_runs(cfg, BackoffPolicy::None, 30, |r| r.mean_var_accesses());
        let before = mean_over_runs(cfg, BackoffPolicy::None, 30, |r| r.mean_flag_before());
        let after = mean_over_runs(cfg, BackoffPolicy::None, 30, |r| r.mean_flag_after());
        assert!((var - 32.0).abs() < 8.0, "var {var}");
        assert!((before - 96.0).abs() < 30.0, "before {before}");
        assert!((after - 32.0).abs() < 10.0, "after {after}");
    }

    #[test]
    fn variable_backoff_saves_at_a0() {
        // "With backoff on the barrier variable this number reduced to
        // roughly 132, a 15% reduction" (N = 64, A = 0).
        let cfg = BarrierConfig::new(64, 0);
        let plain = mean_over_runs(cfg, BackoffPolicy::None, 30, |r| r.mean_accesses());
        let backoff = mean_over_runs(cfg, BackoffPolicy::on_variable(), 30, |r| {
            r.mean_accesses()
        });
        let reduction = 1.0 - backoff / plain;
        assert!(
            (0.05..0.3).contains(&reduction),
            "plain {plain} backoff {backoff} reduction {reduction}"
        );
    }

    #[test]
    fn flag_backoff_useless_at_a0() {
        // "using binary backoff ... on the barrier flag made no difference
        // because everyone reaches the barrier at the same time".
        let cfg = BarrierConfig::new(64, 0);
        let var_only = mean_over_runs(cfg, BackoffPolicy::on_variable(), 30, |r| {
            r.mean_accesses()
        });
        let binary = mean_over_runs(cfg, BackoffPolicy::exponential(2), 30, |r| {
            r.mean_accesses()
        });
        assert!(
            (var_only - binary).abs() < var_only * 0.15,
            "var-only {var_only} binary {binary}"
        );
    }

    #[test]
    fn exponential_backoff_dramatic_savings_large_a() {
        // "In the 16 processor case with a binary backoff on the flag ...
        // over 95% savings in network accesses" (A = 1000).
        let cfg = BarrierConfig::new(16, 1000);
        let plain = mean_over_runs(cfg, BackoffPolicy::None, 20, |r| r.mean_accesses());
        let binary = mean_over_runs(cfg, BackoffPolicy::exponential(2), 20, |r| {
            r.mean_accesses()
        });
        let saving = 1.0 - binary / plain;
        assert!(saving > 0.9, "plain {plain} binary {binary} saving {saving}");
    }

    #[test]
    fn backoff_overshoot_increases_waiting_large_a() {
        // Figure 10: base-8 backoff inflates waiting times at N = 64,
        // A = 1000 (paper: 576 -> 2048 cycles).
        let cfg = BarrierConfig::new(64, 1000);
        let plain = mean_over_runs(cfg, BackoffPolicy::None, 20, |r| r.mean_waiting());
        let base8 = mean_over_runs(cfg, BackoffPolicy::exponential(8), 20, |r| {
            r.mean_waiting()
        });
        assert!(
            base8 > plain * 1.5,
            "plain wait {plain} base8 wait {base8}"
        );
    }

    #[test]
    fn queue_policy_parks_early_arrivers() {
        let cfg = BarrierConfig::new(16, 5_000);
        let policy = BackoffPolicy::QueueOnThreshold {
            base: 2,
            threshold: 64,
            wake_cost: 200,
        };
        let run = BarrierSim::new(cfg, policy).run(5);
        assert!(run.queued() > 0, "someone should park in a 5000-cycle span");
        // Parked processes still finish, at flag_set + wake_cost.
        assert_eq!(run.completion(), run.flag_set_at() + 200);
    }

    #[test]
    fn waiting_time_consistency() {
        let run = BarrierSim::new(BarrierConfig::new(32, 100), BackoffPolicy::None).run(2);
        // The flag writer necessarily finishes first.
        let min_wait_end = run.flag_set_at();
        assert!(run.completion() >= min_wait_end);
        // All processes record nonzero accesses.
        assert!(run.accesses().iter().all(|&a| a >= 2));
    }

    #[test]
    fn accesses_decrease_then_contention_dominates() {
        // Figure 7 shape: at A = 1000 the exponential curves are far below
        // the no-backoff curve for small N, but the relative gap narrows
        // for very large N.
        let small = BarrierConfig::new(16, 1000);
        let plain_small = mean_over_runs(small, BackoffPolicy::None, 10, |r| r.mean_accesses());
        let b8_small = mean_over_runs(small, BackoffPolicy::exponential(8), 10, |r| {
            r.mean_accesses()
        });
        let big = BarrierConfig::new(512, 1000);
        let plain_big = mean_over_runs(big, BackoffPolicy::None, 5, |r| r.mean_accesses());
        let b8_big = mean_over_runs(big, BackoffPolicy::exponential(8), 5, |r| {
            r.mean_accesses()
        });
        let saving_small = 1.0 - b8_small / plain_small;
        let saving_big = 1.0 - b8_big / plain_big;
        assert!(saving_small > saving_big, "{saving_small} vs {saving_big}");
    }

    #[test]
    fn oldest_first_arbitration_also_completes() {
        let cfg =
            BarrierConfig::new(32, 100).with_arbitration(Arbitration::OldestFirst);
        let run = BarrierSim::new(cfg, BackoffPolicy::None).run(1);
        assert_eq!(run.accesses().len(), 32);
    }

    #[test]
    fn round_robin_arbitration_also_completes() {
        let cfg =
            BarrierConfig::new(32, 100).with_arbitration(Arbitration::RoundRobin);
        let run = BarrierSim::new(cfg, BackoffPolicy::exponential(4)).run(1);
        assert_eq!(run.accesses().len(), 32);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        BarrierConfig::new(0, 10);
    }
}
