//! The open-loop simulation engine.
//!
//! [`OpenLoopSim`] replays a generated job stream (see
//! [`crate::tenant::generate_stream`]) against `P` simulated processors
//! sharing `V` synchronization variables behind the paper's one-access-
//! per-variable-per-cycle memory model. Jobs are *offered*, not
//! self-throttled: arrivals keep coming whether or not the processors
//! keep up, which is exactly the regime where queueing, fairness and
//! backoff policy choices become visible.
//!
//! # Model
//!
//! Every cycle has four phases, in fixed order:
//!
//! 1. **Arrivals** — jobs whose arrival cycle is `now` join the pending
//!    pool (`SchedPolicy::on_arrival`). The stream is sorted by arrival
//!    cycle, so a cursor over it yields each cycle's arrivals in stream
//!    order, and its next entry is what lets the event kernel jump the
//!    clock between them.
//! 2. **Sync attempts** — processors whose retry timer expires present
//!    their operation. Fetch-and-add and the CAS half of an RMW are
//!    serialized per variable: among same-cycle contenders the lowest
//!    processor id wins, losers back off under the configured
//!    [`BackoffPolicy`] (`retry = now + 1 + delay`). Flag spins poll a
//!    deterministic external flag; RMW reads are unserialized. Every
//!    presented attempt counts toward `sync_accesses`.
//! 3. **Completions** — jobs whose local work finishes release their
//!    processor and report their measured service to the scheduler
//!    (`SchedPolicy::on_complete`, feeding CFS runtime accounting).
//! 4. **Admissions** — idle processors (ascending id) ask the scheduler
//!    for work; an admitted job makes its first sync attempt next cycle.
//!
//! # Kernels and determinism
//!
//! Both [`Kernel`]s run the same four phases off the same arrival cursor
//! and two [`TimeWheel`]s (attempts, completions); the event kernel just
//! skips cycles where neither the cursor nor a wheel has anything due —
//! such cycles provably touch no state (admissions can only fire on a
//! cycle with an arrival or completion, because the engine drains either
//! the idle-processor set or the pending pool whenever they are both
//! nonempty). The engine draws no
//! randomness at all after stream generation, so outcomes and traces are
//! bit-identical across kernels and across any `--jobs` fan-out by
//! construction — the equivalence tests pin it anyway.

use abs_core::policy::BackoffPolicy;
use abs_obs::trace::{lane, TraceSink};
use abs_sim::kernel::Kernel;
use abs_sim::stats::{nearest_ranks, OnlineStats};
use abs_sim::wheel::TimeWheel;
use abs_trace::sched::SchedKind;

use crate::tenant::{generate_stream, Job, OpKind, Tenant};

/// Cycles a spinner waits when the backoff policy asks to park (the
/// queueing policy's `flag_delay` returns `None`): a fixed stand-in for
/// the enqueue + wake round trip. The paper's figure policies never park.
const PARK_RETRY: u64 = 64;

/// Static per-tenant counter names, so counter emission never allocates.
/// Twelve tenants covers every exhibit configuration; additional tenants
/// are silently untraced (their stats still aggregate).
const TENANT_QUEUE: [&str; 12] = [
    "tenant0_queue",
    "tenant1_queue",
    "tenant2_queue",
    "tenant3_queue",
    "tenant4_queue",
    "tenant5_queue",
    "tenant6_queue",
    "tenant7_queue",
    "tenant8_queue",
    "tenant9_queue",
    "tenant10_queue",
    "tenant11_queue",
];

/// Configuration of an open-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadConfig {
    /// Simulated processors.
    pub procs: usize,
    /// Shared synchronization variables.
    pub vars: usize,
    /// Cycles simulated (arrivals beyond this are not generated).
    pub horizon: u64,
    /// Admission scheduling policy.
    pub sched: SchedKind,
    /// Backoff policy applied to failed sync attempts and flag polls.
    pub backoff: BackoffPolicy,
    /// Period of the external flag producer: the flag for variable `v` is
    /// set during cycles where `(now + v) % flag_period < flag_duty`.
    pub flag_period: u64,
    /// Set-window length within each flag period.
    pub flag_duty: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            procs: 16,
            vars: 4,
            horizon: 20_000,
            sched: SchedKind::RoundRobin,
            backoff: BackoffPolicy::None,
            flag_period: 32,
            flag_duty: 4,
        }
    }
}

/// Aggregate results of one open-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadOutcome {
    /// Jobs that arrived within the horizon.
    pub arrivals: u64,
    /// Jobs admitted onto a processor.
    pub admitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Sync-variable accesses presented to the memory system.
    pub sync_accesses: u64,
    /// Processor-cycles spent with no job (the loadsweep's idle metric).
    pub idle_proc_cycles: u64,
    /// Processor-cycles spent holding a job (spinning, backed off, or in
    /// local work).
    pub busy_proc_cycles: u64,
    /// Mean jobs pending admission, sampled on active cycles.
    pub avg_queue_depth: f64,
    /// Mean cycles from arrival to admission, over all admitted jobs.
    pub avg_admission_wait: f64,
    /// Per-tenant breakdown, indexed like the tenant population.
    pub tenants: Vec<TenantOutcome>,
}

impl LoadOutcome {
    /// Fraction of processor-cycles spent idle.
    pub fn idle_fraction(&self) -> f64 {
        let total = self.idle_proc_cycles + self.busy_proc_cycles;
        if total == 0 {
            return 0.0;
        }
        self.idle_proc_cycles as f64 / total as f64
    }
}

/// One tenant's share of an open-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOutcome {
    /// Jobs this tenant offered within the horizon.
    pub arrivals: u64,
    /// Jobs that completed.
    pub completed: u64,
    /// Completed jobs per 1000 cycles of horizon.
    pub throughput_per_kilocycle: f64,
    /// Mean cycles from arrival to admission.
    pub avg_admission_wait: f64,
    /// Median arrival-to-completion latency (nearest-rank).
    pub p50_latency: f64,
    /// 95th-percentile arrival-to-completion latency.
    pub p95_latency: f64,
    /// 99th-percentile arrival-to-completion latency.
    pub p99_latency: f64,
    /// Processor-cycles of measured service charged to this tenant.
    pub service_cycles: u64,
}

/// What a processor is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    /// No job.
    Idle,
    /// Presenting fetch-and-adds on `var` until it wins.
    Faa { ji: usize, attempts: u32 },
    /// Polling the flag of `var` until it is set.
    Spin { ji: usize, attempts: u32 },
    /// RMW: about to (re-)read the variable.
    RmwRead { ji: usize, attempts: u32 },
    /// RMW: presenting the CAS write.
    RmwCas { ji: usize, attempts: u32 },
    /// Sync succeeded; burning local work.
    Work { ji: usize },
}

/// The open-loop engine: a tenant population plus a [`LoadConfig`].
///
/// # Examples
///
/// ```
/// use abs_load::engine::{LoadConfig, OpenLoopSim};
/// use abs_load::tenant::Tenant;
///
/// let sim = OpenLoopSim::new(
///     LoadConfig { horizon: 5_000, ..LoadConfig::default() },
///     vec![Tenant::poisson(40.0), Tenant::poisson(60.0)],
/// );
/// let outcome = sim.run(7);
/// assert!(outcome.completed > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopSim {
    config: LoadConfig,
    tenants: Vec<Tenant>,
}

impl OpenLoopSim {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate: zero processors,
    /// variables, horizon or tenants, or a flag duty outside
    /// `1..=flag_period`.
    pub fn new(config: LoadConfig, tenants: Vec<Tenant>) -> Self {
        assert!(config.procs > 0, "at least one processor required");
        assert!(config.vars > 0, "at least one variable required");
        assert!(config.horizon > 0, "horizon must be positive");
        assert!(!tenants.is_empty(), "at least one tenant required");
        assert!(config.flag_period > 0, "flag period must be positive");
        assert!(
            (1..=config.flag_period).contains(&config.flag_duty),
            "flag duty must lie in 1..=flag_period"
        );
        Self { config, tenants }
    }

    /// The configuration in force.
    pub fn config(&self) -> &LoadConfig {
        &self.config
    }

    /// The tenant population.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// The job stream this engine replays for `seed`.
    pub fn stream(&self, seed: u64) -> Vec<Job> {
        generate_stream(&self.tenants, self.config.vars, self.config.horizon, seed)
    }

    /// Runs untraced under the default kernel.
    pub fn run(&self, seed: u64) -> LoadOutcome {
        self.run_with(seed, Kernel::default())
    }

    /// Runs untraced under an explicit kernel.
    pub fn run_with(&self, seed: u64, kernel: Kernel) -> LoadOutcome {
        self.run_traced_with(seed, &mut abs_obs::trace::Noop, kernel)
    }

    /// The canonical entry point: runs the stream for `seed` under
    /// `kernel`, tracing into `sink`.
    ///
    /// Trace layout: per-job spans named by op on the processor's lane
    /// (`tid == p`), `admit` instants carrying the admission wait,
    /// per-tenant `tenantN_queue` depth counters and an `idle_procs`
    /// counter on `tid == 0`, emitted on active cycles. For cycle
    /// attribution (`abs-insight`), attempts additionally emit: a
    /// `sync-win` instant on the winning attempt (service starts next
    /// cycle), a `backoff` span over each failed attempt's wait, an
    /// `rmw-read` instant on each RMW read leg, and a `truncated` instant
    /// ahead of every span force-closed at the horizon.
    pub fn run_traced_with<S: TraceSink>(
        &self,
        seed: u64,
        sink: &mut S,
        kernel: Kernel,
    ) -> LoadOutcome {
        let cfg = &self.config;
        let procs = cfg.procs;
        let n_tenants = self.tenants.len();
        let jobs = self.stream(seed);
        let weights: Vec<u64> = self.tenants.iter().map(|t| t.weight.max(1)).collect();
        let mut policy = cfg.sched.build(&weights);

        // `jobs` is sorted by arrival cycle, every one at least 1, so the
        // cursor's next job is the earliest arrival not yet replayed.
        let mut next_arrival = 0usize;
        let mut attempts_wheel = TimeWheel::new(0);
        let mut completions = TimeWheel::new(0);

        let mut state: Vec<ProcState> = vec![ProcState::Idle; procs];
        let mut admit_at: Vec<u64> = vec![0; procs];
        let mut idle_procs = procs as u64;

        // Per-variable claim scratch (reset via `touched` after each cycle).
        let mut var_claim: Vec<bool> = vec![false; cfg.vars];
        let mut touched: Vec<usize> = Vec::with_capacity(cfg.vars);

        // Tallies.
        let mut arrived = 0u64;
        let mut admitted = 0u64;
        let mut completed_total = 0u64;
        let mut sync_accesses = 0u64;
        let mut idle_cycles = 0u64;
        let mut busy_cycles = 0u64;
        let mut queue_depth = OnlineStats::new();
        let mut wait_all = OnlineStats::new();
        let mut pending_by_tenant: Vec<u64> = vec![0; n_tenants];
        let mut t_arrivals: Vec<u64> = vec![0; n_tenants];
        let mut t_completed: Vec<u64> = vec![0; n_tenants];
        let mut t_wait: Vec<OnlineStats> = vec![OnlineStats::new(); n_tenants];
        let mut t_latency: Vec<Vec<f64>> = vec![Vec::new(); n_tenants];
        let mut t_service: Vec<u64> = vec![0; n_tenants];

        let mut due: Vec<usize> = Vec::new();

        let mut now = 1u64;
        while now <= cfg.horizon {
            if kernel == Kernel::Event {
                // Jump over cycles with no arrival and nothing due on a
                // wheel; such cycles cannot change state (see the module
                // docs).
                let next = [
                    jobs.get(next_arrival).map(|job| job.arrive),
                    attempts_wheel.peek_min(),
                    completions.peek_min(),
                ]
                .into_iter()
                .flatten()
                .min();
                let wake = next.unwrap_or(cfg.horizon + 1).min(cfg.horizon + 1);
                if wake > now {
                    let gap = wake - now;
                    idle_cycles = idle_cycles.saturating_add(idle_procs * gap);
                    busy_cycles = busy_cycles.saturating_add((procs as u64 - idle_procs) * gap);
                    now = wake;
                    continue;
                }
            }

            let mut active = false;

            // 1. Arrivals, in stream order.
            while let Some(&job) = jobs.get(next_arrival).filter(|job| job.arrive <= now) {
                policy.on_arrival(job.tenant, next_arrival as u64, now);
                next_arrival += 1;
                pending_by_tenant[job.tenant] += 1;
                arrived += 1;
                t_arrivals[job.tenant] += 1;
                active = true;
            }

            // 2. Sync attempts, ascending processor id; lowest id wins
            //    each variable's serialization slot.
            attempts_wheel.pop_due(now, &mut due);
            for &p in &due {
                active = true;
                match state[p] {
                    ProcState::Faa { ji, attempts } => {
                        let job = jobs[ji];
                        sync_accesses = sync_accesses.saturating_add(1);
                        if Self::claim(&mut var_claim, &mut touched, job.var) {
                            state[p] = ProcState::Work { ji };
                            completions.schedule(now + job.work, p);
                            sink.instant(lane(p), now, "sync-win", &[("attempts", f64::from(attempts))]);
                        } else {
                            let attempts = attempts + 1;
                            state[p] = ProcState::Faa { ji, attempts };
                            let delay = cfg.backoff.flag_delay(attempts).unwrap_or(PARK_RETRY);
                            attempts_wheel.schedule(now + 1 + delay, p);
                            Self::trace_backoff(sink, p, now, delay, cfg.horizon);
                        }
                    }
                    ProcState::Spin { ji, attempts } => {
                        let job = jobs[ji];
                        sync_accesses = sync_accesses.saturating_add(1);
                        if self.flag_set(now, job.var) {
                            state[p] = ProcState::Work { ji };
                            completions.schedule(now + job.work, p);
                            sink.instant(lane(p), now, "sync-win", &[("attempts", f64::from(attempts))]);
                        } else {
                            let attempts = attempts + 1;
                            state[p] = ProcState::Spin { ji, attempts };
                            let delay = cfg.backoff.flag_delay(attempts).unwrap_or(PARK_RETRY);
                            attempts_wheel.schedule(now + 1 + delay, p);
                            Self::trace_backoff(sink, p, now, delay, cfg.horizon);
                        }
                    }
                    ProcState::RmwRead { ji, attempts } => {
                        // The read half is unserialized: it always
                        // completes, and the CAS presents next cycle.
                        sync_accesses = sync_accesses.saturating_add(1);
                        state[p] = ProcState::RmwCas { ji, attempts };
                        attempts_wheel.schedule(now + 1, p);
                        sink.instant(lane(p), now, "rmw-read", &[]);
                    }
                    ProcState::RmwCas { ji, attempts } => {
                        let job = jobs[ji];
                        sync_accesses = sync_accesses.saturating_add(1);
                        if Self::claim(&mut var_claim, &mut touched, job.var) {
                            state[p] = ProcState::Work { ji };
                            completions.schedule(now + job.work, p);
                            sink.instant(lane(p), now, "sync-win", &[("attempts", f64::from(attempts))]);
                        } else {
                            // CAS failed: somebody else wrote first. Back
                            // off, then re-read before retrying.
                            let attempts = attempts + 1;
                            state[p] = ProcState::RmwRead { ji, attempts };
                            let delay = cfg.backoff.flag_delay(attempts).unwrap_or(PARK_RETRY);
                            attempts_wheel.schedule(now + 1 + delay, p);
                            Self::trace_backoff(sink, p, now, delay, cfg.horizon);
                        }
                    }
                    ProcState::Idle | ProcState::Work { .. } => {
                        unreachable!("attempt popped for a processor with no sync in flight")
                    }
                }
            }

            // 3. Completions.
            completions.pop_due(now, &mut due);
            for &p in &due {
                active = true;
                let ProcState::Work { ji } = state[p] else {
                    unreachable!("completion popped for a processor not in work phase")
                };
                let job = jobs[ji];
                let service = now - admit_at[p];
                policy.on_complete(job.tenant, service, now);
                state[p] = ProcState::Idle;
                idle_procs += 1;
                completed_total += 1;
                t_completed[job.tenant] += 1;
                t_service[job.tenant] += service;
                t_latency[job.tenant].push((now - job.arrive) as f64);
                sink.span_end(lane(p), now, job.op.label(), &[]);
            }

            // 4. Admissions, ascending processor id. An empty pool admits
            // nothing; skipping it spares `pick` a walk over every tenant
            // queue (a no-op on an empty pool, pinned by abs-trace's
            // `sched` tests).
            if active && idle_procs > 0 && policy.pending() > 0 {
                for p in 0..procs {
                    if state[p] != ProcState::Idle {
                        continue;
                    }
                    let Some((tenant, ji)) = policy.pick(now) else {
                        break;
                    };
                    #[expect(clippy::cast_possible_truncation, reason = "job indices are positions in the jobs vector")]
                    let ji = ji as usize;
                    let job = jobs[ji];
                    debug_assert_eq!(job.tenant, tenant);
                    pending_by_tenant[tenant] -= 1;
                    idle_procs -= 1;
                    admitted += 1;
                    admit_at[p] = now;
                    let wait = (now - job.arrive) as f64;
                    wait_all.push(wait);
                    t_wait[tenant].push(wait);
                    state[p] = match job.op {
                        OpKind::FetchAdd => ProcState::Faa { ji, attempts: 0 },
                        OpKind::SpinFlag => ProcState::Spin { ji, attempts: 0 },
                        OpKind::Rmw => ProcState::RmwRead { ji, attempts: 0 },
                    };
                    attempts_wheel.schedule(now + 1, p);
                    if sink.enabled() {
                        sink.instant(
                            lane(p),
                            now,
                            "admit",
                            &[("tenant", tenant as f64), ("wait", wait)],
                        );
                    }
                    sink.span_begin(lane(p), now, job.op.label(), &[("tenant", tenant as f64)]);
                }
            }

            // Reset per-cycle variable claims.
            for &v in &touched {
                var_claim[v] = false;
            }
            touched.clear();

            if active {
                queue_depth.push(pending_by_tenant.iter().sum::<u64>() as f64);
                if sink.enabled() {
                    for (t, name) in TENANT_QUEUE.iter().enumerate().take(n_tenants) {
                        sink.counter(0, now, *name, &[("jobs", pending_by_tenant[t] as f64)]);
                    }
                    sink.counter(0, now, "idle_procs", &[("procs", idle_procs as f64)]);
                }
            }

            idle_cycles = idle_cycles.saturating_add(idle_procs);
            busy_cycles = busy_cycles.saturating_add(procs as u64 - idle_procs);
            now += 1;
        }

        // Close the spans of jobs still running at the horizon. The
        // `truncated` instant tells analysis the job occupied its
        // processor *through* the horizon cycle (it never completed), so
        // attribution's idle bucket matches `idle_proc_cycles` exactly.
        for (p, s) in state.iter().enumerate() {
            let ji = match *s {
                ProcState::Idle => continue,
                ProcState::Faa { ji, .. }
                | ProcState::Spin { ji, .. }
                | ProcState::RmwRead { ji, .. }
                | ProcState::RmwCas { ji, .. }
                | ProcState::Work { ji } => ji,
            };
            sink.instant(lane(p), cfg.horizon, "truncated", &[]);
            sink.span_end(lane(p), cfg.horizon, jobs[ji].op.label(), &[]);
        }

        let tenants = (0..n_tenants)
            .map(|t| {
                let [p50_latency, p95_latency, p99_latency] =
                    nearest_ranks(&t_latency[t], [0.50, 0.95, 0.99]);
                TenantOutcome {
                    arrivals: t_arrivals[t],
                    completed: t_completed[t],
                    throughput_per_kilocycle: t_completed[t] as f64 * 1000.0 / cfg.horizon as f64,
                    avg_admission_wait: t_wait[t].mean(),
                    p50_latency,
                    p95_latency,
                    p99_latency,
                    service_cycles: t_service[t],
                }
            })
            .collect();
        LoadOutcome {
            arrivals: arrived,
            admitted,
            completed: completed_total,
            sync_accesses,
            idle_proc_cycles: idle_cycles,
            busy_proc_cycles: busy_cycles,
            avg_queue_depth: queue_depth.mean(),
            avg_admission_wait: wait_all.mean(),
            tenants,
        }
    }

    /// Emits the backoff-wait span of a failed attempt: the processor
    /// sleeps `[now + 1, now + 1 + delay)`. The End timestamp is clamped
    /// to the horizon so a force-closed job's lane stays monotone.
    fn trace_backoff<S: TraceSink>(sink: &mut S, p: usize, now: u64, delay: u64, horizon: u64) {
        if !sink.enabled() {
            return;
        }
        let from = now + 1;
        let to = (from + delay).min(horizon);
        if to > from {
            sink.span_begin(lane(p), from, "backoff", &[("wait", delay as f64)]);
            sink.span_end(lane(p), to, "backoff", &[]);
        }
    }

    /// Whether the external producer has the flag of `var` set at `now`.
    fn flag_set(&self, now: u64, var: usize) -> bool {
        (now + var as u64) % self.config.flag_period < self.config.flag_duty
    }

    /// Claims `var`'s serialization slot for this cycle; the first caller
    /// (lowest processor id, by iteration order) wins.
    fn claim(var_claim: &mut [bool], touched: &mut Vec<usize>, var: usize) -> bool {
        if var_claim[var] {
            return false;
        }
        var_claim[var] = true;
        touched.push(var);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::Arrival;
    use crate::tenant::OpMix;
    use abs_obs::trace::Ring;

    fn quick_sim(sched: SchedKind, backoff: BackoffPolicy) -> OpenLoopSim {
        OpenLoopSim::new(
            LoadConfig {
                procs: 8,
                vars: 2,
                horizon: 10_000,
                sched,
                backoff,
                ..LoadConfig::default()
            },
            vec![
                Tenant {
                    weight: 3,
                    arrival: Arrival::poisson(12.0),
                    op_mix: OpMix::EVEN,
                    work: 4,
                },
                Tenant {
                    weight: 1,
                    arrival: Arrival::bursty(6.0, 2.0, 300.0),
                    op_mix: OpMix::FAA,
                    work: 2,
                },
                Tenant {
                    weight: 1,
                    arrival: Arrival::diurnal(4_000, vec![8.0, 80.0]),
                    op_mix: OpMix::EVEN,
                    work: 6,
                },
            ],
        )
    }

    #[test]
    fn deterministic_for_seed() {
        let sim = quick_sim(SchedKind::Cfs, BackoffPolicy::exponential(2));
        assert_eq!(sim.run(5), sim.run(5));
    }

    #[test]
    fn kernels_bit_identical_across_policies() {
        for sched in SchedKind::ALL {
            for backoff in BackoffPolicy::figure_policies() {
                let sim = quick_sim(sched, backoff);
                for seed in 0..2 {
                    assert_eq!(
                        sim.run_with(seed, Kernel::Cycle),
                        sim.run_with(seed, Kernel::Event),
                        "sched {sched:?} backoff {backoff:?} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernels_emit_identical_traces() {
        let sim = quick_sim(SchedKind::RoundRobin, BackoffPolicy::exponential(4));
        let mut cycle_ring = Ring::new(1 << 20);
        let mut event_ring = Ring::new(1 << 20);
        let a = sim.run_traced_with(3, &mut cycle_ring, Kernel::Cycle);
        let b = sim.run_traced_with(3, &mut event_ring, Kernel::Event);
        assert_eq!(a, b);
        assert_eq!(cycle_ring.events(), event_ring.events());
        assert!(!cycle_ring.events().is_empty());
    }

    #[test]
    fn tracing_does_not_perturb_results() {
        let sim = quick_sim(SchedKind::StrictPriority, BackoffPolicy::on_variable());
        let mut ring = Ring::default();
        let traced = sim.run_traced_with(9, &mut ring, Kernel::Event);
        assert_eq!(traced, sim.run(9));
        let events = ring.into_events();
        assert!(events.iter().any(|e| e.name == "admit"));
        assert!(events.iter().any(|e| e.name == "tenant0_queue"));
        assert!(events.iter().any(|e| e.name == "idle_procs"));
        assert!(events.iter().any(|e| e.name == "sync-win"));
        assert!(events.iter().any(|e| e.name == "rmw-read"));
    }

    #[test]
    fn backoff_spans_stay_within_horizon_and_balance() {
        use abs_obs::trace::Phase;
        // Flag spins fail whenever the flag is down, so exp-8 delays grow
        // to 8/64/512 cycles — spans that would overrun the 500-cycle
        // horizon without clamping.
        let sim = OpenLoopSim::new(
            LoadConfig {
                procs: 8,
                vars: 1,
                horizon: 500,
                sched: SchedKind::RoundRobin,
                backoff: BackoffPolicy::exponential(8),
                ..LoadConfig::default()
            },
            vec![Tenant {
                weight: 1,
                arrival: Arrival::poisson(2.0),
                op_mix: OpMix { faa: 1, spin: 6, rmw: 1 },
                work: 50,
            }],
        );
        let mut ring = Ring::default();
        sim.run_traced_with(11, &mut ring, Kernel::Event);
        let events = ring.into_events();
        let horizon = sim.config().horizon as f64;
        let mut open = std::collections::BTreeMap::new();
        for e in &events {
            assert!(e.ts <= horizon, "{} at {} past horizon", e.name, e.ts);
            match e.phase {
                Phase::Begin => *open.entry(e.tid).or_insert(0i64) += 1,
                Phase::End => *open.entry(e.tid).or_insert(0i64) -= 1,
                _ => {}
            }
        }
        assert!(events.iter().any(|e| e.name == "backoff"));
        assert!(events.iter().any(|e| e.name == "truncated"));
        assert!(open.values().all(|&n| n == 0), "unbalanced spans: {open:?}");
    }

    #[test]
    fn conservation_and_accounting_hold() {
        let sim = quick_sim(SchedKind::RoundRobin, BackoffPolicy::None);
        let o = sim.run(1);
        assert!(o.arrivals > 0);
        assert!(o.admitted <= o.arrivals);
        assert!(o.completed <= o.admitted);
        assert!(o.completed > 0);
        assert!(o.sync_accesses >= o.completed, "every job syncs at least once");
        let cfg = sim.config();
        assert_eq!(
            o.idle_proc_cycles + o.busy_proc_cycles,
            cfg.procs as u64 * cfg.horizon
        );
        let per_tenant: u64 = o.tenants.iter().map(|t| t.completed).sum();
        assert_eq!(per_tenant, o.completed);
    }

    #[test]
    fn overload_starves_low_priority_under_strict_priority() {
        // Offered load far beyond capacity: strict priority must give
        // tenant 0 a larger completion share than the last tenant.
        let mk = |sched| {
            OpenLoopSim::new(
                LoadConfig {
                    procs: 2,
                    vars: 1,
                    horizon: 20_000,
                    sched,
                    backoff: BackoffPolicy::None,
                    ..LoadConfig::default()
                },
                vec![
                    Tenant { weight: 1, arrival: Arrival::poisson(6.0), op_mix: OpMix::FAA, work: 8 },
                    Tenant { weight: 1, arrival: Arrival::poisson(6.0), op_mix: OpMix::FAA, work: 8 },
                    Tenant { weight: 1, arrival: Arrival::poisson(6.0), op_mix: OpMix::FAA, work: 8 },
                ],
            )
        };
        let prio = mk(SchedKind::StrictPriority).run(17);
        assert!(
            prio.tenants[0].completed > prio.tenants[2].completed * 2,
            "{:?}",
            prio.tenants.iter().map(|t| t.completed).collect::<Vec<_>>()
        );
        // Round-robin spreads the same offered load roughly evenly.
        let rr = mk(SchedKind::RoundRobin).run(17);
        let (hi, lo) = (
            rr.tenants.iter().map(|t| t.completed).max().unwrap_or(0),
            rr.tenants.iter().map(|t| t.completed).min().unwrap_or(0),
        );
        assert!(lo * 2 > hi, "round-robin shares: hi {hi} lo {lo}");
    }

    #[test]
    fn cfs_weights_shape_shares_under_contention() {
        let sim = OpenLoopSim::new(
            LoadConfig {
                procs: 2,
                vars: 1,
                horizon: 30_000,
                sched: SchedKind::Cfs,
                backoff: BackoffPolicy::None,
                ..LoadConfig::default()
            },
            vec![
                Tenant { weight: 4, arrival: Arrival::poisson(5.0), op_mix: OpMix::FAA, work: 10 },
                Tenant { weight: 1, arrival: Arrival::poisson(5.0), op_mix: OpMix::FAA, work: 10 },
            ],
        );
        let o = sim.run(23);
        let s0 = o.tenants[0].service_cycles as f64;
        let s1 = o.tenants[1].service_cycles.max(1) as f64;
        assert!(s0 / s1 > 2.0, "service ratio {} ({s0} vs {s1})", s0 / s1);
    }

    #[test]
    fn backoff_reduces_sync_traffic_under_contention() {
        let mk = |backoff| {
            OpenLoopSim::new(
                LoadConfig {
                    procs: 16,
                    vars: 1,
                    horizon: 20_000,
                    sched: SchedKind::RoundRobin,
                    backoff,
                    ..LoadConfig::default()
                },
                vec![Tenant {
                    weight: 1,
                    arrival: Arrival::poisson(3.0),
                    op_mix: OpMix { faa: 1, spin: 1, rmw: 0 },
                    work: 2,
                }],
            )
            .run(31)
        };
        let none = mk(BackoffPolicy::None);
        let exp = mk(BackoffPolicy::exponential(8));
        assert!(
            exp.sync_accesses < none.sync_accesses,
            "exp {} none {}",
            exp.sync_accesses,
            none.sync_accesses
        );
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn empty_population_rejected() {
        OpenLoopSim::new(LoadConfig::default(), Vec::new());
    }
}
