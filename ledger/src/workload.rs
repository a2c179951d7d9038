//! The four workloads and their job grids.
//!
//! Every grid copies a `repro` exhibit: the same configurations, the same
//! seed conventions (`derive_seed`, `seed ^ 0xFEED`) and the same
//! aggregation calls, so at the paper seed each job's result equals the
//! exhibit's cell. A job is one sweep point — one call into one simulator
//! layer — and its [`Outcome`] carries an exact digest of the values the
//! exhibit prints plus the work counters of that call.

use abs_coherence::{CacheGeometry, DirectorySystem, PointerLimit, SnoopyBus, SyncCaching};
use abs_core::{
    aggregate_runs_with, BackoffPolicy, BarrierConfig, BarrierSim, CombiningConfig,
    CombiningTreeSim, ResourceConfig, ResourcePolicy, ResourceSim,
};
use abs_load::{Arrival, LoadConfig, OpMix, OpenLoopSim, Tenant};
use abs_net::{CircuitConfig, CircuitSim, NetworkBackoff, PacketConfig, PacketSim};
use abs_sim::stats::OnlineStats;
use abs_sim::sweep::{derive_seed, power_of_two_counts};
use abs_sim::Kernel;
use abs_trace::{SchedKind, Scheduler, Section, SpmdApp};

/// The paper's master seed (`ReproConfig::paper().seed`).
pub const PAPER_SEED: u64 = 0x1989_0605;

/// The held-out seed: goldens exist for it, but nothing was tuned on it.
pub const HELD_OUT_SEED: u64 = 0x2307_1024;

/// Every `ORACLE_STRIDE`-th job of `barrier_paper` and `net_openloop` is
/// rerun on the cycle-stepper oracle after the timed passes.
const ORACLE_STRIDE: usize = 16;

/// Simulated horizon of every open-loop episode (the exhibits' `HORIZON`).
const HORIZON: u64 = 8_000;

/// Tenant population of the open-loop exhibits (`ReproConfig::tenants`).
const TENANTS: usize = 4;

/// Grid size: the paper configuration, or a scale that runs in seconds
/// even unoptimized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Repetitions per point (`--reps`; the paper used 100).
    reps: u32,
    /// Largest N of the Figure 4–10 grid (`--max-n`); the megasweep grid
    /// is 8 and 128 times this.
    max_n: usize,
    /// Seed streams of the Figure 4–10 grid.
    streams: u64,
    /// Processors of the trace-driven and open-loop runs (`--procs`).
    procs: usize,
    /// Divides every reference count of the trace-driven applications.
    ref_divisor: u32,
}

impl Scale {
    /// The paper configuration (`ReproConfig::paper()`).
    pub const PAPER: Scale = Scale {
        reps: 100,
        max_n: 512,
        streams: 4,
        procs: 64,
        ref_divisor: 1,
    };

    /// A few seconds for all four workloads, for tests.
    pub const SMOKE: Scale = Scale {
        reps: 3,
        max_n: 4,
        streams: 1,
        procs: 8,
        ref_divisor: 64,
    };
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The unique Figure 4–10 grid over four seed streams.
    BarrierPaper,
    /// The megasweep flat grid at N = 4096 and 65536.
    BarrierMega,
    /// Table 1/2 directory runs plus the snoopy-bus contrast.
    CoherenceApps,
    /// The Section-8 network, combining and resource exhibits and the
    /// open-loop load exhibits.
    NetOpenloop,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 4] = [
        Workload::BarrierPaper,
        Workload::BarrierMega,
        Workload::CoherenceApps,
        Workload::NetOpenloop,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BarrierPaper => "barrier_paper",
            Workload::BarrierMega => "barrier_mega",
            Workload::CoherenceApps => "coherence_apps",
            Workload::NetOpenloop => "net_openloop",
        }
    }

    /// The workload with this name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The job list for `seed` at `scale`.
    pub fn jobs(self, seed: u64, scale: Scale) -> Vec<Job> {
        match self {
            Workload::BarrierPaper => barrier_paper(seed, scale),
            Workload::BarrierMega => barrier_mega(seed, scale),
            Workload::CoherenceApps => coherence_apps(seed, scale),
            Workload::NetOpenloop => net_openloop(seed, scale),
        }
    }

    /// The jobs the cycle-kernel oracle checks: every 16th job of the
    /// Figure 4–10 and network grids, and the smallest-N megasweep points
    /// cut to one repetition (the cycle stepper is too slow beyond).
    /// The coherence simulators have a single kernel and no oracle.
    pub fn oracle_jobs(self, jobs: &[Job]) -> Vec<Job> {
        match self {
            Workload::BarrierPaper | Workload::NetOpenloop => {
                jobs.iter().step_by(ORACLE_STRIDE).cloned().collect()
            }
            Workload::BarrierMega => {
                let smallest = jobs.iter().filter_map(Job::barrier_n).min();
                jobs.iter()
                    .filter(|j| j.barrier_n() == smallest)
                    .map(|j| j.with_reps(1))
                    .collect()
            }
            Workload::CoherenceApps => Vec::new(),
        }
    }
}

/// One sweep point: a named call into one simulator layer.
#[derive(Debug, Clone)]
pub struct Job {
    /// Stable name, also the golden-file key.
    pub name: String,
    /// The seed the exhibit passes for this point.
    pub seed: u64,
    sim: Sim,
}

/// The simulator call a job makes, with the exhibit's aggregation.
#[derive(Debug, Clone)]
enum Sim {
    /// `aggregate_runs_with` over a barrier (Figures 4–10, megasweep).
    Barrier { sim: BarrierSim, reps: u32 },
    /// A trace-driven run on the directory machine (Tables 1 and 2).
    Directory {
        app: SpmdApp,
        procs: usize,
        limit: PointerLimit,
        mode: SyncCaching,
    },
    /// A trace-driven run on the snoopy bus (Section 2.1).
    Snoopy { app: SpmdApp, procs: usize },
    /// Circuit-switched network backoff (`netback`).
    Circuit {
        sim: CircuitSim,
        reps: u32,
        cycles: u64,
    },
    /// Packet-switched queue feedback (`netback`).
    Packet {
        sim: PacketSim,
        reps: u32,
        cycles: u64,
    },
    /// One offered-load point (`loadsweep`).
    LoadPoint { sim: OpenLoopSim, reps: u32 },
    /// One scheduler's per-tenant shares (`fairness`).
    Fairness { sim: OpenLoopSim, reps: u32 },
    /// The flat reference row of `combining`.
    Flat { sim: BarrierSim, reps: u32 },
    /// A combining tree (`combining`).
    Combining { sim: CombiningTreeSim, reps: u32 },
    /// Resource-wait backoff (`resource`).
    Resource { sim: ResourceSim, reps: u32 },
}

/// What one job produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every value the exhibit derives its cell from, in full precision.
    pub digest: String,
    /// Simulator episodes run (`run_with` calls).
    pub episodes: u64,
    /// Work counters of the layer call, the layer's own unit first.
    pub counts: Vec<(&'static str, u64)>,
}

impl Job {
    fn new(name: String, seed: u64, sim: Sim) -> Job {
        Job { name, seed, sim }
    }

    /// The layer this job calls into, as named in the per-layer metrics.
    pub fn layer(&self) -> &'static str {
        match self.sim {
            Sim::Barrier { .. } | Sim::Flat { .. } => "core.barrier",
            Sim::Directory { .. } => "coherence.directory",
            Sim::Snoopy { .. } => "coherence.snoopy",
            Sim::Circuit { .. } => "net.circuit",
            Sim::Packet { .. } => "net.packet",
            Sim::LoadPoint { .. } | Sim::Fairness { .. } => "load.engine",
            Sim::Combining { .. } => "core.combining",
            Sim::Resource { .. } => "core.resource",
        }
    }

    /// Processor count of a barrier job.
    fn barrier_n(&self) -> Option<usize> {
        match &self.sim {
            Sim::Barrier { sim, .. } => Some(sim.config().n),
            _ => None,
        }
    }

    /// The job's warm-up: one repetition of a repeated job. A job that
    /// runs a single episode gets none; its episode is long enough that
    /// first-call costs vanish in it.
    pub fn warm_up(&self) -> Option<Job> {
        match self.sim {
            Sim::Directory { .. } | Sim::Snoopy { .. } => None,
            Sim::Barrier { reps, .. }
            | Sim::Circuit { reps, .. }
            | Sim::Packet { reps, .. }
            | Sim::LoadPoint { reps, .. }
            | Sim::Fairness { reps, .. }
            | Sim::Flat { reps, .. }
            | Sim::Combining { reps, .. }
            | Sim::Resource { reps, .. } => (reps > 1).then(|| self.with_reps(1)),
        }
    }

    /// The same job at `reps` repetitions (trace-driven jobs have none).
    fn with_reps(&self, reps: u32) -> Job {
        let mut job = self.clone();
        match &mut job.sim {
            Sim::Barrier { reps: r, .. }
            | Sim::Circuit { reps: r, .. }
            | Sim::Packet { reps: r, .. }
            | Sim::LoadPoint { reps: r, .. }
            | Sim::Fairness { reps: r, .. }
            | Sim::Flat { reps: r, .. }
            | Sim::Combining { reps: r, .. }
            | Sim::Resource { reps: r, .. } => *r = reps,
            Sim::Directory { .. } | Sim::Snoopy { .. } => {}
        }
        job.name = format!("{}@{reps}", self.name);
        job
    }

    /// Runs the job's layer call under `kernel`.
    pub fn run(&self, kernel: Kernel) -> Outcome {
        let seed = self.seed;
        match &self.sim {
            Sim::Barrier { sim, reps } => {
                let agg = aggregate_runs_with(sim, *reps, seed, kernel);
                let accesses = agg.mean_accesses() * sim.config().n as f64 * f64::from(*reps);
                Outcome {
                    digest: digest(&[agg.mean_accesses(), agg.mean_waiting()]),
                    episodes: u64::from(*reps),
                    counts: vec![("accesses", accesses.round() as u64)],
                }
            }
            Sim::Directory {
                app,
                procs,
                limit,
                mode,
            } => {
                let mut sys = DirectorySystem::new(*procs, CacheGeometry::paper(), *limit, *mode);
                Scheduler::new(app.clone(), *procs, seed).run(&mut sys);
                let s = sys.stats();
                Outcome {
                    digest: digest(&[
                        s.refs_sync as f64,
                        s.refs_nonsync as f64,
                        s.invalidating_sync as f64,
                        s.invalidating_nonsync as f64,
                        s.traffic_total as f64,
                        s.traffic_sync as f64,
                        s.pct_nonsync_invalidating(),
                        s.pct_sync_invalidating(),
                        s.pct_sync_traffic(),
                    ]),
                    episodes: 1,
                    counts: vec![("refs", s.refs_sync + s.refs_nonsync)],
                }
            }
            Sim::Snoopy { app, procs } => {
                let mut bus = SnoopyBus::new(*procs, CacheGeometry::paper());
                let report = Scheduler::new(app.clone(), *procs, seed).run(&mut bus);
                let s = bus.stats();
                Outcome {
                    digest: digest(&[
                        s.refs as f64,
                        s.refs_sync as f64,
                        s.bus_transactions as f64,
                        s.bus_sync as f64,
                        report.cycles as f64,
                        s.pct_sync_bus(),
                    ]),
                    episodes: 1,
                    counts: vec![("refs", s.refs)],
                }
            }
            Sim::Circuit { sim, reps, cycles } => {
                let mut means: [OnlineStats; 4] = Default::default();
                let (mut attempts, mut completed) = (0u64, 0u64);
                for i in 0..*reps {
                    let o = sim.run_with(derive_seed(seed, u64::from(i)), kernel);
                    push(
                        &mut means,
                        [
                            o.avg_attempts,
                            o.avg_latency,
                            o.throughput,
                            o.avg_collision_depth,
                        ],
                    );
                    attempts += o.attempts;
                    completed += o.completed;
                }
                Outcome {
                    digest: digest(&means.map(|m| m.mean())),
                    episodes: u64::from(*reps),
                    counts: vec![
                        ("cycles", cycles * u64::from(*reps)),
                        ("attempts", attempts),
                        ("completed", completed),
                    ],
                }
            }
            Sim::Packet { sim, reps, cycles } => {
                let mut means: [OnlineStats; 3] = Default::default();
                for i in 0..*reps {
                    let o = sim.run_with(derive_seed(seed ^ 0xFEED, u64::from(i)), kernel);
                    push(
                        &mut means,
                        [
                            o.background_throughput,
                            o.avg_latency,
                            o.blocked_injections as f64 / o.delivered.max(1) as f64,
                        ],
                    );
                }
                Outcome {
                    digest: digest(&means.map(|m| m.mean())),
                    episodes: u64::from(*reps),
                    counts: vec![("cycles", cycles * u64::from(*reps))],
                }
            }
            Sim::LoadPoint { sim, reps } => {
                let mut means: [OnlineStats; 5] = Default::default();
                let (mut arrivals, mut completed) = (0u64, 0u64);
                for rep in 0..*reps {
                    let o = sim.run_with(derive_seed(seed, u64::from(rep)), kernel);
                    push(
                        &mut means,
                        [
                            o.arrivals as f64,
                            o.completed as f64,
                            o.sync_accesses as f64 / o.completed.max(1) as f64,
                            o.idle_fraction(),
                            o.avg_queue_depth,
                        ],
                    );
                    arrivals += o.arrivals;
                    completed += o.completed;
                }
                Outcome {
                    digest: digest(&means.map(|m| m.mean())),
                    episodes: u64::from(*reps),
                    counts: vec![("arrivals", arrivals), ("completed", completed)],
                }
            }
            Sim::Fairness { sim, reps } => {
                let mut per_tenant: Vec<[OnlineStats; 8]> = Vec::new();
                let (mut arrivals, mut completed) = (0u64, 0u64);
                for rep in 0..*reps {
                    let o = sim.run_with(derive_seed(seed, u64::from(rep)), kernel);
                    per_tenant.resize_with(o.tenants.len(), Default::default);
                    let total_service: u64 = o.tenants.iter().map(|t| t.service_cycles).sum();
                    for (means, t) in per_tenant.iter_mut().zip(&o.tenants) {
                        push(
                            means,
                            [
                                t.arrivals as f64,
                                t.completed as f64,
                                t.throughput_per_kilocycle,
                                t.avg_admission_wait,
                                t.p50_latency,
                                t.p95_latency,
                                t.p99_latency,
                                t.service_cycles as f64 / total_service.max(1) as f64,
                            ],
                        );
                    }
                    arrivals += o.arrivals;
                    completed += o.completed;
                }
                let values: Vec<f64> = per_tenant.iter().flatten().map(OnlineStats::mean).collect();
                Outcome {
                    digest: digest(&values),
                    episodes: u64::from(*reps),
                    counts: vec![("arrivals", arrivals), ("completed", completed)],
                }
            }
            Sim::Flat { sim, reps } => {
                let n = sim.config().n as f64;
                let mut means: [OnlineStats; 3] = Default::default();
                let mut accesses = 0u64;
                for i in 0..*reps {
                    let run = sim.run_with(derive_seed(seed, u64::from(i)), kernel);
                    push(
                        &mut means,
                        [
                            run.mean_accesses(),
                            run.total_accesses() as f64 - run.mean_var_accesses() * n,
                            run.completion() as f64,
                        ],
                    );
                    accesses += run.total_accesses();
                }
                Outcome {
                    digest: digest(&means.map(|m| m.mean())),
                    episodes: u64::from(*reps),
                    counts: vec![("accesses", accesses)],
                }
            }
            Sim::Combining { sim, reps } => {
                let mut means: [OnlineStats; 3] = Default::default();
                let mut accesses = 0u64;
                for i in 0..*reps {
                    let run = sim.run_with(derive_seed(seed, u64::from(i)), kernel);
                    push(
                        &mut means,
                        [
                            run.mean_accesses(),
                            run.max_module_accesses() as f64,
                            run.completion() as f64,
                        ],
                    );
                    accesses += run.accesses().iter().sum::<u64>();
                }
                Outcome {
                    digest: digest(&means.map(|m| m.mean())),
                    episodes: u64::from(*reps),
                    counts: vec![("accesses", accesses)],
                }
            }
            Sim::Resource { sim, reps } => {
                let mut means: [OnlineStats; 3] = Default::default();
                let mut accesses = 0u64;
                for i in 0..*reps {
                    let run = sim.run_with(derive_seed(seed, u64::from(i)), kernel);
                    push(
                        &mut means,
                        [
                            run.mean_accesses(),
                            run.mean_latency(),
                            run.makespan() as f64,
                        ],
                    );
                    accesses += run.accesses().iter().sum::<u64>();
                }
                Outcome {
                    digest: digest(&means.map(|m| m.mean())),
                    episodes: u64::from(*reps),
                    counts: vec![("accesses", accesses)],
                }
            }
        }
    }

    /// The scheduler alone (`Scheduler::run_counting`) for a trace-driven
    /// job, returning the references it issued. The traced pass times it
    /// next to the full run, so the memory system's own cost is the
    /// difference between the two.
    pub fn run_scheduler_only(&self) -> Option<u64> {
        match &self.sim {
            Sim::Directory { app, procs, .. } | Sim::Snoopy { app, procs } => {
                let (_, counts) = Scheduler::new(app.clone(), *procs, self.seed).run_counting();
                Some(counts.total())
            }
            _ => None,
        }
    }
}

/// Folds one sample of each metric into its running mean.
fn push<const K: usize>(means: &mut [OnlineStats; K], sample: [f64; K]) {
    for (m, x) in means.iter_mut().zip(sample) {
        m.push(x);
    }
}

/// Space-separated shortest round-trip renderings: equal digests mean
/// bit-equal values.
fn digest(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(f64::to_string).collect();
    parts.join(" ")
}

/// `BackoffPolicy::label()` without spaces, for job names.
fn tag(policy: BackoffPolicy) -> String {
    policy.label().replace(' ', "_")
}

/// Figures 4–10: `N = 2..max_n × A ∈ {0, 100, 1000} × 5 policies` per
/// seed stream (`seed`, then `derive_seed(seed, k)`), as
/// `barrier_figures(a)` sweeps it (fig4's points are its no-backoff
/// cells).
fn barrier_paper(seed: u64, scale: Scale) -> Vec<Job> {
    let mut jobs = Vec::new();
    for k in 0..scale.streams {
        let stream = if k == 0 { seed } else { derive_seed(seed, k) };
        for a in [0u64, 100, 1000] {
            for n in power_of_two_counts(scale.max_n) {
                for policy in BackoffPolicy::figure_policies() {
                    let sim = BarrierSim::new(BarrierConfig::new(n, a), policy);
                    jobs.push(Job::new(
                        format!("s{k}.a{a}.n{n}.{}", tag(policy)),
                        stream,
                        Sim::Barrier {
                            sim,
                            reps: scale.reps,
                        },
                    ));
                }
            }
        }
    }
    jobs
}

/// Megasweep repetitions: the full budget at the smallest `N`, scaled
/// down inversely with `n`, never below one (`scaled_reps`).
fn scaled_reps(base: u32, smallest: usize, n: usize) -> u32 {
    let scaled = ((u64::from(base) * smallest as u64) / n as u64).clamp(1, u64::from(base));
    u32::try_from(scaled).unwrap_or(base)
}

/// The megasweep flat grid without its `2048 × max_n` rows: `N ∈ {8, 128}
/// × max_n`, `A ∈ {0, 1000}`, no backoff and base-2/8 flag backoff.
///
/// The dropped rows are single episodes at N = 2²⁰ whose host time varies
/// with the seed by physics, not noise: 0.95–4.13 s for one point across
/// five seeds, 8.2–11.9 s for the six. Ten seeds then spread the pass
/// time by about 0.2, wider than any bound this benchmark could hold.
fn barrier_mega(seed: u64, scale: Scale) -> Vec<Job> {
    let grid = [8, 128].map(|m| m * scale.max_n);
    let policies = [
        BackoffPolicy::None,
        BackoffPolicy::exponential(2),
        BackoffPolicy::exponential(8),
    ];
    let mut jobs = Vec::new();
    for n in grid {
        for span in [0u64, 1_000] {
            for policy in policies {
                let reps = scaled_reps(scale.reps, grid[0], n);
                let sim = BarrierSim::new(BarrierConfig::new(n, span), policy);
                jobs.push(Job::new(
                    format!("n{n}.a{span}.{}", tag(policy)),
                    seed,
                    Sim::Barrier { sim, reps },
                ));
            }
        }
    }
    jobs
}

/// Tables 1 and 2 at `Dir₂ NB` and `Dir_N NB` (cached and uncached
/// synchronization), plus the `snoopy` bus run, per application.
fn coherence_apps(seed: u64, scale: Scale) -> Vec<Job> {
    let procs = scale.procs;
    let mut jobs = Vec::new();
    for app in abs_trace::apps::all() {
        let app = shrink(app, scale.ref_divisor);
        let name = app.name().to_lowercase();
        for (mode, mode_tag) in [
            (SyncCaching::Cached, "cached"),
            (SyncCaching::UncachedSync, "uncached_sync"),
        ] {
            for limit in [PointerLimit::Limited(2), PointerLimit::Full] {
                jobs.push(Job::new(
                    format!("{name}.{mode_tag}.dir{}", limit.label(procs)),
                    seed,
                    Sim::Directory {
                        app: app.clone(),
                        procs,
                        limit,
                        mode,
                    },
                ));
            }
        }
        jobs.push(Job::new(
            format!("{name}.snoopy"),
            seed,
            Sim::Snoopy { app, procs },
        ));
    }
    jobs
}

/// `app` with every reference count divided by `divisor` (at least one
/// reference each).
fn shrink(app: SpmdApp, divisor: u32) -> SpmdApp {
    if divisor == 1 {
        return app;
    }
    let cut = |refs: u32| (refs / divisor).max(1);
    let sections = app
        .sections()
        .iter()
        .map(|&section| match section {
            Section::Parallel {
                iterations,
                iter_refs,
                jitter,
            } => Section::Parallel {
                iterations,
                iter_refs: cut(iter_refs),
                jitter,
            },
            Section::Serial { refs } => Section::Serial { refs: cut(refs) },
            Section::Replicate { refs } => Section::Replicate { refs: cut(refs) },
        })
        .collect();
    SpmdApp::new(app.name(), sections)
}

/// The open-loop tenant population (`loadsweep`'s `population`).
fn population() -> Vec<Tenant> {
    (0..TENANTS)
        .map(|t| {
            let gap = 60.0 + 25.0 * t as f64;
            let arrival = match t % 3 {
                0 => Arrival::poisson(gap),
                1 => Arrival::bursty(6.0, gap / 8.0, 3.0 * gap),
                _ => Arrival::diurnal(4_096, vec![gap, gap / 2.0, 2.0 * gap]),
            };
            Tenant {
                weight: (TENANTS - t) as u64,
                arrival,
                op_mix: if t % 2 == 0 { OpMix::EVEN } else { OpMix::FAA },
                work: 3 + 2 * (t as u64 % 3),
            }
        })
        .collect()
}

/// Every tenant's arrival rate scaled by `permille / 1000`.
fn at_load(tenants: &[Tenant], permille: u32) -> Vec<Tenant> {
    tenants
        .iter()
        .map(|t| Tenant {
            arrival: t.arrival.scaled(f64::from(permille) / 1_000.0),
            ..t.clone()
        })
        .collect()
}

/// `netback`, `loadsweep`, `fairness`, `combining` and `resource`.
fn net_openloop(seed: u64, scale: Scale) -> Vec<Job> {
    let reps = scale.reps;
    let mut jobs = Vec::new();

    let cc = CircuitConfig {
        log2_size: 5,
        hold_cycles: 4,
        request_rate: 0.4,
        hot_fraction: 0.3,
        warmup_cycles: 500,
        measure_cycles: 5_000,
    };
    for policy in [
        NetworkBackoff::None,
        NetworkBackoff::DepthProportional { factor: 4 },
        NetworkBackoff::InverseDepth { factor: 4 },
        NetworkBackoff::ConstantRtt { rtt: 8 },
        NetworkBackoff::ExponentialRetries { base: 2, cap: 256 },
    ] {
        jobs.push(Job::new(
            format!("netback.circuit.{}", policy.label().replace(' ', "_")),
            seed,
            Sim::Circuit {
                sim: CircuitSim::new(cc, policy),
                reps,
                cycles: cc.warmup_cycles + cc.measure_cycles,
            },
        ));
    }
    let pc = PacketConfig {
        log2_size: 5,
        queue_capacity: 4,
        injection_rate: 0.9,
        hot_fraction: 0.5,
        warmup_cycles: 500,
        measure_cycles: 5_000,
        memory_service_cycles: 2,
        max_outstanding: 4,
    };
    for policy in [
        NetworkBackoff::None,
        NetworkBackoff::QueueFeedback { factor: 8 },
    ] {
        jobs.push(Job::new(
            format!("netback.packet.{}", policy.label().replace(' ', "_")),
            seed,
            Sim::Packet {
                sim: PacketSim::new(pc, policy),
                reps,
                cycles: pc.warmup_cycles + pc.measure_cycles,
            },
        ));
    }

    let tenants = population();
    for permille in [250u32, 500, 1_000, 2_000, 4_000] {
        for policy in BackoffPolicy::figure_policies() {
            let config = LoadConfig {
                procs: scale.procs,
                horizon: HORIZON,
                sched: SchedKind::default(),
                backoff: policy,
                ..LoadConfig::default()
            };
            jobs.push(Job::new(
                format!("loadsweep.l{permille}.{}", tag(policy)),
                seed,
                Sim::LoadPoint {
                    sim: OpenLoopSim::new(config, at_load(&tenants, permille)),
                    reps,
                },
            ));
        }
    }
    for sched in SchedKind::ALL {
        let config = LoadConfig {
            procs: (scale.procs / 4).max(2),
            horizon: HORIZON,
            sched,
            backoff: BackoffPolicy::None,
            ..LoadConfig::default()
        };
        jobs.push(Job::new(
            format!("fairness.{}", sched.name()),
            seed,
            Sim::Fairness {
                sim: OpenLoopSim::new(config, at_load(&tenants, 16_000)),
                reps,
            },
        ));
    }

    let n = 256usize.min(scale.max_n.max(16));
    let span = 100u64;
    jobs.push(Job::new(
        "combining.flat".to_string(),
        seed,
        Sim::Flat {
            sim: BarrierSim::new(BarrierConfig::new(n, span), BackoffPolicy::None),
            reps,
        },
    ));
    for degree in [2usize, 4, 8] {
        for policy in [
            BackoffPolicy::None,
            BackoffPolicy::exponential(2),
            BackoffPolicy::exponential_capped(2, 64),
        ] {
            let sim = CombiningTreeSim::new(CombiningConfig::new(n, span, degree), policy);
            jobs.push(Job::new(
                format!("combining.d{degree}.{}", tag(policy)),
                seed,
                Sim::Combining { sim, reps },
            ));
        }
    }

    let rc = ResourceConfig::new(16, 0, 20);
    for policy in [
        ResourcePolicy::None,
        ResourcePolicy::Exponential { base: 2, cap: 512 },
        ResourcePolicy::ProportionalWaiters { hold_estimate: 20 },
    ] {
        jobs.push(Job::new(
            format!("resource.{}", policy.label().replace(' ', "_")),
            seed,
            Sim::Resource {
                sim: ResourceSim::new(rc, policy),
                reps,
            },
        ));
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grids_have_the_issue_job_counts() {
        let counts: Vec<usize> = Workload::ALL
            .iter()
            .map(|w| w.jobs(PAPER_SEED, Scale::PAPER).len())
            .collect();
        assert_eq!(counts, [540, 12, 15, 48]);
    }

    #[test]
    fn job_names_are_unique_and_tab_free() {
        for w in Workload::ALL {
            let jobs = w.jobs(PAPER_SEED, Scale::PAPER);
            let mut names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
            assert!(names.iter().all(|n| !n.contains(['\t', ' '])), "{names:?}");
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), jobs.len(), "{}", w.name());
        }
    }

    #[test]
    fn megasweep_reps_and_oracle_points() {
        let jobs = Workload::BarrierMega.jobs(PAPER_SEED, Scale::PAPER);
        let reps: Vec<u32> = jobs
            .iter()
            .map(|j| match j.sim {
                Sim::Barrier { reps, .. } => reps,
                _ => 0,
            })
            .collect();
        assert_eq!(reps[..6], [100; 6]);
        assert_eq!(reps[6..], [6; 6]);
        let oracle = Workload::BarrierMega.oracle_jobs(&jobs);
        assert_eq!(oracle.len(), 6);
        assert!(oracle.iter().all(|j| j.barrier_n() == Some(4096)));
        assert!(oracle
            .iter()
            .all(|j| matches!(j.sim, Sim::Barrier { reps: 1, .. })));
    }

    #[test]
    fn oracle_strides_through_paper_and_network_grids() {
        let paper = Workload::BarrierPaper.jobs(PAPER_SEED, Scale::PAPER);
        assert_eq!(Workload::BarrierPaper.oracle_jobs(&paper).len(), 34);
        let net = Workload::NetOpenloop.jobs(PAPER_SEED, Scale::PAPER);
        assert_eq!(Workload::NetOpenloop.oracle_jobs(&net).len(), 3);
        let coh = Workload::CoherenceApps.jobs(PAPER_SEED, Scale::PAPER);
        assert!(Workload::CoherenceApps.oracle_jobs(&coh).is_empty());
    }

    #[test]
    fn the_seed_changes_every_barrier_stream() {
        let a = Workload::BarrierPaper.jobs(1, Scale::PAPER);
        let b = Workload::BarrierPaper.jobs(2, Scale::PAPER);
        assert!(a.iter().zip(&b).all(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn kernels_agree_on_smoke_jobs() {
        for w in Workload::ALL {
            let jobs = w.jobs(7, Scale::SMOKE);
            for job in w.oracle_jobs(&jobs) {
                assert_eq!(
                    job.run(Kernel::Event),
                    job.run(Kernel::Cycle),
                    "{}",
                    job.name
                );
            }
        }
    }
}
