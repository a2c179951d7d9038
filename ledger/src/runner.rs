//! One run of one workload: set-up, warm-up, timed passes, correctness
//! checks and, in traced mode, one traced pass plus the layer probes.
//!
//! Jobs go through an `abs_exec::Engine` with one worker: a closed loop
//! with a single client, so the process never has more than two threads.
//! Every call is timed from the benchmark's side of the public API.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use abs_exec::json::Value;
use abs_exec::{Engine, ExecConfig, JobSet};
use abs_sim::Kernel;

use crate::golden;
use crate::probes;
use crate::spans::{self, Span, MAIN_LANE, WORKER_LANE};
use crate::stats::{self, TAIL_BEYOND};
use crate::workload::{Job, Outcome, Scale, Workload};

/// Engine workers: one client, one job in flight.
const WORKERS: usize = 1;

/// A set-up batch repeats the set-up at least this often, and for at
/// least [`SETUP_MIN_SECONDS`], and keeps the median: a set-up takes
/// microseconds, so one sample alone would be mostly timer noise.
const SETUP_MIN_REPEATS: usize = 15;
const SETUP_MIN_SECONDS: f64 = 0.02;

/// Timed passes per run at least, so every job's best time is taken
/// from five or more runs of it.
const MIN_TIMED_PASSES: usize = 5;

/// Failure descriptions kept for the report.
const MAX_FAILURE_LINES: usize = 20;

/// Where traced runs write their artifacts, relative to the working
/// directory.
const OUT_DIR: &str = "repro_out";

/// Span ids of the traced pass: the workload, its pass, then four ids
/// reserved per job (the job, its scheduler-only call, its layer call).
const WORKLOAD_SPAN: u64 = 1;
const PASS_SPAN: u64 = 2;
const FIRST_JOB_SPAN: u64 = 4;

/// The layer name of the scheduler-only calls of trace-driven jobs.
const SCHEDULER_LAYER: &str = "trace.scheduler";

/// The end-to-end metrics, `(name, unit)`, in report order.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every job list is generated from.
    pub seed: u64,
    /// Timed passes continue until this many seconds have been measured.
    pub seconds: f64,
    /// Add a traced pass and the layer probes, and report per-layer
    /// metrics instead of end-to-end ones.
    pub trace: bool,
    /// Grid size.
    pub scale: Scale,
}

/// A finished run: human-readable lines and the result object.
#[derive(Debug)]
pub struct Report {
    /// Lines to print before the result.
    pub lines: Vec<String>,
    /// `{"correct", "attempted", "failed", "metrics"}`.
    pub result: Value,
    /// Whether every job and check passed.
    pub correct: bool,
}

/// One job's result within a pass.
struct Timed {
    result: Result<Outcome, String>,
    /// The layer call(s), timed inside the job.
    wall: Duration,
    /// Engine start to this job being dequeued.
    queue_wait: Duration,
}

/// One pass over a job list.
struct Pass {
    started: Instant,
    /// JobSet construction plus `Engine::run`.
    wall: Duration,
    jobs: Vec<Timed>,
}

/// Jobs and checks attempted and failed.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURE_LINES {
                self.failures.push(what());
            }
        }
    }

    /// Counts every job of `pass` as attempted, and a panic as failed.
    fn jobs(&mut self, pass: &Pass, jobs: &[Job]) {
        for (timed, job) in pass.jobs.iter().zip(jobs) {
            let err = timed.result.as_ref().err();
            self.record(err.is_none(), || {
                format!(
                    "job {} panicked: {}",
                    job.name,
                    err.map_or("", String::as_str)
                )
            });
        }
    }

    /// Checks that `pass` reproduced the `reference` digests. A job that
    /// panicked on either side was already counted as failed.
    fn agree(&mut self, pass: &Pass, reference: &[Option<String>], jobs: &[Job], what: &str) {
        for ((got, expect), job) in digests(pass).iter().zip(reference).zip(jobs) {
            if let (Some(got), Some(expect)) = (got, expect) {
                self.record(got == expect, || {
                    format!("{what}: {} gave {got:?}, expected {expect:?}", job.name)
                });
            }
        }
    }
}

/// Each job's digest, `None` where it panicked.
fn digests(pass: &Pass) -> Vec<Option<String>> {
    pass.jobs
        .iter()
        .map(|t| t.result.as_ref().ok().map(|o| o.digest.clone()))
        .collect()
}

/// Runs one workload.
pub fn run(opts: &Options) -> Result<Report, String> {
    let Options {
        workload,
        seed,
        seconds,
        trace,
        scale,
    } = *opts;
    let mut tally = Tally::default();
    let mut lines = Vec::new();

    // Set-up batches run before the warm-up and after every timed pass:
    // a slow stretch of the host spoils some batches, not `setup_s`.
    let (first_setup, jobs) = setup_batch(workload, seed, scale);
    let mut setups = vec![first_setup];
    let engine = Engine::new(ExecConfig::new(WORKERS));

    let warm: Vec<Job> = jobs.iter().filter_map(Job::warm_up).collect();
    tally.jobs(&run_pass(&engine, &warm, Kernel::Event, None).0, &warm);

    let clock = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_TIMED_PASSES || clock.elapsed().as_secs_f64() < seconds {
        let (pass, _) = run_pass(&engine, &jobs, Kernel::Event, None);
        tally.jobs(&pass, &jobs);
        passes.push(pass);
        setups.push(setup_batch(workload, seed, scale).0);
    }
    let measured = clock.elapsed();

    let reference = digests(&passes[0]);
    for pass in &passes[1..] {
        tally.agree(pass, &reference, &jobs, "pass disagreement");
    }
    lines.push(golden_check(
        &mut tally, workload, seed, scale, &jobs, &reference,
    ));
    lines.push(oracle_check(&mut tally, &engine, workload, &jobs));

    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let metrics = if trace {
        let median_wall = stats::median(&walls).unwrap_or(f64::NAN);
        let traced = traced_run(&mut tally, &engine, opts, &jobs, &reference, median_wall)?;
        lines.extend(traced.lines);
        traced.metrics
    } else {
        let costs = job_costs(&passes);
        let wall_s = costs.iter().sum::<f64>() + min_overhead(&passes);
        // Every job counts MIN_TIMED_PASSES times, at its best time: the
        // tail's rank then does not move with the number of passes a run
        // happened to fit, so it is always the same job's cost.
        let latencies: Vec<f64> = (0..MIN_TIMED_PASSES)
            .flat_map(|_| costs.iter().map(|s| s * 1e3))
            .collect();
        let wall_q = stats::quartiles(&walls).unwrap_or([f64::NAN; 3]);
        let tail = stats::tail(&latencies, TAIL_BEYOND).ok_or("no job latencies")?;
        let p50 = stats::median(&latencies).unwrap_or(f64::NAN);
        let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);
        let rss = peak_rss_mb()?;
        lines.push(format!(
            "  passes        warm-up of {} jobs at one rep, then {} timed in {:.1} s, {} jobs per pass",
            warm.len(),
            passes.len(),
            measured.as_secs_f64(),
            jobs.len()
        ));
        lines.push(format!(
            "  wall_s        {wall_s:.4} s  (raw pass walls: median {:.4}, q1 {:.4}, q3 {:.4}, n = {})",
            wall_q[1],
            wall_q[0],
            wall_q[2],
            walls.len()
        ));
        lines.push(format!(
            "  job_p50_ms    {p50:.4} ms  (n = {} jobs)",
            latencies.len()
        ));
        lines.push(format!(
            "  job_tail_ms   {:.4} ms  (p{:.1} of n = {}, {} beyond)",
            tail.value, tail.percentile, tail.n, TAIL_BEYOND
        ));
        let beyond: Vec<&str> = jobs
            .iter()
            .zip(&costs)
            .filter(|(_, &s)| s * 1e3 > tail.value)
            .map(|(j, _)| j.name.as_str())
            .collect();
        lines.push(format!("  beyond tail   {}", beyond.join(" ")));
        lines.push(format!(
            "  setup_s       {setup_s:.6} s  (fastest of {} batch medians)",
            setups.len()
        ));
        lines.push(format!("  peak_rss_mb   {rss:.1} MB  (VmHWM)"));
        let values = [wall_s, p50, tail.value, setup_s, rss];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect()
    };

    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    lines.push(format!(
        "  failed_frac   {failed_frac}  ({} failed of {} jobs and checks)",
        tally.failed, tally.attempted
    ));
    lines.extend(tally.failures.iter().map(|f| format!("  FAILED {f}")));
    let mut header = vec![format!(
        "abs-ledger {}  seed {seed}  {}  engine {WORKERS} worker  host parallelism {}",
        workload.name(),
        if scale == Scale::PAPER {
            "paper scale"
        } else {
            "smoke scale"
        },
        abs_exec::available_parallelism()
    )];
    header.append(&mut lines);

    let correct = tally.failed == 0;
    let metric_values = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            let entry = Value::Obj(vec![
                ("value".to_string(), Value::Num(value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ]);
            (name, entry)
        })
        .collect();
    let result = Value::Obj(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Num(tally.attempted as f64)),
        ("failed".to_string(), Value::Num(tally.failed as f64)),
        ("metrics".to_string(), Value::Obj(metric_values)),
    ]);
    Ok(Report {
        lines: header,
        result,
        correct,
    })
}

/// One set-up batch: the job list and the engine, built repeatedly;
/// the median time and the job list.
fn setup_batch(workload: Workload, seed: u64, scale: Scale) -> (f64, Vec<Job>) {
    let mut samples = Vec::new();
    let mut jobs = Vec::new();
    while samples.len() < SETUP_MIN_REPEATS || samples.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        let t = Instant::now();
        jobs = black_box(workload.jobs(seed, scale));
        black_box(Engine::new(ExecConfig::new(WORKERS)));
        samples.push(t.elapsed().as_secs_f64());
    }
    (stats::median(&samples).unwrap_or(f64::NAN), jobs)
}

/// Each job's cost in seconds: its fastest time over the timed passes.
/// Host noise only ever adds time, and on a shared host it comes in slow
/// stretches of seconds, so the fastest of several runs of a job is far
/// steadier from run to run than their median.
fn job_costs(passes: &[Pass]) -> Vec<f64> {
    let jobs = passes.first().map_or(0, |p| p.jobs.len());
    (0..jobs)
        .map(|j| {
            passes
                .iter()
                .map(|p| p.jobs[j].wall.as_secs_f64())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// The smallest dispatch overhead of a pass: its wall (job-set build and
/// `Engine::run`) minus the time inside its jobs.
fn min_overhead(passes: &[Pass]) -> f64 {
    passes
        .iter()
        .map(|p| p.wall.as_secs_f64() - p.jobs.iter().map(|t| t.wall.as_secs_f64()).sum::<f64>())
        .fold(f64::INFINITY, f64::min)
}

/// Runs `jobs` through the engine once. With an `epoch`, each job also
/// records its spans (the job, and its layer calls) relative to it.
fn run_pass(
    engine: &Engine,
    jobs: &[Job],
    kernel: Kernel,
    epoch: Option<Instant>,
) -> (Pass, Vec<Span>) {
    let started = Instant::now();
    let mut set = JobSet::new(0);
    for (i, job) in jobs.iter().enumerate() {
        set.push_seeded(job.name.clone(), job.seed, move |_| match epoch {
            None => {
                let t = Instant::now();
                let outcome = job.run(kernel);
                (outcome, t.elapsed(), Vec::new())
            }
            Some(epoch) => traced_job(job, i, kernel, epoch),
        });
    }
    let report = engine.run(set);
    let wall = started.elapsed();
    let mut spans = Vec::new();
    let jobs = report
        .outcomes
        .into_iter()
        .map(|o| match o.result {
            Ok((outcome, wall, job_spans)) => {
                spans.extend(job_spans);
                Timed {
                    result: Ok(outcome),
                    wall,
                    queue_wait: o.stats.queue_wait,
                }
            }
            Err(failure) => Timed {
                result: Err(failure.message),
                wall: o.stats.wall,
                queue_wait: o.stats.queue_wait,
            },
        })
        .collect();
    (
        Pass {
            started,
            wall,
            jobs,
        },
        spans,
    )
}

/// One job with spans: the scheduler-only call of a trace-driven job,
/// then the layer call, inside the job span.
fn traced_job(
    job: &Job,
    index: usize,
    kernel: Kernel,
    epoch: Instant,
) -> (Outcome, Duration, Vec<Span>) {
    let id = FIRST_JOB_SPAN + 4 * index as u64;
    let call = |call_id, name, start, end, count| Span {
        id: call_id,
        parent: Some(id),
        name,
        lane: WORKER_LANE,
        start_ns: spans::ns_since(epoch, start),
        end_ns: spans::ns_since(epoch, end),
        count,
    };
    let begin = Instant::now();
    let mut out = Vec::with_capacity(3);
    if let Some(refs) = job.run_scheduler_only() {
        out.push(call(id + 1, SCHEDULER_LAYER, begin, Instant::now(), refs));
    }
    let t = Instant::now();
    let outcome = job.run(kernel);
    let done = Instant::now();
    let count = outcome.counts.first().map_or(0, |c| c.1);
    out.push(call(id + 2, job.layer(), t, done, count));
    out.push(Span {
        id,
        parent: Some(PASS_SPAN),
        name: "job",
        lane: WORKER_LANE,
        start_ns: spans::ns_since(epoch, begin),
        end_ns: spans::ns_since(epoch, done),
        count: 0,
    });
    (outcome, done - begin, out)
}

/// Compares the first timed pass with the committed goldens, when this
/// seed has them; otherwise agreement between passes is the only check.
fn golden_check(
    tally: &mut Tally,
    workload: Workload,
    seed: u64,
    scale: Scale,
    jobs: &[Job],
    digests: &[Option<String>],
) -> String {
    let golden = if scale == Scale::PAPER {
        golden::lookup(workload, seed)
    } else {
        None
    };
    let Some(golden) = golden else {
        return "  goldens       none for this seed and scale: passes checked against each other"
            .to_string();
    };
    if golden.len() != jobs.len() {
        tally.record(false, || {
            format!(
                "golden file has {} lines for {} jobs",
                golden.len(),
                jobs.len()
            )
        });
    }
    let mut matched = 0;
    for ((job, digest), (name, expect)) in jobs.iter().zip(digests).zip(&golden) {
        let ok = job.name == *name && digest.as_deref() == Some(*expect);
        matched += usize::from(ok);
        tally.record(ok, || {
            format!(
                "golden: {} gave {digest:?}, golden {name} {expect:?}",
                job.name
            )
        });
    }
    format!(
        "  goldens       {matched} of {} jobs match {}",
        jobs.len(),
        golden::file_name(workload, seed)
    )
}

/// Reruns the workload's oracle jobs on both kernels through the engine
/// and checks that they agree.
fn oracle_check(tally: &mut Tally, engine: &Engine, workload: Workload, jobs: &[Job]) -> String {
    let oracle = workload.oracle_jobs(jobs);
    if oracle.is_empty() {
        return "  oracle        none: the coherence simulators have one kernel".to_string();
    }
    let (event, _) = run_pass(engine, &oracle, Kernel::Event, None);
    let (cycle, _) = run_pass(engine, &oracle, Kernel::Cycle, None);
    tally.jobs(&event, &oracle);
    tally.jobs(&cycle, &oracle);
    let before = tally.failed;
    tally.agree(&cycle, &digests(&event), &oracle, "cycle oracle");
    format!(
        "  oracle        {} jobs rerun on the cycle kernel, {} disagree ({:.2} s)",
        oracle.len(),
        tally.failed - before,
        cycle.wall.as_secs_f64()
    )
}

/// Per-layer results of the traced pass.
struct Traced {
    lines: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

/// Self time and work of one layer in the traced pass.
#[derive(Debug, Default)]
struct Layer {
    calls: u64,
    self_ns: u64,
    /// The layer's own unit of work (its calls' first counter).
    unit: Option<&'static str>,
    counts: BTreeMap<&'static str, u64>,
}

impl Layer {
    fn add(&mut self, self_ns: u64, counts: &[(&'static str, u64)]) {
        self.calls += 1;
        self.self_ns += self_ns;
        self.unit = self.unit.or(counts.first().map(|c| c.0));
        for (unit, n) in counts {
            *self.counts.entry(unit).or_default() += n;
        }
    }

    fn count(&self, unit: &str) -> u64 {
        self.counts.get(unit).copied().unwrap_or(0)
    }

    /// `<layer>.self_s`, `.calls`, `.<unit>`, `.ns_per_<unit>` and
    /// `.share` of `workload_ns`, plus the ratios of the network and load
    /// layers.
    fn metrics(&self, name: &str, workload_ns: u64) -> Vec<(String, f64)> {
        let mut out = vec![
            (format!("{name}.self_s"), self.self_ns as f64 / 1e9),
            (format!("{name}.calls"), self.calls as f64),
        ];
        if let Some(unit) = self.unit {
            let n = self.count(unit);
            out.push((format!("{name}.{unit}"), n as f64));
            out.push((
                format!("{name}.ns_per_{}", singular(unit)),
                self.self_ns as f64 / n.max(1) as f64,
            ));
        }
        let ratio = |num: &str, den: &str| self.count(num) as f64 / self.count(den).max(1) as f64;
        match name {
            "net.circuit" => out.push((
                "net.circuit.attempts_per_req".into(),
                ratio("attempts", "completed"),
            )),
            "load.engine" => out.push((
                "load.engine.completed_frac".into(),
                ratio("completed", "arrivals"),
            )),
            _ => {}
        }
        out.push((
            format!("{name}.share"),
            self.self_ns as f64 / workload_ns.max(1) as f64,
        ));
        out
    }
}

/// The traced pass: spans around every layer call, the Chrome trace and
/// layer table written to `repro_out/`, and the layer probes.
fn traced_run(
    tally: &mut Tally,
    engine: &Engine,
    opts: &Options,
    jobs: &[Job],
    reference: &[Option<String>],
    untraced_wall: f64,
) -> Result<Traced, String> {
    let epoch = Instant::now();
    let (pass, mut spans) = run_pass(engine, jobs, Kernel::Event, Some(epoch));
    let end = Instant::now();
    tally.jobs(&pass, jobs);
    tally.agree(&pass, reference, jobs, "traced pass disagreement");
    spans.push(Span {
        id: PASS_SPAN,
        parent: Some(WORKLOAD_SPAN),
        name: "pass",
        lane: MAIN_LANE,
        start_ns: spans::ns_since(epoch, pass.started),
        end_ns: spans::ns_since(epoch, pass.started + pass.wall),
        count: jobs.len() as u64,
    });
    spans.push(Span {
        id: WORKLOAD_SPAN,
        parent: None,
        name: "workload",
        lane: MAIN_LANE,
        start_ns: 0,
        end_ns: spans::ns_since(epoch, end),
        count: 0,
    });
    let own = spans::self_times(&spans);
    let workload_ns = spans.last().map_or(0, Span::duration_ns);

    // Self time per span name; these telescope to the workload span.
    let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (span, ns) in spans.iter().zip(&own) {
        let e = by_name.entry(span.name).or_default();
        e.0 += 1;
        e.1 += ns;
    }
    let self_sum: u64 = own.iter().sum();
    let self_sum_frac = self_sum as f64 / workload_ns.max(1) as f64;
    tally.record((self_sum_frac - 1.0).abs() <= 0.02, || {
        format!("span self times sum to {self_sum_frac} of the workload span")
    });

    // Layers: a trace-driven job's memory-system call contains a full
    // scheduler run, so that layer's self time is the difference between
    // the call and the scheduler-only call beside it.
    let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
    let index: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut job_ns = 0u64;
    let duration = |id: u64| index.get(&id).map_or(0, |s| s.duration_ns());
    for (i, (job, timed)) in jobs.iter().zip(&pass.jobs).enumerate() {
        let id = FIRST_JOB_SPAN + 4 * i as u64;
        job_ns += duration(id);
        let sched_ns = duration(id + 1);
        if let Some(s) = index.get(&(id + 1)) {
            layers
                .entry(SCHEDULER_LAYER)
                .or_default()
                .add(sched_ns, &[("refs", s.count)]);
        }
        let counts = timed.result.as_ref().map_or(&[][..], |o| &o.counts);
        layers
            .entry(job.layer())
            .or_default()
            .add(duration(id + 2).saturating_sub(sched_ns), counts);
    }

    let chrome = spans::chrome(&spans, &format!("abs-ledger {}", opts.workload.name()));
    let valid = abs_obs::chrome::validate(&chrome.to_value());
    tally.record(valid.is_ok(), || format!("chrome trace invalid: {valid:?}"));

    let episodes: u64 = pass
        .jobs
        .iter()
        .filter_map(|t| t.result.as_ref().ok())
        .map(|o| o.episodes)
        .sum();
    let sim_ns: u64 = layers.values().map(|l| l.self_ns).sum();
    let queue: Vec<f64> = pass
        .jobs
        .iter()
        .map(|t| t.queue_wait.as_secs_f64() * 1e6)
        .collect();
    let pass_ns = pass.wall.as_nanos() as f64;
    let traced_wall = pass.wall.as_secs_f64();

    let mut metrics: Vec<(String, f64, &'static str)> = vec![
        ("exec.jobs".into(), jobs.len() as f64, "count"),
        (
            "exec.queue_wait_p50_us".into(),
            stats::median(&queue).unwrap_or(f64::NAN),
            "us",
        ),
        (
            "exec.overhead_frac".into(),
            (pass_ns - job_ns as f64) / pass_ns,
            "frac",
        ),
        ("sim.episodes".into(), episodes as f64, "count"),
        ("sim.self_s".into(), sim_ns as f64 / 1e9, "s"),
        (
            "sim.self_us_per_episode".into(),
            sim_ns as f64 / 1e3 / episodes.max(1) as f64,
            "us",
        ),
        (
            "ledger.trace_overhead_frac".into(),
            traced_wall / untraced_wall - 1.0,
            "frac",
        ),
    ];
    let probe_clock = Instant::now();
    metrics.extend(probes::run_all(opts.seed).into_iter().map(|(name, value)| {
        let unit = if name.ends_with("_frac") {
            "frac"
        } else {
            "ns"
        };
        (name, value, unit)
    }));
    let probe_s = probe_clock.elapsed().as_secs_f64();

    // Layer metrics named after the layers; they exist only on the
    // workloads that call those layers, so they are reported here and in
    // the layer file, not in the result object.
    let layer_metrics: Vec<(String, f64)> = layers
        .iter()
        .flat_map(|(name, layer)| layer.metrics(name, workload_ns))
        .collect();

    let mut lines = vec![format!(
        "  traced pass   {traced_wall:.4} s vs untraced pass median {untraced_wall:.4} s; self times sum to {:.4} of the workload span; probes {probe_s:.2} s",
        self_sum_frac
    )];
    for (name, (count, ns)) in &by_name {
        lines.push(format!(
            "  span {name:<22} {count:>6} spans  self {:.6} s",
            *ns as f64 / 1e9
        ));
    }
    for (name, value) in &layer_metrics {
        lines.push(format!("  {name:<44} {value}"));
    }
    for (name, value, unit) in &metrics {
        lines.push(format!("  {name:<44} {value} {unit}"));
    }

    let num = |v: f64| Value::Num(v);
    let layer_doc = Value::Obj(vec![
        ("workload".into(), Value::Str(opts.workload.name().into())),
        ("seed".into(), Value::Str(opts.seed.to_string())),
        ("workload_span_s".into(), num(workload_ns as f64 / 1e9)),
        ("self_sum_frac".into(), num(self_sum_frac)),
        (
            "spans".into(),
            Value::Obj(
                by_name
                    .iter()
                    .map(|(name, (count, ns))| {
                        let row = Value::Obj(vec![
                            ("count".into(), num(*count as f64)),
                            ("self_s".into(), num(*ns as f64 / 1e9)),
                        ]);
                        (name.to_string(), row)
                    })
                    .collect(),
            ),
        ),
        (
            "layers".into(),
            Value::Obj(
                layer_metrics
                    .iter()
                    .map(|(n, v)| (n.clone(), num(*v)))
                    .collect(),
            ),
        ),
        (
            "metrics".into(),
            Value::Obj(
                metrics
                    .iter()
                    .map(|(n, v, _)| (n.clone(), num(*v)))
                    .collect(),
            ),
        ),
    ]);
    write_artifact(
        &format!("ledger_trace_{}.json", opts.workload.name()),
        &chrome.render(),
    )?;
    write_artifact(
        &format!("bench_ledger_layers_{}.json", opts.workload.name()),
        &layer_doc.render_pretty(),
    )?;
    lines.push(format!(
        "  wrote {OUT_DIR}/ledger_trace_{0}.json and {OUT_DIR}/bench_ledger_layers_{0}.json",
        opts.workload.name()
    ));
    Ok(Traced { lines, metrics })
}

/// `accesses` → `access`, `refs` → `ref`.
fn singular(unit: &str) -> &str {
    unit.strip_suffix("es")
        .filter(|u| u.ends_with("ss"))
        .or_else(|| unit.strip_suffix('s'))
        .unwrap_or(unit)
}

fn write_artifact(name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{name}");
    std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// This process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Runs one pass per workload at each golden seed and renders the golden
/// files, `(file name, contents)`.
pub fn goldens() -> Vec<(String, String)> {
    let engine = Engine::new(ExecConfig::new(WORKERS));
    let mut files = Vec::new();
    for workload in Workload::ALL {
        for seed in golden::SEEDS {
            let jobs = workload.jobs(seed, Scale::PAPER);
            let (pass, _) = run_pass(&engine, &jobs, Kernel::Event, None);
            let lines = jobs.iter().zip(&pass.jobs).map(|(job, timed)| {
                let digest = match &timed.result {
                    Ok(o) => o.digest.as_str(),
                    Err(_) => "panicked",
                };
                (job.name.as_str(), digest)
            });
            files.push((golden::file_name(workload, seed), golden::render(lines)));
        }
    }
    files
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singular_units() {
        assert_eq!(singular("accesses"), "access");
        assert_eq!(singular("refs"), "ref");
        assert_eq!(singular("cycles"), "cycle");
        assert_eq!(singular("arrivals"), "arrival");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
