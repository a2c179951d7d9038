//! The worker pool: fixed-size, panic-isolating, id-order committing.
//!
//! [`Engine::run`] spawns `workers` scoped threads over a **chunked
//! work-stealing** injector: the job-id range is cut into contiguous chunks
//! dealt to per-worker deques; an owner pops chunks from the front of its
//! own deque, and a worker that runs dry steals the back half of a victim's
//! deque. Because all chunks exist up front (jobs never spawn jobs), a
//! worker may exit once its own deque is empty and a full victim scan finds
//! nothing — no condvar, no spinning.
//!
//! Each worker executes its jobs under [`std::panic::catch_unwind`] and
//! accumulates `(id, outcome)` pairs *locally*; outcomes
//! are merged into id-indexed slots only after every worker has joined, so
//! the result path takes no locks at all. Because every job's seed is
//! fixed at push time and outcomes are committed by id, the returned
//! [`RunReport`] is bit-for-bit identical at any worker count — only the
//! timing counters differ.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::job::{JobFailure, JobOutcome, JobSet, JobStats};

/// Sizing of an [`Engine`]'s pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Number of worker threads (at least 1; clamped to the job count at
    /// run time).
    pub workers: usize,
}

impl ExecConfig {
    /// A pool of `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "at least one worker is required");
        Self { workers }
    }

    /// One worker per available hardware thread (fallback: 1).
    pub fn host_parallelism() -> Self {
        Self::new(available_parallelism())
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self::host_parallelism()
    }
}

/// The number of hardware threads the host reports (fallback: 1).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A deterministic parallel executor for [`JobSet`]s.
///
/// # Examples
///
/// ```
/// use abs_exec::{Engine, ExecConfig, JobSet};
///
/// let mut set = JobSet::new(99);
/// for i in 0..16 {
///     set.push(format!("square{i}"), move |_seed| i * i);
/// }
/// let report = Engine::new(ExecConfig::new(4)).run(set);
/// assert!(report.is_success());
/// let values = report.into_values().unwrap();
/// assert_eq!(values[5], 25); // id order, not completion order
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    config: ExecConfig,
}

impl Engine {
    /// An engine with the given pool configuration.
    pub fn new(config: ExecConfig) -> Self {
        Self { config }
    }

    /// A one-worker engine (the sequential reference executor).
    pub fn single_threaded() -> Self {
        Self::new(ExecConfig::new(1))
    }

    /// The pool configuration.
    pub fn config(&self) -> ExecConfig {
        self.config
    }

    /// Executes every job in `set` and returns the outcomes in job-id
    /// order.
    ///
    /// A panicking job is reported as a [`JobFailure`] in its slot; the
    /// other jobs' results are unaffected. Jobs are seeded and
    /// deterministic, so a panic is not retried: it would recur. The call
    /// itself never panics because of a job panic.
    pub fn run<T: Send>(&self, set: JobSet<'_, T>) -> RunReport<T> {
        let jobs = set.into_jobs();
        let n = jobs.len();
        let workers = self.config.workers.min(n).max(1);
        let start = Instant::now();

        let injector = Injector::new(n, workers);

        let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(workers);
        let mut slots: Vec<Option<(Result<T, JobFailure>, JobStats)>> =
            (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let jobs = &jobs;
                    let injector = &injector;
                    s.spawn(move || {
                        let mut busy = Duration::ZERO;
                        let mut done: Vec<(usize, Result<T, JobFailure>, JobStats)> = Vec::new();
                        while let Some(chunk) = injector.next_chunk(worker) {
                            for idx in chunk {
                                let queue_wait = start.elapsed();
                                let exec_start = Instant::now();
                                let result = catch_unwind(AssertUnwindSafe(|| jobs[idx].execute()))
                                    .map_err(|payload| JobFailure {
                                        message: panic_message(payload.as_ref()),
                                    });
                                let wall = exec_start.elapsed();
                                busy += wall;
                                let stats = JobStats {
                                    queue_wait,
                                    wall,
                                    worker,
                                };
                                done.push((idx, result, stats));
                            }
                        }
                        let stats = WorkerStats {
                            worker,
                            jobs: done.len(),
                            busy,
                        };
                        (stats, done)
                    })
                })
                .collect();
            for handle in handles {
                let (stats, done) = handle.join().expect("worker threads do not panic"); // abs-lint: allow(panic-path) -- workers catch job panics; a panic here is an engine bug
                worker_stats.push(stats);
                // Lock-free commit: each id was dispatched to exactly one
                // worker, so every slot is written exactly once.
                for (idx, result, job_stats) in done {
                    slots[idx] = Some((result, job_stats));
                }
            }
        });

        let elapsed = start.elapsed();
        let outcomes = jobs
            .iter()
            .zip(slots)
            .map(|(job, slot)| {
                let (result, stats) = slot.expect("every job slot is filled"); // abs-lint: allow(panic-path) -- the injector hands out each index exactly once, so every slot was filled
                JobOutcome {
                    id: job.id(),
                    name: job.name().to_string(),
                    seed: job.seed(),
                    result,
                    stats,
                }
            })
            .collect();
        RunReport {
            outcomes,
            workers: worker_stats,
            elapsed,
        }
    }
}

/// The injector feeding workers ranges of job ids.
///
/// It hands out every id in `[0, n)` exactly once. Contiguous chunks
/// (several per worker, so late stragglers still find work to steal) are
/// dealt into per-worker deques: an owner pops from the front of its own
/// deque — preserving ascending id order locally, which keeps cache
/// behaviour and manifest ordering friendly — and a thief takes the *back
/// half* of the first non-empty victim, moving the largest outstanding
/// ranges away from the owner's hot front. Contention is one uncontended
/// deque lock per *chunk*, not per job.
#[derive(Debug)]
struct Injector {
    deques: Vec<Mutex<VecDeque<Range<usize>>>>,
}

impl Injector {
    /// Chunks per worker: enough granularity for late stragglers to steal,
    /// coarse enough that lock traffic stays at ~`CHUNKS_PER_WORKER ×
    /// workers` acquisitions per run.
    const CHUNKS_PER_WORKER: usize = 8;

    fn new(n: usize, workers: usize) -> Self {
        let chunk = n.div_ceil(workers * Self::CHUNKS_PER_WORKER).max(1);
        let chunks: Vec<Range<usize>> = (0..n.div_ceil(chunk))
            .map(|i| i * chunk..((i + 1) * chunk).min(n))
            .collect();
        // Deal contiguous runs of chunks per worker, so worker 0 starts at
        // id 0.
        let per = chunks.len().div_ceil(workers).max(1);
        let mut deques: Vec<Mutex<VecDeque<Range<usize>>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (w, run) in chunks.chunks(per).enumerate() {
            *deques[w].get_mut().expect("freshly built mutex") = // abs-lint: allow(panic-path) -- no thread has touched the mutex yet
                run.iter().cloned().collect();
        }
        Injector { deques }
    }

    /// The next range of job ids for `worker`, or `None` when the run is
    /// drained (own deque empty and nothing stealable anywhere).
    fn next_chunk(&self, worker: usize) -> Option<Range<usize>> {
        let deques = &self.deques;
        if let Some(chunk) = deques[worker]
            .lock()
            .unwrap() // abs-lint: allow(panic-path) -- poisoning implies a worker panicked, which join() already surfaces
            .pop_front()
        {
            return Some(chunk);
        }
        // Own deque dry: steal the back half of the first victim with
        // queued chunks. Chunks only ever leave deques, so one full failed
        // scan means the run is drained.
        let workers = deques.len();
        for offset in 1..workers {
            let victim = (worker + offset) % workers;
            let mut stolen = {
                let mut q = deques[victim].lock().unwrap(); // abs-lint: allow(panic-path) -- poisoning implies a worker panicked, which join() already surfaces
                if q.is_empty() {
                    continue;
                }
                let keep = q.len() / 2;
                q.split_off(keep)
            };
            let first = stolen.pop_front();
            if !stolen.is_empty() {
                *deques[worker].lock().unwrap() = stolen; // abs-lint: allow(panic-path) -- poisoning implies a worker panicked, which join() already surfaces
            }
            return first;
        }
        None
    }
}

/// Extracts the human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-worker occupancy counters for one [`Engine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index (0-based).
    pub worker: usize,
    /// Jobs this worker completed.
    pub jobs: usize,
    /// Total wall time spent executing jobs.
    pub busy: Duration,
}

impl WorkerStats {
    /// Fraction of the run this worker spent executing jobs.
    pub fn utilization(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / elapsed.as_secs_f64()
        }
    }
}

/// All failures of one run, for error reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// `(job name, failure)` for every failed job, in job-id order.
    pub failures: Vec<(String, JobFailure)>,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} job(s) failed:", self.failures.len())?;
        for (name, failure) in &self.failures {
            writeln!(f, "  {name}: {failure}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ExecError {}

/// Outcomes and counters of one [`Engine::run`], in job-id order.
#[derive(Debug)]
pub struct RunReport<T> {
    /// One outcome per job, indexed by job id.
    pub outcomes: Vec<JobOutcome<T>>,
    /// Per-worker occupancy.
    pub workers: Vec<WorkerStats>,
    /// Total wall time of the run.
    pub elapsed: Duration,
}

impl<T> RunReport<T> {
    /// Number of jobs that produced a value.
    pub fn ok_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_ok()).count()
    }

    /// The failed outcomes, in job-id order.
    pub fn failed(&self) -> Vec<&JobOutcome<T>> {
        self.outcomes.iter().filter(|o| o.result.is_err()).collect()
    }

    /// Whether every job produced a value.
    pub fn is_success(&self) -> bool {
        self.outcomes.iter().all(|o| o.result.is_ok())
    }

    /// Mean worker utilization over the run.
    pub fn mean_utilization(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        self.workers
            .iter()
            .map(|w| w.utilization(self.elapsed))
            .sum::<f64>()
            / self.workers.len() as f64
    }

    /// The values in job-id order, or an [`ExecError`] naming every failed
    /// job.
    pub fn into_values(self) -> Result<Vec<T>, ExecError> {
        let mut values = Vec::with_capacity(self.outcomes.len());
        let mut failures = Vec::new();
        for outcome in self.outcomes {
            match outcome.result {
                Ok(v) => values.push(v),
                Err(f) => failures.push((outcome.name, f)),
            }
        }
        if failures.is_empty() {
            Ok(values)
        } else {
            Err(ExecError { failures })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSet;

    #[test]
    fn empty_set_runs() {
        let report = Engine::single_threaded().run(JobSet::<u64>::new(0));
        assert!(report.is_success());
        assert_eq!(report.outcomes.len(), 0);
        assert_eq!(report.into_values().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn values_commit_in_id_order() {
        let mut set = JobSet::new(3);
        for i in 0..32u64 {
            set.push(format!("j{i}"), move |_| i);
        }
        let values = Engine::new(ExecConfig::new(8)).run(set).into_values().unwrap();
        assert_eq!(values, (0..32).collect::<Vec<u64>>());
    }

    #[test]
    fn workers_clamped_to_job_count() {
        let mut set = JobSet::new(0);
        set.push("only", |s| s);
        let report = Engine::new(ExecConfig::new(16)).run(set);
        assert_eq!(report.workers.len(), 1);
        assert_eq!(report.workers[0].jobs, 1);
    }

    #[test]
    fn utilization_is_a_fraction() {
        let mut set = JobSet::new(0);
        for i in 0..4 {
            set.push(format!("spin{i}"), |seed| {
                let mut acc = seed;
                for _ in 0..10_000 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                acc
            });
        }
        let report = Engine::new(ExecConfig::new(2)).run(set);
        for w in &report.workers {
            let u = w.utilization(report.elapsed);
            assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
        }
        assert!(report.mean_utilization() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        ExecConfig::new(0);
    }

    #[test]
    fn results_are_bit_identical_at_any_worker_count() {
        // The injector is pure scheduling: same seeds, same id-ordered
        // commit, so the value sequence cannot depend on the worker count.
        let build = || {
            let mut set = JobSet::new(0xD15);
            for i in 0..97u64 {
                set.push(format!("j{i}"), move |seed| seed.rotate_left(i as u32));
            }
            set
        };
        let reference = Engine::new(ExecConfig::new(1))
            .run(build())
            .into_values()
            .unwrap();
        for workers in [1, 2, 8] {
            let values = Engine::new(ExecConfig::new(workers))
                .run(build())
                .into_values()
                .unwrap();
            assert_eq!(values, reference, "{workers} workers");
        }
    }

    #[test]
    fn stealing_dispatches_every_job_exactly_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let counters: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        let mut set = JobSet::new(0);
        for i in 0..counters.len() {
            let counters = &counters;
            set.push(format!("j{i}"), move |_| {
                counters[i].fetch_add(1, Ordering::Relaxed)
            });
        }
        let report = Engine::new(ExecConfig::new(8)).run(set);
        assert!(report.is_success());
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        // Every executed job is attributed to exactly one worker.
        assert_eq!(report.workers.iter().map(|w| w.jobs).sum::<usize>(), 1000);
    }

    #[test]
    fn poisoned_job_is_isolated_under_stealing() {
        // One always-panicking job in the middle of a stolen-and-split run
        // must fail alone: neighbours on the same chunk, the same worker,
        // and other workers all commit normally.
        let mut set = JobSet::new(7);
        for i in 0..64u64 {
            set.push(format!("j{i}"), move |_| {
                assert!(i != 23, "poisoned");
                i
            });
        }
        let report = Engine::new(ExecConfig::new(4)).run(set);
        assert_eq!(report.ok_count(), 63);
        let failed = report.failed();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].id, 23);
        for outcome in &report.outcomes {
            if outcome.id != 23 {
                assert_eq!(*outcome.result.as_ref().unwrap(), outcome.id as u64);
            }
        }
    }
}
