//! Jobs and job sets: the unit of work the engine schedules.
//!
//! A [`Job`] carries a stable integer id, a human-readable name, and the
//! seed its closure will receive. Seeds are derived from the set's master
//! seed and the job id via [`abs_sim::sweep::derive_seed`], so a job's
//! input depends only on *which* job it is — never on which worker runs it
//! or when. That property, together with the engine's id-ordered commit,
//! is what makes results bit-for-bit identical at any thread count.

use abs_sim::sweep::derive_seed;
use std::time::Duration;

/// One schedulable unit of work producing a `T`.
///
/// The closure must be `Fn` (not `FnOnce`) and `Send + Sync` so workers
/// can run it through the shared job table.
pub struct Job<'scope, T> {
    id: usize,
    name: String,
    seed: u64,
    run: Box<dyn Fn(u64) -> T + Send + Sync + 'scope>,
}

impl<T> Job<'_, T> {
    /// Stable id: the index at which the job was pushed into its set.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Human-readable name (used in reports and manifests).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The seed the closure receives.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Executes the job's closure with its seed.
    pub fn execute(&self) -> T {
        (self.run)(self.seed)
    }
}

impl<T> std::fmt::Debug for Job<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// An ordered collection of jobs sharing one master seed.
///
/// # Examples
///
/// ```
/// use abs_exec::JobSet;
///
/// let mut set = JobSet::new(42);
/// set.push("double", |seed| seed.wrapping_mul(2));
/// set.push("triple", |seed| seed.wrapping_mul(3));
/// assert_eq!(set.len(), 2);
/// // Seeds are derived per id, so the two jobs see different streams.
/// assert_ne!(set.jobs()[0].seed(), set.jobs()[1].seed());
/// ```
pub struct JobSet<'scope, T> {
    master_seed: u64,
    jobs: Vec<Job<'scope, T>>,
}

impl<'scope, T> JobSet<'scope, T> {
    /// An empty set whose jobs derive their seeds from `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        Self {
            master_seed,
            jobs: Vec::new(),
        }
    }

    /// The master seed.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Appends a job whose seed is `derive_seed(master_seed, id)`; returns
    /// its id.
    pub fn push<F>(&mut self, name: impl Into<String>, run: F) -> usize
    where
        F: Fn(u64) -> T + Send + Sync + 'scope,
    {
        let id = self.jobs.len();
        let seed = derive_seed(self.master_seed, id as u64);
        self.push_inner(name.into(), seed, Box::new(run))
    }

    /// Appends a job with an explicitly chosen seed (for callers that have
    /// their own derivation scheme, e.g. `Repetitions`); returns its id.
    pub fn push_seeded<F>(&mut self, name: impl Into<String>, seed: u64, run: F) -> usize
    where
        F: Fn(u64) -> T + Send + Sync + 'scope,
    {
        self.push_inner(name.into(), seed, Box::new(run))
    }

    fn push_inner(
        &mut self,
        name: String,
        seed: u64,
        run: Box<dyn Fn(u64) -> T + Send + Sync + 'scope>,
    ) -> usize {
        let id = self.jobs.len();
        self.jobs.push(Job {
            id,
            name,
            seed,
            run,
        });
        id
    }

    /// Number of jobs in the set.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The jobs, in id order.
    pub fn jobs(&self) -> &[Job<'scope, T>] {
        &self.jobs
    }

    pub(crate) fn into_jobs(self) -> Vec<Job<'scope, T>> {
        self.jobs
    }
}

impl<T> std::fmt::Debug for JobSet<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSet")
            .field("master_seed", &self.master_seed)
            .field("jobs", &self.jobs.len())
            .finish()
    }
}

/// Why a job did not produce a value: it panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "panicked: {}", self.message)
    }
}

/// Per-job scheduling and execution counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobStats {
    /// Time from engine start to this job being dequeued by a worker.
    pub queue_wait: Duration,
    /// Wall time spent executing the job.
    pub wall: Duration,
    /// Index of the worker that ran the job.
    pub worker: usize,
}

/// The result of running one job: its identity, its value or failure, and
/// its counters.
#[derive(Debug)]
pub struct JobOutcome<T> {
    /// The job's stable id (commit order).
    pub id: usize,
    /// The job's name.
    pub name: String,
    /// The seed the job received.
    pub seed: u64,
    /// The produced value, or the failure if the job panicked.
    pub result: Result<T, JobFailure>,
    /// Scheduling/execution counters.
    pub stats: JobStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_derived_and_stable() {
        let mut a = JobSet::new(7);
        let mut b = JobSet::new(7);
        for i in 0..8 {
            a.push(format!("j{i}"), |s| s);
            b.push(format!("j{i}"), |s| s);
        }
        let sa: Vec<u64> = a.jobs().iter().map(|j| j.seed()).collect();
        let sb: Vec<u64> = b.jobs().iter().map(|j| j.seed()).collect();
        assert_eq!(sa, sb);
        let mut dedup = sa.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), sa.len(), "derived seeds must be distinct");
    }

    #[test]
    fn push_seeded_overrides_derivation() {
        let mut set = JobSet::new(0);
        set.push_seeded("explicit", 12345, |s| s);
        assert_eq!(set.jobs()[0].seed(), 12345);
        assert_eq!(set.jobs()[0].execute(), 12345);
    }

    #[test]
    fn ids_are_push_order() {
        let mut set: JobSet<'_, u64> = JobSet::new(1);
        assert_eq!(set.push("a", |s| s), 0);
        assert_eq!(set.push("b", |s| s), 1);
        assert_eq!(set.jobs()[1].name(), "b");
    }
}
