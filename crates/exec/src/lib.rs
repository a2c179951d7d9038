//! # abs-exec — deterministic parallel execution engine
//!
//! The workspace's experiments are embarrassingly parallel — 100 seeded
//! repetitions per data point, sweeps over `N × A × policy` — yet every
//! simulator is (and must stay) single-threaded and bit-reproducible. This
//! crate supplies the missing substrate: a fixed-size worker pool that runs
//! *seeded jobs* and commits their results **in job-id order**, so the
//! output of any run is identical at any thread count. `std`-only, like
//! the rest of the hermetic workspace.
//!
//! The pieces:
//!
//! * [`JobSet`] / [`Job`] — units of work with stable ids; each job's seed
//!   is derived from the set's master seed and the job id via
//!   [`abs_sim::sweep::derive_seed`], never from scheduling.
//! * [`Engine`] — the pool ([`ExecConfig`]: worker count). Jobs run under
//!   `catch_unwind`; a panicking job is reported as a [`JobFailure`] in
//!   its slot while every other job's result stands ([`RunReport`]).
//! * [`RunReport`] — outcomes in id order plus observability: per-job wall
//!   time and queue wait, and per-worker busy time and utilization.
//! * [`RunManifest`] — a JSON record of seed, config, git commit, and
//!   per-job status and timings written beside the run's artifacts.
//!   (Serialization is in-tree: [`json`] is a minimal JSON model.)
//! * [`run_repetitions`] — the parallel path for
//!   [`abs_sim::sweep::Repetitions`], bit-for-bit equal to its sequential
//!   `run`.
//!
//! # Determinism contract
//!
//! For any job set whose closures are pure functions of their seed, the
//! value sequence returned by [`RunReport::into_values`] is independent of
//! `workers` and scheduling. Only the timing counters
//! (and the manifest fields recording them) vary between runs.
//!
//! # Examples
//!
//! ```
//! use abs_exec::{Engine, ExecConfig, JobSet};
//!
//! let mut jobs = JobSet::new(0x1989);
//! for n in [16usize, 64, 256] {
//!     jobs.push(format!("point-N{n}"), move |seed| {
//!         // Any seed-deterministic simulation goes here.
//!         (n as u64).wrapping_mul(seed) >> 32
//!     });
//! }
//! let report = Engine::new(ExecConfig::new(2)).run(jobs);
//! assert!(report.is_success());
//! let values = report.into_values().unwrap(); // committed in id order
//! assert_eq!(values.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod job;
pub mod json;
pub mod manifest;
pub mod reps;

pub use engine::{available_parallelism, Engine, ExecConfig, ExecError, RunReport, WorkerStats};
pub use job::{Job, JobFailure, JobOutcome, JobSet, JobStats};
pub use manifest::{git_commit, JobRecord, JobStatus, RunManifest};
pub use reps::run_repetitions;
