//! The parallel path for [`abs_sim::sweep::Repetitions`].
//!
//! [`run_repetitions`] fans the repetitions of one experiment out as engine
//! jobs — one per repetition, seeded exactly as the sequential
//! [`Repetitions::run`] would seed them — and folds the per-run metric
//! vectors back in repetition order. The aggregation therefore consumes the
//! identical run sequence regardless of worker count, so the resulting
//! [`SweepOutcome`] is bit-for-bit equal to the sequential one.

use abs_sim::sweep::{Repetitions, SweepOutcome};

use crate::engine::{Engine, ExecError};
use crate::job::JobSet;

/// Runs `reps` repetitions of `experiment` on `engine` and aggregates them.
///
/// Equivalent to `reps.run(experiment)` — same seeds, same fold order —
/// but executed on the worker pool. A repetition that panics is reported
/// as an [`ExecError`] naming the repetition, instead of tearing down the
/// caller.
///
/// # Examples
///
/// ```
/// use abs_exec::{run_repetitions, Engine, ExecConfig};
/// use abs_sim::sweep::Repetitions;
///
/// let reps = Repetitions::new(50, 1234);
/// let experiment = |seed: u64| vec![("metric", (seed % 100) as f64)];
/// let sequential = reps.run(experiment);
/// let parallel = run_repetitions(&Engine::new(ExecConfig::new(4)), &reps, experiment).unwrap();
/// assert_eq!(parallel, sequential);
/// ```
pub fn run_repetitions<F>(
    engine: &Engine,
    reps: &Repetitions,
    experiment: F,
) -> Result<SweepOutcome, ExecError>
where
    F: Fn(u64) -> Vec<(&'static str, f64)> + Send + Sync,
{
    let mut set = JobSet::new(reps.seed());
    for (i, seed) in reps.seeds().into_iter().enumerate() {
        set.push_seeded(format!("rep{i}"), seed, &experiment);
    }
    let runs = engine.run(set).into_values()?;
    Ok(reps.collect_runs(runs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecConfig;

    fn experiment(seed: u64) -> Vec<(&'static str, f64)> {
        vec![
            ("low", (seed % 1000) as f64),
            ("high", (seed >> 32) as f64),
        ]
    }

    #[test]
    fn parallel_equals_sequential_at_every_width() {
        let reps = Repetitions::new(40, 0xABCD);
        let sequential = reps.run(experiment);
        for workers in [1, 2, 8] {
            let engine = Engine::new(ExecConfig::new(workers));
            let parallel = run_repetitions(&engine, &reps, experiment).unwrap();
            assert_eq!(parallel, sequential, "{workers} workers");
        }
    }

    #[test]
    fn failing_repetition_is_reported_not_torn() {
        let reps = Repetitions::new(10, 3);
        let poison = reps.seeds()[4];
        let result = run_repetitions(&Engine::new(ExecConfig::new(2)), &reps, move |seed| {
            assert_ne!(seed, poison, "poisoned repetition");
            vec![("x", 1.0)]
        });
        let err = result.unwrap_err();
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].0, "rep4");
    }
}
