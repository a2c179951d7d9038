//! Integration tests for the execution engine's two contracts:
//! determinism at any worker count and panic isolation.

use abs_exec::{run_repetitions, Engine, ExecConfig, JobSet};
use abs_sim::check::{self, Config};
use abs_sim::forall;
use abs_sim::rng::SplitMix64;
use abs_sim::sweep::Repetitions;

/// A seed-deterministic stand-in for a simulation: a short SplitMix64
/// stream folded to one value.
fn simulate(seed: u64) -> u64 {
    let mut rng = SplitMix64::new(seed);
    (0..64).map(|_| rng.next_u64()).fold(0, u64::wrapping_add)
}

fn seeded_set<'a>(master: u64, n: usize) -> JobSet<'a, u64> {
    let mut set = JobSet::new(master);
    for i in 0..n {
        set.push(format!("sim{i}"), simulate);
    }
    set
}

#[test]
fn results_identical_across_1_2_8_workers() {
    let reference = Engine::new(ExecConfig::new(1))
        .run(seeded_set(0x1989_0605, 50))
        .into_values()
        .unwrap();
    for workers in [2, 8] {
        let values = Engine::new(ExecConfig::new(workers))
            .run(seeded_set(0x1989_0605, 50))
            .into_values()
            .unwrap();
        assert_eq!(values, reference, "{workers} workers");
    }
}

#[test]
fn one_poisoned_job_fails_the_other_99_complete() {
    let mut set = JobSet::new(7);
    for i in 0..100usize {
        set.push(format!("job{i}"), move |seed| {
            assert_ne!(i, 37, "poisoned job");
            simulate(seed)
        });
    }
    let report = Engine::new(ExecConfig::new(4)).run(set);
    assert_eq!(report.ok_count(), 99);
    let failed = report.failed();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].name, "job37");
    assert!(failed[0].result.as_ref().unwrap_err().message.contains("poisoned"));
    // The 99 survivors carry their values, in id order, skipping slot 37.
    for outcome in &report.outcomes {
        if outcome.id != 37 {
            assert_eq!(*outcome.result.as_ref().unwrap(), simulate(outcome.seed));
        }
    }
    // And the aggregate error names exactly the poisoned job.
    let err = report.into_values().unwrap_err();
    assert_eq!(err.failures.len(), 1);
    assert_eq!(err.failures[0].0, "job37");
}

#[test]
fn property_engine_commit_equals_sequential_execution() {
    // For any master seed, job count, and worker count, the engine's
    // id-ordered commit equals a plain sequential map over the same jobs.
    forall!(Config::with_cases(64), (
        master in check::any_u64(),
        n in check::usize_in(0..40),
        workers in check::usize_in(1..9),
    ) {
        let sequential: Vec<u64> = seeded_set(master, n)
            .jobs()
            .iter()
            .map(|job| job.execute())
            .collect();
        let engine = Engine::new(ExecConfig::new(workers));
        let parallel = engine.run(seeded_set(master, n)).into_values().unwrap();
        assert_eq!(parallel, sequential);
    });
}

#[test]
fn property_repetitions_parallel_path_matches_run() {
    forall!(Config::with_cases(32), (
        master in check::any_u64(),
        runs in check::usize_in(1..30),
        workers in check::usize_in(1..5),
    ) {
        let reps = Repetitions::new(u32::try_from(runs).unwrap(), master);
        let experiment = |seed: u64| vec![("value", simulate(seed) as f64 / 1e6)];
        let sequential = reps.run(experiment);
        let engine = Engine::new(ExecConfig::new(workers));
        let parallel = run_repetitions(&engine, &reps, experiment).unwrap();
        assert_eq!(parallel, sequential);
    });
}

#[test]
fn observability_counters_are_populated() {
    let report = Engine::new(ExecConfig::new(2)).run(seeded_set(3, 20));
    assert_eq!(report.outcomes.len(), 20);
    for outcome in &report.outcomes {
        assert!(outcome.stats.worker < 2);
        assert!(outcome.stats.queue_wait <= report.elapsed);
    }
    let jobs_run: usize = report.workers.iter().map(|w| w.jobs).sum();
    assert_eq!(jobs_run, 20);
    assert!(report.elapsed > std::time::Duration::ZERO);
}
