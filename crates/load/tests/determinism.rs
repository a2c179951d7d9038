//! Determinism properties of the open-loop engine.
//!
//! The engine's contract is that a seed fully determines the offered
//! traffic and its outcome: bit-identical across `--jobs` worker counts
//! (streams are generated from derived per-tenant seeds, not shared
//! state) and across the two simulation kernels (the event kernel only
//! skips provably dead cycles). These properties pin both, plus the
//! statistical sanity of each arrival process (empirical mean
//! interarrival within tolerance of the configured mean).
//!
//! Driven by the in-tree `forall!` framework: a failing case panics with
//! the master seed; replay with `ABS_CHECK_SEED=<seed>`.

use abs_exec::{Engine, ExecConfig, JobSet};
use abs_load::arrival::{Arrival, ArrivalProcess};
use abs_load::engine::{LoadConfig, OpenLoopSim};
use abs_load::tenant::{generate_stream, OpMix, Tenant};
use abs_sim::check::{self, Config};
use abs_sim::forall;
use abs_sim::kernel::Kernel;
use abs_sim::rng::SplitMix64;
use abs_trace::sched::SchedKind;
use abs_core::policy::BackoffPolicy;

/// A small mixed population parameterized by the generated inputs.
fn population(gap: u64, burst: u64) -> Vec<Tenant> {
    vec![
        Tenant {
            weight: 2,
            arrival: Arrival::poisson(gap as f64),
            op_mix: OpMix::EVEN,
            work: 3,
        },
        Tenant {
            weight: 1,
            arrival: Arrival::bursty(burst as f64, 2.0, 40.0 + gap as f64),
            op_mix: OpMix::FAA,
            work: 5,
        },
    ]
}

#[test]
fn arrival_streams_bit_identical_across_worker_counts() {
    forall!(Config::with_cases(16), (
        seed in check::any_u64(),
        gap in check::u64_in(4..=40),
        burst in check::u64_in(1..=12),
    ) {
        let tenants = population(gap, burst);
        // Fan the same stream generation out over 1, 2 and 8 workers; the
        // commit order and every job's stream must be byte-identical.
        let mut per_worker = Vec::new();
        for workers in [1usize, 2, 8] {
            let mut set = JobSet::new(seed);
            for i in 0..4u64 {
                let tenants = tenants.clone();
                set.push_seeded(format!("stream{i}"), seed ^ i, move |s| {
                    generate_stream(&tenants, 4, 5_000, s)
                });
            }
            let report = Engine::new(ExecConfig::new(workers)).run(set);
            per_worker.push(report.into_values().expect("no panicking jobs"));
        }
        assert_eq!(per_worker[0], per_worker[1], "1 vs 2 workers");
        assert_eq!(per_worker[0], per_worker[2], "1 vs 8 workers");
    });
}

#[test]
fn engine_outcome_bit_identical_across_kernels() {
    forall!(Config::with_cases(12), (
        seed in check::any_u64(),
        gap in check::u64_in(4..=32),
        burst in check::u64_in(1..=10),
        procs in check::usize_in(1..12),
        sched_idx in check::usize_in(0..3),
        backoff_idx in check::usize_in(0..5),
    ) {
        let sim = OpenLoopSim::new(
            LoadConfig {
                procs,
                vars: 3,
                horizon: 6_000,
                sched: SchedKind::ALL[sched_idx],
                backoff: BackoffPolicy::figure_policies()[backoff_idx],
                ..LoadConfig::default()
            },
            population(gap, burst),
        );
        let cycle = sim.run_with(seed, Kernel::Cycle);
        let event = sim.run_with(seed, Kernel::Event);
        assert_eq!(cycle, event);
    });
}

#[test]
fn empirical_mean_interarrival_matches_configuration() {
    forall!(Config::with_cases(24), (
        seed in check::any_u64(),
        mean in check::u64_in(5..=60),
    ) {
        let period = mean;
        let mean = mean as f64;
        for (name, mut arrival, expect, tol) in [
            // Fixed rate is exact; the random processes carry the
            // ceil-to-cycle bias (up to +0.5) plus sampling noise.
            ("fixed", Arrival::fixed(period), mean.floor(), 0.0),
            ("poisson", Arrival::poisson(mean), mean, 0.15 * mean + 1.0),
            // Diurnal with a flat profile is Poisson at that rate.
            ("diurnal-flat", Arrival::diurnal(10_000, vec![mean, mean]), mean, 0.15 * mean + 1.0),
        ] {
            let mut rng = SplitMix64::new(seed);
            let mut now = 0u64;
            let n = 4_000u64;
            for _ in 0..n {
                now = arrival.next_after(&mut rng, now);
            }
            let empirical = now as f64 / n as f64;
            assert!(
                (empirical - expect).abs() <= tol,
                "{name}: empirical {empirical} vs configured {expect} (tol {tol})"
            );
        }
    });
}

#[test]
fn bursty_long_run_rate_is_bounded_by_on_and_off_gaps() {
    forall!(Config::with_cases(24), (
        seed in check::any_u64(),
        burst in check::u64_in(2..=16),
        on_gap in check::u64_in(1..=8),
        off_gap in check::u64_in(50..=400),
    ) {
        let mut arrival = Arrival::bursty(burst as f64, on_gap as f64, off_gap as f64);
        let mut rng = SplitMix64::new(seed);
        let mut now = 0u64;
        let n = 4_000u64;
        for _ in 0..n {
            now = arrival.next_after(&mut rng, now);
        }
        let empirical = now as f64 / n as f64;
        // The long-run mean gap must sit strictly between the on-gap and
        // the off-gap: burstiness cannot make traffic faster than the ON
        // state or slower than pure silence.
        assert!(empirical >= on_gap as f64, "{empirical} < on {on_gap}");
        assert!(empirical <= off_gap as f64 + on_gap as f64 + 2.0, "{empirical} > off {off_gap}");
    });
}

#[test]
fn full_runs_bit_identical_across_worker_counts() {
    // One engine evaluated at several sweep points, fanned out over
    // different worker pools: the committed outcome vector must be
    // byte-identical (the repro exhibits rely on exactly this).
    let sim = OpenLoopSim::new(
        LoadConfig {
            procs: 8,
            vars: 2,
            horizon: 4_000,
            sched: SchedKind::Cfs,
            backoff: BackoffPolicy::exponential(2),
            ..LoadConfig::default()
        },
        population(10, 6),
    );
    let mut runs = Vec::new();
    for workers in [1usize, 2, 8] {
        let mut set = JobSet::new(99);
        for i in 0..6u64 {
            let sim = sim.clone();
            set.push_seeded(format!("run{i}"), 1_000 + i, move |s| sim.run(s));
        }
        let report = Engine::new(ExecConfig::new(workers)).run(set);
        runs.push(report.into_values().expect("no panicking jobs"));
    }
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);
}
