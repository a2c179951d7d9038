//! Barrier-implementation and machine-architecture variants.
//!
//! * `single` — the one-variable barrier of Section 2 against the Tang–Yew
//!   two-variable barrier, testing Section 4's "if the barrier variable and
//!   flag are one and the same object, the relative advantage of using
//!   adaptive backoff techniques will be even greater."
//! * `snoopy` — the Section-2.1 contrast: a snoopy bus makes widely-shared
//!   synchronization variables cheap (one broadcast per write) but
//!   saturates its single bus as the machine grows.

use abs_coherence::{CacheGeometry, DirectorySystem, PointerLimit, SnoopyBus, SyncCaching};
use abs_core::{aggregate_runs_with, BackoffPolicy, BarrierConfig, BarrierSim, SingleCounterSim};
use abs_sim::stats::OnlineStats;
use abs_sim::sweep::derive_seed;
use abs_sim::table::{fmt_f64, fmt_percent, Table};
use abs_trace::Scheduler;

use crate::ReproConfig;

/// Single-counter vs two-variable barrier, with and without backoff.
pub fn single(config: &ReproConfig) -> Table {
    let mut t = Table::new(vec![
        "barrier",
        "policy",
        "accesses/proc",
        "saving vs plain",
    ])
    .with_title("Section 4: one-variable vs Tang-Yew barrier (N = 64, A = 0)");
    let cfg = BarrierConfig::new(64, 0);
    let reps = config.reps;

    let two_mean = |policy: BackoffPolicy| {
        aggregate_runs_with(&BarrierSim::new(cfg, policy), reps, config.seed, config.kernel)
            .mean_accesses()
    };
    let single_mean = |policy: BackoffPolicy| {
        let sim = SingleCounterSim::new(cfg, policy);
        let mut s = OnlineStats::new();
        for i in 0..reps {
            s.push(sim.run(derive_seed(config.seed, i as u64)).mean_accesses());
        }
        s.mean()
    };

    let two_plain = two_mean(BackoffPolicy::None);
    let one_plain = single_mean(BackoffPolicy::None);
    for (label, policy) in [
        ("without backoff", BackoffPolicy::None),
        ("backoff on variable", BackoffPolicy::on_variable()),
        ("base 2 backoff", BackoffPolicy::exponential(2)),
    ] {
        let two = two_mean(policy);
        let one = single_mean(policy);
        t.add_row(vec![
            "two-variable".into(),
            label.into(),
            fmt_f64(two, 1),
            fmt_percent(1.0 - two / two_plain),
        ]);
        t.add_row(vec![
            "single-counter".into(),
            label.into(),
            fmt_f64(one, 1),
            fmt_percent(1.0 - one / one_plain),
        ]);
    }
    t
}

/// Snoopy bus vs limited-pointer directory on the three applications.
pub fn snoopy(config: &ReproConfig) -> Table {
    let mut t = Table::new(vec![
        "app",
        "machine",
        "sync share of traffic %",
        "traffic/proc/cycle",
    ])
    .with_title(format!(
        "Section 2.1: snoopy bus vs Dir_2 NB directory ({} processors)",
        config.procs
    ));
    for app in abs_trace::apps::all() {
        let scheduler = Scheduler::new(app.clone(), config.procs, config.seed);
        let (report, _) = scheduler.run_counting();

        let mut bus = SnoopyBus::new(config.procs, CacheGeometry::paper());
        scheduler.run(&mut bus);
        t.add_row(vec![
            app.name().to_string(),
            "snoopy bus".into(),
            fmt_f64(bus.stats().pct_sync_bus(), 1),
            fmt_f64(
                bus.stats().bus_transactions as f64
                    / config.procs as f64
                    / report.cycles as f64,
                4,
            ),
        ]);

        let mut dir = DirectorySystem::new(
            config.procs,
            CacheGeometry::paper(),
            PointerLimit::Limited(2),
            SyncCaching::Cached,
        );
        scheduler.run(&mut dir);
        t.add_row(vec![
            app.name().to_string(),
            "Dir_2 NB".into(),
            fmt_f64(
                100.0 * dir.stats().traffic_sync as f64 / dir.stats().traffic_total as f64,
                1,
            ),
            fmt_f64(
                dir.stats().traffic_total as f64 / config.procs as f64 / report.cycles as f64,
                4,
            ),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_table_shape_and_claim() {
        let t = single(&ReproConfig::quick());
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn snoopy_table_shape() {
        let t = snoopy(&ReproConfig::quick());
        assert_eq!(t.len(), 6);
    }
}
