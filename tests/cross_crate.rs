//! Integration tests spanning multiple crates: the trace scheduler driving
//! the coherence simulator, the Section-7.1 traffic pipeline, and the
//! combining-tree comparison.

use adaptive_backoff::coherence::{DirectorySystem, PointerLimit, SyncCaching};
use adaptive_backoff::core::{
    aggregate_runs, amortized_traffic, BackoffPolicy, BarrierConfig, BarrierSim,
    CombiningConfig, CombiningTreeSim,
};
use adaptive_backoff::trace::{intervals, Scheduler};

const SEED: u64 = 3;

#[test]
fn trace_drives_coherence_consistently() {
    // The scheduler must report exactly as many references as the memory
    // system consumed.
    let app = adaptive_backoff::trace::apps::fft_like();
    let scheduler = Scheduler::new(app.clone(), 16, SEED);
    let (_, counts) = scheduler.run_counting();
    let mut sys = DirectorySystem::new(
        16,
        adaptive_backoff::coherence::CacheGeometry::paper(),
        PointerLimit::Limited(4),
        SyncCaching::Cached,
    );
    scheduler.run(&mut sys);
    let s = sys.stats();
    assert_eq!(s.refs_sync, counts.sync());
    assert_eq!(s.refs_nonsync, counts.shared() + counts.private());
}

#[test]
fn limited_pointers_make_sync_invalidate_nearly_always() {
    // Table 1's core contrast, end to end on WEATHER.
    let app = adaptive_backoff::trace::apps::weather_like();
    let run = |limit| {
        let mut sys = DirectorySystem::new(
            32,
            adaptive_backoff::coherence::CacheGeometry::paper(),
            limit,
            SyncCaching::Cached,
        );
        Scheduler::new(app.clone(), 32, SEED).run(&mut sys);
        (
            sys.stats().pct_sync_invalidating(),
            sys.stats().pct_nonsync_invalidating(),
        )
    };
    let (sync_lim, nonsync_lim) = run(PointerLimit::Limited(2));
    let (sync_full, _) = run(PointerLimit::Full);
    assert!(sync_lim > 90.0, "limited-pointer sync invalidation {sync_lim}");
    assert!(sync_lim > 3.0 * nonsync_lim);
    assert!(sync_full < 20.0, "full-map sync invalidation {sync_full}");
}

#[test]
fn uncached_sync_traffic_ordering_across_apps() {
    // Table 2 ordering: WEATHER > SIMPLE >> FFT.
    let pct = |app: adaptive_backoff::trace::SpmdApp| {
        let mut sys = DirectorySystem::new(
            32,
            adaptive_backoff::coherence::CacheGeometry::paper(),
            PointerLimit::Limited(4),
            SyncCaching::UncachedSync,
        );
        Scheduler::new(app, 32, SEED).run(&mut sys);
        sys.stats().pct_sync_traffic()
    };
    let fft = pct(adaptive_backoff::trace::apps::fft_like());
    let simple = pct(adaptive_backoff::trace::apps::simple_like());
    let weather = pct(adaptive_backoff::trace::apps::weather_like());
    assert!(fft < simple && simple < weather, "{fft} {simple} {weather}");
    assert!(fft < 5.0);
    assert!(weather > 8.0);
}

#[test]
fn sec71_pipeline_reduces_combined_traffic() {
    // Full Section-7.1 pipeline: measure the FFT-like application's period,
    // fold in barrier traffic with and without backoff, and check both the
    // traffic and waiting-time orderings the paper reports.
    let procs = 64;
    let (report, counts) =
        Scheduler::new(adaptive_backoff::trace::apps::fft_like(), procs, SEED).run_counting();
    let iv = intervals(&report);
    let period = iv.mean_e + iv.mean_a;
    let base_rate = 2.0 * counts.shared() as f64 / procs as f64 / report.cycles as f64;

    let none = aggregate_runs(
        &BarrierSim::new(BarrierConfig::new(procs, 100), BackoffPolicy::None),
        20,
        SEED,
    );
    let b8 = aggregate_runs(
        &BarrierSim::new(BarrierConfig::new(procs, 100), BackoffPolicy::exponential(8)),
        20,
        SEED,
    );
    let t_none = amortized_traffic(base_rate, none.mean_accesses(), period);
    let t_b8 = amortized_traffic(base_rate, b8.mean_accesses(), period);
    assert!(t_none.combined_rate > t_b8.combined_rate);
    assert!(t_b8.combined_rate > t_b8.base_rate);
    // The relative increase without backoff stays small (paper: 0.133 ->
    // 0.136, about 2%): barrier traffic is a thin, hot slice.
    assert!(t_none.relative_increase() < 0.25, "{}", t_none.relative_increase());
}

#[test]
fn combining_tree_flattens_flat_barrier_hotspot() {
    let n = 128;
    let flat = BarrierSim::new(BarrierConfig::new(n, 0), BackoffPolicy::None).run(SEED);
    let tree =
        CombiningTreeSim::new(CombiningConfig::new(n, 0, 4), BackoffPolicy::None).run(SEED);
    // Per-processor accesses shrink dramatically (O(N) contention -> O(d
    // log N)).
    assert!(
        tree.mean_accesses() < flat.mean_accesses() / 2.0,
        "tree {} flat {}",
        tree.mean_accesses(),
        flat.mean_accesses()
    );
    // And the hottest module sees a fraction of the flat flag module's
    // load.
    #[expect(clippy::cast_possible_truncation, reason = "a mean access count times n is a whole count")]
    let flat_flag_load = flat.total_accesses() - (flat.mean_var_accesses() * n as f64) as u64;
    assert!(tree.max_module_accesses() < flat_flag_load / 4);
}

#[test]
fn backoff_composes_with_combining_trees() {
    // Section 8: "our methods can still be used to reduce the spins on the
    // intermediate nodes of the tree."
    let cfg = CombiningConfig::new(64, 1000, 4);
    let mean = |policy| {
        (0..10)
            .map(|i| {
                CombiningTreeSim::new(cfg, policy)
                    .run(abs_sim_seed(i))
                    .mean_accesses()
            })
            .sum::<f64>()
            / 10.0
    };
    let plain = mean(BackoffPolicy::None);
    let backed = mean(BackoffPolicy::exponential(2));
    assert!(backed < plain, "backoff in tree: {backed} vs {plain}");
}

fn abs_sim_seed(i: u64) -> u64 {
    adaptive_backoff::sim::sweep::derive_seed(0xABCD, i)
}

#[test]
fn advisor_matches_simulated_optimum() {
    // The advisor's regime boundaries must agree with what simulation says
    // is better.
    use adaptive_backoff::model::{recommend, Recommendation};

    // Tight arrivals: flag backoff buys ~nothing over variable backoff.
    assert_eq!(recommend(256, 100.0, 100_000), Recommendation::VariableOnly);
    let var = aggregate_runs(
        &BarrierSim::new(BarrierConfig::new(256, 100), BackoffPolicy::on_variable()),
        10,
        SEED,
    );
    let b2 = aggregate_runs(
        &BarrierSim::new(BarrierConfig::new(256, 100), BackoffPolicy::exponential(2)),
        10,
        SEED,
    );
    // Accesses of the two differ by far less than the no-backoff baseline
    // gap.
    let none = aggregate_runs(
        &BarrierSim::new(BarrierConfig::new(256, 100), BackoffPolicy::None),
        10,
        SEED,
    );
    let gap = (var.mean_accesses() - b2.mean_accesses()).abs();
    assert!(gap < none.mean_accesses() * 0.5);

    // Spread arrivals: exponential recommended, and it indeed crushes
    // variable-only.
    assert!(matches!(
        recommend(16, 1000.0, 100_000),
        Recommendation::ExponentialFlag { .. }
    ));
}
