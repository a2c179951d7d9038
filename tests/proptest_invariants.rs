//! Property-based tests over the core data structures and simulators.
//!
//! Driven by the in-tree [`check`](adaptive_backoff::sim::check)
//! mini-framework — 64 generated cases per property, matching the
//! proptest configuration this suite originally used. A failing case
//! panics with the master seed; replay with `ABS_CHECK_SEED=<seed>`.

use adaptive_backoff::core::{BackoffPolicy, BarrierConfig, BarrierSim};
use adaptive_backoff::model;
use adaptive_backoff::net::OmegaTopology;
use adaptive_backoff::sim::check::{self, Config};
use adaptive_backoff::sim::forall;
use adaptive_backoff::sim::rng::Xoshiro256PlusPlus;
use adaptive_backoff::sim::stats::{Histogram, OnlineStats};

fn cases() -> Config {
    Config::with_cases(64)
}

// ---- PRNG ----

#[test]
fn rng_next_below_is_in_bounds() {
    forall!(cases(), (seed in check::any_u64(), bound in check::u64_in(1..=u64::MAX)) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let v = rng.next_below(bound);
        assert!(v < bound);
    });
}

#[test]
fn rng_arrivals_sorted_in_span() {
    forall!(cases(), (seed in check::any_u64(), n in check::usize_in(1..200), span in check::u64_in(0..=9_999)) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let arr = rng.uniform_arrivals(n, span);
        assert_eq!(arr.len(), n);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        assert!(arr.iter().all(|&t| t <= span));
    });
}

// ---- statistics ----

#[test]
fn stats_mean_within_min_max() {
    forall!(cases(), (values in check::vec_of(check::f64_in(-1e12..1e12), 1..100)) {
        let s: OnlineStats = values.iter().copied().collect();
        assert!(s.mean() >= s.min() - 1e-6);
        assert!(s.mean() <= s.max() + 1e-6);
        assert!(s.sample_variance() >= 0.0);
    });
}

#[test]
fn stats_merge_equals_sequential() {
    forall!(cases(), (
        a in check::vec_of(check::f64_in(-1e6..1e6), 0..50),
        b in check::vec_of(check::f64_in(-1e6..1e6), 0..50),
    ) {
        let mut left: OnlineStats = a.iter().copied().collect();
        let right: OnlineStats = b.iter().copied().collect();
        left.merge(&right);
        let combined: OnlineStats = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(left.count(), combined.count());
        if combined.count() > 0 {
            assert!((left.mean() - combined.mean()).abs() < 1e-6);
        }
    });
}

#[test]
fn histogram_total_conserved() {
    forall!(cases(), (values in check::vec_of(check::u64_in(0..=4_999), 0..200)) {
        let h: Histogram = values.iter().copied().collect();
        assert_eq!(h.total(), values.len() as u64);
        let summed: u64 = h.iter().map(|(_, c)| c).sum();
        assert_eq!(summed, values.len() as u64);
        if !values.is_empty() {
            assert!((h.cumulative_fraction(5_000) - 1.0).abs() < 1e-9);
        }
    });
}

// ---- backoff policies ----

#[test]
fn exponential_delay_is_monotone() {
    forall!(cases(), (base in check::u64_in(2..=8), k in check::u32_in(1..=29)) {
        let p = BackoffPolicy::exponential(base);
        let d1 = p.flag_delay(k).unwrap();
        let d2 = p.flag_delay(k + 1).unwrap();
        assert!(d2 >= d1);
        assert!(d1 >= base);
    });
}

#[test]
fn capped_delay_never_exceeds_cap() {
    forall!(cases(), (
        base in check::u64_in(2..=8),
        cap in check::u64_in(1..=9_999),
        k in check::u32_in(1..=39),
    ) {
        let p = BackoffPolicy::exponential_capped(base, cap);
        assert!(p.flag_delay(k).unwrap() <= cap);
    });
}

#[test]
fn variable_wait_decreases_with_progress() {
    forall!(cases(), (n in check::usize_in(2..500), factor in check::u64_in(1..=3)) {
        let p = BackoffPolicy::OnVariable { factor, offset: 0 };
        let mut last = u64::MAX;
        for i in 1..=n {
            let w = p.variable_wait(n, i);
            assert!(w <= last);
            last = w;
        }
        assert_eq!(p.variable_wait(n, n), 0);
    });
}

// ---- analytic model ----

#[test]
fn span_bounded_by_interval() {
    forall!(cases(), (a in check::f64_in(0.0..1e9), n in check::usize_in(1..10_000)) {
        let r = model::expected_span(a, n);
        assert!(r >= 0.0);
        assert!(r <= a + 1e-9);
    });
}

#[test]
fn predicted_accesses_monotone_in_a() {
    forall!(cases(), (
        n in check::usize_in(2..512),
        a1 in check::f64_in(0.0..1e6),
        a2 in check::f64_in(0.0..1e6),
    ) {
        let _ = n;
        let (lo, hi) = if a1 <= a2 { (a1, a2) } else { (a2, a1) };
        assert!(model::predicted_accesses(n, lo) <= model::predicted_accesses(n, hi) + 1e-9);
    });
}

// ---- omega network ----

#[test]
fn omega_paths_terminate_at_destination() {
    forall!(cases(), (
        k in check::u32_in(1..=8),
        src_raw in check::any_u64(),
        dst_raw in check::any_u64(),
    ) {
        let net = OmegaTopology::new(k);
        let src = usize::try_from(src_raw % net.size() as u64).unwrap();
        let dst = usize::try_from(dst_raw % net.size() as u64).unwrap();
        let p = net.path(src, dst);
        assert_eq!(p.len(), net.stages());
        assert_eq!(*p.last().unwrap(), dst);
        assert!(p.iter().all(|&port| port < net.size()));
    });
}

#[test]
fn omega_same_source_same_dest_identical() {
    forall!(cases(), (
        k in check::u32_in(1..=6),
        src_raw in check::any_u64(),
        dst_raw in check::any_u64(),
    ) {
        let net = OmegaTopology::new(k);
        let src = usize::try_from(src_raw % net.size() as u64).unwrap();
        let dst = usize::try_from(dst_raw % net.size() as u64).unwrap();
        assert_eq!(net.path(src, dst), net.path(src, dst));
    });
}

// ---- barrier simulator ----

#[test]
fn barrier_sim_invariants() {
    forall!(cases(), (
        n in check::usize_in(1..48),
        span in check::u64_in(0..=499),
        seed in check::any_u64(),
        policy_idx in check::usize_in(0..5),
    ) {
        let policy = BackoffPolicy::figure_policies()[policy_idx];
        let run = BarrierSim::new(BarrierConfig::new(n, span), policy).run(seed);
        // Everyone finishes and is accounted for.
        assert_eq!(run.accesses().len(), n);
        assert_eq!(run.waiting().len(), n);
        // Every process touches the variable at least once and the flag at
        // least once.
        assert!(run.accesses().iter().all(|&a| a >= 2));
        // The breakdown sums to the total.
        let breakdown = run.mean_var_accesses() + run.mean_flag_before() + run.mean_flag_after();
        assert!((breakdown - run.mean_accesses()).abs() < 1e-9);
        // Completion is at or after the flag write.
        assert!(run.completion() >= run.flag_set_at());
        // Nobody can leave before the flag is set: waiting ends at or
        // after the setter's write for every poller.
        assert!(run.queued() == 0);
    });
}

#[test]
fn barrier_sim_deterministic() {
    forall!(cases(), (
        seed in check::any_u64(),
        n in check::usize_in(2..32),
        span in check::u64_in(0..=199),
    ) {
        let sim = BarrierSim::new(BarrierConfig::new(n, span), BackoffPolicy::exponential(2));
        assert_eq!(sim.run(seed), sim.run(seed));
    });
}
