//! The kernel-equivalence contract: the event-driven skip-ahead kernel is
//! **bit-identical** to the reference cycle stepper — same RNG draw
//! sequence, same result structs (`==` on every field, f64s included), and
//! with an enabled sink the same trace events.
//!
//! The exhaustive grids cover the ISSUE's acceptance matrix; the `forall!`
//! properties fuzz the interior of the parameter space with shrinking.

use abs_core::{
    BackoffPolicy, BarrierConfig, BarrierSim, CombiningConfig, CombiningTreeSim, Kernel,
    ResourceConfig, ResourcePolicy, ResourceSim,
};
use abs_load::{Arrival, LoadConfig, OpMix, OpenLoopSim, Tenant};
use abs_net::{
    Arbitration, CircuitConfig, CircuitSim, NetworkBackoff, PacketConfig, PacketSim,
};
use abs_obs::trace::Ring;
use abs_sim::check::{self, Config};
use abs_sim::forall;
use abs_sim::sweep::derive_seed;

/// One representative of every `BackoffPolicy` variant.
fn barrier_policies() -> [BackoffPolicy; 8] {
    [
        BackoffPolicy::None,
        BackoffPolicy::on_variable(),
        BackoffPolicy::Linear { step: 10 },
        BackoffPolicy::exponential(2),
        BackoffPolicy::exponential(8),
        BackoffPolicy::exponential_capped(8, 64),
        BackoffPolicy::ExponentialJittered { base: 2 },
        BackoffPolicy::QueueOnThreshold {
            base: 2,
            threshold: 64,
            wake_cost: 100,
        },
    ]
}

/// One representative of every `NetworkBackoff` variant.
fn packet_policies() -> [NetworkBackoff; 6] {
    [
        NetworkBackoff::None,
        NetworkBackoff::DepthProportional { factor: 2 },
        NetworkBackoff::InverseDepth { factor: 2 },
        NetworkBackoff::ConstantRtt { rtt: 8 },
        NetworkBackoff::ExponentialRetries { base: 4, cap: 4096 },
        NetworkBackoff::QueueFeedback { factor: 8 },
    ]
}

#[test]
fn barrier_exhaustive_grid_bit_identical() {
    // The acceptance matrix: every policy variant × every arbitration mode
    // × N ∈ {1, 2, 16, 17, 64, 512} × A ∈ {0, 100, 1000}. N = 16 is the
    // widest barrier on `PendingSet`'s sorted vector, N = 17 the narrowest
    // on its word index.
    for policy in barrier_policies() {
        for arb in Arbitration::ALL {
            for n in [1usize, 2, 16, 17, 64, 512] {
                for a in [0u64, 100, 1000] {
                    let sim =
                        BarrierSim::new(BarrierConfig::new(n, a).with_arbitration(arb), policy);
                    let seed = derive_seed(0xE0E0, (n as u64) << 32 | a);
                    let cycle = sim.run_with(seed, Kernel::Cycle);
                    let event = sim.run_with(seed, Kernel::Event);
                    assert_eq!(
                        cycle, event,
                        "{policy:?} {arb:?} N={n} A={a} seed={seed}"
                    );
                }
            }
        }
    }
}

/// One cell per arbitration discipline at `n` processors: the word-index
/// layout at mega-N widths, whose id space spans many Fenwick levels.
fn assert_fenwick_scale_bit_identical(n: usize) {
    let cells = [
        (BackoffPolicy::None, Arbitration::Random, 0u64),
        (BackoffPolicy::exponential(2), Arbitration::RoundRobin, 1000),
        (BackoffPolicy::exponential(8), Arbitration::OldestFirst, 1000),
    ];
    for (policy, arb, a) in cells {
        let sim = BarrierSim::new(BarrierConfig::new(n, a).with_arbitration(arb), policy);
        let seed = derive_seed(0xF3E0, (n as u64) << 32 | a);
        let cycle = sim.run_with(seed, Kernel::Cycle);
        let event = sim.run_with(seed, Kernel::Event);
        assert_eq!(cycle, event, "{policy:?} {arb:?} N={n} A={a} seed={seed}");
    }
}

#[test]
fn barrier_fenwick_scale_bit_identical_n4096() {
    assert_fenwick_scale_bit_identical(4096);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the cycle oracle needs a release build at N = 16384"
)]
fn barrier_fenwick_scale_bit_identical_n16384() {
    assert_fenwick_scale_bit_identical(16384);
}

/// One megasweep-scale cell: `N = 65536`, the largest `N` the cycle
/// oracle can still afford (about 1.5 min in release; its cost grows
/// about `N²`). Megasweep's rows at this `N` run on the event kernel's
/// word-level `PendingSet` layout, which this cell pins to the stepper.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the cycle oracle needs a release build at N = 65536"
)]
fn barrier_fenwick_scale_bit_identical_n65536() {
    let (n, a) = (65536usize, 1000u64);
    let sim = BarrierSim::new(
        BarrierConfig::new(n, a).with_arbitration(Arbitration::Random),
        BackoffPolicy::exponential(2),
    );
    let seed = derive_seed(0xF3E0, (n as u64) << 32 | a);
    assert_eq!(
        sim.run_with(seed, Kernel::Cycle),
        sim.run_with(seed, Kernel::Event)
    );
}

/// The policies whose poll misses the untraced event kernel only draws
/// for: no backoff, variable backoff at its default and at a factor and
/// offset large enough to park waits past the wheel's 256-slot horizon
/// (its far tier), and a flag policy whose zero step makes it one.
fn zero_delay_poll_policies() -> [BackoffPolicy; 4] {
    [
        BackoffPolicy::None,
        BackoffPolicy::on_variable(),
        BackoffPolicy::OnVariable {
            factor: 16,
            offset: 300,
        },
        BackoffPolicy::Linear { step: 0 },
    ]
}

/// Random-arbitration cells where poll-only stretches end on an arrival,
/// on a variable-wait expiry or on a far-tier migration: `A` on either
/// side of the wheel's horizon and well past it.
fn for_each_zero_delay_poll_cell(mut check: impl FnMut(&BarrierSim, u64, &str)) {
    for policy in zero_delay_poll_policies() {
        for n in [1usize, 2, 3, 17, 64, 257] {
            for a in [0u64, 1, 255, 256, 257, 1000, 5000] {
                let sim = BarrierSim::new(
                    BarrierConfig::new(n, a).with_arbitration(Arbitration::Random),
                    policy,
                );
                for s in 0..3u64 {
                    let seed = derive_seed(0x2E40, (n as u64) << 40 | a << 8 | s);
                    check(&sim, seed, &format!("{policy:?} N={n} A={a} seed={seed}"));
                }
            }
        }
    }
}

#[test]
fn barrier_zero_delay_polls_bit_identical() {
    for_each_zero_delay_poll_cell(|sim, seed, cell| {
        assert_eq!(
            sim.run_with(seed, Kernel::Cycle),
            sim.run_with(seed, Kernel::Event),
            "{cell}"
        );
    });
}

#[test]
fn barrier_zero_delay_polls_untraced_matches_traced() {
    // A traced run takes the event kernel's full path (every poll miss
    // resolved); the untraced run only draws for the misses. The ring is
    // small: the run, not the trace, is compared.
    for_each_zero_delay_poll_cell(|sim, seed, cell| {
        let mut ring = Ring::new(1 << 10);
        assert_eq!(
            sim.run_traced_with(seed, &mut ring, Kernel::Event),
            sim.run_with(seed, Kernel::Event),
            "{cell}"
        );
    });
}

#[test]
fn barrier_writer_stretch_bit_identical() {
    // Untraced, the event kernel draws through the stretch from the last
    // variable win to the flag write, taking the writer's rank once per
    // run of cycles between wake-ups. Variable waits of a fixed offset
    // (factor 0) or of one cycle per later winner plus an offset wake
    // some pollers while the writer is pending, so a stretch is cut
    // short and restarted with a larger set; the 300-cycle offset parks
    // those wake-ups in the wheel's far tier. Traced, the kernel
    // resolves every poll miss instead.
    let policies = [
        BackoffPolicy::None,
        BackoffPolicy::OnVariable {
            factor: 0,
            offset: 4,
        },
        BackoffPolicy::OnVariable {
            factor: 0,
            offset: 40,
        },
        BackoffPolicy::OnVariable {
            factor: 1,
            offset: 100,
        },
        BackoffPolicy::OnVariable {
            factor: 0,
            offset: 300,
        },
    ];
    for policy in policies {
        for n in [1usize, 2, 17, 64, 257] {
            for a in [0u64, 100, 1000] {
                let sim = BarrierSim::new(
                    BarrierConfig::new(n, a).with_arbitration(Arbitration::Random),
                    policy,
                );
                for s in 0..3u64 {
                    let seed = derive_seed(0x5E7C, (n as u64) << 40 | a << 8 | s);
                    let cell = format!("{policy:?} N={n} A={a} seed={seed}");
                    let untraced = sim.run_with(seed, Kernel::Event);
                    assert_eq!(sim.run_with(seed, Kernel::Cycle), untraced, "{cell}");
                    let mut ring = Ring::new(1 << 10);
                    assert_eq!(
                        sim.run_traced_with(seed, &mut ring, Kernel::Event),
                        untraced,
                        "{cell}"
                    );
                }
            }
        }
    }
}

#[test]
fn property_barrier_kernels_bit_identical() {
    let policies = barrier_policies();
    forall!(Config::with_cases(96), (
        seed in check::any_u64(),
        policy_ix in check::usize_in(0..8),
        arb_ix in check::usize_in(0..3),
        n in check::usize_in(1..129),
        a in check::u64_in(0..=1500),
    ) {
        let cfg = BarrierConfig::new(n, a).with_arbitration(Arbitration::ALL[arb_ix]);
        let sim = BarrierSim::new(cfg, policies[policy_ix]);
        assert_eq!(sim.run_with(seed, Kernel::Cycle), sim.run_with(seed, Kernel::Event));
    });
}

#[test]
fn barrier_traces_bit_identical() {
    for policy in [
        BackoffPolicy::None,
        BackoffPolicy::exponential(2),
        BackoffPolicy::QueueOnThreshold {
            base: 2,
            threshold: 64,
            wake_cost: 100,
        },
    ] {
        for arb in Arbitration::ALL {
            let sim =
                BarrierSim::new(BarrierConfig::new(64, 1000).with_arbitration(arb), policy);
            let mut cycle_ring = Ring::new(1 << 20);
            let mut event_ring = Ring::new(1 << 20);
            let a = sim.run_traced_with(3, &mut cycle_ring, Kernel::Cycle);
            let b = sim.run_traced_with(3, &mut event_ring, Kernel::Event);
            assert_eq!(a, b, "{policy:?} {arb:?}");
            let cycle_events = cycle_ring.into_events();
            let event_events = event_ring.into_events();
            assert_eq!(cycle_events, event_events, "{policy:?} {arb:?}");
            assert!(!cycle_events.is_empty());
        }
    }
}

#[test]
fn packet_exhaustive_policies_bit_identical() {
    let cfg = PacketConfig {
        log2_size: 4,
        queue_capacity: 4,
        injection_rate: 0.6,
        hot_fraction: 0.4,
        warmup_cycles: 300,
        measure_cycles: 3_000,
        memory_service_cycles: 2,
        max_outstanding: 2,
    };
    // 16 ports fit one bitset word; 128 ports span two, so the event
    // kernel's ascending scans cross a word boundary.
    for (log2_size, seeds) in [(4, 0..3u64), (7, 0..1u64)] {
        let cfg = PacketConfig { log2_size, ..cfg };
        for policy in packet_policies() {
            let sim = PacketSim::new(cfg, policy);
            for seed in seeds.clone() {
                assert_eq!(
                    sim.run_with(seed, Kernel::Cycle),
                    sim.run_with(seed, Kernel::Event),
                    "{policy:?} log2_size={log2_size} seed={seed}"
                );
            }
        }
    }
}

#[test]
fn property_packet_kernels_bit_identical() {
    let policies = packet_policies();
    forall!(Config::with_cases(48), (
        seed in check::any_u64(),
        policy_ix in check::usize_in(0..6),
        rate in check::f64_in(0.0..1.0),
        hot in check::f64_in(0.0..0.9),
        outstanding in check::usize_in(1..5),
    ) {
        let cfg = PacketConfig {
            log2_size: 3,
            queue_capacity: 4,
            injection_rate: rate,
            hot_fraction: hot,
            warmup_cycles: 100,
            measure_cycles: 1_500,
            memory_service_cycles: 2,
            max_outstanding: u32::try_from(outstanding).unwrap(),
        };
        let sim = PacketSim::new(cfg, policies[policy_ix]);
        assert_eq!(sim.run_with(seed, Kernel::Cycle), sim.run_with(seed, Kernel::Event));
    });
}

#[test]
fn combining_exhaustive_grid_bit_identical() {
    // Every policy variant × every arbitration mode × tree shapes covering
    // degree-2/4/8, a non-power-of-degree N, the degenerate N = 1, and
    // 24-wide leaves under a 2-wide root: leaf sets on `PendingSet`'s word
    // index and the root on its sorted vector, in one small tree.
    for policy in barrier_policies() {
        for arb in Arbitration::ALL {
            for (n, a, degree) in [
                (48usize, 400u64, 4usize),
                (17, 0, 2),
                (256, 100, 8),
                (1, 10, 2),
                (48, 100, 24),
            ] {
                let sim = CombiningTreeSim::new(
                    CombiningConfig::new(n, a, degree).with_arbitration(arb),
                    policy,
                );
                for seed in 0..2u64 {
                    assert_eq!(
                        sim.run_with(seed, Kernel::Cycle),
                        sim.run_with(seed, Kernel::Event),
                        "{policy:?} {arb:?} N={n} A={a} d={degree} seed={seed}"
                    );
                }
            }
        }
    }
}

#[test]
fn combining_zero_delay_polls_bit_identical() {
    // Under random arbitration and a policy that re-polls at once, a node
    // whose flag is unset and that has no releaser pending only draws for
    // its flag module. Releasers arrive at a node from the root down, so
    // deep trees (degree 2) and wide ones (degree 8) end those stretches
    // at different depths.
    for policy in zero_delay_poll_policies() {
        for n in [17usize, 64, 100, 256] {
            for degree in 2..=8usize {
                for a in [0u64, 100, 1000] {
                    let sim = CombiningTreeSim::new(
                        CombiningConfig::new(n, a, degree).with_arbitration(Arbitration::Random),
                        policy,
                    );
                    let seed = derive_seed(0xC0FE, (n as u64) << 40 | (degree as u64) << 20 | a);
                    assert_eq!(
                        sim.run_with(seed, Kernel::Cycle),
                        sim.run_with(seed, Kernel::Event),
                        "{policy:?} N={n} A={a} d={degree} seed={seed}"
                    );
                }
            }
        }
    }
}

#[test]
fn combining_fenwick_width_bit_identical() {
    // Nodes 1100–2048 wide: word-index sets whose id space spans many
    // Fenwick levels, which the degree ≤ 24 grid above never reaches.
    // The last cell's final leaf holds 600, and its root 5.
    let cells = [
        (4096usize, 2048usize, BackoffPolicy::None, Arbitration::Random, 0u64),
        (8192, 1500, BackoffPolicy::exponential(2), Arbitration::RoundRobin, 1000),
        (5000, 1100, BackoffPolicy::exponential(8), Arbitration::OldestFirst, 1000),
    ];
    for (n, degree, policy, arb, a) in cells {
        let sim = CombiningTreeSim::new(
            CombiningConfig::new(n, a, degree).with_arbitration(arb),
            policy,
        );
        let seed = derive_seed(0xC0DE, (n as u64) << 32 | degree as u64);
        assert_eq!(
            sim.run_with(seed, Kernel::Cycle),
            sim.run_with(seed, Kernel::Event),
            "{policy:?} {arb:?} N={n} A={a} d={degree} seed={seed}"
        );
    }
}

#[test]
fn property_combining_kernels_bit_identical() {
    let policies = barrier_policies();
    forall!(Config::with_cases(64), (
        seed in check::any_u64(),
        policy_ix in check::usize_in(0..8),
        arb_ix in check::usize_in(0..3),
        n in check::usize_in(1..97),
        a in check::u64_in(0..=800),
        degree in check::usize_in(2..9),
    ) {
        let cfg = CombiningConfig::new(n, a, degree)
            .with_arbitration(Arbitration::ALL[arb_ix]);
        let sim = CombiningTreeSim::new(cfg, policies[policy_ix]);
        assert_eq!(sim.run_with(seed, Kernel::Cycle), sim.run_with(seed, Kernel::Event));
    });
}

/// One representative of every `ResourcePolicy` variant.
fn resource_policies() -> [ResourcePolicy; 4] {
    [
        ResourcePolicy::None,
        ResourcePolicy::Exponential { base: 2, cap: 512 },
        ResourcePolicy::Exponential { base: 8, cap: 64 },
        ResourcePolicy::ProportionalWaiters { hold_estimate: 20 },
    ]
}

#[test]
fn resource_exhaustive_grid_bit_identical() {
    for policy in resource_policies() {
        for arb in Arbitration::ALL {
            for (n, a, hold) in [(16usize, 0u64, 20u64), (24, 300, 10), (1, 50, 5), (64, 0, 1)] {
                let sim =
                    ResourceSim::new(ResourceConfig::new(n, a, hold).with_arbitration(arb), policy);
                for seed in 0..2u64 {
                    assert_eq!(
                        sim.run_with(seed, Kernel::Cycle),
                        sim.run_with(seed, Kernel::Event),
                        "{policy:?} {arb:?} N={n} A={a} hold={hold} seed={seed}"
                    );
                }
            }
        }
    }
}

#[test]
fn property_resource_kernels_bit_identical() {
    let policies = resource_policies();
    forall!(Config::with_cases(64), (
        seed in check::any_u64(),
        policy_ix in check::usize_in(0..4),
        arb_ix in check::usize_in(0..3),
        n in check::usize_in(1..65),
        a in check::u64_in(0..=500),
        hold in check::u64_in(1..=40),
    ) {
        let cfg = ResourceConfig::new(n, a, hold).with_arbitration(Arbitration::ALL[arb_ix]);
        let sim = ResourceSim::new(cfg, policies[policy_ix]);
        assert_eq!(sim.run_with(seed, Kernel::Cycle), sim.run_with(seed, Kernel::Event));
    });
}

/// Arrival spans where the wheel's arrival stream meets its scheduled
/// wake-ups: arrivals spread over one cycle or a few land on the cycles of
/// the first backoff expiries, and spans around `TimeWheel::SLOTS` (256)
/// put the last arrivals on the cycles where far wake-ups migrate into
/// the near slots.
const MERGE_SPANS: [u64; 5] = [1, 5, 255, 256, 257];

/// Runs `cell(n, a, arbitration, seed)` for N = 8, 24 and 64, every
/// merge span, every arbitration mode (rotated over `policy_ix`), and two
/// seeds.
fn for_merge_cells(policy_ix: usize, mut cell: impl FnMut(usize, u64, Arbitration, u64)) {
    for (i, n) in [8usize, 24, 64].into_iter().enumerate() {
        let arb = Arbitration::ALL[(policy_ix + i) % Arbitration::ALL.len()];
        for a in MERGE_SPANS {
            for seed in 0..2u64 {
                cell(n, a, arb, derive_seed(0x3E46E, (n as u64) << 32 | a) ^ seed);
            }
        }
    }
}

#[test]
fn barrier_arrival_merge_bit_identical() {
    for (ix, policy) in barrier_policies().into_iter().enumerate() {
        for_merge_cells(ix, |n, a, arb, seed| {
            let sim = BarrierSim::new(BarrierConfig::new(n, a).with_arbitration(arb), policy);
            assert_eq!(
                sim.run_with(seed, Kernel::Cycle),
                sim.run_with(seed, Kernel::Event),
                "{policy:?} {arb:?} N={n} A={a} seed={seed}"
            );
        });
    }
}

#[test]
fn combining_arrival_merge_bit_identical() {
    for (ix, policy) in barrier_policies().into_iter().enumerate() {
        for_merge_cells(ix, |n, a, arb, seed| {
            // Degrees 2, 3 and 8 for N = 8, 24 and 64.
            let degree = (n / 8).clamp(2, 8);
            let sim = CombiningTreeSim::new(
                CombiningConfig::new(n, a, degree).with_arbitration(arb),
                policy,
            );
            assert_eq!(
                sim.run_with(seed, Kernel::Cycle),
                sim.run_with(seed, Kernel::Event),
                "{policy:?} {arb:?} N={n} A={a} d={degree} seed={seed}"
            );
        });
    }
}

#[test]
fn resource_arrival_merge_bit_identical() {
    for (ix, policy) in resource_policies().into_iter().enumerate() {
        for_merge_cells(ix, |n, a, arb, seed| {
            let sim = ResourceSim::new(ResourceConfig::new(n, a, 5).with_arbitration(arb), policy);
            assert_eq!(
                sim.run_with(seed, Kernel::Cycle),
                sim.run_with(seed, Kernel::Event),
                "{policy:?} {arb:?} N={n} A={a} seed={seed}"
            );
        });
    }
}

#[test]
fn circuit_exhaustive_policies_bit_identical() {
    let configs = [
        // Moderate hot-spot load.
        CircuitConfig {
            log2_size: 4,
            hold_cycles: 4,
            request_rate: 0.4,
            hot_fraction: 0.3,
            warmup_cycles: 300,
            measure_cycles: 3_000,
        },
        // Saturated: the event kernel's skip-ahead regime.
        CircuitConfig {
            log2_size: 4,
            hold_cycles: 8,
            request_rate: 0.95,
            hot_fraction: 0.8,
            warmup_cycles: 300,
            measure_cycles: 3_000,
        },
        // Tiny network, light load.
        CircuitConfig {
            log2_size: 1,
            hold_cycles: 2,
            request_rate: 0.05,
            hot_fraction: 0.0,
            warmup_cycles: 300,
            measure_cycles: 3_000,
        },
    ];
    for policy in packet_policies() {
        for cfg in configs {
            let sim = CircuitSim::new(cfg, policy);
            for seed in 0..3u64 {
                assert_eq!(
                    sim.run_with(seed, Kernel::Cycle),
                    sim.run_with(seed, Kernel::Event),
                    "{policy:?} {cfg:?} seed={seed}"
                );
            }
        }
    }
}

#[test]
fn property_circuit_kernels_bit_identical() {
    let policies = packet_policies();
    forall!(Config::with_cases(48), (
        seed in check::any_u64(),
        policy_ix in check::usize_in(0..6),
        log2_size in check::usize_in(1..5),
        rate in check::f64_in(0.0..1.0),
        hot in check::f64_in(0.0..0.9),
        hold in check::u64_in(1..=10),
    ) {
        let cfg = CircuitConfig {
            log2_size: u32::try_from(log2_size).unwrap(),
            hold_cycles: hold,
            request_rate: rate,
            hot_fraction: hot,
            warmup_cycles: 100,
            measure_cycles: 1_500,
        };
        let sim = CircuitSim::new(cfg, policies[policy_ix]);
        assert_eq!(sim.run_with(seed, Kernel::Cycle), sim.run_with(seed, Kernel::Event));
    });
}

#[test]
fn packet_traces_bit_identical() {
    let cfg = PacketConfig {
        log2_size: 4,
        queue_capacity: 4,
        injection_rate: 0.7,
        hot_fraction: 0.5,
        warmup_cycles: 100,
        measure_cycles: 1_500,
        memory_service_cycles: 2,
        max_outstanding: 4,
    };
    for policy in packet_policies() {
        let sim = PacketSim::new(cfg, policy);
        let mut cycle_ring = Ring::new(1 << 21);
        let mut event_ring = Ring::new(1 << 21);
        let a = sim.run_traced_with(5, &mut cycle_ring, Kernel::Cycle);
        let b = sim.run_traced_with(5, &mut event_ring, Kernel::Event);
        assert_eq!(a, b, "{policy:?}");
        assert_eq!(cycle_ring.into_events(), event_ring.into_events(), "{policy:?}");
    }
}

#[test]
fn openloop_zero_delay_spins_bit_identical() {
    // Under a policy that re-polls at once, the event kernel schedules an
    // admitted flag spin straight at its win cycle and charges the skipped
    // misses at the win, or at the end for a spin that outlives the
    // horizon. Flag shapes: the default 32/4 window, an odd period with a
    // one-cycle window, and a flag that is always set. The short horizon
    // leaves spins waiting at the end; the check below makes sure some do.
    let policies = [
        BackoffPolicy::None,
        BackoffPolicy::on_variable(),
        BackoffPolicy::exponential(2),
        BackoffPolicy::Linear { step: 0 },
    ];
    let mut truncated_spins = 0usize;
    for backoff in policies {
        for (flag_period, flag_duty) in [(32u64, 4u64), (7, 1), (5, 5)] {
            for procs in [3usize, 16, 64] {
                for mean_gap in [1.5f64, 12.0] {
                    let cfg = LoadConfig {
                        procs,
                        vars: 3,
                        horizon: 613,
                        backoff,
                        flag_period,
                        flag_duty,
                        ..LoadConfig::default()
                    };
                    let tenants = vec![
                        Tenant {
                            weight: 2,
                            arrival: Arrival::poisson(mean_gap),
                            op_mix: OpMix { faa: 1, spin: 4, rmw: 1 },
                            work: 3,
                        },
                        Tenant {
                            weight: 1,
                            arrival: Arrival::bursty(4.0, mean_gap / 2.0, 60.0),
                            op_mix: OpMix::EVEN,
                            work: 9,
                        },
                    ];
                    let sim = OpenLoopSim::new(cfg, tenants);
                    let cell = format!("{backoff:?} flag {flag_duty}/{flag_period} P={procs} gap={mean_gap}");
                    for seed in 0..2u64 {
                        assert_eq!(
                            sim.run_with(seed, Kernel::Cycle),
                            sim.run_with(seed, Kernel::Event),
                            "{cell} seed={seed}"
                        );
                        let mut cycle_ring = Ring::new(1 << 20);
                        let mut event_ring = Ring::new(1 << 20);
                        let a = sim.run_traced_with(seed, &mut cycle_ring, Kernel::Cycle);
                        let b = sim.run_traced_with(seed, &mut event_ring, Kernel::Event);
                        assert_eq!(a, b, "{cell} seed={seed} traced");
                        assert_eq!(cycle_ring.dropped(), 0, "{cell}");
                        let events = event_ring.into_events();
                        assert_eq!(cycle_ring.into_events(), events, "{cell} seed={seed} trace");
                        truncated_spins += events
                            .windows(2)
                            .filter(|w| w[0].name == "truncated" && w[1].name == "spin")
                            .count();
                    }
                }
            }
        }
    }
    assert!(truncated_spins > 0, "no spin outlived a horizon");
}
