//! Kernel equivalence for the network and open-loop simulators at the
//! exact configurations the repository benchmark's `net_openloop` workload
//! runs (`netback`, `loadsweep` ×4 and `fairness` ×16), plus the closed-form
//! Omega routing every one of them now relies on.
//!
//! `Kernel::Cycle` is the reference stepper; `Kernel::Event` must match it
//! outcome for outcome. The broad randomized sweeps live in
//! `abs-bench`'s `kernel_equivalence` suite; this file pins the benchmark
//! points in the tier-1 gate.

use adaptive_backoff::core::BackoffPolicy;
use adaptive_backoff::load::{Arrival, LoadConfig, OpMix, OpenLoopSim, Tenant};
use adaptive_backoff::net::{
    CircuitConfig, CircuitSim, NetworkBackoff, OmegaTopology, PacketConfig, PacketSim,
};
use adaptive_backoff::sim::kernel::Kernel;
use adaptive_backoff::trace::sched::SchedKind;

/// The paper seed and the held-out seed of the benchmark's goldens.
const SEEDS: [u64; 2] = [0x1989_0605, 0x2307_1024];

/// The `loadsweep` tenant population, its arrival rates scaled by
/// `permille / 1000`.
fn population(permille: u32) -> Vec<Tenant> {
    const TENANTS: usize = 4;
    let scale = f64::from(permille) / 1_000.0;
    (0..TENANTS)
        .map(|t| {
            let gap = 60.0 + 25.0 * t as f64;
            let arrival = match t % 3 {
                0 => Arrival::poisson(gap),
                1 => Arrival::bursty(6.0, gap / 8.0, 3.0 * gap),
                _ => Arrival::diurnal(4_096, vec![gap, gap / 2.0, 2.0 * gap]),
            };
            Tenant {
                weight: (TENANTS - t) as u64,
                arrival: arrival.scaled(scale),
                op_mix: if t % 2 == 0 { OpMix::EVEN } else { OpMix::FAA },
                work: 3 + 2 * (t as u64 % 3),
            }
        })
        .collect()
}

#[test]
fn circuit_kernels_agree_at_the_netback_point() {
    let cfg = CircuitConfig {
        log2_size: 5,
        hold_cycles: 4,
        request_rate: 0.4,
        hot_fraction: 0.3,
        warmup_cycles: 500,
        measure_cycles: 5_000,
    };
    for policy in [
        NetworkBackoff::None,
        NetworkBackoff::DepthProportional { factor: 4 },
        NetworkBackoff::InverseDepth { factor: 4 },
        NetworkBackoff::ConstantRtt { rtt: 8 },
        NetworkBackoff::ExponentialRetries { base: 2, cap: 256 },
    ] {
        let sim = CircuitSim::new(cfg, policy);
        for seed in SEEDS {
            let cycle = sim.run_with(seed, Kernel::Cycle);
            assert!(cycle.completed > 0, "{policy:?}: {cycle:?}");
            assert_eq!(
                cycle,
                sim.run_with(seed, Kernel::Event),
                "{policy:?} seed {seed:#x}"
            );
        }
    }
}

#[test]
fn packet_kernels_agree_at_the_netback_point() {
    let cfg = PacketConfig {
        log2_size: 5,
        queue_capacity: 4,
        injection_rate: 0.9,
        hot_fraction: 0.5,
        warmup_cycles: 500,
        measure_cycles: 5_000,
        memory_service_cycles: 2,
        max_outstanding: 4,
    };
    for policy in [
        NetworkBackoff::None,
        NetworkBackoff::QueueFeedback { factor: 8 },
    ] {
        let sim = PacketSim::new(cfg, policy);
        for seed in SEEDS {
            let cycle = sim.run_with(seed, Kernel::Cycle);
            assert!(cycle.delivered > 0, "{policy:?}: {cycle:?}");
            assert_eq!(
                cycle,
                sim.run_with(seed, Kernel::Event),
                "{policy:?} seed {seed:#x}"
            );
        }
    }
}

#[test]
fn open_loop_kernels_agree_at_loadsweep_x4() {
    for backoff in BackoffPolicy::figure_policies() {
        let config = LoadConfig {
            procs: 64,
            horizon: 8_000,
            sched: SchedKind::default(),
            backoff,
            ..LoadConfig::default()
        };
        let sim = OpenLoopSim::new(config, population(4_000));
        for seed in SEEDS {
            let cycle = sim.run_with(seed, Kernel::Cycle);
            assert!(cycle.completed > 0, "{backoff:?}: {cycle:?}");
            assert_eq!(
                cycle,
                sim.run_with(seed, Kernel::Event),
                "{backoff:?} seed {seed:#x}"
            );
        }
    }
}

#[test]
fn open_loop_kernels_agree_at_fairness_x16() {
    for sched in SchedKind::ALL {
        let config = LoadConfig {
            procs: 16,
            horizon: 8_000,
            sched,
            backoff: BackoffPolicy::None,
            ..LoadConfig::default()
        };
        let sim = OpenLoopSim::new(config, population(16_000));
        for seed in SEEDS {
            let cycle = sim.run_with(seed, Kernel::Cycle);
            assert!(
                cycle.tenants.iter().all(|t| t.completed > 0),
                "{sched:?}: {cycle:?}"
            );
            assert_eq!(
                cycle,
                sim.run_with(seed, Kernel::Event),
                "{sched:?} seed {seed:#x}"
            );
        }
    }
}

#[test]
fn closed_form_port_matches_the_shuffle_exchange_path() {
    for k in 1..=8 {
        let net = OmegaTopology::new(k);
        for src in 0..net.size() {
            for dst in 0..net.size() {
                let path = net.path(src, dst);
                for (s, &port) in path.iter().enumerate() {
                    assert_eq!(
                        net.port(src, dst, s),
                        port,
                        "k {k} src {src} dst {dst} stage {s}"
                    );
                }
            }
        }
    }
}
