//! The trace-file determinism contract: simulated-clock lanes are
//! byte-identical for a fixed seed at any `--jobs` count, because traced
//! units are a pure function of `(exhibit id, config)` and are assembled
//! in request order.

use abs_bench::render::{assemble_sim_trace, render_one};
use abs_bench::ReproConfig;
use abs_exec::json::Value;
use abs_exec::{Engine, ExecConfig, JobSet};
use abs_obs::chrome::{exec_report_lanes, sim_lane_events, validate, WALL_PID};
use abs_obs::trace::Event;

/// Renders the requested exhibits exactly as the repro binary does at the
/// given `--jobs` value and returns the assembled sim-lane document bytes.
fn sim_trace_bytes(targets: &[&str], jobs: usize) -> String {
    sim_trace_bytes_with(targets, jobs, ReproConfig::quick())
}

fn sim_trace_bytes_with(targets: &[&str], jobs: usize, config: ReproConfig) -> String {
    let (pool_workers, inner_jobs) = if targets.len() <= 1 {
        (1, jobs)
    } else {
        (jobs.min(targets.len()), 1)
    };
    let inner_config = config.with_jobs(inner_jobs);

    let mut set = JobSet::new(config.seed);
    for id in targets {
        let id = id.to_string();
        set.push_seeded(id.clone(), config.seed, move |_| {
            render_one(&id, &inner_config, true)
        });
    }
    let report = Engine::new(ExecConfig::new(pool_workers)).run(set);
    assert!(report.is_success());

    let mut units: Vec<(String, Vec<Event>)> = Vec::new();
    for outcome in &report.outcomes {
        #[expect(clippy::unwrap_used, reason = "the run succeeded, as asserted above")]
        let rendered = outcome.result.as_ref().unwrap();
        for (unit, events) in &rendered.trace {
            units.push((format!("{}: {unit}", outcome.name), events.clone()));
        }
    }
    assemble_sim_trace(units).render()
}

#[test]
fn fig7_sim_lanes_byte_identical_across_jobs() {
    let one = sim_trace_bytes(&["fig7"], 1);
    let eight = sim_trace_bytes(&["fig7"], 8);
    assert_eq!(one, eight, "sim lanes must not depend on --jobs");
    validate(&Value::parse(&one).unwrap()).unwrap();
}

#[test]
fn multi_exhibit_sim_lanes_byte_identical_across_jobs() {
    // Multiple exhibits exercise the outer (exhibit-level) fan-out path.
    let targets = ["fig4", "fig7", "netback"];
    let one = sim_trace_bytes(&targets, 1);
    let eight = sim_trace_bytes(&targets, 8);
    assert_eq!(one, eight);
}

#[test]
fn sim_lanes_byte_identical_across_kernels() {
    // The event kernel's trace contract is byte-level: the rendered
    // Chrome-trace document must be identical to the cycle oracle's, for
    // both the barrier and the packet substrates.
    use abs_sim::Kernel;
    let targets = ["fig7", "netback"];
    let cycle = sim_trace_bytes_with(&targets, 2, ReproConfig::quick().with_kernel(Kernel::Cycle));
    let event = sim_trace_bytes_with(&targets, 2, ReproConfig::quick().with_kernel(Kernel::Event));
    assert_eq!(cycle, event, "kernels must render identical sim lanes");
    validate(&Value::parse(&cycle).unwrap()).unwrap();
}

#[test]
fn skip_heavy_packet_trace_byte_identical_across_kernels() {
    // A blocking-processor population under heavy exponential backoff
    // spends most cycles with an empty network — the cycles the event
    // kernel skips. With a sink attached it must bulk-emit the skipped
    // cycles' all-zero counter rows, so the rendered Chrome document is
    // still byte-identical to the cycle oracle's.
    use abs_net::backoff::NetworkBackoff;
    use abs_net::packet::{PacketConfig, PacketSim};
    use abs_obs::trace::Ring;
    use abs_sim::Kernel;

    let cfg = PacketConfig {
        log2_size: 4,
        queue_capacity: 4,
        injection_rate: 1.0,
        hot_fraction: 0.8,
        warmup_cycles: 200,
        measure_cycles: 3_000,
        memory_service_cycles: 4,
        max_outstanding: 1,
    };
    let sim = PacketSim::new(cfg, NetworkBackoff::ExponentialRetries { base: 4, cap: 4096 });
    let render = |kernel: Kernel| {
        let mut ring = Ring::new(1 << 20);
        sim.run_traced_with(5, &mut ring, kernel);
        assemble_sim_trace(vec![("netback: skip-heavy".to_string(), ring.into_events())]).render()
    };
    let cycle = render(Kernel::Cycle);
    let event = render(Kernel::Event);
    assert_eq!(cycle, event, "kernels must render identical skip-heavy traces");
    validate(&Value::parse(&cycle).unwrap()).unwrap();
}

#[test]
fn full_document_with_wall_lanes_still_validates_and_filters() {
    let config = ReproConfig::quick();
    let mut set = JobSet::new(config.seed);
    for id in ["fig4", "table1"] {
        let id = id.to_string();
        let cfg = config;
        set.push_seeded(id.clone(), config.seed, move |_| render_one(&id, &cfg, true));
    }
    let report = Engine::new(ExecConfig::new(2)).run(set);
    assert!(report.is_success());

    let mut units: Vec<(String, Vec<Event>)> = Vec::new();
    for outcome in &report.outcomes {
        for (unit, events) in &outcome.result.as_ref().unwrap().trace {
            units.push((format!("{}: {unit}", outcome.name), events.clone()));
        }
    }
    let mut trace = assemble_sim_trace(units);
    trace.name_process(WALL_PID, "abs-exec workers (wall clock)");
    let (wall_events, wall_lanes) = exec_report_lanes(&report);
    for (tid, name) in wall_lanes {
        trace.name_thread(WALL_PID, tid, name);
    }
    trace.push_events(wall_events);

    let doc = Value::parse(&trace.render()).unwrap();
    validate(&doc).unwrap();
    // The wall lanes exist in the full document but are excluded from the
    // deterministic subset.
    let rows = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert!(rows
        .iter()
        .any(|r| r.get("pid").unwrap().as_f64() == Some(f64::from(WALL_PID))));
    let sim = sim_lane_events(&doc).unwrap();
    assert!(sim
        .as_array()
        .unwrap()
        .iter()
        .all(|r| r.get("pid").unwrap().as_f64() != Some(f64::from(WALL_PID))));
}
