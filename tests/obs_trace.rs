//! Observability-layer invariants, from the facade's point of view:
//! tracing must never perturb simulation results, and exported traces must
//! round-trip through the in-tree JSON model.

use adaptive_backoff::core::{BackoffPolicy, BarrierConfig, BarrierSim};
use adaptive_backoff::exec::json::Value;
use adaptive_backoff::net::{NetworkBackoff, PacketConfig, PacketSim};
use adaptive_backoff::obs::chrome::{sim_lane_events, validate, ChromeTrace, WALL_PID};
use adaptive_backoff::obs::trace::{Event, Phase, Ring, TraceSink};
use adaptive_backoff::sim::check::{self, Config};
use adaptive_backoff::sim::forall;

fn cases() -> Config {
    Config::with_cases(32)
}

#[test]
fn barrier_results_identical_with_recording_sink() {
    forall!(cases(), (
        seed in check::any_u64(),
        n in check::usize_in(1..96),
        span in check::u64_in(0..=2_000),
        policy_idx in check::usize_in(0..5),
    ) {
        let policy = BackoffPolicy::figure_policies()[policy_idx];
        let sim = BarrierSim::new(BarrierConfig::new(n, span), policy);
        let mut ring = Ring::default();
        let traced = sim.run_traced(seed, &mut ring);
        assert_eq!(traced, sim.run(seed), "n={n} span={span} policy={policy:?}");
    });
}

#[test]
fn packet_results_identical_with_recording_sink() {
    forall!(Config::with_cases(8), (
        seed in check::any_u64(),
        hot in check::f64_in(0.0..0.5),
    ) {
        let config = PacketConfig {
            log2_size: 4,
            hot_fraction: hot,
            warmup_cycles: 100,
            measure_cycles: 1_000,
            memory_service_cycles: 2,
            max_outstanding: 4,
            ..PacketConfig::default()
        };
        let sim = PacketSim::new(config, NetworkBackoff::QueueFeedback { factor: 8 });
        let mut ring = Ring::default();
        assert_eq!(sim.run_traced(seed, &mut ring), sim.run(seed));
    });
}

#[test]
fn barrier_trace_spans_are_balanced_per_lane() {
    forall!(cases(), (
        seed in check::any_u64(),
        n in check::usize_in(1..48),
        span in check::u64_in(0..=500),
    ) {
        let sim = BarrierSim::new(BarrierConfig::new(n, span), BackoffPolicy::exponential(2));
        let mut ring = Ring::default();
        sim.run_traced(seed, &mut ring);
        for tid in 0..u32::try_from(n).unwrap() {
            let mut depth = 0i64;
            for e in ring.events().iter().filter(|e| e.tid == tid) {
                match e.phase {
                    Phase::Begin => depth += 1,
                    Phase::End => {
                        depth -= 1;
                        assert!(depth >= 0, "unbalanced End on lane {tid} (seed {seed})");
                    }
                    _ => {}
                }
            }
            assert_eq!(depth, 0, "unclosed span on lane {tid} (seed {seed})");
        }
    });
}

#[test]
fn exported_trace_roundtrips_and_validates() {
    let sim = BarrierSim::new(BarrierConfig::new(16, 300), BackoffPolicy::exponential(2));
    let mut ring = Ring::default();
    sim.run_traced(42, &mut ring);

    let mut trace = ChromeTrace::new();
    trace.add_unit(1, "episode", ring.into_events());
    // A synthetic wall lane, as the repro binary would append.
    let mut wall = Event::sim(0, 10.0, Phase::Instant, "wall");
    wall.pid = WALL_PID;
    trace.name_process(WALL_PID, "workers");
    trace.push_events(vec![wall]);

    let rendered = trace.render();
    let parsed = Value::parse(&rendered).expect("exported trace must be valid JSON");
    assert_eq!(parsed, trace.to_value(), "render/parse must round-trip");
    validate(&parsed).expect("exported trace must validate");

    // The sim-lane filter drops exactly the wall rows.
    let sim_rows = sim_lane_events(&parsed).unwrap();
    let all = parsed.get("traceEvents").unwrap().as_array().unwrap().len();
    assert_eq!(sim_rows.as_array().unwrap().len(), all - 2); // wall event + wall process_name
}

#[test]
fn sim_lane_bytes_independent_of_recording_order_interleaving() {
    // Two rings recording the same episode produce identical event streams;
    // the exporter is a pure function of those streams.
    let sim = BarrierSim::new(BarrierConfig::new(32, 1_000), BackoffPolicy::exponential(4));
    let render = || {
        let mut ring = Ring::default();
        sim.run_traced(7, &mut ring);
        let mut trace = ChromeTrace::new();
        trace.add_unit(1, "episode", ring.into_events());
        trace.render()
    };
    assert_eq!(render(), render());
}

#[test]
fn disabled_sink_records_nothing() {
    use adaptive_backoff::obs::trace::Noop;
    let mut noop = Noop;
    assert!(!noop.enabled());
    // The recording entry point with a Noop sink is the public `run`.
    let sim = BarrierSim::new(BarrierConfig::new(8, 100), BackoffPolicy::None);
    assert_eq!(sim.run_traced(3, &mut noop), sim.run(3));
}
