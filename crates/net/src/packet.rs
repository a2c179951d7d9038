//! Packet-switched Omega-network simulator with finite queues.
//!
//! This substrate demonstrates the phenomenon that motivates the whole
//! paper: *tree saturation*. When even a small fraction of traffic targets
//! one hot memory module, the module's input queue fills, backs up into the
//! switch queues feeding it, and eventually blocks traffic that never goes
//! anywhere near the hot module (Pfister–Norton). It also implements the
//! Scott–Sohi extension the paper cites as backoff policy 5: memory-queue
//! lengths are fed back to processors, which postpone injections
//! proportionally.
//!
//! The model: each switch output port owns a FIFO of configurable capacity;
//! a packet advances at most one stage per cycle, at most one packet enters
//! a given queue per cycle, and each memory module consumes one packet per
//! cycle. Processors are closed-loop with a single outstanding request.
//!
//! # Kernels
//!
//! The simulator ships two bit-identical kernels selected by
//! [`abs_sim::Kernel`]: the reference cycle stepper ([`Kernel::Cycle`]),
//! which rescans every port at every stage each cycle, and the event-driven
//! kernel ([`Kernel::Event`]), which tracks per-stage occupancy and
//! idle-processor sets incrementally and — with tracing disabled — jumps
//! the clock over cycles where the network is empty and every processor is
//! backed off. Same RNG draw sequence, same [`PacketOutcome`], and with an
//! enabled sink the same trace bytes; the equivalence suite in `abs-bench`
//! enforces it.

use std::collections::VecDeque;

use abs_obs::trace::{lane, Noop, TraceSink};
use abs_sim::bitset::FixedBitset;
use abs_sim::kernel::Kernel;
use abs_sim::rng::Xoshiro256PlusPlus;
use abs_sim::stats::OnlineStats;

use crate::backoff::{CollisionInfo, NetworkBackoff};
use crate::hotspot::HotspotTraffic;
use crate::omega::OmegaTopology;

/// Configuration of a packet-switched simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketConfig {
    /// log₂ of the network size.
    pub log2_size: u32,
    /// Capacity of each switch-output FIFO.
    pub queue_capacity: usize,
    /// Probability an idle processor issues a request each cycle.
    pub injection_rate: f64,
    /// Fraction of requests directed at the hot module (module 0).
    pub hot_fraction: f64,
    /// Cycles before measurement starts.
    pub warmup_cycles: u64,
    /// Cycles measured.
    pub measure_cycles: u64,
    /// Cycles a memory module takes to serve one packet. With 1 the module
    /// keeps up with its link and queues only back up inside the switch
    /// stages; with 2+ the memory queue itself accumulates — the congestion
    /// signal Scott–Sohi feedback reads.
    pub memory_service_cycles: u64,
    /// Requests a processor may have in flight simultaneously. 1 models a
    /// blocking processor; larger values model pipelined/prefetching
    /// processors and generate real tree-saturation pressure.
    pub max_outstanding: u32,
}

impl Default for PacketConfig {
    fn default() -> Self {
        Self {
            log2_size: 6,
            queue_capacity: 4,
            injection_rate: 0.3,
            hot_fraction: 0.0,
            warmup_cycles: 2_000,
            measure_cycles: 20_000,
            memory_service_cycles: 1,
            max_outstanding: 1,
        }
    }
}

/// Aggregate results of a packet-switched run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PacketOutcome {
    /// Packets delivered in the measurement window.
    pub delivered: u64,
    /// Of those, packets addressed to the hot module.
    pub hot_delivered: u64,
    /// Of those, packets addressed elsewhere (background traffic).
    pub background_delivered: u64,
    /// Mean cycles from issue to delivery.
    pub avg_latency: f64,
    /// Injections blocked because the entry queue was full or lost
    /// arbitration.
    pub blocked_injections: u64,
    /// Delivered packets per processor per cycle.
    pub throughput_per_processor: f64,
    /// Background (non-hot) packets per processor per cycle — the metric
    /// that collapses under tree saturation.
    pub background_throughput: f64,
    /// Mean occupancy of the hot module's memory queue.
    pub avg_hot_queue: f64,
}

/// A packet in flight; its stage-`s` port is `topo.port(owner, dst, s)`.
#[derive(Debug, Clone, Copy)]
struct Packet {
    owner: usize,
    dst: usize,
    issued: u64,
}

/// A request waiting at its processor to be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingReq {
    dst: usize,
    issued: u64,
    retry_at: u64,
    retries: u32,
}

/// Static per-stage counter names, so counter emission never allocates.
/// Twelve stages covers every valid `log2_size` (a 4096-processor Omega
/// network); deeper stages are silently untraced.
const STAGE_DEPTH: [&str; 12] = [
    "stage0_depth",
    "stage1_depth",
    "stage2_depth",
    "stage3_depth",
    "stage4_depth",
    "stage5_depth",
    "stage6_depth",
    "stage7_depth",
    "stage8_depth",
    "stage9_depth",
    "stage10_depth",
    "stage11_depth",
];
const STAGE_COLLISIONS: [&str; 12] = [
    "stage0_collisions",
    "stage1_collisions",
    "stage2_collisions",
    "stage3_collisions",
    "stage4_collisions",
    "stage5_collisions",
    "stage6_collisions",
    "stage7_collisions",
    "stage8_collisions",
    "stage9_collisions",
    "stage10_collisions",
    "stage11_collisions",
];

/// The packet-switched network simulator.
///
/// # Examples
///
/// ```
/// use abs_net::packet::{PacketConfig, PacketSim};
/// use abs_net::backoff::NetworkBackoff;
///
/// let sim = PacketSim::new(
///     PacketConfig { measure_cycles: 2_000, warmup_cycles: 200, ..PacketConfig::default() },
///     NetworkBackoff::None,
/// );
/// let outcome = sim.run(7);
/// assert!(outcome.delivered > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketSim {
    config: PacketConfig,
    policy: NetworkBackoff,
}

impl PacketSim {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the injection rate is outside `[0, 1]`, the queue capacity
    /// is zero, or the network size is invalid.
    pub fn new(config: PacketConfig, policy: NetworkBackoff) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.injection_rate),
            "injection rate must lie in [0, 1]"
        );
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        assert!(
            config.memory_service_cycles > 0,
            "memory service time must be positive"
        );
        assert!(config.max_outstanding > 0, "max outstanding must be positive");
        let _ = OmegaTopology::new(config.log2_size);
        Self { config, policy }
    }

    /// The configuration in force.
    pub fn config(&self) -> &PacketConfig {
        &self.config
    }

    /// The backoff policy in force.
    pub fn policy(&self) -> NetworkBackoff {
        self.policy
    }

    /// Runs the simulation and returns aggregate statistics.
    pub fn run(&self, seed: u64) -> PacketOutcome {
        self.run_traced(seed, &mut Noop)
    }

    /// Runs the simulation under an explicit [`Kernel`].
    ///
    /// Both kernels are bit-identical; `Kernel::Cycle` is the reference
    /// oracle the equivalence suite checks `Kernel::Event` against.
    pub fn run_with(&self, seed: u64, kernel: Kernel) -> PacketOutcome {
        self.run_traced_with(seed, &mut Noop, kernel)
    }

    /// Runs the simulation, emitting a cycle-resolved trace into `sink`.
    ///
    /// Lane layout: per-cycle `hot_queue` and `stageN_depth` /
    /// `stageN_collisions` counters on `tid == 0`, and per-processor
    /// `blocked` / `throttled` instants on `tid == p`. Instrumentation
    /// never touches the RNG: `run(seed)` is exactly
    /// `run_traced(seed, &mut Noop)`.
    pub fn run_traced<S: TraceSink>(&self, seed: u64, sink: &mut S) -> PacketOutcome {
        self.run_traced_with(seed, sink, Kernel::default())
    }

    /// [`run_traced`](Self::run_traced) under an explicit [`Kernel`].
    pub fn run_traced_with<S: TraceSink>(
        &self,
        seed: u64,
        sink: &mut S,
        kernel: Kernel,
    ) -> PacketOutcome {
        match kernel {
            Kernel::Cycle => self.run_cycle_kernel(seed, sink),
            Kernel::Event => self.run_event_kernel(seed, sink),
        }
    }

    /// The reference cycle stepper: O(stages × ports) work per simulated
    /// cycle, scanning every port whether occupied or not.
    fn run_cycle_kernel<S: TraceSink>(&self, seed: u64, sink: &mut S) -> PacketOutcome {
        let topo = OmegaTopology::new(self.config.log2_size);
        let n = topo.size();
        let stages = topo.stages();
        #[expect(clippy::expect_used, reason = "PacketConfig construction validates hot_fraction")]
        let traffic = HotspotTraffic::new(n, self.config.hot_fraction, 0)
            .expect("validated hot fraction");
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);

        // queues[s][p]: FIFO at the output port p of stage s.
        let mut queues: Vec<Vec<VecDeque<Packet>>> =
            vec![vec![VecDeque::new(); n]; stages];
        let mut pending: Vec<Option<PendingReq>> = vec![None; n];
        let mut inflight: Vec<u32> = vec![0; n];

        let total = self.config.warmup_cycles + self.config.measure_cycles;
        let mut delivered = 0u64;
        let mut hot_delivered = 0u64;
        let mut blocked = 0u64;
        let mut latency = OnlineStats::new();
        let mut hot_queue_occupancy = OnlineStats::new();

        // Scratch: winner per downstream port.
        let mut claim: Vec<Option<usize>> = vec![None; n];
        // Memory-module service completion times.
        let mut busy_until: Vec<u64> = vec![0; n];

        for now in 1..=total {
            let measuring = now > self.config.warmup_cycles;

            // 1. Memory modules consume from the last stage, one packet
            //    per service interval.
            for m in 0..n {
                if busy_until[m] > now {
                    continue;
                }
                if let Some(pkt) = queues[stages - 1][m].pop_front() {
                    busy_until[m] = now + self.config.memory_service_cycles;
                    inflight[pkt.owner] -= 1;
                    if measuring {
                        delivered += 1;
                        if pkt.dst == 0 {
                            hot_delivered += 1;
                        }
                        latency.push((now - pkt.issued) as f64);
                    }
                }
            }

            // 2. Advance packets one stage, last to first, one entry per
            //    downstream queue per cycle.
            for s in (1..stages).rev() {
                claim.iter_mut().for_each(|c| *c = None);
                let mut collisions = 0u64;
                // Pick winners among heads of stage s-1 wanting each port.
                for p in 0..n {
                    let Some(head) = queues[s - 1][p].front() else {
                        continue;
                    };
                    let want = topo.port(head.owner, head.dst, s);
                    if queues[s][want].len() >= self.config.queue_capacity {
                        continue;
                    }
                    match claim[want] {
                        None => claim[want] = Some(p),
                        Some(other) => {
                            // Two upstream ports of the same switch contend;
                            // flip a fair coin.
                            collisions += 1;
                            if rng.next_bool(0.5) {
                                claim[want] = Some(p);
                            } else {
                                claim[want] = Some(other);
                            }
                        }
                    }
                }
                if sink.enabled() && s < STAGE_COLLISIONS.len() {
                    sink.counter(0, now, STAGE_COLLISIONS[s], &[("collisions", collisions as f64)]);
                }
                for want in 0..n {
                    if let Some(src_port) = claim[want] {
                        #[expect(clippy::expect_used, reason = "the claim pass only records ports with occupied queues")]
                        let pkt = queues[s - 1][src_port]
                            .pop_front()
                            .expect("claimed head exists");
                        queues[s][want].push_back(pkt);
                    }
                }
            }

            // 3. Generate new requests: each idle processor draws.
            for p in 0..n {
                if pending[p].is_some() || inflight[p] >= self.config.max_outstanding {
                    continue;
                }
                if rng.next_bool(self.config.injection_rate) {
                    pending[p] = Some(PendingReq {
                        dst: traffic.destination(&mut rng),
                        issued: now,
                        retry_at: now,
                        retries: 0,
                    });
                }
            }

            // 4. Inject pending packets into stage 0, one per entry queue.
            claim.iter_mut().for_each(|c| *c = None);
            for p in 0..n {
                let Some(req) = pending[p] else {
                    continue;
                };
                let PendingReq {
                    dst,
                    retry_at,
                    issued,
                    retries,
                } = req;
                if retry_at > now {
                    continue;
                }
                // Scott–Sohi feedback: before submitting at all, consult the
                // policy with the destination memory queue's length — the
                // "state information found in the queues at the memory
                // modules to signal processors to stop making requests".
                // Feedback fires only once the queue is past half capacity
                // ("in congested situations"), so lightly-loaded modules
                // are never throttled.
                let queue_len = queues[stages - 1][dst].len();
                if queue_len > self.config.queue_capacity / 2 {
                    let delay = self.policy.delay(CollisionInfo {
                        depth: 0,
                        stages,
                        retries: 0,
                        queue_len,
                    });
                    if delay > 0 {
                        sink.instant(
                            lane(p),
                            now,
                            "throttled",
                            &[("queue_len", queue_len as f64), ("delay", delay as f64)],
                        );
                        pending[p] = Some(PendingReq {
                            dst,
                            issued,
                            retry_at: now + delay,
                            retries,
                        });
                        continue;
                    }
                }
                let first_port = topo.port(p, dst, 0);
                if queues[0][first_port].len() >= self.config.queue_capacity {
                    self.block(p, &mut pending, &mut blocked, measuring, now, &queues, stages, sink);
                    continue;
                }
                match claim[first_port] {
                    None => claim[first_port] = Some(p),
                    Some(_) => self.block(
                        p,
                        &mut pending,
                        &mut blocked,
                        measuring,
                        now,
                        &queues,
                        stages,
                        sink,
                    ),
                }
            }
            for port in 0..n {
                let Some(p) = claim[port] else { continue };
                let Some(PendingReq { dst, issued, .. }) = pending[p] else {
                    continue;
                };
                queues[0][port].push_back(Packet { owner: p, dst, issued });
                pending[p] = None;
                inflight[p] += 1;
            }

            // Per-cycle occupancy series; the queue-depth sums exist only
            // for tracing, so the whole block is gated on the sink.
            if sink.enabled() {
                for (s, name) in STAGE_DEPTH.iter().enumerate().take(stages) {
                    let depth: usize = queues[s].iter().map(VecDeque::len).sum();
                    sink.counter(0, now, *name, &[("packets", depth as f64)]);
                }
                sink.counter(
                    0,
                    now,
                    "hot_queue",
                    &[("packets", queues[stages - 1][0].len() as f64)],
                );
            }

            if measuring {
                hot_queue_occupancy.push(queues[stages - 1][0].len() as f64);
            }
        }

        self.collect_outcome(n, delivered, hot_delivered, blocked, &latency, &hot_queue_occupancy)
    }

    /// The event-driven kernel: incremental per-stage occupancy sets, an
    /// incremental idle-processor set, and a skip-ahead clock for cycles
    /// where the network is empty and every processor is backed off.
    ///
    /// Bit-identity with the cycle stepper hinges on iteration order: the
    /// occupancy sets ([`FixedBitset`]) iterate ascending, reproducing the
    /// stepper's `for p in 0..n` scans exactly, so collision coin flips and
    /// injection draws consume the RNG in the same sequence. A cycle is
    /// skippable only when it performs no RNG draw and no state change: no
    /// packet anywhere (`total_packets == 0`), no processor eligible to
    /// generate (an idle processor always draws `next_bool`, even at rate
    /// 0), and every retry in the future. The skipped cycles' hot-queue
    /// occupancy samples are still pushed (the queue is provably empty, so
    /// they are zeros), and with a sink attached the dead cycles' counter
    /// rows — all-zero collisions, depths and hot-queue occupancy, in the
    /// stepper's exact emission order — are emitted in bulk, so traces stay
    /// byte-identical while the per-cycle port scans are still skipped.
    fn run_event_kernel<S: TraceSink>(&self, seed: u64, sink: &mut S) -> PacketOutcome {
        let topo = OmegaTopology::new(self.config.log2_size);
        let n = topo.size();
        let stages = topo.stages();
        #[expect(clippy::expect_used, reason = "PacketConfig construction validates hot_fraction")]
        let traffic = HotspotTraffic::new(n, self.config.hot_fraction, 0)
            .expect("validated hot fraction");
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);

        let mut queues: Vec<Vec<VecDeque<Packet>>> =
            vec![vec![VecDeque::new(); n]; stages];
        let mut pending: Vec<Option<PendingReq>> = vec![None; n];
        let mut inflight: Vec<u32> = vec![0; n];

        let total = self.config.warmup_cycles + self.config.measure_cycles;
        let mut delivered = 0u64;
        let mut hot_delivered = 0u64;
        let mut blocked = 0u64;
        let mut latency = OnlineStats::new();
        let mut hot_queue_occupancy = OnlineStats::new();

        let mut claim: Vec<Option<usize>> = vec![None; n];
        let mut busy_until: Vec<u64> = vec![0; n];

        // Incremental active sets. Invariants, restored after every phase:
        // `occ[s]` holds exactly the ports with a non-empty stage-`s` queue,
        // `stage_count[s]` their total packets, `total_packets` the global
        // sum; `can_gen` holds exactly the processors with no pending
        // request and spare outstanding capacity; `has_pending` the
        // processors with a request waiting to inject.
        let mut occ: Vec<FixedBitset> = vec![FixedBitset::new(n); stages];
        let mut stage_count: Vec<usize> = vec![0; stages];
        let mut total_packets: usize = 0;
        let mut can_gen = FixedBitset::new(n);
        for p in 0..n {
            can_gen.insert(p);
        }
        let mut has_pending = FixedBitset::new(n);
        // Scratch buffers reused across cycles.
        let mut active: Vec<usize> = Vec::with_capacity(n);
        let mut claimed: Vec<usize> = Vec::with_capacity(n);

        let mut now = 1u64;
        while now <= total {
            // Skip-ahead: see the method docs for why this exact condition
            // makes the cycle dead. The next wake-up is the earliest
            // generation opportunity (any cycle with an idle processor,
            // since every idle processor draws) or pending retry.
            if total_packets == 0 {
                let next_gen = (!can_gen.is_empty()).then_some(now);
                let next_retry = pending.iter().flatten().map(|r| r.retry_at).min();
                let wake = match (next_gen, next_retry) {
                    (Some(g), Some(r)) => Some(g.min(r)),
                    (g, r) => g.or(r),
                };
                #[expect(clippy::unnecessary_map_or, reason = "is_none_or compiles this kernel loop to different machine code; the measured form stays")]
                if wake.map_or(true, |w| w > now) {
                    let target = wake.unwrap_or(total + 1).min(total + 1);
                    if sink.enabled() {
                        // A dead cycle's only observable output is its
                        // counter rows, and they are all zero; emit them in
                        // bulk, in the stepper's exact per-cycle order.
                        for cycle in now..target {
                            for s in (1..stages).rev() {
                                if s < STAGE_COLLISIONS.len() {
                                    sink.counter(
                                        0,
                                        cycle,
                                        STAGE_COLLISIONS[s],
                                        &[("collisions", 0.0)],
                                    );
                                }
                            }
                            for name in STAGE_DEPTH.iter().take(stages) {
                                sink.counter(0, cycle, *name, &[("packets", 0.0)]);
                            }
                            sink.counter(0, cycle, "hot_queue", &[("packets", 0.0)]);
                        }
                    }
                    // The hot queue is empty on every skipped cycle; sample
                    // the measured ones as the stepper would.
                    let measured_from = now.max(self.config.warmup_cycles + 1);
                    for _ in measured_from..target {
                        hot_queue_occupancy.push(0.0);
                    }
                    now = target;
                    continue;
                }
            }
            let measuring = now > self.config.warmup_cycles;

            // 1. Memory modules consume from the last stage.
            collect(&occ[stages - 1], &mut active);
            for &m in &active {
                if busy_until[m] > now {
                    continue;
                }
                let queue = &mut queues[stages - 1][m];
                #[expect(clippy::expect_used, reason = "the occupancy bit is set only while the queue is non-empty")]
                let pkt = queue.pop_front().expect("occupancy bit set");
                if queue.is_empty() {
                    occ[stages - 1].remove(m);
                }
                stage_count[stages - 1] -= 1;
                total_packets -= 1;
                busy_until[m] = now + self.config.memory_service_cycles;
                let owner = pkt.owner;
                inflight[owner] -= 1;
                if pending[owner].is_none() && inflight[owner] < self.config.max_outstanding {
                    can_gen.insert(owner);
                }
                if measuring {
                    delivered += 1;
                    if pkt.dst == 0 {
                        hot_delivered += 1;
                    }
                    latency.push((now - pkt.issued) as f64);
                }
            }

            // 2. Advance packets one stage, last to first.
            for s in (1..stages).rev() {
                let mut collisions = 0u64;
                if stage_count[s - 1] > 0 {
                    claimed.clear();
                    collect(&occ[s - 1], &mut active);
                    for &p in &active {
                        #[expect(clippy::expect_used, reason = "the occupancy bit is set only while the queue is non-empty")]
                        let head = queues[s - 1][p].front().expect("occupancy bit set");
                        let want = topo.port(head.owner, head.dst, s);
                        if queues[s][want].len() >= self.config.queue_capacity {
                            continue;
                        }
                        match claim[want] {
                            None => {
                                claim[want] = Some(p);
                                claimed.push(want);
                            }
                            Some(other) => {
                                collisions += 1;
                                claim[want] = Some(if rng.next_bool(0.5) { p } else { other });
                            }
                        }
                    }
                    for &want in &claimed {
                        #[expect(clippy::expect_used, reason = "claimed ports were filled in the claim pass just above")]
                        let src_port = claim[want].take().expect("claimed port has a winner");
                        let queue = &mut queues[s - 1][src_port];
                        #[expect(clippy::expect_used, reason = "the winner was popped from an occupied queue")]
                        let pkt = queue.pop_front().expect("claimed head exists");
                        if queue.is_empty() {
                            occ[s - 1].remove(src_port);
                        }
                        queues[s][want].push_back(pkt);
                        occ[s].insert(want);
                        stage_count[s - 1] -= 1;
                        stage_count[s] += 1;
                    }
                }
                if sink.enabled() && s < STAGE_COLLISIONS.len() {
                    sink.counter(0, now, STAGE_COLLISIONS[s], &[("collisions", collisions as f64)]);
                }
            }

            // 3. Generate new requests: every idle processor draws,
            // exactly like the stepper's `for p in 0..n` scan.
            collect(&can_gen, &mut active);
            for &p in &active {
                if rng.next_bool(self.config.injection_rate) {
                    pending[p] = Some(PendingReq {
                        dst: traffic.destination(&mut rng),
                        issued: now,
                        retry_at: now,
                        retries: 0,
                    });
                    can_gen.remove(p);
                    has_pending.insert(p);
                }
            }

            // 4. Inject pending packets into stage 0.
            claimed.clear();
            collect(&has_pending, &mut active);
            for &p in &active {
                #[expect(clippy::expect_used, reason = "the pending bitmap mirrors the pending array")]
                let PendingReq {
                    dst,
                    retry_at,
                    issued,
                    retries,
                } = pending[p].expect("pending bit set");
                if retry_at > now {
                    continue;
                }
                let queue_len = queues[stages - 1][dst].len();
                if queue_len > self.config.queue_capacity / 2 {
                    let delay = self.policy.delay(CollisionInfo {
                        depth: 0,
                        stages,
                        retries: 0,
                        queue_len,
                    });
                    if delay > 0 {
                        sink.instant(
                            lane(p),
                            now,
                            "throttled",
                            &[("queue_len", queue_len as f64), ("delay", delay as f64)],
                        );
                        pending[p] = Some(PendingReq {
                            dst,
                            issued,
                            retry_at: now + delay,
                            retries,
                        });
                        continue;
                    }
                }
                let first_port = topo.port(p, dst, 0);
                if queues[0][first_port].len() >= self.config.queue_capacity {
                    self.block(p, &mut pending, &mut blocked, measuring, now, &queues, stages, sink);
                    continue;
                }
                match claim[first_port] {
                    None => {
                        claim[first_port] = Some(p);
                        claimed.push(first_port);
                    }
                    Some(_) => self.block(
                        p,
                        &mut pending,
                        &mut blocked,
                        measuring,
                        now,
                        &queues,
                        stages,
                        sink,
                    ),
                }
            }
            for &port in &claimed {
                #[expect(clippy::expect_used, reason = "claimed ports were filled in the claim pass just above")]
                let p = claim[port].take().expect("claimed port has a winner");
                #[expect(clippy::expect_used, reason = "claim winners come from the pending set")]
                let PendingReq { dst, issued, .. } =
                    pending[p].expect("claimed processor has a request");
                queues[0][port].push_back(Packet { owner: p, dst, issued });
                occ[0].insert(port);
                stage_count[0] += 1;
                total_packets += 1;
                pending[p] = None;
                has_pending.remove(p);
                inflight[p] += 1;
                if inflight[p] < self.config.max_outstanding {
                    can_gen.insert(p);
                }
            }

            if sink.enabled() {
                for (s, name) in STAGE_DEPTH.iter().enumerate().take(stages) {
                    sink.counter(0, now, *name, &[("packets", stage_count[s] as f64)]);
                }
                sink.counter(
                    0,
                    now,
                    "hot_queue",
                    &[("packets", queues[stages - 1][0].len() as f64)],
                );
            }

            if measuring {
                hot_queue_occupancy.push(queues[stages - 1][0].len() as f64);
            }
            now += 1;
        }

        self.collect_outcome(n, delivered, hot_delivered, blocked, &latency, &hot_queue_occupancy)
    }

    /// Builds the outcome from the raw tallies (shared by both kernels so
    /// the derived metrics cannot drift apart).
    fn collect_outcome(
        &self,
        n: usize,
        delivered: u64,
        hot_delivered: u64,
        blocked: u64,
        latency: &OnlineStats,
        hot_queue_occupancy: &OnlineStats,
    ) -> PacketOutcome {
        let background = delivered - hot_delivered;
        let cycles = self.config.measure_cycles as f64;
        PacketOutcome {
            delivered,
            hot_delivered,
            background_delivered: background,
            avg_latency: latency.mean(),
            blocked_injections: blocked,
            throughput_per_processor: delivered as f64 / cycles / n as f64,
            background_throughput: background as f64 / cycles / n as f64,
            avg_hot_queue: hot_queue_occupancy.mean(),
        }
    }

    #[expect(clippy::too_many_arguments, reason = "the kernels' per-run state is passed as separate borrows")]
    fn block<S: TraceSink>(
        &self,
        p: usize,
        pending: &mut [Option<PendingReq>],
        blocked: &mut u64,
        measuring: bool,
        now: u64,
        queues: &[Vec<VecDeque<Packet>>],
        stages: usize,
        sink: &mut S,
    ) {
        let Some(PendingReq {
            dst,
            issued,
            retries,
            ..
        }) = pending[p]
        else {
            return;
        };
        if measuring {
            *blocked += 1;
        }
        sink.instant(lane(p), now, "blocked", &[("retries", f64::from(retries + 1))]);
        let info = CollisionInfo {
            depth: 1,
            stages,
            retries: retries + 1,
            queue_len: queues[stages - 1][dst].len(),
        };
        let delay = self.policy.delay(info);
        pending[p] = Some(PendingReq {
            dst,
            issued,
            retry_at: now + 1 + delay,
            retries: retries + 1,
        });
    }
}

/// Replaces `out` with the ids in `set`, ascending — the cycle stepper's
/// `for p in 0..n` scan order, which the collision coin flips and
/// generation draws depend on for bit-identity. The event kernel walks this
/// snapshot while it mutates the set.
fn collect(set: &FixedBitset, out: &mut Vec<usize>) {
    out.clear();
    out.extend(set.iter());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> PacketConfig {
        PacketConfig {
            log2_size: 4,
            queue_capacity: 4,
            injection_rate: 0.3,
            hot_fraction: 0.0,
            warmup_cycles: 500,
            measure_cycles: 5_000,
            memory_service_cycles: 2,
            max_outstanding: 4,
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let sim = PacketSim::new(quick_config(), NetworkBackoff::None);
        assert_eq!(sim.run(9), sim.run(9));
    }

    #[test]
    fn kernels_bit_identical() {
        // Smoke version of the `kernel_equivalence` suite: every policy
        // family, a hot spot, queue feedback, multi-cycle service.
        let policies = [
            NetworkBackoff::None,
            NetworkBackoff::DepthProportional { factor: 2 },
            NetworkBackoff::InverseDepth { factor: 2 },
            NetworkBackoff::ConstantRtt { rtt: 8 },
            NetworkBackoff::ExponentialRetries { base: 2, cap: 256 },
            NetworkBackoff::QueueFeedback { factor: 8 },
        ];
        let cfg = PacketConfig {
            hot_fraction: 0.3,
            injection_rate: 0.5,
            warmup_cycles: 200,
            measure_cycles: 2_000,
            ..quick_config()
        };
        for policy in policies {
            let sim = PacketSim::new(cfg, policy);
            for seed in 0..3 {
                assert_eq!(
                    sim.run_with(seed, Kernel::Cycle),
                    sim.run_with(seed, Kernel::Event),
                    "policy {policy:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn kernels_bit_identical_with_skippable_dead_time() {
        // A blocking processor population under heavy exponential backoff
        // produces long stretches where the network is empty and everyone
        // is backed off — exactly the cycles the event kernel skips.
        let cfg = PacketConfig {
            hot_fraction: 0.8,
            injection_rate: 1.0,
            max_outstanding: 1,
            memory_service_cycles: 4,
            ..quick_config()
        };
        let sim = PacketSim::new(cfg, NetworkBackoff::ExponentialRetries { base: 4, cap: 4096 });
        for seed in 0..3 {
            assert_eq!(sim.run_with(seed, Kernel::Cycle), sim.run_with(seed, Kernel::Event));
        }
    }

    #[test]
    fn kernels_emit_identical_traces() {
        use abs_obs::trace::Ring;
        let cfg = PacketConfig {
            hot_fraction: 0.4,
            injection_rate: 0.6,
            warmup_cycles: 100,
            measure_cycles: 1_000,
            ..quick_config()
        };
        let sim = PacketSim::new(cfg, NetworkBackoff::QueueFeedback { factor: 8 });
        let mut cycle_ring = Ring::new(1 << 20);
        let mut event_ring = Ring::new(1 << 20);
        let a = sim.run_traced_with(11, &mut cycle_ring, Kernel::Cycle);
        let b = sim.run_traced_with(11, &mut event_ring, Kernel::Event);
        assert_eq!(a, b);
        assert_eq!(cycle_ring.events(), event_ring.events());
        assert!(!cycle_ring.events().is_empty());
    }

    #[test]
    fn kernels_emit_identical_traces_across_skipped_dead_time() {
        use abs_obs::trace::Ring;
        // The dead-time config of `kernels_bit_identical_with_skippable_
        // dead_time`, but with a sink attached: the event kernel must emit
        // the skipped cycles' all-zero counter rows in bulk so the traces
        // stay byte-identical.
        let cfg = PacketConfig {
            hot_fraction: 0.8,
            injection_rate: 1.0,
            max_outstanding: 1,
            memory_service_cycles: 4,
            ..quick_config()
        };
        let sim = PacketSim::new(cfg, NetworkBackoff::ExponentialRetries { base: 4, cap: 4096 });
        for seed in 0..2 {
            let mut cycle_ring = Ring::new(1 << 20);
            let mut event_ring = Ring::new(1 << 20);
            let a = sim.run_traced_with(seed, &mut cycle_ring, Kernel::Cycle);
            let b = sim.run_traced_with(seed, &mut event_ring, Kernel::Event);
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(cycle_ring.events(), event_ring.events(), "seed {seed}");
            // Every simulated cycle must carry its hot-queue row — skipped
            // ones included.
            let rows = event_ring
                .events()
                .iter()
                .filter(|e| e.name == "hot_queue")
                .count() as u64;
            assert_eq!(rows, cfg.warmup_cycles + cfg.measure_cycles, "seed {seed}");
        }
    }

    #[test]
    fn tracing_does_not_perturb_results() {
        use abs_obs::trace::Ring;
        let cfg = PacketConfig {
            hot_fraction: 0.4,
            injection_rate: 0.6,
            warmup_cycles: 100,
            measure_cycles: 1_000,
            ..quick_config()
        };
        let sim = PacketSim::new(cfg, NetworkBackoff::QueueFeedback { factor: 8 });
        let mut ring = Ring::default();
        let traced = sim.run_traced(11, &mut ring);
        assert_eq!(traced, sim.run(11));
        let events = ring.into_events();
        assert!(events.iter().any(|e| e.name == "hot_queue"));
        assert!(events.iter().any(|e| e.name == "stage0_depth"));
        // Under feedback and a hot spot, throttling must actually fire.
        assert!(events.iter().any(|e| e.name == "throttled"));
    }

    #[test]
    fn uniform_traffic_flows() {
        let o = PacketSim::new(quick_config(), NetworkBackoff::None).run(1);
        assert!(o.delivered > 1_000, "{o:?}");
        // Latency at least the number of stages (one hop per cycle).
        assert!(o.avg_latency >= 4.0, "{o:?}");
        assert_eq!(o.delivered, o.hot_delivered + o.background_delivered);
    }

    #[test]
    fn hot_spot_saturates_background_traffic() {
        // Tree saturation: raising the hot fraction must cut background
        // throughput (Pfister–Norton).
        let base = PacketSim::new(quick_config(), NetworkBackoff::None).run(2);
        let hot = PacketSim::new(
            PacketConfig {
                hot_fraction: 0.3,
                ..quick_config()
            },
            NetworkBackoff::None,
        )
        .run(2);
        assert!(
            hot.background_throughput < base.background_throughput,
            "hot {} base {}",
            hot.background_throughput,
            base.background_throughput
        );
        assert!(hot.avg_hot_queue > base.avg_hot_queue);
    }

    #[test]
    fn hot_module_service_is_capped() {
        // The hot module serves at most one packet per cycle.
        let o = PacketSim::new(
            PacketConfig {
                hot_fraction: 0.5,
                injection_rate: 0.9,
                ..quick_config()
            },
            NetworkBackoff::None,
        )
        .run(3);
        assert!(o.hot_delivered <= o.delivered);
        assert!(o.hot_delivered as f64 <= quick_config().measure_cycles as f64);
    }

    #[test]
    fn queue_feedback_relieves_saturation() {
        let cfg = PacketConfig {
            hot_fraction: 0.4,
            injection_rate: 0.6,
            ..quick_config()
        };
        let none = PacketSim::new(cfg, NetworkBackoff::None).run(4);
        let fb = PacketSim::new(cfg, NetworkBackoff::QueueFeedback { factor: 8 }).run(4);
        // Feedback should reduce blocked injections per delivered packet.
        let none_ratio = none.blocked_injections as f64 / none.delivered.max(1) as f64;
        let fb_ratio = fb.blocked_injections as f64 / fb.delivered.max(1) as f64;
        assert!(fb_ratio < none_ratio, "fb {fb_ratio} none {none_ratio}");
    }

    #[test]
    fn zero_injection_rate_is_silent() {
        let o = PacketSim::new(
            PacketConfig {
                injection_rate: 0.0,
                ..quick_config()
            },
            NetworkBackoff::None,
        )
        .run(5);
        assert_eq!(o.delivered, 0);
        assert_eq!(o.blocked_injections, 0);
    }

    #[test]
    #[should_panic(expected = "queue capacity")]
    fn zero_capacity_rejected() {
        PacketSim::new(
            PacketConfig {
                queue_capacity: 0,
                ..quick_config()
            },
            NetworkBackoff::None,
        );
    }
}
