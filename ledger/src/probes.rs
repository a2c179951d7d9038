//! Layer probes: timed calls into the public API of the shared structures
//! every simulator kernel sits on, with op mixes shaped like the
//! workloads. They run only in traced mode, after the timed passes, so
//! they are never on the `wall_s` clock.

use std::hint::black_box;
use std::time::{Duration, Instant};

use abs_core::{BackoffPolicy, BarrierConfig, BarrierSim, Kernel};
use abs_net::module::{Arbitration, PendingSet, Request};
use abs_obs::trace::{Noop, Ring};
use abs_sim::bitset::FixedBitset;
use abs_sim::rng::Xoshiro256PlusPlus;
use abs_sim::sweep::derive_seed;
use abs_sim::wheel::TimeWheel;

use crate::stats::median;

/// Samples per probe; the probe reports their median.
const SAMPLES: usize = 7;

/// Operations timed per sample, at least.
const MIN_OPS: u64 = 1 << 16;

/// Pending-set sizes: a small barrier, the sorted-vector limit, and the
/// Fenwick regime of the megasweep.
const SIZES: [usize; 3] = [64, 1024, 65536];

/// Bitset widths in bits: a paper-scale and a 2²⁰ processor set.
const BITSET_BITS: [usize; 2] = [1024, 1 << 20];

/// Wake-ups per time-wheel round: 16 due per slot on average.
const WHEEL_BATCH: usize = 4096;

/// One probe result: a per-layer metric name and its value.
pub type Probe = (String, f64);

/// Runs every probe, seeding their inputs from `seed`.
pub fn run_all(seed: u64) -> Vec<Probe> {
    let mut out = Vec::new();
    for size in SIZES {
        let [insert, remove] = pendingset_churn(size, derive_seed(seed, size as u64));
        out.push((format!("net.pendingset.insert_ns.{size}"), insert));
        out.push((format!("net.pendingset.remove_ns.{size}"), remove));
    }
    for (policy, tag) in [
        (Arbitration::Random, "random"),
        (Arbitration::RoundRobin, "rr"),
        (Arbitration::OldestFirst, "oldest"),
    ] {
        for size in SIZES {
            let ns = arbitrate(policy, size, derive_seed(seed ^ 0xA4B, size as u64));
            out.push((format!("net.pendingset.arbitrate_ns.{tag}.{size}"), ns));
        }
    }
    for bits in BITSET_BITS {
        out.push((
            format!("sim.bitset.scan_ns_per_word.{bits}"),
            bitset_scan(bits, seed),
        ));
    }
    let [near, pop] = wheel_near(seed);
    out.push(("sim.wheel.schedule_ns.near".to_string(), near));
    out.push(("sim.wheel.schedule_ns.far".to_string(), wheel_far(seed)));
    out.push(("sim.wheel.pop_due_ns".to_string(), pop));
    let [next, fill] = rng_draws(seed);
    out.push(("sim.rng.next_below_ns".to_string(), next));
    out.push(("sim.rng.fill_below_ns".to_string(), fill));
    out.push(("obs.ring.overhead_frac".to_string(), ring_overhead(seed)));
    out
}

/// Median over [`SAMPLES`] of nanoseconds per operation, for each of the
/// `K` timed parts of a round. `round` runs one batch and returns how
/// long each part took and how many operations each part made; a sample
/// repeats rounds until [`MIN_OPS`] operations were timed.
fn ns_per_op<const K: usize>(mut round: impl FnMut() -> ([Duration; K], u64)) -> [f64; K] {
    let mut samples: [Vec<f64>; K] = std::array::from_fn(|_| Vec::with_capacity(SAMPLES));
    for _ in 0..SAMPLES {
        let (mut time, mut ops) = ([Duration::ZERO; K], 0u64);
        while ops < MIN_OPS {
            let (parts, n) = round();
            for (total, part) in time.iter_mut().zip(parts) {
                *total += part;
            }
            ops += n;
        }
        for (sample, total) in samples.iter_mut().zip(time) {
            sample.push(total.as_nanos() as f64 / ops as f64);
        }
    }
    samples.map(|s| median(&s).unwrap_or(f64::NAN))
}

/// A random permutation of `0..n`.
fn permutation(n: usize, rng: &mut Xoshiro256PlusPlus) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut ids);
    ids
}

/// Fills a set of `size` processors in random order, then drains it in
/// another: `[insert ns, remove ns]` per operation. The set is sized for
/// `size` requesters like a barrier kernel's, so 65536 starts Fenwick.
fn pendingset_churn(size: usize, seed: u64) -> [f64; 2] {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let fill = permutation(size, &mut rng);
    let drain = permutation(size, &mut rng);
    ns_per_op(|| {
        let mut set = PendingSet::new(Arbitration::Random, size);
        let t = Instant::now();
        for (since, &id) in fill.iter().enumerate() {
            set.insert(Request::new(id, since as u64));
        }
        let inserted = t.elapsed();
        let t = Instant::now();
        for &id in &drain {
            black_box(set.remove(id));
        }
        ([inserted, t.elapsed()], size as u64)
    })
}

/// Picks winners from a full set of `size` requests with random ages.
fn arbitrate(policy: Arbitration, size: usize, seed: u64) -> f64 {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut set = PendingSet::new(policy, size);
    for id in 0..size {
        set.insert(Request::new(id, rng.next_below(1_000)));
    }
    let [ns] = ns_per_op(|| {
        let t = Instant::now();
        for _ in 0..1024 {
            black_box(set.arbitrate(&mut rng));
        }
        ([t.elapsed()], 1024)
    });
    ns
}

/// Scans a set of `bits` ids with one in eight present; ns per 64-bit
/// word.
fn bitset_scan(bits: usize, seed: u64) -> f64 {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(derive_seed(seed, bits as u64));
    let mut set = FixedBitset::new(bits);
    for id in 0..bits {
        if rng.next_below(8) == 0 {
            set.insert(id);
        }
    }
    let words = bits.div_ceil(64) as u64;
    let [ns] = ns_per_op(|| {
        let t = Instant::now();
        black_box(set.iter().fold(0usize, |acc, id| acc ^ id));
        ([t.elapsed()], words)
    });
    ns
}

/// Schedules a batch of wake-ups within the next 256 cycles, then pops
/// every cycle as the kernel's clock does: `[schedule ns, pop_due ns]`,
/// the second per `pop_due` call.
fn wheel_near(seed: u64) -> [f64; 2] {
    let slots = TimeWheel::SLOTS as u64;
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(derive_seed(seed, 0x3EE1));
    let mut wheel = TimeWheel::new(0);
    let mut now = 0u64;
    let mut due = Vec::new();
    let [schedule, pop_per_batch] = ns_per_op(|| {
        let offsets: Vec<u64> = (0..WHEEL_BATCH).map(|_| rng.next_below(slots)).collect();
        let t = Instant::now();
        for (id, off) in offsets.iter().enumerate() {
            wheel.schedule(now + off, id);
        }
        let scheduled = t.elapsed();
        let t = Instant::now();
        for tick in now..now + slots {
            wheel.pop_due(tick, &mut due);
            black_box(&due);
        }
        now += slots;
        ([scheduled, t.elapsed()], WHEEL_BATCH as u64)
    });
    // Both parts were divided by the batch size; pops are per cycle.
    [schedule, pop_per_batch * WHEEL_BATCH as f64 / slots as f64]
}

/// Schedules backoff-style wake-ups far beyond the wheel's horizon.
fn wheel_far(seed: u64) -> f64 {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(derive_seed(seed, 0xFA4));
    let [ns] = ns_per_op(|| {
        let times: Vec<u64> = (0..WHEEL_BATCH)
            .map(|_| TimeWheel::SLOTS as u64 + rng.next_below(1 << 16))
            .collect();
        let mut wheel = TimeWheel::new(0);
        let t = Instant::now();
        for (id, &time) in times.iter().enumerate() {
            wheel.schedule(time, id);
        }
        let elapsed = t.elapsed();
        black_box(&wheel);
        ([elapsed], WHEEL_BATCH as u64)
    });
    ns
}

/// Single bounded draws and batched draws: `[next_below ns, fill_below
/// ns]` per value.
fn rng_draws(seed: u64) -> [f64; 2] {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(derive_seed(seed, 0x4E6));
    let [next] = ns_per_op(|| {
        let t = Instant::now();
        let mut acc = 0u64;
        for bound in 1..=4096u64 {
            acc ^= rng.next_below(bound);
        }
        black_box(acc);
        ([t.elapsed()], 4096)
    });
    let mut buf = vec![0u64; 4096];
    let [fill] = ns_per_op(|| {
        let t = Instant::now();
        rng.fill_below(1_000, &mut buf);
        black_box(&buf);
        ([t.elapsed()], buf.len() as u64)
    });
    [next, fill]
}

/// One `barrier_paper` episode (N = 64, A = 100, base-2 backoff) traced
/// into a `Ring` versus the disabled `Noop` sink: the ring's extra time
/// as a share of the untraced run.
fn ring_overhead(seed: u64) -> f64 {
    let sim = BarrierSim::new(BarrierConfig::new(64, 100), BackoffPolicy::exponential(2));
    let mut ring = Ring::default();
    let mut noop = Vec::new();
    let mut traced = Vec::new();
    for i in 0..SAMPLES as u64 * 3 {
        let run_seed = derive_seed(seed, i);
        let t = Instant::now();
        black_box(sim.run_traced_with(run_seed, &mut Noop, Kernel::Event));
        noop.push(t.elapsed().as_nanos() as f64);
        ring.clear();
        let t = Instant::now();
        black_box(sim.run_traced_with(run_seed, &mut ring, Kernel::Event));
        traced.push(t.elapsed().as_nanos() as f64);
    }
    match (median(&traced), median(&noop)) {
        (Some(t), Some(n)) if n > 0.0 => t / n - 1.0,
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_positive_finite_value() {
        let probes = run_all(3);
        assert_eq!(probes.len(), 6 + 9 + 2 + 3 + 2 + 1);
        for (name, value) in &probes {
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
    }
}
