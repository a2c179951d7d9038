//! Arrival processes: when the next open-loop request shows up.
//!
//! An [`ArrivalProcess`] turns RNG state into a stream of absolute arrival
//! cycles. All four implementations draw from the caller's
//! [`SplitMix64`], so a tenant's whole arrival stream is a pure function
//! of one seed — the foundation of the engine's bit-identity at any
//! `--jobs` worker count: streams are generated up front from derived
//! per-tenant seeds, never from shared mutable state.
//!
//! The processes:
//!
//! * [`FixedRate`] — one arrival every `period` cycles, no randomness; the
//!   degenerate baseline and the easiest stream to reason about in tests.
//! * [`Poisson`] — exponential interarrival gaps with a configurable mean;
//!   the classic memoryless open-loop source.
//! * [`Bursty`] — an on-off Markov-modulated process: geometric-length
//!   bursts of closely spaced arrivals separated by long exponential
//!   silences, the regime where backoff policies earn their keep.
//! * [`Diurnal`] — a piecewise-rate process: the mean gap is looked up in
//!   a repeating rate profile (a "day"), modelling load that swells and
//!   ebbs on a timescale much longer than a single synchronization
//!   episode.

use abs_sim::rng::SplitMix64;

/// Draws a uniform f64 in `[0, 1)` from the top 53 bits of a draw.
fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Draws an exponential gap with the given mean, rounded up to at least
/// one whole cycle.
#[expect(clippy::cast_possible_truncation, reason = "a gap past u64::MAX cycles saturates, far beyond any horizon")]
fn exp_gap(rng: &mut SplitMix64, mean: f64) -> u64 {
    let u = unit(rng);
    // Inverse CDF; 1-u is in (0, 1] so the log is finite.
    let gap = -(1.0 - u).ln() * mean;
    (gap.ceil() as u64).max(1)
}

/// A source of arrival times.
///
/// `next_after(rng, now)` returns the absolute cycle of the next arrival
/// strictly after `now`. Implementations may hold state (burst counters,
/// phase), but all randomness must come from `rng` — the engine derives
/// one [`SplitMix64`] per tenant so streams are reproducible and
/// independent.
pub trait ArrivalProcess {
    /// The absolute cycle of the next arrival, strictly after `now`.
    fn next_after(&mut self, rng: &mut SplitMix64, now: u64) -> u64;
}

/// Deterministic fixed-rate arrivals: one every `period` cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedRate {
    /// Cycles between consecutive arrivals (at least 1).
    pub period: u64,
}

impl ArrivalProcess for FixedRate {
    fn next_after(&mut self, _rng: &mut SplitMix64, now: u64) -> u64 {
        now + self.period.max(1)
    }
}

/// Poisson arrivals: i.i.d. exponential interarrival gaps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    /// Mean interarrival gap in cycles.
    pub mean_gap: f64,
}

impl ArrivalProcess for Poisson {
    fn next_after(&mut self, rng: &mut SplitMix64, now: u64) -> u64 {
        now + exp_gap(rng, self.mean_gap)
    }
}

/// On-off Markov-modulated arrivals.
///
/// The process alternates between an ON state, emitting a geometric
/// number of arrivals (mean `burst_len`) with mean gap `on_gap`, and an
/// OFF state inserting one long silence with mean gap `off_gap` before
/// the next burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bursty {
    /// Mean arrivals per burst (geometric; at least 1).
    pub burst_len: f64,
    /// Mean gap between arrivals inside a burst, in cycles.
    pub on_gap: f64,
    /// Mean silence between bursts, in cycles.
    pub off_gap: f64,
    /// Arrivals remaining in the current burst (internal state; start
    /// at 0 to draw a fresh burst on first use).
    pub remaining: u64,
}

impl Bursty {
    /// A bursty process starting in the OFF state.
    pub fn new(burst_len: f64, on_gap: f64, off_gap: f64) -> Self {
        Self {
            burst_len,
            on_gap,
            off_gap,
            remaining: 0,
        }
    }

    /// Draws a geometric burst length with the configured mean.
    fn draw_burst(&self, rng: &mut SplitMix64) -> u64 {
        // Geometric via inverse CDF on the exponential: mean burst_len.
        (exp_gap(rng, self.burst_len.max(1.0))).max(1)
    }
}

impl ArrivalProcess for Bursty {
    fn next_after(&mut self, rng: &mut SplitMix64, now: u64) -> u64 {
        if self.remaining == 0 {
            // OFF -> ON: one long silence, then a fresh burst.
            self.remaining = self.draw_burst(rng);
            now + exp_gap(rng, self.off_gap)
        } else {
            self.remaining -= 1;
            now + exp_gap(rng, self.on_gap)
        }
    }
}

/// Piecewise-rate arrivals over a repeating profile.
///
/// The "day" of `day_len` cycles is split into `profile.len()` equal
/// segments; segment `i` uses mean gap `profile[i]`. Arrivals inside a
/// segment are exponential with that mean — an approximation of an
/// inhomogeneous Poisson process that is exact when gaps are short
/// relative to segments.
#[derive(Debug, Clone, PartialEq)]
pub struct Diurnal {
    /// Length of the repeating profile in cycles.
    pub day_len: u64,
    /// Mean interarrival gap per equal-length segment of the day.
    pub profile: Vec<f64>,
}

impl Diurnal {
    /// The mean gap in force at absolute cycle `now`.
    fn mean_at(&self, now: u64) -> f64 {
        if self.profile.is_empty() {
            return 1.0;
        }
        let seg_len = (self.day_len / self.profile.len() as u64).max(1);
        #[expect(clippy::cast_possible_truncation, reason = "the segment index is below profile.len(), a usize")]
        let seg = ((now % self.day_len.max(1)) / seg_len) as usize;
        self.profile[seg.min(self.profile.len() - 1)]
    }
}

impl ArrivalProcess for Diurnal {
    fn next_after(&mut self, rng: &mut SplitMix64, now: u64) -> u64 {
        now + exp_gap(rng, self.mean_at(now))
    }
}

/// A value-type union of the four arrival processes, so a tenant's
/// configuration is plain data (`Clone`/`PartialEq`) while still
/// dispatching through [`ArrivalProcess`].
#[derive(Debug, Clone, PartialEq)]
pub enum Arrival {
    /// [`FixedRate`].
    Fixed(FixedRate),
    /// [`Poisson`].
    Poisson(Poisson),
    /// [`Bursty`].
    Bursty(Bursty),
    /// [`Diurnal`].
    Diurnal(Diurnal),
}

impl Arrival {
    /// Fixed-rate arrivals every `period` cycles.
    pub fn fixed(period: u64) -> Self {
        Arrival::Fixed(FixedRate { period })
    }

    /// Poisson arrivals with the given mean gap.
    pub fn poisson(mean_gap: f64) -> Self {
        Arrival::Poisson(Poisson { mean_gap })
    }

    /// Bursty arrivals (see [`Bursty::new`]).
    pub fn bursty(burst_len: f64, on_gap: f64, off_gap: f64) -> Self {
        Arrival::Bursty(Bursty::new(burst_len, on_gap, off_gap))
    }

    /// Diurnal arrivals over a repeating mean-gap profile.
    pub fn diurnal(day_len: u64, profile: Vec<f64>) -> Self {
        Arrival::Diurnal(Diurnal { day_len, profile })
    }

    /// Scales the process so its long-run mean gap is divided by `k`
    /// (offered load multiplied by `k`), used by the load-sweep exhibit.
    pub fn scaled(&self, k: f64) -> Self {
        let k = k.max(1e-9);
        match self {
            #[expect(clippy::cast_possible_truncation, reason = "`as` saturates, which is the wanted clamp for an out-of-range value")]
            Arrival::Fixed(f) => Arrival::fixed(((f.period as f64 / k).round() as u64).max(1)),
            Arrival::Poisson(p) => Arrival::poisson((p.mean_gap / k).max(1.0)),
            Arrival::Bursty(b) => {
                Arrival::bursty(b.burst_len, (b.on_gap / k).max(1.0), (b.off_gap / k).max(1.0))
            }
            Arrival::Diurnal(d) => Arrival::Diurnal(Diurnal {
                day_len: d.day_len,
                profile: d.profile.iter().map(|g| (g / k).max(1.0)).collect(),
            }),
        }
    }
}

impl ArrivalProcess for Arrival {
    fn next_after(&mut self, rng: &mut SplitMix64, now: u64) -> u64 {
        match self {
            Arrival::Fixed(p) => p.next_after(rng, now),
            Arrival::Poisson(p) => p.next_after(rng, now),
            Arrival::Bursty(p) => p.next_after(rng, now),
            Arrival::Diurnal(p) => p.next_after(rng, now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_gap_of(mut process: impl ArrivalProcess, n: usize, seed: u64) -> f64 {
        let mut rng = SplitMix64::new(seed);
        let mut now = 0u64;
        let mut total = 0u64;
        for _ in 0..n {
            let next = process.next_after(&mut rng, now);
            assert!(next > now, "arrivals advance strictly");
            total += next - now;
            now = next;
        }
        total as f64 / n as f64
    }

    #[test]
    fn fixed_rate_is_exact() {
        assert_eq!(mean_gap_of(FixedRate { period: 7 }, 100, 1), 7.0);
    }

    #[test]
    fn poisson_mean_matches_configuration() {
        let mean = mean_gap_of(Poisson { mean_gap: 20.0 }, 20_000, 2);
        // Ceil-to-cycle biases the mean up by ~0.5.
        assert!((19.0..=22.0).contains(&mean), "{mean}");
    }

    #[test]
    fn bursty_long_run_mean_sits_between_on_and_off_gaps() {
        let mean = mean_gap_of(Bursty::new(8.0, 2.0, 200.0), 20_000, 3);
        assert!(mean > 3.0 && mean < 60.0, "{mean}");
    }

    #[test]
    fn diurnal_tracks_the_profile() {
        // Day of 10_000 cycles: first half busy (gap 5), second half quiet
        // (gap 50). Sampling within each half must show the local rate.
        let mut d = Diurnal {
            day_len: 10_000,
            profile: vec![5.0, 50.0],
        };
        let mut rng = SplitMix64::new(4);
        let mut busy = Vec::new();
        let mut quiet = Vec::new();
        let mut now = 0u64;
        for _ in 0..40_000 {
            let next = d.next_after(&mut rng, now);
            let gap = next - now;
            if now % 10_000 < 4_000 {
                busy.push(gap as f64);
            } else if now % 10_000 >= 5_000 && now % 10_000 < 9_000 {
                quiet.push(gap as f64);
            }
            now = next;
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(avg(&busy) < 8.0, "busy {}", avg(&busy));
        assert!(avg(&quiet) > 25.0, "quiet {}", avg(&quiet));
    }

    #[test]
    fn streams_are_reproducible() {
        for arrival in [
            Arrival::fixed(3),
            Arrival::poisson(11.0),
            Arrival::bursty(4.0, 2.0, 100.0),
            Arrival::diurnal(1_000, vec![4.0, 40.0]),
        ] {
            let run = |mut a: Arrival| {
                let mut rng = SplitMix64::new(9);
                let mut now = 0;
                (0..100)
                    .map(|_| {
                        now = a.next_after(&mut rng, now);
                        now
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(run(arrival.clone()), run(arrival));
        }
    }

    #[test]
    fn scaling_divides_the_mean_gap() {
        let base = mean_gap_of(Poisson { mean_gap: 40.0 }, 20_000, 5);
        let Arrival::Poisson(fast) = Arrival::poisson(40.0).scaled(4.0) else {
            unreachable!("scaling preserves the variant");
        };
        let scaled = mean_gap_of(fast, 20_000, 5);
        assert!((scaled * 3.0..=scaled * 5.0).contains(&base), "{base} vs {scaled}");
    }
}
