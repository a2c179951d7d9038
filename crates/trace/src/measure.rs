//! `A`/`E` interval measurement (Table 3) and arrival distributions
//! (Figure 3).
//!
//! "A is defined to be the number of cpu cycles from the time the first
//! processor starts polling the barrier flag to the time the last processor
//! sets the barrier flag. … E is the average number of cycles between the
//! last arrival at the previous barrier (or wait) and the first arrival at
//! the next barrier (or wait), i.e. it is the average time between barriers
//! or waits."

use abs_sim::stats::Histogram;

use crate::scheduler::{BarrierEpisode, ScheduleReport};

/// Average `A` and `E` extracted from a scheduled execution — one Table-3
/// row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalReport {
    /// Processors simulated.
    pub procs: usize,
    /// Mean arrival span `A` over all barriers, in cycles.
    pub mean_a: f64,
    /// Mean inter-barrier interval `E`, in cycles.
    pub mean_e: f64,
    /// Number of barriers measured.
    pub barriers: usize,
}

/// Computes the mean `A` and `E` of an execution.
///
/// # Examples
///
/// ```
/// use abs_trace::{apps, Scheduler, intervals};
/// let (report, _) = Scheduler::new(apps::fft_like(), 16, 1).run_counting();
/// let iv = intervals(&report);
/// assert_eq!(iv.barriers, 2);
/// assert!(iv.mean_e > iv.mean_a); // FFT computes far longer than it waits
/// ```
///
/// # Panics
///
/// Panics if the execution contains no barriers.
pub fn intervals(report: &ScheduleReport) -> IntervalReport {
    assert!(
        !report.episodes.is_empty(),
        "execution must contain at least one barrier"
    );
    let mean_a = report
        .episodes
        .iter()
        .map(|e| e.span() as f64)
        .sum::<f64>()
        / report.episodes.len() as f64;
    // E: from the previous barrier's release (its set time) to the next
    // barrier's first arrival; the stretch before the first barrier also
    // counts.
    let mut e_values: Vec<f64> = Vec::new();
    let mut prev_set = 0u64;
    for e in &report.episodes {
        let first = e.first_arrival();
        e_values.push(first.saturating_sub(prev_set) as f64);
        prev_set = e.set_time;
    }
    let mean_e = e_values.iter().sum::<f64>() / e_values.len() as f64;
    IntervalReport {
        procs: report.procs,
        mean_a,
        mean_e,
        barriers: report.episodes.len(),
    }
}

/// Builds the Figure-3 arrival distribution: each waiting processor's
/// arrival time inside its barrier's `[first, set]` window, normalized into
/// `bins` buckets and aggregated over all barriers.
///
/// Barriers with zero span are skipped (there is no interval to spread
/// over).
///
/// # Examples
///
/// ```
/// use abs_trace::{apps, Scheduler, arrival_histogram};
/// let (report, _) = Scheduler::new(apps::simple_like(), 16, 1).run_counting();
/// let h = arrival_histogram(&report.episodes, 10);
/// assert!(h.total() > 0);
/// ```
///
/// # Panics
///
/// Panics if `bins == 0`.
pub fn arrival_histogram(episodes: &[BarrierEpisode], bins: usize) -> Histogram {
    assert!(bins > 0, "at least one bin required");
    let mut h = Histogram::new();
    for e in episodes {
        let first = e.first_arrival();
        let span = e.span();
        if span == 0 {
            continue;
        }
        for &arrival in &e.arrivals {
            let offset = arrival - first;
            #[expect(clippy::cast_possible_truncation, reason = "offset <= span, so the bin is below bins, a u64")]
            let bin = ((offset as u128 * bins as u128) / (span as u128 + 1)) as u64;
            h.record(bin);
        }
    }
    h
}

/// Skewness proxy for Figure 3: the fraction of arrivals that land in the
/// outer quarter of the interval (first or last quarter of the bins). A
/// uniform distribution scores ≈ 0.5; SIMPLE's bimodal distribution scores
/// higher.
///
/// # Panics
///
/// Panics if the histogram was built with fewer than 4 bins of data.
pub fn edge_mass(h: &Histogram, bins: usize) -> f64 {
    assert!(bins >= 4, "need at least 4 bins");
    if h.total() == 0 {
        return 0.0;
    }
    let quarter = bins / 4;
    let mut edge = 0u64;
    for b in 0..bins {
        if b < quarter || b >= bins - quarter {
            edge += h.bin_count(b);
        }
    }
    edge as f64 / h.total() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use crate::scheduler::Scheduler;

    #[test]
    fn fft_a_grows_with_processors() {
        // Table 3: FFT's A grew markedly from 16 to 64 processors (237 ->
        // 285 in the paper; driven by loop-index serialization) while E
        // shrank (228073 -> 57997).
        let iv16 = intervals(&Scheduler::new(apps::fft_like(), 16, 1).run_counting().0);
        let iv64 = intervals(&Scheduler::new(apps::fft_like(), 64, 1).run_counting().0);
        assert!(iv64.mean_a > iv16.mean_a, "{} vs {}", iv64.mean_a, iv16.mean_a);
        assert!(iv64.mean_e < iv16.mean_e, "{} vs {}", iv64.mean_e, iv16.mean_e);
        // And E dominates A by orders of magnitude for FFT.
        assert!(iv64.mean_e > 10.0 * iv64.mean_a);
    }

    #[test]
    fn weather_a_and_e_comparable_at_64() {
        // Table 3: WEATHER at 64 processors has A ~ E (82787 vs 82716).
        let iv = intervals(&Scheduler::new(apps::weather_like(), 64, 1).run_counting().0);
        let ratio = iv.mean_a / iv.mean_e;
        assert!(
            (0.2..5.0).contains(&ratio),
            "A {} E {} ratio {ratio}",
            iv.mean_a,
            iv.mean_e
        );
    }

    #[test]
    fn imbalanced_apps_have_larger_a_than_fft() {
        let a = |app| intervals(&Scheduler::new(app, 64, 1).run_counting().0).mean_a;
        let fft = a(apps::fft_like());
        let weather = a(apps::weather_like());
        assert!(weather > 3.0 * fft, "weather {weather} fft {fft}");
    }

    #[test]
    fn histogram_covers_waiters() {
        let (report, _) = Scheduler::new(apps::weather_like(), 16, 1).run_counting();
        let h = arrival_histogram(&report.episodes, 20);
        // 6 barriers x 15 waiters, minus any zero-span barriers.
        assert!(h.total() > 0);
        assert!(h.total() <= 6 * 15);
    }

    #[test]
    fn simple_is_more_edge_skewed_than_fft() {
        // Figure 3: FFT's arrivals are roughly uniform; SIMPLE's are
        // "skewed towards the beginning and the end of the interval".
        let bins = 20;
        let mass = |app| {
            let (report, _) = Scheduler::new(app, 64, 2).run_counting();
            edge_mass(&arrival_histogram(&report.episodes, bins), bins)
        };
        let fft = mass(apps::fft_like());
        let simple = mass(apps::simple_like());
        assert!(simple > fft, "simple {simple} fft {fft}");
    }

    #[test]
    fn zero_span_episode_skipped() {
        let episodes = vec![BarrierEpisode {
            section: 0,
            arrivals: vec![5, 5],
            set_time: 5,
        }];
        let h = arrival_histogram(&episodes, 10);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn edge_mass_uniform_is_about_half() {
        let mut h = Histogram::new();
        for b in 0..20u64 {
            h.record_n(b, 10);
        }
        let m = edge_mass(&h, 20);
        assert!((m - 0.5).abs() < 0.01, "{m}");
    }

    #[test]
    #[should_panic(expected = "at least one barrier")]
    fn intervals_need_barriers() {
        let report = ScheduleReport {
            procs: 2,
            cycles: 10,
            episodes: vec![],
        };
        intervals(&report);
    }
}
