//! Regenerate the paper's central figures as CSV on stdout.
//!
//! ```text
//! cargo run --release --example barrier_sweep            # Figure 7 data
//! cargo run --release --example barrier_sweep -- 0 wait  # Figure 8 data
//! ```
//!
//! First argument: the arrival interval `A` (0, 100 or 1000; default
//! 1000). Second argument: `accesses` (default) or `wait`. Pipe the output
//! into any plotting tool to redraw Figures 5–10.

use adaptive_backoff::core::{aggregate_runs, BackoffPolicy, BarrierConfig, BarrierSim};
use adaptive_backoff::sim::series::SeriesSet;
use adaptive_backoff::sim::sweep::power_of_two_counts;

fn main() {
    let mut args = std::env::args().skip(1);
    #[expect(clippy::expect_used, reason = "a malformed argument ends the example with this message")]
    let a: u64 = args
        .next()
        .map(|s| s.parse().expect("A must be a non-negative integer"))
        .unwrap_or(1000);
    let metric = args.next().unwrap_or_else(|| "accesses".to_string());

    let mut set = SeriesSet::new(format!("A = {a}"), "N");
    for n in power_of_two_counts(512) {
        for policy in BackoffPolicy::figure_policies() {
            let sim = BarrierSim::new(BarrierConfig::new(n, a), policy);
            let agg = aggregate_runs(&sim, 100, 0x1989);
            let y = match metric.as_str() {
                "wait" => agg.mean_waiting(),
                _ => agg.mean_accesses(),
            };
            set.add_point(&policy.label(), n as f64, y);
        }
        eprint!(".");
    }
    eprintln!();
    print!("{}", set.to_csv());
}
