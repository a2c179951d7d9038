//! Combining-tree barriers: simulated hot-spot flattening.
//!
//! ```text
//! cargo run --release --example combining_tree
//! ```
//!
//! For large `N` the paper recommends software combining trees
//! (Yew–Tseng–Lawrie) with backoff applied at the intermediate nodes. The
//! simulation shows the tree spreading the barrier's hot spot across many
//! memory modules.

use adaptive_backoff::core::{
    BackoffPolicy, BarrierConfig, BarrierSim, CombiningConfig, CombiningTreeSim,
};
use adaptive_backoff::sim::table::{fmt_f64, Table};

fn main() {
    let n = 256;
    let span = 100;
    let seed = 11;

    let mut t = Table::new(vec![
        "configuration",
        "accesses/proc",
        "hottest module",
        "completion (cycles)",
    ])
    .with_title(format!("Simulated barrier hot spot, N = {n}, A = {span}"));

    let flat = BarrierSim::new(BarrierConfig::new(n, span), BackoffPolicy::None).run(seed);
    t.add_row(vec![
        "flat two-variable barrier".into(),
        fmt_f64(flat.mean_accesses(), 1),
        // The flag module carries everything except the variable wins.
        fmt_f64(
            flat.total_accesses() as f64 - flat.mean_var_accesses() * n as f64,
            0,
        ),
        flat.completion().to_string(),
    ]);

    for degree in [2usize, 4, 8, 16] {
        for (label, policy) in [
            ("spin", BackoffPolicy::None),
            ("base-2 backoff", BackoffPolicy::exponential(2)),
        ] {
            let run =
                CombiningTreeSim::new(CombiningConfig::new(n, span, degree), policy).run(seed);
            t.add_row(vec![
                format!("tree degree {degree}, {label}"),
                fmt_f64(run.mean_accesses(), 1),
                run.max_module_accesses().to_string(),
                run.completion().to_string(),
            ]);
        }
    }
    println!("{t}");
}
