//! **`megasweep`**: the Figures 5–10 claims pushed to mega-`N`.
//!
//! The paper plots to `N = 512`; this exhibit re-runs the two headline
//! claims three orders of magnitude further out — `N = 4096`, `65536`,
//! and `2²⁰ ≈ 10⁶` under the paper configuration — where only the event
//! kernel is tractable:
//!
//! * **Access growth.** Without backoff and with simultaneous arrival,
//!   Model 1 predicts `5N/2` network accesses per barrier; the table
//!   reports the measured multiple of `5N/2` at every grid point.
//! * **Backoff crossover.** Exponential backoff saves the most traffic
//!   when contention is worst (`A = 0`) and the saving persists — but
//!   narrows per-processor — as the arrival interval grows to
//!   `A = 1000`, the paper's Figure 7 regime.
//!
//! The exhibit caps with one **combining-tree row**: a single seeded
//! [`CombiningTreeSim`] episode at the largest grid `N`, with the smallest
//! grid `N` as the fan-in — the §8 hierarchy the paper says large
//! barriers need, at the scale where it matters.

use abs_core::{
    BackoffPolicy, BarrierConfig, BarrierSim, CombiningConfig, CombiningRun, CombiningTreeSim,
};
use abs_exec::json::Value;
use abs_model::model1_accesses;
use abs_sim::stats::OnlineStats;
use abs_sim::sweep::Repetitions;
use abs_sim::table::{fmt_f64, Table};

use super::barrier::sweep_points;
use crate::ReproConfig;

/// Grid multipliers applied to `config.max_n`: the paper configuration
/// (`--max-n 512`) lands on `N = 4096`, `65536`, and `1048576 = 2²⁰`.
const GRID_MULTIPLIERS: [usize; 3] = [8, 128, 2048];

/// Arrival intervals, the paper's two extremes (Figures 5 and 7).
const SPANS: [u64; 2] = [0, 1_000];

/// One rendered mega-sweep: the flat-grid table, the combining-row
/// summary block, and the JSON artifact `(file name, payload)`.
#[derive(Debug, Clone, PartialEq)]
pub struct MegaExhibit {
    /// The printable flat-grid table.
    pub table: Table,
    /// The combining-row summary appended below the table.
    pub summary: String,
    /// The machine-readable artifact, written into the output directory.
    pub json: (String, String),
}

/// The processor-count grid, scaled off `config.max_n`.
fn mega_grid(config: &ReproConfig) -> [usize; 3] {
    GRID_MULTIPLIERS.map(|m| m * config.max_n.max(1))
}

/// The policy ladder: the no-backoff baseline and the paper's mildest
/// and steepest exponential flag backoffs.
fn mega_policies() -> [BackoffPolicy; 3] {
    [
        BackoffPolicy::None,
        BackoffPolicy::exponential(2),
        BackoffPolicy::exponential(8),
    ]
}

/// Repetitions for a grid point: the configured budget is spent in full
/// at the smallest grid `N` and scaled down inversely with `n` (never
/// below one rep) so every point costs about the same simulated work.
fn scaled_reps(base: u32, smallest: usize, n: usize) -> u32 {
    let scaled = ((u64::from(base) * smallest as u64) / n as u64).clamp(1, u64::from(base));
    u32::try_from(scaled).unwrap_or(base) // clamp bound: scaled <= base
}

/// One measured flat grid point.
#[derive(Debug, Clone, PartialEq)]
struct MegaRow {
    n: usize,
    span: u64,
    policy: BackoffPolicy,
    reps: u32,
    mean_accesses: f64,
}

impl MegaRow {
    /// Measured per-process accesses as a multiple of Model 1's `5N/2`.
    fn model_ratio(&self) -> f64 {
        self.mean_accesses / model1_accesses(self.n)
    }
}

/// Runs the flat grid, fanned over the engine like every other sweep.
fn flat_rows(config: &ReproConfig) -> Vec<MegaRow> {
    let points: Vec<(usize, u64, BackoffPolicy)> = mega_grid(config)
        .into_iter()
        .flat_map(|n| {
            SPANS
                .into_iter()
                .flat_map(move |span| mega_policies().into_iter().map(move |p| (n, span, p)))
        })
        .collect();
    let kernel = config.kernel;
    let base = config.reps;
    let smallest = mega_grid(config)[0];
    let measured = sweep_points(&points, config, move |&(n, span, policy), seed| {
        // `aggregate_runs_with`'s seeds and averaging order, so the means
        // are bit-identical to it, plus each episode's invariant check: at
        // N = 2²⁰ no second kernel can vouch for a run.
        let sim = BarrierSim::new(BarrierConfig::new(n, span), policy);
        let mut accesses = OnlineStats::new();
        for run_seed in Repetitions::new(scaled_reps(base, smallest, n), seed).seeds() {
            let run = sim.run_with(run_seed, kernel);
            if let Err(broken) = run.check_invariants() {
                panic!(
                    "N = {n}, A = {span}, {} seed {run_seed}: {broken}",
                    policy.label()
                );
            }
            accesses.push(run.mean_accesses());
        }
        accesses.mean()
    });
    points
        .iter()
        .zip(measured)
        .map(|(&(n, span, policy), mean_accesses)| MegaRow {
            n,
            span,
            policy,
            reps: scaled_reps(base, smallest, n),
            mean_accesses,
        })
        .collect()
}

/// The combining row the exhibit runs: the largest grid `N` under a tree
/// whose fan-in is the smallest grid `N`, at the wide arrival interval
/// with the paper's base-2 flag backoff.
fn combining_sim(config: &ReproConfig) -> CombiningTreeSim {
    let grid = mega_grid(config);
    CombiningTreeSim::new(
        CombiningConfig::new(grid[2], SPANS[1], grid[0]),
        BackoffPolicy::exponential(2),
    )
}

/// The JSON artifact: reproduction parameters, flat rows, combining row.
fn mega_json(
    config: &ReproConfig,
    rows: &[MegaRow],
    sim: &CombiningTreeSim,
    combining: &CombiningRun,
) -> Value {
    let grid = mega_grid(config);
    let json_rows: Vec<Value> = rows
        .iter()
        .map(|row| {
            Value::Obj(vec![
                ("n".to_string(), Value::Num(row.n as f64)),
                ("span".to_string(), Value::Num(row.span as f64)),
                ("policy".to_string(), Value::Str(row.policy.label())),
                ("reps".to_string(), Value::Num(f64::from(row.reps))),
                ("mean_accesses".to_string(), Value::Num(row.mean_accesses)),
                ("model_ratio".to_string(), Value::Num(row.model_ratio())),
            ])
        })
        .collect();
    let cfg = sim.config();
    let combining_obj = Value::Obj(vec![
        ("n".to_string(), Value::Num(cfg.n as f64)),
        ("degree".to_string(), Value::Num(cfg.degree as f64)),
        ("nodes".to_string(), Value::Num(combining.nodes() as f64)),
        ("span".to_string(), Value::Num(cfg.span as f64)),
        ("policy".to_string(), Value::Str(sim.policy().label())),
        ("mean_accesses".to_string(), Value::Num(combining.mean_accesses())),
        ("completion".to_string(), Value::Num(combining.completion() as f64)),
        (
            "max_module_accesses".to_string(),
            Value::Num(combining.max_module_accesses() as f64),
        ),
    ]);
    Value::Obj(vec![
        ("exhibit".to_string(), Value::Str("megasweep".to_string())),
        ("seed".to_string(), Value::Str(config.seed.to_string())),
        ("kernel".to_string(), Value::Str(config.kernel.name().to_string())),
        ("reps".to_string(), Value::Num(f64::from(config.reps))),
        (
            "grid".to_string(),
            Value::Arr(grid.iter().map(|&n| Value::Num(n as f64)).collect()),
        ),
        ("rows".to_string(), Value::Arr(json_rows)),
        ("combining".to_string(), combining_obj),
    ])
}

/// **`megasweep`**: mega-`N` access growth, backoff crossover, and the
/// combining-tree row.
pub fn megasweep(config: &ReproConfig) -> MegaExhibit {
    let rows = flat_rows(config);
    let sim = combining_sim(config);
    let combining = sim.run_with(config.seed, config.kernel);

    let mut table = Table::new(vec![
        "N",
        "A",
        "policy",
        "reps",
        "accesses/proc",
        "x (5N/2)",
        "vs no backoff",
    ]);
    for row in &rows {
        let baseline = rows
            .iter()
            .find(|r| r.n == row.n && r.span == row.span && r.policy == BackoffPolicy::None)
            .map(|r| r.mean_accesses)
            .unwrap_or(row.mean_accesses);
        let saving = if row.policy == BackoffPolicy::None {
            "-".to_string()
        } else {
            format!("{}%", fmt_f64(100.0 * (row.mean_accesses - baseline) / baseline, 1))
        };
        table.add_row(vec![
            row.n.to_string(),
            row.span.to_string(),
            row.policy.label(),
            row.reps.to_string(),
            fmt_f64(row.mean_accesses, 2),
            fmt_f64(row.model_ratio(), 3),
            saving,
        ]);
    }

    let cfg = sim.config();
    let summary = format!(
        "Combining-tree row (single seed): N = {} at degree {}, {} nodes (A = {}, {}, {} kernel)\n\
         accesses/proc {} | completion {} | max module accesses {}",
        cfg.n,
        cfg.degree,
        combining.nodes(),
        cfg.span,
        sim.policy().label(),
        config.kernel.name(),
        fmt_f64(combining.mean_accesses(), 2),
        combining.completion(),
        combining.max_module_accesses(),
    );

    let json = mega_json(config, &rows, &sim, &combining);
    MegaExhibit {
        table,
        summary,
        json: ("megasweep.json".to_string(), json.render_pretty()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abs_sim::kernel::Kernel;

    /// A grid small enough for exhaustive testing: `[16, 256, 4096]`,
    /// one to two reps per point.
    fn tiny(jobs: usize, kernel: Kernel) -> ReproConfig {
        ReproConfig {
            max_n: 2,
            reps: 2,
            jobs,
            kernel,
            ..ReproConfig::quick()
        }
    }

    #[test]
    fn grid_scales_off_max_n() {
        assert_eq!(mega_grid(&ReproConfig::paper()), [4096, 65536, 1_048_576]);
        assert_eq!(mega_grid(&ReproConfig::quick()), [512, 8192, 131_072]);
    }

    #[test]
    fn reps_scale_down_with_n_but_never_vanish() {
        assert_eq!(scaled_reps(100, 4096, 4096), 100);
        assert_eq!(scaled_reps(100, 4096, 65536), 6);
        assert_eq!(scaled_reps(100, 4096, 1_048_576), 1);
        assert_eq!(scaled_reps(1, 16, 4096), 1);
    }

    #[test]
    fn exhibit_is_bit_identical_at_any_worker_count() {
        let reference = megasweep(&tiny(1, Kernel::Event));
        for jobs in [2, 8] {
            assert_eq!(megasweep(&tiny(jobs, Kernel::Event)), reference, "jobs {jobs}");
        }
    }

    #[test]
    fn kernels_agree_on_the_whole_exhibit() {
        // Keep the cycle-kernel oracle affordable: the smallest grid,
        // one rep. Compare point by point so a divergence names itself.
        let mut event = tiny(1, Kernel::Event);
        event.max_n = 1;
        event.reps = 1;
        let mut cycle = event;
        cycle.kernel = Kernel::Cycle;
        for (e, c) in flat_rows(&event).iter().zip(flat_rows(&cycle)) {
            assert_eq!(*e, c);
        }
        // The exhibit embeds the kernel *name* in its summary and JSON,
        // so compare the numeric content: the table and the combining row.
        assert_eq!(megasweep(&event).table, megasweep(&cycle).table);
        let sim = combining_sim(&event);
        assert_eq!(
            sim.run_with(event.seed, Kernel::Event),
            sim.run_with(cycle.seed, Kernel::Cycle)
        );
    }

    #[test]
    fn rows_cover_the_full_grid_and_respect_the_model() {
        let mut config = tiny(1, Kernel::Event);
        config.max_n = 1;
        let exhibit = megasweep(&config);
        let rows = flat_rows(&config);
        assert_eq!(rows.len(), 3 * SPANS.len() * mega_policies().len());
        for row in &rows {
            // Every processor wins the variable once and passes the flag
            // once; at A=0 without backoff the 5N/2 model should be in
            // sight (the simulation includes denied-retry traffic, so
            // allow a generous band around 1.0).
            assert!(row.mean_accesses >= 2.0, "row {row:?}");
            if row.policy == BackoffPolicy::None && row.span == 0 {
                let ratio = row.model_ratio();
                assert!((0.5..=2.0).contains(&ratio), "ratio {ratio} at n {}", row.n);
            }
        }
        assert_eq!(exhibit.json.0, "megasweep.json");
        assert!(exhibit.json.1.contains("\"combining\""));
        assert!(exhibit.summary.contains("Combining-tree row"));
    }
}
