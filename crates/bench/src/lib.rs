//! The reproduction harness: one regenerator per paper table and figure.
//!
//! Every experiment in the paper's evaluation has a function here that
//! reruns it on the workspace's simulators and returns a printable
//! [`abs_sim::Table`] or [`abs_sim::SeriesSet`]. The `repro` binary maps
//! subcommands onto these functions; integration tests call them with
//! reduced repetition counts.
//!
//! | id | paper artifact | function |
//! |----|----------------|----------|
//! | `fig1` | Figure 1 (invalidation histogram) | [`experiments::fig1`] |
//! | `table1` | Table 1 (invalidating references) | [`experiments::table1`] |
//! | `table2` | Table 2 (uncached sync traffic) | [`experiments::table2`] |
//! | `table3` | Table 3 (A and E intervals) | [`experiments::table3`] |
//! | `fig3` | Figure 3 (arrival distribution) | [`experiments::fig3`] |
//! | `fig4` | Figure 4 (model vs simulation) | [`experiments::fig4`] |
//! | `fig5`–`fig7` | net accesses vs N | [`experiments::barrier_figures`] |
//! | `fig8`–`fig10` | waiting time vs N | [`experiments::barrier_figures`] |
//! | `hw` | Sec. 5.1 hardware baselines | [`experiments::hardware`] |
//! | `sec71` | Sec. 7.1 average-traffic validation | [`experiments::sec71`] |
//! | `resource` | Sec. 8 resource backoff | [`experiments::resource`] |
//! | `netback` | Sec. 8 network backoff | [`experiments::netback`] |
//! | `combining` | Sec. 8 combining trees | [`experiments::combining`] |
//! | `single` | Secs. 2 & 4 one-variable barrier | [`experiments::single`] |
//! | `snoopy` | Sec. 2.1 snoopy-bus contrast | [`experiments::snoopy`] |
//! | `ablations` | arbitration / determinism / cap | [`experiments::ablation_arbitration`] et al. |
//! | `loadsweep` | open-loop offered-load sweep | [`experiments::loadsweep`] |
//! | `fairness` | per-tenant shares per scheduler | [`experiments::fairness`] |

pub mod cli;
pub mod experiments;
pub mod render;

use abs_sim::Kernel;
use abs_trace::sched::SchedKind;

/// Controls how heavy the regeneration runs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReproConfig {
    /// Repetitions per simulated data point (the paper used 100).
    pub reps: u32,
    /// Master seed.
    pub seed: u64,
    /// Processor count for trace-driven experiments (the paper used 64).
    pub procs: usize,
    /// Largest processor count in the barrier sweeps (the paper plots to
    /// 512).
    pub max_n: usize,
    /// Worker threads available to sweep-shaped experiments (they fan
    /// their points out over an `abs-exec` engine when this exceeds 1).
    /// Results are bit-for-bit identical at any value.
    pub jobs: usize,
    /// Simulation kernel driving every episode. The kernels are
    /// bit-identical; `cycle` is the reference oracle, `event` (the
    /// default) skips dead cycles.
    pub kernel: Kernel,
    /// Offered-load override for the open-loop exhibits, in permille of
    /// each sweep grid point's baseline rate (`None` sweeps the built-in
    /// grid; stored as permille so the config stays `Eq`-comparable for
    /// `--resume`).
    pub load: Option<u32>,
    /// Tenant population size for the open-loop exhibits.
    pub tenants: usize,
    /// Scheduler-policy restriction for the open-loop exhibits (`None`
    /// runs all of [`abs_trace::sched::SchedKind::ALL`]).
    pub sched: Option<SchedKind>,
}

impl ReproConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Self {
            reps: 100,
            seed: 0x1989_0605, // ISCA '89, Jerusalem
            procs: 64,
            max_n: 512,
            jobs: 1,
            kernel: Kernel::default(),
            load: None,
            tenants: 4,
            sched: None,
        }
    }

    /// A reduced configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Self {
            reps: 10,
            seed: 0x1989_0605,
            procs: 16,
            max_n: 64,
            jobs: 1,
            kernel: Kernel::default(),
            load: None,
            tenants: 3,
            sched: None,
        }
    }

    /// The same configuration with `jobs` worker threads.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The same configuration under an explicit simulation kernel.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }
}

impl Default for ReproConfig {
    fn default() -> Self {
        Self::paper()
    }
}
