//! The paper's primary contribution: **adaptive backoff barrier
//! synchronization**, evaluated on the Section-3 network model.
//!
//! A barrier is implemented Tang–Yew style with two shared variables living
//! in different memory modules: an incrementing *barrier variable* and a
//! *barrier flag* set by the last arriver. Every module serves one access
//! per cycle; denied accesses retry the next cycle and still count as
//! network accesses. On top of that substrate this crate implements the
//! paper's backoff policies:
//!
//! * **Backoff on the barrier variable** — having incremented the variable
//!   to `i`, wait `N − i` cycles (optionally scaled) before the first flag
//!   poll, because at best one processor per cycle can still arrive.
//! * **Backoff on the barrier flag** — after each *served but unsuccessful*
//!   flag read, wait an amount linear or exponential in the number of such
//!   reads. (Denied accesses retry immediately: "once a processor initiates
//!   a barrier read request … the access is repeated until the flag is
//!   read".)
//! * **Queue on threshold** — the Section-7 extension: once the backoff
//!   delay crosses a preset threshold, take the process out of circulation
//!   and wake it when the flag is set.
//!
//! The two metrics are the paper's: network accesses per process and
//! waiting time from barrier arrival to observing the flag set.
//!
//! Beyond the barrier, the crate carries the Section-8 extensions:
//! [`resource`] (backoff while waiting on a held resource) and
//! [`combining`] (software combining-tree barriers with backoff at the
//! intermediate nodes).
//!
//! # Examples
//!
//! ```
//! use abs_core::{BackoffPolicy, BarrierConfig, BarrierSim};
//!
//! let config = BarrierConfig::new(64, 1000);
//! let plain = BarrierSim::new(config, BackoffPolicy::None).run(1);
//! let backoff = BarrierSim::new(config, BackoffPolicy::exponential(2)).run(1);
//! assert!(backoff.mean_accesses() < plain.mean_accesses());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barrier;
pub mod combining;
pub mod metrics;
pub mod policy;
pub mod resource;
pub mod single;
pub mod traffic;

pub use abs_sim::kernel::Kernel;
pub use barrier::{BarrierConfig, BarrierRun, BarrierSim};
pub use combining::{CombiningConfig, CombiningRun, CombiningTreeSim};
pub use metrics::{aggregate_runs, aggregate_runs_with, BarrierAggregate};
pub use policy::BackoffPolicy;
pub use resource::{ResourceConfig, ResourcePolicy, ResourceRun, ResourceSim};
pub use single::{SingleCounterRun, SingleCounterSim};
pub use traffic::{amortized_traffic, TrafficEstimate};
