//! # abs-insight
//!
//! The offline analysis engine over `abs-obs` traces: **where did every
//! simulated cycle go?**
//!
//! The paper's argument (Agarwal & Cherian, ISCA '89) is an *attribution*
//! claim — adaptive backoff wins because it converts wasted spin-poll
//! network accesses into quiet backoff waiting. The exhibits report
//! end-point aggregates; this crate decomposes traced runs so the
//! mechanism itself is checkable:
//!
//! * [`attribution`] — classifies every processor-cycle of a traced unit
//!   into {work, spin-poll, backoff-wait, queue-stall, net-transit, idle}
//!   with a conservation invariant: per-processor buckets sum **exactly**
//!   to the analysis-window length.
//! * [`episodes`] — barrier episode/critical-path extraction: which
//!   processor's arrival → counter-win → flag-write → wake chain bounded
//!   the episode, with residency quantiles via `abs_sim::stats`.
//! * [`slo`] — per-tenant SLO timelines for open-loop (`abs-load`) runs:
//!   windowed completion rate, queue depth, and wait quantiles, making
//!   starvation visible over time.
//! * [`import`] — reads `repro --trace` Chrome documents back into unit
//!   event lists, so analysis runs the same on a live ring or a file.
//! * [`analyze`] — the `repro analyze` orchestration: every pass a unit
//!   supports, rendered as text tables + ASCII lane heatmaps or JSON.
//!
//! Everything is deterministic: same trace bytes in, same report bytes
//! out, at any worker count and under either simulation kernel.
//!
//! # Quick start
//!
//! ```
//! use abs_core::{BackoffPolicy, BarrierConfig, BarrierSim};
//! use abs_insight::analyze::analyze_unit;
//! use abs_insight::attribution::{Bucket, Options};
//! use abs_obs::trace::Ring;
//!
//! let sim = BarrierSim::new(BarrierConfig::new(8, 1000), BackoffPolicy::exponential(8));
//! let mut ring = Ring::default();
//! sim.run_traced(42, &mut ring);
//! let report = analyze_unit(&ring.into_events(), &Options::default()).unwrap();
//! let a = &report.attribution;
//! assert!(a.conserved()); // buckets sum exactly to cycles x procs
//! assert!(a.bucket(Bucket::BackoffWait) > 0);
//! ```

#![forbid(unsafe_code)]

pub mod analyze;
pub mod attribution;
pub mod episodes;
pub mod import;
pub mod slo;
